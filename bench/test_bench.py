"""Tests of the benchmark itself: seeded generation, the tracing wrappers and
the speed meter.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import types
from collections import Counter
from fractions import Fraction

import pytest

import run
import speed
import tracing
import workloads


@pytest.fixture(scope="module")
def package():
    mods = run.load_package()
    table = mods.cli.parse_table_file(mods.cli.bundled_table_path())
    return mods, table


def signature(rounds):
    return [[item.label for item in items] for items in rounds]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_items(package, name):
    mods, table = package
    first = workloads.generate(name, mods, table, 7)
    second = workloads.generate(name, mods, table, 7)
    assert signature(first) == signature(second)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_share_count_and_strata(package, name):
    mods, table = package
    a = workloads.generate(name, mods, table, 1)
    b = workloads.generate(name, mods, table, 2)
    assert [len(r) for r in a] == [len(r) for r in b]
    for ra, rb in zip(a, b):
        assert Counter(i.stratum for i in ra) == Counter(i.stratum for i in rb)
    assert signature(a) != signature(b)


def test_benchmark_json_matches_printed_metrics(package):
    mods, table = package
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    rounds = workloads.generate("construct", mods, table, 1)
    meter = speed.Speedometer()
    with meter.running():
        result = run.measure(rounds[:1], 0, False, mods, meter)
    printed = {
        **run.end_to_end_metrics(result, [0.1]),
        **run.layer_metrics(tracing.Tracer(), 1, 1.0),
    }
    declared = spec["end_to_end"] + spec["per_layer"]
    assert [m["name"] for m in declared] == list(printed)
    assert all(printed[m["name"]]["unit"] == m["unit"] for m in declared)


@pytest.mark.parametrize("coeffs, a, b, n", [
    ((1, -3, 1), 2, 5, 2), ((7, 0, -4, 1), -3, 8, 5), ((5,), 1, 3, 4),
    (tuple((-1) ** j * 3**j + j for j in range(101)), 4, 9, 103),
])
def test_scaled_value_is_the_homogeneous_form(coeffs, a, b, n):
    expected = b**n * workloads.horner(coeffs, Fraction(a, b))
    assert workloads.scaled_value(coeffs, a, b, n) == expected


# ------------------------------------------------------------------ tracing


def fake_module(clock):
    """outer spends 1, calls inner (3), spends 2; boom raises inside a span."""
    mod = types.ModuleType("fake")

    def inner():
        clock.now += 3

    def outer():
        clock.now += 1
        mod.inner()
        clock.now += 2

    def boom():
        raise RuntimeError("item failed")

    mod.inner, mod.outer, mod.boom = inner, outer, boom
    return mod


class ScriptedClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def fake_targets(mod):
    return {f"fake.{n}": (mod, n, None) for n in ("inner", "outer", "boom")}


def test_self_time_subtracts_child_spans():
    clock = ScriptedClock()
    mod = fake_module(clock)
    tracer = tracing.Tracer(clock)
    with tracer.installed([mod], fake_targets(mod)):
        mod.outer()
        mod.inner()
    assert tracer.stats["fake.outer"].calls == 1
    assert tracer.stats["fake.outer"].self_s == 3.0  # 6 total minus inner's 3
    assert tracer.stats["fake.inner"].calls == 2
    assert tracer.stats["fake.inner"].self_s == 6.0


def test_wrappers_restored_when_block_raises():
    clock = ScriptedClock()
    mod = fake_module(clock)
    before = dict(vars(mod))
    tracer = tracing.Tracer(clock)
    with pytest.raises(RuntimeError):
        with tracer.installed([mod], fake_targets(mod)):
            assert mod.boom is not before["boom"]
            mod.boom()
    assert all(vars(mod)[k] is v for k, v in before.items())
    assert tracer.stats["fake.boom"].calls == 1


def bindings(modules, targets) -> dict:
    """Identity snapshot of every module binding of every target function."""
    out = {}
    for owner, attr, _ in targets.values():
        original = getattr(owner, attr)
        for module in modules:
            for key, value in vars(module).items():
                if value is original:
                    out[(module.__name__, key)] = value
    return out


def failing_item(probe=None):
    def call():
        if probe is not None:
            probe()
        raise RuntimeError("item failed")

    return workloads.Item("fails", "x", call, lambda out: True)


def test_traced_pass_restores_package_bindings(package):
    mods, _ = package
    targets = run.trace_targets(mods)
    before = bindings(run.traced_modules(mods), targets)
    assert len(before) > len(targets)  # kernels are bound in several modules
    seen = []
    original = before[("monicheb.certify", "decide_sup_bound")]
    probe = lambda: seen.append(mods.certify.decide_sup_bound is not original)
    tally = run.Tally()
    run.run_pass([failing_item(probe)], tally, tracing.Tracer(), mods)
    assert seen == [True]  # wrapped during the traced pass
    assert tally.failed == 1 and tally.attempted == 1
    after = bindings(run.traced_modules(mods), targets)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_pass_runs_unwrapped(package):
    mods, _ = package
    modules = run.traced_modules(mods)
    targets = run.trace_targets(mods)
    before = bindings(modules, targets)
    during = []
    run.run_pass([failing_item(lambda: during.append(bindings(modules, targets)))],
                 run.Tally())
    assert during[0].keys() == before.keys()
    assert all(during[0][k] is before[k] for k in before)


# ------------------------------------------------------------------ speed


def test_scaled_time_leaves_out_the_sampler_and_uses_nearby_samples():
    clock = ScriptedClock()
    meter = speed.Speedometer(clock=clock)
    nominal = speed.REFERENCE_S
    meter.samples = [0.1, 2 * nominal, 4 * nominal, 3 * nominal, 0.1]
    start = speed.Mark(at=10.0, samples=2, stolen=1.0)
    end = speed.Mark(at=14.0, samples=3, stolen=2.0)
    assert meter.wall(start, end) == 3.0
    # samples 1..3 bracket the span: mean kernel time is 3 * nominal
    assert meter.scaled(start, end) == pytest.approx(1.0)


def test_speedometer_samples_and_restores_the_signal_state():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer(period=0.001)
    with meter.running():
        start = meter.mark()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        end = meter.mark()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert end.samples - start.samples >= 3
    assert 0 < meter.wall(start, end) < end.at - start.at
    assert meter.scaled(start, end) > 0
