"""Benchmark for monicheb: seeded exact-arithmetic workloads, end-to-end
metrics from untraced passes and per-layer metrics from a traced run.

    python3 bench/run.py --workload search --seed 1 --seconds 12 --trace 0

Run from the repository root; the package is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Workloads and metrics are described in
bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = BENCH_DIR.parent / "src"
MODULES = ("numpoly", "farey", "constants", "construct", "certify", "lattice", "cli")
SETUPS = 9
HARD_LIMIT_S = 120.0


class SetupError(RuntimeError):
    pass


def load_package() -> SimpleNamespace:
    """Import monicheb afresh from ./src; returns its modules by short name."""
    if not (SRC / "monicheb" / "__init__.py").is_file():
        raise SetupError(f"no monicheb package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "monicheb" or m.startswith("monicheb.")]:
        del sys.modules[name]
    package = importlib.import_module("monicheb")
    if Path(package.__file__).resolve().parent != (SRC / "monicheb").resolve():
        raise SetupError(f"monicheb imported from {package.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"monicheb.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


def setup(workload: str, seed: int):
    """Import the package, parse the bundled table, generate the rounds."""
    mods = load_package()
    table = mods.cli.parse_table_file(mods.cli.bundled_table_path())
    return mods, workloads.generate(workload, mods, table, seed)


# ------------------------------------------------------------------ tracing


def _observe_prefilter(tracer, parent, args, result, exc):
    if exc is None:
        tracer.counts["prefilter_decided"] += result.verdict.value != "inconclusive"
        tracer.note_max("prefilter_depth", result.depth)


def _observe_decide(tracer, parent, args, result, exc):
    if exc is None:
        tracer.counts["decide_refuted"] += result.verdict.value == "refuted"
    if parent == "certify.sup_norm_enclosure":
        tracer.counts["enclosure_decisions"] += 1


def _observe_verify(tracer, parent, args, result, exc):
    if parent == "lattice.search_witness":
        tracer.counts["candidates_tried"] += 1


def _observe_search(tracer, parent, args, result, exc):
    if exc is None and result is not None:
        tracer.counts["search_found"] += 1


def _observe_lll(tracer, parent, args, result, exc):
    tracer.note_max("lll_dim", args[0].dim)


def _observe_multipoint(tracer, parent, args, result, exc):
    if exc is not None:
        tracer.counts["multipoint_refused"] += type(exc).__name__ == "DegreeSearchError"
    else:
        tracer.counts["output_bits"] += max(abs(c).bit_length() for c in result[1].coeffs)


def trace_targets(mods) -> dict:
    """Span name -> (owner module, attribute, observer).  The numpoly kernels
    are owned by numpoly and wrapped where certify and lattice bind them."""
    return {
        "cli.run": (mods.cli, "run", None),
        "cli.parse_table_file": (mods.cli, "parse_table_file", None),
        "certify.verify_witness": (mods.certify, "verify_witness", _observe_verify),
        "certify.certify_sup_bound": (mods.certify, "certify_sup_bound", None),
        "certify.bernstein_prefilter": (mods.certify, "bernstein_prefilter", _observe_prefilter),
        "certify.decide_sup_bound": (mods.certify, "decide_sup_bound", _observe_decide),
        "certify.sup_norm_enclosure": (mods.certify, "sup_norm_enclosure", None),
        "numpoly.to_bernstein": (mods.numpoly, "to_bernstein", None),
        "numpoly.bernstein_split": (mods.numpoly, "bernstein_split", None),
        "numpoly.poly_gcd": (mods.numpoly, "poly_gcd", None),
        "numpoly.poly_integrate_product": (mods.numpoly, "poly_integrate_product", None),
        "lattice.search_witness": (mods.lattice, "search_witness", _observe_search),
        "lattice.build_search_basis": (mods.lattice, "build_search_basis", None),
        "lattice.gram_matrix": (mods.lattice, "gram_matrix", None),
        "lattice.lll_reduce": (mods.lattice, "lll_reduce", _observe_lll),
        "construct.multipoint_monic": (mods.construct, "multipoint_monic", _observe_multipoint),
        "construct.construction_state": (mods.construct, "construction_state", None),
        "construct.pair_polynomial": (mods.construct, "pair_polynomial", None),
    }


def traced_modules(mods) -> list:
    return [mods.package] + [getattr(mods, name) for name in MODULES]


def layer_metrics(tracer: tracing.Tracer, passes: int, overhead: float) -> dict:
    """Per-layer metrics as values per traced pass, plus ratios."""
    def calls(name):
        return tracer.stats.get(name, tracing.LayerStats()).calls

    def self_s(name):
        return tracer.stats.get(name, tracing.LayerStats()).self_s / passes

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in ("certify.verify_witness", "certify.certify_sup_bound",
                 "certify.bernstein_prefilter", "certify.decide_sup_bound",
                 "certify.sup_norm_enclosure", "numpoly.to_bernstein",
                 "numpoly.bernstein_split", "numpoly.poly_gcd",
                 "numpoly.poly_integrate_product", "lattice.search_witness",
                 "lattice.gram_matrix", "lattice.lll_reduce",
                 "construct.multipoint_monic", "construct.pair_polynomial"):
        put(f"{name}.calls", calls(name) / passes, "count")
        put(f"{name}.self_s", self_s(name), "s")
    for name in ("lattice.build_search_basis", "construct.construction_state",
                 "cli.run", "cli.parse_table_file"):
        put(f"{name}.self_s", self_s(name), "s")
    put("certify.bernstein_prefilter.decided_ratio",
        ratio(c["prefilter_decided"], calls("certify.bernstein_prefilter")), "ratio")
    put("certify.bernstein_prefilter.max_depth", tracer.maxima.get("prefilter_depth", 0), "count")
    put("certify.decide_sup_bound.refuted_ratio",
        ratio(c["decide_refuted"], calls("certify.decide_sup_bound")), "ratio")
    put("certify.sup_norm_enclosure.decisions_per_call",
        ratio(c["enclosure_decisions"], calls("certify.sup_norm_enclosure")), "count")
    put("lattice.lll_reduce.dim_max", tracer.maxima.get("lll_dim", 0), "count")
    put("lattice.candidates_tried", c["candidates_tried"] / passes, "count")
    put("lattice.found_per_candidate", ratio(c["search_found"], c["candidates_tried"]), "ratio")
    put("construct.multipoint_monic.refused", c["multipoint_refused"] / passes, "count")
    put("construct.output_bits", c["output_bits"] / passes, "bits")
    put("trace.overhead_ratio", overhead, "ratio")
    return out


# ------------------------------------------------------------------ passes


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.solved = 0
        self.errors: list[str] = []

    def record(self, item, output, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                self.solved += bool(item.check(output))
                return
            except Exception as exc:  # a wrong output fails its item; the run goes on
                error = exc
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{item.label}: {type(error).__name__}: {error}")


def run_pass(items, tally: Tally, tracer=None, mods=None, meter=None) -> list:
    """Run one pass over items (traced when a tracer is given), then check
    the outputs.  Returns the meter's marks at the item boundaries, one more
    than there are items."""
    meter = meter or speed.Speedometer()
    gc.collect()
    results = []
    if tracer is not None:
        context = tracer.installed(traced_modules(mods), trace_targets(mods))
    else:
        context = contextlib.nullcontext()
    with context:
        marks = [meter.mark()]
        for item in items:
            try:
                output, error = item.call(), None
            except Exception as exc:
                output, error = None, exc
            marks.append(meter.mark())
            results.append((item, output, error))
    for item, output, error in results:
        tally.record(item, output, error)
    return marks


def measure(rounds, seconds: float, traced: bool, mods, meter) -> dict:
    """Cycle through the rounds until the timed passes add up to `seconds`
    and every round ran equally often.  Time spent on checks and in the
    meter's sampler does not count, so the number of cycles follows the
    program's speed alone.  Untraced runs, whose meter must be running,
    scale pass and item times to the nominal machine speed.  Traced runs
    alternate an untraced and a traced pass of each round, for the overhead
    ratio, and report unscaled wall times."""
    tally = Tally()
    tracer = tracing.Tracer() if traced else None
    plain, traced_times = [], []
    start = time.perf_counter()
    measured = 0.0
    while True:
        items = rounds[len(plain) % len(rounds)]
        marks = run_pass(items, tally, meter=meter)
        plain.append(marks)
        measured += meter.wall(marks[0], marks[-1])
        if traced:
            marks = run_pass(items, tally, tracer, mods, meter)
            traced_times.append(meter.wall(marks[0], marks[-1]))
            measured += traced_times[-1]
        if time.perf_counter() - start >= HARD_LIMIT_S:
            break
        if len(plain) % len(rounds) == 0 and measured >= seconds:
            break
    span = meter.wall if traced else meter.scaled
    return {
        "tally": tally,
        "pass_s": statistics.median(span(m[0], m[-1]) for m in plain),
        "slowest_item_s": statistics.median(
            max(span(a, b) for a, b in zip(m, m[1:])) for m in plain
        ),
        "wall_pass_s": statistics.median(meter.wall(m[0], m[-1]) for m in plain),
        "passes": len(plain),
        "tracer": tracer,
        "traced_pass_s": statistics.median(traced_times) if traced else None,
    }


def end_to_end_metrics(result: dict, setup_times: list[float]) -> dict:
    tally = result["tally"]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "pass_s": {"value": result["pass_s"], "unit": "s"},
        "slowest_item_s": {"value": result["slowest_item_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        "solved_ratio": {"value": tally.solved / tally.attempted, "unit": "ratio"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("error: refusing to run under python -O; the package's asserts are "
              "correctness checks", file=sys.stderr)
        return 2
    # cli reads MIC_MAX_DEPTH; the default prefilter depth is what is measured.
    os.environ.pop("MIC_MAX_DEPTH", None)

    # Untraced runs time set-up and passes at the nominal machine speed;
    # traced runs report raw wall time, with no sampler inside the spans.
    meter = speed.Speedometer()
    with contextlib.nullcontext() if args.trace else meter.running():
        try:
            setup_marks = []
            for _ in range(SETUPS):
                mods = rounds = None  # free the previous set-up before timing the next
                gc.collect()
                start = meter.mark()
                mods, rounds = setup(args.workload, args.seed)
                setup_marks.append((start, meter.mark()))
        except (SetupError, ImportError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = measure(rounds, args.seconds, bool(args.trace), mods, meter)
    span = meter.wall if args.trace else meter.scaled
    setup_times = [span(a, b) for a, b in setup_marks]
    tally = result["tally"]
    print(f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} seed={args.seed} "
          f"workload={args.workload} rounds={len(rounds)} passes={result['passes']} "
          f"items_per_pass={statistics.mean(len(r) for r in rounds):g}")
    if not args.trace:
        print(f"wall_pass_s={result['wall_pass_s']:.6g} speed_samples={len(meter.samples)} "
              f"kernel_median_s={statistics.median(meter.samples):.6g} "
              f"nominal_kernel_s={speed.REFERENCE_S:g}")
    for line in tally.errors:
        print(f"failure {line}")
    print(f"fail_ratio={tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} items)")

    if args.trace:
        overhead = result["traced_pass_s"] / result["pass_s"]
        metrics = layer_metrics(result["tracer"], result["passes"], overhead)
    else:
        metrics = end_to_end_metrics(result, setup_times)
    for name, m in metrics.items():
        print(f"{name}={m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
