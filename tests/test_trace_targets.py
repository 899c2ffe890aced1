"""The benchmark's tracer wraps package functions by name, so renaming one
away breaks the per-layer metrics of bench/run.py --trace 1.  These tests
load bench/run.py's trace_targets, without re-importing the package, and
require every traced function to exist where the tracer looks for it."""
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import monicheb
from monicheb import certify, numpoly

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture(scope="module")
def targets():
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
        bench_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_run)
    finally:
        sys.path[:] = saved
    mods = SimpleNamespace(
        package=monicheb,
        **{name: importlib.import_module(f"monicheb.{name}") for name in bench_run.MODULES},
    )
    return bench_run.trace_targets(mods)


def test_targets_listed(targets):
    assert "numpoly.to_bernstein" in targets and "numpoly.bernstein_split" in targets


def test_every_traced_function_exists(targets):
    for name, (owner, attribute, _) in targets.items():
        assert owner.__name__ == f"monicheb.{name.split('.')[0]}", name
        assert name.split(".", 1)[1] == attribute, name
        assert callable(getattr(owner, attribute, None)), f"{name} is not in the package"


def test_bernstein_kernels_bound_in_certify():
    # the tracer wraps a kernel where its callers bind it by name
    assert certify.to_bernstein is numpoly.to_bernstein
    assert certify.bernstein_split is numpoly.bernstein_split
    assert certify.poly_gcd is numpoly.poly_gcd
