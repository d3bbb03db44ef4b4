"""The benchmark in bench/ patches and calls the program by name: every
function its tracer wraps must exist, and every workload's warm-up must
run. A refactor that breaks either fails here, not only when the benchmark
runs. bench/ is read, never written."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_wrapped_name_is_a_callable():
    wrapped = _load("spans").WRAPPED
    assert wrapped
    for mod_name, names in wrapped.items():
        module = importlib.import_module(f"cachesec.{mod_name}")
        for attr in names:
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


@pytest.mark.parametrize("workload", ["design", "montecarlo", "outage-grid"])
def test_workload_warm_up_runs(workload):
    workloads = _load("workloads")
    assert workload in workloads.NAMES
    workloads.warm_up(workload)
