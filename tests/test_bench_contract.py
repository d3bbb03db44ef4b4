"""The benchmark in bench/ patches and calls the program by name: every
function its tracer wraps must exist, and every workload's warm-up must
run. A refactor that breaks either fails here, not only when the benchmark
runs. bench/ is read, never written. The public surface is held to the
same two directories: every exported name has a user in src/ or bench/."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import cachesec

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(cachesec.__file__).resolve().parent


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


def test_traced_design_path_reaches_the_public_optimizers():
    # the benchmark's rates.opt_bs metrics count calls of the wrapped
    # opt_bs_* names; they read 0 if scheme_throughput bypasses them
    from cachesec import rates
    from helpers import standard_layout, standard_params
    spans = _load("spans")
    tracer = spans.Tracer(job=0)
    tracer.install()
    try:
        rates.per_scheme_psi(standard_layout(3), standard_params(), 0.2)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["rates.opt_bs.calls"] == 3
    assert metrics["rates.scheme_throughput.calls"] == 3


def test_traced_exact_inversions_call_no_sop_evaluator():
    # the Newton steps run on the breach kernel itself, and each root is
    # certified by the kernel evaluation that accepted it: an exact
    # inversion calls no wrapped sop_* evaluator (a second certification
    # pass would count one SOP call per inversion here)
    from cachesec import rates
    from helpers import standard_layout, standard_params
    spans = _load("spans")
    tracer = spans.Tracer(job=0)
    lay, params = standard_layout(3), standard_params()
    tracer.install()
    try:
        rates.per_scheme_psi(lay, params, 0.2, rates.power_sweep_roots(
            lay, [params], 0.2, bsr_exact=True)[0])
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["rates.invert_sop.calls"] == 3
    assert metrics["outage.sop.calls"] == 0
    assert not [s.name for s in tracer.spans
                if s.name.startswith("outage.sop")]


@pytest.mark.parametrize("command, per_point", [
    ("cop-sweep", {"outage.cop_dbf_exact": 1, "outage.cop_dbf_asymptotic": 1,
                   "outage.cop_fot": 1, "outage.cop_bsr": 1,
                   "montecarlo.mc_cop": 3}),
    ("sop-sweep", {"outage.sop_dbf": 1, "outage.sop_fot": 1,
                   "outage.sop_bsr_exact": 1, "outage.sop_bsr_approx": 1,
                   "montecarlo.mc_sop": 4}),
    ("validate", {"outage.cop_dbf_exact": 1, "outage.cop_fot": 1,
                  "outage.cop_bsr": 1, "outage.sop_dbf": 1,
                  "outage.sop_fot": 1, "outage.sop_bsr_exact": 1,
                  "montecarlo.mc_cop": 3, "montecarlo.mc_sop": 3})])
def test_traced_outage_tables_reach_the_wrapped_evaluators(tmp_path, command,
                                                           per_point):
    # the CLI must look its evaluators up on outage and montecarlo when a
    # command runs: a table filled when cachesec.cli was imported holds
    # the unwrapped functions, and these counts would read 0
    from collections import Counter
    from cachesec.cli import main
    spans = _load("spans")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("sweep_start = 0\nsweep_stop = 10\nsweep_step = 10\n")
    tracer = spans.Tracer(job=0)
    tracer.install()
    try:
        code = main([command, "--config", str(cfg), "--trials", "200",
                     "--out", str(tmp_path / "out.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = Counter(s.name for s in tracer.spans)
    assert calls.pop("cli.write_table") == 1
    assert calls == {name: 2 * n for name, n in per_point.items()}


def test_every_exported_name_is_used_outside_the_tests():
    # a use is a load of the bare name in its own module, an access
    # module.name or an import of it from its module in another module of
    # src/ or bench/, or a name the benchmark's tracer wraps; a name that
    # only tests use belongs in the tests
    used = {(mod, name) for mod, names in _load("spans").WRAPPED.items()
            for name in names}
    for path in [*SRC.glob("*.py"), *BENCH.glob("*.py")]:
        if path.name == "__init__.py":
            continue
        here = path.stem if path.parent == SRC else None
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and here is not None:
                used.add((here, node.id))
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name):
                used.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                mod = node.module.rsplit(".", 1)[-1]
                used.update((mod, alias.name) for alias in node.names)
    unused = [name for name in cachesec.__all__
              if (getattr(cachesec, name).__module__.rsplit(".", 1)[-1],
                  name) not in used]
    assert not unused
