"""Property tests: scenario loading either accepts a runnable scenario or
rejects it with ConfigError, whatever the float values, and every command
runs an accepted scenario or fails it with a one-line message."""

import io
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from cachesec import montecarlo
from cachesec.cli import (DBW_LIMIT, MAX_SWEEP_POINTS, RS_LIMIT, ConfigError,
                          _fmt, main, parse_scenario_text)

FLOAT_KEYS = ("r_s1_o", "r_s", "r_b_s1", "alpha", "Ps_dBw", "Pm_dBw",
              "lambda_e", "epsilon", "beta_t", "beta_e", "tau")


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(FLOAT_KEYS),
                       st.floats(allow_nan=True, allow_infinity=True),
                       max_size=4))
@example({"r_s": 8.98846567431158e+307})  # k * r_s overflows in the layout
def test_loaded_scenarios_are_finite_and_in_range(values):
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    try:
        scn = parse_scenario_text(text)
    except ConfigError:
        return
    for key in FLOAT_KEYS:
        assert math.isfinite(getattr(scn, key))
    assert scn.alpha > 2.0 and 0.0 < scn.epsilon < 1.0
    assert scn.lambda_e >= 0.0 and scn.tau > 0.0
    assert abs(scn.Ps_dBw) <= DBW_LIMIT and abs(scn.Pm_dBw) <= DBW_LIMIT
    # what every command builds from the scenario must then construct
    scn.layout()
    scn.params()


# sweep bounds and steps at the float limits, at the 12 printed digits of
# a table and at the ends of each axis' range
_SWEEP_EDGES = st.sampled_from([
    -1e308, -3000.0, -5.0, 0.0, 1e-300, 1e-13, 3e-13, 1e-10, 0.1, 1.0, 5.0,
    100.0, 100.0000000003, 1020.0, 1024.0, 3000.0, 1e308,
    1.7976931348623157e308])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["Ps_dBw", "N", "Rs"]),
       st.tuples(_SWEEP_EDGES, _SWEEP_EDGES), _SWEEP_EDGES)
@example("Ps_dBw", (0.0, 0.0), 1e-300)
@example("Ps_dBw", (0.0, 3e-13), 1e-13)
@example("Rs", (100.0, 100.0000000003), 1e-10)
@example("N", (1.0, 1e308), 1e-300)
def test_loaded_sweeps_are_bounded_ordered_in_range_and_apart(axis, bounds,
                                                              step):
    # whatever sweep loads lists at most MAX_SWEEP_POINTS points from
    # sweep_start up, none past sweep_stop by more than 1e-9 of a step and
    # rounding, each in its axis' range and printed apart from the rest
    start, stop = sorted(bounds)
    try:
        scn = parse_scenario_text(
            f"sweep_var = {axis}\nsweep_start = {start!r}\n"
            f"sweep_stop = {stop!r}\nsweep_step = {step!r}\n")
    except ConfigError:
        return
    points = scn.sweep_points
    assert 1 <= len(points) <= MAX_SWEEP_POINTS
    assert points[0] == start
    assert all(a < b for a, b in zip(points, points[1:]))
    assert points[-1] - stop <= 1e-9 * step + 4 * math.ulp(abs(start)
                                                           + abs(stop))
    in_range = {"Ps_dBw": lambda v: abs(v) <= DBW_LIMIT,
                "N": lambda v: type(v) is int and v >= 1,
                "Rs": lambda v: 0.0 <= v < RS_LIMIT}[axis]
    assert all(in_range(v) for v in points)
    labels = [_fmt(v) for v in points]
    assert len(set(labels)) == len(labels)


# edge values of the declared ranges; a distance d is drawn by alpha log d,
# so that d^alpha reaches both float limits whatever alpha is
_EDGES = {
    "Ps_dBw": st.sampled_from([-3000.0, -300.0, -30.0, 0.0, 30.0, 300.0,
                               3000.0]),
    "Pm_dBw": st.sampled_from([-3000.0, -30.0, 0.0, 30.0, 3000.0]),
    "alpha": st.sampled_from([2.0 + 1e-9, 2.5, 4.0, 8.0, 30.0]),
    "lambda_e": st.sampled_from([0.0, 1e-300, 1e-6, 0.1, 1.0, 1e6]),
    "K": st.integers(1, 20),
    "bsr_sop_model": st.sampled_from(["approx", "exact"]),
}
_LOG_POWERS = st.sampled_from([-707.0, -300.0, 0.0, 300.0, 708.0])
# secrecy rates up to the largest whose 2^Rs - 1 is a finite float
_RS = st.sampled_from([0.0, 1.0, 1020.0, 1023.5])


@settings(max_examples=30, deadline=None)
@given(st.fixed_dictionaries(_EDGES),
       st.tuples(_LOG_POWERS, _LOG_POWERS, _LOG_POWERS), _RS)
@example({"Ps_dBw": -30.0, "Pm_dBw": -3000.0, "alpha": 8.0, "lambda_e": 1.0,
          "K": 3, "bsr_sop_model": "exact"}, (0.0, -0.7, 0.7), 1020.0)
@example({"Ps_dBw": 3000.0, "Pm_dBw": 3000.0, "alpha": 4.0, "lambda_e": 0.1,
          "K": 20, "bsr_sop_model": "approx"}, (0.0, -2.8, 2.8), 1023.5)
def test_every_loaded_scenario_runs_or_fails_cleanly(values, log_powers, rs):
    # whatever the loader accepts runs without a floating-point warning, or
    # is refused with one line: exit 2 (config) or 3 (infeasible). Monte
    # Carlo fields are capped at 2^20 floats so that a dense field fails
    # fast and small, as it does at the program's own cap
    keys = ("r_s1_o", "r_s", "r_b_s1")
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    text += "".join(f"{k} = {math.exp(x / values['alpha'])!r}\n"
                    for k, x in zip(keys, log_powers))
    point = {"Ps_dBw": values["Ps_dBw"], "Rs": rs, "N": 100}
    runs = [("cop-sweep", "Ps_dBw", ["--trials", "50"]),
            ("sop-sweep", "Ps_dBw", ["--trials", "50"]),
            ("throughput", "Rs", []), ("throughput", "Ps_dBw", []),
            ("caching", "N", [])]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(montecarlo, "MAX_FIELD_FLOATS", 1 << 20):
        cfg = Path(tmp) / "scenario.cfg"
        for command, axis, extra in runs:
            v = point[axis]
            cfg.write_text(text + f"sweep_var = {axis}\nsweep_start = {v}\n"
                           f"sweep_stop = {v}\nsweep_step = 1\n")
            err = io.StringIO()
            with warnings.catch_warnings(), redirect_stderr(err), \
                    redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = main([command, "--config", str(cfg), *extra])
            lines = err.getvalue().splitlines()
            if code == 0:
                continue
            assert code in (2, 3), (command, code)
            prefix = "config error: " if code == 2 else "infeasible: "
            assert len(lines) == 1 and lines[0].startswith(prefix), lines
