import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cachesec
from cachesec import ChannelParams, SchemeId, outage, rates
from cachesec.cli import (ConfigError, Scenario, load_scenario, main,
                          parse_scenario_text)


def run(tmp_path, command, config_text=None, extra=None, name="out.csv"):
    args = [command]
    if config_text is not None:
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(config_text)
        args += ["--config", str(cfg)]
    out = tmp_path / name
    args += ["--out", str(out)]
    args += extra or []
    code = main(args)
    return code, out


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


SMALL_SWEEP = "sweep_start = 0\nsweep_stop = 10\nsweep_step = 5\n"


def scenario(*texts: str) -> str:
    """key = value lines of the texts in order, a later line of a key
    replacing the earlier one: a scenario file sets each key once."""
    lines = {}
    for text in texts:
        for line in text.splitlines():
            lines[line.split("=", 1)[0].strip()] = line
    return "\n".join(lines.values()) + "\n"


def test_scenario_parsing_flat_and_json():
    flat = parse_scenario_text("# a comment line\n\nK = 4\n"
                               "Ps_dBw = 12.5  # comment\n")
    assert flat.K == 4 and flat.Ps_dBw == 12.5
    as_json = parse_scenario_text(json.dumps({"K": 4, "Ps_dBw": 12.5}))
    assert as_json == flat


def test_scenario_unknown_key_is_error():
    with pytest.raises(ConfigError):
        parse_scenario_text("K = 4\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario_text(json.dumps({"bogus": 1}))


@pytest.mark.parametrize("text, first", [
    ("K = 3\nL = 4\nK = 8\n", "scenario.cfg:1"),
    ('{"K": 3, "L": 4, "K": 8}', "scenario.cfg: member 1")],
    ids=["flat", "json"])
def test_scenario_duplicate_key_is_error(tmp_path, capsys, text, first):
    # a key set twice would load as its last value, silently dropping one
    code, out = run(tmp_path, "cop-sweep", text, ["--trials", "0"])
    assert code == 2
    assert f"duplicate key 'K', first set at {tmp_path / first}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_scenario_value_errors():
    with pytest.raises(ConfigError):
        parse_scenario_text("K = four\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("just text\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("K = 4.7\n")
    with pytest.raises(ConfigError):
        parse_scenario_text(json.dumps({"K": 4.7}))
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_scenario_text('{"K": 4,}')
    with pytest.raises(ConfigError):
        parse_scenario_text("sweep_var = alpha\n")


def test_every_default_round_trips_through_both_formats():
    # each key is declared once, by its Scenario field: every default
    # written out as text or as JSON reads back as the same value and type
    for f in fields(Scenario):
        default = getattr(Scenario(), f.name)
        if default is None:
            continue
        for text in (f"{f.name} = {default}\n",
                     json.dumps({f.name: default})):
            value = getattr(parse_scenario_text(text), f.name)
            assert value == default and type(value) is type(default), text


def test_scenario_key_m_is_unknown(tmp_path, capsys):
    # the cache allocation is always optimized; a fixed M is not a setting
    code, out = run(tmp_path, "caching", SMALL_SWEEP + "M = 3\n")
    assert code == 2
    assert "unknown key 'M'" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "out.csv"
    code = main(["cop-sweep", "--trials", "0", "--out", str(out)])
    assert code == 2
    assert "config error: cannot write" in capsys.readouterr().err
    assert not out.exists()


def test_load_scenario_missing_file():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/path.cfg")


def test_sweep_values_inclusive_endpoint():
    scn = Scenario(sweep_start=0.0, sweep_stop=30.0, sweep_step=5.0)
    assert scn.sweep_points == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    scn_n = Scenario(sweep_var="N", sweep_start=10, sweep_stop=30,
                     sweep_step=10)
    assert scn_n.sweep_points == (10, 20, 30)
    assert all(type(n) is int for n in scn_n.sweep_points)


def test_a_sweep_is_counted_not_walked(tmp_path):
    # start = stop with a step of 1e-300 is one point: the count is one
    # integer, bounded before any point is built
    cfg = "sweep_start = 0\nsweep_stop = 0\nsweep_step = 1e-300\n"
    assert parse_scenario_text(cfg).sweep_points == (0.0,)
    code, out = run(tmp_path, "cop-sweep", cfg, ["--trials", "0"])
    assert code == 0
    assert [row[0] for row in read_rows(out)[1]] == ["0"] * 4
    # each point is summed in the decimals written: 0.1-steps reach 0
    scn = parse_scenario_text("sweep_start = -2.3\nsweep_stop = 1.2\n"
                              "sweep_step = 0.1\n")
    assert scn.sweep_points[23] == 0.0 and scn.sweep_points[-1] == 1.2
    # steps below the 12 printed digits of 0 stay apart: 0 to 3e-13
    scn = parse_scenario_text("sweep_start = 0\nsweep_stop = 3e-13\n"
                              "sweep_step = 1e-13\n")
    assert [f"{v:.12g}" for v in scn.sweep_points] \
        == ["0", "1e-13", "2e-13", "3e-13"]
    # too many points, also where the span or the ratio leaves the floats
    for low, high, step in ((-3000.0, 3000.0, 1e-300), (-1e308, 1e308, 1.0),
                            (0.0, 1e10, 1e-300)):
        with pytest.raises(ConfigError, match="at most 10000 points"):
            Scenario(sweep_start=low, sweep_stop=high, sweep_step=step)


def test_n_sweep_rejects_fractional_points():
    # int() would repeat N = 1, 1, 2, 2, 3 or label N = 1.5 as 1
    for start, step in ((1, 0.5), (1.5, 1)):
        with pytest.raises(ConfigError, match="integer"):
            Scenario(sweep_var="N", sweep_start=start, sweep_stop=3,
                     sweep_step=step)


def test_cli_and_first_evaluations_load_no_scipy():
    # the program needs numpy alone at run time (scipy took most of its
    # start-up); a fresh interpreter shows whether anything pulls scipy in,
    # at import and through the beamforming COP and SOP
    code = """
import sys
import cachesec.cli
from cachesec import ChannelParams, build_line_layout, outage
def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
print(scipy_loaded())
layout = build_line_layout(1.0, 0.5, 3, 2.0)
params = ChannelParams(alpha=4.0, Ps=10.0, Pm=1.0, lambda_e=0.1)
cop = outage.cop_dbf_exact(layout, params, 1.0).value
assert 0.0 < cop < 1.0  # the Laplace inversion ran: no cut
outage.sop_dbf(layout, params, 1.0)
print(scipy_loaded())
"""
    src = str(Path(cachesec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "False"]


def test_cop_sweep_table_shape_and_probabilities(tmp_path):
    code, out = run(tmp_path, "cop-sweep", SMALL_SWEEP,
                    extra=["--trials", "2000"])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["Ps_dBw", "scheme", "analytic", "mc", "mc_stderr"]
    assert len(rows) == 3 * 4  # three powers, three schemes plus asymptote
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0
        if row[3]:
            assert 0.0 <= float(row[3]) <= 1.0


def test_cop_sweep_analytic_only_when_trials_zero(tmp_path):
    code, out = run(tmp_path, "cop-sweep", SMALL_SWEEP,
                    extra=["--trials", "0"])
    assert code == 0
    _, rows = read_rows(out)
    assert all(row[3] == "" and row[4] == "" for row in rows)


def test_cop_sweep_monotone_and_ordered(tmp_path):
    code, out = run(tmp_path, "cop-sweep",
                    "sweep_start = 0\nsweep_stop = 30\nsweep_step = 5\n",
                    extra=["--trials", "0"])
    assert code == 0
    _, rows = read_rows(out)
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row[1], []).append(float(row[2]))
    for name, vals in by_scheme.items():
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), name
    for d, b, f in zip(by_scheme["dbf"], by_scheme["bsr"], by_scheme["fot"]):
        assert d <= b + 1e-9 <= f + 2e-9


def test_byte_identical_reruns(tmp_path):
    for command, cfg in [
            ("cop-sweep", SMALL_SWEEP),
            ("sop-sweep", SMALL_SWEEP),
            ("throughput", SMALL_SWEEP + "lambda_e = 0.01\n"),
            ("caching",
             "sweep_var = N\nsweep_start = 60\nsweep_stop = 120\n"
             "sweep_step = 30\nlambda_e = 0.002\nPm_dBw = 40\n"),
            ("validate", SMALL_SWEEP)]:
        code1, out1 = run(tmp_path, command, cfg, ["--trials", "400"],
                          name=f"{command}-1.csv")
        code2, out2 = run(tmp_path, command, cfg, ["--trials", "400"],
                          name=f"{command}-2.csv")
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes(), command


def test_threads_do_not_change_output(tmp_path):
    # one pool task per (point, cell): same bytes, rows in point order and
    # then cell order, whatever the worker count
    cfg = "sweep_start = 0\nsweep_stop = 30\nsweep_step = 10\n"
    for command, per_point in (
            ("cop-sweep", ["dbf", "dbf-asymptote", "fot", "bsr"]),
            ("sop-sweep", ["dbf", "fot", "bsr-exact", "bsr-approx"]),
            ("validate", ["cop"] * 3 + ["sop"] * 3)):
        outs = [run(tmp_path, command, cfg,
                    ["--trials", "2000", "--threads", threads],
                    name=f"{command}-{threads}.csv")[1]
                for threads in ("1", "2", "4")]
        text = [out.read_text() for out in outs]
        assert text[0] == text[1] == text[2], command
        _, rows = read_rows(outs[0])
        assert [row[0] for row in rows] == [
            ps for ps in ("0", "10", "20", "30") for _ in per_point]
        assert [row[1] for row in rows] == per_point * 4


def test_sop_sweep_includes_both_relay_forms(tmp_path):
    code, out = run(tmp_path, "sop-sweep", SMALL_SWEEP,
                    extra=["--trials", "500"])
    assert code == 0
    _, rows = read_rows(out)
    schemes = {row[1] for row in rows}
    assert schemes == {"dbf", "fot", "bsr-exact", "bsr-approx"}
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row[1], []).append(float(row[2]))
    for vals in by_scheme.values():
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
    for d, f in zip(by_scheme["dbf"], by_scheme["fot"]):
        assert d <= f + 1e-9


def test_sop_sweep_zero_redundancy(tmp_path):
    # beta_e = 0: every eavesdropper breaches, both columns pinned at 1;
    # without eavesdroppers nothing can breach, both columns are 0
    for extra, expected in (("", 1.0), ("lambda_e = 0\n", 0.0)):
        code, out = run(tmp_path, "sop-sweep",
                        SMALL_SWEEP + "beta_e = 0\n" + extra,
                        extra=["--trials", "200"])
        assert code == 0
        _, rows = read_rows(out)
        assert all(float(row[2]) == float(row[3]) == expected
                   and float(row[4]) == 0.0 for row in rows)


def test_sop_sweep_zero_density_all_zero(tmp_path):
    code, out = run(tmp_path, "sop-sweep", SMALL_SWEEP + "lambda_e = 0\n",
                    extra=["--trials", "200"])
    assert code == 0
    _, rows = read_rows(out)
    assert all(float(row[2]) == 0.0 and float(row[3]) == 0.0 for row in rows)


def test_throughput_rs_sweep_unimodal(tmp_path):
    cfg = ("sweep_var = Rs\nsweep_start = 0.25\nsweep_stop = 8\n"
           "sweep_step = 0.25\nK = 2\nPm_dBw = 10\nPs_dBw = 10\n"
           "lambda_e = 0.01\nepsilon = 0.3\n")
    code, out = run(tmp_path, "throughput", cfg)
    assert code == 0
    _, rows = read_rows(out)
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row[1], []).append(float(row[2]))
    for name, vals in by_scheme.items():
        arr = np.array(vals)
        assert (arr >= -1e-15).all()
        diffs = np.diff(arr)
        signs = np.sign(diffs[np.abs(diffs) > 1e-13])
        flips = int(np.sum(signs[:-1] != signs[1:]))
        assert flips <= 1, name


def test_throughput_exact_relay_sop_model(tmp_path):
    base = ("sweep_start = 10\nsweep_stop = 10\nsweep_step = 5\nK = 2\n"
            "Pm_dBw = 10\nlambda_e = 0.01\nepsilon = 0.3\n")
    _, approx = run(tmp_path, "throughput", base, name="approx.csv")
    _, exact = run(tmp_path, "throughput", base + "bsr_sop_model = exact\n",
                   name="exact.csv")
    header, rows_a = read_rows(approx)
    _, rows_e = read_rows(exact)
    psi = header.index("psi_star")
    bsr_a = next(float(r[psi]) for r in rows_a if r[1] == "bsr")
    bsr_e = next(float(r[psi]) for r in rows_e if r[1] == "bsr")
    assert bsr_a > 0.0 and bsr_e > 0.0
    assert bsr_a != bsr_e  # the two SOP forms price redundancy differently


def test_throughput_ps_sweep_monotone(tmp_path):
    cfg = ("sweep_start = 0\nsweep_stop = 30\nsweep_step = 10\nK = 3\n"
           "Pm_dBw = 40\nlambda_e = 0.01\nepsilon = 0.3\n")
    code, out = run(tmp_path, "throughput", cfg)
    assert code == 0
    header, rows = read_rows(out)
    assert header[-1] == "psi_star"
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row[1], []).append(float(row[-1]))
    for name, vals in by_scheme.items():
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:])), name


def test_caching_sweep_hybrid_dominates(tmp_path):
    cfg = ("sweep_var = N\nsweep_start = 40\nsweep_stop = 160\n"
           "sweep_step = 40\nK = 3\nPm_dBw = 60\nPs_dBw = 25\n"
           "lambda_e = 0.002\nepsilon = 0.2\nL = 10\ntau = 1.2\n")
    code, out = run(tmp_path, "caching", cfg)
    assert code == 0
    header, rows = read_rows(out)
    for row in rows:
        hybrid, mpc, lcd = (float(row[header.index(c)])
                            for c in ("obj_hybrid", "obj_mpc", "obj_lcd"))
        assert hybrid >= mpc - 1e-12
        assert hybrid >= lcd - 1e-12
        m_closed = int(row[header.index("M_closed")])
        m_ex = int(row[header.index("M_exhaustive")])
        assert abs(m_closed - m_ex) <= 1


def test_caching_sweep_see_objective(tmp_path):
    cfg = ("sweep_start = 5\nsweep_stop = 15\nsweep_step = 5\nK = 3\n"
           "Pm_dBw = 30\nlambda_e = 0.01\nepsilon = 0.3\nL = 10\n"
           "N = 100\ntau = 1.5\ncaching_objective = see\n")
    code, out = run(tmp_path, "caching", cfg)
    assert code == 0
    header, rows = read_rows(out)
    for row in rows:
        hybrid, mpc, lcd = (float(row[header.index(c)])
                            for c in ("obj_hybrid", "obj_mpc", "obj_lcd"))
        assert hybrid >= mpc - 1e-12
        assert hybrid >= lcd - 1e-12


def test_beamforming_asymptote_saturates_at_tiny_power(tmp_path):
    # (beta_t / Ps)^K overflows a float here; the loader accepts the power.
    # Every psi is 0, so every caching allocation is equally good.
    cfg = "K = 8\nsweep_start = -400\nsweep_stop = -390\nsweep_step = 5\n"
    for command in ("cop-sweep", "throughput", "caching"):
        code, out = run(tmp_path, command, cfg, ["--trials", "0"],
                        name=f"{command}.csv")
        assert code == 0
        header, rows = read_rows(out)
        assert len(rows) >= 3
        assert not any("nan" in cell for row in rows for cell in row)


def test_validate_command_flags_cells(tmp_path):
    code, out = run(tmp_path, "validate", SMALL_SWEEP,
                    extra=["--trials", "20000"])
    assert code == 0
    header, rows = read_rows(out)
    assert header[-1] == "within_3sigma"
    flags = [int(row[-1]) for row in rows]
    assert sum(flags) >= 0.95 * len(flags)


def test_exit_code_2_for_config_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    assert main(["cop-sweep", "--config", str(cfg)]) == 2


def test_exit_code_2_for_out_of_range_epsilon(tmp_path):
    cfg = tmp_path / "eps.cfg"
    cfg.write_text("epsilon = 1.5\n" + SMALL_SWEEP)
    out = tmp_path / "x.csv"
    assert main(["throughput", "--config", str(cfg), "--out", str(out)]) == 2


@pytest.mark.parametrize("bad", [
    "Ps_dBw = nan", "alpha = inf", "Pm_dBw = -inf", "lambda_e = nan",
    "Ps_dBw = 4000", "epsilon = 0", "epsilon = 1", "alpha = 2",
    "lambda_e = -0.1", "K = 0", "N = 0", "L = 0", "tau = 0", "threads = 0",
    "trials = -1", "r_s = 0", "beta_e = -1", "sweep_step = 0",
    "sweep_start = -5000", "sweep_var = N\nsweep_start = 0",
    "sweep_var = Rs\nsweep_start = -1", "r_s = 8.98846567431158e+307",
    "r_s = 8e307\nr_b_s1 = 1e308", "sweep_step = 1e-9",
    "sweep_var = N\nsweep_start = 1\nsweep_stop = 3\nsweep_step = 0.5",
    "sweep_var = N\nsweep_start = 1.5\nsweep_stop = 3\nsweep_step = 1",
    "sweep_start = 30\nsweep_stop = 0",
    "sweep_var = N\nsweep_start = 60\nsweep_stop = 5", "threads = 100000",
    "seed = -1",
    # K d^alpha or K d^-alpha of a transmitter distance d leaves the
    # normal floats: a nan COP, an exit 3 or a subnormal r^4 once loaded,
    # or a partition COP whose sum over the SBSs overflows
    "r_s1_o = 1e-300", "r_s1_o = 1e-80", "r_b_s1 = 1e200",
    "alpha = 30\nr_s1_o = 1e-24", "alpha = 30\nr_s = 1e24",
    "K = 6\nr_s1_o = 5e76",
    # 2^Rs - 1 overflows at the last point, Rs = 1024
    "sweep_var = Rs\nsweep_stop = 1024\nsweep_step = 4",
    # points that print alike: 100 to 100.0000000003 all print as 100
    "sweep_var = Rs\nsweep_start = 100\nsweep_stop = 100.0000000003\n"
    "sweep_step = 1e-10"])
def test_exit_code_2_for_invalid_scenarios(tmp_path, bad):
    code, out = run(tmp_path, "throughput", scenario(SMALL_SWEEP, bad))
    assert code == 2
    assert not out.exists()


def test_exit_code_2_when_a_bs_distance_overflows(tmp_path, capsys):
    # both coordinates of the second SBS are finite but its distance from
    # the user is not, where Python's abs() would raise OverflowError
    code, out = run(tmp_path, "throughput", scenario(
        SMALL_SWEEP, "r_s1_o = 1.5e308\nr_s = 1.5e308\nK = 2"))
    assert code == 2
    assert "geometry is not finite" in capsys.readouterr().err
    assert not out.exists()


# a value just outside each key's declared range
OUT_OF_RANGE = {
    "r_s1_o": "0", "r_s": "-1", "K": "0", "r_b_s1": "0", "alpha": "2",
    "Ps_dBw": "3001", "Pm_dBw": "-3001", "lambda_e": "-1e-300",
    "epsilon": "1", "beta_t": "-1", "beta_e": "-1", "bsr_sop_model": "both",
    "N": "0", "tau": "0", "L": "0", "caching_objective": "energy",
    "trials": "-1", "seed": "-1", "threads": "257", "sweep_var": "alpha",
    "sweep_step": "0"}


@pytest.mark.parametrize("key", [f for f in fields(Scenario)
                                 if f.name not in ("sweep_start",
                                                   "sweep_stop")],
                         ids=lambda f: f.name)
def test_every_key_declares_its_legal_range(tmp_path, capsys, key):
    # a key's range is declared with its default, so a new key cannot be
    # added without one; only the sweep bounds are checked together
    assert "ok" in key.metadata, f"{key.name} declares no legal range"
    code, out = run(tmp_path, "throughput", scenario(
        SMALL_SWEEP, f"{key.name} = {OUT_OF_RANGE[key.name]}"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"{key.name} must be {key.metadata['rule']}, got " in err
    assert not out.exists()


@pytest.mark.parametrize("command, axis", [
    ("cop-sweep", "N"), ("cop-sweep", "Rs"), ("sop-sweep", "N"),
    ("sop-sweep", "Rs"), ("validate", "N"), ("validate", "Rs"),
    ("caching", "Rs"), ("throughput", "N")])
def test_exit_code_2_for_an_unsupported_sweep_axis(tmp_path, capsys,
                                                   command, axis):
    cfg = (f"sweep_var = {axis}\nsweep_start = 1\nsweep_stop = 2\n"
           "sweep_step = 1\n")
    code, out = run(tmp_path, command, cfg, ["--trials", "10"])
    assert code == 2
    assert f"config error: {command} sweeps " in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_2_for_invalid_overrides(tmp_path):
    for extra in (["--threads", "0"], ["--trials", "-5"], ["--seed", "-1"]):
        code, _ = run(tmp_path, "cop-sweep", SMALL_SWEEP, extra=extra)
        assert code == 2


def test_validate_without_trials_is_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "validate", SMALL_SWEEP, extra=["--trials", "0"])
    assert code == 2
    assert "validate needs Monte Carlo trials" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_3_when_sop_inversion_does_not_converge(tmp_path,
                                                          monkeypatch):
    # an unreachable tolerance makes every inversion exhaust SOP_MAX_EVALS
    monkeypatch.setattr(outage, "SOP_INVERSION_TOL", -1.0)
    cfg = "sweep_start = 10\nsweep_stop = 10\nsweep_step = 5\n"
    code, out = run(tmp_path, "throughput", cfg)
    assert code == 3
    assert not out.exists()


def test_exit_code_3_when_the_sop_root_leaves_the_float_range(tmp_path,
                                                              capsys):
    cfg = ("lambda_e = 1e-170\n"
           "sweep_start = 10\nsweep_stop = 10\nsweep_step = 5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "throughput", cfg)
    assert code == 3
    assert "infeasible: SOP root outside the float range" \
        in capsys.readouterr().err
    assert not out.exists()


def test_rs_sweep_stops_below_the_float_range():
    # the last point decides: 1020 alone, or 1020, 1024
    rs = "sweep_var = Rs\nsweep_start = 1020\nsweep_stop = 1024\n"
    assert parse_scenario_text(rs + "sweep_step = 5\n").sweep_points \
        == (1020.0,)
    with pytest.raises(ConfigError, match="Rs sweep must stay below 1024"):
        parse_scenario_text(rs + "sweep_step = 4\n")


def test_exit_code_3_when_a_scaled_sop_root_leaves_the_float_range(
        tmp_path, capsys):
    # the root inverted at -3000 dBw scales to inf at the next point
    cfg = ("lambda_e = 1e6\n"
           "sweep_start = -3000\nsweep_stop = 3000\nsweep_step = 1000\n")
    code, out = run(tmp_path, "throughput", cfg)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible: SOP root outside the float range")
    assert "scaled to inf" in err
    assert not out.exists()


def test_throughput_with_a_near_silent_mbs(tmp_path):
    # Pm_dBw = -3000 is the quietest MBS a scenario can set: the exact
    # relaying SOP inverts to the root of a silent MBS (Pm = 0), 26.537...
    cfg = ("Pm_dBw = -3000\nalpha = 8\nlambda_e = 1\nbsr_sop_model = exact\n"
           "sweep_start = -30\nsweep_stop = -30\nsweep_step = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "throughput", cfg)
    assert code == 0
    header, rows = read_rows(out)
    silent = ChannelParams(8.0, Ps=1e-3, Pm=0.0, lambda_e=1.0)
    root = rates.invert_sop(SchemeId.BSR, Scenario().layout(), silent, 0.2,
                            bsr_exact=True)
    assert rows[2][:3] == ["-30", "bsr", f"{root:.12g}"]


@pytest.mark.parametrize("cfg", [
    "K = 20\nPs_dBw = 3000\nPm_dBw = 3000\n",
    "Ps_dBw = -3000\nalpha = 2.5\nPm_dBw = 100\nbsr_sop_model = exact\n",
    "lambda_e = 0\nPs_dBw = -3000\nr_s1_o = 1000\n"])
def test_caching_with_branches_that_never_decode(tmp_path, cfg):
    # a decoding branch whose gain underflows to 0, or whose decay
    # overflows, made the rate design nan and the table exit 3
    cfg += "sweep_var = N\nsweep_start = 100\nsweep_stop = 100\nsweep_step = 1\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "caching", cfg)
    assert code == 0
    _, rows = read_rows(out)
    assert all(float(cell) >= 0.0 for cell in rows[0])


def test_cop_sweep_caps_an_overflowing_branch_exponent(tmp_path):
    cfg = ("beta_t = 1e300\nr_s1_o = 1e6\nr_b_s1 = 1e4\n"
           "sweep_start = -30\nsweep_stop = -30\nsweep_step = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "cop-sweep", cfg, ["--trials", "0"])
    assert code == 0
    _, rows = read_rows(out)
    assert [row[2] for row in rows] == ["1"] * 4


def test_throughput_without_eavesdroppers_at_huge_power(tmp_path):
    # no redundancy is needed, so beta_s* grows like Ps: the bracket of
    # the maximizer passes 2^200 from about 610 dBw on, and the
    # beamforming COP's (beta_t / Ps)^K leaves the float range
    for K in (3, 8):
        cfg = (f"K = {K}\nlambda_e = 0\nsweep_start = 600\n"
               "sweep_stop = 3000\nsweep_step = 300\n")
        code, out = run(tmp_path, "throughput", cfg, name=f"K{K}.csv")
        assert code == 0
        header, rows = read_rows(out)
        assert len(rows) == 9 * 3
        assert not any(cell.startswith("-") for row in rows for cell in row)
        beta_s = header.index("beta_s_star")
        for scheme in ("dbf", "fot", "bsr"):
            col = [float(row[beta_s]) for row in rows if row[1] == scheme]
            assert col == sorted(col) and 2.0 ** 200 < col[-1] < float("inf")


def test_sop_sweep_exit_code_3_for_an_oversized_field(tmp_path, capsys):
    cfg = ("K = 10\nalpha = 2.5\nlambda_e = 1\nbeta_e = 0.3\n"
           "sweep_start = 30\nsweep_stop = 30\nsweep_step = 5\n")
    code, out = run(tmp_path, "sop-sweep", cfg)
    assert code == 3
    assert "too large for Monte Carlo" in capsys.readouterr().err
    assert not out.exists()


def test_caching_n_sweep_designs_codes_once(tmp_path, monkeypatch):
    # psi does not depend on N: one design per scheme for the whole sweep,
    # and the same table as designing the codes again at every point
    base = ("K = 3\nPm_dBw = 20\nlambda_e = 0.05\ntau = 1.4\n"
            "bsr_sop_model = exact\nsweep_var = N\nsweep_step = 40\n")
    calls = []
    real = rates.scheme_throughput

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(rates, "scheme_throughput", counted)
    code, out = run(tmp_path, "caching",
                    base + "sweep_start = 40\nsweep_stop = 160\n")
    assert code == 0
    assert sorted(calls) == sorted(SchemeId)
    rows = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert len(rows) == 4
    for n, row in zip((40, 80, 120, 160), rows):
        _, single = run(tmp_path, "caching",
                        base + f"sweep_start = {n}\nsweep_stop = {n}\n",
                        name=f"n{n}.csv")
        assert single.read_text().splitlines()[-1] == row
    assert len(calls) == 3 + 3 * 4


@pytest.mark.parametrize("command, extra", [
    ("throughput", "bsr_sop_model = exact\n"),
    ("caching", "Pm_dBw = 20\ncaching_objective = see\n")])
def test_power_sweep_inverts_beamforming_and_partition_once(
        tmp_path, monkeypatch, command, extra):
    # both SOPs depend on beta_e/Ps alone: one beamforming and one
    # partition inversion per table, scaled to every power, and the same
    # rows as one-point tables; relaying still inverts at every point
    base = "K = 3\nlambda_e = 0.05\nsweep_step = 10\n" + extra
    calls = []
    real = rates.invert_sop

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(rates, "invert_sop", counted)
    sweep = base + "sweep_start = 0\nsweep_stop = 30\n"
    tables = [run(tmp_path, command, sweep, ["--threads", str(n)],
                  name=f"threads{n}.csv")[1].read_text() for n in (1, 2)]
    assert tables[0] == tables[1]
    points = (0, 10, 20, 30)
    assert sorted(calls) == sorted(
        2 * ([SchemeId.DBF, SchemeId.FOT] + [SchemeId.BSR] * len(points)))
    _, rows = read_rows(tmp_path / "threads1.csv")
    per_point = len(rows) // len(points)
    for k, ps in enumerate(points):
        code, single = run(tmp_path, command,
                           base + f"sweep_start = {ps}\nsweep_stop = {ps}\n",
                           name=f"ps{ps}.csv")
        assert code == 0
        assert read_rows(single)[1] == rows[k * per_point:(k + 1) * per_point]


@pytest.mark.parametrize("command", ["throughput", "caching"])
def test_exit_code_3_when_the_throughput_optimum_leaves_the_float_range(
        tmp_path, capsys, command):
    # no redundancy at 3000 dBw: psi still rises at beta_s = 2^1023
    cfg = ("lambda_e = 0\nPs_dBw = 3000\nalpha = 30\nK = 2\n"
           "r_s1_o = 4.54e-5\nsweep_start = 3000\nsweep_stop = 3000\n")
    code, out = run(tmp_path, command, cfg)
    assert code == 3
    assert "infeasible: the throughput optimum lies beyond the float range" \
        in capsys.readouterr().err
    assert not out.exists()


def test_stdout_output(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SMALL_SWEEP)
    assert main(["cop-sweep", "--config", str(cfg), "--trials", "0"]) == 0
    captured = capsys.readouterr()
    assert "Ps_dBw,scheme,analytic" in captured.out
