import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cachesec
from cachesec import SchemeId, rates
from cachesec.cli import (ConfigError, Scenario, load_scenario, main,
                          parse_scenario_text, sweep_values)


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


def test_scenario_parsing_flat_and_json():
    flat = parse_scenario_text("K = 4\nPs_dBw = 12.5  # comment\n")
    assert flat.K == 4 and flat.Ps_dBw == 12.5
    as_json = parse_scenario_text(json.dumps({"K": 4, "Ps_dBw": 12.5}))
    assert as_json == flat


def test_scenario_unknown_key_is_error():
    with pytest.raises(ConfigError):
        parse_scenario_text("K = 4\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario_text(json.dumps({"bogus": 1}))


def test_scenario_value_errors():
    with pytest.raises(ConfigError):
        parse_scenario_text("K = four\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("just text\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("K = 4.7\n")
    with pytest.raises(ConfigError):
        parse_scenario_text(json.dumps({"K": 4.7}))
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
    assert sweep_values(scn) == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    scn_n = Scenario(sweep_var="N", sweep_start=10, sweep_stop=30,
                     sweep_step=10)
    assert sweep_values(scn_n) == [10, 20, 30]


def test_n_sweep_rejects_fractional_points():
    # int() would repeat N = 1, 1, 2, 2, 3 or label N = 1.5 as 1
    for start, step in ((1, 0.5), (1.5, 1)):
        with pytest.raises(ConfigError, match="integer"):
            Scenario(sweep_var="N", sweep_start=start, sweep_stop=3,
                     sweep_step=step)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone took most of a second to import; a fresh
    # interpreter shows whether anything pulls it in again
    code = "import cachesec.cli, sys; print('scipy.stats' in sys.modules)"
    src = str(Path(cachesec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


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
        body = [[ln for ln in out.read_text().splitlines()
                 if not ln.startswith("# scenario: threads")] for out in outs]
        assert body[0] == body[1] == body[2], command
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
    "sweep_var = N\nsweep_start = 60\nsweep_stop = 5"])
def test_exit_code_2_for_invalid_scenarios(tmp_path, bad):
    code, out = run(tmp_path, "throughput", SMALL_SWEEP + bad + "\n")
    assert code == 2
    assert not out.exists()


def test_exit_code_2_for_invalid_overrides(tmp_path):
    for extra in (["--threads", "0"], ["--trials", "-5"]):
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
    monkeypatch.setattr(rates, "SOP_INVERSION_TOL", -1.0)
    cfg = "sweep_start = 10\nsweep_stop = 10\nsweep_step = 5\n"
    code, out = run(tmp_path, "throughput", cfg)
    assert code == 3
    assert not out.exists()


def test_throughput_without_eavesdroppers_at_huge_power(tmp_path):
    # no redundancy is needed, so beta_s* grows like Ps: the bracket of
    # the maximizer passes 2^200 from about 610 dBw on
    cfg = ("lambda_e = 0\nsweep_start = 600\nsweep_stop = 1000\n"
           "sweep_step = 100\n")
    code, out = run(tmp_path, "throughput", cfg)
    assert code == 0
    header, rows = read_rows(out)
    assert len(rows) == 5 * 3
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


def test_stdout_output(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SMALL_SWEEP)
    assert main(["cop-sweep", "--config", str(cfg), "--trials", "0"]) == 0
    captured = capsys.readouterr()
    assert "Ps_dBw,scheme,analytic" in captured.out
