"""Acceptance suite.

Every test implements one release criterion at its stated tolerance and
prints one PASS/FAIL line (visible with pytest -s, or in the captured
output of a failing run). Budgets are chosen so the whole module finishes
in a few minutes on a desktop machine.
"""

import functools
import math
import time

import numpy as np
import pytest

import cachesec as cs
from cachesec.cli import main as cli_main
from helpers import dbw, standard_layout, standard_params, within_3_sigma

COP_TRIALS = 10 ** 6
SOP_TRIALS = 10 ** 5
POWER_GRID_DBW = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
        return wrapper
    return deco


def unimodal(values, tol=1e-13):
    diffs = np.diff(np.asarray(values, dtype=float))
    signs = np.sign(diffs[np.abs(diffs) > tol])
    if signs.size < 2:
        return True
    return int(np.sum(signs[:-1] != signs[1:])) <= 1


@criterion(1, "analytic vs Monte Carlo at the reference outage sweeps")
def test_01_analytic_mc_agreement():
    start = time.time()
    # connection outage: K = 3, beta_t = 1, standard geometry
    lay3 = standard_layout(3)
    cop_ok = cop_total = 0
    for i, ps in enumerate(POWER_GRID_DBW):
        params = standard_params(Ps_dBw=ps)
        for j, scheme in enumerate(cs.SchemeId):
            an = cs.cop(scheme, lay3, params, 1.0).value
            est = cs.mc_cop(scheme, lay3, params, 1.0,
                            cs.McSettings(trials=COP_TRIALS,
                                          seed=100 + 10 * i + j))
            cop_ok += within_3_sigma(an, est.value, est.std_error, COP_TRIALS)
            cop_total += 1
    assert cop_ok >= 0.95 * cop_total, f"cop grid: {cop_ok}/{cop_total}"
    # secrecy outage: K = 5, Pm = 0 dBw, lambda_e = 0.1, beta_e = 1
    lay5 = standard_layout(5)
    sop_ok = sop_total = 0
    for i, ps in enumerate(POWER_GRID_DBW):
        params = standard_params(Ps_dBw=ps, Pm_dBw=0.0, lambda_e=0.1)
        for j, scheme in enumerate(cs.SchemeId):
            an = cs.sop(scheme, lay5, params, 1.0).value
            est = cs.mc_sop(scheme, lay5, params, 1.0,
                            cs.McSettings(trials=SOP_TRIALS,
                                          seed=200 + 10 * i + j))
            sop_ok += within_3_sigma(an, est.value, est.std_error, SOP_TRIALS)
            sop_total += 1
    assert sop_ok >= 0.95 * sop_total, f"sop grid: {sop_ok}/{sop_total}"
    elapsed = time.time() - start
    assert elapsed <= 300.0, f"runtime {elapsed:.0f}s exceeds 5 minutes"


@criterion(2, "outage orderings across schemes on a randomized grid")
def test_02_scheme_outage_orderings():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        K = int(rng.integers(1, 6))
        lay = cs.build_line_layout(float(rng.uniform(0.5, 2.0)),
                                   float(rng.uniform(0.2, 1.0)), K,
                                   float(rng.uniform(1.0, 3.0)))
        params = cs.ChannelParams(alpha=float(rng.uniform(2.5, 6.0)),
                                  Ps=dbw(float(rng.uniform(-5.0, 35.0))),
                                  Pm=dbw(float(rng.uniform(-5.0, 20.0))),
                                  lambda_e=float(rng.uniform(0.005, 0.3)))
        beta = float(rng.uniform(0.05, 10.0))
        c_dbf = cs.cop_dbf_exact(lay, params, beta).value
        c_bsr = cs.cop_bsr(lay, params, beta).value
        c_fot = cs.cop_fot(lay, params, beta).value
        assert c_dbf <= c_bsr + 1e-9
        assert c_bsr <= c_fot + 1e-9
        s_dbf = cs.sop_dbf(lay, params, beta).value
        s_fot = cs.sop_fot(lay, params, beta).value
        assert s_dbf <= s_fot + 1e-9


@criterion(3, "high-power diversity orders of the outage curves")
def test_03_diversity_orders():
    p30 = standard_params(Ps_dBw=30.0)
    p40 = standard_params(Ps_dBw=40.0)
    dlog_p = math.log(p40.Ps) - math.log(p30.Ps)
    for K in (1, 2, 3):
        lay = standard_layout(K)

        def slope(fn):
            return (math.log(fn(lay, p40, 1.0).value)
                    - math.log(fn(lay, p30, 1.0).value)) / dlog_p

        assert slope(cs.cop_dbf_exact) == pytest.approx(-K, abs=0.1)
        assert slope(cs.cop_bsr) == pytest.approx(-K, abs=0.1)
        assert slope(cs.cop_fot) == pytest.approx(-1.0, abs=0.05)


@criterion(4, "high-power asymptote matches the exact beamforming COP")
def test_04_asymptote_consistency():
    params = standard_params(Ps_dBw=40.0)
    for K in (1, 2, 3):
        lay = standard_layout(K)
        exact = cs.cop_dbf_exact(lay, params, 1.0).value
        asym = cs.cop_dbf_asymptotic(lay, params, 1.0).value
        assert 0.95 <= asym / exact <= 1.05, f"K={K}: {asym / exact}"


@criterion(5, "rate optimizers: probe optimality, inversion, monotonicity")
def test_05_rate_optimizers():
    rng = np.random.default_rng(55)
    optimizers = {cs.SchemeId.DBF: cs.opt_bs_dbf,
                  cs.SchemeId.FOT: cs.opt_bs_fot,
                  cs.SchemeId.BSR: cs.opt_bs_bsr}
    for scheme, optimize in optimizers.items():
        for _ in range(100):
            K = int(rng.integers(1, 5))
            lay = cs.build_line_layout(float(rng.uniform(0.5, 1.5)),
                                       float(rng.uniform(0.2, 1.0)), K,
                                       float(rng.uniform(1.0, 3.0)))
            params = cs.ChannelParams(alpha=float(rng.uniform(2.5, 6.0)),
                                      Ps=dbw(float(rng.uniform(5.0, 35.0))),
                                      Pm=dbw(float(rng.uniform(0.0, 20.0))),
                                      lambda_e=0.05)
            beta_e = float(rng.uniform(0.01, 5.0))
            design = optimize(lay, params, beta_e)
            probes = rng.uniform(0.0, 6.0 * (1.0 + design.beta_s_star), 100)
            values = cs.secrecy_throughput_curve(scheme, lay, params, beta_e,
                                                 probes)
            limit = design.psi_star * (1.0 + 1e-10) + 1e-15
            assert (values <= limit).all(), f"{scheme} probe beats optimizer"
    # inversion round trip to 1e-6 absolute
    lay = standard_layout(2)
    params = cs.ChannelParams(alpha=4.0, Ps=dbw(10.0), Pm=dbw(10.0),
                              lambda_e=0.01)
    for scheme in cs.SchemeId:
        for eps in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
            be = cs.invert_sop(scheme, lay, params, eps)
            achieved = cs.sop(scheme, lay, params, be,
                              bsr_exact=False).value
            assert abs(achieved - eps) <= 1e-6
    # optimal secrecy threshold grows with the tolerated outage level
    for scheme in cs.SchemeId:
        stars = [cs.scheme_throughput(scheme, lay, params, e).beta_s_star
                 for e in (0.1, 0.2, 0.3)]
        assert stars[0] <= stars[1] <= stars[2]


def _random_throughput_instance(rng):
    K = int(rng.integers(2, 6))
    L = int(rng.integers(2, 30))
    N = int(rng.integers(K * L + 1, 20 * K * L))
    lib = cs.ZipfLibrary(N=N, tau=float(rng.uniform(0.4, 2.5)))
    psi_f = float(rng.uniform(0.1, 3.0))
    psi_d = psi_f + float(rng.uniform(0.001, 3.0))
    psi_b = float(rng.uniform(0.0, 4.0))
    return psi_d, psi_f, psi_b, lib, K, L


@criterion(6, "closed-form cache optima agree with the exhaustive oracle")
def test_06_caching_optima_vs_oracle():
    rng = np.random.default_rng(66)
    exact = 0
    for _ in range(200):
        psi_d, psi_f, psi_b, lib, K, L = _random_throughput_instance(rng)
        m = cs.optimal_mpc_allocation(psi_d, psi_f, psi_b, lib, K, L)
        m_ref, v_ref = cs.exhaustive_opt_m("throughput", psi_d, psi_f, psi_b,
                                           lib, K, L)
        if m == m_ref:
            exact += 1
        else:
            assert abs(m - m_ref) == 1
            gap = abs(v_ref - cs.overall_throughput(psi_d, psi_f, psi_b,
                                                    lib, K, L, m))
            assert gap < 1e-12
    assert exact >= 0.99 * 200

    exact = 0
    for _ in range(200):
        K = int(rng.integers(2, 6))
        L = int(rng.integers(2, 20))
        N = int(rng.integers(3 * K * L, 50 * K * L))
        lib = cs.ZipfLibrary(N=N, tau=float(rng.uniform(1.05, 2.5)))
        Ps = float(rng.uniform(0.5, 50.0))
        params = cs.ChannelParams(alpha=4.0, Ps=Ps,
                                  Pm=K * Ps * float(rng.uniform(1.0, 20.0)),
                                  lambda_e=0.01)
        psi_f = float(rng.uniform(0.1, 3.0))
        psi_d = psi_f + float(rng.uniform(0.001, 3.0))
        psi_b = float(rng.uniform(0.0, 3.0))
        m = cs.opt_m_see(psi_d, psi_f, psi_b, params, lib, K, L)
        m_ref, v_ref = cs.exhaustive_opt_m("see", psi_d, psi_f, psi_b, lib,
                                           K, L, params=params)
        if m == m_ref:
            exact += 1
        else:
            assert abs(m - m_ref) == 1
            gap = abs(v_ref - cs.see(psi_d, psi_f, psi_b, params, lib,
                                     K, L, m))
            assert gap < 1e-12
    assert exact >= 0.99 * 200


@criterion(7, "hybrid allocation dominates pure strategies at the reference points")
def test_07_hybrid_dominance():
    # throughput objective: K=3, Pm=60 dBw, Ps=25 dBw, lambda_e=0.002,
    # eps=0.2, L=10, sweeping the library size for two skewness values
    lay = standard_layout(3)
    params = cs.ChannelParams(alpha=4.0, Ps=dbw(25.0), Pm=dbw(60.0),
                              lambda_e=0.002)
    K, L, eps = 3, 10, 0.2
    psi = {s: cs.scheme_throughput(s, lay, params, eps).psi_star
           for s in cs.SchemeId}
    p_d, p_f, p_b = (psi[cs.SchemeId.DBF], psi[cs.SchemeId.FOT],
                     psi[cs.SchemeId.BSR])
    for tau in (1.2, 1.8):
        for N in range(40, 241, 40):
            lib = cs.ZipfLibrary(N=N, tau=tau)
            m_star = cs.optimal_mpc_allocation(p_d, p_f, p_b, lib, K, L)
            hybrid = cs.overall_throughput(p_d, p_f, p_b, lib, K, L, m_star)
            assert hybrid >= cs.overall_throughput(p_d, p_f, p_b, lib, K, L,
                                                   L) - 1e-12
            assert hybrid >= cs.overall_throughput(p_d, p_f, p_b, lib, K, L,
                                                   0) - 1e-12
    # efficiency objective: Pm=30 dBw, lambda_e=0.01, eps=0.3, N=100,
    # tau=1.5, sweeping the SBS power
    lib = cs.ZipfLibrary(N=100, tau=1.5)
    for ps in POWER_GRID_DBW:
        params = cs.ChannelParams(alpha=4.0, Ps=dbw(ps), Pm=dbw(30.0),
                                  lambda_e=0.01)
        psi = {s: cs.scheme_throughput(s, lay, params, 0.3).psi_star
               for s in cs.SchemeId}
        p_d, p_f, p_b = (psi[cs.SchemeId.DBF], psi[cs.SchemeId.FOT],
                         psi[cs.SchemeId.BSR])
        m_star = cs.opt_m_see(p_d, p_f, p_b, params, lib, K, L)
        omega = cs.see(p_d, p_f, p_b, params, lib, K, L, m_star)
        assert omega >= cs.see(p_d, p_f, p_b, params, lib, K, L, L) - 1e-12
        assert omega >= cs.see(p_d, p_f, p_b, params, lib, K, L, 0) - 1e-12


@criterion(8, "qualitative shapes of the optimizer sweeps")
def test_08_qualitative_shapes():
    # throughput-optimal allocation vs library size: rises while one SBS
    # can hold the library, falls along the full-coverage boundary, then
    # settles at the limited-capacity optimum
    K, L = 3, 10
    lay = standard_layout(K)
    params = cs.ChannelParams(alpha=4.0, Ps=dbw(25.0), Pm=dbw(60.0),
                              lambda_e=0.002)
    psi = {s: cs.scheme_throughput(s, lay, params, 0.2).psi_star
           for s in cs.SchemeId}
    p_d, p_f, p_b = (psi[cs.SchemeId.DBF], psi[cs.SchemeId.FOT],
                     psi[cs.SchemeId.BSR])
    ms = np.array([cs.optimal_mpc_allocation(p_d, p_f, p_b,
                                             cs.ZipfLibrary(N=N, tau=1.2),
                                             K, L)
                   for N in range(2, 101, 2)])
    diffs = np.diff(ms)
    peak = int(np.argmax(ms))
    assert (diffs[:peak] >= 0).all()
    tail = diffs[peak:]
    falls = np.where(tail < 0)[0]
    assert falls.size > 0
    assert (tail[falls[-1] + 1:] == 0).all()

    # optimal secrecy energy efficiency vs SBS power: single interior peak
    lay3 = standard_layout(3)
    lib = cs.ZipfLibrary(N=100, tau=1.5)
    omegas = []
    for ps in POWER_GRID_DBW:
        params = cs.ChannelParams(alpha=4.0, Ps=dbw(ps), Pm=dbw(30.0),
                                  lambda_e=0.01)
        psi = {s: cs.scheme_throughput(s, lay3, params, 0.3).psi_star
               for s in cs.SchemeId}
        _, omega = cs.exhaustive_opt_m("see", psi[cs.SchemeId.DBF],
                                       psi[cs.SchemeId.FOT],
                                       psi[cs.SchemeId.BSR], lib, 3, 10,
                                       params=params)
        omegas.append(omega)
    assert unimodal(omegas)
    assert max(omegas) > omegas[0] and max(omegas) > omegas[-1]

    # throughput vs secrecy rate: rises then falls once per scheme
    lay2 = standard_layout(2)
    params = cs.ChannelParams(alpha=4.0, Ps=dbw(10.0), Pm=dbw(10.0),
                              lambda_e=0.01)
    rs = np.linspace(0.1, 9.0, 90)
    beta = 2.0 ** rs - 1.0
    for eps in (0.1, 0.3):
        for scheme in cs.SchemeId:
            bec = cs.invert_sop(scheme, lay2, params, eps)
            curve = cs.secrecy_throughput_curve(scheme, lay2, params, bec,
                                                beta)
            assert unimodal(curve), f"{scheme} eps={eps}"
            assert curve.max() > 0.0


@criterion(9, "seeded commands rerun byte-identically")
def test_09_determinism(tmp_path):
    configs = {
        "cop-sweep": "sweep_start = 0\nsweep_stop = 10\nsweep_step = 5\n",
        "sop-sweep": "sweep_start = 0\nsweep_stop = 10\nsweep_step = 5\n",
        "throughput": ("sweep_var = Rs\nsweep_start = 0.5\nsweep_stop = 4\n"
                       "sweep_step = 0.5\nlambda_e = 0.01\n"),
        "caching": ("sweep_var = N\nsweep_start = 60\nsweep_stop = 120\n"
                    "sweep_step = 30\nPm_dBw = 40\nlambda_e = 0.002\n"),
        "validate": "sweep_start = 0\nsweep_stop = 10\nsweep_step = 5\n",
    }
    for command, body in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(body + "seed = 777\n")
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{command}-{run}.csv"
            code = cli_main([command, "--config", str(cfg), "--out",
                             str(out), "--trials", "500"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{command} output differs between runs"
