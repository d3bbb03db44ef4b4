import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachesec import (ChannelParams, McSettings, SchemeId, build_line_layout,
                      mc_cop, mc_sop, outage, sop_bsr_approx)
from cachesec.montecarlo import _FieldTest, _xy
from helpers import (COP, sop, standard_layout, standard_params,
                     within_3_sigma)


def test_settings_validation():
    with pytest.raises(ValueError):
        McSettings(trials=0, seed=1)
    with pytest.raises(ValueError):
        McSettings(trials=10, seed=-1)
    with pytest.raises(ValueError):
        McSettings(trials=10, seed=1, bsr_serving="random")


def test_mc_cop_zero_threshold_exact_zero():
    lay = standard_layout(2)
    params = standard_params()
    settings = McSettings(trials=2000, seed=3)
    for scheme in SchemeId:
        assert mc_cop(scheme, lay, params, 0.0, settings).value == 0.0


def test_mc_cop_k1_schemes_agree():
    # at K = 1 all three decoding conditions are the same law
    lay = standard_layout(1)
    params = standard_params(Ps_dBw=0.0)
    settings = McSettings(trials=100_000, seed=4)
    estimates = [mc_cop(s, lay, params, 1.0, settings) for s in SchemeId]
    for a in estimates:
        for b in estimates:
            sigma = max(a.std_error, b.std_error)
            assert abs(a.value - b.value) <= 3 * sigma


def test_mc_cop_reproducible_across_runs_and_threads():
    lay = standard_layout(3)
    params = standard_params()
    settings = McSettings(trials=300_000, seed=5)
    one = mc_cop(SchemeId.DBF, lay, params, 1.0, settings)
    two = mc_cop(SchemeId.DBF, lay, params, 1.0, settings)
    # across CLI worker threads: test_threads_do_not_change_output
    assert one.value == two.value


def test_mc_sop_reproducible_across_runs_and_threads():
    lay = standard_layout(3)
    params = standard_params()
    settings = McSettings(trials=5000, seed=6)
    one = mc_sop(SchemeId.BSR, lay, params, 1.0, settings)
    two = mc_sop(SchemeId.BSR, lay, params, 1.0, settings)
    assert one.value == two.value


def test_mc_sop_zero_density_exact_zero():
    # no eavesdroppers: zero also at beta_e = 0
    lay = standard_layout(2)
    params = standard_params(lambda_e=0.0)
    settings = McSettings(trials=500, seed=7)
    for scheme in SchemeId:
        for beta_e in (1.0, 0.0):
            est = mc_sop(scheme, lay, params, beta_e, settings)
            assert est.value == est.std_error == 0.0 and est.flag is None


def test_mc_sop_zero_redundancy_exact_one():
    # beta_e = 0: every eavesdropper of the unbounded field breaches
    lay = standard_layout(2)
    settings = McSettings(trials=500, seed=7, independent_hops=True)
    for scheme in SchemeId:
        est = mc_sop(scheme, lay, standard_params(), 0.0, settings)
        assert est.value == 1.0 and est.std_error == 0.0
        assert est.flag == "divergent"


def test_mc_sop_window_doubling_negligible(monkeypatch):
    # eavesdroppers beyond the truncation radius add nothing measurable:
    # cutting the integrand at 1e-24 instead of 1e-12 widens the window,
    # and the estimate moves by less than 4 combined standard errors
    lay = standard_layout(3)
    params = standard_params()
    settings = McSettings(trials=20_000, seed=9)
    small = mc_sop(SchemeId.DBF, lay, params, 1.0, settings)
    base_radius = _FieldTest(SchemeId.DBF, lay, params, 1.0).radius
    monkeypatch.setattr(outage, "TAIL_LOG", math.log(1e24))
    assert _FieldTest(SchemeId.DBF, lay, params, 1.0).radius > base_radius
    big = mc_sop(SchemeId.DBF, lay, params, 1.0, settings)
    assert abs(small.value - big.value) \
        <= 4.0 * math.hypot(small.std_error, big.std_error)


def test_mc_against_analytic_grid():
    # 5 powers x 3 thresholds per scheme for both outage kinds
    powers = [0.0, 5.0, 10.0, 15.0, 20.0]
    betas = [0.5, 1.0, 2.0]
    lay = standard_layout(3)
    cop_trials, sop_trials = 200_000, 20_000
    for scheme in SchemeId:
        ok = total = 0
        for i, ps in enumerate(powers):
            params = standard_params(Ps_dBw=ps)
            for j, beta in enumerate(betas):
                est = mc_cop(scheme, lay, params, beta,
                             McSettings(trials=cop_trials,
                                        seed=1000 + 31 * i + j))
                an = COP[scheme](lay, params, beta).value
                ok += within_3_sigma(an, est.value, est.std_error, cop_trials)
                total += 1
        assert ok >= 0.95 * total, f"{scheme} cop grid: {ok}/{total}"
    for scheme in SchemeId:
        ok = total = 0
        for i, ps in enumerate(powers):
            params = standard_params(Ps_dBw=ps)
            for j, beta in enumerate(betas):
                est = mc_sop(scheme, lay, params, beta,
                             McSettings(trials=sop_trials,
                                        seed=2000 + 31 * i + j))
                an = sop(scheme, lay, params, beta).value
                ok += within_3_sigma(an, est.value, est.std_error, sop_trials)
                total += 1
        assert ok >= 0.95 * total, f"{scheme} sop grid: {ok}/{total}"


def test_mc_validates_simplex_integration_at_k5():
    # the saddle-point Laplace inversion has no closed-form cross-check
    # beyond K = 2, so pin it against direct simulation on a 5-SBS layout
    lay = standard_layout(5)
    trials = 10 ** 6
    for i, (ps, beta) in enumerate([(5.0, 1.0), (10.0, 3.0), (0.0, 0.5)]):
        params = standard_params(Ps_dBw=ps)
        an = COP[SchemeId.DBF](lay, params, beta).value
        est = mc_cop(SchemeId.DBF, lay, params, beta,
                     McSettings(trials=trials, seed=3000 + i))
        assert within_3_sigma(an, est.value, est.std_error, trials), \
            f"Ps={ps} beta={beta}: {an} vs {est.value}"


def test_mc_validates_quadrature_at_slow_decay_exponent():
    # alpha barely above 2 stretches the truncation radius; make sure the
    # certified quadrature still tracks simulation there
    lay = standard_layout(3)
    params = standard_params(Ps_dBw=5.0, alpha=2.5, lambda_e=0.05)
    trials = 30_000
    for j, scheme in enumerate(SchemeId):
        an = sop(scheme, lay, params, 1.0).value
        est = mc_sop(scheme, lay, params, 1.0,
                     McSettings(trials=trials, seed=4000 + j))
        assert within_3_sigma(an, est.value, est.std_error, trials), \
            f"{scheme}: {an} vs {est.value}"


def test_mc_sop_bsr_independent_hops_matches_closed_form():
    lay = standard_layout(3)
    params = standard_params(Ps_dBw=5.0)
    trials = 40_000
    est = mc_sop(SchemeId.BSR, lay, params, 1.0,
                 McSettings(trials=trials, seed=12, independent_hops=True))
    an = sop_bsr_approx(params, 1.0).value
    assert within_3_sigma(an, est.value, est.std_error, trials)


def test_mc_sop_bsr_shared_field_matches_quadrature():
    lay = standard_layout(3)
    params = standard_params(Ps_dBw=5.0)
    trials = 40_000
    est = mc_sop(SchemeId.BSR, lay, params, 1.0,
                 McSettings(trials=trials, seed=13, independent_hops=False))
    an = sop(SchemeId.BSR, lay, params, 1.0).value
    assert within_3_sigma(an, est.value, est.std_error, trials)


def test_mc_sop_bsr_nearest_serving_convention():
    # the fixed-serving analytic convention should agree with Monte Carlo
    # under either serving rule at these parameters
    lay = standard_layout(5)
    params = standard_params(Ps_dBw=10.0, Pm_dBw=0.0)
    trials = 40_000
    an = sop(SchemeId.BSR, lay, params, 1.0).value
    for serving in ("fading", "nearest"):
        est = mc_sop(SchemeId.BSR, lay, params, 1.0,
                     McSettings(trials=trials, seed=14, bsr_serving=serving))
        assert within_3_sigma(an, est.value, est.std_error, trials)


def test_mc_sop_rejects_an_oversized_field():
    # 3.9e8 expected eavesdroppers per 2048-realization chunk: refused
    # before any draw instead of exhausting memory
    lay = standard_layout(10)
    params = standard_params(Ps_dBw=30.0, lambda_e=1.0, alpha=2.5)
    start = time.perf_counter()
    for scheme in SchemeId:
        with pytest.raises(ValueError, match="too large"):
            mc_sop(scheme, lay, params, 0.3, McSettings(trials=10 ** 5, seed=1))
    assert time.perf_counter() - start < 0.5


def test_mc_rejects_bad_thresholds():
    lay = standard_layout(2)
    params = standard_params()
    settings = McSettings(trials=10, seed=1)
    with pytest.raises(ValueError):
        mc_cop(SchemeId.DBF, lay, params, -1.0, settings)
    with pytest.raises(ValueError):
        mc_sop(SchemeId.DBF, lay, params, -1.0, settings)


# ---------------------------------------------------------------------------
# bit-identity: failure counts of the kernel that tests every eavesdropper,
# which the pruned kernel must reproduce exactly
# ---------------------------------------------------------------------------

VARIANTS = {"dbf": (SchemeId.DBF, {}), "fot": (SchemeId.FOT, {}),
            "bsr-shared": (SchemeId.BSR, {}),
            "bsr-independent": (SchemeId.BSR, {"independent_hops": True}),
            "bsr-nearest": (SchemeId.BSR, {"bsr_serving": "nearest"})}
SOP_TRIALS = 2100    # one full chunk and a partial one
COP_TRIALS = 70_001  # idem

# (variant, K, alpha, Pm_dBw) -> failures at Ps = 10 dBw, lambda_e = 0.1,
# beta_e = K; the seed is the case's position in this table
SOP_PINNED = {
    ("dbf", 1, 3.0, 0.0): 1526,
    ("dbf", 1, 3.0, 20.0): 1532,
    ("dbf", 1, 4.0, 0.0): 1258,
    ("dbf", 1, 4.0, 20.0): 1244,
    ("dbf", 3, 3.0, 0.0): 1590,
    ("dbf", 3, 3.0, 20.0): 1590,
    ("dbf", 3, 4.0, 0.0): 1281,
    ("dbf", 3, 4.0, 20.0): 1292,
    ("dbf", 8, 3.0, 0.0): 1729,
    ("dbf", 8, 3.0, 20.0): 1701,
    ("dbf", 8, 4.0, 0.0): 1536,
    ("dbf", 8, 4.0, 20.0): 1550,
    ("fot", 1, 3.0, 0.0): 1556,
    ("fot", 1, 3.0, 20.0): 1536,
    ("fot", 1, 4.0, 0.0): 1187,
    ("fot", 1, 4.0, 20.0): 1237,
    ("fot", 3, 3.0, 0.0): 1849,
    ("fot", 3, 3.0, 20.0): 1891,
    ("fot", 3, 4.0, 0.0): 1613,
    ("fot", 3, 4.0, 20.0): 1586,
    ("fot", 8, 3.0, 0.0): 2054,
    ("fot", 8, 3.0, 20.0): 2042,
    ("fot", 8, 4.0, 0.0): 1919,
    ("fot", 8, 4.0, 20.0): 1909,
    ("bsr-shared", 1, 3.0, 0.0): 1599,
    ("bsr-shared", 1, 3.0, 20.0): 2095,
    ("bsr-shared", 1, 4.0, 0.0): 1395,
    ("bsr-shared", 1, 4.0, 20.0): 2004,
    ("bsr-shared", 3, 3.0, 0.0): 1130,
    ("bsr-shared", 3, 3.0, 20.0): 2002,
    ("bsr-shared", 3, 4.0, 0.0): 1031,
    ("bsr-shared", 3, 4.0, 20.0): 1750,
    ("bsr-shared", 8, 3.0, 0.0): 701,
    ("bsr-shared", 8, 3.0, 20.0): 1703,
    ("bsr-shared", 8, 4.0, 0.0): 713,
    ("bsr-shared", 8, 4.0, 20.0): 1439,
    ("bsr-independent", 1, 3.0, 0.0): 1686,
    ("bsr-independent", 1, 3.0, 20.0): 2100,
    ("bsr-independent", 1, 4.0, 0.0): 1440,
    ("bsr-independent", 1, 4.0, 20.0): 2058,
    ("bsr-independent", 3, 3.0, 0.0): 1118,
    ("bsr-independent", 3, 3.0, 20.0): 2041,
    ("bsr-independent", 3, 4.0, 0.0): 1001,
    ("bsr-independent", 3, 4.0, 20.0): 1858,
    ("bsr-independent", 8, 3.0, 0.0): 683,
    ("bsr-independent", 8, 3.0, 20.0): 1729,
    ("bsr-independent", 8, 4.0, 0.0): 688,
    ("bsr-independent", 8, 4.0, 20.0): 1553,
    ("bsr-nearest", 1, 3.0, 0.0): 1645,
    ("bsr-nearest", 1, 3.0, 20.0): 2094,
    ("bsr-nearest", 1, 4.0, 0.0): 1414,
    ("bsr-nearest", 1, 4.0, 20.0): 1993,
    ("bsr-nearest", 3, 3.0, 0.0): 1123,
    ("bsr-nearest", 3, 3.0, 20.0): 2008,
    ("bsr-nearest", 3, 4.0, 0.0): 1021,
    ("bsr-nearest", 3, 4.0, 20.0): 1785,
    ("bsr-nearest", 8, 3.0, 0.0): 705,
    ("bsr-nearest", 8, 3.0, 20.0): 1690,
    ("bsr-nearest", 8, 4.0, 0.0): 737,
    ("bsr-nearest", 8, 4.0, 20.0): 1449,
}
# (scheme, K, alpha) -> failures at Ps = 0 dBw, beta_t = 1
COP_PINNED = {
    ("dbf", 1, 3.0): 44264,
    ("dbf", 1, 4.0): 44158,
    ("dbf", 3, 3.0): 1803,
    ("dbf", 3, 4.0): 2485,
    ("dbf", 8, 3.0): 1,
    ("dbf", 8, 4.0): 23,
    ("fot", 1, 3.0): 44225,
    ("fot", 1, 4.0): 44294,
    ("fot", 3, 3.0): 57834,
    ("fot", 3, 4.0): 62039,
    ("fot", 8, 3.0): 70001,
    ("fot", 8, 4.0): 70001,
    ("bsr", 1, 3.0): 44493,
    ("bsr", 1, 4.0): 44265,
    ("bsr", 3, 3.0): 31248,
    ("bsr", 3, 4.0): 34214,
    ("bsr", 8, 3.0): 31252,
    ("bsr", 8, 4.0): 34381,
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_mc_sop_pinned_counts(variant):
    scheme, extra = VARIANTS[variant]
    for seed, (case, failures) in enumerate(SOP_PINNED.items()):
        name, K, alpha, pm = case
        if name != variant:
            continue
        params = standard_params(Ps_dBw=10.0, Pm_dBw=pm, alpha=alpha)
        est = mc_sop(scheme, standard_layout(K), params, float(K),
                     McSettings(trials=SOP_TRIALS, seed=seed, **extra))
        assert est.value == failures / SOP_TRIALS, case


def test_mc_cop_pinned_counts():
    for seed, (case, failures) in enumerate(COP_PINNED.items()):
        scheme, K, alpha = case
        est = mc_cop(SchemeId(scheme), standard_layout(K),
                     standard_params(Ps_dBw=0.0, alpha=alpha), 1.0,
                     McSettings(trials=COP_TRIALS, seed=seed))
        assert est.value == failures / COP_TRIALS, case


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(list(SchemeId)), K=st.integers(1, 8),
       geometry=st.tuples(st.floats(0.05, 4.0), st.floats(0.05, 3.0),
                          st.floats(0.05, 6.0)),
       alpha=st.one_of(st.sampled_from([3.0, 5.0, 4.0]), st.floats(2.05, 7.0)),
       Ps=st.floats(1e-2, 1e4), Pm=st.sampled_from([0.0, 1.0, 1e3]),
       beta_e=st.floats(1e-2, 1e2), seed=st.integers(0, 2 ** 32 - 1))
def test_pruning_keeps_every_breaching_eavesdropper(scheme, K, geometry, alpha,
                                                    Ps, Pm, beta_e, seed):
    lay = build_line_layout(geometry[0], geometry[1], K, geometry[2])
    params = ChannelParams(alpha=alpha, Ps=Ps, Pm=Pm, lambda_e=1.0)
    test = _FieldTest(scheme, lay, params, beta_e)
    rng = np.random.default_rng(seed)
    m = 600
    r_max = test.radius
    rad = r_max * np.sqrt(rng.random(m))
    # a quarter of the points inside the farthest transmitter, and half on
    # the rays through the transmitters, where the bound is tightest
    d_max = max(abs(lay.mbs), abs(lay.sbs[-1]))
    rad[: m // 4] = d_max * rng.random(m // 4)
    u_ang = rng.random(m)
    rays = np.angle([lay.mbs, *lay.sbs]) / (2.0 * math.pi)
    u_ang[m // 2:] = rays[rng.integers(0, rays.size, m - m // 2)]
    fades = test.draw_fades(rng, m)
    serving = rng.integers(0, K, m)
    idx = np.arange(m)
    px, py = _xy(rad, u_ang, idx)
    # all hops (a shared field) and each hop alone
    every = tuple(range(len(test.hops)))
    for hops in (every, *((h,) for h in every)):
        breach = test.breaches(px, py, idx, fades, serving, hops)
        assert not np.any(breach & ~test.may_breach(rad, fades, hops)), hops
