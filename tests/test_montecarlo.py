import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachesec import (ChannelParams, McSettings, NetworkLayout, SchemeId,
                      build_line_layout, mc_cop, mc_sop, outage,
                      sop_bsr_approx)
from cachesec.montecarlo import BANDS, _estimate, _FieldTest, _xy
from helpers import (COP, sop, standard_layout, standard_params,
                     within_3_sigma)


def test_settings_validation():
    with pytest.raises(ValueError):
        McSettings(trials=0, seed=1)
    with pytest.raises(ValueError):
        McSettings(trials=10, seed=-1)
    # bool is an int (True would run one trial); numpy's bool is not
    for flag in (True, False, np.True_, np.False_):
        with pytest.raises(ValueError):
            McSettings(trials=flag, seed=1)
        with pytest.raises(ValueError):
            McSettings(trials=10, seed=flag)
    assert McSettings(trials=np.int64(10), seed=np.uint8(0)).trials == 10


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
    # the analytic form serves from the nearest SBS: on the full layout
    # fading serving agrees with it at these parameters, and on the layout
    # of the nearest SBS alone (where the analytic SOP is the same bits)
    # there is nothing else to serve from
    lay = standard_layout(5)
    params = standard_params(Ps_dBw=10.0, Pm_dBw=0.0)
    trials = 40_000
    an = sop(SchemeId.BSR, lay, params, 1.0).value
    for layout in (lay, NetworkLayout(lay.mbs, lay.sbs[:1])):
        est = mc_sop(SchemeId.BSR, layout, params, 1.0,
                     McSettings(trials=trials, seed=14))
        assert within_3_sigma(an, est.value, est.std_error, trials)


def test_mc_sop_rejects_an_oversized_field():
    # 3.9e8 expected eavesdroppers per 2048-realization chunk: refused
    # before any draw instead of exhausting memory
    lay = standard_layout(10)
    params = standard_params(Ps_dBw=30.0, lambda_e=1.0, alpha=2.5)
    # a far-field power that overflows gives an infinite disc, refused the
    # same way (with no floating-point warning)
    huge = ChannelParams(alpha=4.0, Ps=1e308, Pm=1.0, lambda_e=1e-300)
    start = time.perf_counter()
    for scheme in SchemeId:
        for p in (params, huge):
            with pytest.raises(ValueError, match="too large"):
                mc_sop(scheme, lay, p, 0.3, McSettings(trials=10 ** 5, seed=1))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("trials", [1, 5, 8, 9, 24, 29])
def test_chunk_plan(trials):
    # chunks of 8 (below, at and above one chunk, with and without a
    # remainder): full chunks, then the remainder, each seeded by the next
    # child of one spawn of the run seed
    seen = []

    def worker(n, seq):
        seen.append((n, seq.entropy, seq.spawn_key))
        return n % 3

    est = _estimate(worker, trials, 8, 7)
    sizes = [8] * (trials // 8) + [trials % 8] * (trials % 8 > 0)
    children = np.random.SeedSequence(7).spawn(len(sizes))
    assert seen == [(n, c.entropy, c.spawn_key)
                    for n, c in zip(sizes, children)]
    assert est.value == sum(n % 3 for n in sizes) / trials


def test_mc_memory_does_not_grow_with_trials(monkeypatch):
    # 2^30 trials are 16,384 chunks; stopped at its first draw, the run has
    # allocated no size or seed per chunk
    class FirstDraw(Exception):
        pass

    def stop(seq):
        raise FirstDraw

    monkeypatch.setattr(np.random, "default_rng", stop)
    tracemalloc.start()
    try:
        with pytest.raises(FirstDraw):
            mc_cop(SchemeId.DBF, standard_layout(3), standard_params(), 1.0,
                   McSettings(trials=1 << 30, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


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
            "bsr-independent": (SchemeId.BSR, {"independent_hops": True})}
SOP_TRIALS = 2100    # one full chunk and a partial one
COP_TRIALS = 70_001  # idem

# (variant, K, alpha, Pm_dBw[, Ps_dBw]) -> (seed, failures) at Ps = 10 dBw
# unless given, lambda_e = 0.1, beta_e = K. The cases that give Ps_dBw (low
# SOPs, non-integer alpha) leave most kept points to the exact test rather
# than to the sure-breach marking.
SOP_PINNED = {
    ("dbf", 1, 3.0, 0.0): (0, 1526),
    ("dbf", 1, 3.0, 20.0): (1, 1532),
    ("dbf", 1, 4.0, 0.0): (2, 1258),
    ("dbf", 1, 4.0, 20.0): (3, 1244),
    ("dbf", 3, 3.0, 0.0): (4, 1590),
    ("dbf", 3, 3.0, 20.0): (5, 1590),
    ("dbf", 3, 4.0, 0.0): (6, 1281),
    ("dbf", 3, 4.0, 20.0): (7, 1292),
    ("dbf", 8, 3.0, 0.0): (8, 1729),
    ("dbf", 8, 3.0, 20.0): (9, 1701),
    ("dbf", 8, 4.0, 0.0): (10, 1536),
    ("dbf", 8, 4.0, 20.0): (11, 1550),
    ("fot", 1, 3.0, 0.0): (12, 1556),
    ("fot", 1, 3.0, 20.0): (13, 1536),
    ("fot", 1, 4.0, 0.0): (14, 1187),
    ("fot", 1, 4.0, 20.0): (15, 1237),
    ("fot", 3, 3.0, 0.0): (16, 1849),
    ("fot", 3, 3.0, 20.0): (17, 1891),
    ("fot", 3, 4.0, 0.0): (18, 1613),
    ("fot", 3, 4.0, 20.0): (19, 1586),
    ("fot", 8, 3.0, 0.0): (20, 2054),
    ("fot", 8, 3.0, 20.0): (21, 2042),
    ("fot", 8, 4.0, 0.0): (22, 1919),
    ("fot", 8, 4.0, 20.0): (23, 1909),
    ("bsr-shared", 1, 3.0, 0.0): (24, 1599),
    ("bsr-shared", 1, 3.0, 20.0): (25, 2095),
    ("bsr-shared", 1, 4.0, 0.0): (26, 1395),
    ("bsr-shared", 1, 4.0, 20.0): (27, 2004),
    ("bsr-shared", 3, 3.0, 0.0): (28, 1130),
    ("bsr-shared", 3, 3.0, 20.0): (29, 2002),
    ("bsr-shared", 3, 4.0, 0.0): (30, 1031),
    ("bsr-shared", 3, 4.0, 20.0): (31, 1750),
    ("bsr-shared", 8, 3.0, 0.0): (32, 701),
    ("bsr-shared", 8, 3.0, 20.0): (33, 1703),
    ("bsr-shared", 8, 4.0, 0.0): (34, 713),
    ("bsr-shared", 8, 4.0, 20.0): (35, 1439),
    ("bsr-independent", 1, 3.0, 0.0): (36, 1686),
    ("bsr-independent", 1, 3.0, 20.0): (37, 2100),
    ("bsr-independent", 1, 4.0, 0.0): (38, 1440),
    ("bsr-independent", 1, 4.0, 20.0): (39, 2058),
    ("bsr-independent", 3, 3.0, 0.0): (40, 1118),
    ("bsr-independent", 3, 3.0, 20.0): (41, 2041),
    ("bsr-independent", 3, 4.0, 0.0): (42, 1001),
    ("bsr-independent", 3, 4.0, 20.0): (43, 1858),
    ("bsr-independent", 8, 3.0, 0.0): (44, 683),
    ("bsr-independent", 8, 3.0, 20.0): (45, 1729),
    ("bsr-independent", 8, 4.0, 0.0): (46, 688),
    ("bsr-independent", 8, 4.0, 20.0): (47, 1553),
    ("dbf", 3, 2.5, 0.0, -10.0): (60, 126),
    ("dbf", 3, 3.7, 20.0, -10.0): (61, 230),
    ("dbf", 8, 2.5, 20.0, 10.0): (62, 1853),
    ("dbf", 1, 3.7, 0.0, 10.0): (63, 1279),
    ("fot", 3, 2.5, 0.0, -10.0): (64, 218),
    ("fot", 3, 3.7, 20.0, -10.0): (65, 318),
    ("fot", 8, 2.5, 20.0, 10.0): (66, 2080),
    ("fot", 1, 3.7, 0.0, 10.0): (67, 1324),
    ("bsr-shared", 3, 2.5, 0.0, -10.0): (68, 270),
    ("bsr-shared", 3, 3.7, 20.0, -10.0): (69, 1771),
    ("bsr-shared", 8, 2.5, 20.0, 10.0): (70, 1913),
    ("bsr-shared", 1, 3.7, 0.0, 10.0): (71, 1465),
    ("bsr-independent", 3, 2.5, 0.0, -10.0): (72, 254),
    ("bsr-independent", 3, 3.7, 20.0, -10.0): (73, 1779),
    ("bsr-independent", 8, 2.5, 20.0, 10.0): (74, 1929),
    ("bsr-independent", 1, 3.7, 0.0, 10.0): (75, 1505),
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
    for case, (seed, failures) in SOP_PINNED.items():
        name, K, alpha, pm, ps = case if len(case) == 5 else (*case, 10.0)
        if name != variant:
            continue
        params = standard_params(Ps_dBw=ps, Pm_dBw=pm, alpha=alpha)
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


# one scheme's field test on a random line layout: the cases of the pruning
# properties
FIELD_CASES = dict(
    scheme=st.sampled_from(list(SchemeId)), K=st.integers(1, 8),
    geometry=st.tuples(st.floats(0.05, 4.0), st.floats(0.05, 3.0),
                       st.floats(0.05, 6.0)),
    alpha=st.one_of(st.sampled_from([3.0, 5.0, 4.0]), st.floats(2.05, 7.0)),
    Ps=st.floats(1e-2, 1e4), Pm=st.sampled_from([0.0, 1.0, 1e3]),
    beta_e=st.floats(1e-2, 1e2), seed=st.integers(0, 2 ** 32 - 1))


def _field_case(scheme, K, geometry, alpha, Ps, Pm, beta_e, seed):
    lay = build_line_layout(geometry[0], geometry[1], K, geometry[2])
    params = ChannelParams(alpha=alpha, Ps=Ps, Pm=Pm, lambda_e=1.0)
    return (lay, _FieldTest(scheme, lay, params, beta_e),
            np.random.default_rng(seed))


@settings(max_examples=150, deadline=None)
@given(**FIELD_CASES)
def test_pruning_keeps_every_breaching_eavesdropper(scheme, K, geometry, alpha,
                                                    Ps, Pm, beta_e, seed):
    lay, test, rng = _field_case(scheme, K, geometry, alpha, Ps, Pm, beta_e,
                                 seed)
    m = 600
    r_sq = test.radius * test.radius
    u = rng.random(m)
    # a quarter of the points inside the farthest transmitter, and half on
    # the rays through the transmitters, where the bound is tightest
    d_max = max(hop[3] for hop in test.hops)
    u[: m // 4] = d_max * d_max / r_sq * rng.random(m // 4)
    u_ang = rng.random(m)
    rays = np.angle([lay.mbs, *lay.sbs]) / (2.0 * math.pi)
    u_ang[m // 2:] = rays[rng.integers(0, rays.size, m - m // 2)]
    fades = np.array(test.draw_fades(rng, m))
    # a quarter of those on the inner edge of their ring, with the fades of
    # one bound's hops one ulp below its keep threshold
    edge = np.arange(m // 2, 5 * m // 8)
    band = rng.integers(0, BANDS, edge.size)
    u[edge] = band / BANDS
    bounds = [bound for bound in test.bounds if bound[0]]
    pick = rng.integers(0, len(bounds), edge.size)
    for i, (group, keep, _) in enumerate(bounds):
        on = pick == i
        fades[np.ix_(group, edge[on])] = np.nextafter(keep[band[on]], 0.0)
    serving = rng.integers(0, K, m)
    idx = np.arange(m)
    px, py = _xy(u, u_ang, idx, r_sq)
    # all hops (a shared field) and each hop alone
    every = tuple(range(len(test.hops)))
    for hops in (every, *((h,) for h in every)):
        breach = test.breaches(px, py, idx, fades, serving, hops)
        assert not np.any(breach & ~test.may_breach(u, fades, hops)), hops


@settings(max_examples=150, deadline=None)
@given(**FIELD_CASES)
def test_sure_eavesdroppers_always_breach(scheme, K, geometry, alpha, Ps, Pm,
                                          beta_e, seed):
    # a point is sure when its fade exceeds its ring's `sure` threshold; put
    # the points where that bound is tightest: at the top of their ring (the
    # last ring for a third of them) or on its inner edge, opposite a
    # transmitter, served by the farthest SBS, with the fades of one bound's
    # hops one ulp above its threshold
    lay, test, rng = _field_case(scheme, K, geometry, alpha, Ps, Pm, beta_e,
                                 seed)
    m = 600
    band = rng.integers(0, BANDS, m)
    band[: m // 3] = BANDS - 1
    u = np.nextafter((band + 1) / BANDS, 0.0)
    u[-m // 6:] = band[-m // 6:] / BANDS
    rays = np.angle([lay.mbs, *lay.sbs]) / (2.0 * math.pi) + 0.5
    u_ang = rays[rng.integers(0, rays.size, m)]
    fades = np.array(test.draw_fades(rng, m))
    bounds = [bound for bound in test.bounds if bound[0]]
    pick = rng.integers(0, len(bounds), m)
    for i, (group, _, sure) in enumerate(bounds):
        on = pick == i
        fades[np.ix_(group, on)] = np.nextafter(sure[band[on]], np.inf)
    serving = np.full(m, K - 1)
    idx = np.arange(m)
    px, py = _xy(u, u_ang, idx, test.radius * test.radius)
    every = tuple(range(len(test.hops)))
    for hops in (every, *((h,) for h in every)):
        must = test.may_breach(u, fades, hops, sure=True)
        breach = test.breaches(px, py, idx, fades, serving, hops)
        assert not np.any(must & ~breach), hops
        assert not np.any(must & ~test.may_breach(u, fades, hops)), hops
