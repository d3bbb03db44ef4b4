import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachesec import (ChannelParams, OutageEstimate, RateDesign, SchemeId,
                      build_line_layout, cop, cop_bsr, cop_dbf_asymptotic,
                      cop_dbf_exact, cop_fot, outage, sop, sop_bsr_approx,
                      sop_bsr_exact, sop_dbf, sop_fot)
from helpers import dbw, standard_layout, standard_params


# ---------------------------------------------------------------------------
# wiretap code and estimate types
# ---------------------------------------------------------------------------

def test_wiretap_code_from_thresholds():
    code = RateDesign(SchemeId.DBF, beta_e_circ=1.0, beta_s_star=3.0,
                      psi_star=0.0)
    assert code.rate_codeword == pytest.approx(code.rate_secrecy
                                               + code.rate_redundancy)
    assert code.beta_t_star == pytest.approx(1.0 + 2.0 * 3.0)
    assert code.beta_t_star == pytest.approx(2.0 ** code.rate_codeword - 1.0)


def test_wiretap_code_from_rates_roundtrip():
    Rs, Re = 2.0, 0.5
    code = RateDesign(SchemeId.FOT, beta_e_circ=2.0 ** Re - 1.0,
                      beta_s_star=2.0 ** Rs - 1.0, psi_star=0.0)
    assert code.rate_secrecy == pytest.approx(Rs)
    assert code.rate_redundancy == pytest.approx(Re)
    assert code.rate_codeword == pytest.approx(Rs + Re)


def test_outage_estimate_validation():
    with pytest.raises(ValueError):
        OutageEstimate(1.5, "analytic-exact")
    with pytest.raises(ValueError):
        OutageEstimate(0.5, "monte-carlo", std_error=-1.0)


# ---------------------------------------------------------------------------
# connection outage
# ---------------------------------------------------------------------------

def test_cop_zero_threshold_is_zero():
    lay = standard_layout(3)
    params = standard_params()
    for fn in (cop_dbf_exact, cop_dbf_asymptotic, cop_fot, cop_bsr):
        assert fn(lay, params, 0.0).value == 0.0


def test_cop_dbf_k1_exponential_tail():
    lay = standard_layout(1)
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=1.0, lambda_e=0.1)
    assert cop_dbf_exact(lay, params, 1.0).value == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert cop_fot(lay, params, 1.0).value == pytest.approx(1 - math.exp(-1), abs=1e-12)


def _cop_dbf_two_sbs(c1: float, c2: float) -> tuple[float, float]:
    # the 2-D simplex integral of the K = 2 COP reduced to one smooth 1-D
    # Gauss-Legendre integral I = int_0^1 y e^{-c1 y^2 - c2 (1-y)^2} dy:
    # COP = (1 - e^{-c1}) - 2 c1 I, and 1 - COP = e^{-c1} + 2 c1 I keeps
    # its relative accuracy in the upper tail
    x, w = np.polynomial.legendre.leggauss(200)
    y = 0.5 * (x + 1.0)
    integral = 0.5 * float(np.sum(w * y * np.exp(-c1 * y * y
                                                 - c2 * (1.0 - y) ** 2)))
    return (-math.expm1(-c1) - 2.0 * c1 * integral,
            math.exp(-c1) + 2.0 * c1 * integral)


def test_cop_dbf_quadrature_matches_qmc_at_k2():
    # the K = 2 simplex reduction shares nothing with the Laplace inversion
    # and pins it to quadrature accuracy
    lay = standard_layout(2)
    ra = lay.sbs_distances() ** 4.0
    for beta, ps in ((0.1, 10.0), (1.0, 10.0), (5.0, 2.0)):
        params = ChannelParams(alpha=4.0, Ps=ps, Pm=1.0, lambda_e=0.1)
        c = beta / ps
        oracle, _ = _cop_dbf_two_sbs(c * float(ra[0]), c * float(ra[1]))
        assert cop_dbf_exact(lay, params, beta).value == pytest.approx(
            oracle, abs=1e-9)


def test_cop_dbf_upper_tail_is_accurate_to_rounding_at_k2():
    # above the mean the complement is integrated, so 1 - COP keeps its
    # value down to the rounding of a COP next to 1
    lay = standard_layout(2)
    ra = lay.sbs_distances() ** 4.0
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=1.0, lambda_e=0.1)
    for c in (10.0, 25.0, 35.0, 45.0):
        _, success = _cop_dbf_two_sbs(c * float(ra[0]), c * float(ra[1]))
        got = 1.0 - cop_dbf_exact(lay, params, c).value
        assert got == pytest.approx(success, abs=1e-15), f"c={c}"


def test_cop_dbf_asymptotic_formula_values():
    lay1 = standard_layout(1)
    p = ChannelParams(alpha=4.0, Ps=100.0, Pm=1.0, lambda_e=0.1)
    assert cop_dbf_asymptotic(lay1, p, 1.0).value == pytest.approx(0.01)
    # two SBSs both at distance 1: (4/24) * (beta/Ps)^2
    from cachesec import NetworkLayout, PolarPoint
    lay2 = NetworkLayout(mbs=PolarPoint(3.0, 0.0),
                         sbs=(PolarPoint(1.0, 0.0), PolarPoint(1.0, 1.0)))
    p2 = ChannelParams(alpha=4.0, Ps=10.0, Pm=1.0, lambda_e=0.1)
    assert cop_dbf_asymptotic(lay2, p2, 1.0).value == pytest.approx((4 / 24) * 0.01)


def test_cop_dbf_asymptotic_clamped_flag():
    lay = standard_layout(3)
    params = ChannelParams(alpha=4.0, Ps=0.01, Pm=1.0, lambda_e=0.1)
    est = cop_dbf_asymptotic(lay, params, 10.0)
    assert est.value == 1.0 and est.flag == "clamped"


def test_cop_dbf_asymptote_converges_to_exact():
    params = standard_params(Ps_dBw=40.0)
    for K in (1, 2, 3):
        lay = standard_layout(K)
        exact = cop_dbf_exact(lay, params, 1.0).value
        asym = cop_dbf_asymptotic(lay, params, 1.0).value
        assert 0.95 <= asym / exact <= 1.05


def _cdf_by_convolution(a: np.ndarray, x: float, n: int) -> float:
    # P(sum_k a_k R_k <= x) by FFT convolution of the scaled Rayleigh
    # densities on n + 1 trapezoid nodes over [0, min(x, 9 sum(a))]; the
    # mass beyond 9 sum(a) is below exp(-81)
    t = np.linspace(0.0, min(x, 9.0 * float(a.sum())), n + 1)
    h = float(t[1])
    f = 2.0 * t / a[0] ** 2 * np.exp(-(t / a[0]) ** 2)
    for ak in a[1:-1]:
        dk = 2.0 * t / ak ** 2 * np.exp(-(t / ak) ** 2)
        size = 2 * n + 2
        f = np.fft.irfft(np.fft.rfft(f, size) * np.fft.rfft(dk, size),
                         size)[:n + 1] * h
    g = f * -np.expm1(-((x - t) / a[-1]) ** 2)
    return h * float(g.sum() - 0.5 * (g[0] + g[-1]))


def _refined_cop_dbf(lay, params, beta: float, n: int = 1 << 14) -> float:
    # two grid sizes, Richardson-extrapolated (the trapezoid error is O(h^2))
    a = lay.sbs_distances() ** (-0.5 * params.alpha)
    x = math.sqrt(beta / params.Ps)
    coarse = _cdf_by_convolution(a, x, n)
    fine = _cdf_by_convolution(a, x, 2 * n)
    return fine + (fine - coarse) / 3.0


@pytest.mark.parametrize("K, r_s, Ps", [
    (8, 0.5, 0.3),                                    # 0.067771
    (6, 2.0, dbw(-30.0)), (6, 2.0, dbw(-12.0)),
    (6, 2.0, dbw(-6.0)), (6, 2.0, dbw(0.0))])         # the spaced layout
def test_cop_dbf_matches_refined_convolution(K, r_s, Ps):
    lay = build_line_layout(r_s1_o=1.0, r_s=r_s, K=K, r_b_s1=2.0)
    params = ChannelParams(alpha=4.0, Ps=Ps, Pm=1.0, lambda_e=1.0)
    est = cop_dbf_exact(lay, params, 1.0)
    assert est.flag is None
    assert est.value == pytest.approx(_refined_cop_dbf(lay, params, 1.0),
                                      abs=1e-6)


def test_cop_dbf_matches_asymptote_at_high_power():
    params = standard_params(Ps_dBw=60.0)
    for K in range(2, 9):
        lay = standard_layout(K)
        ratio = cop_dbf_asymptotic(lay, params, 1.0).value \
            / cop_dbf_exact(lay, params, 1.0).value
        assert ratio == pytest.approx(1.0, abs=1e-3), f"K={K}"


def test_cop_dbf_flags_too_few_nodes(monkeypatch):
    lay, params = standard_layout(3), standard_params()
    assert cop_dbf_exact(lay, params, 1.0).flag is None
    monkeypatch.setattr(outage, "COP_NODES", 4)
    assert cop_dbf_exact(lay, params, 1.0).flag == "quadrature-unconverged"


@settings(max_examples=150, deadline=None)
@given(K=st.integers(1, 12),
       alpha=st.floats(2.0, 8.0, exclude_min=True),
       ps_dbw=st.floats(-3000.0, 3000.0),
       betas=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2))
def test_cop_dbf_exact_properties(K, alpha, ps_dbw, betas):
    lay = standard_layout(K)
    params = ChannelParams(alpha=alpha, Ps=10.0 ** (ps_dbw / 10.0), Pm=1.0,
                           lambda_e=0.1)
    lo, hi = sorted(betas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est_lo = cop_dbf_exact(lay, params, lo)
        est = cop_dbf_exact(lay, params, hi)
        c = hi / params.Ps
        if K == 1 or c == 0.0:  # closed form, nothing to certify
            refined, delta = est.value, 0.0
        else:
            a = lay.sbs_distances() ** (-0.5 * alpha)
            refined = outage._amplitude_sum_cdf(a, math.sqrt(c),
                                                 2 * outage.COP_NODES)[0]
            delta = outage._amplitude_sum_cdf(a, math.sqrt(c),
                                              outage.COP_NODES)[1]
    for e in (est_lo, est):
        assert math.isfinite(e.value) and 0.0 <= e.value <= 1.0
    assert est_lo.value <= est.value * (1.0 + 1e-9)
    assert est.value <= cop_bsr(lay, params, hi).value + 1e-9
    assert (est.flag == "quadrature-unconverged") \
        == (delta > outage.COP_CERT_TOL)
    if est.flag is None:
        # certified to the tolerance on the smaller tail
        tail = min(refined, 1.0 - refined)
        assert abs(est.value - refined) <= outage.COP_CERT_TOL * tail


def test_cop_fot_formula_value():
    lay = standard_layout(2)
    params = ChannelParams(alpha=4.0, Ps=5.0, Pm=1.0, lambda_e=0.1)
    expected = 1 - math.exp(-(1.0 / (2 * 5.0)) * (1.0 + 1.25 ** 2))
    assert cop_fot(lay, params, 1.0).value == pytest.approx(expected, rel=1e-12)


def test_cop_bsr_formula_value():
    from cachesec import NetworkLayout, PolarPoint
    lay = NetworkLayout(mbs=PolarPoint(3.0, 0.0),
                        sbs=(PolarPoint(1.0, 0.0), PolarPoint(1.0, 2.0)))
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=1.0, lambda_e=0.1)
    assert cop_bsr(lay, params, 1.0).value == pytest.approx((1 - math.exp(-1)) ** 2, rel=1e-12)


def test_cop_bsr_saturates_without_overflow():
    # beta_t r^alpha / Ps overflowed to inf at the bottom of the power range
    params = ChannelParams(alpha=8.0, Ps=dbw(-2995.0), Pm=1.0, lambda_e=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cop_bsr(standard_layout(7), params, 56849.0).value == 1.0


def test_cop_bsr_high_power_diversity_slope():
    # ln COP vs ln Ps slope at high power equals -K
    lay = standard_layout(3)
    p_lo = standard_params(Ps_dBw=30.0)
    p_hi = standard_params(Ps_dBw=40.0)
    slope = (math.log(cop_bsr(lay, p_hi, 1.0).value)
             - math.log(cop_bsr(lay, p_lo, 1.0).value)) \
        / (math.log(p_hi.Ps) - math.log(p_lo.Ps))
    assert slope == pytest.approx(-3.0, abs=0.1)


def test_cop_monotone_in_beta_and_power():
    lay = standard_layout(3)
    betas = [0.1, 0.5, 1.0, 2.0, 5.0]
    powers = [0.0, 10.0, 20.0, 30.0]
    for fn in (cop_dbf_exact, cop_fot, cop_bsr):
        for ps in powers:
            params = standard_params(Ps_dBw=ps)
            vals = [fn(lay, params, b).value for b in betas]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        for b in betas:
            vals = [fn(lay, standard_params(Ps_dBw=ps), b).value
                    for ps in powers]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


def test_cop_scheme_ordering():
    # beamforming <= relaying <= orthogonal partitions
    rng = np.random.default_rng(10)
    for _ in range(30):
        K = int(rng.integers(1, 6))
        lay = standard_layout(K)
        params = ChannelParams(alpha=float(rng.uniform(2.5, 6.0)),
                               Ps=float(dbw(rng.uniform(-5, 35))),
                               Pm=1.0, lambda_e=0.1)
        beta = float(rng.uniform(0.05, 10.0))
        c_dbf = cop_dbf_exact(lay, params, beta).value
        c_bsr = cop_bsr(lay, params, beta).value
        c_fot = cop_fot(lay, params, beta).value
        assert c_dbf <= c_bsr + 1e-9
        assert c_bsr <= c_fot + 1e-9


# ---------------------------------------------------------------------------
# secrecy outage
# ---------------------------------------------------------------------------

def test_sop_zero_density_is_zero():
    # no eavesdroppers: zero also at beta_e = 0, where the integral diverges
    lay = standard_layout(3)
    params = ChannelParams(alpha=4.0, Ps=10.0, Pm=1.0, lambda_e=0.0)
    for beta_e in (1.0, 0.0):
        for est in (sop_dbf(lay, params, beta_e), sop_fot(lay, params, beta_e),
                    sop_bsr_exact(lay, params, beta_e),
                    sop_bsr_approx(params, beta_e)):
            assert est.value == 0.0 and est.flag is None


def test_sop_zero_redundancy_divergent_flag():
    lay = standard_layout(2)
    params = standard_params()
    for est in (sop_dbf(lay, params, 0.0), sop_fot(lay, params, 0.0),
                sop_bsr_exact(lay, params, 0.0), sop_bsr_approx(params, 0.0)):
        assert est.value == 1.0 and est.flag == "divergent"
    with pytest.raises(ValueError):
        sop_dbf(lay, params, -1.0)


def test_sop_dbf_huge_redundancy_vanishes():
    # only eavesdroppers nearly on top of an SBS can decode a huge-threshold
    # codeword, so a sparse field almost never breaches
    lay = standard_layout(1)
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=1.0, lambda_e=1e-4)
    est = sop_dbf(lay, params, 1e6)
    assert 0.0 < est.value < 1e-6


def test_sop_fot_k1_equals_dbf():
    lay = standard_layout(1)
    params = standard_params()
    for beta in (0.3, 1.0, 4.0):
        assert sop_fot(lay, params, beta).value == pytest.approx(
            sop_dbf(lay, params, beta).value, abs=1e-12)


def test_sop_bsr_small_pm_reduces_to_single_hop():
    # as Pm -> 0 the backhaul hop is never intercepted
    lay = standard_layout(3)
    base = ChannelParams(alpha=4.0, Ps=10.0, Pm=1e-12, lambda_e=0.1)
    zero = ChannelParams(alpha=4.0, Ps=10.0, Pm=0.0, lambda_e=0.1)
    assert sop_bsr_exact(lay, base, 1.0).value == pytest.approx(
        sop_bsr_exact(lay, zero, 1.0).value, abs=1e-9)


def test_sop_bsr_approx_closed_form_value():
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=1.0, lambda_e=0.1)
    expected = 1 - math.exp(-math.pi * 0.1 * math.gamma(1.5) * 2.0)
    assert sop_bsr_approx(params, 1.0).value == pytest.approx(expected, rel=1e-12)
    assert sop_bsr_approx(params, 1.0).value == pytest.approx(0.42698, abs=5e-6)


def test_sop_monotonicity():
    lay = standard_layout(2)
    betas = [0.2, 0.5, 1.0, 3.0]
    powers = [0.0, 10.0, 20.0]
    densities = [0.01, 0.1, 0.3]
    for fn in (sop_dbf, sop_fot, sop_bsr_exact):
        vals = [fn(lay, standard_params(), b).value for b in betas]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
        vals = [fn(lay, standard_params(Ps_dBw=p), 1.0).value for p in powers]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
        vals = [fn(lay, standard_params(lambda_e=d), 1.0).value
                for d in densities]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


def test_sop_scheme_ordering_dbf_below_fot():
    rng = np.random.default_rng(11)
    for _ in range(20):
        K = int(rng.integers(1, 6))
        lay = standard_layout(K)
        params = ChannelParams(alpha=float(rng.uniform(2.5, 6.0)),
                               Ps=float(dbw(rng.uniform(-5, 30))),
                               Pm=1.0, lambda_e=float(rng.uniform(0.01, 0.3)))
        beta = float(rng.uniform(0.1, 5.0))
        assert sop_dbf(lay, params, beta).value <= \
            sop_fot(lay, params, beta).value + 1e-9


def test_sop_bsr_crosses_from_worst_to_best_over_power():
    # the relaying scheme's backhaul hop does not quiet down with the SBS
    # power, so it is the least secure at low power yet the most secure at
    # high power (only one SBS radiates in its second hop)
    lay = standard_layout(5)
    low = standard_params(Ps_dBw=-20.0, Pm_dBw=0.0)
    assert sop_bsr_exact(lay, low, 1.0).value > max(
        sop_dbf(lay, low, 1.0).value, sop_fot(lay, low, 1.0).value)
    high = standard_params(Ps_dBw=25.0, Pm_dBw=0.0)
    assert sop_bsr_exact(lay, high, 1.0).value < min(
        sop_dbf(lay, high, 1.0).value, sop_fot(lay, high, 1.0).value)


def test_sop_bsr_secure_backhaul_beats_others_and_leaky_loses():
    lay = standard_layout(3)
    beta = 1.0
    # a practically silent backhaul hop makes relaying the most secure
    quiet = ChannelParams(alpha=4.0, Ps=10.0, Pm=1e-9, lambda_e=0.1)
    s_bsr = sop_bsr_exact(lay, quiet, beta).value
    assert s_bsr < min(sop_dbf(lay, quiet, beta).value,
                       sop_fot(lay, quiet, beta).value)
    # a blaring backhaul hop makes it the least secure
    loud = ChannelParams(alpha=4.0, Ps=10.0, Pm=1e9, lambda_e=0.1)
    s_bsr = sop_bsr_exact(lay, loud, beta).value
    assert s_bsr > max(sop_dbf(lay, loud, beta).value,
                       sop_fot(lay, loud, beta).value)


def test_sop_quadrature_certified_converged():
    lay = standard_layout(5)
    params = standard_params()
    for fn in (sop_dbf, sop_fot, sop_bsr_exact):
        base = fn(lay, params, 1.0)
        doubled = fn(lay, params, 1.0, nodes=(512, 128))
        assert base.flag is None
        assert abs(base.value - doubled.value) < 1e-6


@pytest.mark.parametrize("block_points", [1, 24 * outage.ANGULAR_NODES])
def test_breach_integral_blocks_match_whole_grid(monkeypatch, block_points):
    # blocks down to one row (rounded up to a gemv row group) or of 24 rows,
    # which divides neither grid, sum bit for bit as one whole-grid block
    lay = standard_layout(3)
    params = standard_params(Pm_dBw=10.0)
    grids = [(n, outage.ANGULAR_NODES)
             for n in (outage.RADIAL_NODES, 2 * outage.RADIAL_NODES)]

    def integrals():
        return [outage.breach_kernel(s, lay, params).integral(0.7, g, d)
                for s in SchemeId for g in grids for d in (False, True)]

    monkeypatch.setattr(outage, "BLOCK_POINTS",
                        2 * outage.RADIAL_NODES * outage.ANGULAR_NODES)
    whole = integrals()
    monkeypatch.setattr(outage, "BLOCK_POINTS", block_points)
    assert integrals() == whole


def test_sop_peak_memory_stays_in_blocks():
    # whole-grid temporaries peaked at 4.0 MiB at K = 8, 64-row blocks at 0.64
    lay, params = standard_layout(8), standard_params()
    sop_fot(lay, params, 1.0)  # fill the Gauss-Legendre rule cache
    tracemalloc.start()
    try:
        sop_fot(lay, params, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


def test_dispatchers():
    lay = standard_layout(2)
    params = standard_params()
    assert cop(SchemeId.DBF, lay, params, 1.0).value == \
        cop_dbf_exact(lay, params, 1.0).value
    assert sop(SchemeId.BSR, lay, params, 1.0).value == \
        sop_bsr_exact(lay, params, 1.0).value
    assert sop(SchemeId.BSR, lay, params, 1.0, bsr_exact=False).value == \
        sop_bsr_approx(params, 1.0).value
    with pytest.raises(ValueError):
        cop("nope", lay, params, 1.0)
