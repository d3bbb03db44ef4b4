import cmath
import dataclasses
import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import wofz

from cachesec import (ChannelParams, NetworkLayout, OutageEstimate,
                      RateDesign, SchemeId, build_line_layout,
                      cop_bsr, cop_dbf_asymptotic, cop_dbf_exact, cop_fot,
                      invert_sop, outage, sop_bsr_approx, sop_bsr_exact,
                      sop_dbf, sop_fot)
from cachesec import montecarlo
from cachesec.channel import dist_pow_neg
from cachesec.layout import distance
from helpers import (beta_t_star, dbw, rate_codeword, rate_redundancy,
                     standard_layout, standard_params)


# ---------------------------------------------------------------------------
# wiretap code and estimate types
# ---------------------------------------------------------------------------

def test_wiretap_code_from_thresholds():
    code = RateDesign(SchemeId.DBF, beta_e_circ=1.0, beta_s_star=3.0,
                      psi_star=0.0)
    assert rate_codeword(code) == pytest.approx(code.rate_secrecy
                                                + rate_redundancy(code))
    assert beta_t_star(code) == pytest.approx(1.0 + 2.0 * 3.0)
    assert beta_t_star(code) == pytest.approx(2.0 ** rate_codeword(code) - 1.0)


def test_wiretap_code_from_rates_roundtrip():
    Rs, Re = 2.0, 0.5
    code = RateDesign(SchemeId.FOT, beta_e_circ=2.0 ** Re - 1.0,
                      beta_s_star=2.0 ** Rs - 1.0, psi_star=0.0)
    assert code.rate_secrecy == pytest.approx(Rs)
    assert rate_redundancy(code) == pytest.approx(Re)
    assert rate_codeword(code) == pytest.approx(Rs + Re)


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


@pytest.mark.parametrize("fn", [cop_dbf_exact, cop_dbf_asymptotic, cop_fot,
                                cop_bsr], ids=lambda fn: fn.__name__)
def test_cop_rejects_negative_threshold(fn):
    with pytest.raises(ValueError, match="beta_t must be nonnegative"):
        fn(standard_layout(3), standard_params(), -1e-300)


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
    lay2 = NetworkLayout(mbs=3.0 + 0j, sbs=(1.0 + 0j, cmath.rect(1.0, 1.0)))
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


def test_faddeeva_matches_scipy_wofz():
    # the beamforming COP passes w only iz/2 with Re z >= 0 and |z| <=
    # SERIES_Z = 40: the upper half plane within |z| <= 20. scipy is an
    # oracle of the tests only; the program never imports it
    rng = np.random.default_rng(20260415)
    z = 20.0 * np.sqrt(rng.random(4000)) * np.exp(1j * math.pi
                                                  * rng.random(4000))
    z = np.concatenate((z, rng.uniform(-20.0, 20.0, 400),  # on the real axis
                        1j * rng.uniform(0.0, 20.0, 400)))
    rel = np.abs(outage._faddeeva(z) - wofz(z)) / np.abs(wofz(z))
    assert rel.max() <= 1e-13


def test_faddeeva_blocks_match_horner():
    # Weideman's polynomial in blocks of 8 powers (Estrin's scheme) against
    # the reference, Horner's rule on all 40 coefficients, on the region
    # the beamforming COP reaches: within 1e-15 relative
    rng = np.random.default_rng(20261019)
    z = 20.0 * np.sqrt(rng.random(10_000)) * np.exp(1j * math.pi
                                                    * rng.random(10_000))
    d = 1.0 / (outage._WL - 1j * z)
    horner = (2.0 * np.polyval(outage._WEIDEMAN, (outage._WL + 1j * z) * d)
              * d + 1.0 / math.sqrt(math.pi)) * d
    assert np.max(np.abs(outage._faddeeva(z) / horner - 1.0)) <= 1e-15


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
            delta = outage._amplitude_sum_cdf(a, math.sqrt(c))[1]
            with mock.patch.object(outage, "COP_NODES",
                                   2 * outage.COP_NODES):
                refined = outage._amplitude_sum_cdf(a, math.sqrt(c))[0]
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
    lay = NetworkLayout(mbs=3.0 + 0j, sbs=(1.0 + 0j, cmath.rect(1.0, 2.0)))
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
    # as Pm -> 0 the backhaul hop is intercepted only on the MBS's own
    # breach disc, of area pi Gamma(1.5) sqrt(Pm / beta_e) at alpha = 4,
    # where the serving hop does not already breach
    lay = standard_layout(3)
    base = ChannelParams(alpha=4.0, Ps=10.0, Pm=1e-12, lambda_e=0.1)
    zero = ChannelParams(alpha=4.0, Ps=10.0, Pm=0.0, lambda_e=0.1)
    single = sop_bsr_exact(lay, zero, 1.0).value
    serving = lay.sbs[0]
    d_sq = abs(lay.mbs - serving) ** 2
    disc = math.pi * math.gamma(1.5) * 1e-6 * -math.expm1(-d_sq ** 2 / 10.0)
    assert sop_bsr_exact(lay, base, 1.0).value - single == pytest.approx(
        (1.0 - single) * 0.1 * disc, rel=1e-3)


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


def test_sop_quadrature_certified_converged(monkeypatch):
    lay = standard_layout(5)
    params = standard_params()
    fns = (sop_dbf, sop_fot, sop_bsr_exact)
    base = [fn(lay, params, 1.0) for fn in fns]
    monkeypatch.setattr(outage, "SOP_NODES",
                        tuple(2 * n for n in outage.SOP_NODES))
    for fn, b in zip(fns, base):
        doubled = fn(lay, params, 1.0)
        assert b.flag is None
        assert abs(b.value - doubled.value) < 1e-6


@settings(max_examples=150, deadline=None)
@given(K=st.integers(1, 8), alpha=st.sampled_from([2.5, 4.0, 8.0]),
       r_s1_o=st.floats(0.1, 100.0), r_s=st.floats(0.1, 10.0),
       r_b_s1=st.floats(0.1, 10.0), ps_dbw=st.floats(-30.0, 30.0),
       pm_dbw=st.floats(-30.0, 30.0), lambda_e=st.floats(1e-3, 10.0))
def test_unflagged_sops_are_within_tolerance_of_the_doubled_grid(
        K, alpha, r_s1_o, r_s, r_b_s1, ps_dbw, pm_dbw, lambda_e):
    # the certification (see outage._pgfl_sop) against the same integral
    # on a grid doubled on both axes
    lay = build_line_layout(r_s1_o, r_s, K, r_b_s1)
    params = ChannelParams(alpha, dbw(ps_dbw), dbw(pm_dbw), lambda_e)
    fns = (sop_dbf, sop_fot, sop_bsr_exact)
    base = [fn(lay, params, 1.0) for fn in fns]
    nodes = outage.SOP_NODES
    try:
        outage.SOP_NODES = tuple(2 * n for n in nodes)
        doubled = [fn(lay, params, 1.0).value for fn in fns]
    finally:
        outage.SOP_NODES = nodes
    for b, d in zip(base, doubled):
        assert b.flag is not None or abs(b.value - d) <= outage.QUAD_CERT_TOL


@pytest.mark.parametrize("layout", [standard_layout(1), standard_layout(8),
                                    build_line_layout(1.0, 2.0, 6, 2.0)])
@pytest.mark.parametrize("Pm", [0.0, 0.1, 10.0, 1e4])
def test_centre_terms_sum_to_the_law(layout, Pm):
    # the terms each transmitter's grid integrates partition the law and
    # its slope, the union's links largest first. One law call evaluates
    # the terms of a far-field-power group's centres, one slice each, and
    # each slice is the term that centre gets alone
    rng = np.random.default_rng(3)
    px, py = rng.normal(0.0, 3.0, (2, 16, 32))
    for scheme in SchemeId:
        params = ChannelParams(alpha=3.0, Ps=10.0, Pm=Pm, lambda_e=1.0)
        kernel = outage.breach_kernel(scheme, layout, params)
        powers = [power * len(tx) for power, tx in kernel.links]
        assert powers == sorted(powers, reverse=True)
        law = kernel.law(px, py, 0.7, True)
        centres = [(k, i) for k, (power, tx) in enumerate(kernel.links)
                   if power > 0.0 for i in range(len(tx))]
        terms = []
        for _, group in itertools.groupby(centres, lambda c: powers[c[0]]):
            group = tuple(group)
            stacked = kernel.law(np.stack([px] * len(group)),
                                 np.stack([py] * len(group)), 0.7, True, group)
            for j, centre in enumerate(group):
                alone = kernel.law(px[None], py[None], 0.7, True, (centre,))
                for a, b in zip(alone, stacked):
                    assert np.array_equal(a[0], b[j])
            terms += zip(*stacked)
        assert len(terms) == len(centres)
        for whole, parts in zip(law, zip(*terms)):
            assert np.max(np.abs(sum(parts) - whole)) <= 1e-15 * len(parts)


def test_sop_peak_memory_stays_in_blocks():
    # passes of at most PASS_POINTS = 8,192 points: each float64 temporary
    # of a pass is at most 64 KiB; the traced peak at K = 8 is about 0.70 MiB
    lay, params = standard_layout(8), standard_params()
    sop_fot(lay, params, 1.0)  # fill the cache of the nested rules
    tracemalloc.start()
    try:
        sop_fot(lay, params, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


# The per-scheme breach laws that breach_links replaced, kept verbatim as
# references for the reordered arithmetic of the one union over links.

def _ref_dbf_law(layout, params):
    sx, sy = layout.sbs_xy()

    def law(px, py, beta_e):
        s = np.zeros_like(px)
        for k in range(layout.K):
            d_sq = (px - sx[k]) ** 2 + (py - sy[k]) ** 2
            s += dist_pow_neg(d_sq, params.alpha)
        g = np.exp(-(beta_e / params.Ps) / s)
        return g, -g / (params.Ps * s)

    return law


def _ref_fot_law(layout, params):
    sx, sy = layout.sbs_xy()
    kps = layout.K * params.Ps

    def law(px, py, beta_e):
        scale = beta_e / kps
        survive = np.ones_like(px)
        d_survive = np.zeros_like(px)
        for k in range(layout.K):
            d_sq = (px - sx[k]) ** 2 + (py - sy[k]) ** 2
            w = dist_pow_neg(d_sq, params.alpha)
            term = -np.expm1(-scale / w)
            d_survive = d_survive * term \
                + survive * (np.exp(-scale / w) / (kps * w))
            survive *= term
        return 1.0 - survive, -d_survive

    return law


def _ref_bsr_law(layout, params):
    mbs, serving = layout.mbs, layout.sbs[0]

    def hop(d_sq, power, beta_e):
        w = dist_pow_neg(d_sq, params.alpha)
        return np.exp(-(beta_e / power) / w), w

    def law(px, py, beta_e):
        hop2, w2 = hop((px - serving.real) ** 2 + (py - serving.imag) ** 2,
                       params.Ps, beta_e)
        if params.Pm > 0.0:
            hop1, w1 = hop((px - mbs.real) ** 2 + (py - mbs.imag) ** 2,
                           params.Pm, beta_e)
        else:
            hop1 = np.zeros_like(px)
        dg = -hop2 / (params.Ps * w2) * (1.0 - hop1)
        if params.Pm > 0.0:
            dg -= hop1 / (params.Pm * w1) * (1.0 - hop2)
        return hop1 + hop2 - hop1 * hop2, dg

    return law


_REF_LAWS = {SchemeId.DBF: _ref_dbf_law, SchemeId.FOT: _ref_fot_law,
             SchemeId.BSR: _ref_bsr_law}
# K = 1, 3 and 8 on the standard line, and the spaced K = 6 layout
_LAYOUTS = [standard_layout(1), standard_layout(3), standard_layout(8),
            build_line_layout(1.0, 2.0, 6, 2.0)]


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("Pm", [0.0, 1.0, 10.0])
def test_breach_links_match_reference_laws(layout, Pm):
    # beamforming keeps its arithmetic: the same bits wherever EXP_FLOOR
    # does not bind, and e^EXP_FLOOR where it does; the union over
    # partitions and hops reorders it, within 4 ulps of 1. The kernel's
    # derivative is in log(beta_e), beta_e times the reference's, a number
    # of order 1 reordered for every scheme: within the same 4 ulps
    rng = np.random.default_rng(11)
    tol = 4 * 2.0 ** -52
    floor = np.exp(outage.EXP_FLOOR)
    for ps_dbw in (-30.0, 0.0, 30.0):
        params = ChannelParams(alpha=4.0, Ps=dbw(ps_dbw), Pm=Pm, lambda_e=1.0)
        for scheme in SchemeId:
            kernel = outage.breach_kernel(scheme, layout, params)
            ref = _REF_LAWS[scheme](layout, params)
            for beta_e in np.exp(rng.uniform(-5.0, 5.0, 4)):
                d_max = max(abs(t) for _, tx in kernel.links for t in tx)
                power = max(p * len(tx) for p, tx in kernel.links)
                rmax = outage.trunc_radius(d_max, power, beta_e, 4.0)
                rad = rmax * np.sqrt(rng.random((16, 64)))
                ang = 2.0 * np.pi * rng.random((16, 64))
                px, py = rad * np.cos(ang), rad * np.sin(ang)
                value, slope = kernel.law(px, py, beta_e, True)
                ref_value, ref_slope = ref(px, py, beta_e)
                if scheme is SchemeId.DBF:
                    kept = ref_value >= floor
                    assert np.array_equal(value[kept], ref_value[kept])
                    assert np.all(value[~kept] == floor)
                else:
                    assert np.max(np.abs(value - ref_value)) <= tol
                assert np.max(np.abs(slope - beta_e * ref_slope)) <= tol


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("Pm", [0.0, 1.0])
def test_mirror_fold_matches_the_full_grid(layout, Pm):
    # every live transmitter of a line layout's kernel lies on one line,
    # horizontal, or vertical for relaying with a live backhaul; the
    # reflection across it maps each grid onto itself, so reading one
    # angle of each pair moves neither level nor the slope beyond rounding
    for ps_dbw in (-10.0, 10.0, 30.0):
        params = ChannelParams(alpha=4.0, Ps=dbw(ps_dbw), Pm=Pm, lambda_e=1.0)
        for scheme in SchemeId:
            kernel = outage.breach_kernel(scheme, layout, params)
            vertical = scheme is SchemeId.BSR and Pm > 0.0
            assert kernel.mirror == (0.25 if vertical else 0.0)
            full = dataclasses.replace(kernel, mirror=None)
            for beta_e, deriv in itertools.product((0.3, 3.0), (False, True)):
                np.testing.assert_allclose(
                    np.array(kernel.integral(beta_e, deriv)),
                    np.array(full.integral(beta_e, deriv)), rtol=1e-13, atol=0)


def test_layouts_off_a_shared_x_or_y_read_every_angle():
    # a layout turned by 2 pi/1024, a quarter of a grid step, or by 2 pi/8,
    # eight grid steps, shares no x or y coordinate, and a quarter turn
    # swaps the two; nor has relaying a mirror once the MBS leaves the
    # nearest SBS's vertical, unless the backhaul is silent
    layout = standard_layout(3)
    params = standard_params(Pm_dBw=0.0)
    for spin in (cmath.rect(1.0, 2.0 * math.pi / 1024),
                 cmath.rect(1.0, 2.0 * math.pi / 8)):
        rotated = NetworkLayout(layout.mbs * spin,
                                tuple(p * spin for p in layout.sbs))
        for scheme in SchemeId:
            assert outage.breach_kernel(scheme, rotated, params).mirror is None
    upright = NetworkLayout(layout.mbs * 1j, tuple(p * 1j for p in layout.sbs))
    assert [outage.breach_kernel(scheme, upright, params).mirror
            for scheme in SchemeId] == [0.25, 0.25, 0.0]
    aside = NetworkLayout(complex(0.3, 3.0), layout.sbs)
    silent = ChannelParams(params.alpha, params.Ps, 0.0, params.lambda_e)
    assert outage.breach_kernel(SchemeId.BSR, aside, params).mirror is None
    assert outage.breach_kernel(SchemeId.BSR, aside, silent).mirror == 0.0
    for scheme in (SchemeId.DBF, SchemeId.FOT):
        assert outage.breach_kernel(scheme, aside, params).mirror == 0.0


def test_line_layouts_read_half_the_angles_in_passes(monkeypatch):
    # each law call takes the grids of one far-field power in passes of at
    # most PASS_POINTS points: 3 folded grids of 33 angles, or 1 of 64
    calls = []
    real = outage.BreachKernel.law
    monkeypatch.setattr(outage.BreachKernel, "law", lambda self, px, *rest:
                        calls.append(px.shape) or real(self, px, *rest))
    n, n_angles = outage.SOP_NODES
    params = standard_params(Pm_dBw=0.0)
    for layout, scheme in itertools.product(_LAYOUTS, SchemeId):
        kernel = outage.breach_kernel(scheme, layout, params)
        for mirror, angles, per_pass in ((kernel.mirror, n_angles // 2 + 1, 3),
                                         (None, n_angles, 1)):
            calls.clear()
            dataclasses.replace(kernel, mirror=mirror).integral(1.0)
            assert {shape[1:] for shape in calls} == {(n - 1, angles)}
            assert max(shape[0] for shape in calls) <= per_pass
            assert sum(shape[0] for shape in calls) \
                == sum(len(tx) for _, tx in kernel.links)
            assert max(map(math.prod, calls)) <= outage.PASS_POINTS
    kernel = outage.breach_kernel(SchemeId.DBF, standard_layout(8), params)
    calls.clear()
    kernel.integral(1.0)
    assert [shape[0] for shape in calls] == [3, 3, 2]


@pytest.mark.parametrize("layout", [standard_layout(3),
                                    build_line_layout(1.0, 2.0, 6, 2.0)])
@pytest.mark.parametrize("scheme", list(SchemeId))
def test_breach_integral_slope_matches_central_difference(layout, scheme):
    # the log(beta_e)-derivative that the SOP inversion steps on, which
    # leaves out the slopes of the beamforming weights (they sum to 0) and
    # of the cut radius
    params = standard_params(Pm_dBw=10.0)
    kernel = outage.breach_kernel(scheme, layout, params)
    h = 1e-4
    for beta_e in (0.3, 3.0):
        slope = kernel.integral(beta_e, deriv=True)[1][0]
        diff = (kernel.integral(beta_e * math.exp(h))[0]
                - kernel.integral(beta_e * math.exp(-h))[0]) / (2 * h)
        assert slope < 0.0
        assert slope == pytest.approx(diff, rel=1e-6)


def test_breach_integral_defaults_to_the_reported_grid(monkeypatch):
    # the grid every SOP reports is read when called, by the quadrature
    # SOPs and by the root search alike, and its levels are nested: the
    # half level of SOP_NODES is the finest of half the nodes
    lay = standard_layout(3)
    params = standard_params()
    kernel = outage.breach_kernel(SchemeId.DBF, lay, params)
    value, slope = kernel.integral(0.7, deriv=True)
    monkeypatch.setattr(outage, "SOP_NODES",
                        tuple(n // 2 for n in outage.SOP_NODES))
    half = kernel.integral(0.7, deriv=True)
    assert half[0][0] == pytest.approx(value[1], rel=1e-13)
    assert half[1][0] == pytest.approx(slope[1], rel=1e-13)
    root, _, estimate = kernel.root(params.lambda_e, 0.2)
    assert sop_dbf(lay, params, root) == estimate
    assert abs(estimate.value - 0.2) <= outage.SOP_INVERSION_TOL


def test_silent_backhaul_keeps_radius_and_is_never_evaluated():
    # at Pm = 0 the MBS hop breaches nowhere: it is skipped, not divided
    # by zero, and is no centre, but the Monte Carlo disc still reaches
    # the MBS
    lay = standard_layout(3)
    params = standard_params()
    silent = ChannelParams(params.alpha, params.Ps, 0.0, params.lambda_e)
    kernel = outage.breach_kernel(SchemeId.BSR, lay, silent)
    assert montecarlo._FieldTest(SchemeId.BSR, lay, silent, 1.0).radius \
        == outage.trunc_radius(distance(lay.mbs), silent.Ps, 1.0, silent.alpha)
    assert kernel.links[1][0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, slope = kernel.integral(1.0, deriv=True)
    serving_hop = dataclasses.replace(kernel, links=kernel.links[:1])
    px = np.array([[0.3, lay.mbs.real], [-4.0, 7.5]])
    py = np.array([[0.2, lay.mbs.imag], [1.0, -2.0]])
    for a, b in zip(kernel.law(px, py, 1.0, True),
                    serving_hop.law(px, py, 1.0, True)):
        assert np.array_equal(a, b)
    assert 0.0 < value[0] and slope[0] < 0.0


def test_exp_floor_changes_no_spaced_sop(monkeypatch):
    # the spaced layout's low-power SOPs evaluate most grid points far
    # below e^-700; flooring them must not move any SOP visibly
    lay = build_line_layout(1.0, 2.0, 6, 2.0)
    fns = (sop_dbf, sop_fot, sop_bsr_exact)
    powers = (-30.0, 0.0, 30.0)

    def sops():
        return [fn(lay, standard_params(Ps_dBw=ps, lambda_e=1.0), 1.0).value
                for fn in fns for ps in powers]

    floored = sops()
    monkeypatch.setattr(outage, "EXP_FLOOR", -math.inf)
    for a, b in zip(floored, sops()):
        assert a == pytest.approx(b, rel=1e-15, abs=0.0)


def test_every_vector_exp_on_the_sop_path_is_floored(monkeypatch):
    # numpy's vector exp is about 150 times slower where its result is
    # subnormal; on the spaced layout at -30 dBw most grid points lie far
    # below e^-700, and no SOP or SOP inversion may hand exp such an
    # argument
    lowest = []
    real_exp = np.exp

    def exp(x, *args, **kwargs):
        if np.ndim(x) > 0:
            lowest.append(float(np.min(x)))
        return real_exp(x, *args, **kwargs)

    lay = build_line_layout(1.0, 2.0, 6, 2.0)
    params = standard_params(Ps_dBw=-30.0, lambda_e=1.0)
    monkeypatch.setattr(np, "exp", exp)
    for fn in (sop_dbf, sop_fot, sop_bsr_exact):
        fn(lay, params, 1.0)
    for scheme in SchemeId:
        invert_sop(scheme, lay, params, 0.2, bsr_exact=True)
    monkeypatch.undo()
    assert len(lowest) > 100
    assert min(lowest) >= outage.EXP_FLOOR
