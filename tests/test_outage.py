import cmath
import dataclasses
import itertools
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
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
        OutageEstimate(1.5)
    with pytest.raises(ValueError):
        OutageEstimate(0.5, std_error=-1.0)


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


def test_cop_dbf_sweep_keeps_the_bits_of_each_scalar_call(monkeypatch):
    # a power sweep is inverted in blocks of points, each array step one
    # numpy call per block, yet every value keeps the float.hex and flag
    # of its scalar call
    def sweep(alpha, powers_dbw):
        return [standard_params(Ps_dBw=v, alpha=alpha) for v in powers_dbw]

    def same_bits(lay, channels, beta_t):
        got = cop_dbf_exact(lay, channels, beta_t)
        want = [cop_dbf_exact(lay, p, beta_t) for p in channels]
        assert [(e.value.hex(), e.flag) for e in got] \
            == [(e.value.hex(), e.flag) for e in want]
        return [e.value for e in want], {e.flag for e in want}

    # the benchmark's outage-grid points: 532 in all. Their sweeps run
    # several blocks each (3 points a block at K = 8, 10 at K = 3)
    grids = {(3, 0.5): 0.0, (8, 0.5): -10.0, (6, 2.0): -30.0}
    for (K, r_s), start in grids.items():
        lay = build_line_layout(1.0, r_s, K, 2.0)
        for offset in (0.0, 0.25, 0.5, 0.75):
            same_bits(lay, sweep(4.0, [start + offset + i for i in
                                       range(31 - int(start))]), 1.0)
    # blocks hold at most PASS_POINTS // 4 Laplace arguments (a 256 KiB
    # table of Weideman powers) however long the sweep: 164 points in one
    # block would take 4 MiB at K = 3, 11 MiB at K = 8
    for K in (3, 8):
        tracemalloc.start()
        cop_dbf_exact(standard_layout(K), sweep(4.0, range(-10, 31)) * 4, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20
    powers = range(-30, 41, 10)
    assert same_bits(standard_layout(3), sweep(4.0, powers), 0.0)[0] \
        == [0.0] * len(powers)
    for K in (1, 2, 5, 8):
        for alpha in (2.5, 6.0):
            same_bits(standard_layout(K), sweep(alpha, powers), 10.0)
    # above the tail cut the COP is exactly 1
    assert same_bits(standard_layout(2), sweep(4.0, [-30.0]), 10.0)[0] \
        == [1.0]
    monkeypatch.setattr(outage, "COP_NODES", 4)
    assert "quadrature-unconverged" in same_bits(standard_layout(3),
                                                 sweep(4.0, powers), 1.0)[1]
    with pytest.raises(ValueError, match="one alpha"):
        cop_dbf_exact(standard_layout(3),
                      sweep(4.0, [0.0]) + sweep(3.0, [0.0]), 1.0)


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
    # the sweep form (two blocks of points at K >= 11) repeats each value
    assert cop_dbf_exact(lay, [params] * 3, hi) == [est] * 3
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


@pytest.mark.parametrize("ps_dbw", [-10.0, 0.0, 20.0])
def test_alpha_six_single_link_sops_match_the_closed_form(ps_dbw):
    # alpha = 6 builds the offset tables through the cubic path of
    # dist_pow_neg; at K = 1 every quadrature SOP (relaying with a silent
    # backhaul) is one link: 1 - exp(-lambda_e pi Gamma(1 + 2/alpha)
    # (P / beta_e)^(2/alpha))
    lay = build_line_layout(5.0, 0.5, 1, 2.0)
    params = ChannelParams(6.0, dbw(ps_dbw), 0.0, 1.0)
    exact = -math.expm1(-math.pi * math.gamma(1.0 + 2.0 / 6.0)
                        * (params.Ps / 0.7) ** (2.0 / 6.0))
    for fn in (sop_dbf, sop_fot, sop_bsr_exact):
        estimate = fn(lay, params, 0.7)
        assert estimate.flag is None
        assert estimate.value == pytest.approx(exact, rel=1e-9, abs=0.0)


def _shared_pair(layout, params, **changes):
    return [dataclasses.replace(outage.breach_kernel(scheme, layout, params),
                                **changes)
            for scheme in (SchemeId.DBF, SchemeId.FOT)]


def _assert_shared_pass_keeps_the_bits(dbf, fot, beta_e):
    # the one transmitter loop of both kernels against each kernel's own,
    # levels and slopes alike: a sum taken in another order moves a bit
    for deriv in (False, True):
        shared = dbf.integral(beta_e, deriv, fot)
        assert len(shared) == 2
        for kernel, levels in zip((dbf, fot), shared):
            assert np.array_equal(np.array(levels),
                                  np.array(kernel.integral(beta_e, deriv)))


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 8), alpha=st.sampled_from([2.5, 3.7, 4.0, 8.0]),
       r_s1_o=st.floats(0.1, 100.0), r_s=st.floats(0.1, 10.0),
       ps_dbw=st.floats(-30.0, 30.0), beta_e=st.floats(0.01, 100.0))
def test_shared_pass_gives_each_kernel_its_own_levels(K, alpha, r_s1_o, r_s,
                                                       ps_dbw, beta_e):
    params = ChannelParams(alpha, dbw(ps_dbw), 1.0, 1.0)
    layout = build_line_layout(r_s1_o, r_s, K, 2.0)
    _assert_shared_pass_keeps_the_bits(*_shared_pair(layout, params), beta_e)


@pytest.mark.parametrize("layout, ps_dbw, mirror", [
    # most of the spaced layout's grid points lie below e^EXP_FLOOR here
    (build_line_layout(1.0, 2.0, 6, 2.0), -30.0, 0.0),
    (standard_layout(8), 10.0, None),
    (NetworkLayout(4j, tuple(complex(0.4 * k, 1.0) * (0.8 + 0.6j)
                             for k in range(5))), 0.0, None)])
def test_shared_pass_keeps_the_bits_at_the_floor_and_off_a_mirror(
        layout, ps_dbw, mirror):
    params = standard_params(Ps_dBw=ps_dbw, lambda_e=1.0)
    dbf, fot = _shared_pair(layout, params, mirror=mirror)
    floored, real_exp = [], np.exp

    def exp(x, *args, **kwargs):
        floored.append(np.ndim(x) > 0 and np.any(x == outage.EXP_FLOOR))
        return real_exp(x, *args, **kwargs)

    with mock.patch.object(np, "exp", exp):
        dbf.integral(1.0, False, fot)
    assert any(floored) == (ps_dbw == -30.0)
    _assert_shared_pass_keeps_the_bits(dbf, fot, 1.0)
    _assert_shared_pass_keeps_the_bits(dbf, fot, 0.3)


def test_shared_pass_changes_no_sop_and_keeps_nothing(monkeypatch):
    # inside shared_pass the first of sop_dbf and sop_fot evaluates both
    # and the other takes its levels, in either order; other arguments and
    # schemes run alone. Nothing outlives the pass, an exception included,
    # so a later call reads the grid of its own moment
    lay, params = standard_layout(8), standard_params(lambda_e=0.01)
    fns = (sop_dbf, sop_fot, sop_bsr_exact)
    alone = {fn: fn(lay, params, 1.0) for fn in fns}
    elsewhere = sop_fot(lay, params, 2.0)
    for order in (fns, fns[::-1]):
        with outage.shared_pass(lay, params, 1.0):
            assert {fn: fn(lay, params, 1.0) for fn in order} == alone
            assert sop_fot(lay, params, 2.0) == elsewhere
    with pytest.raises(KeyError):
        with outage.shared_pass(lay, params, 1.0):
            sop_dbf(lay, params, 1.0)  # leaves the partition levels
            raise KeyError
    monkeypatch.setattr(outage, "SOP_NODES",
                        tuple(2 * n for n in outage.SOP_NODES))
    doubled = sop_fot(lay, params, 1.0)
    fot = outage.breach_kernel(SchemeId.FOT, lay, params)
    assert doubled == outage._reported_sop(params.lambda_e, fot.integral(1.0))
    assert doubled.value != alone[sop_fot].value


def test_threads_each_keep_their_own_shared_pass():
    # the pass lives on its thread: sweep points evaluated on more threads
    # than cores, switching often, each read their own levels
    lay = standard_layout(3)
    points = [standard_params(Ps_dBw=ps) for ps in range(0, 31, 3)] * 3
    alone = [(sop_dbf(lay, p, 1.0), sop_fot(lay, p, 1.0)) for p in points]

    def column(params):
        with outage.shared_pass(lay, params, 1.0):
            return sop_fot(lay, params, 1.0), sop_dbf(lay, params, 1.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            shared = list(pool.map(column, points, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [pair[::-1] for pair in shared] == alone


def test_sop_peak_memory_stays_in_blocks():
    # passes of at most PASS_POINTS = 8,192 points: each float64 temporary
    # of a pass is at most 64 KiB; the traced peak at K = 8 is about 0.51 MiB
    # for the partition SOP and 0.76 MiB for the shared beamforming-partition
    # pass (tracemalloc)
    lay, params = standard_layout(8), standard_params()
    sop_fot(lay, params, 1.0)  # fill the cache of the nested rules
    dbf, fot = _shared_pair(lay, params)
    for run in (lambda: sop_fot(lay, params, 1.0),
                lambda: dbf.integral(1.0, False, fot)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20


@pytest.mark.parametrize("r_s", [0.3, 0.05])
def test_sop_peak_memory_stays_in_blocks_where_offsets_do_not_repeat(r_s):
    # at K = 8 these spacings give 39 and 33 offsets c - t for 64 pairs, not
    # a line's 15: each centre reads its own points, one table row per
    # transmitter. The traced peaks are about 0.65, 0.83 and 0.90 MiB for
    # the partition SOP, the shared pass and the partition slope pass,
    # against 0.51, 0.76 and 0.82 MiB where the offsets repeat
    lay, params = build_line_layout(1.0, r_s, 8, 2.0), standard_params()
    sop_fot(lay, params, 1.0)  # fill the cache of the nested rules
    dbf, fot = _shared_pair(lay, params)
    for run in (lambda: sop_fot(lay, params, 1.0),
                lambda: dbf.integral(1.0, False, fot),
                lambda: fot.integral(1.0, True)):
        tracemalloc.start()
        try:
            run()
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
    # each law call takes every centre of one far-field power on a block of
    # whole rings of their shared grid, at most PASS_POINTS points in all
    # for all of them, and together the calls read each centre's grid once:
    # 79 radii by 33 folded angles, or by 64. The law reads one offset
    # table per call where the offsets are as few as a line's; at K = 8 and
    # r_s = 0.3 the offsets c - t do not repeat exactly, and each centre
    # reads its own points, on one table per transmitter
    calls, tables = [], []
    real, real_dist = outage.BreachKernel.law, outage.dist_pow_neg

    def law(self, px, *rest, **plan):  # integral hands law its plan
        built = len(tables)
        terms = real(self, px, *rest, **plan)
        calls.append((rest[3], px.shape, len(tables) - built))
        return terms

    monkeypatch.setattr(outage, "dist_pow_neg", lambda *args:
                        tables.append(args) or real_dist(*args))
    monkeypatch.setattr(outage.BreachKernel, "law", law)
    n, n_angles = outage.SOP_NODES
    params = standard_params(Pm_dBw=0.0)
    uneven = build_line_layout(1.0, 0.3, 8, 2.0)
    for layout, scheme in itertools.product([*_LAYOUTS, uneven], SchemeId):
        kernel = outage.breach_kernel(scheme, layout, params)
        powers = [power * len(tx) for power, tx in kernel.links]
        groups = [tuple(group) for _, group in itertools.groupby(
            ((k, i) for k, (power, tx) in enumerate(kernel.links)
             if power > 0.0 for i in range(len(tx))), lambda c: powers[c[0]])]
        for mirror, angles in ((kernel.mirror, n_angles // 2 + 1),
                               (None, n_angles)):
            calls.clear()
            dataclasses.replace(kernel, mirror=mirror).integral(1.0)
            assert {centres for centres, _, _ in calls} == set(groups)
            assert all(len(shape) == 1 for _, shape, _ in calls)
            assert max(len(centres) * shape[0] for centres, shape, _ in calls) \
                <= outage.PASS_POINTS
            assert all((built == 1) == (layout is not uneven
                                        or len(centres) == 1)
                       for centres, _, built in calls)
            for group in groups:
                assert sum(shape[0] for centres, shape, _ in calls
                           if centres == group) == (n - 1) * angles
    kernel = outage.breach_kernel(SchemeId.DBF, standard_layout(8), params)
    calls.clear()
    kernel.integral(1.0)
    assert [(len(centres), shape) for centres, shape, _ in calls] \
        == [(8, (1023,)), (8, (1023,)), (8, (561,))]


# a K = 4 layout on no shared line: its 16 offsets c - t are all distinct
_OFF_LINE = NetworkLayout(complex(0.3, 3.0), (
    complex(0.2, 1.0), complex(-0.6, 1.1), complex(0.9, 1.4),
    complex(-1.2, 1.6)))


@pytest.mark.parametrize("layout", [*_LAYOUTS, build_line_layout(
    1.0, 0.3, 8, 2.0), _OFF_LINE])
@pytest.mark.parametrize("Pm", [0.0, 1.0])
def test_integral_plans_each_group_once(monkeypatch, layout, Pm):
    # how law reads its tables depends on neither beta_e nor the points:
    # integral plans it once per far-field group and hands the plan to
    # every block of that group's rings, and law on that plan gives the
    # bits of law planning on the spot, alone and in the shared pass
    plans, blocks = [], []
    real_plan, real_law = outage.BreachKernel._plan, outage.BreachKernel.law

    def plan(self, *args):
        plans.append(args)
        return real_plan(self, *args)

    def law(self, *args, plan):
        blocks.append((self, args, plan))
        return real_law(self, *args, plan=plan)

    monkeypatch.setattr(outage.BreachKernel, "_plan", plan)
    monkeypatch.setattr(outage.BreachKernel, "law", law)
    params = ChannelParams(alpha=4.0, Ps=10.0, Pm=Pm, lambda_e=0.1)
    dbf, fot, bsr = (outage.breach_kernel(s, layout, params) for s in SchemeId)
    for kernel, shared in ((dbf, ()), (fot, ()), (bsr, ()), (dbf, (fot,))):
        groups = len({power * len(tx) for power, tx in kernel.links
                      if power > 0.0})
        assert groups == (2 if kernel is bsr and Pm else 1)
        for deriv in (False, True):
            plans.clear()
            blocks.clear()
            kernel.integral(0.7, deriv, *shared)
            assert len(plans) == groups
            assert len({id(plan) for _, _, plan in blocks}) == groups
            assert len(blocks) >= groups
            if layout.K == 8 and kernel is not bsr:  # 3 blocks, one plan
                assert len(blocks) == 3
            for self, args, plan in blocks:
                assert self is kernel and args[5:] == shared
                on_the_spot = real_law(self, *args)
                on_plan = real_law(self, *args, plan=plan)
                for got, want in zip(*(terms if shared else [terms] for terms
                                       in (on_plan, on_the_spot))):
                    for a, b in zip(got, want):
                        assert (a is None and b is None) \
                            or a.tobytes() == b.tobytes()


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

    floored, real_floored = [], outage._floored
    params = standard_params(Ps_dBw=-30.0, lambda_e=1.0)
    monkeypatch.setattr(np, "exp", exp)
    monkeypatch.setattr(outage, "_floored", lambda *args:
                        floored.append(args[1]) or real_floored(*args))
    for lay in (build_line_layout(1.0, 2.0, 6, 2.0),
                build_line_layout(1.0, 0.3, 6, 2.0)):
        for fn in (sop_dbf, sop_fot, sop_bsr_exact):
            fn(lay, params, 1.0)
        with outage.shared_pass(lay, params, 1.0):
            sop_dbf(lay, params, 1.0)
            sop_fot(lay, params, 1.0)
        for scheme in SchemeId:
            invert_sop(scheme, lay, params, 0.2, bsr_exact=True)
    monkeypatch.undo()
    # each vector exp takes a table or a link's breach factors in _floored
    assert len(lowest) == len(floored) > 0
    assert min(lowest) >= outage.EXP_FLOOR


# falling functions f(x - r) with a root at 0 and their derivatives: a
# shifted cubic, a tanh, and one that reaches 0 and stays flat past its root.
# The tanh is wide enough that a Newton step from its tail (2 sinh(z/2)
# long) leaves fewer than SOP_MAX_EVALS halvings to the root; bisecting
# down from a step of 1e60 would not
_FALLING = {
    "cubic": (lambda z: -z ** 3 - 0.1 * z, lambda z: -3.0 * z * z - 0.1),
    "tanh": (lambda z: -math.tanh(z / 4.0),
             lambda z: -0.25 * (1.0 - math.tanh(z / 4.0) ** 2)),
    "flat": (lambda z: max(-z, 0.0), lambda z: -1.0 if z < 0.0 else 0.0)}


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(sorted(_FALLING)), newton=st.booleans(),
       r=st.floats(-1500.0, 1500.0), start=st.floats(-40.0, 40.0),
       width=st.sampled_from([0.0, 1e-13, 1e-9, 1e-3]),
       accept=st.sampled_from([0.0, 1e-12, 1e-6]),
       top=st.one_of(st.just(math.inf), st.floats(0.0, 40.0)),
       cap=st.integers(1, 8))
def test_bracketed_root(shape, newton, r, start, width, accept, top, cap):
    # starts on either side of the root, so that either end is open first;
    # every x tried lies strictly inside the bracket of those before it (no
    # step outside it is taken) and no higher than top, none twice, and the
    # result is accepted or an end of a bracket at most width or one ulp
    # of it wide; under a smaller SOP_MAX_EVALS, RuntimeError after
    # exactly that many calls. Past 512, 1e-13 is below one ulp. With
    # neither width nor acceptance the one stop is adjacent floats, some
    # 700 halvings next to a root of 1e-200
    assume(width or accept)
    f, df = _FALLING[shape]
    top = r + top  # at or above the root
    tried, accepted = [], []

    def side(x):
        lo = max([t for t, v in tried if v > 0.0], default=-math.inf)
        hi = min([t for t, v in tried if v <= 0.0], default=math.inf)
        assert lo < x < hi and x <= top and x not in dict(tried)
        value = f(x - r)
        tried.append((x, value))
        if 0.0 < abs(value) <= accept:  # 0 is past the root, as a flat tail
            accepted.append(x)
            return None
        slope = df(x - r)
        return value, (x - value / slope if slope else math.nan) \
            if newton else None

    x = outage.bracketed_root(side, min(start, top), width, top)
    calls = len(tried)
    lo = max([t for t, v in tried if v > 0.0], default=-math.inf)
    hi = min([t for t, v in tried if v <= 0.0], default=math.inf)
    assert x == tried[-1][0]
    assert accepted == [x] or not accepted and x in (lo, hi) \
        and hi - lo <= max(width, math.ulp(x))
    if cap < calls:
        tried.clear()
        with mock.patch.object(outage, "SOP_MAX_EVALS", cap):
            with pytest.raises(RuntimeError, match=f"converge in {cap} "):
                outage.bracketed_root(side, min(start, top), width, top)
        assert len(tried) == cap


@pytest.mark.parametrize("r", [21.0, 100.0])
def test_open_bracket_newton_steps_stay_short(r):
    # from x = -3 on the flat tail of f = -tanh(3 (x - r)), the first
    # Newton step lands near 1e61; an open end takes no step longer than
    # 16, so the search moves out by doubling and converges in a few calls
    # instead of raising after SOP_MAX_EVALS
    tried = []

    def side(x):
        tried.append(x)
        z = 3.0 * (x - r)
        if abs(math.tanh(z)) <= 1e-12:
            return None
        return -math.tanh(z), x - math.sinh(2.0 * z) / 6.0

    x = outage.bracketed_root(side, -3.0)
    assert abs(x - r) <= 1e-12 and len(tried) <= 12


def _logistic(y):
    return 1.0 / (1.0 + 4.0 * math.exp(min(y, 700.0)))


# falling functions with a root at 0 and their slopes: S-shaped, one
# S-shaped with its inflection off the root (convex on one side of it,
# concave on the other), and a cubic (Newton steps never cross its root)
_S_SHAPED = {
    "tanh": (lambda z, s: -math.tanh(s * z),
             lambda z, s: -s * (1.0 - math.tanh(s * z) ** 2)),
    "logistic": (lambda z, s: _logistic(s * z) - 0.2,
                 lambda z, s: -s * _logistic(s * z)
                 * (1.0 - _logistic(s * z))),
    "cubic": (lambda z, s: -s * z ** 3 - 0.1 * z,
              lambda z, s: -3.0 * s * z * z - 0.1)}


@settings(max_examples=400, deadline=None)
@given(shape=st.sampled_from(sorted(_S_SHAPED)), newton=st.booleans(),
       scale=st.sampled_from([0.25, 1.0, 3.0]), r=st.floats(-700.0, 700.0),
       start=st.floats(-745.0, 745.0),
       width=st.sampled_from([0.0, 1e-13, 1e-9, 1e-3]),
       accept=st.sampled_from([0.0, 1e-12, 1e-6]),
       top=st.one_of(st.just(math.inf), st.floats(0.0, 40.0)),
       crawl=st.sampled_from([1.0, 1e3]))
def test_bracketed_root_ends_within_its_bound(shape, newton, scale, r, start,
                                              width, accept, top, crawl):
    # the bound of bracketed_root's docstring, per stage: from any start, a
    # root D away is passed in log2(D + 1) + 1 moves out besides the Newton
    # steps into the open end (at most 40 on these functions), and the
    # bracket, W wide when it closes, then stops within 3 log2(W / w) + 3
    # calls, w the width or half an ulp of the root. Once the bracket is
    # closed, a slope crawl times too steep makes Newton steps crawl: only
    # the halving guard ends such a search in time. SOP_MAX_EVALS is lifted
    # above every bound: the one-ulp rule alone may need some 3,000 calls
    # next to a root near 0
    f, df = _S_SHAPED[shape]
    top = r + top
    calls, moves, newton_open, closed_at = [], 0, 0, None

    def side(x):
        nonlocal moves, newton_open, closed_at
        value = f(x - r, scale)
        if closed_at is None and calls:  # a call out of an open bracket
            newton_open += x == calls[-1][2]
            moves += x != calls[-1][2]
            if (value > 0.0) != (calls[0][1] > 0.0):
                closed_at = len(calls) + 1
        if 0.0 < abs(value) <= accept:
            calls.append((x, value, None))
            return None
        slope = df(x - r, scale) * (1.0 if closed_at is None else crawl)
        step = x - value / slope if newton and slope else math.nan
        calls.append((x, value, step))
        return value, step if newton else None

    with mock.patch.object(outage, "SOP_MAX_EVALS", 10 ** 6):
        x = outage.bracketed_root(side, min(start, top), width, top)
    assert x == calls[-1][0]
    assert moves <= math.log2(abs(r - min(start, top)) + 1.0) + 1.0
    assert newton_open <= 40
    if closed_at is not None:
        lo = max(t for t, v, _ in calls[:closed_at] if v > 0.0)
        hi = min(t for t, v, _ in calls[:closed_at] if v <= 0.0)
        w = max(width, 0.5 * math.ulp(r), math.ulp(0.0))
        assert len(calls) - closed_at <= 3 * max(math.log2((hi - lo) / w),
                                                 0.0) + 3
