import cmath
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cachesec import (ChannelParams, NetworkLayout, SchemeId,
                      build_line_layout, outage, rates, cop_dbf_asymptotic,
                      bsr_approx_threshold, invert_sop, opt_bs_bsr,
                      opt_bs_dbf, opt_bs_fot, scheme_throughput,
                      secrecy_throughput_curve, sop_bsr_approx)
from cachesec.outage import SOP_INVERSION_TOL
from helpers import (beta_t_star, rate_codeword, rate_redundancy, sop,
                     standard_layout, standard_params)


def test_invert_sop_rejects_bad_epsilon():
    lay = standard_layout(2)
    params = standard_params()
    for eps in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            invert_sop(SchemeId.DBF, lay, params, eps)
        with pytest.raises(ValueError, match="epsilon must lie in"):
            bsr_approx_threshold(params, eps)


@pytest.mark.parametrize("scheme, bsr_exact, alpha, lambda_e", [
    (SchemeId.DBF, False, 4.0, 1e-155),   # the integrand divides by 0
    (SchemeId.DBF, False, 4.0, 1e-170),   # the start point underflows
    (SchemeId.FOT, False, 4.0, 1e-170),
    (SchemeId.BSR, True, 4.0, 1e-170),
    (SchemeId.BSR, False, 8.0, 1e-100)])  # the algebraic root is 0
def test_invert_sop_root_outside_the_float_range_fails_at_once(
        scheme, bsr_exact, alpha, lambda_e):
    lay = standard_layout(3)
    params = ChannelParams(alpha=alpha, Ps=10.0, Pm=1.0, lambda_e=lambda_e)
    # a feasible inversion first, so that the timing leaves out the one-off
    # set-up of the quadrature grids
    invert_sop(scheme, lay, standard_params(), 0.2, bsr_exact=bsr_exact)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside the float range"):
            invert_sop(scheme, lay, params, 0.2, bsr_exact=bsr_exact)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("scheme, bsr_exact, alpha, lambda_e", [
    (SchemeId.DBF, False, 4.0, 1e-150),
    (SchemeId.FOT, False, 4.0, 1e-150),
    (SchemeId.BSR, True, 4.0, 1e-150)])
def test_invert_sop_reaches_roots_near_the_float_limit(scheme, bsr_exact,
                                                       alpha, lambda_e):
    # roots of about 1e-297, where the beta_e-derivative of the breach
    # integral overflows but the log(beta_e)-derivative Newton steps on
    # stays finite
    lay = standard_layout(3)
    params = ChannelParams(alpha=alpha, Ps=10.0, Pm=1.0, lambda_e=lambda_e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = invert_sop(scheme, lay, params, 0.2, bsr_exact=bsr_exact)
    assert 1e-300 < root < 1e-295
    assert root.residual <= SOP_INVERSION_TOL


def test_invert_sop_stops_when_the_iterate_cannot_move(monkeypatch):
    # a line of 14 SBSs 1 apart, alpha = 8, lambda_e = 1e-6: at -2900 dBw
    # the roots are subnormal yet found; at -3000 dBw each lies between two
    # adjacent subnormals, and the inversion stops as soon as its next
    # beta_e is a bracket end already tried, not after SOP_MAX_EVALS
    lay = build_line_layout(1.0, 1.0, 14, 1.0)
    params = ChannelParams(alpha=8.0, Ps=1e-290, Pm=1.0, lambda_e=1e-6)
    for scheme, root, evals in ((SchemeId.DBF, 3.726166695543663e-309, 2),
                                (SchemeId.FOT, 1.712781355635728e-308, 3)):
        got = invert_sop(scheme, lay, params, 0.2)
        assert (float(got), got.evals) == (root, evals)
    calls = []
    real = outage.BreachKernel.integral

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(outage.BreachKernel, "integral", counted)
    for scheme in (SchemeId.DBF, SchemeId.FOT):
        calls.clear()
        start = time.perf_counter()
        with pytest.raises(ValueError, match="outside the float range"):
            invert_sop(scheme, lay, replace(params, Ps=1e-300), 0.2)
        assert len(calls) <= 3 and time.perf_counter() - start < 0.1


def test_invert_sop_evaluations_on_the_alpha_8_stress_case():
    # the spaced K = 6 layout at alpha = 8, lambda_e = 1000, epsilon = 0.5
    # and 0 dBw: the evaluation counts of Newton steps on the
    # log(beta_e)-derivative of the floored law (a slope of EXP_FLOOR
    # e^EXP_FLOOR, not 0, where the floor binds costs 67-89)
    lay = build_line_layout(1.0, 2.0, 6, 2.0)
    params = ChannelParams(alpha=8.0, Ps=1.0, Pm=1.0, lambda_e=1000.0)
    for scheme, most in ((SchemeId.DBF, 3), (SchemeId.FOT, 3),
                         (SchemeId.BSR, 3)):
        root = invert_sop(scheme, lay, params, 0.5, bsr_exact=True)
        assert root.evals <= most
        assert root.residual <= SOP_INVERSION_TOL


@pytest.mark.parametrize("alpha", [8.0, 15.0, 30.0])
def test_invert_sop_with_a_near_silent_mbs(alpha):
    # Pm = 1e-300 (-3000 dBw): the MBS hop's exponent, about -1e305 on the
    # serving SBS's grid, is floored to e^EXP_FLOOR, and the MBS's own
    # breach disc is some 1e-40 across, so its law and slope add nothing
    # and the root is that of a silent MBS (Pm = 0), the closed form of the
    # serving link alone, in as many evaluations; the unfloored exponent
    # times e^EXP_FLOOR would add about -10 per far point to the slope
    root = 1e-3 * (math.pi * math.gamma(1.0 + 2.0 / alpha)
                   / -math.log(0.8)) ** (alpha / 2.0)
    lay = standard_layout(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pm in (0.0, 1e-300):
            params = ChannelParams(alpha=alpha, Ps=1e-3, Pm=pm, lambda_e=1.0)
            got = invert_sop(SchemeId.BSR, lay, params, 0.2, bsr_exact=True)
            assert float(got) == pytest.approx(root, rel=1e-12)
            assert got.evals == 1


def test_invert_sop_round_trip_grid():
    lay = standard_layout(2)
    params = standard_params(Ps_dBw=10.0, Pm_dBw=10.0, lambda_e=0.05)
    for scheme in SchemeId:
        for eps in np.arange(0.05, 0.95, 0.05):
            beta = invert_sop(scheme, lay, params, float(eps))
            achieved = sop(scheme, lay, params, beta,
                           bsr_exact=False).value
            assert abs(achieved - eps) <= 1e-6


def test_invert_sop_bsr_matches_algebraic_inverse():
    lay = standard_layout(3)
    params = standard_params(Ps_dBw=10.0, Pm_dBw=5.0)
    for eps in (0.1, 0.3, 0.7):
        closed = bsr_approx_threshold(params, eps)
        bisected = invert_sop(SchemeId.BSR, lay, params, eps)
        assert abs(bisected - closed) / closed < 1e-6


def test_invert_sop_round_trip_of_closed_form_example():
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=1.0, lambda_e=0.1)
    eps = sop_bsr_approx(params, 1.0).value
    lay = standard_layout(2)
    assert invert_sop(SchemeId.BSR, lay, params, eps) == pytest.approx(1.0, abs=1e-6)


def test_invert_sop_bsr_exact_form_round_trip():
    # the shared-field relaying SOP can also drive the inversion
    lay = standard_layout(3)
    params = standard_params(Ps_dBw=10.0, Pm_dBw=5.0)
    from cachesec import sop_bsr_exact
    for eps in (0.2, 0.5):
        beta = invert_sop(SchemeId.BSR, lay, params, eps, bsr_exact=True)
        assert abs(sop_bsr_exact(lay, params, beta).value - eps) <= 1e-6
    design = scheme_throughput(SchemeId.BSR, lay, params, 0.3,
                               bsr_exact=True)
    assert design.psi_star > 0.0


def test_invert_sop_monotone_in_epsilon():
    lay = standard_layout(2)
    params = standard_params()
    for scheme in SchemeId:
        b1 = invert_sop(scheme, lay, params, 0.2)
        b2 = invert_sop(scheme, lay, params, 0.5)
        b3 = invert_sop(scheme, lay, params, 0.9)
        assert b1 > b2 > b3 > 0.0


def test_invert_sop_no_eavesdroppers():
    lay = standard_layout(2)
    params = standard_params(lambda_e=0.0)
    assert invert_sop(SchemeId.FOT, lay, params, 0.3) == 0.0


def test_opt_bs_dbf_unit_shift_free_case():
    # one SBS at distance 1 with Ps = 100 and zero redundancy: the
    # stationarity condition is (1 - 0.01 b)/((1+b) ln 2) = 0.01 log2(1+b)
    lay = standard_layout(1)
    params = ChannelParams(alpha=4.0, Ps=100.0, Pm=1.0, lambda_e=0.01)
    design = opt_bs_dbf(lay, params, 0.0)
    b = design.beta_s_star
    lhs = (1 - 0.01 * b) / ((1 + b) * math.log(2))
    rhs = 0.01 * math.log2(1 + b)
    assert abs(lhs - rhs) < 1e-9
    # concavity: second differences of the objective are nonpositive
    grid = np.linspace(0.0, 2 * b, 200)
    psi = secrecy_throughput_curve(SchemeId.DBF, lay, params, 0.0, grid)
    second = np.diff(psi, 2)
    assert (second <= 1e-12).all()


def test_opt_bs_dbf_derivative_positive_at_origin():
    lay = standard_layout(2)
    params = standard_params(Ps_dBw=20.0)
    beta_e = 0.5
    h = 1e-7
    psi = secrecy_throughput_curve(SchemeId.DBF, lay, params, beta_e,
                                   np.array([0.0, h]))
    assert psi[1] > psi[0]


def test_opt_bs_dbf_infeasible_returns_zero():
    lay = standard_layout(3)
    params = ChannelParams(alpha=4.0, Ps=0.01, Pm=1.0, lambda_e=0.1)
    design = opt_bs_dbf(lay, params, 50.0)
    assert design.psi_star == 0.0 and design.beta_s_star == 0.0


def test_opt_bs_fot_known_root():
    # decay = 1 gives beta* = u - 1 where u ln u = 1
    lay = standard_layout(1)
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=1.0, lambda_e=0.01)
    design = opt_bs_fot(lay, params, 0.0)
    lo, hi = 1.0, 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid * math.log(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    assert design.beta_s_star == pytest.approx(u - 1.0, abs=1e-9)
    b = design.beta_s_star
    assert abs(1.0 * math.log1p(b) - 1.0 / (1.0 + b)) < 1e-10


def test_opt_bs_fot_argmax_independent_of_gain():
    # the multiplicative gain scales the objective, not its argmax
    lay = standard_layout(3)
    params = standard_params(Ps_dBw=10.0)
    design = opt_bs_fot(lay, params, 0.4)
    decay = (1.0 + 0.4) * float(np.sum(lay.sbs_distances() ** 4.0)) \
        / (lay.K * params.Ps)
    grid = np.linspace(1e-4, 10 * design.beta_s_star, 40_001)
    for gain in (0.3, 7.0):
        curve = gain * np.exp(-decay * grid) * np.log2(1.0 + grid)
        assert grid[np.argmax(curve)] == pytest.approx(design.beta_s_star,
                                                       rel=1e-3)


def test_opt_bs_fot_large_decay_small_beta():
    # decay is about 2187 at zero redundancy, so beta* is about 4.6e-4
    lay = standard_layout(3)
    params = ChannelParams(alpha=4.0, Ps=1e-3, Pm=1.0, lambda_e=0.1)
    design = opt_bs_fot(lay, params, 0.0)
    assert 0.0 < design.beta_s_star < 1e-2 and design.psi_star > 0.0
    # at beta_e_circ = 5 the success probability exp(-10937) is 0
    starved = opt_bs_fot(lay, params, 5.0)
    assert starved.beta_s_star == starved.psi_star == 0.0


def test_opt_bs_bsr_k1_reduces_to_fot_halved():
    lay = standard_layout(1)
    params = standard_params(Ps_dBw=10.0)
    beta_e = 0.7
    d_bsr = opt_bs_bsr(lay, params, beta_e)
    # same optimality equation with the partition coefficients of one branch
    d_fot = opt_bs_fot(lay, params, beta_e)
    assert d_bsr.beta_s_star == pytest.approx(d_fot.beta_s_star, rel=1e-8)
    assert d_bsr.psi_star == pytest.approx(0.5 * d_fot.psi_star, rel=1e-8)


def test_opt_bs_bsr_far_sbs_irrelevant():
    lay = standard_layout(2)
    sbs_far = lay.sbs + (cmath.rect(60.0, 0.3),)
    lay_far = NetworkLayout(mbs=lay.mbs, sbs=sbs_far)
    params = standard_params(Ps_dBw=10.0)
    d1 = opt_bs_bsr(lay, params, 0.5)
    d2 = opt_bs_bsr(lay_far, params, 0.5)
    assert d1.beta_s_star == pytest.approx(d2.beta_s_star, rel=1e-6)


def test_opt_bs_bsr_nearest_branch_lower_bound():
    # designing for the nearest branch alone can only do worse
    lay = standard_layout(3)
    params = standard_params(Ps_dBw=10.0)
    beta_e = 0.5
    best = opt_bs_bsr(lay, params, beta_e)
    lay_near = NetworkLayout(mbs=lay.mbs, sbs=(lay.sbs[0],))
    sub = opt_bs_bsr(lay_near, params, beta_e)
    psi_at_sub = secrecy_throughput_curve(SchemeId.BSR, lay, params, beta_e,
                                          sub.beta_s_star)
    assert psi_at_sub <= best.psi_star + 1e-12


def test_scheme_throughput_probe_optimality():
    lay = standard_layout(2)
    params = ChannelParams(alpha=4.0, Ps=10.0, Pm=10.0, lambda_e=0.01)
    rng = np.random.default_rng(20)
    for scheme in SchemeId:
        design = scheme_throughput(scheme, lay, params, 0.3)
        probes = rng.uniform(0.0, 8.0 * (1.0 + design.beta_s_star), 100)
        values = secrecy_throughput_curve(scheme, lay, params,
                                          design.beta_e_circ, probes)
        assert (values <= design.psi_star * (1 + 1e-10) + 1e-15).all()


def test_scheme_throughput_unimodal_rate_curves():
    # psi as a function of the secrecy rate rises then falls exactly once
    lay = standard_layout(2)
    params = ChannelParams(alpha=4.0, Ps=10.0, Pm=10.0, lambda_e=0.01)
    rs = np.linspace(0.05, 8.0, 160)
    beta = 2.0 ** rs - 1.0
    for eps in (0.1, 0.3):
        for scheme in SchemeId:
            bec = invert_sop(scheme, lay, params, eps)
            psi = secrecy_throughput_curve(scheme, lay, params, bec, beta)
            diffs = np.diff(psi)
            signs = np.sign(diffs[np.abs(diffs) > 1e-13])
            flips = int(np.sum(signs[:-1] != signs[1:]))
            assert flips <= 1
            assert psi.max() > 0.0


def test_larger_epsilon_curve_dominates_pointwise():
    # relaxing the secrecy-outage cap buys less redundancy, hence more
    # throughput at every secrecy rate
    lay = standard_layout(2)
    params = ChannelParams(alpha=4.0, Ps=10.0, Pm=10.0, lambda_e=0.01)
    beta = 2.0 ** np.linspace(0.25, 8.0, 32) - 1.0
    for scheme in SchemeId:
        low = secrecy_throughput_curve(
            scheme, lay, params, invert_sop(scheme, lay, params, 0.1), beta)
        high = secrecy_throughput_curve(
            scheme, lay, params, invert_sop(scheme, lay, params, 0.3), beta)
        assert (high >= low - 1e-12).all()


def test_scheme_throughput_beta_monotone_in_epsilon():
    lay = standard_layout(2)
    params = ChannelParams(alpha=4.0, Ps=10.0, Pm=10.0, lambda_e=0.01)
    for scheme in SchemeId:
        stars = [scheme_throughput(scheme, lay, params, e).beta_s_star
                 for e in (0.1, 0.2, 0.3)]
        assert stars[0] <= stars[1] <= stars[2]


def test_scheme_throughput_psi_monotone_in_power():
    lay = standard_layout(3)
    for scheme in SchemeId:
        psis = [scheme_throughput(scheme, lay,
                                  standard_params(Ps_dBw=p, Pm_dBw=40.0,
                                                  lambda_e=0.01),
                                  0.3).psi_star
                for p in (0.0, 10.0, 20.0, 30.0, 40.0)]
        assert all(a <= b + 1e-9 for a, b in zip(psis, psis[1:]))


def test_scheme_throughput_dbf_dominates_at_reference_point():
    lay = standard_layout(2)
    params = ChannelParams(alpha=4.0, Ps=10.0, Pm=10.0, lambda_e=0.01)
    designs = {s: scheme_throughput(s, lay, params, 0.3) for s in SchemeId}
    assert designs[SchemeId.DBF].psi_star > designs[SchemeId.FOT].psi_star
    assert designs[SchemeId.DBF].psi_star > designs[SchemeId.BSR].psi_star


def test_rate_design_properties():
    lay = standard_layout(2)
    params = standard_params()
    design = scheme_throughput(SchemeId.FOT, lay, params, 0.3)
    assert rate_codeword(design) == pytest.approx(
        design.rate_secrecy + rate_redundancy(design))
    assert beta_t_star(design) == pytest.approx(
        design.beta_e_circ + (1 + design.beta_e_circ) * design.beta_s_star)
    assert design.epsilon == 0.3


def test_invert_sop_meets_tolerance_across_geometry_and_power(monkeypatch):
    # every disc-quadrature form, certified at the root by the program's
    # own SOP, within a handful of evaluations: the root reports the SOP
    # of the kernel evaluation that accepted it, value and flag, and
    # evaluates nothing more
    calls = []
    real = outage.BreachKernel.integral

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(outage.BreachKernel, "integral", counted)
    for K in (1, 3, 8):
        lay = standard_layout(K)
        for alpha in (3.0, 4.0, 5.0):
            for ps in (-30.0, 0.0, 30.0):
                params = standard_params(Ps_dBw=ps, Pm_dBw=0.0, alpha=alpha)
                for scheme in SchemeId:
                    calls.clear()
                    root = invert_sop(scheme, lay, params, 0.2,
                                      bsr_exact=True)
                    assert len(calls) == root.evals
                    achieved = sop(scheme, lay, params, root, bsr_exact=True)
                    assert abs(achieved.value - 0.2) <= SOP_INVERSION_TOL
                    assert root.residual == abs(achieved.value - 0.2)
                    assert root.cert_flag == achieved.flag
                    assert 1 <= root.evals <= 9


def test_invert_sop_raises_when_max_iter_exhausted(monkeypatch):
    # the evaluation budget is the module constant outage.SOP_MAX_EVALS
    lay = standard_layout(3)
    params = standard_params()
    assert invert_sop(SchemeId.DBF, lay, params, 0.2).evals > 1
    monkeypatch.setattr(outage, "SOP_MAX_EVALS", 1)
    with pytest.raises(RuntimeError, match="did not converge in 1 "):
        invert_sop(SchemeId.DBF, lay, params, 0.2)


def test_opt_bs_fot_unbounded_bracket_raises(monkeypatch):
    # with zero decay the success probability never falls, so the
    # derivative of the throughput never turns negative
    flat = rates.SuccessLaw(1.0, lambda b: (1.0, 0.0))
    monkeypatch.setitem(rates._LAWS, SchemeId.FOT, lambda *args: flat)
    with pytest.raises(RuntimeError):
        opt_bs_fot(standard_layout(2), standard_params(), 0.5)


def test_rate_design_evaluates_each_point_once(monkeypatch):
    # the maximizer reads the success and its slope from one law call, and
    # psi* from the law it maximized: every callable of each law records
    # its b, and no design passes the same b twice
    seen = []

    def recorded(f):
        def call(b):
            seen.append(float(b))
            return f(b)
        return call

    def recording(make):
        def build(*args):
            law = make(*args)
            return type(law)(*(recorded(f) if callable(f) else f
                               for f in law))
        return build

    for scheme, make in list(rates._LAWS.items()):
        monkeypatch.setitem(rates._LAWS, scheme, recording(make))
    lay = standard_layout(3)
    for ps_dbw in (0.0, 30.0):
        params = standard_params(Ps_dBw=ps_dbw)
        for scheme in SchemeId:
            for beta_e_circ in (0.0, 0.5):
                seen.clear()
                design = getattr(rates, f"opt_bs_{scheme.value}")(
                    lay, params, beta_e_circ)
                assert design.beta_s_star in seen
                assert len(seen) == len(set(seen)) > 2


def test_scheme_throughput_records_inversion():
    lay = standard_layout(3)
    params = standard_params()
    for scheme, bsr_exact in ((SchemeId.DBF, False), (SchemeId.FOT, False),
                              (SchemeId.BSR, True)):
        design = scheme_throughput(scheme, lay, params, 0.2,
                                   bsr_exact=bsr_exact)
        assert type(design.beta_e_circ) is float
        assert 1 <= design.sop_evals <= 9
        assert design.sop_residual <= SOP_INVERSION_TOL
        assert design.sop_flag is None
    closed = scheme_throughput(SchemeId.BSR, lay, params, 0.2)
    assert closed.sop_evals == 1
    assert closed.beta_e_circ == bsr_approx_threshold(params, 0.2)
    none = scheme_throughput(SchemeId.FOT, lay,
                             standard_params(lambda_e=0.0), 0.2)
    assert none.sop_evals == 0 and none.sop_residual is None


@settings(max_examples=300, deadline=None)
@given(K=st.integers(1, 8), alpha=st.floats(2.0, 6.0, exclude_min=True),
       ps_dbw=st.floats(-40.0, 40.0), beta_e_circ=st.floats(0.0, 1e4),
       scheme=st.sampled_from(list(SchemeId)))
# relaying success 1 - (1 - t) with t about 1e-14 cancels to noise
@example(K=1, alpha=3.0, ps_dbw=12.0, beta_e_circ=503.0, scheme=SchemeId.BSR)
# log2(1 + b) rounds 1 + b: up to 2e-12 relative error at b = 4.5e-5
@example(K=6, alpha=3.0, ps_dbw=-35.0, beta_e_circ=0.0, scheme=SchemeId.FOT)
# beamforming next to the clamp: the COP at beta_s = 0 is 1 - 1e-12, where
# 1 - COP cancels unless the law is kept in log form
@example(K=3, alpha=4.0, ps_dbw=0.0, beta_e_circ=2.4328807979860723,
         scheme=SchemeId.DBF)
@example(K=2, alpha=4.0, ps_dbw=10.0, beta_e_circ=19.59591794224583,
         scheme=SchemeId.DBF)
# beta_s / beta_e_circ overflows from beta_s = 4e-5 on
@example(K=1, alpha=3.0, ps_dbw=0.0, beta_e_circ=2.2250738585e-313,
         scheme=SchemeId.DBF)
def test_rate_design_maximizes_its_curve(K, alpha, ps_dbw, beta_e_circ,
                                         scheme):
    # psi* is the largest value of the very curve it was designed on: on a
    # log grid of beta_s, and next to beta_s* itself
    lay = standard_layout(K)
    params = standard_params(Ps_dBw=ps_dbw, alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        design = getattr(rates, f"opt_bs_{scheme.value}")(lay, params,
                                                           beta_e_circ)
        b = design.beta_s_star
        probes = np.append(np.logspace(-12, 12, 400),
                           [b * (1.0 - 1e-6), b * (1.0 + 1e-6)])
        curve = secrecy_throughput_curve(scheme, lay, params, beta_e_circ,
                                         probes)
    assert (curve * (1.0 - 1e-12) <= design.psi_star).all()


def test_opt_bs_dbf_lands_on_the_stationary_point():
    # K = 3, lambda_e = 0.001, epsilon = 0.5, Pm = 10 dBw, Ps = 35 dBw
    lay = standard_layout(3)
    params = standard_params(Ps_dBw=35.0, Pm_dBw=10.0, lambda_e=0.001)
    beta_e = 0.153521291626
    c = 2.0 ** 3 / math.factorial(6) \
        * float(np.prod(lay.sbs_distances() ** 4.0)) / 10.0 ** 10.5

    def deriv(b):
        beta_t = beta_e + (1.0 + beta_e) * b
        return (1.0 - c * beta_t ** 3) / ((1.0 + b) * math.log(2.0)) \
            - 3.0 * c * beta_t ** 2 * (1.0 + beta_e) * math.log2(1.0 + b)

    lo, hi = 0.0, 1.0
    while deriv(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if deriv(mid) > 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    design = opt_bs_dbf(lay, params, beta_e)
    assert design.beta_s_star == pytest.approx(mid, rel=1e-11)


def test_dbf_asymptote_saturates_instead_of_overflowing():
    # (beta_t / Ps)^K overflows a float at -400 dBw for K = 8 and K = 12
    for K in (8, 12):
        lay = standard_layout(K)
        params = standard_params(Ps_dBw=-400.0)
        est = cop_dbf_asymptotic(lay, params, 1.0)
        assert est.value == 1.0 and est.flag == "clamped"
        beta_e = invert_sop(SchemeId.DBF, lay, params, 0.2)
        design = opt_bs_dbf(lay, params, beta_e)
        assert design.beta_s_star == design.psi_star == 0.0
        psi = secrecy_throughput_curve(SchemeId.DBF, lay, params, beta_e,
                                       np.array([0.0, 1e-45, 1.0]))
        assert (psi == 0.0).all()
