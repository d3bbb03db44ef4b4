import math

import numpy as np
import pytest

from cachesec import (ChannelParams, NetworkLayout, PolarPoint, SchemeId,
                      rates,
                      bsr_approx_threshold, invert_sop, opt_bs_bsr,
                      opt_bs_dbf, opt_bs_fot, scheme_throughput,
                      secrecy_throughput_curve, sop, sop_bsr_approx)
from cachesec.rates import SOP_INVERSION_TOL
from helpers import standard_layout, standard_params


def test_invert_sop_rejects_bad_epsilon():
    lay = standard_layout(2)
    params = standard_params()
    for eps in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            invert_sop(SchemeId.DBF, lay, params, eps)


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
                               bsr_exact_sop=True)
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
    lay = standard_layout(3)
    params = ChannelParams(alpha=4.0, Ps=1e-3, Pm=1.0, lambda_e=0.1)
    design = opt_bs_fot(lay, params, 5.0)
    assert 0.0 < design.beta_s_star < 1e-2


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
    sbs_far = lay.sbs + (PolarPoint(60.0, 0.3),)
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
    assert design.rate_codeword == pytest.approx(
        design.rate_secrecy + design.rate_redundancy)
    assert design.beta_t_star == pytest.approx(
        design.beta_e_circ + (1 + design.beta_e_circ) * design.beta_s_star)
    assert design.epsilon == 0.3


def test_invert_sop_meets_tolerance_across_geometry_and_power():
    # every disc-quadrature form, certified at the root by the program's
    # own SOP, within a handful of evaluations
    for K in (1, 3, 8):
        lay = standard_layout(K)
        for alpha in (3.0, 4.0, 5.0):
            for ps in (-30.0, 0.0, 30.0):
                params = standard_params(Ps_dBw=ps, Pm_dBw=0.0, alpha=alpha)
                for scheme in SchemeId:
                    root = invert_sop(scheme, lay, params, 0.2,
                                      bsr_exact=True)
                    achieved = sop(scheme, lay, params, root,
                                   bsr_exact=True).value
                    assert abs(achieved - 0.2) <= SOP_INVERSION_TOL
                    assert root.residual == abs(achieved - 0.2)
                    assert 2 <= root.evals <= 10


def test_invert_sop_raises_when_max_iter_exhausted():
    lay = standard_layout(3)
    params = standard_params()
    with pytest.raises(RuntimeError):
        invert_sop(SchemeId.DBF, lay, params, 0.2, max_iter=1)
    assert invert_sop(SchemeId.DBF, lay, params, 0.2).evals > 2


def test_opt_bs_fot_unbounded_bracket_raises(monkeypatch):
    # with zero decay the stationarity residual never turns positive
    monkeypatch.setattr(rates, "_fot_coeffs", lambda *args: (1.0, 0.0))
    with pytest.raises(RuntimeError):
        opt_bs_fot(standard_layout(2), standard_params(), 0.5)


def test_scheme_throughput_records_inversion():
    lay = standard_layout(3)
    params = standard_params()
    for scheme, bsr_exact in ((SchemeId.DBF, False), (SchemeId.FOT, False),
                              (SchemeId.BSR, True)):
        design = scheme_throughput(scheme, lay, params, 0.2,
                                   bsr_exact_sop=bsr_exact)
        assert type(design.beta_e_circ) is float
        assert 2 <= design.sop_evals <= 10
        assert design.sop_residual <= SOP_INVERSION_TOL
        assert design.sop_flag is None
    closed = scheme_throughput(SchemeId.BSR, lay, params, 0.2)
    assert closed.sop_evals == 1
    assert closed.beta_e_circ == bsr_approx_threshold(params, 0.2)
    none = scheme_throughput(SchemeId.FOT, lay,
                             standard_params(lambda_e=0.0), 0.2)
    assert none.sop_evals == 0 and none.sop_residual is None
