"""The channel model's laws, checked on the kernels that implement them:
channel parameters, the Poisson eavesdropper field, the user's decoding
SNR of each scheme (through same-seed Monte Carlo) and the eavesdroppers'
breach test."""

import cmath
import math
import sys

import numpy as np
import pytest
from scipy import stats

from cachesec import (ChannelParams, McSettings, SchemeId, mc_cop, mc_sop,
                      opt_bs_dbf)
from cachesec.channel import dist_pow_neg
from cachesec.montecarlo import _disc_draws, _FieldTest, _xy
from helpers import standard_layout, standard_params


def test_channel_params_validation():
    ChannelParams(alpha=4.0, Ps=1.0, Pm=0.0, lambda_e=0.0)
    with pytest.raises(ValueError):
        ChannelParams(alpha=2.0, Ps=1.0, Pm=1.0, lambda_e=0.1)
    with pytest.raises(ValueError):
        ChannelParams(alpha=4.0, Ps=0.0, Pm=1.0, lambda_e=0.1)
    with pytest.raises(ValueError):
        ChannelParams(alpha=4.0, Ps=1.0, Pm=1.0, lambda_e=-0.1)
    with pytest.raises(ValueError, match="MBS power"):
        ChannelParams(alpha=4.0, Ps=1.0, Pm=-1.0, lambda_e=0.1)
    good = dict(alpha=4.0, Ps=1.0, Pm=1.0, lambda_e=0.1)
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                ChannelParams(**{**good, name: bad})


def test_channel_params_rejects_a_subnormal_sbs_power():
    # at a subnormal Ps the rate design loses its optimum: beamforming
    # returned beta_s* = psi* = 5e-324, partitions and relaying (0, 0)
    for ps in (1e-310, 5e-324):
        with pytest.raises(ValueError, match="Ps"):
            ChannelParams(alpha=4.0, Ps=ps, Pm=1.0, lambda_e=0.1)
    tiny = sys.float_info.min
    params = ChannelParams(alpha=4.0, Ps=tiny, Pm=1.0, lambda_e=0.0)
    design = opt_bs_dbf(standard_layout(1), params, 0.0)
    assert design.beta_s_star == pytest.approx(tiny / 2.0, rel=1e-12)


@pytest.mark.parametrize("alpha", [4.0, 6.0])
def test_dist_pow_neg_fast_paths_match_the_power(alpha):
    # the even exponents multiply out d^2 in place of a pow call: within an
    # ulp or two of d^-alpha over squared distances from 1e-100 to 1e100
    d_sq = np.geomspace(1e-100, 1e100, 2001)
    np.testing.assert_allclose(dist_pow_neg(d_sq, alpha),
                               d_sq ** (-0.5 * alpha), rtol=1e-15, atol=0)


def test_fading_gains_unit_mean():
    # every scheme's eavesdropper fades are squared Rayleigh magnitudes,
    # Exp(1), whose sample mean has stderr 1/sqrt(n)
    lay = standard_layout(4)
    params = standard_params()
    rng = np.random.default_rng(1)
    for scheme in SchemeId:
        test = _FieldTest(scheme, lay, params, 1.0)
        fades = test.draw_fades(rng, 250_000)
        assert fades.shape == (len(test.hops), 250_000)
        gains = fades.ravel()
        assert (gains >= 0.0).all()
        assert abs(gains.mean() - 1.0) <= 3.0 / math.sqrt(gains.size), scheme


def test_sample_ppp_zero_density_is_empty():
    rng = np.random.default_rng(2)
    counts, u, u_ang = _disc_draws(rng, 0.0, 50, 100.0)
    assert counts.shape == (50,) and not counts.any()
    assert u.size == 0 and u_ang.size == 0


def test_sample_ppp_poisson_mean():
    rng = np.random.default_rng(3)
    n_real = 20000
    counts, u, _ = _disc_draws(rng, 0.1, n_real, 10.0 ** 2)
    expected = 0.1 * math.pi * 10.0 ** 2
    stderr = math.sqrt(expected / n_real)
    assert abs(counts.mean() - expected) <= 3 * stderr
    assert u.size == counts.sum()


def test_sample_ppp_radial_uniformity():
    # uniform points on a disc of radius R have radial CDF r^2 / R^2, and
    # uniform angles
    rng = np.random.default_rng(4)
    _, u, u_ang = _disc_draws(rng, 1.0, 400, 25.0)
    px, py = _xy(u, u_ang, np.arange(u.size), 25.0)
    rad = np.hypot(px, py)
    assert rad.size > 20000
    assert (rad >= 0.0).all() and (rad < 5.0).all()
    assert stats.kstest(rad, lambda r: r * r / 25.0).pvalue > 0.01
    assert stats.kstest(u_ang, "uniform").pvalue > 0.01


def test_snr_user_k1_collapse():
    # with one SBS every scheme decodes on the same link Ps g r^-alpha, so
    # the same draws fail for all three (beamforming squares sqrt(g), which
    # could only flip a draw within an ulp of the threshold)
    lay = standard_layout(1)
    params = standard_params(Ps_dBw=0.0)
    settings = McSettings(trials=100_000, seed=5)
    values = {mc_cop(s, lay, params, 1.0, settings).value for s in SchemeId}
    assert len(values) == 1


def test_snr_user_matched_draw_dominance():
    # on every draw the beamformed SNR beats the best branch, and the best
    # branch beats the weakest partition SNR divided by K; with the same
    # seed mc_cop sees the same draws, so the failures are nested
    settings = McSettings(trials=100_000, seed=6)
    for K, ps_dbw, beta_t in ((2, 0.0, 1.0), (4, 5.0, 3.0), (4, -5.0, 0.2),
                              (8, 10.0, 10.0)):
        lay = standard_layout(K)
        params = standard_params(Ps_dBw=ps_dbw)
        dbf = mc_cop(SchemeId.DBF, lay, params, beta_t, settings).value
        bsr = mc_cop(SchemeId.BSR, lay, params, beta_t, settings).value
        fot = mc_cop(SchemeId.FOT, lay, params, K * beta_t, settings).value
        assert dbf <= bsr <= fot
        assert dbf < fot


def test_snr_user_unknown_scheme():
    # rejected by name when converted, before any draw
    lay = standard_layout(2)
    params = standard_params()
    for estimator in (mc_cop, mc_sop):
        with pytest.raises(ValueError, match="'broadcast' is not a valid"):
            estimator("broadcast", lay, params, 1.0,
                      McSettings(trials=10, seed=1))


def _breaches_at(test, eve: complex, fades, hops=None):
    """Breach test of fades.shape[1] eavesdroppers that all sit at eve, a
    point of the drawn disc, on the hops `hops` (default: all)."""
    m = fades.shape[1]
    if hops is None:
        hops = tuple(range(len(test.hops)))
    r_sq = test.radius * test.radius
    u = np.full(m, abs(eve) ** 2 / r_sq)
    assert u[0] < 1.0
    u_ang = np.full(m, cmath.phase(eve) / (2.0 * math.pi))
    idx = np.arange(m)
    px, py = _xy(u, u_ang, idx, r_sq)
    serving = np.zeros(m, dtype=int)
    return (test.breaches(px, py, idx, fades, serving, hops),
            test.may_breach(u, fades, hops))


def test_snr_eve_dbf_mean_matches_closed_form():
    # the beamforming phases are mismatched at an eavesdropper, so its SNR
    # is exponential with mean Ps sum_k d_k^-alpha and it breaches with
    # probability exp(-beta_e / mean)
    lay = standard_layout(3)
    params = ChannelParams(alpha=4.0, Ps=2.0, Pm=1.0, lambda_e=0.1)
    eve = cmath.rect(2.0, 1.0)
    sx, sy = lay.sbs_xy()
    d2 = (eve.real - sx) ** 2 + (eve.imag - sy) ** 2
    mean = params.Ps * float((d2 ** -2.0).sum())
    test = _FieldTest(SchemeId.DBF, lay, params, beta_e=mean)
    n = 10 ** 5
    fades = test.draw_fades(np.random.default_rng(6), n)
    hit, _ = _breaches_at(test, eve, fades)
    p = math.exp(-1.0)
    assert abs(hit.mean() - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_snr_eve_far_eavesdropper_vanishes():
    # at the rim of the drawn disc (the truncation radius, about 2.5e3 here)
    # a breach has probability about 1e-12
    lay = standard_layout(2)
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=1.0, lambda_e=0.1)
    rng = np.random.default_rng(7)
    for scheme in SchemeId:
        test = _FieldTest(scheme, lay, params, beta_e=1e-12)
        hit, keep = _breaches_at(test, cmath.rect(test.radius * 0.999, 0.5),
                                 test.draw_fades(rng, 100))
        assert not hit.any() and not keep.any(), scheme


def test_snr_eve_bsr_hop1_zero_power():
    lay = standard_layout(2)
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=0.0, lambda_e=0.1)
    test = _FieldTest(SchemeId.BSR, lay, params, beta_e=1e-6)
    fades = test.draw_fades(np.random.default_rng(8), 100)
    near_mbs = cmath.rect(abs(lay.mbs) + 0.5, cmath.phase(lay.mbs))
    assert test.hops[0][0] == params.Pm  # hop 0 is the MBS backhaul
    hit, keep = _breaches_at(test, near_mbs, fades, hops=(0,))
    assert not hit.any() and not keep.any()
