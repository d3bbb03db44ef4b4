"""Exact invariants of every analytic COP and SOP.

Every SNR in the model is a power times a fade times d^-alpha, and every
outage compares an SNR with a threshold, so the outage probabilities keep
their value under two changes of units:
- power scaling: Ps, Pm and the threshold all times c;
- uniform scaling: every distance times s, every power times s^alpha, and
  the eavesdropper density divided by s^2 (the same expected number of
  eavesdroppers on the scaled plane). The COPs do not take the density.
An evaluator that breaks either has a units error, whatever its accuracy.

Two more symmetries hold exactly: the beamforming and partition SOPs do
not depend on the order of the SBSs, and no SOP depends on where the user
is or on how the plane is turned, which the Monte Carlo estimates show in
distribution. Power scaling also moves the beamforming and partition SOP
roots by the factor c. One transmitter alone (K = 1, or relaying without
backhaul) has the closed-form SOP 1 - exp(-lambda_e pi Gamma(1 + 2/alpha)
(P / beta_e)^(2/alpha)) wherever it stands.
"""

import cmath
import math

import pytest

from cachesec import (ChannelParams, McSettings, NetworkLayout, SchemeId,
                      build_line_layout, cop_bsr, cop_dbf_asymptotic,
                      cop_dbf_exact, cop_fot, invert_sop, mc_sop,
                      sop_bsr_approx, sop_bsr_exact, sop_dbf, sop_fot)

REL_TOL = 1e-13
# (K, r_s): the standard geometry at K = 1, 3, 8 and the benchmark's wide
# K = 6 layout
GEOMETRIES = [(1, 0.5), (3, 0.5), (8, 0.5), (6, 2.0)]
ALPHAS = [2.5, 4.0, 5.0]
POWERS = [1e-3, 1.0, 1e3]

COPS = [cop_dbf_exact, cop_dbf_asymptotic, cop_fot, cop_bsr]
SOPS = [sop_dbf, sop_fot, sop_bsr_exact,
        lambda layout, params, beta_e: sop_bsr_approx(params, beta_e)]


def _cases():
    return [(geometry, alpha, ps) for geometry in GEOMETRIES
            for alpha in ALPHAS for ps in POWERS]


def _values(geometry, params, beta, scale=1.0):
    """Every COP at beta_t = beta and every SOP at beta_e = beta, with the
    geometry's distances times scale."""
    K, r_s = geometry
    layout = build_line_layout(scale * 1.0, scale * r_s, K, scale * 2.0)
    return [fn(layout, params, beta).value for fn in COPS + SOPS]


def _assert_same(got, want):
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == pytest.approx(b, rel=REL_TOL, abs=0.0), (COPS + SOPS)[i]


@pytest.mark.parametrize("geometry, alpha, ps", _cases())
def test_power_scaling(geometry, alpha, ps):
    params = ChannelParams(alpha=alpha, Ps=ps, Pm=1.0, lambda_e=0.1)
    base = _values(geometry, params, 1.0)
    for c in (4.0, 10.0):
        scaled = ChannelParams(alpha=alpha, Ps=c * ps, Pm=c * 1.0,
                               lambda_e=0.1)
        _assert_same(_values(geometry, scaled, c), base)


@pytest.mark.parametrize("geometry, alpha, ps", _cases())
def test_uniform_scaling(geometry, alpha, ps):
    params = ChannelParams(alpha=alpha, Ps=ps, Pm=1.0, lambda_e=0.1)
    gain = 2.0 ** alpha
    scaled = ChannelParams(alpha=alpha, Ps=gain * ps, Pm=gain * 1.0,
                           lambda_e=0.1 / 4.0)
    _assert_same(_values(geometry, scaled, 1.0, scale=2.0),
                 _values(geometry, params, 1.0))


def _circle(angles) -> NetworkLayout:
    """SBSs at distance 1 from the user, at the given angles, in order."""
    return NetworkLayout(mbs=cmath.rect(3.0, 0.5 * math.pi),
                         sbs=tuple(cmath.rect(1.0, a) for a in angles))


@pytest.mark.parametrize("K", [2, 3, 5])
@pytest.mark.parametrize("alpha", [2.5, 4.0])
@pytest.mark.parametrize("ps", POWERS)
def test_sbs_order(K, alpha, ps):
    # SBSs at one distance from the user may be listed in any order; the
    # relaying SOP is left out: it serves from the first SBS listed
    angles = [0.3 + 2.0 * math.pi * k / K for k in range(K)]
    params = ChannelParams(alpha=alpha, Ps=ps, Pm=1.0, lambda_e=0.1)
    orders = [angles[::-1], angles[1:] + angles[:1]]
    for fn in (sop_dbf, sop_fot):
        want = fn(_circle(angles), params, 1.0).value
        for order in orders:
            assert fn(_circle(order), params, 1.0).value \
                == pytest.approx(want, rel=REL_TOL, abs=0.0), fn


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_monte_carlo_sop_translation(scheme):
    # moving the user from 1 to 10 away from the nearest SBS moves no
    # transmitter relative to another; relaying serves from the nearest
    # SBS, as fading-chosen serving depends on where the user is
    params = ChannelParams(alpha=4.0, Ps=10.0, Pm=1.0, lambda_e=0.1)
    near, far = [
        mc_sop(scheme, build_line_layout(r, 0.5, 3, 2.0), params, 1.0,
               McSettings(trials=40_000, seed=seed, bsr_serving="nearest"))
        for r, seed in ((1.0, 1), (10.0, 2))]
    sigma = math.hypot(near.std_error, far.std_error)
    assert 0.0 < sigma
    assert abs(near.value - far.value) <= 4.0 * sigma


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("alpha", [2.5, 4.0])
def test_beamforming_and_partition_roots_scale_with_power(geometry, alpha):
    # power scaling makes both SOPs functions of beta_e/Ps, so the root at
    # c Ps is c times the root at Ps: a power sweep inverts them once
    K, r_s = geometry
    layout = build_line_layout(1.0, r_s, K, 2.0)

    def root(scheme, ps):
        params = ChannelParams(alpha=alpha, Ps=ps, Pm=1.0, lambda_e=0.1)
        return invert_sop(scheme, layout, params, 0.2)

    for scheme in (SchemeId.DBF, SchemeId.FOT):
        base = root(scheme, 1.0)
        for c in (1e-3, 10.0, 1e3):
            assert root(scheme, c) == pytest.approx(c * base, rel=1e-14,
                                                    abs=0.0), (scheme, c)


QUADRATURE_SOPS = [sop_dbf, sop_fot, sop_bsr_exact]


def _single_link_sop(alpha, power, lambda_e):
    return -math.expm1(-lambda_e * math.pi * math.gamma(1.0 + 2.0 / alpha)
                       * power ** (2.0 / alpha))


@pytest.mark.parametrize("alpha", [2.5, 4.0, 8.0])
@pytest.mark.parametrize("r_s1_o", [1.0, 5.0, 20.0, 100.0])
def test_single_link_closed_form(alpha, r_s1_o):
    # one SBS anywhere, relaying without backhaul: within 1e-9 relative,
    # or flagged, also where its breach disc is far smaller than r_s1_o
    layout = build_line_layout(r_s1_o, 0.5, 1, 2.0)
    for ps_dbw in range(-30, 31, 5):
        params = ChannelParams(alpha, 10.0 ** (ps_dbw / 10.0), 0.0, 1.0)
        exact = _single_link_sop(alpha, params.Ps, 1.0)
        for fn in QUADRATURE_SOPS:
            est = fn(layout, params, 1.0)
            assert est.flag is not None \
                or est.value == pytest.approx(exact, rel=1e-9, abs=0.0), fn


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_relaying_without_backhaul_is_its_single_link(geometry):
    # at Pm = 0 only the serving SBS's hop can be intercepted
    K, r_s = geometry
    layout = build_line_layout(1.0, r_s, K, 2.0)
    for alpha in ALPHAS:
        for ps in POWERS:
            params = ChannelParams(alpha=alpha, Ps=ps, Pm=0.0, lambda_e=0.1)
            assert sop_bsr_exact(layout, params, 1.0).value == pytest.approx(
                _single_link_sop(alpha, ps, 0.1), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("ps_dbw", [-10.0, 20.0])
def test_sop_translation(ps_dbw):
    # moving the user from 1 to 10 away from the nearest SBS moves no
    # transmitter relative to another
    params = ChannelParams(alpha=4.0, Ps=10.0 ** (ps_dbw / 10.0), Pm=100.0,
                           lambda_e=0.1)
    want = [fn(build_line_layout(1.0, 0.5, 3, 2.0), params, 1.0).value
            for fn in QUADRATURE_SOPS]
    for r_s1_o in (2.0, 3.7, 5.0, 10.0):
        layout = build_line_layout(r_s1_o, 0.5, 3, 2.0)
        _assert_same([fn(layout, params, 1.0).value for fn in QUADRATURE_SOPS],
                     want)


@pytest.mark.parametrize("ps_dbw", [-30.0, -10.0, 0.0, 30.0])
def test_sop_rotation(ps_dbw):
    # turning the spaced K = 6 layout by up to 2 pi/128 changes no SOP
    # beyond its quadrature error
    layout = build_line_layout(1.0, 2.0, 6, 2.0)
    params = ChannelParams(alpha=4.0, Ps=10.0 ** (ps_dbw / 10.0), Pm=1.0,
                           lambda_e=1.0)
    want = [fn(layout, params, 1.0).value for fn in QUADRATURE_SOPS]
    for step in range(1, 9):
        turn = step * 2.0 * math.pi / 128 / 8

        spin = cmath.rect(1.0, turn)
        rotated = NetworkLayout(mbs=layout.mbs * spin,
                                sbs=tuple(p * spin for p in layout.sbs))
        for fn, value in zip(QUADRATURE_SOPS, want):
            assert fn(rotated, params, 1.0).value == pytest.approx(
                value, rel=1e-10, abs=0.0), (fn, step)
