"""Deterministic evaluators for connection and secrecy outage probabilities.

Connection outage (COP): the user's channel capacity falls below the
codeword rate, so decoding fails. Secrecy outage (SOP): some eavesdropper's
capacity exceeds the rate redundancy, so perfect secrecy is compromised.
Each of the three delivery schemes gets its own COP and SOP evaluator;
closed forms are used where they exist, otherwise deterministic
quadrature (for the beamforming COP, a certified saddle-point Laplace
inversion) that makes every result reproducible.

Eavesdroppers form a Poisson field, so every SOP has the shape
1 - exp(-lambda_e * I) where I integrates the per-position breach
probability over the plane. The integrals are truncated at a radius beyond
which the integrand is below 1e-12 and evaluated on a tensorized
Gauss-Legendre grid, with one radial refinement to certify convergence.
The grid is evaluated in blocks of radial rows small enough that no
temporary reaches the allocator's mmap threshold (see BLOCK_POINTS).
Each scheme's per-position breach law is written once, as a BreachKernel
that also yields its analytic derivative in beta_e for the SOP inversion
in `rates`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import wofz

from .channel import ChannelParams, SchemeId, dist_pow_neg
from .layout import NetworkLayout

METHOD_EXACT = "analytic-exact"
METHOD_ASYMPTOTIC = "analytic-asymptotic"
METHOD_APPROX = "analytic-approx"
METHOD_MC = "monte-carlo"

# Beamforming COP inversion (see _amplitude_sum_cdf): even trapezoid node
# count and relative certification tolerance; saddle search grid, contour
# slope and cut; COP = 1 cut (exp(-38) < 2^-54); start of the series.
COP_NODES, COP_CERT_TOL = 64, 1e-6
SADDLE_GRID, BEND, TAIL_LOG_COP = 32, 0.35, 40.0
EXACT_LOG, SERIES_Z = 38.0, 40.0
# coefficients (-1)^m (2m+1)!/m! of the series, highest power first
_SERIES = [(-1) ** m * math.factorial(2 * m + 1) / math.factorial(m)
           for m in range(9, -1, -1)]
_SQRT_PI = math.sqrt(math.pi)
# Gauss-Legendre grid for the secrecy integrals.
RADIAL_NODES = 256
ANGULAR_NODES = 128
# The doubled grid of the certification pair, whose value every SOP reports.
FINE_NODES = (2 * RADIAL_NODES, ANGULAR_NODES)
# Breach laws run on blocks of at most BLOCK_POINTS grid points: each
# float64 temporary (64 KiB) stays below glibc's 128 KiB mmap threshold, so
# it is reused from the heap, not mapped and unmapped on every call. Blocks
# hold whole groups of BLOCK_ROW_GROUP radial rows, which OpenBLAS's gemv
# reduces together, so rows sum to the same bits as in one whole-grid
# product (unless one row is left over: numpy reduces it as a dot product).
BLOCK_POINTS = 8192
BLOCK_ROW_GROUP = 4
# The integrand is below exp(-TAIL_LOG) = 1e-12 beyond the cut radius.
TAIL_LOG = math.log(1e12)
QUAD_CERT_TOL = 1e-6


@dataclass(frozen=True)
class OutageEstimate:
    """A COP or SOP value together with how it was obtained.

    std_error is zero for deterministic methods. flag marks special
    conditions: "clamped" (asymptote exceeded 1 and was clipped),
    "divergent" (secrecy integral diverges, probability pinned at 1) or
    "quadrature-unconverged" (refining the grid moved the value by more
    than the certification tolerance).
    """

    value: float
    method: str
    std_error: float = 0.0
    flag: str | None = None

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"probability out of range: {self.value}")
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


# ---------------------------------------------------------------------------
# connection outage
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _log_rayleigh_laplace(z: np.ndarray) -> np.ndarray:
    """log E[exp(-z R)] for a unit-power Rayleigh R, elementwise, complex.

    Re z >= 0: 1 - (sqrt(pi)/2) z w(iz/2), or beyond |z| = SERIES_Z, where
    that cancels, the series sum_m 2 (-1)^m (2m+1)!/m! z^-(2m+2). Re z < 0:
    phi(-z) - sqrt(pi) z exp(z^2/4), the Gaussian factor taken out of the
    log; beyond SERIES_Z it is dropped (below e^-280 within pi/8 of the
    imaginary axis, where alone the contour reaches that far).
    """
    neg = z.real < 0.0
    zp = np.where(neg, -z, z)
    out = np.empty_like(zp)
    far = np.abs(zp) > SERIES_Z
    zn, zf = zp[~far], zp[far]
    out[~far] = np.log(1.0 - 0.5 * _SQRT_PI * zn * wofz(0.5j * zn))
    out[far] = math.log(2.0) - 2.0 * np.log(zf) \
        + np.log(np.polyval(_SERIES, (1.0 / zf) ** 2))
    gauss = neg & ~far
    zg = z[gauss]
    q = 0.25 * zg * zg
    p = np.maximum(q.real, 0.0)
    out[gauss] = p + np.log(np.exp(out[gauss] - p)
                            - _SQRT_PI * zg * np.exp(q - p))
    return out


def _amplitude_sum_cdf(a: np.ndarray, x: float,
                       nodes: int) -> tuple[float, float]:
    """P(S <= x), S = sum_k a_k R_k for unit-power Rayleigh R_k, and the
    relative nested-halving difference of the side that was integrated.

    Bromwich inversion of E[exp(-sS)]/s through the real saddle point
    gamma of h(g) = g x + log E[exp(-gS)] - log|g|, the minimum of h on a
    log grid over the bracket the tilted means imply: g > 0 gives the CDF,
    g < 0 (x above the mean) its complement. The contour s(t) = gamma +
    sigma (i sinh t - BEND (cosh t - 1)), sigma the saddle's width, bends
    left until exp(sx) has decayed by exp(-TAIL_LOG_COP).
    """
    mean = 0.5 * _SQRT_PI * float(a.sum())
    power = float(a @ a)
    if x > mean and (x - mean) ** 2 > EXACT_LOG * power:
        # R_k is a 1-Lipschitz function of a Gaussian pair of variance 1/2
        # each, so P(S > x) <= exp(-(x - mean)^2 / power) < 2^-54
        return 1.0, 0.0
    if x <= mean:  # the tilted mean of S lies in (0, 2K/g)
        sign, lo, hi = 1.0, 1.0 / x, (2 * len(a) + 1) / x
    else:  # it lies in [|g| power/2, |g| power/2 + mean]
        sign = -1.0
        lo = (x - mean + math.sqrt((x - mean) ** 2 + 2.0 * power)) / power
        hi = (x + math.sqrt(x * x + 2.0 * power)) / power
    u = np.linspace(math.log(lo) - 0.1, math.log(hi) + 0.1, SADDLE_GRID)
    g = sign * np.exp(u)
    h = g * x - u + _log_rayleigh_laplace(
        np.outer(g, a).astype(complex)).real.sum(axis=1)
    i = int(np.clip(np.argmin(h), 1, SADDLE_GRID - 2))
    curv = (h[i - 1] - 2.0 * h[i] + h[i + 1]) / (u[1] - u[0]) ** 2
    gamma = float(g[i])
    sigma = abs(gamma) / math.sqrt(max(curv, 1e-3))
    t = np.linspace(0.0, math.acosh(1.0 + TAIL_LOG_COP / (sigma * BEND * x)),
                    nodes + 1)
    s = gamma + sigma * (1j * np.sinh(t) - BEND * (np.cosh(t) - 1.0))
    ell = s * x + _log_rayleigh_laplace(np.outer(s, a)).sum(axis=1) \
        - np.log(sign * s) - h[i]
    f = (np.exp(ell) * (1j * np.cosh(t) - BEND * np.sinh(t))).imag
    f[[0, -1]] *= 0.5
    fine, coarse = float(f.sum()), 2.0 * float(f[::2].sum())
    side = math.exp(h[i]) * sigma * float(t[1] - t[0]) * fine / math.pi
    delta = abs(fine - coarse) / abs(fine) if fine != 0.0 else math.inf
    value = side if sign > 0.0 else 1.0 - side
    return min(max(value, 0.0), 1.0), delta


def cop_dbf_exact(layout: NetworkLayout, params: ChannelParams,
                  beta_t: float) -> OutageEstimate:
    """Connection outage of the distributed beamforming scheme.

    The decoding SNR is Ps S^2 with S = sum_k a_k R_k, K independent
    unit-power Rayleigh amplitudes weighted by a_k = r_k^(-alpha/2), so the
    COP is P(S <= x), x = sqrt(beta_t / Ps). K = 1 is the exponential tail
    1 - exp(-(beta_t/Ps) r^alpha). For K >= 2 the Laplace transform of S
    is inverted through its saddle point on COP_NODES trapezoid nodes (see
    _amplitude_sum_cdf): below the mean the CDF, above it the complement,
    each to relative accuracy. The value is exactly 1 where a sub-Gaussian
    bound puts the complement below 2^-54, and 0 where the CDF underflows.
    The sum on every other node certifies it: a relative difference above
    COP_CERT_TOL sets the flag "quadrature-unconverged".
    """
    if beta_t < 0.0:
        raise ValueError("beta_t must be nonnegative")
    c = beta_t / params.Ps
    if c == 0.0:
        return OutageEstimate(0.0, METHOD_EXACT)
    ra = layout.sbs_distances() ** params.alpha
    if layout.K == 1:
        return OutageEstimate(min(-math.expm1(-c * float(ra[0])), 1.0),
                              METHOD_EXACT)
    value, delta = _amplitude_sum_cdf(ra ** -0.5, math.sqrt(c), COP_NODES)
    flag = None if delta <= COP_CERT_TOL else "quadrature-unconverged"
    return OutageEstimate(value, METHOD_EXACT, flag=flag)


def dbf_asymptote(layout: NetworkLayout, params: ChannelParams,
                  x: float) -> float:
    """(2^K / (2K)!) (x/Ps)^K prod r_k^alpha, the unclamped high-power
    beamforming COP at beta_t = x; inf where (x/Ps)^K overflows."""
    K = layout.K
    try:
        power = (x / params.Ps) ** K
    except OverflowError:
        return math.inf
    return (2.0 ** K / math.factorial(2 * K)) * power \
        * float(np.prod(layout.sbs_distances() ** params.alpha))


def cop_dbf_asymptotic(layout: NetworkLayout, params: ChannelParams,
                       beta_t: float) -> OutageEstimate:
    """High-power beamforming COP: (2^K / (2K)!) (beta_t/Ps)^K prod r_k^alpha.

    Only an asymptote; at low power it can exceed 1 (or overflow) and is
    then clamped (and flagged) so that downstream rate optimizers always
    receive a valid probability.
    """
    if beta_t < 0.0:
        raise ValueError("beta_t must be nonnegative")
    value = dbf_asymptote(layout, params, beta_t)
    if value > 1.0:
        return OutageEstimate(1.0, METHOD_ASYMPTOTIC, flag="clamped")
    return OutageEstimate(value, METHOD_ASYMPTOTIC)


def cop_fot(layout: NetworkLayout, params: ChannelParams,
            beta_t: float) -> OutageEstimate:
    """Connection outage of the orthogonal-partition scheme.

    All K partitions must decode, each on 1/K of the band, giving the closed
    form 1 - exp(-(beta_t / (K Ps)) sum_k r_k^alpha).
    """
    if beta_t < 0.0:
        raise ValueError("beta_t must be nonnegative")
    ra_sum = float(np.sum(layout.sbs_distances() ** params.alpha))
    value = -math.expm1(-beta_t * ra_sum / (layout.K * params.Ps))
    return OutageEstimate(min(value, 1.0), METHOD_EXACT)


def cop_bsr(layout: NetworkLayout, params: ChannelParams,
            beta_t: float) -> OutageEstimate:
    """Connection outage of best-SBS relaying.

    The strongest of K independent branches must fail, giving
    prod_k (1 - exp(-beta_t r_k^alpha / Ps)). A branch whose exponent
    exceeds EXACT_LOG fails with probability 1 to double precision, so its
    exponent is capped there rather than left to overflow at tiny Ps.
    """
    if beta_t < 0.0:
        raise ValueError("beta_t must be nonnegative")
    ra = layout.sbs_distances() ** params.alpha
    x = np.minimum(beta_t * ra, EXACT_LOG * params.Ps) / params.Ps
    value = float(np.prod(-np.expm1(-x)))
    return OutageEstimate(min(value, 1.0), METHOD_EXACT)


def cop(scheme: SchemeId, layout: NetworkLayout, params: ChannelParams,
        beta_t: float) -> OutageEstimate:
    """Scheme-dispatched exact COP."""
    if scheme is SchemeId.DBF:
        return cop_dbf_exact(layout, params, beta_t)
    if scheme is SchemeId.FOT:
        return cop_fot(layout, params, beta_t)
    if scheme is SchemeId.BSR:
        return cop_bsr(layout, params, beta_t)
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# secrecy outage
# ---------------------------------------------------------------------------

def trunc_radius(d_max: float, power: float, beta_e: float, alpha: float) -> float:
    """Radius beyond which a breach-probability integrand is below 1e-12.

    d_max is the largest transmitter-to-origin distance and `power` the
    largest effective transmit power feeding the integrand (K*Ps for the
    schemes where K SBSs radiate, max(Pm, Ps) for the two relaying hops).
    """
    return d_max + (TAIL_LOG * power / beta_e) ** (1.0 / alpha)


@dataclass(frozen=True)
class BreachKernel:
    """Per-position breach probability of one scheme on one geometry.

    law(px, py, beta_e, deriv) returns the probability that an eavesdropper
    at (px, py) breaches secrecy, and its analytic derivative in beta_e on
    the same points when deriv is set (None otherwise). d_max and power set
    the truncation radius (see trunc_radius).
    """

    law: Callable
    d_max: float
    power: float
    alpha: float

    def integral(self, beta_e: float, nodes: tuple[int, int],
                 deriv: bool = False):
        """Breach integral over the truncated plane, and its derivative in
        beta_e when deriv is set, on an (n_radial, n_angular) Gauss-Legendre
        grid. The derivative ignores the radius' own dependence on beta_e,
        where the integrand is below 1e-12.

        law runs on blocks of consecutive radial rows (see BLOCK_POINTS),
        each reduced to its angular sums before the next, so that its
        temporaries stay small; the radial sum is taken once at the end."""
        rmax = trunc_radius(self.d_max, self.power, beta_e, self.alpha)
        n_radial, n_angular = nodes
        xr, wr = _leggauss(n_radial)
        xt, wt = _leggauss(n_angular)
        r = 0.5 * rmax * (xr + 1.0)
        theta = math.pi * (xt + 1.0)
        cos_t, sin_t, wt_pi = np.cos(theta), np.sin(theta), math.pi * wt
        rows = max(1, BLOCK_POINTS // n_angular // BLOCK_ROW_GROUP) \
            * BLOCK_ROW_GROUP
        per_radius = np.empty((2 if deriv else 1, n_radial))
        for lo in range(0, n_radial, rows):
            rb = r[lo:lo + rows, None]
            values = self.law(rb * cos_t, rb * sin_t, beta_e, deriv)
            for sums, v in zip(per_radius, values):
                sums[lo:lo + rows] = v @ wt_pi
        out = [float(np.sum(sums * r * wr)) * 0.5 * rmax
               for sums in per_radius]
        return tuple(out) if deriv else out[0]


def _dbf_breach(layout: NetworkLayout, params: ChannelParams) -> BreachKernel:
    sx, sy = layout.sbs_xy()

    def law(px, py, beta_e, deriv):
        s = np.zeros_like(px)
        for k in range(layout.K):
            d_sq = (px - sx[k]) ** 2 + (py - sy[k]) ** 2
            s += dist_pow_neg(d_sq, params.alpha)
        g = np.exp(-(beta_e / params.Ps) / s)
        return g, (-g / (params.Ps * s) if deriv else None)

    return BreachKernel(law, float(layout.sbs_distances().max()),
                        layout.K * params.Ps, params.alpha)


def _fot_breach(layout: NetworkLayout, params: ChannelParams) -> BreachKernel:
    sx, sy = layout.sbs_xy()
    kps = layout.K * params.Ps

    def law(px, py, beta_e, deriv):
        # the survival product is differentiated factor by factor
        scale = beta_e / kps
        survive = np.ones_like(px)
        d_survive = np.zeros_like(px) if deriv else None
        for k in range(layout.K):
            d_sq = (px - sx[k]) ** 2 + (py - sy[k]) ** 2
            w = dist_pow_neg(d_sq, params.alpha)
            term = -np.expm1(-scale / w)
            if deriv:
                d_survive = d_survive * term \
                    + survive * (np.exp(-scale / w) / (kps * w))
            survive *= term
        return 1.0 - survive, (-d_survive if deriv else None)

    return BreachKernel(law, float(layout.sbs_distances().max()), kps,
                        params.alpha)


def _bsr_breach(layout: NetworkLayout, params: ChannelParams) -> BreachKernel:
    mbs, serving = layout.mbs, layout.sbs[0]
    mx, my, kx, ky = mbs.x, mbs.y, serving.x, serving.y

    def hop(d_sq, power, beta_e):
        w = dist_pow_neg(d_sq, params.alpha)
        p = np.exp(-(beta_e / power) / w)
        return p, w

    def law(px, py, beta_e, deriv):
        hop2, w2 = hop((px - kx) ** 2 + (py - ky) ** 2, params.Ps, beta_e)
        if params.Pm > 0.0:
            hop1, w1 = hop((px - mx) ** 2 + (py - my) ** 2, params.Pm, beta_e)
        else:
            hop1 = np.zeros_like(px)
        g = hop1 + hop2 - hop1 * hop2
        if not deriv:
            return g, None
        dg = -hop2 / (params.Ps * w2) * (1.0 - hop1)
        if params.Pm > 0.0:
            dg -= hop1 / (params.Pm * w1) * (1.0 - hop2)
        return g, dg

    return BreachKernel(law, max(mbs.r, serving.r), max(params.Pm, params.Ps),
                        params.alpha)


_BREACH = {SchemeId.DBF: _dbf_breach, SchemeId.FOT: _fot_breach,
           SchemeId.BSR: _bsr_breach}


def breach_kernel(scheme: SchemeId, layout: NetworkLayout,
                  params: ChannelParams) -> BreachKernel:
    """Breach kernel behind the scheme's quadrature SOP (for the relaying
    scheme, the shared-eavesdropper form of sop_bsr_exact)."""
    return _BREACH[scheme](layout, params)


def _sop_guards(params: ChannelParams, beta_e: float,
                method: str) -> OutageEstimate | None:
    if beta_e < 0.0:
        raise ValueError("beta_e must be nonnegative")
    if params.lambda_e == 0.0:
        # no eavesdroppers: nothing can breach, whatever beta_e
        return OutageEstimate(0.0, method)
    if beta_e == 0.0:
        # zero redundancy: any eavesdropper anywhere breaches, the secrecy
        # integral diverges and the outage probability is pinned at 1
        return OutageEstimate(1.0, method, flag="divergent")
    return None


def _pgfl_sop(kernel: BreachKernel, params: ChannelParams, beta_e: float,
              nodes: tuple[int, int]) -> OutageEstimate:
    """SOP = 1 - exp(-lambda_e * I), I certified by radial doubling: the
    value is the one on the doubled grid (FINE_NODES by default)."""
    guard = _sop_guards(params, beta_e, METHOD_EXACT)
    if guard is not None:
        return guard
    n_r, n_t = nodes
    lam = params.lambda_e
    coarse = -math.expm1(-lam * kernel.integral(beta_e, (n_r, n_t)))
    fine = -math.expm1(-lam * kernel.integral(beta_e, (2 * n_r, n_t)))
    flag = None if abs(fine - coarse) < QUAD_CERT_TOL else "quadrature-unconverged"
    return OutageEstimate(min(max(fine, 0.0), 1.0), METHOD_EXACT, flag=flag)


def sop_dbf(layout: NetworkLayout, params: ChannelParams, beta_e: float,
            nodes: tuple[int, int] = (RADIAL_NODES, ANGULAR_NODES)) -> OutageEstimate:
    """Secrecy outage of distributed beamforming.

    An eavesdropper at position e sees an exponential SNR of mean
    Ps * sum_k r_{k,e}^(-alpha) (the beam phases are mismatched there), so
    its breach probability is exp(-(beta_e/Ps) / sum_k r_{k,e}^(-alpha)).
    """
    return _pgfl_sop(_dbf_breach(layout, params), params, beta_e, nodes)


def sop_fot(layout: NetworkLayout, params: ChannelParams, beta_e: float,
            nodes: tuple[int, int] = (RADIAL_NODES, ANGULAR_NODES)) -> OutageEstimate:
    """Secrecy outage of the orthogonal-partition scheme.

    Intercepting any single partition breaks secrecy, so the per-position
    breach probability is 1 - prod_k (1 - exp(-beta_e r_{k,e}^alpha / (K Ps))).
    """
    return _pgfl_sop(_fot_breach(layout, params), params, beta_e, nodes)


def sop_bsr_exact(layout: NetworkLayout, params: ChannelParams, beta_e: float,
                  nodes: tuple[int, int] = (RADIAL_NODES, ANGULAR_NODES)) -> OutageEstimate:
    """Secrecy outage of best-SBS relaying, same eavesdroppers on both hops.

    A position breaches if it decodes either the MBS backhaul hop or the
    serving-SBS hop. The serving SBS is fixed to the nearest one here: the
    true selection depends on fading, but the integrand only uses the SBS
    position and the nearest SBS is the modal choice. The Monte Carlo module
    keeps the fading-dependent selection so the gap can be measured.
    """
    return _pgfl_sop(_bsr_breach(layout, params), params, beta_e, nodes)


def sop_bsr_approx(params: ChannelParams, beta_e: float) -> OutageEstimate:
    """Layout-free secrecy outage of best-SBS relaying.

    Treating the eavesdropper positions in the two hops as independent
    Poisson fields (they move between hops) gives the closed form
    1 - exp(-pi lambda_e Gamma(1 + 2/alpha) (Pm^(2/alpha) + Ps^(2/alpha))
    beta_e^(-2/alpha)).
    """
    guard = _sop_guards(params, beta_e, METHOD_APPROX)
    if guard is not None:
        return guard
    exponent = bsr_approx_coeff(params) * beta_e ** (-2.0 / params.alpha)
    return OutageEstimate(-math.expm1(-exponent), METHOD_APPROX)


def bsr_approx_coeff(params: ChannelParams) -> float:
    """pi lambda_e Gamma(1 + 2/alpha) (Pm^(2/alpha) + Ps^(2/alpha)), the
    exponent of the layout-free relaying SOP at beta_e = 1."""
    a = params.alpha
    return math.pi * params.lambda_e * math.gamma(1.0 + 2.0 / a) \
        * (params.Pm ** (2.0 / a) + params.Ps ** (2.0 / a))


def sop(scheme: SchemeId, layout: NetworkLayout, params: ChannelParams,
        beta_e: float, bsr_exact: bool = True) -> OutageEstimate:
    """Scheme-dispatched SOP; bsr_exact selects the shared-eavesdropper form."""
    if scheme is SchemeId.DBF:
        return sop_dbf(layout, params, beta_e)
    if scheme is SchemeId.FOT:
        return sop_fot(layout, params, beta_e)
    if scheme is SchemeId.BSR:
        if bsr_exact:
            return sop_bsr_exact(layout, params, beta_e)
        return sop_bsr_approx(params, beta_e)
    raise ValueError(f"unknown scheme {scheme!r}")
