"""Deterministic evaluators for connection and secrecy outage probabilities.

Connection outage (COP): the user's channel capacity falls below the
codeword rate, so decoding fails. Secrecy outage (SOP): some eavesdropper's
capacity exceeds the rate redundancy, so perfect secrecy is compromised.
Closed forms are used where they exist, otherwise deterministic quadrature
(for the beamforming COP, a certified saddle-point Laplace inversion whose
Faddeeva function is Weideman's N = 40 rational approximation, SIAM J.
Numer. Anal. 31(5), 1994), so every result is reproducible from numpy alone.

The schemes differ only in which independent Rayleigh links carry a file,
and each is described once, as data: `breach_links` lists the links an
eavesdropper can intercept, `decoding_branches` those the user decodes on.
One union over links gives every breach law (a BreachKernel), one
product over branches the partition and relaying COPs. An exponent that
would leave the float range is floored (EXP_FLOOR) or capped (EXACT_LOG).

Eavesdroppers form a Poisson field, so every SOP has the shape
1 - exp(-lambda_e * I) where I integrates the breach law over the plane.
Each breach law splits into one term per transmitter, on that
transmitter's breach disc (a partition of unity, Bruno & Kunyansky, J.
Comput. Phys. 169, 2001), integrated on a polar grid centred there:
Clenshaw-Curtis in radius, the periodic trapezoid rule in angle (Trefethen
& Weideman, SIAM Rev. 56(3), 2014), both nested, so every other node gives
the coarser grid that certifies the value. Where every live transmitter
shares one exact x or y coordinate (every line layout), the reflection
across that line maps each grid onto itself: one angle of each mirror pair
is read. BreachKernel.integral plans once per far-field power how law reads
the grid its centres share: one row per offset centre - transmitter where
these are as few as a line's, else each centre its own points.
The beamforming and partition SOPs share a pass in shared_pass.

Each SOP's inverse lives beside it: BreachKernel.root, Newton steps in
log(beta_e) by bracketed_root (the one bracketed solver, also the rate
maximizer's), returning the certified SOP that accepted the root, and the
algebraic bsr_approx_threshold, for the rate design in `rates`.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .channel import ChannelParams, SchemeId, dist_pow_neg
from .layout import NetworkLayout

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
# Weideman's rational approximation of the Faddeeva function w(z), Im z >= 0
# (SIAM J. Numer. Anal. 31(5), 1994): a polynomial in (L + iz)/(L - iz)
# whose WEIDEMAN_N coefficients, highest power first, come from one FFT.
# _WEIDEMAN_BLOCKS[l, b] is that of x^l in block b of _ESTRIN, highest
# first: one matmul evaluates every block (Estrin's scheme).
WEIDEMAN_N, _ESTRIN = 40, 8
_WL = math.sqrt(WEIDEMAN_N / math.sqrt(2.0))
_WT = _WL * np.tan(np.arange(1 - 2 * WEIDEMAN_N, 2 * WEIDEMAN_N)
                   * (math.pi / (4 * WEIDEMAN_N)))
_WEIDEMAN = np.fft.fft(np.fft.fftshift(np.append(
    0.0, np.exp(-_WT * _WT) * (_WL ** 2 + _WT * _WT)))).real[WEIDEMAN_N:0:-1] \
    / (4 * WEIDEMAN_N)
_WEIDEMAN_BLOCKS = _WEIDEMAN.reshape(-1, _ESTRIN)[:, ::-1].T.astype(complex)
# Each transmitter's grid: SOP_NODES = (Clenshaw-Curtis intervals in
# radius, angles), read when called. One law call takes the rings of every
# centre of a far-field power that fit in PASS_POINTS points: each float64
# temporary stays at or below 64 KiB, an offset table (2K - 1 rows at most)
# below glibc's 128 KiB mmap threshold, above which calls fault pages anew.
SOP_NODES = (80, 64)
PASS_POINTS = 8192
# The integrand is below exp(-TAIL_LOG) = 1e-12 beyond the cut radius.
TAIL_LOG = math.log(1e12)
QUAD_CERT_TOL = 1e-6
SOP_INVERSION_TOL = 1e-8
SOP_MAX_EVALS = 200  # calls of side one bracketed_root may spend (see it)
# Breach laws take exp(max(arg, EXP_FLOOR)): numpy's vector exp runs about
# 150 times slower where its result is subnormal, 7 times where it is 0
# (arguments below about -708), and e^-700 adds nothing to an integral.
EXP_FLOOR = -700.0


@dataclass(frozen=True)
class OutageEstimate:
    """A COP or SOP value, its standard error and its flag.

    std_error is zero for deterministic methods. flag marks special
    conditions: "clamped" (asymptote exceeded 1 and was clipped),
    "divergent" (secrecy integral diverges, probability pinned at 1) or
    "quadrature-unconverged" (the error estimate from the coarser nested
    grids exceeds the certification tolerance).
    """

    value: float
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

def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-iz), Im z >= 0, z 1-D, to about 2e-14
    relative: Horner's rule in x^_ESTRIN over Weideman's blocks."""
    d = 1.0 / (_WL - 1j * z)
    x = (_WL + 1j * z) * d
    poly, step = 0.0, x ** _ESTRIN
    for block in (np.power.outer(x, np.arange(_ESTRIN)) @ _WEIDEMAN_BLOCKS).T:
        poly = poly * step + block
    return (2.0 * poly * d + 1.0 / _SQRT_PI) * d


def _log_rayleigh_laplace(z: np.ndarray) -> np.ndarray:
    """log E[exp(-z R)] for a unit-power Rayleigh R, elementwise, complex.

    Re z >= 0: 1 - (sqrt(pi)/2) z w(iz/2), w by Weideman's N = 40 rational
    approximation (iz/2 lies in its half plane), or beyond |z| = SERIES_Z,
    where that cancels, the series sum_m 2 (-1)^m (2m+1)!/m! z^-(2m+2).
    Re z < 0: phi(-z) - sqrt(pi) z exp(z^2/4), the Gaussian factor taken out
    of the log; beyond SERIES_Z it is dropped (below e^-280 within pi/8 of
    the imaginary axis, where alone the contour reaches that far).
    """
    neg = z.real < 0.0
    zp = np.where(neg, -z, z)
    out = np.empty_like(zp)
    far = np.abs(zp) > SERIES_Z
    zn, zf = zp[~far], zp[far]
    out[~far] = np.log(1.0 - 0.5 * _SQRT_PI * zn * _faddeeva(0.5j * zn))
    out[far] = math.log(2.0) - 2.0 * np.log(zf) \
        + np.log(np.polyval(_SERIES, (1.0 / zf) ** 2))
    gauss = neg & ~far
    zg = z[gauss]
    q = 0.25 * zg * zg
    p = np.maximum(q.real, 0.0)
    out[gauss] = p + np.log(np.exp(out[gauss] - p)
                            - _SQRT_PI * zg * np.exp(q - p))
    return out


def _amplitude_sum_cdf(a: np.ndarray, x: float) -> tuple[float, float]:
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
                    COP_NODES + 1)
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
        return OutageEstimate(0.0)
    ra = layout.sbs_distances() ** params.alpha
    if layout.K == 1:
        return OutageEstimate(min(-math.expm1(-c * float(ra[0])), 1.0))
    value, delta = _amplitude_sum_cdf(ra ** -0.5, math.sqrt(c))
    flag = None if delta <= COP_CERT_TOL else "quadrature-unconverged"
    return OutageEstimate(value, flag=flag)


def dbf_log_asymptote(layout: NetworkLayout, params: ChannelParams,
                      x: float) -> float:
    """log of (2^K / (2K)!) (x/Ps)^K prod r_k^alpha, the unclamped
    high-power beamforming COP at beta_t = x, summed from the logs of its
    factors: finite where the COP over- or underflows (-inf at x = 0)."""
    if x == 0.0:
        return -math.inf
    K = layout.K
    return K * (math.log(2.0) + math.log(x) - math.log(params.Ps)) \
        - math.log(math.factorial(2 * K)) \
        + params.alpha * float(np.sum(np.log(layout.sbs_distances())))


def cop_dbf_asymptotic(layout: NetworkLayout, params: ChannelParams,
                       beta_t: float) -> OutageEstimate:
    """High-power beamforming COP: (2^K / (2K)!) (beta_t/Ps)^K prod r_k^alpha.

    Only an asymptote; at low power it can exceed 1 (or overflow) and is
    then clamped (and flagged) so that downstream rate optimizers always
    receive a valid probability.
    """
    if beta_t < 0.0:
        raise ValueError("beta_t must be nonnegative")
    log_value = dbf_log_asymptote(layout, params, beta_t)
    if log_value > 0.0:
        return OutageEstimate(1.0, flag="clamped")
    return OutageEstimate(math.exp(log_value))


def decoding_branches(scheme: SchemeId, layout: NetworkLayout,
                      params: ChannelParams) -> tuple[np.ndarray, float]:
    """The user's independent decoding branches of the partition or
    relaying scheme, as (r^alpha of each branch, branch power): the file
    arrives if some branch decodes. All K partitions must decode, each on
    1/K of the band, so they form one branch (sum_k r_k^alpha, K Ps);
    relaying decodes through any SBS, K branches (r_k^alpha, Ps).
    Beamforming adds its amplitudes, which is no union (cop_dbf_exact)."""
    ra = layout.sbs_distances() ** params.alpha
    return {SchemeId.FOT: (np.sum(ra, keepdims=True), layout.K * params.Ps),
            SchemeId.BSR: (ra, params.Ps)}[scheme]


def _branch_cop(scheme: SchemeId, layout: NetworkLayout,
                params: ChannelParams, beta_t: float) -> OutageEstimate:
    """prod_k (1 - exp(-beta_t ra_k / P)) over the decoding branches. A
    branch whose exponent exceeds EXACT_LOG fails with probability 1 to
    double precision, so its exponent is capped there rather than left to
    overflow at tiny power."""
    if beta_t < 0.0:
        raise ValueError("beta_t must be nonnegative")
    ra, power = decoding_branches(scheme, layout, params)
    with np.errstate(over="ignore"):  # an overflowed product is capped
        x = np.minimum(beta_t * ra, EXACT_LOG * power) / power
    return OutageEstimate(min(float(np.prod(-np.expm1(-x))), 1.0))


def cop_fot(layout: NetworkLayout, params: ChannelParams,
            beta_t: float) -> OutageEstimate:
    """Connection outage of the orthogonal-partition scheme.

    All K partitions must decode, each on 1/K of the band, giving the closed
    form 1 - exp(-(beta_t / (K Ps)) sum_k r_k^alpha).
    """
    return _branch_cop(SchemeId.FOT, layout, params, beta_t)


def cop_bsr(layout: NetworkLayout, params: ChannelParams,
            beta_t: float) -> OutageEstimate:
    """Connection outage of best-SBS relaying.

    The strongest of K independent branches must fail, giving
    prod_k (1 - exp(-beta_t r_k^alpha / Ps)).
    """
    return _branch_cop(SchemeId.BSR, layout, params, beta_t)


# ---------------------------------------------------------------------------
# secrecy outage
# ---------------------------------------------------------------------------

def trunc_radius(d_max: float, power: float, beta_e: float, alpha: float) -> float:
    """Radius beyond which a breach-probability integrand is below 1e-12.

    d_max is the largest transmitter-to-origin distance and `power` the
    largest far-field power of one breach link, its power times its number
    of transmitters (K*Ps for beamforming and for each partition,
    max(Pm, Ps) for the two relaying hops).
    """
    return d_max + (TAIL_LOG * power / beta_e) ** (1.0 / alpha)


def breach_links(scheme: SchemeId, layout: NetworkLayout,
                 params: ChannelParams) -> list[tuple[float, tuple]]:
    """The independent Rayleigh links an eavesdropper can intercept a file
    of the scheme on, as (power, transmitters): a link's SNR at a position
    is exponential with mean power * sum over its transmitters of d^-alpha.
    Beamforming is one link from all SBSs (the beam phases are mismatched
    off the user); each of the K partitions is its own link at K Ps;
    relaying is the serving (nearest) SBS's hop plus the MBS backhaul;
    largest far-field power (power times transmitters) first."""
    links = {SchemeId.DBF: [(params.Ps, layout.sbs)],
             SchemeId.FOT: [(layout.K * params.Ps, (s,)) for s in layout.sbs],
             SchemeId.BSR: [(params.Ps, layout.sbs[:1]),
                            (params.Pm, (layout.mbs,))]}[scheme]
    return sorted(links, key=lambda link: -link[0] * len(link[1]))


@lru_cache(maxsize=8)
def _nested_rules(n: int, n_angles: int, mirror: float | None):
    """Clenshaw-Curtis weights, times the Jacobian s of r dr, of the interior
    nodes s of [0, 1] for n intervals, the grid (s cos, s sin) and the
    trapezoid weights of the angles read, for all and for every other
    interval and angle (zero off that level's nodes). A mirror line (in
    turns) along angle i maps angle i + t onto i - t, so only angles i to
    i + n_angles/2 are read, each with its pair's weight."""
    s = 0.5 * (1.0 - np.cos(math.pi * np.arange(1, n) / n))
    radial, angular = np.zeros((2, n - 1)), np.zeros((n_angles, 2))
    for level in range(2):
        m, step = n >> level, 1 << level
        k = np.arange(1, m // 2 + 1)
        b = np.where(k == m // 2, 1.0, 2.0) / (4.0 * k * k - 1.0)
        j = np.arange(1, m)
        radial[level, j * step - 1] = \
            (1.0 - b @ np.cos(2.0 * math.pi * np.outer(k, j) / m)) / m
        angular[::step, level] = 2.0 * math.pi * step / n_angles
    kept = np.arange(n_angles)
    if mirror is not None and float(mirror * n_angles).is_integer():
        kept = (int(mirror * n_angles) + kept[:n_angles // 2 + 1]) % n_angles
        angular = 2.0 * angular[kept]
        angular[[0, -1]] *= 0.5  # angles i and i + n_angles/2: no pair
    theta = 2.0 * math.pi * kept / n_angles
    return radial * s, np.outer(s, np.cos(theta)), \
        np.outer(s, np.sin(theta)), angular


def bracketed_root(side, x: float, width: float = 0.0,
                   top: float = math.inf) -> float:
    """The last x tried in a search from x for the root of a falling f:
    side(x) is None where x is accepted, else (f(x), step), step a Newton
    step (nan where it fails) or None, for the secant step of the last two
    points. A step strictly inside the bracket of the points tried is
    taken, up to 16 long while an end is open, once closed if the bracket
    halved in two steps (Brent 1973, ch. 4); else an open end moves out by
    1, 2, 4, ... (up to top; side raises there if it is below) and a closed
    one is bisected, to width or one ulp of x. Calls: log2(D + 1) + 1 moves
    out pass a root D away, then a bracket W wide halves in every 3, ending
    in 3 log2(W / w) + 3, w the width or half an ulp of the root: 170 at
    the maximizer's width 1e-13. Newton steps while an end is open have no
    progress guard: SOP_MAX_EVALS (200) alone bounds them (RuntimeError)."""
    lo, hi, reach, last, widths = -math.inf, math.inf, 1.0, None, (math.inf,) * 2
    for _ in range(SOP_MAX_EVALS):
        if (report := side(x)) is None:
            return x
        f, step = report
        lo, hi = (x, hi) if f > 0.0 else (lo, x)  # f(lo) > 0 >= f(hi)
        if hi - lo <= max(width, math.ulp(x)):  # ulp: no float inside
            return x
        halved = math.inf > hi - lo <= 0.5 * widths[0]  # closed, halving
        if step is None:  # the secant step, in a closed, halving bracket
            step = x - f * (x - last[0]) / (f - last[1]) \
                if halved and f != last[1] else math.nan
        last, widths = (x, f), (widths[1], hi - lo)  # the last two widths
        if lo < step < min(hi, top) and (halved or hi - lo == math.inf
                                         and abs(step - x) <= 16.0):
            x = step
        elif math.isinf(lo) or math.isinf(hi):
            x = hi - reach if math.isinf(lo) else min(lo + reach, top)
            reach *= 2.0
        else:
            x = 0.5 * (lo + hi)
    raise RuntimeError(f"did not converge in {SOP_MAX_EVALS} evaluations")


def _floored(x: np.ndarray, deriv: bool):
    """exp(max(x, EXP_FLOOR)) in x's place and, if deriv, its log(beta_e)-
    slope x e^x, 0 where the floor binds (else None): a breach factor."""
    slope = (x.copy() if x.min() > EXP_FLOOR else np.where(
        x > EXP_FLOOR, x, 0.0)) if deriv else None
    np.exp(np.fmax(x, EXP_FLOOR, out=x), out=x)
    return x, slope if slope is None else np.multiply(slope, x, out=slope)


@dataclass(frozen=True)
class BreachKernel:
    """Per-position breach probability over one scheme's breach links.

    law(px, py, beta_e, deriv) returns the probability that an eavesdropper
    at (px, py) decodes some link, and its derivative in log(beta_e) on the
    same points when deriv is set (None otherwise). Link k breaches with
    p_k = exp(max(a_k, EXP_FLOOR)), a_k = -(beta_e / P_k) / W_k and W_k the
    sum of d^-alpha over its transmitters, with slope dp_k (_floored); a_k
    may overflow to -inf, which the floor takes. The union is u <- u +
    p_k (1 - u), whose derivative follows du <- du (1 - p_k) + dp_k (1 -
    u). A silent link (relaying at Pm = 0) is never evaluated.

    law(..., centres) has on slice j the term of centres[j] = (k, i),
    transmitter i of live link k, for centres of one far-field power n P
    (power times transmitters): the union's increment over the links of
    that far-field power, times the share q / sum q over their
    transmitters, q = exp(max(-(beta_e / (n P)) d^alpha, EXP_FLOOR)) (p_k
    itself where n = 1). The terms sum to the law, each on its own breach
    disc; their slopes leave out the shares'. Where the centres c share 1-D
    px, py (a grid g) and the keys (F, c - t), F t's far-field power, are
    fewer than c's plus t's (a line's), the sorted keys are the rows of one
    table, read as views where a step's rows run up by one; else each c
    reads its own points, c + g or slice j of px, py, and each t a table
    keyed (F, -t), of d^-alpha, q and (for a link of t alone) its slope:
    _plan, once per far-field power in integral (law's plan=). mirror: the
    angle in turns (0 or 1/4) of a line through every live transmitter.

    law(..., centres, *shared) and integral(beta_e, deriv, *shared) return
    one result per kernel, this one's first, each with its own bits, for
    kernels on this one's live transmitters, far-field powers and alpha:
    one transmitter loop reads each table row for all of them.
    """

    links: tuple[tuple[float, tuple[complex, ...]], ...]
    alpha: float
    mirror: float | None = None

    def _plan(self, centres: tuple, flat: bool, *shared: BreachKernel):
        """law's reads, on 1-D points (flat) or not: per live t up to the
        centres' group, in link order, ((k, i, P, n, t) of each kernel, t in
        link k of n, of power P; its new table's keys; its rows; its slot),
        the group's first, link sizes, the c of c + g, the centres' axis."""
        far = [power * len(tx) for power, tx in self.links]
        group = far[centres[0][0]] if centres else math.nan
        steps = [step for step in zip(*([(k, i, power, len(tx), t) for k, (
            power, tx) in enumerate(kernel.links) if power > 0.0 for i, t in
            enumerate(tx)] for kernel in (self, *shared)), strict=True)
            if not far[step[0][0]] < group]
        xy = [self.links[k][1][i] for k, i in centres]  # the centres c
        rows = [[(far[s[0][0]], (o := c - s[0][4]).real, o.imag) for c in (
            *xy, 0j)] for s in steps]  # each step's key per c, then its own
        keys = sorted({key for row in rows for key in row[:-1]})
        if flat and 0 < len(keys) < len(xy) + len(steps):  # one table
            tables = [np.array(keys).T[:, :, None]] + [None] * (len(steps) - 1)
            where = {key: r for r, key in enumerate(keys)}  # each key's row
            at = [[where[key] for key in row[:-1]] for row in rows]
            at, outer = [a[0] if len(a) == 1 else slice(a[0], a[-1] + 1) if a
                         == [*range(a[0], a[-1] + 1)] else a for a in at], ()
        else:  # a table per step
            tables, at = [row[-1] for row in rows], [...] * len(steps)
            outer = (np.real(xy), np.imag(xy)) if flat and xy else ()
        slots = {c: j for j, c in enumerate(centres)}
        return [*zip(steps, tables, at, [slots.get(s[0][:2]) for s in steps])
                ], len([s for s in steps if far[s[0][0]] != group]), {
            t[3] for step in steps for t in step}, outer, len(xy) * flat

    def law(self, px: np.ndarray, py: np.ndarray, beta_e: float, deriv: bool,
            centres: tuple = (), *shared: BreachKernel, plan=None):
        steps, first, sizes, outer, lead = plan or self._plan(
            centres, px.ndim == 1, *shared)
        shape = (lead, *px.shape) if lead else px.shape  # of the terms
        if outer:  # each c reads c + g
            px, py = np.add.outer(outer[0], px), np.add.outer(outer[1], py)
        pick = start = total = None  # own q; unions before the group; sum of q
        acc, w = ([None] * len(steps[0][0]) for _ in range(2))  # (u, du), W
        for s, (step, table, at, slot) in enumerate(steps):
            if table is not None:  # of every key, or of this step's own
                f, ox, oy = table
                d = dist_pow_neg((px + ox) ** 2 + (py + oy) ** 2, self.alpha)
                # -inf or nan in places (see integral); d serves sums W
                q = np.divide(-beta_e / f, d, out=d if sizes == {1} else None)
                q, slope = _floored(q, deriv and 1 in sizes)
            if s == first:  # acc's arrays stay
                start = [union or (None, None) for union in acc]
            for j, (_, i, power, n, _) in enumerate(step):
                if n == 1:  # a transmitter alone: its link's p_k is q
                    p, dp = q[at], slope[at] if deriv else None
                else:  # W summed in layout order
                    w[j] = d[at] if i == 0 else np.add(
                        w[j], d[at], out=w[j] if i > 1 else None)
                    if i + 1 < n:
                        continue
                    p, dp = _floored(-(beta_e / power) / w[j], deriv)
                if acc[j] is not None:  # the union with the links before
                    v = 1.0 - acc[j][0]
                    if deriv:  # du (1 - p) + dp (1 - u), summed in place
                        x = (1.0 - p) * acc[j][1]
                        dp = np.add(v * dp, x, out=x)
                    p = np.add(np.multiply(v, p, out=v), acc[j][0], out=v)
                acc[j] = p, dp
            if start is not None:  # summed in place once not a table's view
                qa = q[at].reshape(shape)
                total = qa if total is None else np.add(
                    total, qa, out=total if total.base is None else None)
                if slot is not None:  # its own q; pick made late (heap order)
                    pick = np.empty(shape) if pick is None else pick
                    pick[slot] = qa[slot]
        if first < len(steps):  # each centre's q over the sum of q: 1 alone
            share = None if first == len(steps) - 1 else pick / total
            d = q = slope = w = p = dp = total = None  # free the tables
            acc = [[x if x is None else (x if share is None else x * share)
                    .reshape(shape) for x in (u if s is None else u - s,
                                              du if ds is None else du - ds)]
                   for (u, du), (s, ds) in zip(acc, start)]  # row j: centre j
        return acc if shared else acc[0]

    def integral(self, beta_e: float, deriv: bool = False,
                 *shared: BreachKernel):
        """Breach integral on the two levels of _nested_rules, finest first,
        and its log(beta_e)-derivative when deriv is set (ignoring the radii's
        dependence on beta_e): the sum of the live transmitters' terms, each on
        a polar grid to the cut radius of its link's far-field power, in law
        calls on one plan on the rings of the grid its centres share that fit
        in PASS_POINTS points for all. -inf exponents, or inf/inf = nan where
        beta_e/P overflows (a disc below 1e-120 across), reach the floor."""
        radial, unit_x, unit_y, angular = _nested_rules(*SOP_NODES,
                                                        self.mirror)
        centres = [(power * len(tx), (k, i)) for k, (power, tx) in enumerate(
            self.links) if power > 0.0 for i in range(len(tx))]
        out = np.zeros((1 + len(shared), 2 if deriv else 1, 2))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for far, group in groupby(centres, lambda centre: centre[0]):
                _, part = zip(*group)
                rmax = trunc_radius(0.0, far, beta_e, self.alpha)
                rings = max(1, PASS_POINTS // (len(part) * len(angular)))
                plan = self._plan(part, True, *shared)
                for j in range(0, len(unit_x), rings):
                    ring = slice(j, j + rings)
                    terms = self.law((rmax * unit_x[ring]).ravel(), (
                        rmax * unit_y[ring]).ravel(), beta_e, deriv, part,
                        *shared, plan=plan)
                    for sums, pair in zip(out, terms if shared else [terms]):
                        for level, v in zip(sums, pair):
                            level += rmax * rmax * np.einsum(
                                "lj,mjl->l", radial[:, ring],
                                v.reshape(len(v), -1, len(angular)) @ angular)
        levels = [(o[0], o[1]) if deriv else o[0] for o in out]
        return levels if shared else levels[0]

    def root(self, lambda_e: float, epsilon: float
             ) -> tuple[float, int, OutageEstimate]:
        """beta_e where the reported SOP 1 - exp(-lambda_e I) is epsilon to
        SOP_INVERSION_TOL, the kernel evaluations spent and that SOP
        (_reported_sop): bracketed_root in u = log(beta_e), Newton steps on
        log I, nearly linear in u; ArithmeticError where a beta_e repeats."""
        target = math.log(-math.log1p(-epsilon) / lambda_e)  # log I at root
        tried = {}  # beta_e: its reported SOP

        def side(u):
            if (beta := math.exp(u)) in tried:
                raise ArithmeticError(f"no float left to try beside {beta!r}")
            levels, slopes = self.integral(beta, deriv=True)
            tried[beta] = estimate = _reported_sop(lambda_e, levels)
            if abs(estimate.value - epsilon) <= SOP_INVERSION_TOL:
                return None
            integral, slope = float(levels[0]), float(slopes[0])
            newton = integral > 0.0 and slope < 0.0  # else no Newton step
            return estimate.value - epsilon, u - (math.log(integral) - target) \
                * integral / slope if newton else math.nan

        # from the root of one transmitter of the largest far-field power P
        # (the first link's), where I = pi Gamma(1 + 2/a) (P/beta_e)^(2/a)
        power, a = self.links[0][0] * len(self.links[0][1]), self.alpha
        beta = math.exp(bracketed_root(side, math.log(power) - 0.5 * a * (
            target - math.log(math.pi * math.gamma(1 + 2 / a)))))
        if abs(tried[beta].value - epsilon) > SOP_INVERSION_TOL:  # no float
            raise ArithmeticError(f"no float left to try beside {beta!r}")
        return beta, len(tried), tried[beta]


def breach_kernel(scheme: SchemeId, layout: NetworkLayout,
                  params: ChannelParams) -> BreachKernel:
    """Breach kernel behind the scheme's quadrature SOP (for the relaying
    scheme, the shared-eavesdropper form of sop_bsr_exact). Its mirror: 0
    where every live transmitter has the same y exactly (one included),
    else 1/4 where every one has the same x, else None."""
    links = tuple(breach_links(scheme, layout, params))
    z = [t for power, tx in links if power > 0.0 for t in tx]
    mirror = 0.0 if len({t.imag for t in z}) == 1 \
        else 0.25 if len({t.real for t in z}) == 1 else None
    return BreachKernel(links, params.alpha, mirror)


def sop_guards(params: ChannelParams, beta_e: float) -> OutageEstimate | None:
    """The SOP where no integral is needed (else None), for every SOP form."""
    if beta_e < 0.0:
        raise ValueError("beta_e must be nonnegative")
    if params.lambda_e == 0.0:
        # no eavesdroppers: nothing can breach, whatever beta_e
        return OutageEstimate(0.0)
    if beta_e == 0.0:
        # zero redundancy: any eavesdropper anywhere breaches, the secrecy
        # integral diverges and the outage probability is pinned at 1
        return OutageEstimate(1.0, flag="divergent")
    return None


def _reported_sop(lambda_e: float, levels: np.ndarray) -> OutageEstimate:
    """SOP = 1 - exp(-lambda_e I), I on the finest of the nested levels of
    BreachKernel.integral, clamped into [0, 1] and certified by the level
    of half the intervals and angles: a change above QUAD_CERT_TOL flags
    "quadrature-unconverged". The change is mostly the half level's own
    error, far above the finest level's; a feature that both levels miss
    goes unseen."""
    fine, half = -np.expm1(-lambda_e * levels)
    flag = None if abs(fine - half) <= QUAD_CERT_TOL \
        else "quadrature-unconverged"
    return OutageEstimate(min(max(float(fine), 0.0), 1.0), flag=flag)


# The kernels of shared_pass, far-field power K Ps on the same SBSs, and
# this thread's pass: ((layout, params, beta_e), levels not yet taken).
_PAIR, _shared = (SchemeId.DBF, SchemeId.FOT), threading.local()


@contextmanager
def shared_pass(layout: NetworkLayout, params: ChannelParams, beta_e: float):
    """Within it, on this thread, the first of sop_dbf and sop_fot at
    (layout, params, beta_e) integrates both kernels in one pass, the other
    takes its levels; each SOP keeps its bits. Nothing is kept on exit."""
    _shared.point = ((layout, params, beta_e), {})
    try:
        yield
    finally:
        del _shared.point


def _pgfl_sop(scheme: SchemeId, layout: NetworkLayout, params: ChannelParams,
              beta_e: float) -> OutageEstimate:
    """The scheme's quadrature SOP at beta_e (see _reported_sop)."""
    if (guard := sop_guards(params, beta_e)) is not None:
        return guard
    key, levels = getattr(_shared, "point", (None, None))
    if scheme not in _PAIR or key != (layout, params, beta_e):
        levels = {scheme: breach_kernel(scheme, layout, params).integral(beta_e)}
    elif scheme not in levels:
        dbf, fot = (breach_kernel(s, layout, params) for s in _PAIR)
        levels.update(zip(_PAIR, dbf.integral(beta_e, False, fot)))
    return _reported_sop(params.lambda_e, levels.pop(scheme))


def sop_dbf(layout: NetworkLayout, params: ChannelParams,
            beta_e: float) -> OutageEstimate:
    """Secrecy outage of distributed beamforming.

    An eavesdropper at position e sees an exponential SNR of mean
    Ps * sum_k r_{k,e}^(-alpha) (the beam phases are mismatched there), so
    its breach probability is exp(-(beta_e/Ps) / sum_k r_{k,e}^(-alpha)).
    """
    return _pgfl_sop(SchemeId.DBF, layout, params, beta_e)


def sop_fot(layout: NetworkLayout, params: ChannelParams,
            beta_e: float) -> OutageEstimate:
    """Secrecy outage of the orthogonal-partition scheme.

    Intercepting any single partition breaks secrecy, so the per-position
    breach probability is 1 - prod_k (1 - exp(-beta_e r_{k,e}^alpha / (K Ps))).
    """
    return _pgfl_sop(SchemeId.FOT, layout, params, beta_e)


def sop_bsr_exact(layout: NetworkLayout, params: ChannelParams,
                  beta_e: float) -> OutageEstimate:
    """Secrecy outage of best-SBS relaying, same eavesdroppers on both hops.

    A position breaches if it decodes either the MBS backhaul hop or the
    serving-SBS hop. The serving SBS is fixed to the nearest one here: the
    true selection depends on fading, but the integrand only uses the SBS
    position and the nearest SBS is the modal choice. It reads no other SBS,
    so Monte Carlo referees it on `NetworkLayout(layout.mbs, layout.sbs[:1])`
    (the same bits), where fading has no other SBS to serve from, and
    measures the gap on the full layout.
    """
    return _pgfl_sop(SchemeId.BSR, layout, params, beta_e)


def sop_bsr_approx(params: ChannelParams, beta_e: float) -> OutageEstimate:
    """Layout-free secrecy outage of best-SBS relaying.

    Treating the eavesdropper positions in the two hops as independent
    Poisson fields (they move between hops) gives the closed form
    1 - exp(-pi lambda_e Gamma(1 + 2/alpha) (Pm^(2/alpha) + Ps^(2/alpha))
    beta_e^(-2/alpha)).
    """
    if (guard := sop_guards(params, beta_e)) is not None:
        return guard
    exponent = bsr_approx_coeff(params) * beta_e ** (-2.0 / params.alpha)
    return OutageEstimate(-math.expm1(-exponent))


def bsr_approx_coeff(params: ChannelParams) -> float:
    """pi lambda_e Gamma(1 + 2/alpha) (Pm^(2/alpha) + Ps^(2/alpha)), the
    exponent of the layout-free relaying SOP at beta_e = 1."""
    a = params.alpha
    return math.pi * params.lambda_e * math.gamma(1.0 + 2.0 / a) \
        * (params.Pm ** (2.0 / a) + params.Ps ** (2.0 / a))


def bsr_approx_threshold(params: ChannelParams, epsilon: float) -> float:
    """Algebraic inverse of the layout-free relaying SOP at level epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return (bsr_approx_coeff(params) / -math.log1p(-epsilon)) \
        ** (params.alpha / 2.0)
