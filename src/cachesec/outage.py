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
& Weideman, SIAM Rev. 56(3), 2014). Both rules are nested, so every other
node of the same points gives the coarser grid that certifies the value.
Where every live transmitter shares one exact x or one exact y coordinate
(every line layout), the reflection across that line maps each grid onto
itself, and only one angle of each mirror pair is read.

Each SOP's inverse lives beside it: BreachKernel.root (Newton steps in
log(beta_e) on the kernel's derivative in log(beta_e)), which returns the
certified SOP of the evaluation that accepted its root, and the algebraic
bsr_approx_threshold, for the rate design in `rates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

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
# radius, angles), read when called. One law call takes the grids that fit
# in PASS_POINTS points: each float64 temporary, at most 64 KiB, stays below
# glibc's 128 KiB mmap threshold, above which every call faults it in anew.
SOP_NODES = (80, 64)
PASS_POINTS = 8192
# The integrand is below exp(-TAIL_LOG) = 1e-12 beyond the cut radius.
TAIL_LOG = math.log(1e12)
QUAD_CERT_TOL = 1e-6
SOP_INVERSION_TOL = 1e-8
SOP_MAX_EVALS = 200  # kernel evaluations one inversion may spend
# Breach laws take exp(max(arg, EXP_FLOOR)): numpy's vector exp runs about
# 150 times slower where its result is subnormal, 7 times where it is 0
# (arguments below about -708), and e^-700 adds nothing to an integral.
EXP_FLOOR = -700.0


@dataclass(frozen=True)
class OutageEstimate:
    """A COP or SOP value together with how it was obtained.

    std_error is zero for deterministic methods. flag marks special
    conditions: "clamped" (asymptote exceeded 1 and was clipped),
    "divergent" (secrecy integral diverges, probability pinned at 1) or
    "quadrature-unconverged" (the error estimate from the coarser nested
    grids exceeds the certification tolerance).
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
        return OutageEstimate(0.0, METHOD_EXACT)
    ra = layout.sbs_distances() ** params.alpha
    if layout.K == 1:
        return OutageEstimate(min(-math.expm1(-c * float(ra[0])), 1.0),
                              METHOD_EXACT)
    value, delta = _amplitude_sum_cdf(ra ** -0.5, math.sqrt(c))
    flag = None if delta <= COP_CERT_TOL else "quadrature-unconverged"
    return OutageEstimate(value, METHOD_EXACT, flag=flag)


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
        return OutageEstimate(1.0, METHOD_ASYMPTOTIC, flag="clamped")
    return OutageEstimate(math.exp(log_value), METHOD_ASYMPTOTIC)


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
    return OutageEstimate(min(float(np.prod(-np.expm1(-x))), 1.0),
                          METHOD_EXACT)


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


@dataclass(frozen=True)
class BreachKernel:
    """Per-position breach probability over one scheme's breach links.

    law(px, py, beta_e, deriv) returns the probability that an eavesdropper
    at (px, py) decodes some link, and its derivative in log(beta_e) on the
    same points when deriv is set (None otherwise). Link k breaches with
    p_k = exp(max(a_k, EXP_FLOOR)), a_k = -(beta_e / P_k) / W_k and W_k the
    sum of d^-alpha over its transmitters; a_k may overflow to -inf, which
    the floor takes. The slope is that of the floored law, dp_k = a_k p_k
    and 0 where the floor binds; the union is u <- u + p_k (1 - u), whose
    derivative follows du <- du (1 - p_k) + dp_k (1 - u). A silent link
    (relaying at Pm = 0) is never evaluated.

    law(..., centres) is, on slice j of px and py, the term of centres[j] =
    (k, i), transmitter i of live link k, for centres of one far-field
    power n P (power times transmitters): the union's increment over the
    links of that far-field power, times the share q / sum q over their
    transmitters, q = exp(max(-(beta_e / (n P)) d^alpha, EXP_FLOOR)) (p_k
    itself where n = 1). The terms sum to the law, each on its own breach
    disc; their slopes leave out the shares'. mirror is the angle in turns,
    0 or 1/4, of a line through every live transmitter, or None.
    """

    links: tuple[tuple[float, tuple[complex, ...]], ...]
    alpha: float
    mirror: float | None = None

    def law(self, px: np.ndarray, py: np.ndarray, beta_e: float, deriv: bool,
            centres: tuple[tuple[int, int], ...] = ()):
        far = [power * len(tx) for power, tx in self.links]
        group = far[centres[0][0]] if centres else math.nan
        slots = {centre: j for j, centre in enumerate(centres)}
        u, du, start, total = None, None, None, 0.0  # total: sum of q
        pick = np.empty_like(px) if centres else None  # each centre's q
        for k, (power, tx) in enumerate(self.links):
            if power == 0.0 or far[k] < group:
                break  # a silent link, or past the centre's group
            if far[k] == group and start is None:  # the union so far
                start = (0.0, 0.0) if u is None \
                    else (u.copy(), du.copy() if deriv else None)
            w = None
            for i, t in enumerate(tx):  # summed in layout order
                d = dist_pow_neg((px - t.real) ** 2 + (py - t.imag) ** 2, self.alpha)
                if start is not None and len(tx) > 1:
                    q = np.exp(np.fmax(-(beta_e / far[k]) / d, EXP_FLOOR))
                    total = total + q
                    if (k, i) in slots:
                        pick[slots[k, i]] = q[slots[k, i]]
                w = d if w is None else np.add(w, d, out=w)
            p = -(beta_e / power) / w  # may reach -inf or nan: see integral
            if deriv:  # the exponent's slope, 0 where the floor binds
                a = p.copy() if p.min() > EXP_FLOOR \
                    else np.where(p > EXP_FLOOR, p, 0.0)
            np.exp(np.fmax(p, EXP_FLOOR, out=p), out=p)
            if start is not None and len(tx) == 1:
                total = total + p
                if (k, 0) in slots:
                    pick[slots[k, 0]] = p[slots[k, 0]]
            dp = np.multiply(a, p, out=a) if deriv else None
            if u is None:  # the first link's values, updated in place below
                u, du = p, dp
                continue
            if deriv:
                du *= 1.0 - p
                du += dp * (1.0 - u)
            p *= 1.0 - u
            u += p
        if not centres:
            return u, du
        share = pick / total
        return (u - start[0]) * share, \
            (du - start[1]) * share if deriv else None

    def integral(self, beta_e: float, deriv: bool = False):
        """Breach integral on the two levels of _nested_rules, finest first,
        and its log(beta_e)-derivative when deriv is set (ignoring the radii's
        dependence on beta_e): the sum of the live transmitters' terms, each
        on a polar grid out to the cut radius of its link's far-field power,
        in passes of PASS_POINTS points. Exponents of -inf, or inf/inf = nan
        where beta_e/P overflows (a disc below 1e-120 across), pass silently
        to the floor."""
        radial, unit_x, unit_y, angular = _nested_rules(*SOP_NODES,
                                                        self.mirror)
        per_pass = max(1, PASS_POINTS // unit_x.size)
        centres = [(power * len(tx), (k, i), t.real, t.imag)
                   for k, (power, tx) in enumerate(self.links) if power > 0.0
                   for i, t in enumerate(tx)]
        out = np.zeros((2 if deriv else 1, 2))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for far, group in groupby(centres, lambda centre: centre[0]):
                rmax = trunc_radius(0.0, far, beta_e, self.alpha)
                grid_x, grid_y = rmax * unit_x, rmax * unit_y
                group = tuple(group)
                for j in range(0, len(group), per_pass):
                    _, part, x, y = zip(*group[j:j + per_pass])
                    terms = self.law(np.add.outer(x, grid_x),
                                     np.add.outer(y, grid_y), beta_e, deriv,
                                     part)
                    for sums, v in zip(out, terms):
                        sums += rmax * rmax * np.einsum(
                            "lj,jl->l", radial, v.sum(axis=0) @ angular)
        return (out[0], out[1]) if deriv else out[0]

    def root(self, lambda_e: float, epsilon: float
             ) -> tuple[float, int, OutageEstimate]:
        """beta_e where the reported SOP 1 - exp(-lambda_e I) is epsilon to
        SOP_INVERSION_TOL, the kernel evaluations spent and that SOP, as
        the quadrature SOPs report it (_reported_sop): Newton steps
        on log I = log(-log(1 - epsilon) / lambda_e), nearly linear in
        u = log(beta_e), bisecting in u (or doubling a move out while the
        bracket is open) where a step leaves the bracket. RuntimeError after
        SOP_MAX_EVALS evaluations; ArithmeticError where the next beta_e is
        a bracket end already tried (a root among the subnormals)."""
        a = self.alpha
        target = math.log(-math.log1p(-epsilon) / lambda_e)  # log I at root
        # start from the root of one transmitter at the largest far-field
        # power P (the first link's), whose integral is
        # pi Gamma(1 + 2/a) (P/beta_e)^(2/a)
        u = math.log(self.links[0][0] * len(self.links[0][1])) \
            - 0.5 * a * (target - math.log(math.pi * math.gamma(1 + 2 / a)))
        lo, hi = -math.inf, math.inf  # SOP(e^lo) > epsilon > SOP(e^hi)
        reach = 1.0
        for evals in range(1, SOP_MAX_EVALS + 1):
            beta = math.exp(u)
            if beta in (math.exp(lo), math.exp(hi)):  # tried: it cannot move
                raise ArithmeticError(f"no float left to try beside {beta!r}")
            levels, slopes = self.integral(beta, deriv=True)
            estimate = _reported_sop(lambda_e, levels)
            if abs(estimate.value - epsilon) <= SOP_INVERSION_TOL:
                return beta, evals, estimate
            integral, slope = float(levels[0]), float(slopes[0])
            if estimate.value > epsilon:
                lo = u
            else:
                hi = u
            step = math.nan
            if integral > 0.0 and slope < 0.0:
                step = u - (math.log(integral) - target) * integral / slope
            if lo < step < hi:
                u = step
            elif math.isinf(lo) or math.isinf(hi):
                u = hi - reach if math.isinf(lo) else lo + reach
                reach *= 2.0
            else:
                u = 0.5 * (lo + hi)
        raise RuntimeError(f"SOP inversion did not converge in "
                           f"{SOP_MAX_EVALS} evaluations (epsilon={epsilon})")


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


def sop_guards(params: ChannelParams, beta_e: float,
               method: str) -> OutageEstimate | None:
    """The SOP where no integral is needed (else None), for every method."""
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
    return OutageEstimate(min(max(float(fine), 0.0), 1.0), METHOD_EXACT,
                          flag=flag)


def _pgfl_sop(scheme: SchemeId, layout: NetworkLayout, params: ChannelParams,
              beta_e: float) -> OutageEstimate:
    """The scheme's quadrature SOP at beta_e (see _reported_sop)."""
    guard = sop_guards(params, beta_e, METHOD_EXACT)
    if guard is not None:
        return guard
    return _reported_sop(params.lambda_e, breach_kernel(
        scheme, layout, params).integral(beta_e))


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
    position and the nearest SBS is the modal choice. The Monte Carlo module
    keeps the fading-dependent selection so the gap can be measured.
    """
    return _pgfl_sop(SchemeId.BSR, layout, params, beta_e)


def sop_bsr_approx(params: ChannelParams, beta_e: float) -> OutageEstimate:
    """Layout-free secrecy outage of best-SBS relaying.

    Treating the eavesdropper positions in the two hops as independent
    Poisson fields (they move between hops) gives the closed form
    1 - exp(-pi lambda_e Gamma(1 + 2/alpha) (Pm^(2/alpha) + Ps^(2/alpha))
    beta_e^(-2/alpha)).
    """
    guard = sop_guards(params, beta_e, METHOD_APPROX)
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


def bsr_approx_threshold(params: ChannelParams, epsilon: float) -> float:
    """Algebraic inverse of the layout-free relaying SOP at level epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return (bsr_approx_coeff(params) / -math.log1p(-epsilon)) \
        ** (params.alpha / 2.0)
