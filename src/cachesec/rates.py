"""Wiretap-code design for each delivery scheme.

Secrecy throughput is the secrecy rate times the decoding success
probability, subject to a cap epsilon on the secrecy outage probability.
The design runs in two stages: invert the SOP to the smallest redundancy
threshold beta_e that meets epsilon (redundancy only costs throughput, so
the constraint binds) by safeguarded Newton steps in log(beta_e) on the
scheme's breach kernel, certified once at the root, then maximize

    psi(beta_s) = eta * (1 - COP(beta_t)) * log2(1 + beta_s),

over the secrecy threshold beta_s, where beta_t = beta_e + (1+beta_e) beta_s
and eta is 1 except for the relaying scheme, whose two hops halve the
effective rate. Each scheme's 1 - COP and its beta_s-derivative are written
once, as a SuccessLaw that the throughput curve and the one maximizer share.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, SchemeId
from .layout import NetworkLayout
from . import outage

SOP_INVERSION_TOL = 1e-8
SOP_MAX_EVALS = 200  # kernel evaluations one inversion may spend

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class RateDesign:
    """An optimized wiretap code for one scheme.

    beta_e_circ is the smallest redundancy threshold meeting the SOP cap,
    beta_s_star the throughput-maximizing secrecy threshold, psi_star the
    resulting secrecy throughput in bits/s/Hz. sop_evals, sop_residual and
    sop_flag record how beta_e_circ was found (see SopRoot). Each rate is
    R = log2(1 + beta); the codeword rate is the secrecy rate plus the
    redundancy, so its threshold is beta_e + (1 + beta_e) beta_s.
    """

    scheme: SchemeId
    beta_e_circ: float
    beta_s_star: float
    psi_star: float
    epsilon: float | None = None
    sop_evals: int = 0
    sop_residual: float | None = None
    sop_flag: str | None = None

    @property
    def rate_secrecy(self) -> float:
        return math.log2(1.0 + self.beta_s_star)

    @property
    def rate_redundancy(self) -> float:
        return math.log2(1.0 + self.beta_e_circ)

    @property
    def rate_codeword(self) -> float:
        return self.rate_secrecy + self.rate_redundancy

    @property
    def beta_t_star(self) -> float:
        return self.beta_e_circ + (1.0 + self.beta_e_circ) * self.beta_s_star


class SopRoot(float):
    """A redundancy threshold beta_e_circ that also records its inversion.

    It is the float beta_e_circ, so every caller can use it as such. evals
    counts the SOP evaluations spent (fine-grid kernel evaluations plus the
    certification at the root), residual is |SOP(root) - epsilon| with the
    certified SOP (None when nothing was inverted), cert_flag the
    certification's OutageEstimate flag.
    """

    evals: int
    residual: float | None
    cert_flag: str | None

    def __new__(cls, value: float, evals: int = 0,
                residual: float | None = None, cert_flag: str | None = None):
        root = super().__new__(cls, value)
        root.evals = evals
        root.residual = residual
        root.cert_flag = cert_flag
        return root


def _newton_root(kernel: outage.BreachKernel, lambda_e: float,
                 epsilon: float) -> tuple[float, int]:
    """Root of log(lambda_e I(beta_e)) = log(-log(1 - epsilon)) in
    u = log(beta_e), and the number of kernel evaluations it took."""
    a = kernel.alpha
    target = math.log(-math.log1p(-epsilon) / lambda_e)  # log I at the root
    # start from the root of one transmitter of the kernel's largest
    # power, whose integral is pi Gamma(1 + 2/a) (power/beta_e)^(2/a)
    u = math.log(kernel.power) \
        - 0.5 * a * (target - math.log(math.pi * math.gamma(1.0 + 2.0 / a)))
    lo, hi = -math.inf, math.inf  # SOP(e^lo) > epsilon > SOP(e^hi)
    reach = 1.0
    for evals in range(1, SOP_MAX_EVALS + 1):
        beta = math.exp(u)
        integral, slope = kernel.integral(beta, outage.FINE_NODES, deriv=True)
        value = min(max(-math.expm1(-lambda_e * integral), 0.0), 1.0)
        if abs(value - epsilon) <= SOP_INVERSION_TOL:
            return beta, evals
        if value > epsilon:
            lo = u
        else:
            hi = u
        step = math.nan
        if integral > 0.0 and slope < 0.0:
            # f(u) = log I - target has f'(u) = beta I'(beta) / I
            step = u - (math.log(integral) - target) \
                * integral / (beta * slope)
        if lo < step < hi:
            u = step
        elif math.isinf(lo) or math.isinf(hi):
            # the bracket is still open: move further out on its open side
            u = hi - reach if math.isinf(lo) else lo + reach
            reach *= 2.0
        else:
            u = 0.5 * (lo + hi)
    raise RuntimeError(f"SOP inversion did not converge in {SOP_MAX_EVALS} "
                       f"evaluations (epsilon={epsilon})")


def invert_sop(scheme: SchemeId, layout: NetworkLayout, params: ChannelParams,
               epsilon: float, bsr_exact: bool = False) -> SopRoot:
    """Smallest redundancy threshold whose SOP equals epsilon.

    The SOP 1 - exp(-lambda_e I(beta_e)) falls strictly from 1 to 0, so the
    root solves log(lambda_e I) = log(-log(1 - epsilon)), an equation that
    is nearly linear in u = log(beta_e). Safeguarded Newton steps in u use
    the analytic derivative of the scheme's breach kernel on the fine grid
    of the SOP certification pair; a step leaving the bracket kept around
    the root is replaced by a bisection step in u (or, while one side of
    the bracket is still open, by a doubling move towards it). Iteration
    stops once |SOP - epsilon| <= SOP_INVERSION_TOL, and the root is then
    certified once through outage.sop. The relaying scheme inverts the
    layout-free form by default, whose inverse is algebraic (bsr_exact
    switches to the shared-field form).

    Raises RuntimeError when SOP_MAX_EVALS kernel evaluations do not
    converge.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if params.lambda_e == 0.0:
        return SopRoot(0.0)  # no eavesdroppers: no redundancy needed
    if scheme is SchemeId.BSR and not bsr_exact:
        beta_e, evals = bsr_approx_threshold(params, epsilon), 0
    else:
        kernel = outage.breach_kernel(scheme, layout, params)
        beta_e, evals = _newton_root(kernel, params.lambda_e, epsilon)
    cert = outage.sop(scheme, layout, params, beta_e, bsr_exact=bsr_exact)
    return SopRoot(beta_e, evals + 1, abs(cert.value - epsilon), cert.flag)


def bsr_approx_threshold(params: ChannelParams, epsilon: float) -> float:
    """Algebraic inverse of the layout-free relaying SOP at level epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return (outage.bsr_approx_coeff(params) / -math.log1p(-epsilon)) \
        ** (params.alpha / 2.0)


# ---------------------------------------------------------------------------
# throughput maximization
# ---------------------------------------------------------------------------

class SuccessLaw(NamedTuple):
    """success(b) = 1 - COP(beta_e + (1 + beta_e) b) of one scheme's code
    at a fixed redundancy beta_e, for secrecy thresholds b = beta_s (scalar
    or array); slope(b) is its derivative in b, eta the rate factor. The
    beamforming COP is the high-power form clamped into [0, 1], the other
    two are closed forms."""

    eta: float
    success: Callable
    slope: Callable


def _dbf_law(layout, params, beta_e_circ) -> SuccessLaw:
    # high-power COP scale (b + shift)^K clamped at 1 (the slope is not:
    # it stays negative past the clamp). An overflowed scale saturates the
    # COP at every rate; shift 1 then keeps inf * 0 = nan out of b = 0.
    K = layout.K
    scale = outage.dbf_asymptote(layout, params, 1.0 + beta_e_circ)
    shift = beta_e_circ / (1.0 + beta_e_circ) if scale < math.inf else 1.0
    return SuccessLaw(
        1.0, lambda b: 1.0 - np.minimum(scale * (b + shift) ** K, 1.0),
        lambda b: -scale * K * (b + shift) ** (K - 1))


def _fot_law(layout, params, beta_e_circ) -> SuccessLaw:
    # every partition decodes: gain * exp(-decay * b)
    ra_sum = float(np.sum(layout.sbs_distances() ** params.alpha))
    gain = math.exp(-beta_e_circ * ra_sum / (layout.K * params.Ps))
    decay = (1.0 + beta_e_circ) * ra_sum / (layout.K * params.Ps)

    def success(b):
        return gain * np.exp(-decay * b)

    return SuccessLaw(1.0, success, lambda b: -decay * success(b))


def _bsr_law(layout, params, beta_e_circ) -> SuccessLaw:
    # some branch decodes, branch k with t_k = gains_k exp(-decays_k b),
    # over two hops (eta 1/2); the union u + t_k (1 - u) keeps its relative
    # accuracy where 1 - prod_k (1 - t_k) cancels to noise
    ra = layout.sbs_distances() ** params.alpha
    gains = np.exp(-beta_e_circ * ra / params.Ps)
    decays = (1.0 + beta_e_circ) * ra / params.Ps

    def union(b, slope):
        u = du = 0.0
        for g, d in zip(gains, decays):
            t = g * np.exp(-d * b)
            du = du * (1.0 - t) - d * t * (1.0 - u)
            u = u + t * (1.0 - u)
        return du if slope else u

    return SuccessLaw(0.5, lambda b: union(b, False), lambda b: union(b, True))


_LAWS = {SchemeId.DBF: _dbf_law, SchemeId.FOT: _fot_law,
         SchemeId.BSR: _bsr_law}


def secrecy_throughput_curve(scheme: SchemeId, layout: NetworkLayout,
                             params: ChannelParams, beta_e_circ: float,
                             beta_s):
    """Throughput at secrecy threshold(s) beta_s for a fixed redundancy:
    the objective the rate design maximizes, on the same SuccessLaw.
    Accepts a scalar or an array of beta_s."""
    law = _LAWS[scheme](layout, params, beta_e_circ)
    b = np.asarray(beta_s, dtype=float)
    # log1p: log2(1 + b) keeps its relative accuracy at small b
    psi = law.eta * law.success(b) * np.log1p(b) / _LN2
    return float(psi) if np.ndim(beta_s) == 0 else psi


def _expand_bracket(deriv) -> float:
    """Double hi from 1 until the objective stops rising there, at most up
    to the largest float, 2^1023; a zero derivative also ends the search
    (past the peak an objective can underflow to a flat zero, which still
    brackets the maximum)."""
    hi = 1.0
    while hi < math.inf:
        if deriv(hi) <= 0.0:
            return hi
        hi *= 2.0
    raise RuntimeError("derivative never turned negative")


def _maximize(law: SuccessLaw) -> float:
    """beta_s* maximizing the law's throughput, 0 if decoding fails at
    b = 0. psi rises then falls: the one sign change of its derivative is
    bracketed by doubling and bisected down to adjacent floats."""
    if law.success(0.0) <= 0.0:
        return 0.0

    def deriv(b):  # d psi / d b times ln(2) / eta
        return law.slope(b) * math.log1p(b) + law.success(b) / (1.0 + b)

    lo, hi = 0.0, _expand_bracket(deriv)
    b = 0.5 * hi
    while lo < b < hi:  # at most about 2,100 halvings of [0, 2^1023]
        if deriv(b) > 0.0:
            lo = b
        else:
            hi = b
        b = 0.5 * lo + 0.5 * hi  # lo + hi can overflow near 2^1023
    return b


def _design(scheme, layout, params, beta_e_circ) -> RateDesign:
    b = _maximize(_LAWS[scheme](layout, params, beta_e_circ))
    return RateDesign(scheme, beta_e_circ, b, secrecy_throughput_curve(
        scheme, layout, params, beta_e_circ, b))


def opt_bs_dbf(layout: NetworkLayout, params: ChannelParams,
               beta_e_circ: float) -> RateDesign:
    """Optimal secrecy threshold for distributed beamforming."""
    return _design(SchemeId.DBF, layout, params, beta_e_circ)


def opt_bs_fot(layout: NetworkLayout, params: ChannelParams,
               beta_e_circ: float) -> RateDesign:
    """Optimal secrecy threshold for the orthogonal-partition scheme."""
    return _design(SchemeId.FOT, layout, params, beta_e_circ)


def opt_bs_bsr(layout: NetworkLayout, params: ChannelParams,
               beta_e_circ: float) -> RateDesign:
    """Optimal secrecy threshold for best-SBS relaying."""
    return _design(SchemeId.BSR, layout, params, beta_e_circ)


def scheme_throughput(scheme: SchemeId, layout: NetworkLayout,
                      params: ChannelParams, epsilon: float,
                      bsr_exact: bool = False) -> RateDesign:
    """Full two-stage design: SOP inversion (of the layout-free relaying
    SOP unless bsr_exact is set), then the scheme's opt_bs_*."""
    root = invert_sop(scheme, layout, params, epsilon, bsr_exact=bsr_exact)
    # by name, so that a wrapper installed on the module is the one called
    design = globals()[f"opt_bs_{scheme.value}"](layout, params, float(root))
    return replace(design, epsilon=epsilon, sop_evals=root.evals,
                   sop_residual=root.residual, sop_flag=root.cert_flag)


def per_scheme_psi(layout: NetworkLayout, params: ChannelParams,
                   epsilon: float,
                   bsr_exact: bool = False) -> dict[SchemeId, float]:
    """Optimal secrecy throughput psi* of every scheme, in SchemeId order."""
    return {scheme: scheme_throughput(scheme, layout, params, epsilon,
                                      bsr_exact=bsr_exact).psi_star
            for scheme in SchemeId}
