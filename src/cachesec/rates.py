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
effective rate. Each scheme's objective is unimodal, so a bracketed search
finds the unique stationary point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, SchemeId
from .layout import NetworkLayout
from . import outage

SOP_INVERSION_TOL = 1e-8
DERIVATIVE_TOL = 1e-10
BRACKET_REL_TOL = 1e-12

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
                 epsilon: float, max_iter: int) -> tuple[float, int]:
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
    for evals in range(1, max_iter + 1):
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
    raise RuntimeError(f"SOP inversion did not converge in {max_iter} "
                       f"evaluations (epsilon={epsilon})")


def invert_sop(scheme: SchemeId, layout: NetworkLayout, params: ChannelParams,
               epsilon: float, bsr_exact: bool = False,
               max_iter: int = 200) -> SopRoot:
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

    Raises RuntimeError when max_iter kernel evaluations do not converge.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if params.lambda_e == 0.0:
        return SopRoot(0.0)  # no eavesdroppers: no redundancy needed
    if scheme is SchemeId.BSR and not bsr_exact:
        beta_e, evals = bsr_approx_threshold(params, epsilon), 0
    else:
        kernel = outage.breach_kernel(scheme, layout, params)
        beta_e, evals = _newton_root(kernel, params.lambda_e, epsilon,
                                     max_iter)
    cert = outage.sop(scheme, layout, params, beta_e, bsr_exact=bsr_exact)
    return SopRoot(beta_e, evals + 1, abs(cert.value - epsilon), cert.flag)


def bsr_approx_threshold(params: ChannelParams, epsilon: float) -> float:
    """Algebraic inverse of the layout-free relaying SOP at level epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    a = params.alpha
    coeff = math.pi * params.lambda_e * math.gamma(1.0 + 2.0 / a) \
        * (params.Pm ** (2.0 / a) + params.Ps ** (2.0 / a))
    return (coeff / -math.log1p(-epsilon)) ** (a / 2.0)


# ---------------------------------------------------------------------------
# per-scheme objectives
# ---------------------------------------------------------------------------

def _dbf_coeffs(layout, params, beta_e_circ):
    ra = layout.sbs_distances() ** params.alpha
    K = layout.K
    scale = (2.0 ** K / math.factorial(2 * K)) \
        * ((1.0 + beta_e_circ) / params.Ps) ** K * float(np.prod(ra))
    shift = beta_e_circ / (1.0 + beta_e_circ)
    return scale, shift


def _fot_coeffs(layout, params, beta_e_circ):
    ra_sum = float(np.sum(layout.sbs_distances() ** params.alpha))
    gain = math.exp(-beta_e_circ * ra_sum / (layout.K * params.Ps))
    decay = (1.0 + beta_e_circ) * ra_sum / (layout.K * params.Ps)
    return gain, decay


def _bsr_coeffs(layout, params, beta_e_circ):
    ra = layout.sbs_distances() ** params.alpha
    gains = np.exp(-beta_e_circ * ra / params.Ps)
    decays = (1.0 + beta_e_circ) * ra / params.Ps
    return gains, decays


def secrecy_throughput_curve(scheme: SchemeId, layout: NetworkLayout,
                             params: ChannelParams, beta_e_circ: float,
                             beta_s):
    """Throughput at secrecy threshold(s) beta_s for a fixed redundancy.

    This is exactly the objective each optimizer maximizes: the beamforming
    scheme uses its high-power COP form (clamped into [0, 1]), the others
    their closed-form COPs. Accepts a scalar or an array of beta_s.
    """
    b = np.asarray(beta_s, dtype=float)
    rate = np.log2(1.0 + b)
    if scheme is SchemeId.DBF:
        scale, shift = _dbf_coeffs(layout, params, beta_e_circ)
        success = 1.0 - np.minimum(scale * (b + shift) ** layout.K, 1.0)
        psi = success * rate
    elif scheme is SchemeId.FOT:
        gain, decay = _fot_coeffs(layout, params, beta_e_circ)
        psi = gain * np.exp(-decay * b) * rate
    elif scheme is SchemeId.BSR:
        gains, decays = _bsr_coeffs(layout, params, beta_e_circ)
        survive = np.prod(1.0 - gains * np.exp(-np.outer(b, decays)),
                          axis=-1).reshape(b.shape)
        psi = 0.5 * (1.0 - survive) * rate
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return float(psi) if np.ndim(beta_s) == 0 else psi


def _expand_bracket(deriv, hi0: float = 1.0) -> float:
    """Double hi until the objective stops rising there.

    A derivative of exactly 0.0 also ends the search: past the peak the
    relaying objective can underflow to a flat zero, which still brackets
    the maximum from above.
    """
    hi = hi0
    for _ in range(200):
        if deriv(hi) <= 0.0:
            return hi
        hi *= 2.0
    raise RuntimeError("derivative never turned negative")


def opt_bs_dbf(layout: NetworkLayout, params: ChannelParams,
               beta_e_circ: float) -> RateDesign:
    """Optimal secrecy threshold for distributed beamforming.

    The objective (1 - scale*(b + shift)^K) log2(1+b) is concave, so the
    unique zero of its derivative is found by Newton steps safeguarded by
    the enclosing bisection bracket. If the COP already reaches 1 at zero
    secrecy rate the design is infeasible and (0, 0) is returned.
    """
    scale, shift = _dbf_coeffs(layout, params, beta_e_circ)
    K = layout.K
    if scale * shift ** K >= 1.0:
        return RateDesign(SchemeId.DBF, beta_e_circ, 0.0, 0.0)

    def deriv(b):
        p = (b + shift) ** (K - 1)
        cop = scale * p * (b + shift)
        return (1.0 - cop) / ((1.0 + b) * _LN2) \
            - scale * K * p * math.log2(1.0 + b)

    def deriv2(b):
        p1 = (b + shift) ** (K - 1)
        cop = scale * p1 * (b + shift)
        first = (-scale * K * p1 * (1.0 + b) - (1.0 - cop)) \
            / ((1.0 + b) ** 2 * _LN2)
        cross = scale * K * p1 / ((1.0 + b) * _LN2)
        if K == 1:
            curve = 0.0
        else:
            curve = scale * K * (K - 1) * (b + shift) ** (K - 2) \
                * math.log2(1.0 + b)
        return first - cross - curve

    lo = 0.0
    hi = _expand_bracket(deriv)
    b = 0.5 * (lo + hi)
    for _ in range(200):
        f = deriv(b)
        if abs(f) < DERIVATIVE_TOL:
            break
        if f > 0.0:
            lo = b
        else:
            hi = b
        if hi - lo < BRACKET_REL_TOL * (1.0 + b):
            break
        d2 = deriv2(b)
        step = b - f / d2 if d2 != 0.0 else math.inf
        b = step if lo < step < hi else 0.5 * (lo + hi)
    psi = max(secrecy_throughput_curve(SchemeId.DBF, layout, params,
                                       beta_e_circ, b), 0.0)
    return RateDesign(SchemeId.DBF, beta_e_circ, b, psi)


def opt_bs_fot(layout: NetworkLayout, params: ChannelParams,
               beta_e_circ: float) -> RateDesign:
    """Optimal secrecy threshold for the orthogonal-partition scheme.

    The objective gain * exp(-decay*b) * log2(1+b) is quasi-concave; its
    stationary point solves decay*ln(1+b) = 1/(1+b), a strictly increasing
    equation handled by bisection.
    """
    gain, decay = _fot_coeffs(layout, params, beta_e_circ)

    def resid(b):
        return decay * math.log1p(b) * (1.0 + b) - 1.0

    hi = _expand_bracket(lambda b: -resid(b))
    lo = 0.5 * hi if hi > 1.0 else 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-14 * (1.0 + lo):
            break
    b = 0.5 * (lo + hi)
    psi = gain * math.exp(-decay * b) * math.log2(1.0 + b)
    return RateDesign(SchemeId.FOT, beta_e_circ, b, psi)


def opt_bs_bsr(layout: NetworkLayout, params: ChannelParams,
               beta_e_circ: float) -> RateDesign:
    """Optimal secrecy threshold for best-SBS relaying.

    The derivative of 0.5*(1 - prod_k(1 - g_k e^{-d_k b})) log2(1+b) is
    positive then negative, so its single sign change is bracketed by
    doubling and pinned down by bisection. With one SBS this collapses to
    the orthogonal-partition optimizer at half throughput.
    """
    gains, decays = _bsr_coeffs(layout, params, beta_e_circ)
    K = layout.K
    if 1.0 - float(np.prod(1.0 - gains)) <= 0.0:
        # the required redundancy is so large that decoding never succeeds
        # at any positive secrecy rate (the success probability underflows)
        return RateDesign(SchemeId.BSR, beta_e_circ, 0.0, 0.0)

    def deriv(b):
        t = gains * np.exp(-decays * b)
        survive_terms = 1.0 - t
        q = float(np.prod(survive_terms))
        dq = 0.0
        for k in range(K):
            rest = np.prod(np.delete(survive_terms, k)) if K > 1 else 1.0
            dq += float(decays[k] * t[k] * rest)
        return 0.5 * ((1.0 - q) / ((1.0 + b) * _LN2)
                      - dq * math.log2(1.0 + b))

    lo = 0.0
    hi = _expand_bracket(deriv)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < BRACKET_REL_TOL * (1.0 + lo):
            break
    b = 0.5 * (lo + hi)
    psi = secrecy_throughput_curve(SchemeId.BSR, layout, params, beta_e_circ, b)
    return RateDesign(SchemeId.BSR, beta_e_circ, b, float(psi))


def scheme_throughput(scheme: SchemeId, layout: NetworkLayout,
                      params: ChannelParams, epsilon: float,
                      bsr_exact_sop: bool = False) -> RateDesign:
    """Full two-stage design: SOP inversion then throughput maximization.

    COP models feeding the optimizers: the beamforming scheme uses its
    high-power form, the other two their exact closed forms. The relaying
    SOP constraint uses the layout-free form unless bsr_exact_sop is set.
    """
    root = invert_sop(scheme, layout, params, epsilon, bsr_exact=bsr_exact_sop)
    beta_e_circ = float(root)
    if scheme is SchemeId.DBF:
        design = opt_bs_dbf(layout, params, beta_e_circ)
    elif scheme is SchemeId.FOT:
        design = opt_bs_fot(layout, params, beta_e_circ)
    elif scheme is SchemeId.BSR:
        design = opt_bs_bsr(layout, params, beta_e_circ)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return replace(design, epsilon=epsilon, sop_evals=root.evals,
                   sop_residual=root.residual, sop_flag=root.cert_flag)


def per_scheme_psi(layout: NetworkLayout, params: ChannelParams,
                   epsilon: float,
                   bsr_exact_sop: bool = False) -> dict[SchemeId, float]:
    """Optimal secrecy throughput psi* of every scheme, in SchemeId order."""
    return {scheme: scheme_throughput(scheme, layout, params, epsilon,
                                      bsr_exact_sop=bsr_exact_sop).psi_star
            for scheme in SchemeId}
