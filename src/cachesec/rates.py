"""Wiretap-code design for each delivery scheme.

Secrecy throughput is the secrecy rate times the decoding success
probability, subject to a cap epsilon on the secrecy outage probability.
The design runs in two stages: invert the SOP to the smallest redundancy
threshold beta_e that meets epsilon (redundancy only costs throughput, so
the constraint binds), certified once at the root, then maximize

    psi(beta_s) = eta * (1 - COP(beta_t)) * log2(1 + beta_s),

over the secrecy threshold beta_s, where beta_t = beta_e + (1+beta_e) beta_s
and eta is 1 except for the relaying scheme, whose two hops halve the
effective rate. Each scheme's 1 - COP and its beta_s-derivative are written
once, as a SuccessLaw that the throughput curve and the one maximizer share.

The SOP roots live in `outage`, beside the SOPs they invert; invert_sop
picks the root, then certifies and records it. Both breach laws of the
beamforming and partition SOPs are exp(-(beta_e/P)/W), P = Ps or K Ps, and
their grids read P/beta_e: they depend on beta_e/Ps alone, so a
power sweep inverts them once and scales the root (power_sweep_roots).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, SchemeId
from .layout import NetworkLayout
from . import outage

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


def invert_sop(scheme: SchemeId, layout: NetworkLayout, params: ChannelParams,
               epsilon: float, bsr_exact: bool = False) -> SopRoot:
    """Smallest redundancy threshold whose SOP equals epsilon.

    The SOP 1 - exp(-lambda_e I(beta_e)) falls strictly from 1 to 0. A
    quadrature SOP is inverted by its breach kernel (outage.BreachKernel.
    root, to outage.SOP_INVERSION_TOL on the grid the SOP reports); the
    relaying scheme inverts the layout-free form by default, whose inverse
    is algebraic (outage.bsr_approx_threshold; bsr_exact switches to the
    shared-field form). The root is then certified once through outage.sop.

    Raises RuntimeError when outage.SOP_MAX_EVALS kernel evaluations do not
    converge, and ValueError at once when the root leaves the float range
    (a tiny lambda_e): it underflows to 0, or a float operation on the way
    overflows, divides by zero or turns invalid.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if params.lambda_e == 0.0:
        return SopRoot(0.0)  # no eavesdroppers: no redundancy needed
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if scheme is SchemeId.BSR and not bsr_exact:
                beta_e, evals = outage.bsr_approx_threshold(params, epsilon), 0
            else:
                beta_e, evals = outage.breach_kernel(
                    scheme, layout, params).root(params.lambda_e, epsilon)
            if beta_e == 0.0:
                raise ArithmeticError("the root underflows to 0")
            cert = outage.sop(scheme, layout, params, beta_e,
                              bsr_exact=bsr_exact)
    except ArithmeticError as exc:  # numpy's FloatingPointError included
        raise _outside_float_range(params, epsilon, exc) from exc
    return SopRoot(beta_e, evals + 1, abs(cert.value - epsilon), cert.flag)


def _outside_float_range(params, epsilon, reason) -> ValueError:
    return ValueError(f"SOP root outside the float range (lambda_e="
                      f"{params.lambda_e:g}, epsilon={epsilon:g}): {reason}")


def power_sweep_roots(layout: NetworkLayout, sweep: list[ChannelParams],
                      epsilon: float) -> list[dict[SchemeId, SopRoot]]:
    """The beamforming and partition roots at each power Ps of a sweep:
    root_0 / Ps_0 * Ps with root_0's record, root_0 = invert_sop at the
    first power Ps_0. invert_sop's ValueError if one is 0, subnormal or inf."""
    first = sweep[0]
    found = {scheme: invert_sop(scheme, layout, first, epsilon)
             for scheme in (SchemeId.DBF, SchemeId.FOT)}

    def scaled(root, params):
        if params.Ps == first.Ps or root == 0.0:  # 0: no eavesdroppers
            return root
        value = root / first.Ps * params.Ps
        if not np.finfo(float).tiny <= value < math.inf:
            raise _outside_float_range(params, epsilon, f"scaled to {value!r}")
        return SopRoot(value, root.evals, root.residual, root.cert_flag)

    return [{scheme: scaled(root, params) for scheme, root in found.items()}
            for params in sweep]


# ---------------------------------------------------------------------------
# throughput maximization
# ---------------------------------------------------------------------------

class SuccessLaw(NamedTuple):
    """success(b) = 1 - COP(beta_e + (1 + beta_e) b) of one scheme's code
    at a fixed redundancy beta_e, for secrecy thresholds b = beta_s (scalar
    or array); slope(b) is its derivative in b, eta the rate factor. The
    beamforming COP is the high-power form clamped into [0, 1]; the
    partition and relaying successes are one union over the decoding
    branches of outage.decoding_branches."""

    eta: float
    success: Callable
    slope: Callable


def _dbf_law(layout, params, beta_e_circ) -> SuccessLaw:
    # the high-power COP clamped at 1, in log form: c0 (1 + b/shift)^K from
    # its value c0 at b = 0, or c_1 b^K without redundancy, so that the
    # success keeps its relative accuracy next to the clamp (1 - COP
    # cancels there) and no power of b overflows
    K = layout.K
    shift = beta_e_circ / (1.0 + beta_e_circ)
    log_c = outage.dbf_log_asymptote(layout, params, beta_e_circ or 1.0)

    def law(b, slope):
        # log 0 = -inf gives COP 0 at b = 0; an overflowed b/shift is
        # replaced by its log, and an overflowed slope is -inf
        with np.errstate(divide="ignore", over="ignore"):
            if shift > 0.0:
                ratio = b / shift
                t = np.where(ratio < math.inf, np.log1p(ratio),
                             np.log(b) - math.log(shift))
            else:
                t = np.log(b)
            log_cop = np.minimum(log_c + K * t, 0.0)
            if slope:
                return -K * np.exp(log_cop) / (b + shift)
            return 0.0 - np.expm1(log_cop)  # 0.0 - : never -0

    return SuccessLaw(1.0, partial(law, slope=False), partial(law, slope=True))


def _branch_law(scheme, eta, layout, params, beta_e_circ) -> SuccessLaw:
    # some decoding branch succeeds, branch k with t_k = gains_k
    # exp(-decays_k b); the union u + t_k (1 - u) keeps its relative
    # accuracy where 1 - prod_k (1 - t_k) cancels to noise
    ra, power = outage.decoding_branches(scheme, layout, params)
    with np.errstate(over="ignore"):
        gains = np.exp(-beta_e_circ * ra / power)
        decays = (1.0 + beta_e_circ) * ra / power
    # a branch with gain 0 or an overflowed decay adds t = 0 at every b > 0
    # (dropped before 0 * inf is nan); as Python floats, an overflowing
    # d * b is inf, so t = 0, without a warning
    keep = (gains > 0.0) & (decays < math.inf)
    gains, decays = gains[keep].tolist(), decays[keep].tolist()

    def union(b, slope):
        u = du = 0.0
        for g, d in zip(gains, decays):
            t = g * np.exp(-d * b)
            du = du * (1.0 - t) - d * t * (1.0 - u)
            u = u + t * (1.0 - u)
        return du if slope else u

    return SuccessLaw(eta, lambda b: union(b, False),
                      lambda b: union(b, True))


_LAWS = {SchemeId.DBF: _dbf_law,
         SchemeId.FOT: partial(_branch_law, SchemeId.FOT, 1.0),
         SchemeId.BSR: partial(_branch_law, SchemeId.BSR, 0.5)}


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
    raise RuntimeError("the throughput optimum lies beyond the float range")


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
                      bsr_exact: bool = False,
                      root: SopRoot | None = None) -> RateDesign:
    """Full two-stage design: SOP inversion (of the layout-free relaying
    SOP unless bsr_exact is set; a given root replaces it), then the
    scheme's opt_bs_*."""
    if root is None:
        root = invert_sop(scheme, layout, params, epsilon, bsr_exact=bsr_exact)
    # by name, so that a wrapper installed on the module is the one called
    design = globals()[f"opt_bs_{scheme.value}"](layout, params, float(root))
    return replace(design, epsilon=epsilon, sop_evals=root.evals,
                   sop_residual=root.residual, sop_flag=root.cert_flag)


def per_scheme_psi(layout: NetworkLayout, params: ChannelParams,
                   epsilon: float, bsr_exact: bool = False,
                   roots: dict | None = None) -> dict[SchemeId, float]:
    """Optimal secrecy throughput psi* of every scheme, in SchemeId order,
    from the given roots (see scheme_throughput)."""
    return {scheme: scheme_throughput(scheme, layout, params, epsilon,
                                      bsr_exact, (roots or {}).get(scheme))
            .psi_star for scheme in SchemeId}
