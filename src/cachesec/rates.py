"""Wiretap-code design for each delivery scheme.

Secrecy throughput is the secrecy rate times the decoding success
probability, subject to a cap epsilon on the secrecy outage probability.
The design runs in two stages: invert the SOP to the smallest redundancy
threshold beta_e that meets epsilon (redundancy only costs throughput, so
the constraint binds), certified by the SOP evaluation that accepts it,
then maximize

    psi(beta_s) = eta * (1 - COP(beta_t)) * log2(1 + beta_s),

over the secrecy threshold beta_s, where beta_t = beta_e + (1+beta_e) beta_s
and eta is 1 except for the relaying scheme, whose two hops halve the
effective rate. Each scheme's 1 - COP and its beta_s-derivative are written
once, as one SuccessLaw evaluation that the curve and the maximizer share.

The SOP roots live in `outage` beside the SOPs they invert, as does their
solver bracketed_root, the maximizer's too; invert_sop picks the root. The
beamforming and partition breach laws are exp(-(beta_e/P)/W), P = Ps or
K Ps, and their grids read P/beta_e: they depend on beta_e/Ps alone, so a
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
_LOG_MAX = math.log(np.finfo(float).max)  # e^_LOG_MAX is a float


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
    counts the SOP evaluations spent (the breach kernel's, or 1 for the
    algebraic relaying root), residual is |SOP(root) - epsilon| with the
    certified SOP that accepted the root (None when nothing was inverted),
    cert_flag that SOP's OutageEstimate flag.
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
    is algebraic (outage.bsr_approx_threshold, certified by
    outage.sop_bsr_approx; bsr_exact switches to the shared-field form).
    Each root keeps the SOP of the evaluation that accepted it: nothing is
    evaluated again.

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
                beta_e = outage.bsr_approx_threshold(params, epsilon)
                evals, cert = 1, outage.sop_bsr_approx(params, beta_e)
            else:
                beta_e, evals, cert = outage.breach_kernel(
                    scheme, layout, params).root(params.lambda_e, epsilon)
            if beta_e == 0.0:
                raise ArithmeticError("the root underflows to 0")
    except ArithmeticError as exc:  # numpy's FloatingPointError included
        raise _outside_float_range(params, epsilon, exc) from exc
    return SopRoot(beta_e, evals, abs(cert.value - epsilon), cert.flag)


def _outside_float_range(params, epsilon, reason) -> ValueError:
    return ValueError(f"SOP root outside the float range (lambda_e="
                      f"{params.lambda_e:g}, epsilon={epsilon:g}): {reason}")


def power_sweep_roots(layout: NetworkLayout, sweep: list[ChannelParams],
                      epsilon: float, bsr_exact: bool = False
                      ) -> list[dict[SchemeId, SopRoot]]:
    """Every scheme's root at each power Ps of a sweep, in SchemeId order:
    relaying inverted at each power (bsr_exact as in invert_sop), the others
    root_0 / Ps_0 * Ps with the record of root_0 = invert_sop at the first
    power Ps_0. invert_sop's ValueError if a root is 0, subnormal or inf."""
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
            | {SchemeId.BSR: invert_sop(SchemeId.BSR, layout, params, epsilon,
                                        bsr_exact=bsr_exact)}
            for params in sweep]


# ---------------------------------------------------------------------------
# throughput maximization
# ---------------------------------------------------------------------------

class SuccessLaw(NamedTuple):
    """at(b) = (success, slope) of one scheme's code at a fixed redundancy
    beta_e and secrecy thresholds b = beta_s (scalar or array): success =
    1 - COP(beta_e + (1 + beta_e) b) and its derivative in b; eta is the
    rate factor. The beamforming COP is the high-power form clamped into
    [0, 1]; the partition and relaying successes are one union over the
    decoding branches of outage.decoding_branches."""

    eta: float
    at: Callable

    def psi(self, success, b):  # log1p: log2(1 + b) stays accurate at small b
        return self.eta * success * np.log1p(b) / _LN2


def _dbf_law(layout, params, beta_e_circ) -> SuccessLaw:
    # the high-power COP clamped at 1, in log form: c0 (1 + b/shift)^K from
    # its value c0 at b = 0, or c_1 b^K without redundancy, so that the
    # success keeps its relative accuracy next to the clamp (1 - COP
    # cancels there) and no power of b overflows
    K = layout.K
    shift = beta_e_circ / (1.0 + beta_e_circ)
    log_c = outage.dbf_log_asymptote(layout, params, beta_e_circ or 1.0)

    def at(b):
        # log 0 = -inf gives COP 0 at b = 0; an overflowed b/shift is
        # replaced by its log, and an overflowed slope is -inf; b + shift is
        # floored at the smallest float, which every b > 0 reaches, so the
        # slope at b = shift = 0 (no caller reads it) is -0, not 0/0
        with np.errstate(divide="ignore", over="ignore"):
            if shift > 0.0:
                ratio = b / shift
                t = np.where(ratio < math.inf, np.log1p(ratio),
                             np.log(b) - math.log(shift))
            else:
                t = np.log(b)
            log_cop = np.minimum(log_c + K * t, 0.0)
            return (0.0 - np.expm1(log_cop),  # 0.0 - : never -0
                    -K * np.exp(log_cop) / np.maximum(b + shift, 5e-324))

    return SuccessLaw(1.0, at)


def _branch_law(scheme, eta, layout, params, beta_e_circ) -> SuccessLaw:
    # some decoding branch succeeds, branch k with t_k = gains_k
    # exp(-decays_k b); the union u + t_k (1 - u) keeps its relative
    # accuracy where 1 - prod_k (1 - t_k) cancels to noise
    ra, power = outage.decoding_branches(scheme, layout, params)
    with np.errstate(over="ignore"):
        gains = np.exp(-beta_e_circ * ra / power)
        decays = (1.0 + beta_e_circ) * ra / power
    # a branch with gain 0 or an overflowed decay adds t = 0 at every b > 0
    # (dropped before 0 * inf is nan); an overflowing d * b is inf, so t = 0
    # (secrecy_throughput_curve silences numpy's warning for an array b)
    keep = (gains > 0.0) & (decays < math.inf)
    gains, decays = gains[keep].tolist(), decays[keep].tolist()

    def union(b):
        u = du = 0.0
        for g, d in zip(gains, decays):
            t = g * np.exp(-d * b)
            du = du * (1.0 - t) - d * t * (1.0 - u)
            u = u + t * (1.0 - u)
        return u, du

    return SuccessLaw(eta, union)


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
    # a branch decay d b that overflows is inf, so that branch adds 0
    with np.errstate(over="ignore"):
        psi = law.psi(law.at(b)[0], b)
    return float(psi) if np.ndim(beta_s) == 0 else psi


def _design(scheme, layout, params, beta_e_circ) -> RateDesign:
    """The design at the beta_s* maximizing the law's throughput (0 if
    decoding fails at b = 0): outage.bracketed_root finds the sign change
    of d psi / d b in u = log(b), from b = 1 to a width of 1e-13."""
    law = _LAWS[scheme](layout, params, beta_e_circ)
    success = {0.0: law.at(0.0)[0]}

    def side(u):  # d psi / d b times ln(2) / eta, at b = e^u
        if (b := math.exp(u)) in success:  # 0, where psi rises, or no new b
            return (float(success[b]), None) if b == 0.0 else None
        success[b], slope = law.at(b)
        deriv = float(slope * math.log1p(b) + success[b] / (1.0 + b))
        if deriv > 0.0 and u == _LOG_MAX:
            raise RuntimeError("the throughput optimum lies beyond the float "
                               "range")
        return deriv, None

    b = 0.0 if success[0.0] <= 0.0 else math.exp(
        outage.bracketed_root(side, 0.0, 1e-13, _LOG_MAX))
    return RateDesign(scheme, beta_e_circ, b, float(law.psi(success[b], b)))


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
                      root: SopRoot | None = None) -> RateDesign:
    """Full two-stage design: the given SOP root (which fixes the relaying
    SOP model; see power_sweep_roots), or without one invert_sop's, of the
    layout-free relaying SOP; then the scheme's opt_bs_*."""
    if root is None:
        root = invert_sop(scheme, layout, params, epsilon)
    # by name, so that a wrapper installed on the module is the one called
    design = globals()[f"opt_bs_{scheme.value}"](layout, params, float(root))
    return replace(design, epsilon=epsilon, sop_evals=root.evals,
                   sop_residual=root.residual, sop_flag=root.cert_flag)


def per_scheme_psi(layout: NetworkLayout, params: ChannelParams,
                   epsilon: float, roots: dict | None = None
                   ) -> dict[SchemeId, float]:
    """Optimal secrecy throughput psi* of every scheme, in SchemeId order,
    from the given roots or invert_sop's (see scheme_throughput)."""
    return {scheme: scheme_throughput(scheme, layout, params, epsilon,
                                      (roots or {}).get(scheme))
            .psi_star for scheme in SchemeId}
