"""Zipf demand, hybrid cache allocation, and its closed-form optimizers.

Each of the K SBSs stores the M most popular files verbatim (replicated
mode, served by distributed beamforming) and fills its remaining L - M
slots with disjoint 1/K partitions of the next files (diversity mode,
served by orthogonal transmission). Files beyond the M + K(L-M) reachable
ones are fetched over the wireless backhaul and relayed. The allocation M
trades the beamforming gain on popular files against content diversity and
backhaul cost; this module optimizes M for overall secrecy throughput and
for secrecy energy efficiency, with an exhaustive scan as the reference.
Each objective is built once as a function of M (_value); the scan, both
closed forms and the CLI's objective columns read it from there. Both
closed forms assume psi_D >= psi_F; outside that premise they return the
scan's optimum. Within it, each finds its interior optimum where an
increasing xi(M) crosses a gain ratio, by one exact search over 0..L.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import ChannelParams

TIE_TOL = 1e-12


@dataclass(frozen=True)
class ZipfLibrary:
    """A library of N equal-size files with Zipf(tau) request popularity."""

    N: int
    tau: float

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError("N must be a positive integer")
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")


def cum_pop_approx(lib: ZipfLibrary, M: float) -> float:
    """Integral approximation of the cumulative popularity.

    (1 - (M+1)^(1-tau)) / (1 - (N+1)^(1-tau)), with the removable tau = 1
    singularity replaced by ln(M+1)/ln(N+1). Accepts fractional M so the
    optimizers can treat the allocation as continuous.
    """
    if not 0 <= M <= lib.N:
        raise ValueError(f"M={M} outside 0..{lib.N}")
    if lib.tau == 1.0:
        return math.log(M + 1.0) / math.log(lib.N + 1.0)
    one_minus_tau = 1.0 - lib.tau
    return math.expm1(one_minus_tau * math.log(M + 1.0)) \
        / math.expm1(one_minus_tau * math.log(lib.N + 1.0))


def scheme_probs(lib: ZipfLibrary, K: int, L: int,
                 M: int) -> tuple[float, float, float]:
    """Probabilities of serving via beamforming, partitions, or backhaul.

    A request lands in replicated content with probability cum(M), in
    partitioned content with cum(min(M + K(L-M), N)) - cum(M), and misses
    the caches otherwise, where cum is cum_pop_approx.
    """
    if K < 1 or L < 1:
        raise ValueError("K and L must be positive")
    if not 0 <= M <= L:
        raise ValueError(f"M={M} outside 0..{L}")
    reach = min(M + K * (L - M), lib.N)
    p_d = cum_pop_approx(lib, min(M, lib.N))
    p_f = max(cum_pop_approx(lib, reach) - p_d, 0.0)
    p_b = max(1.0 - p_d - p_f, 0.0)
    return p_d, p_f, p_b


def overall_throughput(psi_d: float, psi_f: float, psi_b: float,
                       lib: ZipfLibrary, K: int, L: int, M: int) -> float:
    """Cache-averaged secrecy throughput at allocation M."""
    p_d, p_f, p_b = scheme_probs(lib, K, L, M)
    return p_d * psi_d + p_f * psi_f + p_b * psi_b


def average_power(params: ChannelParams, lib: ZipfLibrary, K: int, L: int,
                  M: int) -> float:
    """Mean power spent per request: K*Ps on a cache hit, Pm+Ps on a miss."""
    p_d, p_f, p_b = scheme_probs(lib, K, L, M)
    return K * params.Ps * (p_d + p_f) + p_b * (params.Pm + params.Ps)


def see(psi_d: float, psi_f: float, psi_b: float, params: ChannelParams,
        lib: ZipfLibrary, K: int, L: int, M: int) -> float:
    """Secrecy energy efficiency: cache-averaged throughput per unit power."""
    return overall_throughput(psi_d, psi_f, psi_b, lib, K, L, M) \
        / average_power(params, lib, K, L, M)


def _crossing(gain: float, agg: float, xi, L: int, objective) -> int:
    """Best M in 0..L of an objective that rises wherever gain >= agg xi(M),
    xi increasing: L if it rises everywhere, 0 if nowhere, else M - 1 or
    M for the first M whose xi reaches gain/agg; the larger wins unless the
    smaller is better by TIE_TOL or more."""
    if agg <= 0.0 or gain >= agg * xi(L):
        return L
    if gain <= agg * xi(0):
        return 0
    # the root lies in (M - 1, M]; M = 0 where gain/agg rounds onto xi(0)
    m = bisect.bisect_left(range(L + 1), gain / agg, key=xi)
    lo = max(m - 1, 0)
    return lo if objective(lo) - objective(m) >= TIE_TOL else m


def _value(objective: str, psi_d: float, psi_f: float, psi_b: float,
           lib: ZipfLibrary, K: int, L: int, params: ChannelParams | None):
    """An objective ("throughput" or "see") as a function of M."""
    if K < 1 or L < 1:
        raise ValueError("K and L must be positive")
    if objective == "throughput":
        return partial(overall_throughput, psi_d, psi_f, psi_b, lib, K, L)
    if objective != "see":
        raise ValueError(f"unknown objective {objective!r}")
    if params is None:
        raise ValueError("the energy-efficiency objective needs params")
    return partial(see, psi_d, psi_f, psi_b, params, lib, K, L)


def optimal_mpc_allocation(psi_d: float, psi_f: float, psi_b: float,
                           lib: ZipfLibrary, K: int, L: int) -> int:
    """Throughput-optimal replicated-cache size M in 0..L.

    When L >= N a single SBS holds the whole library and full replication
    wins. Otherwise, while fewer than N files are reachable, the derivative
    of the cache-averaged throughput in continuous M has the sign of
    (psi_D - psi_F) - agg xi(M), agg = (K-1)(psi_F - psi_B) and
    xi(M) = ((M+1)/(KL+1-(K-1)M))^tau, which rises from (KL+1)^-tau to 1, so
    _crossing finds the limited-capacity optimum: all-replicated,
    all-partitioned or interior. It is the answer when K*L < N. When
    K*L >= N every M up to (KL-N)/(K-1) keeps all N files reachable (no
    backhaul) and the throughput rises with M there, so the optimum is the
    best of the two integers around that boundary and the crossing, the
    largest on a tie.
    """
    if psi_d < psi_f:  # outside the premise
        return exhaustive_opt_m("throughput", psi_d, psi_f, psi_b, lib, K, L)[0]
    value = _value("throughput", psi_d, psi_f, psi_b, lib, K, L, None)
    if L >= lib.N:
        return lib.N

    def xi(m):
        return ((m + 1.0) / (K * L + 1 - (K - 1) * m)) ** lib.tau

    m = _crossing(psi_d - psi_f, (K - 1) * (psi_f - psi_b), xi, L, value)
    if K * L < lib.N:
        return m
    bound = (K * L - lib.N) / (K - 1)  # full-coverage boundary, K >= 2 here
    candidates = {min(max(f(bound), 0), L) for f in (math.floor, math.ceil)}
    return max((value(c), c) for c in sorted(candidates | {m}))[1]


def exhaustive_opt_m(objective: str, psi_d: float, psi_f: float, psi_b: float,
                     lib: ZipfLibrary, K: int, L: int,
                     params: ChannelParams | None = None) -> tuple[int, float]:
    """Reference optimizer: scan every M in 0..L.

    Uses the same cumulative-popularity model as the closed forms. Returns
    the smallest argmax on exact ties.
    """
    f = _value(objective, psi_d, psi_f, psi_b, lib, K, L, params)
    # max keeps the first of equal values
    return max(((m, f(m)) for m in range(L + 1)), key=lambda mv: mv[1])


def optimize_allocation(objective: str, psi_d: float, psi_f: float,
                        psi_b: float, params: ChannelParams,
                        lib: ZipfLibrary, K: int, L: int):
    """Closed-form and exhaustive optima of an objective ("throughput" or
    "see"), and the objective's value as a function of M."""
    value = _value(objective, psi_d, psi_f, psi_b, lib, K, L, params)
    if objective == "see":
        m_closed = opt_m_see(psi_d, psi_f, psi_b, params, lib, K, L)
    else:
        m_closed = optimal_mpc_allocation(psi_d, psi_f, psi_b, lib, K, L)
    m_ex, _ = exhaustive_opt_m(objective, psi_d, psi_f, psi_b, lib, K, L,
                               params=params)
    return m_closed, m_ex, value


def opt_m_see(psi_d: float, psi_f: float, psi_b: float,
              params: ChannelParams, lib: ZipfLibrary, K: int, L: int) -> int:
    """Energy-efficiency-optimal replicated-cache size.

    Within the premise the closed form holds when the backhaul power
    dominates (Pm >= K*Ps), popularity is concentrated (tau > 1) and
    capacity is limited (KL < N), else the scan is used. Within it, with
    power gaps dp1 = K*Ps - (Pm+Ps)(N+1)^(1-tau) and dp2 = Pm - (K-1)*Ps and
    the aggregate gain agg = dp1*(psi_F - psi_B) + dp2*(psi_D -
    psi_B (N+1)^(1-tau)), the efficiency is increasing wherever

        (psi_D - psi_F) >= agg * xi(M),
        xi(M) = (K-1)(M+1)^tau / (dp1 (KL+1-(K-1)M)^tau + dp2 K(L+1)),

    and xi is increasing when dp1 > 0 (else the scan is used), so _crossing
    finds the optimum: L, 0, or one of the two integers around the root of
    xi(M) = (psi_D - psi_F)/agg.
    """
    tau = lib.tau
    dp1 = 0.0  # outside the closed form's regime: the scan
    if not (psi_d < psi_f or params.Pm < K * params.Ps or tau <= 1.0
            or K * L >= lib.N):
        n1 = (lib.N + 1.0) ** (1.0 - tau)
        dp1 = K * params.Ps - (params.Pm + params.Ps) * n1
    if dp1 <= 0.0:
        return exhaustive_opt_m("see", psi_d, psi_f, psi_b, lib, K, L,
                                params=params)[0]
    dp2 = params.Pm - (K - 1) * params.Ps
    agg = dp1 * (psi_f - psi_b) + dp2 * (psi_d - psi_b * n1)

    def xi(m):
        return (K - 1) * (m + 1.0) ** tau \
            / (dp1 * (K * L + 1 - (K - 1) * m) ** tau + dp2 * K * (L + 1.0))

    return _crossing(psi_d - psi_f, agg, xi, L,
                     _value("see", psi_d, psi_f, psi_b, lib, K, L, params))
