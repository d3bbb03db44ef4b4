"""Zipf demand, hybrid cache allocation, and its closed-form optimizers.

Each of the K SBSs stores the M most popular files verbatim (replicated
mode, served by distributed beamforming) and fills its remaining L - M
slots with disjoint 1/K partitions of the next files (diversity mode,
served by orthogonal transmission). Files beyond the M + K(L-M) reachable
ones are fetched over the wireless backhaul and relayed. The allocation M
trades the beamforming gain on popular files against content diversity and
backhaul cost; this module optimizes M for overall secrecy throughput and
for secrecy energy efficiency, with an exhaustive scan as the reference.
Both closed forms assume psi_D >= psi_F; outside that premise they return
the scan's optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    p_avg = average_power(params, lib, K, L, M)
    if p_avg <= 0.0:
        raise ValueError("average power must be positive")
    return overall_throughput(psi_d, psi_f, psi_b, lib, K, L, M) / p_avg


def _pick_adjacent(m_cont: float, L: int, objective) -> int:
    """Best integer neighbor of a continuous optimizer.

    The objectives are unimodal in M, so the integer optimum is one of the
    two integers around the continuous one; near-exact ties (< 1e-12) keep
    the rounded-up value.
    """
    lo = min(max(math.floor(m_cont), 0), L)
    hi = min(max(math.ceil(m_cont), 0), L)
    if lo == hi:
        return hi
    f_lo, f_hi = objective(lo), objective(hi)
    if abs(f_hi - f_lo) < TIE_TOL:
        return hi
    return hi if f_hi > f_lo else lo


def _opt_m_limited(psi_d: float, psi_f: float, psi_b: float,
                   lib: ZipfLibrary, K: int, L: int) -> int:
    """Throughput-optimal replicated-cache size when K*L < N.

    Writing gain_df = psi_D - psi_F and gain_fb = psi_F - psi_B, the
    derivative of the cache-averaged throughput in continuous M has the sign
    of gain_df - gain_fb (K-1) ((M+1)/(KL+1-(K-1)M))^tau, giving three
    cases: all-replicated when gain_df dominates, all-partitioned when
    gain_fb dominates, and an interior stationary point otherwise.
    """
    gain_df = psi_d - psi_f
    gain_fb = psi_f - psi_b
    if K == 1 or gain_fb <= 0.0:
        return L
    k1 = K - 1
    kl1 = K * L + 1
    if gain_df >= k1 * gain_fb:
        return L
    if gain_df < k1 * gain_fb * kl1 ** -lib.tau:
        return 0
    ratio = (k1 * gain_fb / gain_df) ** (1.0 / lib.tau)  # > 1 in this branch
    lam = 1.0 / (ratio - 1.0)
    m_cont = L - (L + 1.0) / (K * lam + 1.0)
    return _pick_adjacent(
        m_cont, L,
        lambda m: overall_throughput(psi_d, psi_f, psi_b, lib, K, L, m))


def optimal_mpc_allocation(psi_d: float, psi_f: float, psi_b: float,
                           lib: ZipfLibrary, K: int, L: int) -> int:
    """Throughput-optimal replicated-cache size M in 0..L.

    When K*L < N this is the limited-capacity closed form. When K*L >= N
    and L >= N a single SBS holds the whole library and full replication
    wins. Otherwise every M up to (KL-N)/(K-1) keeps all N files reachable
    (no backhaul) and the throughput rises with M there, so the optimum is
    the better of that boundary and the limited-capacity optimum.
    """
    if psi_d < psi_f:  # outside the premise
        return exhaustive_opt_m("throughput", psi_d, psi_f, psi_b, lib, K, L)[0]
    if K * L < lib.N:
        return _opt_m_limited(psi_d, psi_f, psi_b, lib, K, L)
    if L >= lib.N:
        return min(lib.N, L)
    bound = (K * L - lib.N) / (K - 1)  # full-coverage boundary, K >= 2 here
    candidates = {min(max(math.floor(bound), 0), L),
                  min(max(math.ceil(bound), 0), L),
                  _opt_m_limited(psi_d, psi_f, psi_b, lib, K, L)}
    return max(sorted(candidates),
               key=lambda m: (overall_throughput(psi_d, psi_f, psi_b,
                                                 lib, K, L, m), m))


def _objective(objective: str, psi_d: float, psi_f: float, psi_b: float,
               lib: ZipfLibrary, K: int, L: int,
               params: ChannelParams | None):
    """The value of an objective ("throughput" or "see") at an allocation
    M, and its closed-form optimizer."""
    if objective == "throughput":
        def value(m):
            return overall_throughput(psi_d, psi_f, psi_b, lib, K, L, m)

        def closed():
            return optimal_mpc_allocation(psi_d, psi_f, psi_b, lib, K, L)
    elif objective == "see":
        if params is None:
            raise ValueError("the energy-efficiency objective needs params")

        def value(m):
            return see(psi_d, psi_f, psi_b, params, lib, K, L, m)

        def closed():
            return opt_m_see(psi_d, psi_f, psi_b, params, lib, K, L)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return value, closed


def exhaustive_opt_m(objective: str, psi_d: float, psi_f: float, psi_b: float,
                     lib: ZipfLibrary, K: int, L: int,
                     params: ChannelParams | None = None) -> tuple[int, float]:
    """Reference optimizer: scan every M in 0..L.

    Uses the same cumulative-popularity model as the closed forms. Returns
    the smallest argmax on exact ties.
    """
    f, _ = _objective(objective, psi_d, psi_f, psi_b, lib, K, L, params)
    best_m, best_v = 0, f(0)
    for m in range(1, L + 1):
        v = f(m)
        if v > best_v:
            best_m, best_v = m, v
    return best_m, best_v


def optimize_allocation(objective: str, psi_d: float, psi_f: float,
                        psi_b: float, params: ChannelParams,
                        lib: ZipfLibrary, K: int, L: int):
    """Closed-form and exhaustive optima of an objective ("throughput" or
    "see"), and the objective's value as a function of M."""
    value, closed = _objective(objective, psi_d, psi_f, psi_b, lib, K, L,
                               params)
    m_closed = closed()
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

    and xi is increasing, so the optimum is L, 0, or the rounded root of
    xi(M) = (psi_D - psi_F)/agg.
    """
    tau = lib.tau

    def fallback():
        return exhaustive_opt_m("see", psi_d, psi_f, psi_b, lib, K, L,
                                params=params)[0]

    if psi_d < psi_f or params.Pm < K * params.Ps or tau <= 1.0 \
            or K * L >= lib.N:
        return fallback()
    n1 = (lib.N + 1.0) ** (1.0 - tau)
    dp1 = K * params.Ps - (params.Pm + params.Ps) * n1
    dp2 = params.Pm - (K - 1) * params.Ps
    if dp1 <= 0.0:
        return fallback()
    gain_df = psi_d - psi_f
    gain_fb = psi_f - psi_b
    gain_db = psi_d - psi_b * n1
    agg = dp1 * gain_fb + dp2 * gain_db
    if agg <= 0.0:
        return L
    k1 = K - 1
    kl1 = K * L + 1

    def xi(m):
        return k1 * (m + 1.0) ** tau \
            / (dp1 * (kl1 - k1 * m) ** tau + dp2 * K * (L + 1.0))

    target = gain_df / agg
    if gain_df >= agg * xi(L):
        return L
    if gain_df <= agg * xi(0):
        return 0
    lo, hi = 0.0, float(L)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if xi(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    m_cont = 0.5 * (lo + hi)
    return _pick_adjacent(
        m_cont, L,
        lambda m: see(psi_d, psi_f, psi_b, params, lib, K, L, m))

