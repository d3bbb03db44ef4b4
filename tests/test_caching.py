import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachesec import (ChannelParams, SchemeId, ZipfLibrary, average_power,
                      cum_pop_approx, exhaustive_opt_m, opt_m_see,
                      optimal_mpc_allocation, optimize_allocation,
                      overall_throughput, per_scheme_psi, scheme_probs, see)
from cachesec.caching import TIE_TOL
from helpers import standard_layout, standard_params


# ---------------------------------------------------------------------------
# popularity model
# ---------------------------------------------------------------------------

def zipf_pmf(lib: ZipfLibrary) -> np.ndarray:
    """Request probability of the files of rank 1..N."""
    weights = np.arange(1.0, lib.N + 1) ** -lib.tau
    return weights / weights.sum()


def cum_pop_exact(lib: ZipfLibrary, M: int) -> float:
    """Exact cumulative popularity of the top M files, the reference for
    cum_pop_approx."""
    return float(np.sum(zipf_pmf(lib)[:M]))


def test_zipf_single_file():
    assert zipf_pmf(ZipfLibrary(N=1, tau=2.0))[0] == 1.0


def test_zipf_two_files_tau_one():
    assert zipf_pmf(ZipfLibrary(N=2, tau=1.0))[0] == pytest.approx(2 / 3)


def test_zipf_normalization():
    lib = ZipfLibrary(N=100, tau=1.5)
    assert np.sum(zipf_pmf(lib)) == pytest.approx(1.0, abs=1e-12)


def test_cum_pop_approx_endpoints():
    lib = ZipfLibrary(N=50, tau=1.3)
    assert cum_pop_approx(lib, 0) == 0.0
    assert cum_pop_approx(lib, 50) == pytest.approx(1.0, abs=1e-15)


def test_cum_pop_approx_tau_one_log_limit():
    lib = ZipfLibrary(N=99, tau=1.0)
    assert cum_pop_approx(lib, 9) == pytest.approx(math.log(10) / math.log(100))
    # the power form approaches the log limit continuously
    near = ZipfLibrary(N=99, tau=1.0 + 1e-9)
    assert cum_pop_approx(near, 9) == pytest.approx(cum_pop_approx(lib, 9),
                                                    rel=1e-6)


def test_cum_pop_approx_vs_exact_partial_sum():
    # the integral approximation sits within ~7% of the true partial sum
    # here (measured 6.2% at this point)
    lib = ZipfLibrary(N=100, tau=1.5)
    exact = cum_pop_exact(lib, 10)
    approx = cum_pop_approx(lib, 10)
    assert abs(approx - exact) / exact < 0.07


def test_scheme_probs_no_partition_capacity():
    lib = ZipfLibrary(N=100, tau=1.2)
    p_d, p_f, p_b = scheme_probs(lib, K=3, L=10, M=10)
    assert p_f == 0.0
    assert p_d + p_b == pytest.approx(1.0)


def test_scheme_probs_full_library_cached():
    lib = ZipfLibrary(N=20, tau=1.2)
    p_d, p_f, p_b = scheme_probs(lib, K=3, L=10, M=5)  # reach 5+15=20=N
    assert p_b == 0.0


def test_scheme_probs_sum_to_one():
    rng = np.random.default_rng(30)
    for _ in range(50):
        K = int(rng.integers(1, 6))
        L = int(rng.integers(1, 30))
        M = int(rng.integers(0, L + 1))
        lib = ZipfLibrary(N=int(rng.integers(5, 500)),
                          tau=float(rng.uniform(0.3, 2.5)))
        p = scheme_probs(lib, K, L, M)
        assert all(0.0 <= x <= 1.0 for x in p)
        assert sum(p) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def test_overall_throughput_convex_combination():
    lib = ZipfLibrary(N=100, tau=1.5)
    for m in range(0, 11):
        assert overall_throughput(2.0, 2.0, 2.0, lib, 3, 10, m) == \
            pytest.approx(2.0)


def test_overall_throughput_full_replication_split():
    lib = ZipfLibrary(N=500, tau=1.4)
    K, L = 3, 10
    got = overall_throughput(5.0, 3.0, 1.0, lib, K, L, L)
    cum_l = cum_pop_approx(lib, L)
    assert got == pytest.approx(cum_l * 5.0 + (1 - cum_l) * 1.0)


def test_overall_throughput_matches_exact_sums_up_to_model_error():
    # the same mix on the exact partial sums: M = 6 replicated files, the
    # next K (L - M) = 18 partitioned, the rest relayed
    lib = ZipfLibrary(N=200, tau=1.3)
    approx = overall_throughput(5.0, 3.0, 1.0, lib, 3, 12, 6)
    top, reach = cum_pop_exact(lib, 6), cum_pop_exact(lib, 24)
    exact = 5.0 * top + 3.0 * (reach - top) + 1.0 * (1.0 - reach)
    assert abs(approx - exact) / exact < 0.1


def test_overall_throughput_gap_form_identity():
    # the probability mix equals the algebraic gap form
    # (gain_db - gain_df (M+1)^(1-tau) - gain_fb (KL+1-(K-1)M)^(1-tau)) / D
    # to full precision in the limited-capacity regime
    lib = ZipfLibrary(N=400, tau=1.4)
    K, L = 3, 12
    psi_d, psi_f, psi_b = 5.0, 3.0, 1.0
    n1 = (lib.N + 1.0) ** (1.0 - lib.tau)
    denom = 1.0 - n1
    gain_db = psi_d - psi_b * n1
    for m in range(0, L + 1):
        u = (m + 1.0) ** (1.0 - lib.tau)
        v = (K * L + 1.0 - (K - 1.0) * m) ** (1.0 - lib.tau)
        gap_form = (gain_db - (psi_d - psi_f) * u - (psi_f - psi_b) * v) \
            / denom
        assert overall_throughput(psi_d, psi_f, psi_b, lib, K, L, m) == \
            pytest.approx(gap_form, abs=1e-12)


def test_overall_throughput_unimodal_in_allocation():
    # with positive gaps and an interior optimum the objective rises then
    # falls exactly once over the integer allocations
    lib = ZipfLibrary(N=1000, tau=1.2)
    K, L = 3, 10
    vals = [overall_throughput(3.0, 2.0, 1.0, lib, K, L, m)
            for m in range(0, L + 1)]
    diffs = np.diff(vals)
    signs = np.sign(diffs[np.abs(diffs) > 1e-15])
    assert int(np.sum(signs[:-1] != signs[1:])) == 1
    assert max(vals) > max(vals[0], vals[-1])


def test_see_ratio_form_matches_power_gap_form():
    # independent evaluation of the efficiency through the gap coefficients
    lib = ZipfLibrary(N=400, tau=1.4)
    params = ChannelParams(alpha=4.0, Ps=2.0, Pm=30.0, lambda_e=0.01)
    K, L = 3, 12
    psi_d, psi_f, psi_b = 5.0, 3.0, 1.0
    n1 = (lib.N + 1.0) ** (1.0 - lib.tau)
    dp1 = K * params.Ps - (params.Pm + params.Ps) * n1
    dp2 = params.Pm - (K - 1) * params.Ps
    gain_db = psi_d - psi_b * n1
    for m in range(0, L + 1):
        u = (m + 1.0) ** (1.0 - lib.tau)
        v = (K * L + 1.0 - (K - 1.0) * m) ** (1.0 - lib.tau)
        num = gain_db - (psi_d - psi_f) * u - (psi_f - psi_b) * v
        den = dp1 + dp2 * v
        assert see(psi_d, psi_f, psi_b, params, lib, K, L, m) == \
            pytest.approx(num / den, rel=1e-12)


def test_see_full_cache_denominator():
    lib = ZipfLibrary(N=20, tau=1.5)
    params = ChannelParams(alpha=4.0, Ps=2.0, Pm=30.0, lambda_e=0.01)
    K, L, M = 3, 10, 5  # reach = 20 = N, no backhaul
    omega = see(4.0, 2.0, 1.0, params, lib, K, L, M)
    psi_bar = overall_throughput(4.0, 2.0, 1.0, lib, K, L, M)
    assert omega == pytest.approx(psi_bar / (K * params.Ps))


def test_see_zero_throughput():
    lib = ZipfLibrary(N=100, tau=1.5)
    params = standard_params()
    assert see(0.0, 0.0, 0.0, params, lib, 3, 10, 5) == 0.0


# ---------------------------------------------------------------------------
# allocation optimizers
# ---------------------------------------------------------------------------

def test_opt_m_throughput_k1_always_full():
    lib = ZipfLibrary(N=100, tau=1.5)
    assert optimal_mpc_allocation(2.0, 1.9, 1.0, lib, K=1, L=10) == 10
    assert optimal_mpc_allocation(2.0, 2.0, 1.0, lib, K=1, L=10) == 10


def test_opt_m_throughput_dominant_gap_cases():
    lib = ZipfLibrary(N=1000, tau=1.2)
    # replication gain 10 vs partition gain 1 with K-1 = 2: full replication
    assert optimal_mpc_allocation(11.0, 1.0, 0.0, lib, K=3, L=10) == 10
    # overwhelming partition gain: no replication
    assert optimal_mpc_allocation(1.0 + 1e-9, 1.0, -100.0, lib, K=3, L=10) == 0


def test_opt_m_throughput_interior_example():
    # gaps (1, 1), K=3, L=10, tau=1.2: continuous optimum 7.73, integer 8
    lib = ZipfLibrary(N=1000, tau=1.2)
    m = optimal_mpc_allocation(3.0, 2.0, 1.0, lib, K=3, L=10)
    m_ref, _ = exhaustive_opt_m("throughput", 3.0, 2.0, 1.0, lib, 3, 10)
    assert m == 8 == m_ref


def test_opt_m_throughput_negative_partition_gain():
    lib = ZipfLibrary(N=1000, tau=1.2)
    assert optimal_mpc_allocation(3.0, 1.0, 2.0, lib, K=3, L=10) == 10


def test_opt_m_throughput_no_replication_gain_matches_oracle():
    # psi_D <= psi_F: replicating a file gains nothing, so no replication
    lib = ZipfLibrary(N=1000, tau=1.2)
    for psi_d in (1.0, 2.0):
        m = optimal_mpc_allocation(psi_d, 2.0, 0.5, lib, K=3, L=10)
        assert m == 0 == exhaustive_opt_m("throughput", psi_d, 2.0, 0.5,
                                          lib, 3, 10)[0]


def test_opt_m_throughput_matches_oracle_randomized():
    rng = np.random.default_rng(31)
    agree = 0
    total = 200
    for _ in range(total):
        K = int(rng.integers(2, 6))
        L = int(rng.integers(2, 30))
        N = int(rng.integers(K * L + 1, 20 * K * L))
        lib = ZipfLibrary(N=N, tau=float(rng.uniform(0.4, 2.5)))
        psi_f = float(rng.uniform(0.1, 3.0))
        psi_d = psi_f + float(rng.uniform(0.001, 3.0))
        psi_b = float(rng.uniform(0.0, 4.0))
        m = optimal_mpc_allocation(psi_d, psi_f, psi_b, lib, K, L)
        m_ref, v_ref = exhaustive_opt_m("throughput", psi_d, psi_f, psi_b,
                                        lib, K, L)
        if m == m_ref:
            agree += 1
        else:
            assert abs(m - m_ref) == 1
            gap = abs(v_ref - overall_throughput(psi_d, psi_f, psi_b,
                                                 lib, K, L, m))
            assert gap < 1e-12
    assert agree >= 0.99 * total


def test_opt_m_throughput_monotone_in_tau():
    # more concentrated popularity favors more replication
    prev = 0
    for tau in np.arange(0.5, 2.6, 0.25):
        lib = ZipfLibrary(N=2000, tau=float(tau))
        m = optimal_mpc_allocation(3.0, 2.0, 1.0, lib, K=3, L=20)
        assert m >= prev
        prev = m


def test_opt_m_large_capacity_single_sbs_covers_library():
    lib = ZipfLibrary(N=8, tau=1.2)
    assert optimal_mpc_allocation(3.0, 2.0, 1.0, lib, K=2, L=10) == 8


def test_opt_m_large_capacity_coverage_bound():
    lib = ZipfLibrary(N=15, tau=1.2)
    m = optimal_mpc_allocation(3.0, 2.0, 1.0, lib, K=2, L=10)
    assert m >= 5  # (K L - N)/(K - 1) = 5 keeps every file reachable
    m_ref, _ = exhaustive_opt_m("throughput", 3.0, 2.0, 1.0, lib, 2, 10)
    assert m == m_ref


def test_opt_m_large_capacity_randomized_against_oracle():
    rng = np.random.default_rng(32)
    for _ in range(100):
        K = int(rng.integers(2, 6))
        L = int(rng.integers(2, 20))
        N = int(rng.integers(L + 1, K * L + 1))  # K*L >= N > L
        lib = ZipfLibrary(N=N, tau=float(rng.uniform(0.4, 2.5)))
        psi_f = float(rng.uniform(0.1, 3.0))
        psi_d = psi_f + float(rng.uniform(0.001, 3.0))
        psi_b = float(rng.uniform(0.0, psi_f))
        m = optimal_mpc_allocation(psi_d, psi_f, psi_b, lib, K, L)
        m_ref, v_ref = exhaustive_opt_m("throughput", psi_d, psi_f, psi_b,
                                        lib, K, L)
        gap = abs(v_ref - overall_throughput(psi_d, psi_f, psi_b, lib,
                                             K, L, m))
        assert m == m_ref or gap < 1e-12


def test_optimal_mpc_allocation_shape_over_library_size():
    # rises while one SBS can hold everything, falls along the coverage
    # boundary, then settles at the limited-capacity optimum
    K, L = 2, 10
    psi_d, psi_f, psi_b = 3.0, 2.0, 0.5
    ms = []
    for N in range(2, 81, 2):
        lib = ZipfLibrary(N=N, tau=1.2)
        ms.append(optimal_mpc_allocation(psi_d, psi_f, psi_b, lib, K, L))
    arr = np.array(ms)
    diffs = np.diff(arr)
    rise_end = int(np.argmax(arr))
    assert (diffs[:rise_end] >= 0).all()
    after = diffs[rise_end:]
    fall = after < 0
    if fall.any():
        last_fall = rise_end + int(np.where(fall)[0][-1])
        assert (diffs[last_fall + 1:] == 0).all()
    m_ref, _ = exhaustive_opt_m("throughput", psi_d, psi_f, psi_b,
                                ZipfLibrary(N=80, tau=1.2), K, L)
    assert arr[-1] == m_ref


def test_opt_m_see_relaying_never_efficient_gives_full_replication():
    lib = ZipfLibrary(N=500, tau=1.5)
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=10.0, lambda_e=0.01)
    # psi_b large makes the aggregate relay gain negative
    m = opt_m_see(2.0, 1.0, 50.0, params, lib, K=3, L=10)
    assert m == 10


def test_opt_m_see_extreme_cases():
    lib = ZipfLibrary(N=500, tau=1.5)
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=10.0, lambda_e=0.01)
    # tiny replication gain: all partitions
    assert opt_m_see(1.0 + 1e-12, 1.0, 0.0, params, lib, K=3, L=10) == 0
    # replication gain large next to the (deliberately small) aggregate
    # relay gain: all replication
    tight = ChannelParams(alpha=4.0, Ps=1.0, Pm=3.0, lambda_e=0.01)
    m = opt_m_see(2.2, 1.0, 0.99, tight, lib, K=3, L=10)
    m_ref, _ = exhaustive_opt_m("see", 2.2, 1.0, 0.99, lib, 3, 10,
                                params=tight)
    assert m == 10 == m_ref


def test_opt_m_see_interior_matches_oracle():
    rng = np.random.default_rng(33)
    agree = 0
    total = 200
    for _ in range(total):
        K = int(rng.integers(2, 6))
        L = int(rng.integers(2, 20))
        N = int(rng.integers(3 * K * L, 50 * K * L))
        lib = ZipfLibrary(N=N, tau=float(rng.uniform(1.05, 2.5)))
        Ps = float(rng.uniform(0.5, 50.0))
        Pm = K * Ps * float(rng.uniform(1.0, 20.0))
        params = ChannelParams(alpha=4.0, Ps=Ps, Pm=Pm, lambda_e=0.01)
        psi_f = float(rng.uniform(0.1, 3.0))
        psi_d = psi_f + float(rng.uniform(0.001, 3.0))
        psi_b = float(rng.uniform(0.0, 3.0))
        m = opt_m_see(psi_d, psi_f, psi_b, params, lib, K, L)
        m_ref, v_ref = exhaustive_opt_m("see", psi_d, psi_f, psi_b, lib,
                                        K, L, params=params)
        if m == m_ref:
            agree += 1
        else:
            assert abs(m - m_ref) == 1
            gap = abs(v_ref - see(psi_d, psi_f, psi_b, params, lib, K, L, m))
            assert gap < 1e-12
    assert agree >= 0.99 * total


def test_opt_m_see_falls_back_outside_regime():
    lib = ZipfLibrary(N=500, tau=0.8)  # tau <= 1
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=10.0, lambda_e=0.01)
    m = opt_m_see(2.0, 1.0, 0.5, params, lib, K=3, L=10)
    m_ref, _ = exhaustive_opt_m("see", 2.0, 1.0, 0.5, lib, 3, 10,
                                params=params)
    assert m == m_ref
    # weak backhaul power also leaves the closed-form regime
    weak = ChannelParams(alpha=4.0, Ps=1.0, Pm=1.0, lambda_e=0.01)
    lib2 = ZipfLibrary(N=500, tau=1.5)
    m = opt_m_see(2.0, 1.0, 0.5, weak, lib2, K=3, L=10)
    m_ref, _ = exhaustive_opt_m("see", 2.0, 1.0, 0.5, lib2, 3, 10,
                                params=weak)
    assert m == m_ref


def test_opt_m_see_nonincreasing_in_backhaul_power():
    # costlier backhaul pushes the efficiency optimum toward more
    # partition caching (fewer misses)
    import cachesec as cs
    lay = cs.build_line_layout(1.0, 0.5, 2, 2.0)
    lib = ZipfLibrary(N=100, tau=1.5)
    ms = []
    for pm_dbw in (25.0, 30.0, 40.0, 50.0):
        params = ChannelParams(alpha=4.0, Ps=10.0, Pm=10 ** (pm_dbw / 10),
                               lambda_e=0.01)
        psi = {s: cs.scheme_throughput(s, lay, params, 0.2).psi_star
               for s in SchemeId}
        ms.append(opt_m_see(psi[SchemeId.DBF], psi[SchemeId.FOT],
                            psi[SchemeId.BSR], params, lib, 2, 10))
    assert all(a >= b for a, b in zip(ms, ms[1:]))
    assert ms[0] > ms[-1]


def test_opt_m_see_interior_root_decreases_with_tau():
    # in the interior regime the continuous optimum shrinks as popularity
    # concentrates
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=20.0, lambda_e=0.01)
    psi_d, psi_f, psi_b = 2.4, 2.0, 1.9
    prev = None
    for tau in (1.3, 1.4, 1.5, 1.6):
        lib = ZipfLibrary(N=5000, tau=tau)
        m = opt_m_see(psi_d, psi_f, psi_b, params, lib, K=3, L=30)
        if prev is not None:
            assert m <= prev + 1  # integer rounding of a decreasing root
        prev = m


def test_exhaustive_tie_break_smallest():
    lib = ZipfLibrary(N=100, tau=1.5)
    m, v = exhaustive_opt_m("throughput", 1.0, 1.0, 1.0, lib, 3, 10)
    assert m == 0 and v == pytest.approx(1.0)


def test_exhaustive_see_needs_params():
    lib = ZipfLibrary(N=100, tau=1.5)
    with pytest.raises(ValueError):
        exhaustive_opt_m("see", 1.0, 1.0, 1.0, lib, 3, 10)


def test_optimize_allocation_dispatches_each_objective():
    psi = (3.0, 2.0, 1.0)
    params = ChannelParams(alpha=4.0, Ps=1.0, Pm=10.0, lambda_e=0.01)
    K, L = 3, 10
    for lib in (ZipfLibrary(N=1000, tau=1.2), ZipfLibrary(N=15, tau=1.2)):
        m_closed, m_ex, value = optimize_allocation("throughput", *psi,
                                                    params, lib, K, L)
        assert m_closed == optimal_mpc_allocation(*psi, lib, K, L)
        assert m_ex == exhaustive_opt_m("throughput", *psi, lib, K, L)[0]
        assert value(4) == overall_throughput(*psi, lib, K, L, 4)
        m_closed, m_ex, value = optimize_allocation("see", *psi, params,
                                                    lib, K, L)
        assert m_closed == opt_m_see(*psi, params, lib, K, L)
        assert m_ex == exhaustive_opt_m("see", *psi, lib, K, L,
                                        params=params)[0]
        assert value(4) == see(*psi, params, lib, K, L, 4)
    with pytest.raises(ValueError):
        optimize_allocation("latency", *psi, params, lib, K, L)


# ---------------------------------------------------------------------------
# designed codes through the allocation
# ---------------------------------------------------------------------------

def test_hybrid_allocation_dominates_pure_strategies():
    lay = standard_layout(3)
    params = ChannelParams(alpha=4.0, Ps=10 ** 2.5, Pm=10 ** 6.0,
                           lambda_e=0.002)
    lib = ZipfLibrary(N=100, tau=1.2)
    L, eps = 10, 0.2
    psi = per_scheme_psi(lay, params, eps)
    psi_d, psi_f, psi_b = psi[SchemeId.DBF], psi[SchemeId.FOT], \
        psi[SchemeId.BSR]
    omega = see(psi_d, psi_f, psi_b, params, lib, 3, L, 5)
    assert omega == pytest.approx(
        overall_throughput(psi_d, psi_f, psi_b, lib, 3, L, 5)
        / average_power(params, lib, 3, L, 5))

    m_star = optimal_mpc_allocation(psi_d, psi_f, psi_b, lib, 3, L)
    hybrid = overall_throughput(psi_d, psi_f, psi_b, lib, 3, L, m_star)
    for m in (0, L):  # all partitioned, all replicated
        assert hybrid >= overall_throughput(psi_d, psi_f, psi_b, lib, 3, L,
                                            m) - 1e-12

    # efficiency-optimal allocation dominates a full scan
    m_e = opt_m_see(psi_d, psi_f, psi_b, params, lib, 3, L)
    omega_best = see(psi_d, psi_f, psi_b, params, lib, 3, L, m_e)
    for m in range(0, L + 1):
        assert omega_best >= see(psi_d, psi_f, psi_b, params, lib, 3, L,
                                 m) - 1e-12


def test_tiny_eavesdropper_density_mixes_scheme_throughputs():
    lay = standard_layout(2)
    params = ChannelParams(alpha=4.0, Ps=10.0, Pm=10.0, lambda_e=1e-6)
    lib = ZipfLibrary(N=50, tau=1.5)
    psi = per_scheme_psi(lay, params, 0.3)
    psi_d, psi_f, psi_b = psi[SchemeId.DBF], psi[SchemeId.FOT], \
        psi[SchemeId.BSR]
    # negligible secrecy cost: every scheme delivers solid throughput and
    # the average is the probability mix of the three
    assert psi_d > psi_f > 0
    p_d, p_f, p_b = scheme_probs(lib, 2, 5, 2)
    mix = p_d * psi_d + p_f * psi_f + p_b * psi_b
    assert overall_throughput(psi_d, psi_f, psi_b, lib, 2, 5, 2) == \
        pytest.approx(mix)


@settings(max_examples=300, deadline=None)
@given(objective=st.sampled_from(["throughput", "see"]),
       psi=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
       K=st.integers(1, 10), L=st.integers(1, 30), N=st.integers(1, 400),
       tau=st.floats(0.1, 3.0), ps=st.floats(0.1, 10.0),
       pm=st.floats(0.0, 100.0))
def test_closed_form_allocation_is_worth_the_scan(objective, psi, K, L, N,
                                                  tau, ps, pm):
    # psi in any order, every capacity regime: outside the closed forms'
    # premise psi_D >= psi_F they return the scan's optimum
    params = ChannelParams(alpha=4.0, Ps=ps, Pm=pm, lambda_e=0.1)
    lib = ZipfLibrary(N=N, tau=tau)
    m_closed, _, value = optimize_allocation(objective, *psi, params, lib,
                                             K, L)
    _, v_scan = exhaustive_opt_m(objective, *psi, lib, K, L, params=params)
    assert value(m_closed) >= v_scan - TIE_TOL
