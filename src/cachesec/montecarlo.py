"""Monte Carlo estimators for every outage probability.

These are the independent cross-checks for the analytic module. Trials are
split into fixed-size chunks; each chunk owns a child seed spawned from the
run seed and the chunk counts are summed in chunk order on the calling
thread, so an estimate is bit-identical across runs. (The CLI's worker pool
runs one estimate per table cell.)

Each scheme's secrecy test reads one hop table, `_FieldTest.hops`: one entry
(power, transmitter xs, ys, d_max) per link an eavesdropper may decode. Most
sampled eavesdroppers are too far away to breach, so each field is tested in
two stages. First every random number of the field is drawn: Poisson
counts, radii, angle variates and one fade per hop, always with the same
calls, shapes and order. Then a conservative bound prunes the points: every
transmitter of a hop lies within d_max of the origin, so an eavesdropper at
origin distance |e| is at least |e| - d_max away from it and the hop's SNR
is at most its far-field power (power times transmitters) * fade *
(|e| - d_max)^-alpha; hops that share a d_max share one bound. The gap
|e| - d_max is shrunk by PRUNE_SLACK times |e| + d_max, which dwarfs the
rounding of the coordinates and distances, and points with no gap left
always survive. Only the survivors get coordinates, distances and the exact
breach test, which is elementwise per point (the beamforming row sum
included). The draws do not move and no breaching point is pruned, so every
estimate is bit-identical to testing all points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, SchemeId, dist_pow_neg
from .layout import NetworkLayout, distance
from .outage import METHOD_MC, OutageEstimate, sop_guards, trunc_radius

COP_CHUNK = 1 << 16
SOP_CHUNK = 1 << 11
# Relative shrink of the pruning gap |e| - d_max, in units of |e| + d_max.
PRUNE_SLACK = 1e-6
# Largest expected number of floats (radius, angle variate and fades of
# every point) that one field draw of a chunk may need: 512 MiB.
MAX_FIELD_FLOATS = 1 << 26


@dataclass(frozen=True)
class McSettings:
    """Budget and reproducibility knobs for one Monte Carlo estimate.

    Eavesdroppers are drawn on the disc of the analytic truncation radius.
    independent_hops redraws the eavesdropper field between the two relaying
    hops (matching the layout-free closed form). bsr_serving picks how the
    relaying SBS is chosen: "fading" follows the actual channel draw,
    "nearest" pins it to the SBS closest to the user like the analytic
    evaluator does.
    """

    trials: int
    seed: int
    independent_hops: bool = False
    bsr_serving: str = "fading"

    def __post_init__(self):
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.bsr_serving not in ("fading", "nearest"):
            raise ValueError("bsr_serving must be 'fading' or 'nearest'")


def _chunk_plan(trials: int, chunk: int) -> list[int]:
    sizes = [chunk] * (trials // chunk)
    if trials % chunk:
        sizes.append(trials % chunk)
    return sizes


def _run_chunks(worker, sizes, seed: int) -> int:
    seqs = np.random.SeedSequence(seed).spawn(len(sizes))
    return int(sum(worker(n, s) for n, s in zip(sizes, seqs)))


def _binomial_estimate(failures: int, trials: int) -> OutageEstimate:
    p = failures / trials
    return OutageEstimate(p, METHOD_MC, math.sqrt(p * (1.0 - p) / trials))


def mc_cop(scheme: SchemeId, layout: NetworkLayout, params: ChannelParams,
           beta_t: float, settings: McSettings) -> OutageEstimate:
    """Estimate a connection outage probability by direct fading simulation.

    Counts the fraction of draws where the scheme's decoding condition
    fails: the beamformed sum SNR, the weakest orthogonal partition, or the
    best relay branch falls below beta_t.
    """
    scheme = SchemeId(scheme)
    if beta_t < 0.0:
        raise ValueError("beta_t must be nonnegative")
    r = layout.sbs_distances()
    K = layout.K
    r_neg = r ** -params.alpha
    r_neg_half = r ** (-params.alpha / 2.0)
    # each link's power; the partitions fail when any link does, a relay
    # when every branch does
    power, combine = {SchemeId.DBF: (params.Ps, None),
                      SchemeId.FOT: (K * params.Ps, np.logical_or),
                      SchemeId.BSR: (params.Ps, np.logical_and)}[scheme]

    @np.errstate(over="ignore")  # an SNR overflowed to inf compares right
    def worker(n: int, seq) -> int:
        rng = np.random.default_rng(seq)
        g = rng.standard_exponential((n, K))
        if scheme is SchemeId.DBF:
            # the BLAS summation order of the matrix product sets the bits
            amp = np.sqrt(g) @ r_neg_half
            return int((power * amp * amp < beta_t).sum())
        # column passes with the products of the row form: exact, and much
        # cheaper than reducing over the short last axis
        fail = power * g[:, 0] * r_neg[0] < beta_t
        for k in range(1, K):
            combine(fail, power * g[:, k] * r_neg[k] < beta_t, out=fail)
        return int(fail.sum())

    failures = _run_chunks(worker, _chunk_plan(settings.trials, COP_CHUNK),
                           settings.seed)
    return _binomial_estimate(failures, settings.trials)


def _disc_draws(rng, lam, n_real, radius):
    """Poisson points on the disc of the given radius: per-realization
    counts, radii, and the uniform variates behind the angles."""
    r_sq = radius * radius
    counts = rng.poisson(lam * (math.pi * r_sq), n_real)
    total = int(counts.sum())
    rad = rng.random(total)
    rad *= r_sq
    np.sqrt(rad, out=rad)
    return counts, rad, rng.random(total)


def _owners(idx, counts):
    """Realization of each point of the sorted point index array idx."""
    per_real = np.diff(np.searchsorted(idx, np.cumsum(counts)), prepend=0)
    return np.repeat(np.arange(counts.size), per_real)


def _xy(rad, u_ang, idx):
    """Cartesian coordinates of the points idx."""
    ang = 2.0 * math.pi * u_ang[idx]
    r = rad[idx]
    return r * np.cos(ang), r * np.sin(ang)


class _FieldTest:
    """One scheme's breach test on an eavesdropper field, read from its hop
    table. A hop's SNR at a point is power * fade * sum over its
    transmitters of d^-alpha. Beamforming is one hop from all SBSs at Ps,
    each partition its own hop at K*Ps, relaying the MBS hop at Pm plus the
    serving-SBS hop at Ps, whose (K, 1) coordinate columns list the
    candidates each trial picks from. The table is written here, not taken
    from `outage.breach_links`, so that the simulation stays an independent
    check of that description. `hops` names the hops a field is tested on,
    by table index; every field draws the fades of all hops."""

    def __init__(self, scheme: SchemeId, layout: NetworkLayout,
                 params: ChannelParams, beta_e: float):
        self.params, self.beta_e = params, beta_e
        K, Ps, mbs = layout.K, params.Ps, layout.mbs
        sx, sy = layout.sbs_xy()
        r_sbs = float(layout.sbs_distances().max())
        # partition fades are drawn point-major, (m, K); the relaying hops
        # one after the other
        self.hops, self.point_major = {
            SchemeId.DBF: ([(Ps, sx, sy, r_sbs)], False),
            SchemeId.FOT: ([(K * Ps, sx[k:k + 1], sy[k:k + 1], r_sbs)
                            for k in range(K)], True),
            SchemeId.BSR: ([(params.Pm, np.array([mbs.real]),
                             np.array([mbs.imag]), distance(mbs)),
                            (Ps, sx[:, None], sy[:, None], r_sbs)],
                           False)}[scheme]
        far = [power * xs.shape[-1] for power, xs, _, _ in self.hops]
        # the analytic truncation radius of the breach integrand
        self.radius = trunc_radius(max(hop[3] for hop in self.hops),
                                   max(far), beta_e, params.alpha)
        # d_max -> (largest far-field power, hops) of one pruning bound
        self.bounds: dict[float, tuple[float, list[int]]] = {}
        for h, hop in enumerate(self.hops):
            power, group = self.bounds.get(hop[3], (0.0, []))
            self.bounds[hop[3]] = (max(power, far[h]), group + [h])

    def draw_fades(self, rng, m: int) -> np.ndarray:
        """Fades of m points: row h holds hop h's."""
        if self.point_major:
            return rng.standard_exponential((m, len(self.hops))).T
        return rng.standard_exponential((len(self.hops), m))

    def may_breach(self, rad, fades, hops) -> np.ndarray:
        """Pruning mask: False only for points that cannot breach. The bound
        of hops that share a d_max is their largest far-field power times
        their largest fade."""
        keep = None
        for d_max, (power, group) in self.bounds.items():
            group = [h for h in group if h in hops]
            if not group:
                continue
            fade = fades[group[0]] if len(group) == 1 \
                else fades[group[0]].copy()
            for h in group[1:]:
                np.maximum(fade, fades[h], out=fade)
            gap = rad * (1.0 - PRUNE_SLACK)
            gap -= d_max * (1.0 + PRUNE_SLACK)
            np.maximum(gap, 0.0, out=gap)
            # gap^alpha as (gap^2)^(alpha/2): numpy squares, with no pow, at 4
            with np.errstate(over="ignore"):
                gap *= gap
                gap **= 0.5 * self.params.alpha
                gap *= self.beta_e
            mask = power * fade >= gap
            keep = mask if keep is None else keep | mask
        return keep

    def breaches(self, px, py, idx, fades, serving, hops) -> np.ndarray:
        """Exact breach test of the points idx at (px, py); serving holds
        the candidate their trial picks (relaying only)."""
        hit = np.zeros(idx.size, dtype=bool)
        for h in hops:
            power, xs, ys, _ = self.hops[h]
            if xs.ndim == 2:  # candidates, one per row: the serving SBS
                d_sq = ((px - xs[:, 0][serving]) ** 2
                        + (py - ys[:, 0][serving]) ** 2)[:, None]
            else:
                d_sq = (px[:, None] - xs) ** 2 + (py[:, None] - ys) ** 2
            snr = power * dist_pow_neg(d_sq, self.params.alpha).sum(axis=1)
            hit |= snr * fades[h][idx] > self.beta_e
        return hit


def mc_sop(scheme: SchemeId, layout: NetworkLayout, params: ChannelParams,
           beta_e: float, settings: McSettings) -> OutageEstimate:
    """Estimate a secrecy outage probability over Poisson eavesdropper fields.

    A realization counts as an outage when any sampled eavesdropper breaches
    the scheme's secrecy condition: its (exponentially faded) SNR on any hop
    exceeds beta_e. With independent_hops the two relaying hops see two
    independent fields. With no eavesdroppers (lambda_e = 0) the estimate is
    exactly 0; with beta_e = 0 every eavesdropper of the unbounded field
    breaches and it is exactly 1, flagged "divergent" like the analytic
    evaluators. Raises ValueError before any draw for an unknown scheme, or
    when one field draw of a chunk would need more than MAX_FIELD_FLOATS
    floats on average.
    """
    scheme = SchemeId(scheme)
    guard = sop_guards(params, beta_e, METHOD_MC)
    if guard is not None:
        return guard
    lam = params.lambda_e
    test = _FieldTest(scheme, layout, params, beta_e)
    radius = test.radius
    points = lam * min(settings.trials, SOP_CHUNK) \
        * (math.pi * (radius * radius))
    # a radius and an angle variate per point, and one fade per hop
    if points * (2 + len(test.hops)) > MAX_FIELD_FLOATS:
        raise ValueError(
            f"eavesdropper field too large for Monte Carlo: {points:.3g} "
            f"expected points per field draw of a chunk (at most "
            f"{MAX_FIELD_FLOATS} floats)")
    relaying = scheme is SchemeId.BSR
    if relaying and settings.independent_hops:
        fields = [(0,), (1,)]
    else:
        fields = [tuple(range(len(test.hops)))]
    K = layout.K
    r_neg = layout.sbs_distances() ** -params.alpha

    def worker(n: int, seq) -> int:
        rng = np.random.default_rng(seq)
        kstar = None
        if relaying:
            if settings.bsr_serving == "fading":
                kstar = np.argmax(rng.standard_exponential((n, K)) * r_neg, axis=1)
            else:
                kstar = np.zeros(n, dtype=int)
        out = np.zeros(n, dtype=bool)
        for hops in fields:
            counts, rad, u_ang = _disc_draws(rng, lam, n, radius)
            fades = test.draw_fades(rng, rad.size)
            idx = np.flatnonzero(test.may_breach(rad, fades, hops))
            owner = _owners(idx, counts)
            px, py = _xy(rad, u_ang, idx)
            serving = None if kstar is None else kstar[owner]
            out[owner[test.breaches(px, py, idx, fades, serving, hops)]] = True
        return int(out.sum())

    failures = _run_chunks(worker, _chunk_plan(settings.trials, SOP_CHUNK),
                           settings.seed)
    return _binomial_estimate(failures, settings.trials)
