"""Monte Carlo estimators for every outage probability.

These are the independent cross-checks for the analytic module. Trials are
split into fixed-size chunks; each chunk draws from the next child seed
spawned from the run seed, one child as the run reaches it, and the chunk
counts are summed in chunk order on the calling thread, so an estimate is
bit-identical across runs and its memory does not grow with the trial
count. (The CLI's worker pool runs one estimate per table cell.)

Each scheme's secrecy test reads one hop table, `_FieldTest.hops`: one entry
(power, transmitter xs, ys, d_max) per link an eavesdropper may decode. Most
sampled eavesdroppers are too far away to breach, so each field is tested in
stages. First every random number of the field is drawn: Poisson counts,
radial and angle variates and one fade per hop, always with the same calls,
shapes and order. A point's radial variate u puts it in one of BANDS
equal-area rings, the floor of u * BANDS (exact). Every transmitter of a hop
lies within d_max of the origin, so from a point of the ring it is at least
inner edge - d_max and at most outer edge + d_max away. From these, hops
that share a d_max get two fade thresholds per ring: below `keep` not even
their largest far-field power (power times transmitters) breaches, above
`sure` even their smallest does. Both distances are widened by PRUNE_SLACK
times edge + d_max, which dwarfs the rounding of coordinates and distances.
A trial that owns a sure point is an outage; only the kept points of
undecided trials get a radius, coordinates and the exact breach test, which
is elementwise per point (the beamforming row sum included). The draws do
not move, no breaching point is pruned and every sure point breaches, so
every estimate is bit-identical to testing all points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, SchemeId, dist_pow_neg
from .layout import NetworkLayout, distance
from .outage import OutageEstimate, sop_guards, trunc_radius

COP_CHUNK = 1 << 16
SOP_CHUNK = 1 << 11
# Relative widening of a ring's distance bounds, in units of edge + d_max.
PRUNE_SLACK = 1e-6
# Equal-area rings of the pruning tables, a power of two: u * BANDS is exact.
BANDS = 1 << 12
# Largest expected number of floats (radial and angle variates and fades of
# every point) that one field draw of a chunk may need: 512 MiB.
MAX_FIELD_FLOATS = 1 << 26


@dataclass(frozen=True)
class McSettings:
    """Budget and reproducibility knobs for one Monte Carlo estimate.

    Eavesdroppers are drawn on the disc of the analytic truncation radius.
    independent_hops redraws the eavesdropper field between the two relaying
    hops (matching the layout-free closed form). A relaying trial always
    serves from the SBS with the strongest faded channel.
    """

    trials: int
    seed: int
    independent_hops: bool = False

    def __post_init__(self):
        # bool is an int, and trials=True would run one trial
        if isinstance(self.trials, bool) or isinstance(self.seed, bool):
            raise ValueError("trials and seed must be integers, not bools")
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def _estimate(worker, trials: int, chunk: int, seed: int) -> OutageEstimate:
    """The failure fraction of worker(n, seq) over chunks of at most `chunk`
    trials, each seeded by the next child of the run seed (`spawn(1)` hands
    out the children of one `spawn(m)` in order), summed in chunk order."""
    root = np.random.SeedSequence(seed)
    failures = sum(worker(min(chunk, trials - start), root.spawn(1)[0])
                   for start in range(0, trials, chunk))
    p = failures / trials
    return OutageEstimate(p, math.sqrt(p * (1.0 - p) / trials))


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

    return _estimate(worker, settings.trials, COP_CHUNK, settings.seed)


def _disc_draws(rng, lam, n_real, r_sq):
    """Poisson points on the disc of squared radius r_sq: per-realization
    counts and the uniform variates behind the radii and the angles."""
    counts = rng.poisson(lam * (math.pi * r_sq), n_real)
    total = int(counts.sum())
    return counts, rng.random(total), rng.random(total)


def _owners(idx, counts):
    """Realization of each point of the sorted point index array idx."""
    per_real = np.diff(np.searchsorted(idx, np.cumsum(counts)), prepend=0)
    return np.repeat(np.arange(counts.size), per_real)


def _xy(u, u_ang, idx, r_sq):
    """Cartesian coordinates of the points idx of the disc of squared
    radius r_sq."""
    ang = 2.0 * math.pi * u_ang[idx]
    r = np.sqrt(u[idx] * r_sq)
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
        # (hops, keep, sure) per d_max over the ring edges; a hop of zero
        # power (Pm = 0) joins none. Overflow reads inf (pruned, never sure);
        # an infinite radius, nan tables that mc_sop refuses before any draw
        self.bounds = []
        with np.errstate(over="ignore", invalid="ignore"):
            edges = self.radius * np.sqrt(np.arange(BANDS + 1) / BANDS)
            for d_max in dict.fromkeys(hop[3] for hop in self.hops):
                group = [h for h, hop in enumerate(self.hops)
                         if hop[3] == d_max and far[h] > 0.0]
                powers = [far[h] for h in group] or [1.0]
                gap = edges[:-1] * (1.0 - PRUNE_SLACK) \
                    - d_max * (1.0 + PRUNE_SLACK)
                reach = (edges[1:] + d_max) * (1.0 + PRUNE_SLACK)
                self.bounds.append((
                    group, beta_e * np.maximum(gap, 0.0) ** params.alpha
                    / max(powers), beta_e * reach ** params.alpha / min(powers)))

    def draw_fades(self, rng, m: int) -> np.ndarray:
        """Fades of m points: row h holds hop h's."""
        if self.point_major:
            return rng.standard_exponential((m, len(self.hops))).T
        return rng.standard_exponential((len(self.hops), m))

    def may_breach(self, u, fades, hops, sure=False) -> np.ndarray:
        """Points of radial variates u (fade row h: hop h's) that may breach
        on the hops `hops`: False only for points that cannot. With sure,
        the points that must: True only for points that breach."""
        # the ring: u * BANDS is exact and the cast truncates it, with no
        # float temporary of every point as astype would take
        band = np.multiply(u, BANDS, out=np.empty(u.size, np.intp),
                           casting="unsafe")
        hit = np.zeros(u.size, dtype=bool)
        for group, keep, must in self.bounds:
            group = [h for h in group if h in hops]
            if not group:
                continue
            fade = fades[group[0]] if len(group) == 1 \
                else fades[group[0]].copy()
            for h in group[1:]:
                np.maximum(fade, fades[h], out=fade)
            hit |= fade > must.take(band) if sure else fade >= keep.take(band)
        return hit

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
    if (guard := sop_guards(params, beta_e)) is not None:
        return guard
    lam = params.lambda_e
    test = _FieldTest(scheme, layout, params, beta_e)
    r_sq = test.radius * test.radius
    points = lam * min(settings.trials, SOP_CHUNK) * (math.pi * r_sq)
    # a radial and an angle variate per point, and one fade per hop
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
        # the serving SBS of each relaying trial: its strongest faded channel
        kstar = np.argmax(rng.standard_exponential((n, K)) * r_neg,
                          axis=1) if relaying else None
        out = np.zeros(n, dtype=bool)
        for hops in fields:
            counts, u, u_ang = _disc_draws(rng, lam, n, r_sq)
            fades = test.draw_fades(rng, u.size)
            idx = np.flatnonzero(test.may_breach(u, fades, hops))
            owner = _owners(idx, counts)
            out[owner[test.may_breach(u[idx], fades[:, idx], hops,
                                      sure=True)]] = True
            # only the kept points of undecided trials need the exact test
            live = ~out[owner]
            idx, owner = idx[live], owner[live]
            px, py = _xy(u, u_ang, idx, r_sq)
            serving = None if kstar is None else kstar[owner]
            out[owner[test.breaches(px, py, idx, fades, serving, hops)]] = True
        return int(out.sum())

    return _estimate(worker, settings.trials, SOP_CHUNK, settings.seed)
