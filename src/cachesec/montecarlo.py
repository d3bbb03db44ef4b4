"""Monte Carlo estimators for every outage probability.

These are the independent cross-checks for the analytic module. Trials are
split into fixed-size chunks; each chunk owns a child seed spawned from the
run seed and the chunk counts are summed in chunk order on the calling
thread, so an estimate is bit-identical across runs. (The CLI's worker pool
runs one estimate per table cell.)

Most sampled eavesdroppers are too far away to breach, so each field is
tested in two stages. First every random number of the field is drawn:
Poisson counts, radii, angle variates and fades, always with the same
calls, shapes and order. Then a conservative bound prunes the points: every
transmitter of a hop lies within d_max of the origin, so an eavesdropper at
origin distance |e| is at least |e| - d_max away from it and its SNR is at
most power * fade * (|e| - d_max)^-alpha (power is K*Ps for beamforming,
K*Ps times the largest of the K fades for orthogonal partitions, Pm or Ps
for a relaying hop). The gap |e| - d_max is shrunk by PRUNE_SLACK times
|e| + d_max, which dwarfs the rounding of the coordinates and distances,
and points with no gap left always survive. Only the survivors get
coordinates, distances and the exact breach test, which is elementwise per
point (the beamforming row sum included). The draws do not move and no
breaching point is pruned, so every estimate is bit-identical to testing
all points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, SchemeId, dist_pow_neg
from .layout import NetworkLayout
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
    fails: the beamformed sum SNR, every orthogonal partition, or the best
    relay branch falls below beta_t.
    """
    if beta_t < 0.0:
        raise ValueError("beta_t must be nonnegative")
    r = layout.sbs_distances()
    K = layout.K
    r_neg = r ** -params.alpha
    r_neg_half = r ** (-params.alpha / 2.0)

    @np.errstate(over="ignore")  # an SNR overflowed to inf compares right
    def worker(n: int, seq) -> int:
        rng = np.random.default_rng(seq)
        g = rng.standard_exponential((n, K))
        if scheme is SchemeId.DBF:
            # the BLAS summation order of the matrix product sets the bits
            amp = np.sqrt(g) @ r_neg_half
            fail = params.Ps * amp * amp < beta_t
        elif scheme is SchemeId.FOT:
            # column passes with the products of the row form: exact, and
            # much cheaper than reducing over the short last axis
            fail = np.zeros(n, dtype=bool)
            for k in range(K):
                fail |= K * params.Ps * g[:, k] * r_neg[k] < beta_t
        elif scheme is SchemeId.BSR:
            best = params.Ps * g[:, 0] * r_neg[0]
            for k in range(1, K):
                np.maximum(best, params.Ps * g[:, k] * r_neg[k], out=best)
            fail = best < beta_t
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        return int(fail.sum())

    failures = _run_chunks(worker, _chunk_plan(settings.trials, COP_CHUNK),
                           settings.seed)
    return _binomial_estimate(failures, settings.trials)


def _mc_disc_radius(scheme: SchemeId, layout: NetworkLayout,
                    params: ChannelParams, beta_e: float) -> float:
    """The analytic truncation radius of the scheme's breach integrand."""
    r = layout.sbs_distances()
    if scheme is SchemeId.BSR:
        return trunc_radius(max(layout.mbs.r, float(r.max())),
                            max(params.Pm, params.Ps), beta_e, params.alpha)
    return trunc_radius(float(r.max()), layout.K * params.Ps, beta_e,
                        params.alpha)


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


def _may_breach(rad, power_fade, d_max: float, alpha: float,
                beta_e: float) -> np.ndarray:
    """False only where power_fade * (rad - d_max)^-alpha, the largest SNR a
    transmitter within d_max of the origin can give a point at radius rad,
    stays below beta_e with the PRUNE_SLACK margin. Points with no gap
    left always survive."""
    gap = rad * (1.0 - PRUNE_SLACK)
    gap -= d_max * (1.0 + PRUNE_SLACK)
    np.maximum(gap, 0.0, out=gap)
    with np.errstate(over="ignore"):
        gap **= alpha
        gap *= beta_e
    return power_fade >= gap


class _FieldTest:
    """One scheme's breach test on an eavesdropper field, in two stages:
    the conservative pruning bound on every point, the exact test on the
    survivors. hops = (hop 1, hop 2) selects the relaying hops a field is
    tested on (both for a shared field); the other schemes ignore it."""

    def __init__(self, scheme: SchemeId, layout: NetworkLayout,
                 params: ChannelParams, beta_e: float):
        self.scheme, self.params, self.beta_e = scheme, params, beta_e
        self.K = layout.K
        self.sx, self.sy = layout.sbs_xy()
        self.r_sbs = float(layout.sbs_distances().max())
        self.mbs = layout.mbs
        # one fade per point, one per partition, or one per relaying hop
        self.fades_per_point = (1 if scheme is SchemeId.DBF
                                else self.K if scheme is SchemeId.FOT else 2)

    def draw_fades(self, rng, m: int) -> tuple:
        """Fades of m points, one array per hop or partition set."""
        if self.scheme is SchemeId.DBF:
            return (rng.standard_exponential(m),)
        if self.scheme is SchemeId.FOT:
            return (rng.standard_exponential((m, self.K)),)
        # relaying draws both hops' fades, also for a field testing one hop
        return rng.standard_exponential(m), rng.standard_exponential(m)

    def may_breach(self, rad, fades, hops) -> np.ndarray:
        """Pruning mask: False only for points that cannot breach."""
        p, a, b = self.params, self.params.alpha, self.beta_e
        if self.scheme is SchemeId.DBF:
            return _may_breach(rad, self.K * p.Ps * fades[0], self.r_sbs, a, b)
        if self.scheme is SchemeId.FOT:
            f = fades[0]
            f_max = f[:, 0].copy()
            for k in range(1, self.K):
                np.maximum(f_max, f[:, k], out=f_max)
            return _may_breach(rad, self.K * p.Ps * f_max, self.r_sbs, a, b)
        keep = np.zeros(rad.size, dtype=bool)
        if hops[0]:
            keep |= _may_breach(rad, p.Pm * fades[0], self.mbs.r, a, b)
        if hops[1]:
            keep |= _may_breach(rad, p.Ps * fades[1], self.r_sbs, a, b)
        return keep

    def breaches(self, px, py, idx, fades, serving, hops) -> np.ndarray:
        """Exact breach test of the points idx at (px, py); serving holds
        their serving SBS index (relaying only)."""
        p, alpha, beta_e = self.params, self.params.alpha, self.beta_e
        if self.scheme is SchemeId.DBF:
            d_sq = (px[:, None] - self.sx[None, :]) ** 2 \
                + (py[:, None] - self.sy[None, :]) ** 2
            mean = p.Ps * dist_pow_neg(d_sq, alpha).sum(axis=1)
            return mean * fades[0][idx] > beta_e
        hit = np.zeros(idx.size, dtype=bool)
        if self.scheme is SchemeId.FOT:
            # partition by partition, with the elementwise products of the
            # (points, K) form
            for k in range(self.K):
                d_sq = (px - self.sx[k]) ** 2 + (py - self.sy[k]) ** 2
                hit |= self.K * p.Ps * dist_pow_neg(d_sq, alpha) \
                    * fades[0][idx, k] > beta_e
            return hit
        # relaying: hop 1 from the MBS, hop 2 from the serving SBS
        if hops[0]:
            db_sq = (px - self.mbs.x) ** 2 + (py - self.mbs.y) ** 2
            hit |= p.Pm * dist_pow_neg(db_sq, alpha) * fades[0][idx] > beta_e
        if hops[1]:
            ds_sq = (px - self.sx[serving]) ** 2 + (py - self.sy[serving]) ** 2
            hit |= p.Ps * dist_pow_neg(ds_sq, alpha) * fades[1][idx] > beta_e
        return hit


def mc_sop(scheme: SchemeId, layout: NetworkLayout, params: ChannelParams,
           beta_e: float, settings: McSettings) -> OutageEstimate:
    """Estimate a secrecy outage probability over Poisson eavesdropper fields.

    A realization counts as an outage when any sampled eavesdropper breaches
    the scheme's secrecy condition: its (exponentially faded) SNR on any
    partition, or on either relaying hop, exceeds beta_e. With
    independent_hops the two relaying hops see two independent fields.
    With no eavesdroppers (lambda_e = 0) the estimate is exactly 0; with
    beta_e = 0 every eavesdropper of the unbounded field breaches and it is
    exactly 1, flagged "divergent" like the analytic evaluators. Raises
    ValueError before any draw when one field draw of a chunk would need
    more than MAX_FIELD_FLOATS floats on average.
    """
    guard = sop_guards(params, beta_e, METHOD_MC)
    if guard is not None:
        return guard
    lam = params.lambda_e
    radius = _mc_disc_radius(scheme, layout, params, beta_e)
    if scheme is SchemeId.BSR and settings.independent_hops:
        fields = [(True, False), (False, True)]
    else:
        fields = [(True, True)]
    test = _FieldTest(scheme, layout, params, beta_e)
    points = lam * min(settings.trials, SOP_CHUNK) \
        * (math.pi * (radius * radius))
    if points * (2 + test.fades_per_point) > MAX_FIELD_FLOATS:
        raise ValueError(
            f"eavesdropper field too large for Monte Carlo: {points:.3g} "
            f"expected points per field draw of a chunk (at most "
            f"{MAX_FIELD_FLOATS} floats)")
    K = layout.K
    r_neg = layout.sbs_distances() ** -params.alpha

    def field_outage(rng, n, kstar, hops):
        """Outage indicators contributed by one field."""
        counts, rad, u_ang = _disc_draws(rng, lam, n, radius)
        fades = test.draw_fades(rng, rad.size)
        idx = np.flatnonzero(test.may_breach(rad, fades, hops))
        owner = _owners(idx, counts)
        px, py = _xy(rad, u_ang, idx)
        serving = None if kstar is None else kstar[owner]
        out = np.zeros(n, dtype=bool)
        out[owner[test.breaches(px, py, idx, fades, serving, hops)]] = True
        return out

    def worker(n: int, seq) -> int:
        rng = np.random.default_rng(seq)
        kstar = None
        if scheme is SchemeId.BSR:
            if settings.bsr_serving == "fading":
                kstar = np.argmax(rng.standard_exponential((n, K)) * r_neg, axis=1)
            else:
                kstar = np.zeros(n, dtype=int)
        out = np.zeros(n, dtype=bool)
        for hops in fields:
            out |= field_outage(rng, n, kstar, hops)
        return int(out.sum())

    failures = _run_chunks(worker, _chunk_plan(settings.trials, SOP_CHUNK),
                           settings.seed)
    return _binomial_estimate(failures, settings.trials)
