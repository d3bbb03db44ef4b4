"""Workload definitions: which CLI commands a job runs, on which scenarios.

A job is one regeneration of a workload's tables: every command below, run
in order through `cachesec.cli.main` inside one process. Scenarios come
from the run seed alone. The seed is the Monte Carlo seed of every
scenario, and `seed % VARIANTS` picks a variant that changes the outputs
but not the amount of work:

* outage-grid shifts every power sweep by 0, 0.25, 0.5 or 0.75 dB, which
  moves every point without changing the work per point; `refs.json` holds
  reference values for all four offsets.
* design and montecarlo keep their powers fixed: the bisection steps of
  each SOP inversion, and the number of eavesdroppers each Monte Carlo
  trial draws, change with the exact power. On design the variant sets the
  Zipf skewness tau to 1.2, 1.4, 1.6 or 1.8, which changes every cache
  allocation but not the inversions; on montecarlo the seed alone sets
  every random stream.

Kept free of numpy and cachesec imports at module level, so that the
set-up probe times only the program's own import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

VARIANTS = 4
NAMES = ("design", "montecarlo", "outage-grid")

# Scenario keys shared by every job: the program's default geometry and
# channel, written out so that a change of program defaults cannot change
# the benchmark.
BASE = {
    "r_s1_o": 1.0, "r_s": 0.5, "K": 3, "r_b_s1": 2.0, "alpha": 4.0,
    "Ps_dBw": 10.0, "Pm_dBw": 0.0, "lambda_e": 0.1, "epsilon": 0.2,
    "beta_t": 1.0, "beta_e": 1.0, "N": 100, "tau": 1.5, "L": 10,
}
# Outage-grid geometries; "spaced" is the wide layout whose small breach
# regions the program's polar grid under-resolves at low power. The grids
# run from GRID_START to 30 dBw in 1-dB steps; they reach down to where
# the known accuracy gaps of the beamforming COP (K = 8, spaced) show.
GEOMETRIES = {
    "K3": {},
    "K8": {"K": 8},
    "spaced": {"K": 6, "r_s": 2.0, "lambda_e": 1.0},
}
GRID_START = {"K3": 0.0, "K8": -10.0, "spaced": -30.0}
COARSE_STEP = 5.0  # dB, the design and Monte Carlo power sweeps
MC_THREADS = 2     # montecarlo runs the CLI thread pool at nproc = 2


@dataclass(frozen=True)
class Command:
    name: str              # label used in reports and output file names
    verb: str              # cachesec CLI command
    scenario: dict
    options: tuple = field(default=())

    def argv(self, config: str, out: str) -> list[str]:
        return [self.verb, "--config", config, "--out", out, *self.options]

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.scenario.items())


def ps_key(ps_dbw: float) -> str:
    """Key of one sweep power in refs.json."""
    return f"{ps_dbw:.4f}"


def offset_db(workload: str, seed: int) -> float:
    return 0.25 * (seed % VARIANTS) if workload == "outage-grid" else 0.0


def tau(seed: int) -> float:
    return 1.2 + 0.2 * (seed % VARIANTS)


def _scn(seed: int, **overrides) -> dict:
    return {**BASE, "seed": seed, **overrides}


def _ps_sweep(start: float, stop: float, step: float, off: float) -> dict:
    return {"sweep_var": "Ps_dBw", "sweep_start": start + off,
            "sweep_stop": stop + off, "sweep_step": step}


def commands(workload: str, seed: int) -> list[Command]:
    off = offset_db(workload, seed)
    coarse = _ps_sweep(0.0, 30.0, COARSE_STEP, off)
    if workload == "design":
        zipf = {"tau": tau(seed)}
        return [
            Command("caching-N", "caching", _scn(
                seed, Ps_dBw=10.0, sweep_var="N", sweep_start=50,
                sweep_stop=1000, sweep_step=50, **zipf)),
            Command("caching-see", "caching", _scn(
                seed, Pm_dBw=20.0, caching_objective="see", **coarse,
                **zipf)),
            Command("throughput-Ps", "throughput", _scn(
                seed, bsr_sop_model="exact", **coarse)),
            Command("throughput-Rs", "throughput", _scn(
                seed, Ps_dBw=10.0, sweep_var="Rs", sweep_start=0.0,
                sweep_stop=6.0, sweep_step=0.25)),
        ]
    if workload == "montecarlo":
        threads = ("--threads", str(MC_THREADS))
        return [
            Command("validate", "validate", _scn(seed, **coarse),
                    ("--trials", "200000", *threads)),
            Command("sop-sweep", "sop-sweep", _scn(seed, **coarse),
                    ("--trials", "20000", *threads)),
            Command("cop-sweep", "cop-sweep", _scn(seed, **coarse),
                    ("--trials", "1000000", *threads)),
        ]
    if workload == "outage-grid":
        out = []
        for geo, extra in GEOMETRIES.items():
            scn = _scn(seed, **extra,
                       **_ps_sweep(GRID_START[geo], 30.0, 1.0, off))
            for verb in ("cop-sweep", "sop-sweep"):
                out.append(Command(f"{verb[:3]}-{geo}", verb, scn,
                                   ("--trials", "0")))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str) -> None:
    """First call of every evaluator the workload uses.

    Fills the program's lazy state (quasi-random point sets, quadrature
    rules, BLAS start-up) so that timed jobs start warm; the set-up probe
    times the same calls in a fresh interpreter.
    """
    import warnings
    from cachesec import caching, montecarlo, outage, rates
    from cachesec.channel import ChannelParams, SchemeId
    from cachesec.layout import build_line_layout

    def geometry(extra):
        g = {**BASE, **extra}
        lay = build_line_layout(g["r_s1_o"], g["r_s"], g["K"], g["r_b_s1"])
        par = ChannelParams(alpha=g["alpha"], Ps=10.0, Pm=1.0,
                            lambda_e=g["lambda_e"])
        return lay, par

    lay, par = geometry({})
    sop_fns = (outage.sop_dbf, outage.sop_fot, outage.sop_bsr_exact)
    if workload == "design":
        for fn in sop_fns:
            fn(lay, par, 1.0)
        outage.sop_bsr_approx(par, 1.0)
        for opt in (rates.opt_bs_dbf, rates.opt_bs_fot, rates.opt_bs_bsr):
            opt(lay, par, 1.0)
        lib = caching.ZipfLibrary(N=100, tau=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            caching.optimal_mpc_allocation(1.0, 0.5, 0.2, lib, 3, 10)
            caching.opt_m_see(1.0, 0.5, 0.2, par, lib, 3, 10)
            caching.exhaustive_opt_m("see", 1.0, 0.5, 0.2, lib, 3, 10,
                                     params=par)
    elif workload == "montecarlo":
        for fn in (outage.cop_dbf_exact, outage.cop_dbf_asymptotic,
                   outage.cop_fot, outage.cop_bsr) + sop_fns:
            fn(lay, par, 1.0)
        outage.sop_bsr_approx(par, 1.0)
        for scheme in SchemeId:
            montecarlo.mc_cop(scheme, lay, par, 1.0,
                              montecarlo.McSettings(trials=1000, seed=1))
            montecarlo.mc_sop(scheme, lay, par, 1.0,
                              montecarlo.McSettings(trials=100, seed=1))
    elif workload == "outage-grid":
        for extra in GEOMETRIES.values():
            lay, par = geometry(extra)
            for fn in (outage.cop_dbf_exact, outage.cop_dbf_asymptotic,
                       outage.cop_fot, outage.cop_bsr) + sop_fns:
                fn(lay, par, 1.0)
    else:
        raise ValueError(f"unknown workload {workload!r}")
