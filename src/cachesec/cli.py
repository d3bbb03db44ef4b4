"""Experiment runner.

Reproduces the model's standard experiments as CSV data files: outage
sweeps over SBS power, secrecy-throughput curves, cache-allocation sweeps,
and a validation mode pitting every analytic expression against its Monte
Carlo estimate.

Verbs:
    cop-sweep    connection outage vs SBS power for all three schemes
    sop-sweep    secrecy outage vs SBS power (both relaying SOP forms)
    throughput   psi(Rs) curves, or optimized psi*(Ps) when sweeping power
    caching      allocation sweep over N or Ps: hybrid vs all-replicated
                 vs all-partitioned, closed-form vs exhaustive optimum
    validate     analytic-vs-Monte-Carlo agreement table with 3-sigma flags

Each verb builds the columns and rows of one table, one pool task per
(sweep point, cell); main checks the sweep axis against the axes the verb
accepts (_COMMANDS) and writes the table. cop-sweep, sop-sweep and
validate draw their cells from one evaluator table per outage kind. A
throughput or caching power sweep inverts the beamforming and partition SOPs
once per table, before the pool starts (rates.power_sweep_roots).

A scenario file is a flat "key = value" text file (or a JSON object with
the same keys); unknown and repeated keys are errors, not warnings, because
a silently ignored setting would invalidate any comparison. Each Scenario field
declares its key's default and legal range together; loading checks every
key against its range, then the rules that join keys, and builds the
sweep's points once (Scenario.sweep_points), the list every table maps.
Powers are in dBw; Scenario.params converts them to linear where a command
builds the channel of a sweep point. Every output embeds the scenario,
tool version and seed, and reruns with the same seed are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical infeasibility.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal
from functools import partial
from pathlib import Path

from . import __version__, caching, montecarlo, outage, rates
from .channel import ChannelParams, SchemeId
from .layout import NetworkLayout, build_line_layout, distance


class ConfigError(Exception):
    """Malformed scenario file or invalid option combination."""


# Powers beyond +-3000 dBw leave the range of a positive finite float.
DBW_LIMIT = 3000.0
# 2^Rs - 1 overflows a float from Rs = 1024 bits on.
RS_LIMIT = 1024.0
# Loading builds every sweep point; a step of 1e-9 dB would ask for 3e10.
MAX_SWEEP_POINTS = 10_000
# The cell pool submits every task at once and so starts all its threads.
MAX_THREADS = 256


def _key(default, rule: str, ok):
    """A scenario key's default and legal range: ok(value) must hold, and
    the error message says the value must be rule."""
    return field(default=default, metadata={"rule": rule, "ok": ok})


def _choice(*names: str):
    return _key(names[0], "|".join(names), lambda v: v in names)


_DBW = (f"within +-{DBW_LIMIT:g}", lambda v: abs(v) <= DBW_LIMIT)
_N = ("an integer >= 1", lambda v: v >= 1 and v % 1 == 0)
# the legal points of each sweep axis and their type: those of its key, or
# for Rs those whose 2^Rs - 1 is a finite float
_SWEEP_RANGES = {"Ps_dBw": (*_DBW, float), "N": (*_N, int),
                 "Rs": (f"below {RS_LIMIT:g} and >= 0",
                        lambda v: 0.0 <= v < RS_LIMIT, float)}


@dataclass(frozen=True)
class Scenario:
    """Every knob of an experiment, as read from a scenario file, with its
    default and legal range; sweep_points lists the sweep's points."""

    # geometry
    r_s1_o: float = _key(1.0, "> 0", lambda v: v > 0.0)
    r_s: float = _key(0.5, "> 0", lambda v: v > 0.0)
    K: int = _key(3, ">= 1", lambda v: v >= 1)
    r_b_s1: float = _key(2.0, "> 0", lambda v: v > 0.0)
    # channel (powers in dBw)
    alpha: float = _key(4.0, "> 2", lambda v: v > 2.0)
    Ps_dBw: float = _key(10.0, *_DBW)
    Pm_dBw: float = _key(0.0, *_DBW)
    lambda_e: float = _key(0.1, ">= 0", lambda v: v >= 0.0)
    # wiretap code / secrecy
    epsilon: float = _key(0.2, "in (0, 1)", lambda v: 0.0 < v < 1.0)
    beta_t: float = _key(1.0, ">= 0", lambda v: v >= 0.0)
    beta_e: float = _key(1.0, ">= 0", lambda v: v >= 0.0)
    bsr_sop_model: str = _choice("approx", "exact")
    # caching
    N: int = _key(100, *_N)
    tau: float = _key(1.5, "> 0", lambda v: v > 0.0)
    L: int = _key(10, ">= 1", lambda v: v >= 1)
    caching_objective: str = _choice("throughput", "see")
    # monte carlo
    trials: int | None = _key(None, ">= 0", lambda v: v is None or v >= 0)
    seed: int = _key(12345, ">= 0", lambda v: v >= 0)
    threads: int = _key(1, f"in [1, {MAX_THREADS}]",
                        lambda v: 1 <= v <= MAX_THREADS)
    # sweep axis
    sweep_var: str = _choice("Ps_dBw", "Rs", "N")
    sweep_start: float = 0.0
    sweep_stop: float = 30.0
    sweep_step: float = _key(5.0, "> 0", lambda v: v > 0.0)

    def __post_init__(self):
        """Reject a scenario no experiment can run, on load (exit code 2):
        every float finite and every key in its declared range, then the
        rules that join keys (the sweep's points, geometry)."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if "ok" in f.metadata and not f.metadata["ok"](value):
                raise ConfigError(f"{f.name} must be {f.metadata['rule']}, "
                                  f"got {value}")
        low, high, step = self.sweep_start, self.sweep_stop, self.sweep_step
        if high < low:
            raise ConfigError(f"sweep_stop must be >= sweep_start = {low}, "
                              f"got {high}")
        # the points low + i step through high (to 1e-9 of a step), each
        # summed in the decimals written and rounded once, so that 0.1-steps
        # from -2.3 reach 0; their count is bounded before any is built
        low, high, step = (Decimal(str(v)) for v in (low, high, step))
        count = (high - low) / step + Decimal("1e-9")
        if not count < MAX_SWEEP_POINTS:
            raise ConfigError(f"a sweep has at most {MAX_SWEEP_POINTS} points")
        points = [float(low + i * step) for i in range(int(count) + 1)]
        rule, ok, cast = _SWEEP_RANGES[self.sweep_var]
        if not all(map(ok, points)):
            raise ConfigError(f"{self.sweep_var} sweep must stay {rule}")
        points = [cast(v) for v in points]
        if len({_fmt(v) for v in points}) < len(points):
            raise ConfigError("sweep points must print apart to 12 digits")
        object.__setattr__(self, "sweep_points", tuple(points))
        try:
            lay = self.layout()
        except ValueError as exc:  # a coordinate overflowed to inf
            raise ConfigError(f"geometry is not finite: {exc}") from exc
        # K d^alpha and K d^-alpha (sums over SBSs) stay normal floats
        bound = 708.0 - math.log(self.K)
        if not all(abs(self.alpha * math.log(distance(p))) < bound
                   for p in (lay.mbs, *lay.sbs)):
            raise ConfigError(f"geometry leaves the float range: |alpha log(d)|"
                              f" must be < {bound:g} at every BS distance d")

    def layout(self) -> NetworkLayout:
        return build_line_layout(self.r_s1_o, self.r_s, self.K, self.r_b_s1)

    def params(self, ps_dbw: float | None = None) -> ChannelParams:
        """The channel in linear units, at SBS power ps_dbw (a sweep point)
        in place of Ps_dBw when it is given."""
        ps = self.Ps_dBw if ps_dbw is None else ps_dbw
        return ChannelParams(alpha=self.alpha, Ps=dbw_to_linear(ps),
                             Pm=dbw_to_linear(self.Pm_dBw),
                             lambda_e=self.lambda_e)

    def header_items(self) -> list[str]:
        # threads changes no table, so no table names it
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)
                if f.name != "threads"]


def dbw_to_linear(p_dbw: float) -> float:
    return 10.0 ** (p_dbw / 10.0)


# The type of every scenario key, read from its Scenario annotation
# (int | None reads as int: a scenario file cannot write None).
_TYPES = {key: (typing.get_args(hint) or (hint,))[0]
          for key, hint in typing.get_type_hints(Scenario).items()}


def parse_scenario_text(text: str, source: str = "<config>") -> Scenario:
    """Parse a scenario from flat key=value lines or a JSON object.

    Both formats share one check: every key is a Scenario field, set once,
    and its value is read by the field's type from the value's text, so a
    JSON 4.7 is no more an integer than a 4.7 in a key = value line.
    """
    if text.lstrip().startswith("{"):
        try:
            # text starting with "{" is an object: its members, repeats kept
            data = json.loads(text, object_pairs_hook=list)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON: {exc}") from exc
        items = [(f"{source}: member {n}", key, raw)
                 for n, (key, raw) in enumerate(data, start=1)]
    else:
        items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in body.split("=", 1))
            items.append((f"{source}:{lineno}", key, raw))
    values, seen = {}, {}
    for where, key, raw in items:
        if key not in _TYPES:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"{where}: duplicate key {key!r}, first set at {seen[key]}")
        seen[key] = where
        try:
            values[key] = _TYPES[key](str(raw))
        except ValueError as exc:
            raise ConfigError(
                f"{where}: bad value for {key!r}: {raw!r}") from exc
    try:
        return Scenario(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_scenario(path: str | None) -> Scenario:
    if path is None:
        return Scenario()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_scenario_text(text, source=str(path))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_table(out, command: str, scn: Scenario, columns: list[str],
                rows: list[list]) -> None:
    lines = [f"# cachesec {__version__}",
             f"# command: {command}",
             f"# seed: {scn.seed}"]
    lines += [f"# scenario: {item}" for item in scn.header_items()]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out!r}: {exc}") from exc


def _map_points(fn, scn: Scenario, cells: int) -> list:
    """Rows fn(i, v, j) for every cell j < cells of every sweep point
    v = scn.sweep_points[i], in point order, then cell order.

    Each (point, cell) pair is one pool task, so the cells of a costly
    point are shared between the worker threads.
    """
    tasks = [(i, v, j) for i, v in enumerate(scn.sweep_points)
             for j in range(cells)]
    if scn.threads <= 1:
        return [fn(*task) for task in tasks]
    with ThreadPoolExecutor(max_workers=scn.threads) as pool:
        return list(pool.map(fn, *zip(*tasks)))


# ---------------------------------------------------------------------------
# commands: each builds the (columns, rows) of its table
# ---------------------------------------------------------------------------

def _evaluators(kind: str, scn: Scenario) -> dict:
    """The cop or sop evaluators by row name, in row order: (scheme,
    analytic(params), mc(params, settings) or None). They are looked up on
    outage and montecarlo when the command runs, so that a wrapper
    installed on either module is the one called."""
    layout = scn.layout()
    beta = scn.beta_t if kind == "cop" else scn.beta_e
    sample = getattr(montecarlo, f"mc_{kind}")

    def an(fn):
        return lambda params: fn(layout, params, beta)

    def mc(scheme, **settings):
        return lambda params, base: sample(scheme, layout, params, beta,
                                           replace(base, **settings))

    dbf, fot, bsr = SchemeId
    if kind == "cop":
        return {"dbf": (dbf, an(outage.cop_dbf_exact), mc(dbf)),
                "dbf-asymptote": (dbf, an(outage.cop_dbf_asymptotic), None),
                "fot": (fot, an(outage.cop_fot), mc(fot)),
                "bsr": (bsr, an(outage.cop_bsr), mc(bsr))}
    return {"dbf": (dbf, an(outage.sop_dbf), mc(dbf)),
            "fot": (fot, an(outage.sop_fot), mc(fot)),
            "bsr-exact": (bsr, an(outage.sop_bsr_exact), mc(bsr)),
            "bsr-approx": (bsr,
                           lambda params: outage.sop_bsr_approx(params, beta),
                           mc(bsr, independent_hops=True))}


def _outage_cell(evaluator, params: ChannelParams, trials: int,
                 seed: int) -> list:
    """[analytic, mc, mc_stderr] of one evaluator at one sweep point; the
    Monte Carlo pair is None without trials or without an estimator."""
    _, analytic, mc = evaluator
    row = [analytic(params).value, None, None]
    if trials > 0 and mc is not None:
        est = mc(params, montecarlo.McSettings(trials=trials, seed=seed))
        row[1:] = [est.value, est.std_error]
    return row


def _outage_sweep(kind: str, default_trials: int, scn: Scenario):
    """The cop-sweep or sop-sweep table: one row per (power, evaluator);
    cell j of point i has seed scn.seed + 1000*i + j."""
    evaluators = list(_evaluators(kind, scn).items())
    trials = scn.trials if scn.trials is not None else default_trials

    def cell(i, ps_dbw, j):
        name, evaluator = evaluators[j]
        return [ps_dbw, name] + _outage_cell(
            evaluator, scn.params(ps_dbw), trials, scn.seed + 1000 * i + j)

    return (["Ps_dBw", "scheme", "analytic", "mc", "mc_stderr"],
            _map_points(cell, scn, len(evaluators)))


def cmd_throughput(scn: Scenario):
    layout = scn.layout()
    bsr_exact = scn.bsr_sop_model == "exact"
    schemes = list(SchemeId)
    if scn.sweep_var == "Rs":
        params = scn.params()
        thresholds = [rates.invert_sop(scheme, layout, params, scn.epsilon,
                                       bsr_exact=bsr_exact)
                      for scheme in schemes]

        def cell(i, rs, j):
            return [rs, schemes[j].value, rates.secrecy_throughput_curve(
                schemes[j], layout, params, thresholds[j], 2.0 ** rs - 1.0)]

        columns = ["Rs", "scheme", "psi"]
    else:
        roots = rates.power_sweep_roots(  # before the pool: once per table
            layout, [scn.params(v) for v in scn.sweep_points], scn.epsilon)

        def cell(i, ps_dbw, j):
            design = rates.scheme_throughput(
                schemes[j], layout, scn.params(ps_dbw), scn.epsilon,
                bsr_exact, roots[i].get(schemes[j]))
            return [ps_dbw, schemes[j].value, design.beta_e_circ,
                    design.beta_s_star, design.rate_secrecy, design.psi_star]

        columns = ["Ps_dBw", "scheme", "beta_e_circ", "beta_s_star",
                   "Rs_star", "psi_star"]
    return columns, _map_points(cell, scn, len(schemes))


def cmd_caching(scn: Scenario):
    layout = scn.layout()
    bsr_exact = scn.bsr_sop_model == "exact"
    n_sweep = scn.sweep_var == "N"
    if n_sweep:
        # psi does not depend on the library size: design the codes once
        psi_fixed = rates.per_scheme_psi(layout, scn.params(), scn.epsilon,
                                         bsr_exact)
    else:  # see cmd_throughput
        roots = rates.power_sweep_roots(
            layout, [scn.params(v) for v in scn.sweep_points], scn.epsilon)

    def cell(i, v, j):
        params = scn.params(None if n_sweep else v)
        lib = caching.ZipfLibrary(N=v if n_sweep else scn.N, tau=scn.tau)
        psi = psi_fixed if n_sweep else rates.per_scheme_psi(
            layout, params, scn.epsilon, bsr_exact, roots[i])
        psis = [psi[scheme] for scheme in SchemeId]
        m_closed, m_ex, value = caching.optimize_allocation(
            scn.caching_objective, *psis, params, lib, scn.K, scn.L)
        return [v, *psis, m_closed, m_ex, value(m_closed), value(scn.L),
                value(0)]

    return ([scn.sweep_var, "psi_D", "psi_F", "psi_B", "M_closed",
             "M_exhaustive", "obj_hybrid", "obj_mpc", "obj_lcd"],
            _map_points(cell, scn, 1))


# the cop-sweep and sop-sweep rows that validate checks, by metric
_VALIDATED = {"cop": ("dbf", "fot", "bsr"), "sop": ("dbf", "fot", "bsr-exact")}


def cmd_validate(scn: Scenario):
    """Analytic vs Monte Carlo on the configured power sweep, with verdicts:
    the rows of the cop-sweep and sop-sweep evaluators in _VALIDATED, COP
    cell k of point i with seed scn.seed + 1000*i + k, SOP cell k with
    seed scn.seed + 1000*i + 100 + k and a tenth of the trials."""
    if scn.trials == 0:
        raise ConfigError("validate needs Monte Carlo trials (--trials > 0)")
    cop_trials = scn.trials if scn.trials is not None else 10 ** 5
    cells = []  # (metric, evaluator, trials, seed offset)
    for metric, trials, offset in (("cop", cop_trials, 0),
                                   ("sop", max(cop_trials // 10, 1), 100)):
        evaluators = _evaluators(metric, scn)
        cells += [(metric, evaluators[name], trials, offset + k)
                  for k, name in enumerate(_VALIDATED[metric])]

    def cell(i, ps_dbw, j):
        metric, evaluator, trials, offset = cells[j]
        an, mc, stderr = _outage_cell(evaluator, scn.params(ps_dbw), trials,
                                      scn.seed + 1000 * i + offset)
        # the binomial error of the analytic value: the empirical one is 0
        # when no outage was drawn
        sigma = max(math.sqrt(max(an * (1.0 - an), 0.0) / trials), stderr)
        return [ps_dbw, metric, evaluator[0].value, an, mc, stderr,
                int(abs(an - mc) <= 3.0 * sigma + 1e-12)]

    rows = _map_points(cell, scn, len(cells))
    print(f"validate: {sum(row[-1] for row in rows)}/{len(rows)} cells "
          f"within 3 sigma", file=sys.stderr)
    return (["Ps_dBw", "metric", "scheme", "analytic", "mc", "mc_stderr",
             "within_3sigma"], rows)


# every command's table builder and the sweep axes it accepts
_COMMANDS = {
    "cop-sweep": (partial(_outage_sweep, "cop", 10 ** 6), ("Ps_dBw",)),
    "sop-sweep": (partial(_outage_sweep, "sop", 10 ** 5), ("Ps_dBw",)),
    "throughput": (cmd_throughput, ("Rs", "Ps_dBw")),
    "caching": (cmd_caching, ("N", "Ps_dBw")),
    "validate": (cmd_validate, ("Ps_dBw",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachesec",
        description="Secrecy outage and caching experiments for a "
                    "cache-enabled heterogeneous network model.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="scenario file (key=value or JSON)")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--trials", type=int,
                        help="override the Monte Carlo budget; 0 gives "
                             "analytic-only cop-sweep and sop-sweep tables "
                             "(validate needs trials)")
    parser.add_argument("--threads", type=int,
                        help="worker threads for table cells")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {key: getattr(args, key)
                     for key in ("seed", "trials", "threads")
                     if getattr(args, key) is not None}
        scn = replace(load_scenario(args.config), **overrides)
        build, axes = _COMMANDS[args.command]
        if scn.sweep_var not in axes:
            raise ConfigError(f"{args.command} sweeps {' or '.join(axes)}")
        columns, rows = build(scn)
        write_table(args.out, args.command, scn, columns, rows)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        # ArithmeticError: a float overflow or a zero division in a scenario
        # at the edge of the float range
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
