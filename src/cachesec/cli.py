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

A scenario file is a flat "key = value" text file (or a JSON object with
the same keys); unknown keys are errors, not warnings, because a silently
ignored setting would invalidate any comparison. Powers are written in dBw;
Scenario.params converts them to linear where a command builds the channel
of a sweep point. Every output embeds the scenario, tool version and seed,
and reruns with the same seed are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical infeasibility.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import __version__, caching, montecarlo, outage, rates
from .channel import ChannelParams, SchemeId
from .layout import NetworkLayout, build_line_layout, distance


class ConfigError(Exception):
    """Malformed scenario file or invalid option combination."""


@dataclass(frozen=True)
class Scenario:
    """Every knob of an experiment, as read from a scenario file."""

    # geometry
    r_s1_o: float = 1.0
    r_s: float = 0.5
    K: int = 3
    r_b_s1: float = 2.0
    # channel (powers in dBw)
    alpha: float = 4.0
    Ps_dBw: float = 10.0
    Pm_dBw: float = 0.0
    lambda_e: float = 0.1
    # wiretap code / secrecy
    epsilon: float = 0.2
    beta_t: float = 1.0
    beta_e: float = 1.0
    bsr_sop_model: str = "approx"  # "approx" or "exact"
    # caching
    N: int = 100
    tau: float = 1.5
    L: int = 10
    caching_objective: str = "throughput"  # "throughput" or "see"
    # monte carlo
    trials: int | None = None
    seed: int = 12345
    threads: int = 1
    # sweep axis
    sweep_var: str = "Ps_dBw"
    sweep_start: float = 0.0
    sweep_stop: float = 30.0
    sweep_step: float = 5.0

    def __post_init__(self):
        """Reject a scenario no experiment can run, on load: every float
        finite and every value in its legal range (exit code 2)."""
        for key, kind in _TYPES.items():
            if kind is float and not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, "
                                  f"got {getattr(self, key)}")
        dbw = f"within +-{DBW_LIMIT:g}"
        for key, ok, rule in (
                ("r_s1_o", self.r_s1_o > 0.0, "> 0"),
                ("r_s", self.r_s > 0.0, "> 0"),
                ("r_b_s1", self.r_b_s1 > 0.0, "> 0"),
                ("K", self.K >= 1, ">= 1"),
                ("alpha", self.alpha > 2.0, "> 2"),
                ("Ps_dBw", abs(self.Ps_dBw) <= DBW_LIMIT, dbw),
                ("Pm_dBw", abs(self.Pm_dBw) <= DBW_LIMIT, dbw),
                ("lambda_e", self.lambda_e >= 0.0, ">= 0"),
                ("epsilon", 0.0 < self.epsilon < 1.0, "in (0, 1)"),
                ("beta_t", self.beta_t >= 0.0, ">= 0"),
                ("beta_e", self.beta_e >= 0.0, ">= 0"),
                ("N", self.N >= 1, ">= 1"),
                ("tau", self.tau > 0.0, "> 0"),
                ("L", self.L >= 1, ">= 1"),
                ("trials", self.trials is None or self.trials >= 0, ">= 0"),
                ("threads", self.threads >= 1, ">= 1"),
                ("sweep_step", self.sweep_step > 0.0, "> 0"),
                ("sweep_stop", self.sweep_stop >= self.sweep_start,
                 f">= sweep_start = {self.sweep_start}")):
            if not ok:
                raise ConfigError(f"{key} must be {rule}, "
                                  f"got {getattr(self, key)}")
        if self.bsr_sop_model not in ("approx", "exact"):
            raise ConfigError("bsr_sop_model must be approx|exact")
        if self.caching_objective not in ("throughput", "see"):
            raise ConfigError("caching_objective must be throughput|see")
        if self.sweep_var not in ("Ps_dBw", "Rs", "N"):
            raise ConfigError("sweep_var must be Ps_dBw|Rs|N")
        low, high = self.sweep_start, self.sweep_stop
        if self.sweep_var == "Ps_dBw" and max(-low, high) > DBW_LIMIT:
            raise ConfigError(f"Ps_dBw sweep must stay {dbw}")
        if self.sweep_var == "N" and (low < 1 or not all(
                float(v).is_integer()
                for v in (self.sweep_start, self.sweep_step))):
            raise ConfigError("N sweep must start at an integer >= 1 and "
                              "step by an integer")
        if self.sweep_var == "Rs" and low < 0:
            raise ConfigError("Rs sweep must start at >= 0")
        if (self.sweep_stop - self.sweep_start) / self.sweep_step \
                >= MAX_SWEEP_POINTS:
            raise ConfigError(f"a sweep has at most {MAX_SWEEP_POINTS} "
                              f"points")
        try:
            lay = self.layout()
        except ValueError as exc:  # a coordinate overflowed to inf
            raise ConfigError(f"geometry is not finite: {exc}") from exc
        if not all(math.isfinite(distance(lay.mbs, p)) for p in lay.sbs):
            raise ConfigError("geometry is not finite: an SBS-to-MBS "
                              "distance overflows")

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
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]


# Powers beyond +-3000 dBw leave the range of a positive finite float.
DBW_LIMIT = 3000.0
# sweep_values lists every point before the first row is computed; a step
# of 1e-9 dB would ask for 3e10 of them.
MAX_SWEEP_POINTS = 10_000


def dbw_to_linear(p_dbw: float) -> float:
    return 10.0 ** (p_dbw / 10.0)


# The type of every scenario key, read from its Scenario annotation
# (int | None reads as int: a scenario file cannot write None).
_TYPES = {key: (typing.get_args(hint) or (hint,))[0]
          for key, hint in typing.get_type_hints(Scenario).items()}


def parse_scenario_text(text: str, source: str = "<config>") -> Scenario:
    """Parse a scenario from flat key=value lines or a JSON object.

    Both formats share one check: every key is a Scenario field, and its
    value is read by the field's type from the value's text, so a JSON 4.7
    is no more an integer than a 4.7 in a key = value line.
    """
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{source}: JSON scenario must be an object")
        items = [(source, key, raw) for key, raw in data.items()]
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
    values = {}
    for where, key, raw in items:
        if key not in _TYPES:
            raise ConfigError(f"{where}: unknown key {key!r}")
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


def sweep_values(scn: Scenario) -> list[float]:
    values = []
    v = scn.sweep_start
    while v <= scn.sweep_stop + 1e-9 * max(1.0, abs(scn.sweep_step)):
        values.append(round(v, 12))
        v = scn.sweep_start + (len(values)) * scn.sweep_step
    if scn.sweep_var == "N":
        return [int(x) for x in values]
    return values


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


def _map_points(fn, points, cells: int, threads: int) -> list:
    """Rows fn(i, v, j) for every cell j < cells of every sweep point
    v = points[i], in point order, then cell order.

    Each (point, cell) pair is one pool task, so the cells of a costly
    point are shared between the worker threads.
    """
    tasks = [(i, v, j) for i, v in enumerate(points) for j in range(cells)]
    if threads <= 1:
        return [fn(*task) for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _score_sigma(analytic: float, trials: int) -> float:
    return math.sqrt(max(analytic * (1.0 - analytic), 0.0) / trials)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _outage_sweep(scn: Scenario, out, command: str, default_trials: int,
                  evaluators: list) -> int:
    """One row per (power, evaluator): the analytic value and, with trials,
    the Monte Carlo estimate. evaluators holds (name, analytic(params),
    mc(params, settings) or None); cell j of point i has seed
    scn.seed + 1000*i + j."""
    if scn.sweep_var != "Ps_dBw":
        raise ConfigError(f"{command} sweeps Ps_dBw")
    trials = scn.trials if scn.trials is not None else default_trials

    def cell(i, ps_dbw, j):
        name, analytic, mc = evaluators[j]
        params = scn.params(ps_dbw)
        row = [ps_dbw, name, analytic(params).value, None, None]
        if trials > 0 and mc is not None:
            est = mc(params, montecarlo.McSettings(
                trials=trials, seed=scn.seed + 1000 * i + j))
            row[3:] = [est.value, est.std_error]
        return row

    rows = _map_points(cell, sweep_values(scn), len(evaluators), scn.threads)
    write_table(out, command, scn,
                ["Ps_dBw", "scheme", "analytic", "mc", "mc_stderr"], rows)
    return 0


def cmd_cop_sweep(scn: Scenario, out) -> int:
    layout = scn.layout()

    def mc(scheme):
        return lambda params, settings: montecarlo.mc_cop(
            scheme, layout, params, scn.beta_t, settings)

    def an(fn):
        return lambda params: fn(layout, params, scn.beta_t)

    return _outage_sweep(scn, out, "cop-sweep", 10 ** 6, [
        ("dbf", an(outage.cop_dbf_exact), mc(SchemeId.DBF)),
        ("dbf-asymptote", an(outage.cop_dbf_asymptotic), None),
        ("fot", an(outage.cop_fot), mc(SchemeId.FOT)),
        ("bsr", an(outage.cop_bsr), mc(SchemeId.BSR)),
    ])


def cmd_sop_sweep(scn: Scenario, out) -> int:
    layout = scn.layout()

    def mc(scheme, independent_hops=False):
        return lambda params, settings: montecarlo.mc_sop(
            scheme, layout, params, scn.beta_e,
            replace(settings, independent_hops=independent_hops))

    def an(fn):
        return lambda params: fn(layout, params, scn.beta_e)

    return _outage_sweep(scn, out, "sop-sweep", 10 ** 5, [
        ("dbf", an(outage.sop_dbf), mc(SchemeId.DBF)),
        ("fot", an(outage.sop_fot), mc(SchemeId.FOT)),
        ("bsr-exact", an(outage.sop_bsr_exact), mc(SchemeId.BSR)),
        ("bsr-approx",
         lambda params: outage.sop_bsr_approx(params, scn.beta_e),
         mc(SchemeId.BSR, independent_hops=True)),
    ])


def cmd_throughput(scn: Scenario, out) -> int:
    layout = scn.layout()
    bsr_exact = scn.bsr_sop_model == "exact"
    if scn.sweep_var == "Rs":
        params = scn.params()
        thresholds = {
            scheme: rates.invert_sop(scheme, layout, params, scn.epsilon,
                                     bsr_exact=bsr_exact)
            for scheme in SchemeId}
        rows = []
        for rs in sweep_values(scn):
            beta_s = 2.0 ** rs - 1.0
            for scheme in SchemeId:
                psi = rates.secrecy_throughput_curve(
                    scheme, layout, params, thresholds[scheme], beta_s)
                rows.append([rs, scheme.value, psi])
        write_table(out, "throughput", scn, ["Rs", "scheme", "psi"], rows)
        return 0
    if scn.sweep_var != "Ps_dBw":
        raise ConfigError("throughput sweeps Rs or Ps_dBw")

    schemes = list(SchemeId)

    def cell(i, ps_dbw, j):
        params = scn.params(ps_dbw)
        design = rates.scheme_throughput(schemes[j], layout, params,
                                         scn.epsilon, bsr_exact=bsr_exact)
        return [ps_dbw, schemes[j].value, design.beta_e_circ,
                design.beta_s_star, design.rate_secrecy, design.psi_star]

    rows = _map_points(cell, sweep_values(scn), len(schemes), scn.threads)
    write_table(out, "throughput", scn,
                ["Ps_dBw", "scheme", "beta_e_circ", "beta_s_star", "Rs_star",
                 "psi_star"], rows)
    return 0


def cmd_caching(scn: Scenario, out) -> int:
    if scn.sweep_var not in ("N", "Ps_dBw"):
        raise ConfigError("caching sweeps N or Ps_dBw")
    layout = scn.layout()
    bsr_exact = scn.bsr_sop_model == "exact"
    if scn.sweep_var == "N":
        # psi does not depend on the library size: design the codes once
        psi_fixed = rates.per_scheme_psi(layout, scn.params(), scn.epsilon,
                                         bsr_exact)

    def cell(i, v, j):
        if scn.sweep_var == "N":
            params = scn.params()
            lib = caching.ZipfLibrary(N=int(v), tau=scn.tau)
            psi = psi_fixed
        else:
            params = scn.params(v)
            lib = caching.ZipfLibrary(N=scn.N, tau=scn.tau)
            psi = rates.per_scheme_psi(layout, params, scn.epsilon, bsr_exact)
        m_closed, m_ex, value = caching.optimize_allocation(
            scn.caching_objective, psi[SchemeId.DBF], psi[SchemeId.FOT],
            psi[SchemeId.BSR], params, lib, scn.K, scn.L)
        return [v, psi[SchemeId.DBF], psi[SchemeId.FOT], psi[SchemeId.BSR],
                m_closed, m_ex, value(m_closed), value(scn.L), value(0)]

    rows = _map_points(cell, sweep_values(scn), 1, scn.threads)
    write_table(out, "caching", scn,
                [scn.sweep_var, "psi_D", "psi_F", "psi_B", "M_closed",
                 "M_exhaustive", "obj_hybrid", "obj_mpc", "obj_lcd"], rows)
    return 0


def cmd_validate(scn: Scenario, out) -> int:
    """Analytic vs Monte Carlo on the configured power sweep, with verdicts."""
    if scn.sweep_var != "Ps_dBw":
        raise ConfigError("validate sweeps Ps_dBw")
    if scn.trials == 0:
        raise ConfigError("validate needs Monte Carlo trials (--trials > 0)")
    layout = scn.layout()
    cop_trials = scn.trials if scn.trials is not None else 10 ** 5
    sop_trials = max(cop_trials // 10, 1)
    schemes = list(SchemeId)
    n = len(schemes)

    def cell(i, ps_dbw, j):
        """Cell j < n: COP of scheme j; cell n + k: SOP of scheme k."""
        params = scn.params(ps_dbw)
        k = j % n
        scheme = schemes[k]
        if j < n:
            metric, trials = "cop", cop_trials
            an = outage.cop(scheme, layout, params, scn.beta_t).value
            mc = montecarlo.mc_cop(
                scheme, layout, params, scn.beta_t,
                montecarlo.McSettings(trials=trials,
                                      seed=scn.seed + 1000 * i + k))
        else:
            metric, trials = "sop", sop_trials
            an = outage.sop(scheme, layout, params, scn.beta_e).value
            mc = montecarlo.mc_sop(
                scheme, layout, params, scn.beta_e,
                montecarlo.McSettings(trials=trials,
                                      seed=scn.seed + 1000 * i + 100 + k))
        sigma = max(_score_sigma(an, trials), mc.std_error)
        ok = abs(an - mc.value) <= 3.0 * sigma + 1e-12
        return [ps_dbw, metric, scheme.value, an, mc.value, mc.std_error,
                int(ok)]

    rows = _map_points(cell, sweep_values(scn), 2 * n, scn.threads)
    write_table(out, "validate", scn,
                ["Ps_dBw", "metric", "scheme", "analytic", "mc", "mc_stderr",
                 "within_3sigma"], rows)
    passed = sum(row[-1] for row in rows)
    print(f"validate: {passed}/{len(rows)} cells within 3 sigma",
          file=sys.stderr)
    return 0


_COMMANDS = {
    "cop-sweep": cmd_cop_sweep,
    "sop-sweep": cmd_sop_sweep,
    "throughput": cmd_throughput,
    "caching": cmd_caching,
    "validate": cmd_validate,
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
        scn = load_scenario(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.trials is not None:
            overrides["trials"] = args.trials
        if args.threads is not None:
            overrides["threads"] = args.threads
        if overrides:
            scn = replace(scn, **overrides)
        return _COMMANDS[args.command](scn, args.out)
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
