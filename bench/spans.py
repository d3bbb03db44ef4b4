"""Spans around the program's layer boundaries, recorded from outside.

`Tracer.install()` replaces the public functions that the CLI and `rates`
call through module attributes (and that the modules call among
themselves through their globals) with wrappers that record a span:
name, start, end, parent and job id. A thread-local stack gives the
parent; a thread with an empty stack (a CLI pool worker) hangs its spans
under the command span that is open in the main thread. Spans are held in
memory; `uninstall()` restores the original functions.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass

# module -> functions wrapped. The outage cop/sop dispatchers are left out
# (they only forward to the evaluators below), and so are the caching
# helpers that the CLI reaches only through the three optimizers.
WRAPPED = {
    "outage": ("cop_dbf_exact", "cop_dbf_asymptotic", "cop_fot", "cop_bsr",
               "sop_dbf", "sop_fot", "sop_bsr_exact", "sop_bsr_approx"),
    "rates": ("invert_sop", "scheme_throughput", "opt_bs_dbf", "opt_bs_fot",
              "opt_bs_bsr"),
    "montecarlo": ("mc_cop", "mc_sop"),
    "caching": ("optimal_mpc_allocation", "opt_m_see", "exhaustive_opt_m"),
    "cli": ("write_table",),
}


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    job: int
    start: float
    end: float = 0.0
    trials: int = 0        # Monte Carlo trials requested
    rows: int = 0          # rows handed to the CSV writer
    flagged: bool = False  # outage estimate carrying a flag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, job: int):
        self.spans: list[Span] = []
        self.job = job
        self._root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = Span(len(self.spans), name, parent, self.job,
                        time.perf_counter())
            self.spans.append(span)
        stack.append(span.sid)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def command(self, name: str, fn, *args):
        """Run fn as the root span of one CLI command."""
        span = self.begin(name)
        self._root = span.sid
        try:
            return fn(*args)
        finally:
            self._root = None
            self.end(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if name.startswith("montecarlo."):
                settings = args[4] if len(args) > 4 else kwargs["settings"]
                span.trials = int(settings.trials)
            elif name == "cli.write_table":
                span.rows = len(args[4] if len(args) > 4 else kwargs["rows"])
            elif getattr(result, "flag", None) is not None:
                span.flagged = True
            return result
        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        import importlib
        for mod_name, names in WRAPPED.items():
            module = importlib.import_module(f"cachesec.{mod_name}")
            for attr in names:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(f"{mod_name}.{attr}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# -- analysis ----------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - _covered(children.get(s.sid, []))
            for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced job (see README.md for each name)."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def busy(group):
        return sum(s.duration for s in group)

    quad = named("outage.sop_dbf", "outage.sop_fot", "outage.sop_bsr_exact")
    sops = quad + named("outage.sop_bsr_approx")
    inv = named("rates.invert_sop")
    inv_ids = {s.sid for s in inv}
    opt = named("rates.opt_bs_dbf", "rates.opt_bs_fot", "rates.opt_bs_bsr")
    cach = [s for s in spans if s.name.startswith("caching.")
            and not (s.parent is not None
                     and by_id[s.parent].name.startswith("caching."))]
    roots = [s for s in spans if s.parent is None]
    root_ids = {s.sid for s in roots}
    direct = [s for s in spans if s.parent in root_ids]
    m = {
        "outage.sop.calls": len(quad),
        "outage.sop.busy_s": busy(quad),
        "outage.sop.ms_per_call": 1e3 * busy(quad) / len(quad) if quad else 0.0,
        "outage.sop_dbf.busy_s": busy(named("outage.sop_dbf")),
        "outage.sop_fot.busy_s": busy(named("outage.sop_fot")),
        "outage.sop_bsr_exact.busy_s": busy(named("outage.sop_bsr_exact")),
        "outage.sop_bsr_approx.calls": len(named("outage.sop_bsr_approx")),
        "outage.flagged": sum(s.flagged for s in spans),
        "outage.cop_dbf_exact.calls": len(named("outage.cop_dbf_exact")),
        "outage.cop_dbf_exact.busy_s": busy(named("outage.cop_dbf_exact")),
        "outage.cop_closed.busy_s": busy(named(
            "outage.cop_fot", "outage.cop_bsr", "outage.cop_dbf_asymptotic")),
        "rates.invert_sop.calls": len(inv),
        "rates.invert_sop.busy_s": busy(inv),
        "rates.invert_sop.self_s": sum(selfs[s.sid] for s in inv),
        "rates.sop_evals_per_inversion":
            sum(s.parent in inv_ids for s in sops) / len(inv) if inv else 0.0,
        "rates.opt_bs.calls": len(opt),
        "rates.opt_bs.busy_s": busy(opt),
        "rates.scheme_throughput.calls": len(named("rates.scheme_throughput")),
        "caching.optimizer.calls": len(cach),
        "caching.optimizer.busy_s": busy(cach),
        "cli.self_s": sum(selfs[s.sid] for s in roots),
        "cli.concurrency": busy(direct) / busy(roots) if roots else 0.0,
        "cli.write_table.busy_s": busy(named("cli.write_table")),
        "cli.rows": sum(s.rows for s in spans),
    }
    for kind in ("mc_cop", "mc_sop"):
        group = named(f"montecarlo.{kind}")
        trials = sum(s.trials for s in group)
        m[f"montecarlo.{kind}.calls"] = len(group)
        m[f"montecarlo.{kind}.trials"] = trials
        m[f"montecarlo.{kind}.busy_s"] = busy(group)
        m[f"montecarlo.{kind}.trials_per_s"] = \
            trials / busy(group) if group else 0.0
    return m


def self_share(spans: list[Span], job_wall: float) -> float:
    """Summed self times over job wall time: 1 when spans account for the
    whole job on one thread, above 1 where pool threads overlap."""
    return sum(self_times(spans).values()) / job_wall
