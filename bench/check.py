"""Output checks: every CSV cell the workloads produce, against references.

Three outcomes per checked cell:

* pass;
* reference miss: an analytic cell, or an SOP inversion, is further from
  its high-resolution reference than the tolerance in `refs.json`. Misses
  are counted in `check.ref_misses`;
* failure: a command exits non-zero, an output is missing, malformed or not
  byte-identical across repetitions, a Monte Carlo cell fails a binomial
  test against its reference, a closed-form identity or an optimality
  condition breaks, or an analytic cell is further from its reference than
  both the tolerance and twice the distance of the program version that
  made `refs.json`. Failures are the run's `failed` operations.

The second rule keeps the known accuracy gaps of the program at the time
the references were made (see README.md) visible as misses without making
every run fail, while any cell that gets worse beyond the tolerance fails.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as R
import workloads as W


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    misses: int = 0
    notes: list = field(default_factory=list)
    miss_notes: list = field(default_factory=list)

    def cell(self, ok: bool, what: str, miss: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        if miss:
            self.misses += 1
            self.miss_notes.append(what)


def dbw(x: float) -> float:
    return 10.0 ** (x / 10.0)


def geometry(scn: dict) -> tuple[str, dict]:
    for name, extra in W.GEOMETRIES.items():
        if all(scn[k] == v for k, v in {**W.BASE, **extra}.items()
               if k in ("K", "r_s", "lambda_e")):
            g = {k: scn[k] for k in ("r_s1_o", "r_s", "K", "r_b_s1", "alpha",
                                     "lambda_e", "beta_t", "beta_e",
                                     "epsilon")}
            g["Pm"] = dbw(scn["Pm_dBw"])
            return name, g
    raise ValueError("scenario matches no benchmark geometry")


def parse_csv(text: str) -> list[dict]:
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


ROWS_PER_POINT = {"cop-sweep": 4, "sop-sweep": 4, "validate": 6,
                  "throughput": 3, "caching": 1}


def expected_rows(cmd: W.Command) -> int:
    scn = cmd.scenario
    points = int((scn["sweep_stop"] - scn["sweep_start"]) / scn["sweep_step"]
                 + 1e-9) + 1
    return points * ROWS_PER_POINT[cmd.verb]


def binomial_ok(p_hat: float, p: float, n: int, alpha: float) -> bool:
    from scipy.stats import binom
    k = round(p_hat * n)
    p = min(max(p, 0.0), 1.0)
    lower = binom.cdf(k, n, p)
    upper = binom.sf(k - 1, n, p)
    return 2.0 * min(lower, upper) >= alpha


def close(a: float, b: float, rel: float, abs_tol: float = 1e-15) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


# -- wiretap-code design model (paper's closed forms) ------------------------

def psi(scheme: str, g: dict, Ps: float, beta_e: float, b: float) -> float:
    """Secrecy throughput eta (1 - COP(beta_t)) log2(1 + beta_s)."""
    beta_t = beta_e + (1.0 + beta_e) * b
    if scheme == "dbf":
        cop, eta = R.cop_dbf_asymptote(g, Ps, beta_t), 1.0
    elif scheme == "fot":
        cop, eta = R.cop_fot(g, Ps, beta_t), 1.0
    else:
        cop, eta = R.cop_bsr(g, Ps, beta_t), 0.5
    return eta * (1.0 - cop) * math.log2(1.0 + b)


def psi_star(scheme: str, g: dict, Ps: float, beta_e: float) -> float:
    """Maximum of psi over beta_s: log grid, then bounded Brent."""
    from scipy.optimize import minimize_scalar
    logs = np.linspace(math.log(1e-9), math.log(1e6), 601)
    vals = [psi(scheme, g, Ps, beta_e, math.exp(x)) for x in logs]
    i = int(np.argmax(vals))
    if vals[i] <= 0.0:
        return 0.0
    lo, hi = logs[max(i - 1, 0)], logs[min(i + 1, len(logs) - 1)]
    res = minimize_scalar(lambda x: -psi(scheme, g, Ps, beta_e, math.exp(x)),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return max(vals[i], -res.fun)


# -- caching model -----------------------------------------------------------

def caching_objective(psis, scn: dict, N: int, Ps: float, M: int) -> float:
    K, L, tau = scn["K"], scn["L"], scn["tau"]

    def cum(m):
        return math.expm1((1.0 - tau) * math.log(m + 1.0)) \
            / math.expm1((1.0 - tau) * math.log(N + 1.0))

    p_d = cum(min(M, N))
    p_f = max(cum(min(M + K * (L - M), N)) - p_d, 0.0)
    p_b = max(1.0 - p_d - p_f, 0.0)
    value = p_d * psis[0] + p_f * psis[1] + p_b * psis[2]
    if scn.get("caching_objective") == "see":
        value /= K * Ps * (p_d + p_f) + p_b * (dbw(scn["Pm_dBw"]) + Ps)
    return value


class Checker:
    def __init__(self, refs_path: Path, workload: str, seed: int):
        refs = json.loads(refs_path.read_text())
        self.tol = refs["tolerances"]
        self.outage = refs["outage"][W.ps_key(W.offset_db(workload, seed))]
        self.beta_refs = refs["beta"]
        self.fading_refs = refs["mc_bsr_fading"]
        self.tally = Tally()
        self._psi_refs: dict = {}

    # -- helpers -----------------------------------------------------------
    def analytic(self, value: float, ref: float, ref_err: float,
                 seed_err: float, what: str) -> None:
        err = abs(value - ref)
        tol = self.tol["outage_abs"] + 3.0 * ref_err
        self.tally.cell(err <= max(tol, 2.0 * seed_err),
                        f"{what}: off by {err:.2e}", miss=err > tol)

    def mc(self, row: dict, truth: float, trials: int, what: str) -> None:
        p_hat = float(row["mc"])
        self.tally.cell(binomial_ok(p_hat, truth, trials,
                                    self.tol["mc_pvalue"]), what + " mc")
        se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
        self.tally.cell(close(float(row["mc_stderr"]), se,
                              self.tol["identity_rel"]), what + " stderr")

    def beta(self, scheme: str, g: dict, ps_dbw: float, bsr_exact: bool):
        """(beta_ref, dSOP/dbeta, seed distance) of one SOP inversion."""
        if scheme != "bsr" or bsr_exact:
            return self.beta_refs[f"{scheme}|{W.ps_key(ps_dbw)}"]
        Ps = dbw(ps_dbw)
        a = g["alpha"]
        coeff = math.pi * g["lambda_e"] * math.gamma(1.0 + 2.0 / a) \
            * (g["Pm"] ** (2.0 / a) + Ps ** (2.0 / a))
        b = (coeff / -math.log1p(-g["epsilon"])) ** (a / 2.0)
        h = 1e-6 * b
        slope = (R.sop_bsr_approx(g, Ps, b + h)
                 - R.sop_bsr_approx(g, Ps, b - h)) / (2.0 * h)
        return b, slope, 0.0

    def psi_ref(self, scheme: str, g: dict, ps_dbw: float, bsr_exact: bool):
        """psi* at the reference inversion and the tolerance it inherits."""
        key = (scheme, W.ps_key(ps_dbw), g["Pm"], bsr_exact)
        if key not in self._psi_refs:
            b, slope, _ = self.beta(scheme, g, ps_dbw, bsr_exact)
            Ps = dbw(ps_dbw)
            db = self.tol["inversion_abs"] / abs(slope)
            mid = psi_star(scheme, g, Ps, b)
            spread = max(abs(psi_star(scheme, g, Ps, b + s * db) - mid)
                         for s in (-1.0, 1.0))
            self._psi_refs[key] = (
                mid, spread + self.tol["identity_rel"] * abs(mid) + 1e-12)
        return self._psi_refs[key]

    # -- per command -------------------------------------------------------
    def command(self, cmd: W.Command, text: str | None) -> None:
        if text is None:
            self.tally.cell(False, f"{cmd.name}: no output")
            return
        rows = parse_csv(text)
        self.tally.cell(len(rows) == expected_rows(cmd),
                        f"{cmd.name}: {len(rows)} rows")
        try:
            getattr(self, "_" + cmd.verb.replace("-", "_"))(cmd, rows)
        except (KeyError, ValueError, TypeError) as exc:
            self.tally.cell(False, f"{cmd.name}: malformed table ({exc!r})")

    def _outage_cell(self, kind: str, geo: str, g: dict, ps_dbw: float):
        """(ref, ref_err, seed_err) of one analytic outage cell."""
        Ps = dbw(ps_dbw)
        if kind == "cop-fot":
            return R.cop_fot(g, Ps, g["beta_t"]), 0.0, 0.0
        if kind == "cop-bsr":
            return R.cop_bsr(g, Ps, g["beta_t"]), 0.0, 0.0
        if kind == "cop-dbf-asymptote":
            return R.cop_dbf_asymptote(g, Ps, g["beta_t"]), 0.0, 0.0
        if kind == "sop-bsr-approx":
            return R.sop_bsr_approx(g, Ps, g["beta_e"]), 0.0, 0.0
        return tuple(self.outage[f"{geo}|{W.ps_key(ps_dbw)}"][kind])

    def _sweep(self, cmd: W.Command, rows: list[dict], metric: str,
               trials: int, kinds: dict) -> None:
        geo, g = geometry(cmd.scenario)
        for row in rows:
            ps_dbw = float(row["Ps_dBw"])
            scheme = row["scheme"]
            what = f"{cmd.name} Ps={ps_dbw} {metric}-{scheme}"
            ref, ref_err, seed_err = self._outage_cell(
                kinds[scheme], geo, g, ps_dbw)
            self.analytic(float(row["analytic"]), ref, ref_err, seed_err, what)
            if trials and row["mc"]:
                truth = ref
                if metric == "sop" and scheme in ("bsr", "bsr-exact"):
                    truth = self.fading_refs[W.ps_key(ps_dbw)][0]
                self.mc(row, truth, trials, what)

    def _trials(self, cmd: W.Command) -> int:
        opts = list(cmd.options)
        return int(opts[opts.index("--trials") + 1])

    def _cop_sweep(self, cmd, rows):
        self._sweep(cmd, rows, "cop", self._trials(cmd), {
            "dbf": "cop-dbf", "dbf-asymptote": "cop-dbf-asymptote",
            "fot": "cop-fot", "bsr": "cop-bsr"})

    def _sop_sweep(self, cmd, rows):
        self._sweep(cmd, rows, "sop", self._trials(cmd), {
            "dbf": "sop-dbf", "fot": "sop-fot", "bsr-exact": "sop-bsr",
            "bsr-approx": "sop-bsr-approx"})

    def _validate(self, cmd, rows):
        cop_trials = self._trials(cmd)
        for metric, trials in (("cop", cop_trials),
                               ("sop", max(cop_trials // 10, 1))):
            self._sweep(cmd, [r for r in rows if r["metric"] == metric],
                        metric, trials, {s: f"{metric}-{s}"
                                         for s in ("dbf", "fot", "bsr")})

    def _throughput(self, cmd, rows):
        scn = cmd.scenario
        _, g = geometry(scn)
        bsr_exact = scn.get("bsr_sop_model") == "exact"
        rel = self.tol["identity_rel"]
        if scn.get("sweep_var") == "Rs":
            Ps = dbw(scn["Ps_dBw"])
            for row in rows:
                s, b_s = row["scheme"], 2.0 ** float(row["Rs"]) - 1.0
                b_e, slope, _ = self.beta(s, g, scn["Ps_dBw"], bsr_exact)
                db = self.tol["inversion_abs"] / abs(slope)
                mid = psi(s, g, Ps, b_e, b_s)
                tol = max(abs(psi(s, g, Ps, b_e + k * db, b_s) - mid)
                          for k in (-1.0, 1.0)) + rel * abs(mid) + 1e-12
                self.tally.cell(abs(float(row["psi"]) - mid) <= tol,
                                f"{cmd.name} Rs={row['Rs']} {s} psi")
            return
        for row in rows:
            s, ps_dbw = row["scheme"], float(row["Ps_dBw"])
            what = f"{cmd.name} Ps={ps_dbw} {s}"
            b_ref, slope, seed_err = self.beta(s, g, ps_dbw, bsr_exact)
            b_e = float(row["beta_e_circ"])
            err = abs(slope * (b_e - b_ref))
            tol = self.tol["inversion_abs"]
            self.tally.cell(err <= max(tol, 2.0 * seed_err),
                            f"{what} beta_e_circ: SOP off by {err:.2e}",
                            miss=err > tol)
            b_s, psi_csv = float(row["beta_s_star"]), float(row["psi_star"])
            Ps = dbw(ps_dbw)
            self.tally.cell(close(psi_csv, psi(s, g, Ps, b_e, b_s), rel,
                                  1e-12), what + " psi_star identity")
            self.tally.cell(psi_csv >= psi_star(s, g, Ps, b_e) * (1.0 - rel)
                            - 1e-12, what + " psi_star optimality")
            self.tally.cell(close(float(row["Rs_star"]), math.log2(1.0 + b_s),
                                  rel), what + " Rs_star")

    def _caching(self, cmd, rows):
        scn = cmd.scenario
        _, g = geometry(scn)
        bsr_exact = scn.get("bsr_sop_model") == "exact"
        rel = self.tol["identity_rel"]
        for row in rows:
            v = float(row[scn["sweep_var"]])
            ps_dbw = v if scn["sweep_var"] == "Ps_dBw" else scn["Ps_dBw"]
            N = int(v) if scn["sweep_var"] == "N" else scn["N"]
            what = f"{cmd.name} {scn['sweep_var']}={row[scn['sweep_var']]}"
            psis = [float(row[c]) for c in ("psi_D", "psi_F", "psi_B")]
            for s, value in zip(("dbf", "fot", "bsr"), psis):
                mid, tol = self.psi_ref(s, g, ps_dbw, bsr_exact)
                self.tally.cell(abs(value - mid) <= tol, f"{what} psi_{s}")
            Ps = dbw(ps_dbw)
            objs = [caching_objective(psis, scn, N, Ps, m)
                    for m in range(scn["L"] + 1)]
            best = max(objs)
            floor = best - 1e-9 * abs(best)
            m_closed, m_ex = int(row["M_closed"]), int(row["M_exhaustive"])
            self.tally.cell(objs[m_ex] >= floor, what + " M_exhaustive")
            self.tally.cell(objs[m_closed] >= floor, what + " M_closed")
            for col, m in (("obj_hybrid", m_closed), ("obj_mpc", scn["L"]),
                           ("obj_lcd", 0)):
                self.tally.cell(close(float(row[col]), objs[m], rel, 1e-15),
                                f"{what} {col}")
