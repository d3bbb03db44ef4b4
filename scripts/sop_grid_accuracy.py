"""Accuracy and cost of the SOP quadrature grid, per grid size.

    PYTHONPATH=src python scripts/sop_grid_accuracy.py [--nodes 64,64 80,64]

For each grid size (outage.SOP_NODES: Clenshaw-Curtis intervals in radius
and angles of each transmitter-centred grid, multiples of 4) it

* evaluates every analytic SOP cell of the benchmark's outage-grid tables
  (K = 3, K = 8 and the spaced K = 6 layout, 1-dB Ps grids) at all four
  grid offsets, and compares each with its reference in bench/refs.json:
  the largest error, the cells more than QUAD_CERT_TOL off, the reference
  misses (beyond 1e-5 plus three times the reference's own error, as
  bench/check.py counts them), the flagged cells and the unflagged cells
  more than QUAD_CERT_TOL off;
* checks the single-link closed form 1 - exp(-lambda_e pi Gamma(1 + 2/a)
  (P / beta_e)^(2/a)) at K = 1 for every quadrature SOP (relaying at
  Pm = 0), r_s1_o in {1, 5, 20, 100}, Ps from -30 to 30 dBw and alpha in
  {2.5, 4, 8}: the largest relative error among unflagged values;
* counts the flagged SOPs on a 0.1-dB Ps scan of the same three layouts
  from -30 to 30 dBw (a certification that flags converged values there
  would flag benchmark cells at other offsets);
* times the outage-grid sweep of one offset (SOP quadrature only);
* evaluates every outage-grid cell's breach kernel, which reads one angle
  of each mirror pair, again on the full grid (mirror=None): the largest
  relative difference of either level, and the kernels that fold.

It exits 1 when a grid fails a gate of the SOP quadrature: a reference
miss, an unflagged cell more than QUAD_CERT_TOL off its reference, an
unflagged K = 1 value more than SINGLE_LINK_TOL relative from its closed
form, a folded integral more than FOLD_TOL relative from the full grid, or
an outage-grid kernel that does not fold: every outage-grid layout is a
line layout, so a lost fold doubles the SOP cost without moving a value.
It is not part of the test suite; it takes about 15 s per grid size on one
core.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads as W  # noqa: E402

from cachesec import outage  # noqa: E402
from cachesec.channel import ChannelParams, SchemeId  # noqa: E402
from cachesec.layout import build_line_layout  # noqa: E402

SOPS = {"sop-dbf": outage.sop_dbf, "sop-fot": outage.sop_fot,
        "sop-bsr": outage.sop_bsr_exact}
SINGLE_LINK_TOL = 1e-9  # relative, unflagged K = 1 values
FOLD_TOL = 1e-13  # relative, folded against full-grid integrals


def dbw(x: float) -> float:
    return 10.0 ** (x / 10.0)


def grid_cells(offset: float):
    """(geometry, Ps_dBw, layout, params) of every outage-grid point."""
    for geo, extra in W.GEOMETRIES.items():
        g = {**W.BASE, **extra}
        layout = build_line_layout(g["r_s1_o"], g["r_s"], g["K"], g["r_b_s1"])
        start = W.GRID_START[geo]
        for i in range(int(round(30.0 - start)) + 1):
            ps_dbw = start + i + offset
            params = ChannelParams(g["alpha"], dbw(ps_dbw), dbw(g["Pm_dBw"]),
                                   g["lambda_e"])
            yield geo, ps_dbw, layout, params, g["beta_e"]


def outage_grid(refs: dict) -> dict:
    stats = {"cells": 0, "max_err": 0.0, "over_tol": 0, "misses": 0,
             "flagged": 0, "unflagged_over_tol": 0}
    seconds = []
    for variant in range(W.VARIANTS):
        offset = 0.25 * variant
        table = refs["outage"][W.ps_key(offset)]
        start = time.perf_counter()
        for geo, ps_dbw, layout, params, beta_e in grid_cells(offset):
            for kind, fn in SOPS.items():
                est = fn(layout, params, beta_e)
                ref, ref_err, _ = table[f"{geo}|{W.ps_key(ps_dbw)}"][kind]
                err = abs(est.value - ref)
                stats["cells"] += 1
                stats["max_err"] = max(stats["max_err"], err)
                stats["over_tol"] += err > outage.QUAD_CERT_TOL
                stats["misses"] += err > refs["tolerances"]["outage_abs"] \
                    + 3.0 * ref_err
                stats["flagged"] += est.flag is not None
                stats["unflagged_over_tol"] += est.flag is None \
                    and err > outage.QUAD_CERT_TOL
        seconds.append(time.perf_counter() - start)
    stats["sweep_s"] = min(seconds)
    return stats


def single_link() -> dict:
    worst, flagged, cells = 0.0, 0, 0
    for alpha in (2.5, 4.0, 8.0):
        for r in (1.0, 5.0, 20.0, 100.0):
            layout = build_line_layout(r, 0.5, 1, 2.0)
            for ps_dbw in range(-30, 31, 5):
                params = ChannelParams(alpha, dbw(ps_dbw), 0.0, 1.0)
                exact = -math.expm1(-math.pi * math.gamma(1.0 + 2.0 / alpha)
                                    * params.Ps ** (2.0 / alpha))
                for fn in SOPS.values():
                    est = fn(layout, params, 1.0)
                    cells += 1
                    if est.flag is not None:
                        flagged += 1
                    else:
                        worst = max(worst, abs(est.value / exact - 1.0))
    return {"cells": cells, "flagged": flagged, "max_rel_err": worst}


def flag_scan() -> dict:
    flagged, cells = 0, 0
    for geo, extra in W.GEOMETRIES.items():
        g = {**W.BASE, **extra}
        layout = build_line_layout(g["r_s1_o"], g["r_s"], g["K"], g["r_b_s1"])
        for i in range(601):
            params = ChannelParams(g["alpha"], dbw(-30.0 + 0.1 * i),
                                   dbw(g["Pm_dBw"]), g["lambda_e"])
            for fn in SOPS.values():
                cells += 1
                flagged += fn(layout, params, g["beta_e"]).flag is not None
    return {"cells": cells, "flagged": flagged}


def fold_check() -> dict:
    worst, cells, folded = 0.0, 0, 0
    for variant in range(W.VARIANTS):
        for _, _, layout, params, beta_e in grid_cells(0.25 * variant):
            for scheme in SchemeId:
                kernel = outage.breach_kernel(scheme, layout, params)
                full = dataclasses.replace(kernel, mirror=None)
                diff = kernel.integral(beta_e) / full.integral(beta_e) - 1.0
                worst = max(worst, float(max(abs(diff))))
                cells += 1
                folded += kernel.mirror is not None
    return {"cells": cells, "folded": folded, "max_rel_diff": worst}


def failed_gates(report: dict) -> list[str]:
    """The gates a grid's report fails, by name (none when it passes)."""
    grid, link = report["outage_grid"], report["single_link"]
    return [name for name, failed in (
        ("outage_grid.misses", grid["misses"] > 0),
        ("outage_grid.unflagged_over_tol", grid["unflagged_over_tol"] > 0),
        ("single_link.max_rel_err", link["max_rel_err"] > SINGLE_LINK_TOL),
        ("fold.max_rel_diff", report["fold"]["max_rel_diff"] > FOLD_TOL),
        ("fold.unfolded", report["fold"]["folded"] < report["fold"]["cells"]))
        if failed]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", nargs="+",
                        default=[",".join(map(str, outage.SOP_NODES))],
                        help="grid sizes to try, as radial,angular")
    args = parser.parse_args()
    refs = json.loads((ROOT / "bench" / "refs.json").read_text())
    status = 0
    for arg in args.nodes:
        nodes = tuple(int(n) for n in arg.split(","))
        outage.SOP_NODES = nodes
        report = {"nodes": nodes, "outage_grid": outage_grid(refs),
                  "single_link": single_link(), "flag_scan": flag_scan(),
                  "fold": fold_check()}
        print(json.dumps(report), flush=True)
        failed = failed_gates(report)
        if failed:
            print(f"grid {arg} fails: {', '.join(failed)}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
