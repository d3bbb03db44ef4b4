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
  relative difference of either level, and the kernels that fold;
* integrates the beamforming and partition kernels of every outage-grid
  point at all four offsets, and of every PER_CENTRE cell, in one shared
  pass (the pass of outage.shared_pass) and alone: the points whose levels
  differ in any bit, and the time of the shared passes of one offset (of
  all PER_CENTRE_DBW powers), per geometry;
* evaluates every outage-grid cell's breach kernel again with each
  distance taken per (centre, transmitter) pair, |(c + g) - t| on centre
  c's grid point g, as before the law's offset tables (|g + (c - t)|, one
  row per distinct offset): the largest relative difference of either
  level; and likewise every scheme's kernel on the PER_CENTRE layouts,
  whose offsets do not repeat exactly (K = 8 lines at r_s = 0.3 and 0.05,
  a K = 4 layout on no line), at the PER_CENTRE_DBW powers, which read
  per centre, so that both read forms are held to the per-pair distances;
* checks the read form BreachKernel._plan picks for each far-field group
  on its shared grid: one offset table for every group of every
  outage-grid kernel, each centre its own points for every group of
  several centres on the PER_CENTRE layouts.

It exits 1 when a grid fails a gate of the SOP quadrature: a reference
miss, an unflagged cell more than QUAD_CERT_TOL off its reference, an
unflagged K = 1 value more than SINGLE_LINK_TOL relative from its closed
form, a folded integral more than FOLD_TOL relative from the full grid,
an outage-grid kernel that does not fold (every outage-grid layout is a
line layout, so a lost fold doubles the SOP cost without moving a value),
a shared pass whose levels are not bit for bit those of each kernel, an
outage-grid or PER_CENTRE kernel whose levels are more than OFFSET_TOL
relative from the per-pair distances, or a group read in the other form.
It is not part of the test suite; it takes about 15 s per grid size on one
core.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads as W  # noqa: E402

from cachesec import outage  # noqa: E402
from cachesec.channel import ChannelParams, SchemeId  # noqa: E402
from cachesec.layout import NetworkLayout, build_line_layout  # noqa: E402

SOPS = {"sop-dbf": outage.sop_dbf, "sop-fot": outage.sop_fot,
        "sop-bsr": outage.sop_bsr_exact}
SINGLE_LINK_TOL = 1e-9  # relative, unflagged K = 1 values
FOLD_TOL = 1e-13  # relative, folded against full-grid integrals
OFFSET_TOL = 1e-14  # relative, offset tables against per-pair distances
# Layouts whose offsets c - t do not repeat exactly, so that groups of
# several centres read per centre, a form no benchmark workload runs: at
# K = 8, r_s = 0.3 gives 39 offsets and 0.05 gives 33 for 64 pairs, and the
# K = 4 layout (on no shared line) has all 16; at these Ps (Pm 0 dBw).
PER_CENTRE = {
    "K8-r0.3": build_line_layout(1.0, 0.3, 8, 2.0),
    "K8-r0.05": build_line_layout(1.0, 0.05, 8, 2.0),
    "K4-off-line": NetworkLayout(complex(0.3, 3.0), (
        complex(0.2, 1.0), complex(-0.6, 1.1), complex(0.9, 1.4),
        complex(-1.2, 1.6))),
}
PER_CENTRE_DBW = (-20.0, -10.0, 0.0, 10.0, 20.0, 30.0)


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


def per_centre_cells():
    """(layout name, Ps_dBw, layout, params, beta_e) of every PER_CENTRE
    cell."""
    for (name, layout), ps_dbw in itertools.product(PER_CENTRE.items(),
                                                    PER_CENTRE_DBW):
        yield name, ps_dbw, layout, ChannelParams(
            W.BASE["alpha"], dbw(ps_dbw), 1.0, 1.0), 1.0


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


def shared_check() -> dict:
    names = [*W.GEOMETRIES, *PER_CENTRE]
    points, mismatch, seconds = 0, 0, dict.fromkeys(names, math.inf)
    for variant in range(W.VARIANTS):
        spent = dict.fromkeys(names, 0.0)
        for geo, _, layout, params, beta_e in [*grid_cells(0.25 * variant),
                                               *per_centre_cells()]:
            dbf, fot = (outage.breach_kernel(scheme, layout, params)
                        for scheme in (SchemeId.DBF, SchemeId.FOT))
            start = time.perf_counter()
            shared = dbf.integral(beta_e, False, fot)
            spent[geo] += time.perf_counter() - start
            points += 1
            mismatch += not all(
                np.array_equal(levels, kernel.integral(beta_e))
                for kernel, levels in zip((dbf, fot), shared))
        seconds = {geo: min(seconds[geo], spent[geo]) for geo in seconds}
    return {"points": points, "mismatch": mismatch, "pass_s": seconds}


def per_pair_levels(kernel, beta_e: float) -> np.ndarray:
    """The kernel's two levels with every distance taken per (centre,
    transmitter) pair: the law on the absolute points c + g of centre c's
    grid, one centre per call, so that it reads |(c + g) - t|."""
    radial, unit_x, unit_y, angular = outage._nested_rules(
        *outage.SOP_NODES, kernel.mirror)
    levels = np.zeros(2)
    for k, (power, tx) in enumerate(kernel.links):
        rmax = outage.trunc_radius(0.0, power * len(tx), beta_e, kernel.alpha)
        for i, c in enumerate(tx if power > 0.0 else ()):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                value, _ = kernel.law((c.real + rmax * unit_x)[None],
                                      (c.imag + rmax * unit_y)[None], beta_e,
                                      False, ((k, i),))
            levels += rmax * rmax * np.einsum("lj,jl->l", radial,
                                              value[0] @ angular)
    return levels


def tabled_groups(kernel, *shared) -> list[bool]:
    """Whether each far-field group of the kernel's centres reads one
    offset table, as BreachKernel._plan plans it for integral."""
    far = [power * len(tx) for power, tx in kernel.links]
    centres = [(k, i) for k, (power, tx) in enumerate(kernel.links)
               if power > 0.0 for i in range(len(tx))]
    groups = [tuple(group) for _, group in itertools.groupby(
        centres, lambda centre: far[centre[0]])]
    # a step of the per-centre form reads its table whole (Ellipsis)
    return [kernel._plan(group, True, *shared)[0][0][2] is not Ellipsis
            for group in groups]


def offset_check() -> dict:
    report = {"cells": 0, "max_rel_diff": 0.0, "per_centre_cells": 0,
              "per_centre_max_rel_diff": 0.0, "misread_groups": 0}
    cells = [(False, cell) for variant in range(W.VARIANTS)
             for cell in grid_cells(0.25 * variant)]
    for per_centre, (_, _, layout, params, beta_e) in [
            *cells, *((True, cell) for cell in per_centre_cells())]:
        prefix = "per_centre_" if per_centre else ""
        kernels = [outage.breach_kernel(scheme, layout, params)
                   for scheme in SchemeId]
        for kernel in kernels:
            diff = kernel.integral(beta_e) / per_pair_levels(
                kernel, beta_e) - 1.0
            report[prefix + "max_rel_diff"] = max(
                report[prefix + "max_rel_diff"], float(max(abs(diff))))
            report[prefix + "cells"] += 1
        # every outage-grid group reads one offset table; on the PER_CENTRE
        # layouts the K SBSs of beamforming and partitions read per centre,
        # and relaying's groups (one or two centres) keep their table
        for scheme, kernel, shared in [*zip(SchemeId, kernels, [()] * 3),
                                       (SchemeId.DBF, kernels[0], kernels[1:2])]:
            tabled = not per_centre or scheme is SchemeId.BSR
            report["misread_groups"] += sum(
                form != tabled for form in tabled_groups(kernel, *shared))
    return report


def failed_gates(report: dict) -> list[str]:
    """The gates a grid's report fails, by name (none when it passes)."""
    grid, link = report["outage_grid"], report["single_link"]
    return [name for name, failed in (
        ("outage_grid.misses", grid["misses"] > 0),
        ("outage_grid.unflagged_over_tol", grid["unflagged_over_tol"] > 0),
        ("single_link.max_rel_err", link["max_rel_err"] > SINGLE_LINK_TOL),
        ("fold.max_rel_diff", report["fold"]["max_rel_diff"] > FOLD_TOL),
        ("fold.unfolded", report["fold"]["folded"] < report["fold"]["cells"]),
        ("shared.mismatch", report["shared"]["mismatch"] > 0),
        ("offsets.max_rel_diff",
         report["offsets"]["max_rel_diff"] > OFFSET_TOL),
        ("offsets.per_centre_max_rel_diff",
         report["offsets"]["per_centre_max_rel_diff"] > OFFSET_TOL),
        ("offsets.misread_groups", report["offsets"]["misread_groups"] > 0))
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
                  "fold": fold_check(), "shared": shared_check(),
                  "offsets": offset_check()}
        print(json.dumps(report), flush=True)
        failed = failed_gates(report)
        if failed:
            print(f"grid {arg} fails: {', '.join(failed)}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
