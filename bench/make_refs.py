"""Compute `refs.json`, the reference values the benchmark checks against.

    python3 bench/make_refs.py            # about 6 min on one core

Run from the repository root. For every Ps grid offset (see workloads.py)
it stores, per output cell that needs one, the reference value, the
reference's own error estimate and the distance of the program's value at
the time the file was made ("seed_err"); for the design workload's fixed
powers it stores the reference SOP inversions, and for the montecarlo
workload's the relaying SOP that its Monte Carlo estimates. The program values are read through cachesec
only to record that distance; the references themselves come from
`reference.py`.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from scipy.optimize import brentq  # noqa: E402

import reference as R  # noqa: E402
import workloads as W  # noqa: E402
from cachesec import outage, rates  # noqa: E402
from cachesec.channel import ChannelParams, SchemeId  # noqa: E402
from cachesec.cli import dbw_to_linear  # noqa: E402
from cachesec.layout import build_line_layout  # noqa: E402

# Absolute tolerances of the output checks; see README.md.
TOLERANCES = {
    "outage_abs": 1e-5,      # analytic COP/SOP cell vs reference
    "inversion_abs": 1e-6,   # |SOP_ref(beta_e_circ) - epsilon|
    "identity_rel": 1e-9,    # cells that restate a closed form of others
    "mc_pvalue": 1e-7,       # two-sided binomial test of an MC cell
}


def geometry(name: str) -> dict:
    g = {**W.BASE, **W.GEOMETRIES[name]}
    g["Pm"] = dbw_to_linear(g["Pm_dBw"])
    return g


def program(g: dict, Ps: float):
    lay = build_line_layout(g["r_s1_o"], g["r_s"], g["K"], g["r_b_s1"])
    par = ChannelParams(alpha=g["alpha"], Ps=Ps, Pm=g["Pm"],
                        lambda_e=g["lambda_e"])
    return lay, par


def grid(start: float, stop: float, step: float, off: float) -> list[float]:
    n = int(round((stop - start) / step)) + 1
    return [round(start + off + i * step, 12) for i in range(n)]


def outage_refs(off: float) -> dict:
    out = {}
    for name in W.GEOMETRIES:
        g = geometry(name)
        for ps_dbw in grid(W.GRID_START[name], 30.0, 1.0, off):
            Ps = dbw_to_linear(ps_dbw)
            lay, par = program(g, Ps)
            cells = {}
            ref, err = R.cop_dbf(g, Ps, g["beta_t"])
            got = outage.cop_dbf_exact(lay, par, g["beta_t"]).value
            cells["cop-dbf"] = [ref, err, abs(got - ref)]
            for kind, fn in (("dbf", outage.sop_dbf), ("fot", outage.sop_fot),
                             ("bsr", outage.sop_bsr_exact)):
                ref, err = R.sop(kind, g, Ps, g["beta_e"])
                got = fn(lay, par, g["beta_e"]).value
                cells[f"sop-{kind}"] = [ref, err, abs(got - ref)]
            out[f"{name}|{W.ps_key(ps_dbw)}"] = cells
    return out


def fading_refs() -> dict:
    """Shared-field relaying SOP with fading-chosen serving SBS (mc_sop)."""
    g = geometry("K3")
    out = {}
    for ps_dbw in grid(0.0, 30.0, W.COARSE_STEP, W.offset_db("montecarlo", 0)):
        ref, err = R.sop_bsr_fading(g, dbw_to_linear(ps_dbw), g["beta_e"])
        out[W.ps_key(ps_dbw)] = [ref, err]
    return out


def beta_refs() -> dict:
    """Reference SOP inversions for the design workload's quadrature forms."""
    g = geometry("K3")
    eps = g["epsilon"]
    out = {}
    for ps_dbw in grid(0.0, 30.0, W.COARSE_STEP, W.offset_db("design", 0)):
        Ps = dbw_to_linear(ps_dbw)
        lay, par = program(g, Ps)
        for kind, scheme in (("dbf", SchemeId.DBF), ("fot", SchemeId.FOT),
                             ("bsr", SchemeId.BSR)):
            got = rates.invert_sop(scheme, lay, par, eps, bsr_exact=True)

            def resid(log_b):
                return R.sop(kind, g, Ps, math.exp(log_b))[0] - eps

            lo, hi = math.log(got) - 0.01, math.log(got) + 0.01
            while resid(lo) < 0.0:
                lo -= 0.1
            while resid(hi) > 0.0:
                hi += 0.1
            beta = math.exp(brentq(resid, lo, hi, xtol=1e-13, rtol=1e-13))
            h = 1e-5 * beta
            slope = (R.sop(kind, g, Ps, beta + h)[0]
                     - R.sop(kind, g, Ps, beta - h)[0]) / (2.0 * h)
            out[f"{kind}|{W.ps_key(ps_dbw)}"] = [beta, slope,
                                               abs(slope * (got - beta))]
    return out


def main() -> int:
    refs = {"tolerances": TOLERANCES, "beta": beta_refs(),
            "mc_bsr_fading": fading_refs(), "outage": {}}
    for v in range(W.VARIANTS):
        off = W.offset_db("outage-grid", v)
        t0 = time.perf_counter()
        refs["outage"][W.ps_key(off)] = outage_refs(off)
        print(f"variant {v}: {time.perf_counter() - t0:.0f} s", flush=True)
    worst = max(cell[1] for var in refs["outage"].values()
                for cells in var.values() for cell in cells.values())
    print(f"largest reference error estimate: {worst:.2e}")
    (HERE / "refs.json").write_text(json.dumps(refs, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    np.seterr(all="ignore")
    sys.exit(main())
