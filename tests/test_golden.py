"""Golden tables: every command's CSV on fixed scenarios, cell by cell.

The files under tests/golden/ record what the program prints, right or
wrong; correctness lives in the invariant and reference tests. A change
that moves a cell regenerates the files in the same diff, so the diff shows
every moved cell:

    PYTHONPATH=src python tests/test_golden.py

A table off the program's default scenario keeps its scenario file beside
it (tests/golden/<table>.cfg). CI runs this file again without scipy, and
two of the scenarios (sop-sweep-K8, throughput-exact) through the
installed entry point.

Monte Carlo cells and integer cells must match exactly. Other cells are
analytic and match to GOLDEN_REL_TOL relative, near the 12th printed digit:
the SOP row sums go through OpenBLAS gemv, which picks its kernel by CPU,
so another machine may differ in the last bits.
"""

import csv
import math
import sys
from pathlib import Path

import pytest

from cachesec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_REL_TOL = 1e-11
MC_COLUMNS = {"mc", "mc_stderr", "within_3sigma"}
# file name -> command line; a table off the program's default scenario
# reads its scenario from golden/<table>.cfg (the file name without .csv)
TABLES = {
    f"{verb}.csv": [verb, "--trials", "2000"]
    for verb in ("cop-sweep", "sop-sweep", "throughput", "caching",
                 "validate")
} | {
    "sop-sweep-K1.csv": ["sop-sweep", "--trials", "0"],
    "sop-sweep-K8.csv": ["sop-sweep", "--trials", "0"],
    "sop-sweep-spaced.csv": ["sop-sweep", "--trials", "0"],
    "caching-interior.csv": ["caching"],
    "caching-see.csv": ["caching"],
    "caching-coverage.csv": ["caching"],
    "caching-exact.csv": ["caching"],
    "throughput-Rs.csv": ["throughput"],
    "throughput-exact.csv": ["throughput"],
}


def _config(name: str) -> Path:
    return GOLDEN / f"{Path(name).stem}.cfg"


def _write(name: str, directory: Path) -> Path:
    argv, out = TABLES[name], directory / name
    if _config(name).exists():
        argv = argv + ["--config", str(_config(name))]
    assert main(argv + ["--out", str(out)]) == 0
    return out


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return list(csv.reader(f))


def _is_int(cell: str) -> bool:
    return cell.lstrip("-").isdigit()


def _same_cell(column: str, got: str, want: str) -> bool:
    if got == want:
        return True
    if column in MC_COLUMNS or _is_int(got) or _is_int(want):
        return False
    try:
        return math.isclose(float(got), float(want), rel_tol=GOLDEN_REL_TOL,
                            abs_tol=0.0)
    except ValueError:  # a label cell
        return False


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_matches_golden(name, tmp_path):
    got, want = _rows(_write(name, tmp_path)), _rows(GOLDEN / name)
    assert len(got) == len(want)
    columns = next(row for row in want if not row[0].startswith("#"))
    for i, (g, w) in enumerate(zip(got, want)):
        if w[0].startswith("#"):  # the header names the scenario
            assert g == w
            continue
        assert len(g) == len(w), f"{name} line {i + 1}"
        for column, a, b in zip(columns, g, w):
            assert _same_cell(column, a, b), \
                f"{name} line {i + 1} {column}: {a} != {b}"


def test_every_scenario_belongs_to_a_table():
    configs = {path.name for path in GOLDEN.glob("*.cfg")}
    assert configs and configs <= {_config(name).name for name in TABLES}


if __name__ == "__main__":
    for table in TABLES:
        _write(table, GOLDEN)
    sys.exit(0)
