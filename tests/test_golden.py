"""Golden tables: every command's CSV on fixed scenarios, cell by cell.

The files under tests/golden/ record what the program prints, right or
wrong; correctness lives in the invariant and reference tests. A change
that moves a cell regenerates the files in the same diff, so the diff shows
every moved cell:

    PYTHONPATH=src python tests/test_golden.py

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
SPACED = "K = 6\nr_s = 2.0\nlambda_e = 1.0\n"
# file name -> (command line after the verb's config, scenario text or None
# for the program's defaults)
TABLES = {
    f"{verb}.csv": ([verb, "--trials", "2000"], None)
    for verb in ("cop-sweep", "sop-sweep", "throughput", "caching",
                 "validate")
} | {
    "sop-sweep-K1.csv": (["sop-sweep", "--trials", "0"], "K = 1\n"),
    "sop-sweep-spaced.csv": (["sop-sweep", "--trials", "0"], SPACED),
}


def _write(name: str, directory: Path) -> Path:
    argv, scenario = TABLES[name]
    out = directory / name
    if scenario is not None:
        config = directory / f"{name}.cfg"
        config.write_text(scenario)
        argv = argv + ["--config", str(config)]
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for table in TABLES:
        path = _write(table, GOLDEN)
        Path(f"{path}.cfg").unlink(missing_ok=True)
    sys.exit(0)
