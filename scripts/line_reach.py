"""Every statement of the package that the test suite never executes.

    python scripts/line_reach.py [pytest arguments]

Runs the test suite (by default the Tier-1 command's, on tests/) in this
process under sys.settrace and threading.settrace, so that the CLI's
worker threads are traced too, and records each line of src/cachesec that
runs. Then it lists every statement of src/cachesec, function bodies,
class bodies and module level alike, none of whose lines ran: a branch no
test takes, or code nothing calls. Statements that compile to no
instruction (docstrings and other bare constants, global and nonlocal,
bare annotations) are not counted.

It exits 1 when the tests fail, or when the unreached statements are not
exactly ALLOWED: the one statement no in-process test can run, the CLI's
`__main__` call. A test run in a subprocess is not traced. The traced run
takes about 1.5 times the suite's own time.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cachesec"
# (module file, statement source) of the statements no test may reach
ALLOWED = {("cli.py", "sys.exit(main())")}


def statements(path: Path) -> list[ast.stmt]:
    """The simple statements of a module, in every scope, that compile to
    an instruction: a compound statement runs through its body's."""
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.stmt) and not hasattr(node, "body")
            and not isinstance(node, (ast.Global, ast.Nonlocal))
            and not (isinstance(node, ast.Expr)
                     and isinstance(node.value, ast.Constant))
            and not (isinstance(node, ast.AnnAssign) and node.value is None)]


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The suite's exit code and the lines it ran, per file of PACKAGE."""
    files = {str(p.resolve()): set() for p in PACKAGE.glob("*.py")}
    seen: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = files.get(os.path.realpath(name))
        lines = seen[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), files


def unreached(files: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """(module file, line, source) of each statement none of whose lines
    ran."""
    missed = []
    for name, lines in sorted(files.items()):
        path = Path(name)
        text = path.read_text()
        for node in statements(path):
            if lines.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                missed.append((path.name, node.lineno,
                               ast.get_source_segment(text, node)))
    return sorted(missed)


def main() -> int:
    args = sys.argv[1:] or ["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors",
                            str(ROOT / "tests")]
    code, files = traced_run(args)
    missed = unreached(files)
    for name, line, source in missed:
        print(f"unreached: src/cachesec/{name}:{line}: "
              f"{source.splitlines()[0]}")
    found = {(name, source) for name, _, source in missed}
    stale = ALLOWED - found
    for name, source in sorted(stale):
        print(f"allowed but reached: src/cachesec/{name}: {source}")
    if code != 0:
        print(f"the tests failed (pytest exit code {code})", file=sys.stderr)
    return int(code != 0 or found != ALLOWED)


if __name__ == "__main__":
    sys.exit(main())
