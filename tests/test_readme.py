"""The README's examples run as written."""

import re
from pathlib import Path

from cachesec.cli import Scenario, parse_scenario_text

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang: str) -> str:
    """The README's one fenced block in the given language."""
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)
    return block


def test_readme_quickstart_runs():
    exec(compile(_block("python"), "README.md", "exec"), {})


def test_readme_scenario_is_the_default():
    assert parse_scenario_text(_block("ini"), "README.md") == Scenario()
