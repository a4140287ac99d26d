"""The outputs the README shows for its `crankspace` examples are what the CLI prints."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from crankspace import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# Commented examples whose comment describes the command instead of showing its output.
DESCRIBED = {
    "verify --list",
    "verify all",
    "search table1",
    "search --k-lo 3 --k-hi 4 --n-hi 40",
    "asymptotic --n 100 --m 0",
}


def _commented_examples() -> list[tuple[str, str]]:
    """(arguments, comment) of every README line `crankspace <arguments>  # <comment>`."""
    return re.findall(r"^crankspace (.+?)\s+# (.+)$", README.read_text(), re.MULTILINE)


SHOWN = [(args, comment) for args, comment in _commented_examples() if args not in DESCRIBED]


def test_described_examples_are_still_in_the_readme():
    assert DESCRIBED <= {args for args, _ in _commented_examples()}


@pytest.mark.parametrize("args,shown", SHOWN, ids=[args for args, _ in SHOWN])
def test_shown_output_is_printed(capsys, args, shown):
    # a trailing "(exit N)" gives the exit code; "..." stands for any text
    match = re.fullmatch(r"(.*) \(exit (\d+)\)", shown)
    shown, code = (match[1], int(match[2])) if match else (shown, 0)
    assert cli.main(shlex.split(args)) == code
    out = capsys.readouterr().out.rstrip("\n")
    if shown.startswith("{"):
        assert json.loads(out) == json.loads(shown)
    else:
        assert re.fullmatch(".*".join(map(re.escape, shown.split("..."))), out, re.DOTALL)
