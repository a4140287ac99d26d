"""The package's public surface."""

from __future__ import annotations

from pathlib import Path

import crankspace
from crankspace.cli import UsageError


def test_all_names_resolve_once_in_sorted_order():
    names = crankspace.__all__
    assert all(hasattr(crankspace, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_refusals_share_one_base():
    assert issubclass(crankspace.CrankspaceError, ValueError)
    for error in (UsageError, crankspace.BoundExceeded, crankspace.InvalidEll, crankspace.InvalidK,
                  crankspace.InvalidCase, crankspace.HypothesisViolation):
        assert issubclass(error, crankspace.CrankspaceError)


def test_no_plain_value_error_is_raised_on_purpose():
    # a plain ValueError escaping the package is a fault (exit 3), not a refusal (exit 2)
    src = Path(crankspace.__file__).resolve().parent
    assert [p.name for p in src.glob("*.py") if "raise ValueError" in p.read_text()] == []
