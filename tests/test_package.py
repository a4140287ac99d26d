"""The package's public surface."""

from __future__ import annotations

import crankspace


def test_all_names_resolve_once_in_sorted_order():
    names = crankspace.__all__
    assert all(hasattr(crankspace, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)
