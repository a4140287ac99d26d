"""Golden replay: every benchmark operation still prints the bytes it printed.

perfbench/golden.json holds the output digest of every operation a benchmark
workload can generate.  Each operation runs here in this one process through
`cli.main` with two workers, as perfbench/make_golden.py recorded them, and
its digest must match.  perfbench/ is only read.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from crankspace import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # write no cache into perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def test_every_benchmark_operation_matches_its_golden_digest(capsys):
    digest = _load("checks").digest
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    replayed = {}
    for argv in _load("workloads").all_ops():
        code = cli.main(["--threads", "2", *argv])
        out = capsys.readouterr().out
        replayed[" ".join(argv)] = digest(argv, out.encode()) if code == 0 else f"exit {code}"
    assert len(replayed) == len(golden) == 165
    assert {op: d for op, d in replayed.items() if golden.get(op) != d} == {}
