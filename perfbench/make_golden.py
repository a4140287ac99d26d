"""Record the output digest of every operation any workload seed can generate.

    PYTHONPATH=src python3 perfbench/make_golden.py

Run from the root of a checkout whose outputs are known to be right; it
rewrites perfbench/golden.json.  Operations run in this one process through
`crankspace.cli.main`, so the module caches are shared between them; the
outputs are exact and do not depend on that.  A changed digest after a
later change to the program means changed output bytes, which the benchmark
counts as failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from checks import digest
from workloads import all_ops

from crankspace import cli


def main() -> int:
    golden = {}
    for argv in all_ops():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["--threads", "2", *argv])
        if rc != 0:
            print(f"exit {rc}: {' '.join(argv)}", file=sys.stderr)
            return 1
        golden[" ".join(argv)] = digest(argv, buf.getvalue().encode())
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} digests written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
