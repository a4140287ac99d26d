"""Output digests that decide whether an operation succeeded.

Text and CSV output is hashed byte for byte.  JSON output (operations that
pass `--format json`) must parse, must be byte-identical to its own
`json.dumps(..., indent=2)` rendering, and is hashed after dropping the
measurement fields `elapsed_s` and `metrics`, whose values differ on every
run.  So any altered byte outside those values makes the digest, or the
rendering check, fail.
"""

from __future__ import annotations

import hashlib
import json
import random

MEASUREMENT_KEYS = ("elapsed_s", "metrics")
# The self-check alters a byte among the first ones of an output: a report's
# claim id or a polynomial's first terms, never a measurement field.
SELF_CHECK_SPAN = 40


def _drop_measurements(value):
    if isinstance(value, dict):
        return {k: _drop_measurements(v) for k, v in value.items() if k not in MEASUREMENT_KEYS}
    if isinstance(value, list):
        return [_drop_measurements(v) for v in value]
    return value


def digest(argv, stdout: bytes) -> str:
    """Short sha256 of an operation's stdout, normalized as described above."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        try:
            text = stdout.decode("utf-8")
            parsed = json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return "unparsable-json"
        if text != json.dumps(parsed, indent=2) + "\n":
            return "json-not-canonical"
        stdout = json.dumps(_drop_measurements(parsed), sort_keys=True).encode()
    return hashlib.sha256(stdout).hexdigest()[:16]


def flip_one_byte(data: bytes, rng: random.Random) -> tuple[bytes, int]:
    pos = rng.randrange(min(len(data), SELF_CHECK_SPAN))
    return data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:], pos
