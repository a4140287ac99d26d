"""Command-line frontend for the partition-statistic engine.

Subcommands:
  poly       print a rank/crank polynomial (raw or modified) for one size
  quotient   divide a polynomial by a cyclotomic divisor
  verify     run one claim suite (or `all`), reporting pass/fail/partial
  search     threshold search over weight tuples; `search table1` preset
  colored    colored partition counts
  asymptotic exact-vs-approximation diagnostic for rank counts

Output formats: text (default), json, csv.  Exit codes: 0 = computed or all
claims passed (partial counts as passing: the claim held in its stated
range), 1 = a checked claim failed, 2 = usage error (a CrankspaceError),
3 = internal fault (any other exception, a plain ValueError included;
traceback on stderr), 141 = stdout closed before the output was written (a
reader that went away, as in `| head`; nothing on stderr).  Worker count
comes from --threads, else the number of CPUs this process may run on (its
affinity mask where the platform has one); it never changes output bytes.
main() without argv, the program entry, flushes stdout before it returns, so
a closed stdout gets 141 whatever the output's size, and freezes the heap
(gc.freeze) once the command is done, so the interpreter's exit skips
collecting it; main(argv) does neither: stdout is its caller's, and a frozen
heap would keep the caller's later garbage cycles for good.  json loads at
the first JSON write, so a text or CSV command never imports it.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from typing import Sequence

from . import partitions, search, verify
from .cyclotomic import NotDivisible, exact_quotient
from .laurent import QUOTE_CHARS, CrankspaceError, LaurentPoly, parse_int, quote

# re compiles and caches the pattern at its first use, so the import compiles nothing
_POLY_SHORTHAND = r"^(rank|crank|mrank|mcrank):(\d+)(?::(\d+))?$"
# No polynomial a shorthand builds spans more than 2 * POLY_BOUND + 1 exponents
# (crank:5000), and Phi_ell divides no nonzero polynomial spanning fewer than
# ell: `quotient` refuses a larger --ell or a wider literal before any work.
QUOTIENT_BOUND = 2 * partitions.POLY_BOUND + 1
# The exit code for a stdout closed early: a shell's code for a program SIGPIPE ends
CLOSED_STDOUT = 141
# poly's kinds and the shorthands' prefixes, each to the partitions builder it calls
_BUILDERS = {"rank": "rank_poly", "crank": "crank_poly",
             "modified-rank": "modified_rank_poly", "modified-crank": "modified_crank_poly",
             "mrank": "modified_rank_poly", "mcrank": "modified_crank_poly"}


class UsageError(CrankspaceError):
    pass


# -- output rendering -----------------------------------------------------------


def _poly_brief(poly: LaurentPoly | None) -> str:
    """A counterexample line's ` poly=...` suffix ('' without one); a long poly by its span."""
    if poly is None:
        return ""
    text = str(poly)
    if len(text) > 100:
        text = f"<{len(poly.coeffs)} coefficients on [{poly.lo}, {poly.hi}]>"
    return f" poly={text}"


def _write_json(payload, out) -> None:
    import json  # here, not at the top: no text or CSV command reads it
    json.dump(payload, out, indent=2)
    out.write("\n")


def _render_reports(reports: list[verify.Report], fmt: str, out) -> None:
    if fmt == "json":
        payload = [r.to_json_dict() for r in reports]
        _write_json(payload[0] if len(payload) == 1 else payload, out)
        return
    if fmt == "csv":
        out.write("claim_id,status,range,counterexamples,elapsed_s\n")
        for r in reports:
            note = r.range.replace('"', "'")
            out.write(f'{r.claim_id},{r.status},"{note}",{len(r.counterexamples)},{r.elapsed_s:.3f}\n')
        return
    for r in reports:
        out.write(f"{r.claim_id}: {r.status.upper()} ({r.range}) [{r.elapsed_s:.2f}s]\n")
        shown = r.counterexamples[:10]
        for c in shown:
            out.write(f"  - {c.params}{_poly_brief(c.poly)}\n")
        if len(r.counterexamples) > len(shown):
            out.write(f"  ... and {len(r.counterexamples) - len(shown)} more\n")


def _render_poly(poly: LaurentPoly, fmt: str, out) -> None:
    if fmt == "json":
        _write_json(poly.to_json_dict(), out)
    elif fmt == "csv":
        out.write("exponent,coefficient\n")
        for e, c in sorted(poly.coeff_map().items()):
            out.write(f"{e},{c}\n")
    else:
        out.write(str(poly) + "\n")


# -- subcommand handlers ----------------------------------------------------------


def _cmd_poly(args, out) -> int:
    builder = getattr(partitions, _BUILDERS[args.kind])
    if args.kind.startswith("modified"):
        if args.ell is None:
            raise UsageError(f"poly {args.kind} requires --ell")
        poly = builder(args.ell, args.n)
    else:
        if args.ell is not None:
            raise UsageError(f"poly {args.kind} does not take --ell")
        poly = builder(args.n)
    _render_poly(poly, args.format, out)
    return 0


def _parse_poly_arg(text: str) -> LaurentPoly:
    match = re.match(_POLY_SHORTHAND, text.strip())
    if match:
        kind, first, second = match.group(1), parse_int(match.group(2)), match.group(3)
        builder = getattr(partitions, _BUILDERS[kind])
        if kind in ("rank", "crank"):
            if second is not None:
                raise UsageError(f"{kind}:N takes a single number, got {quote(text)}")
            return builder(first)
        if second is None:
            raise UsageError(f"{kind} shorthand is {kind}:ELL:N, got {quote(text)}")
        return builder(first, parse_int(second))
    try:
        terms = LaurentPoly._parse_terms(text)
    except CrankspaceError as exc:
        raise UsageError(f"cannot parse polynomial {quote(text)}: {exc}") from exc
    exponents = [e for e, c in terms.items() if c]
    if exponents and max(exponents) - min(exponents) >= QUOTIENT_BOUND:
        raise partitions.BoundExceeded(
            f"--poly spans {max(exponents) - min(exponents) + 1} exponents, "
            f"more than the quotient bound {QUOTIENT_BOUND}")
    return LaurentPoly.from_coeff_map(terms)


def _cmd_quotient(args, out) -> int:
    if args.squared and args.negated:
        raise UsageError("--squared and --negated are mutually exclusive")
    if args.ell > QUOTIENT_BOUND:
        raise partitions.BoundExceeded(f"--ell {args.ell} exceeds the quotient bound {QUOTIENT_BOUND}")
    variant = "squared" if args.squared else ("negated" if args.negated else "standard")
    f = _parse_poly_arg(args.poly)
    try:
        quotient = exact_quotient(f, args.ell, variant)
    except NotDivisible as exc:
        if args.format == "json":
            _write_json({"divisible": False, "quotient": None, "reason": str(exc)}, out)
        elif args.format == "csv":
            out.write("divisible\nfalse\n")
        else:
            out.write(f"NotDivisible: {exc}\n")
        return 0
    if args.format == "json":
        _write_json({"divisible": True, "quotient": quotient.to_json_dict()}, out)
    else:
        _render_poly(quotient, args.format, out)
    return 0


def _cmd_verify(args, out) -> int:
    if args.list:
        for claim in verify.CLAIMS:
            out.write(f"{claim.claim_id:18s} {claim.description}\n")
        out.write("variants: " + ", ".join(sorted(verify.VARIANTS)) + "\n")
        out.write("patterns: " + ", ".join(c.pattern for c in verify.CLAIMS if c.pattern) + "\n")
        return 0
    if not args.claim:
        raise UsageError("verify needs a claim id or `all` (see `verify --list`)")
    reports = verify.run_claims(args.claim, args.n_max, args.n_lo, args.threads)
    _render_reports(reports, args.format, out)
    return 1 if any(r.status == "fail" for r in reports) else 0


def _cmd_search(args, out) -> int:
    ranges = {"k_lo": args.k_lo, "k_hi": args.k_hi, "n_hi": args.n_hi}
    given = {key: value for key, value in ranges.items() if value is not None}
    if args.preset == "table1" and given:
        raise UsageError("the table1 preset fixes k 3..6 and bound 75; "
                         "drop the preset to use custom ranges")
    results = search.exhaustive_search(**given, threads=args.threads)
    if args.format == "json":
        _write_json([r.to_json_dict() for r in results], out)
    else:
        out.write(search.results_to_csv(results))
    return 0


def _cmd_colored(args, out) -> int:
    if args.k < 1:
        raise UsageError("colored pk needs --k >= 1")
    value = partitions.colored_count(args.k, args.n)
    if args.format == "json":
        _write_json({"k": args.k, "n": args.n, "value": str(value)}, out)
    elif args.format == "csv":
        out.write("k,n,value\n")
        out.write(f"{args.k},{args.n},{value}\n")
    else:
        out.write(f"{value}\n")
    return 0


def _cmd_asymptotic(args, out) -> int:
    m_values = args.m if args.m else None
    samples = verify.rank_asymptotic_samples(args.n, m_values)
    if args.format == "json":
        _write_json([s.to_json_dict() for s in samples], out)
        return 0
    if args.format == "csv":
        out.write("n,m,gamma,predicted,actual,rel_error,out_of_range\n")
        for s in samples:
            out.write(f"{s.n},{s.m},{s.gamma:.9g},{s.predicted:.9g},{s.actual},"
                      f"{s.rel_error:.9g},{s.out_of_range}\n")
        return 0
    for s in samples:
        flag = " (outside validity window)" if s.out_of_range else ""
        out.write(f"n={s.n} m={s.m}: actual={s.actual} predicted={s.predicted:.2f} "
                  f"rel_error={s.rel_error:.4f}{flag}\n")
    return 0


# -- parser ---------------------------------------------------------------------


def _shorten(message: str, run: str = r"\d") -> str:
    """message with every run of `run` characters past QUOTE_CHARS cut to its head and length."""
    def cut(m: re.Match) -> str:
        unit = "digits" if m[0].isdigit() else "characters"
        return f"{m[0][:QUOTE_CHARS]}... ({len(m[0])} {unit})"
    return re.sub(rf"{run}{{{QUOTE_CHARS + 1},}}", cut, message)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose own refusals shorten each long word they echo, as `main` does."""

    def error(self, message: str):
        super().error(_shorten(message, r"\S"))


def _int(text: str) -> int:
    """The type of every integer option: parse_int, refused in argparse's words."""
    try:
        return parse_int(text)
    except CrankspaceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quote(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crankspace",
        description="Exact rank/crank partition statistics: polynomials, "
                    "cyclotomic quotients, claim verification, threshold search.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="output format (default text)")
    parser.add_argument("--threads", type=_int, default=None,
                        help="worker count (>= 1) for search-backed commands (default: CPU count)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print a rank/crank polynomial")
    p.set_defaults(handler=_cmd_poly)
    p.add_argument("kind", choices=("rank", "crank", "modified-rank", "modified-crank"))
    p.add_argument("--n", type=_int, required=True, help="partition size / progression index")
    p.add_argument("--ell", type=_int, default=None,
                   help="progression modulus (modified polynomials only)")

    p = sub.add_parser("quotient", help="divide a polynomial by a cyclotomic divisor")
    p.set_defaults(handler=_cmd_quotient)
    p.add_argument("--ell", type=_int, required=True, help="odd prime index of the divisor")
    p.add_argument("--squared", action="store_true", help="divide by the squared-argument variant")
    p.add_argument("--negated", action="store_true", help="divide by the negated-argument variant")
    p.add_argument("--poly", required=True,
                   help="literal polynomial text, or rank:N / crank:N / mrank:ELL:N / mcrank:ELL:N")

    p = sub.add_parser("verify", help="run a claim verification suite")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("claim", nargs="?", help="claim id, or `all`")
    p.add_argument("--n-max", type=_int, default=None, dest="n_max",
                   help="largest progression index / size index to check (suite default otherwise)")
    p.add_argument("--n-lo", type=_int, default=None, dest="n_lo",
                   help="smallest n for the monotonicity scan (default 1)")
    p.add_argument("--list", action="store_true", help="list claim ids and exit")

    p = sub.add_parser("search", help="threshold search over weight tuples")
    p.set_defaults(handler=_cmd_search)
    p.add_argument("preset", nargs="?", choices=("table1",),
                   help="table1 = the reference scan (k 3..6, bound 75)")
    p.add_argument("--k-lo", type=_int, default=None, dest="k_lo")
    p.add_argument("--k-hi", type=_int, default=None, dest="k_hi")
    p.add_argument("--n-hi", type=_int, default=None, dest="n_hi",
                   help="scan bound: slices 1 <= n < n_hi (default 75)")

    p = sub.add_parser("colored", help="colored partition counts")
    p.set_defaults(handler=_cmd_colored)
    p.add_argument("what", choices=("pk",))
    p.add_argument("--k", type=_int, required=True, help="number of colors")
    p.add_argument("--n", type=_int, required=True, help="partition size")

    p = sub.add_parser("asymptotic", help="rank-count large-size approximation diagnostic")
    p.set_defaults(handler=_cmd_asymptotic)
    p.add_argument("--n", type=_int, required=True, help="partition size")
    p.add_argument("--m", type=_int, action="append", default=None,
                   help="rank value to sample (repeatable; default: a small window)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.threads is not None and args.threads < 1:
            raise UsageError(f"--threads must be >= 1, got {args.threads}")
        code = args.handler(args, sys.stdout)
        if argv is None:  # so that a closed stdout fails here, not in the interpreter's exit
            sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader went away; what is left unwritten goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    except CrankspaceError as exc:  # numbers past QUOTE_CHARS digits are shortened like text
        print(f"error: {_shorten(str(exc))}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # here, not at the top, to keep the cold start lean
        traceback.print_exc()
        return 3
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
