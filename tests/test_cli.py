"""Command-line interface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import crankspace
from crankspace import cli, partitions, search, verify
from crankspace.cli import QUOTIENT_BOUND, main
from crankspace.laurent import DIGITS_BOUND
from crankspace.partitions import COLORED_K_BOUND, POLY_BOUND

VERIFY_LIST = """\
conj1.1-part1      modified rank: cyclotomic quotient non-negative (ell=5,7)
conj1.1-part2      crank at 5n+4: quotient by squared-argument divisor non-negative
conj1.1-part3      modified crank: cyclotomic quotient non-negative (ell=5,7,11)
conj1.3            rank counts weakly decreasing over the window (onset 39)
thm2.2             crank residue classes mod 10 at 5n+4 are 1/5 of the mod-2 classes
lem2.4             near-top crank counts M(n-k, n) are constant in n
crank-n22-gap      named regression: constancy gap at progression index 22
thm1.2             colored congruences, all admissible cases with k <= 12
cor3.5             distinguished-family slices: divisibility and onset positivity
conj1.4            distinguished families unimodal above onsets 15/24 (k <= 12)
conj4.2            eventual unimodality iff the top two weights are adjacent (k <= 6)
variants: conj1.1-part1-ell5, conj1.1-part1-ell7, conj1.1-part3-ell11, conj1.1-part3-ell5, \
conj1.1-part3-ell7
patterns: thm1.2-k<K>-h<H>-ell<L>, cor3.5-<A|B>-k<K>-ell<L>
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPolyCommand:
    def test_rank_text(self, capsys):
        code, out, _ = run(capsys, "poly", "rank", "--n", "4")
        assert code == 0
        assert out.strip() == "1*z^-3 + 1*z^-1 + 1*z^0 + 1*z^1 + 1*z^3"

    def test_crank_size_one_is_corrected(self, capsys):
        code, out, _ = run(capsys, "poly", "crank", "--n", "1")
        assert code == 0
        assert out.strip() == "1*z^0"

    def test_modified_variants_need_ell(self, capsys):
        code, out, _ = run(capsys, "poly", "modified-crank", "--ell", "5", "--n", "0")
        assert code == 0 and "z^" in out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("poly", "modified-rank", "--n", "0"), "ell"),
            (("poly", "rank", "--n", "5001"), "5000"),
            (("asymptotic", "--n", "100", "--m", "100000"), "m=100000"),  # cosh overflows
            (("asymptotic", "--n", "100", "--m", "8000"), "m=8000"),  # sech^2 underflows to 0
            (("colored", "pk", "--k", "1001", "--n", "1"), "colored-count bound"),
            (("colored", "pk", "--k", "1", "--n", "29241"), "colored-count bound"),
            (("verify", "thm1.2-k1000000001-h4-ell5"), "colored-count bound"),
            (("verify", "thm1.2-k996-h4-ell5", "--n-max", "150"), "colored-count bound"),
            (("verify", "conj1.3", "--n-lo", "-5", "--n-max", "3"), "n_lo"),
        ],
    )
    def test_bad_request_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err

    def test_json_uses_decimal_strings(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "poly", "rank", "--n", "3")
        data = json.loads(out)
        assert code == 0
        assert data == {"lo": -2, "coeffs": ["1", "0", "1", "0", "1"]}

    def test_csv_rows_are_exponent_coefficient(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "poly", "rank", "--n", "3")
        assert code == 0
        assert out.splitlines()[:2] == ["exponent,coefficient", "-2,1"]


class TestQuotientCommand:
    def test_squared_divisor_shorthand(self, capsys):
        code, out, _ = run(
            capsys, "quotient", "--ell", "5", "--squared", "--poly", "crank:4"
        )
        assert code == 0 and out.strip() == "1*z^-4"

    def test_modified_rank_shorthand(self, capsys):
        code, out, _ = run(capsys, "quotient", "--ell", "5", "--poly", "mrank:5:0")
        assert code == 0 and out.strip() == "1*z^-2"

    def test_literal_polynomial_text(self, capsys):
        code, out, _ = run(
            capsys,
            "quotient", "--ell", "5", "--poly",
            "1*z^0 + 1*z^1 + 1*z^2 + 1*z^3 + 1*z^4",
        )
        assert code == 0 and out.strip() == "1*z^0"

    def test_not_divisible_reports_but_succeeds(self, capsys):
        code, out, _ = run(capsys, "quotient", "--ell", "5", "--poly", "rank:2")
        assert code == 0
        assert out.startswith("NotDivisible")

    def test_json_reports_divisibility(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json",
            "quotient", "--ell", "5", "--squared", "--poly", "crank:4",
        )
        data = json.loads(out)
        assert code == 0
        assert data["divisible"] is True
        assert data["quotient"] == {"lo": -4, "coeffs": ["1"]}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_short_dividend_reports_spans_not_polynomials(self, capsys, fmt):
        code, out, _ = run(capsys, "--format", fmt, "quotient", "--ell", "9973", "--poly", "1")
        assert code == 0 and len(out.encode()) < 300
        assert "z^0..z^0" in out and "z^0..z^9972" in out

    def test_bad_shorthand_exits_two(self, capsys):
        code, _, err = run(capsys, "quotient", "--ell", "5", "--poly", "wat:xx")
        assert code == 2 and "cannot parse" in err

    @pytest.mark.parametrize("argv", [
        ("--ell", "10007", "--poly", "1"),
        ("--ell", "5", "--poly", "z^10001 + 1"),
    ])
    def test_quotient_bound_is_refused_before_the_divisor(self, capsys, monkeypatch, argv):
        calls = []
        divide = cli.exact_quotient
        monkeypatch.setattr(cli, "exact_quotient", lambda *args: calls.append(args) or divide(*args))
        code, out, err = run(capsys, "quotient", *argv)
        assert code == 2 and out == ""
        assert "quotient bound 10001" in err
        assert calls == []


class TestVerifyCommand:
    def test_list_claims(self, capsys):
        code, out, _ = run(capsys, "verify", "--list")
        assert code == 0
        assert out == VERIFY_LIST

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "conj1.1-part1", "--n-max", "-1"),
            ("verify", "lem2.4", "--n-max", "-5"),
            ("verify", "thm1.2-k1-h4-ell5", "--n-max", "-1"),
            ("--threads", "1", "verify", "conj1.4", "--n-max", "0"),
            ("verify", "conj1.3", "--n-lo", "39", "--n-max", "38"),
            ("verify", "all", "--n-max", "1"),
        ],
    )
    def test_empty_range_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "empty range" in err

    @pytest.mark.parametrize("claim,n_max", [("conj4.2", "30"), ("all", "4")])
    def test_short_first_gap_scan_is_partial_not_failed(self, capsys, claim, n_max):
        # a top slice that is not unimodal at the scan bound may still turn unimodal
        code, out, _ = run(capsys, "--threads", "1", "verify", claim, "--n-max", n_max)
        assert code == 0
        assert "conj4.2: PARTIAL" in out and "adjacent-pair-not-unimodal" in out
        assert "FAIL" not in out

    def test_single_claim_text(self, capsys):
        code, out, _ = run(capsys, "verify", "lem2.4", "--n-max", "20")
        assert code == 0
        assert out.startswith("lem2.4: PASS")

    def test_variant_id_pins_modulus(self, capsys):
        code, out, _ = run(capsys, "verify", "conj1.1-part1-ell7", "--n-max", "3")
        assert code == 0
        assert "ell=7" in out

    def test_congruence_instance_id(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1.2-k1-h4-ell5", "--n-max", "10")
        assert code == 0 and "PASS" in out

    def test_quotient_instance_id(self, capsys):
        code, out, _ = run(capsys, "verify", "cor3.5-A-k6-ell5", "--n-max", "3")
        assert code == 0 and "PASS" in out

    def test_partial_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "conj1.3", "--n-max", "40")
        assert code == 0
        assert "PARTIAL" in out

    @pytest.mark.parametrize("claim", ["thm1.2", "all"])
    def test_colored_bound_is_refused_before_any_suite(self, capsys, monkeypatch, claim):
        calls = []
        monkeypatch.setattr(partitions, "colored_count", lambda k, n: calls.append((k, n)) or 0)
        code, out, err = run(capsys, "verify", claim, "--n-max", "650")
        assert code == 2 and out == ""
        assert "colored-count bound" in err
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ("verify", "thm2.2", "--n-lo", "5", "--n-max", "10"),
        ("verify", "lem2.4", "--n-lo", "50", "--n-max", "20"),
        ("verify", "all", "--n-lo", "5", "--n-max", "1"),
    ])
    def test_n_lo_is_refused_where_no_suite_reads_it(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "does not take n_lo" in err

    def test_unknown_claim_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "bogus-claim")
        assert code == 2 and "unknown claim" in err

    @pytest.mark.parametrize("claim", [
        "cor3.5-A-k6-ell1000000007", "thm1.2-k1-h4-ell1000000007",
        "cor3.5-A-k6-ell1000000016000000063", "thm1.2-k1-h4-ell1000000016000000063",
    ])
    def test_large_prime_instance_exits_two(self, capsys, claim):
        code, out, err = run(capsys, "verify", claim)
        assert code == 2 and out == ""
        assert "error" in err.lower()

    def test_json_single_report_is_a_dict(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "verify", "thm2.2", "--n-max", "10"
        )
        data = json.loads(out)
        assert code == 0
        assert data["claim_id"] == "thm2.2"
        assert data["status"] == "pass"
        assert data["counterexamples"] == []

    def test_csv_report_header(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "verify", "thm2.2", "--n-max", "10"
        )
        assert code == 0
        assert out.splitlines()[0] == "claim_id,status,range,counterexamples,elapsed_s"


class TestSearchCommand:
    def test_text_output_is_the_csv(self, capsys):
        code, text_out, _ = run(capsys, "search", "--k-lo", "3", "--k-hi", "3")
        code2, csv_out, _ = run(
            capsys, "--format", "csv", "search", "--k-lo", "3", "--k-hi", "3"
        )
        assert code == code2 == 0
        assert text_out == csv_out
        assert text_out.splitlines()[0] == "k,a_vector,threshold,n_hi"
        assert text_out.splitlines()[1] == '3,"(2,1)",7,75'

    def test_threads_flag_never_changes_bytes(self, capsys, monkeypatch):
        # three usable CPUs, so that --threads 3 forks two children on any host
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        # verify all fans its plans out; cut to --n-max 5, it runs every claim in a third of a second
        for argv in (("search", "--k-lo", "3", "--k-hi", "4", "--n-hi", "40"),
                     ("--format", "json", "verify", "conj1.4", "--n-max", "30"),
                     ("--format", "json", "verify", "all", "--n-max", "5")):
            runs = []
            for threads in ("1", "2", "3"):
                code, out, _ = run(capsys, "--threads", threads, *argv)
                assert code == 0
                runs.append([line for line in out.splitlines() if '"elapsed_s"' not in line])
            assert runs[0] == runs[1] == runs[2]

    def test_preset_rejects_custom_ranges(self, capsys):
        code, _, err = run(capsys, "search", "table1", "--k-lo", "3")
        assert code == 2 and "preset" in err

    def test_json_row_shape(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "search", "--k-lo", "3", "--k-hi", "3",
            "--n-hi", "20",
        )
        rows = json.loads(out)
        assert code == 0 and len(rows) == 3
        assert rows[0] == {
            "k": 3, "a": [2, 1], "n_hi": 20, "threshold": 7,
            "eventually_unimodal": True, "largest_nonunimodal": 7,
        }

    def test_invalid_range_exits_two(self, capsys):
        code, _, err = run(capsys, "search", "--k-lo", "2")
        assert code == 2 and "error" in err.lower()

    @pytest.mark.parametrize("argv", [
        ("--k-hi", "30"),
        ("--n-hi", "100000"),
    ])
    def test_scan_bound_is_refused_before_any_slice(self, capsys, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(search, "slice_defects", lambda *args: calls.append(args) or [])
        code, out, err = run(capsys, "search", *argv)
        assert code == 2 and out == ""
        assert "scan work bound" in err
        assert calls == []

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_exit_two(self, capsys, threads):
        code, out, err = run(capsys, "--threads", threads, "search", "--k-lo", "3", "--k-hi", "3")
        assert code == 2 and out == ""
        assert "--threads" in err


class TestColoredAndAsymptotic:
    def test_colored_count(self, capsys):
        code, out, _ = run(capsys, "colored", "pk", "--k", "3", "--n", "10")
        assert code == 0 and out.strip() == "2640"

    def test_colored_validates_arguments(self, capsys):
        code, _, err = run(capsys, "colored", "pk", "--k", "0", "--n", "1")
        assert code == 2

    def test_asymptotic_text_marks_window(self, capsys):
        code, out, _ = run(capsys, "asymptotic", "--n", "64", "--m", "0", "--m", "40")
        assert code == 0
        lines = out.strip().splitlines()
        assert "outside validity window" not in lines[0]
        assert "outside validity window" in lines[1]

    def test_asymptotic_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "asymptotic", "--n", "100", "--m", "0")
        rows = json.loads(out)
        assert code == 0 and rows[0]["n"] == 100
        assert rows[0]["actual"] == 6228740


def _quotient_past_the_str_limit() -> str:
    """A --poly literal whose quotient by Phi_5 has a 4,301-digit coefficient.

    q with q_5j = t_j and q_5j+1 = -t_j, t = 1, 2, .., 11, .., 1 times 10^4299:
    f = Phi_5 * q has only the coefficients +-10^4299, 4,300 digits each.
    """
    t = [min(j + 1, 21 - j) for j in range(21)] + [0]
    unit = "1" + "0" * 4299
    return " ".join(f"{'+' if t[j] > t[j - 1] else '-'} {unit}*z^{5 * j}" for j in range(22))


BIG = "7" * 5000
WORD = "x" * 5000


class TestRequestNumbers:
    @pytest.mark.parametrize("argv", [
        ("verify", f"thm1.2-k{BIG}-h4-ell5"),
        ("verify", f"cor3.5-A-k{BIG}-ell5"),
        ("quotient", "--ell", "5", "--poly", f"z^{BIG}"),
        ("quotient", "--ell", "5", "--poly", f"{BIG}*z^1"),
        ("quotient", "--ell", "5", "--poly", f"rank:{BIG}"),
        ("quotient", "--ell", "5", "--poly", _quotient_past_the_str_limit()),
    ], ids=["thm1.2-k", "cor3.5-k", "exponent", "coefficient", "shorthand", "quotient-literal"])
    def test_a_number_past_the_digit_bound_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "4000-digit bound" in err and "Traceback" not in err

    @pytest.mark.parametrize("claim_id", [
        "thm1.2-k2305843009213693945-h6-ell2305843009213693951",  # ell = 2^61 - 1, k + h = ell
        "cor3.5-A-k2305843009213693945-ell2305843009213693951",
    ])
    def test_k_is_refused_before_ell_is_tested_for_primality(self, capsys, claim_id):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", claim_id)
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == "" and "colored-count bound" in err


class TestRefusalQuotes:
    @pytest.mark.parametrize("argv", [
        ("quotient", "--ell", "5", "--poly", "z^" + "9" * 5000),  # past the digit bound
        ("quotient", "--ell", "5", "--poly", "+".join(["z"] * 1505) + "?"),  # malformed at the end
        ("verify", "x" * 3000),  # no such claim
    ], ids=["digits", "malformed", "claim-id"])
    def test_a_long_text_is_quoted_by_its_head(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.encode()) < 300 and f"... ({len(argv[-1])} characters)" in err

    @pytest.mark.parametrize("argv,shown", [
        (("verify", "all", "--n-max", "9" * DIGITS_BOUND), "n=" + "9" * 60 + "... (4000 digits)"),
        (("poly", "rank", "--n", "9" * DIGITS_BOUND), "n=" + "9" * 60 + "... (4000 digits)"),
        (("poly", "rank", "--n", BIG), "a 5000-digit number is past the 4000-digit bound"),
    ], ids=["verify-all", "poly", "argparse"])
    def test_a_long_number_is_shortened(self, capsys, argv, shown):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own refusal
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2 and len(err.encode()) < 2048 and shown in err

    @pytest.mark.parametrize("argv,shown", [
        (("poly", WORD, "--n", "1"), "argument kind: invalid choice: '" + WORD[:59] + "... (5002 characters) ("),
        (("--format", WORD, "poly", "rank", "--n", "1"),
         "argument --format: invalid choice: '" + WORD[:59] + "... (5002 characters) ("),
        (("poly", "rank", "--n", "1", BIG), "unrecognized arguments: " + BIG[:60] + "... (5000 digits)\n"),
        (("poly", "rank", "--n", "1", WORD), "unrecognized arguments: " + WORD[:60] + "... (5000 characters)\n"),
    ], ids=["choice", "format-choice", "stray-number", "stray-word"])
    def test_argparse_refusals_shorten_what_they_echo(self, capsys, argv, shown):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2 and len(err.encode()) < 500 and shown in err

    @pytest.mark.parametrize("argv,line", [
        (["poly", "nope", "--n", "1"], "crankspace poly: error: argument kind: invalid choice: 'nope' "
                                       "(choose from 'rank', 'crank', 'modified-rank', 'modified-crank')\n"),
        (["poly", "rank", "--n", "1", "stray"], "crankspace: error: unrecognized arguments: stray\n"),
    ], ids=["choice", "stray"])
    def test_short_argparse_refusals_are_unchanged(self, capsys, argv, line):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and capsys.readouterr().err.endswith(line)

    def test_a_non_number_keeps_argparse_wording(self, capsys):
        with pytest.raises(SystemExit):
            main(["poly", "rank", "--n", "abc"])
        assert "argument --n: invalid int value: 'abc'\n" in capsys.readouterr().err

    def test_a_short_literal_is_quoted_whole(self, capsys):
        code, _, err = run(capsys, "quotient", "--ell", "5", "--poly", "2*z^1 z")
        assert code == 2
        assert err == "error: cannot parse polynomial '2*z^1 z': missing sign between terms in '2*z^1 z'\n"


class TestArgparseErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "rank"])
        assert exc.value.code == 2


M61 = str(2**61 - 1)
# 0, -1, 2^61 - 1, numbers at and one past DIGITS_BOUND digits, and a 5,000-digit one
EDGES = ["0", "-1", M61, "9" * DIGITS_BOUND, "9" * (DIGITS_BOUND + 1), BIG]


class TestArgvFuzz:
    """Seeded argv lists drawn from the parser's grammar, run in-process at --threads 1.

    Each option's value comes from the edge values plus that option's bounds
    and one past them.  A request is admitted only where it is cheap:
    `verify` always gets --n-max (0..2 or an edge) and `search` --n-hi, so
    the time budget measures refusals, not work.
    """

    POOLS = {
        "n": EDGES + ["1", "2", "100", str(POLY_BOUND), str(POLY_BOUND + 1)],
        "ell": EDGES + ["5", "7", "11", "13", str(QUOTIENT_BOUND), str(QUOTIENT_BOUND + 1)],
        "k": EDGES + ["1", "3", "12", str(COLORED_K_BOUND), str(COLORED_K_BOUND + 1)],
        "m": EDGES + ["3", "8000", "100000"],
        "n_max": EDGES + ["1", "2", "1000000"],
        "n_lo": EDGES + ["1", "2"],
        "k_lo": EDGES + ["3", "4", "7"],
        "k_hi": EDGES + ["3", "6", "7", str(COLORED_K_BOUND)],
        "n_hi": EDGES + ["1", "2", "3", "1000000"],
    }
    ALWAYS = {"n_max", "n_hi"}
    ID_NUMBERS = EDGES + ["1", "5", "6", "9", "11", "14", "23",
                          str(COLORED_K_BOUND), str(COLORED_K_BOUND + 1)]

    def claim_id(self, rng: random.Random) -> str:
        known = [c.claim_id for c in verify.CLAIMS] + sorted(verify.VARIANTS) + [
            "thm1.2-k9-h14-ell23", "cor3.5-B-k11-ell5"]
        number = lambda _=None: rng.choice(self.ID_NUMBERS)
        return rng.choice([
            lambda: "all",
            lambda: rng.choice(known),
            lambda: f"thm1.2-k{number()}-h{number()}-ell{number()}",
            lambda: f"cor3.5-{rng.choice('ABC')}-k{number()}-ell{number()}",
            lambda: re.sub(r"\d+", number, rng.choice(known)),  # every number mangled
        ])()

    def poly(self, rng: random.Random) -> str:
        n = lambda: rng.choice(self.POOLS["n"])
        ell = lambda: rng.choice(self.POOLS["ell"])
        return rng.choice([
            lambda: f"{rng.choice(['rank', 'crank'])}:{n()}",
            lambda: f"{rng.choice(['mrank', 'mcrank'])}:{ell()}:{n()}",
            lambda: f"rank:{n()}:{n()}",
            lambda: f"z^{n()} + 1",
            lambda: f"z^-{n()}",
            lambda: f"{n()}*z^1",
            lambda: f"z^{QUOTIENT_BOUND - 1} + 1",
            lambda: f"z^{QUOTIENT_BOUND} + 1",
            lambda: rng.choice(["", "1", "z + 1", "z^0 + z^1 + z^2 + z^3 + z^4", "2*z^1 z"]),
            _quotient_past_the_str_limit,
        ])()

    def value(self, rng: random.Random, action: argparse.Action) -> list[str]:
        if action.nargs == 0:  # a flag
            return []
        if action.choices:
            return [rng.choice([*action.choices, "nope", WORD])]
        if action.dest == "claim":
            return [self.claim_id(rng)]
        if action.dest == "poly":
            return [self.poly(rng)]
        if action.dest == "n_max":
            return [rng.choice(["0", "1", "2", rng.choice(self.POOLS["n_max"])])]
        return [rng.choice(self.POOLS[action.dest])]

    def argv(self, rng: random.Random, commands: dict) -> list[str]:
        argv = ["--threads", "1"]
        if rng.random() < 0.3:
            argv += ["--format", rng.choice(["text", "json", "csv"])]
        command = rng.choice(sorted(commands))
        argv.append(command)
        for action in commands[command]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            needed = action.required or (not action.option_strings and action.nargs is None)
            if action.dest in self.ALWAYS or rng.random() < (0.95 if needed else 0.5):
                argv += [*action.option_strings[:1], *self.value(rng, action)]
        if rng.random() < 0.03:
            argv.append(rng.choice(["--no-such-option", BIG, WORD]))
        return argv

    def test_every_request_exits_cleanly_and_in_time(self, capsys):
        rng = random.Random(2026)
        [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        faults, codes = [], []
        start = time.perf_counter()
        for _ in range(300):
            argv = self.argv(rng, sub.choices)
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own refusals
                code = exc.code
            took = time.perf_counter() - t0
            out, err = capsys.readouterr()
            codes.append(code)
            refusal_too_long = code == 2 and (out or len(err.encode()) >= 2048)
            if code not in (0, 1, 2) or refusal_too_long or took >= 2.0:
                shown = [a if len(a) <= 40 else f"<{len(a)} characters>" for a in argv]
                faults.append((shown, code, round(took, 2)))
        assert faults == []
        assert time.perf_counter() - start < 5.0
        assert {0, 2} <= set(codes)


class TestInternalFaults:
    def test_fault_exits_three_with_a_traceback(self, capsys, monkeypatch):
        def broken(n):
            raise RuntimeError("broken closed form")

        monkeypatch.setattr(partitions, "rank_poly", broken)
        code, out, err = run(capsys, "poly", "rank", "--n", "5")
        assert code == 3 and out == ""
        assert "Traceback" in err and "RuntimeError: broken closed form" in err

    def test_stray_value_error_exits_three(self, capsys, monkeypatch):
        def broken(n_max=99):
            raise ValueError("a fault inside a suite")

        monkeypatch.setattr(verify, "verify_crank_mod10", broken)
        code, out, err = run(capsys, "verify", "thm2.2")
        assert code == 3 and out == ""
        assert "Traceback" in err and "ValueError: a fault inside a suite" in err


def test_cold_commands_import_no_dataclasses_or_pool():
    script = (
        "import sys\n"
        "from crankspace.cli import main\n"
        "assert main(['poly', 'rank', '--n', '5']) == 0\n"
        "assert main(['verify', '--list']) == 0\n"
        "print(sorted({'dataclasses', 'inspect', 'multiprocessing'} & set(sys.modules)))\n"
    )
    src = str(Path(crankspace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
