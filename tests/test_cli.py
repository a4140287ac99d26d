"""Command-line interface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from crankspace.cli import main

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

    def test_bad_shorthand_exits_two(self, capsys):
        code, _, err = run(capsys, "quotient", "--ell", "5", "--poly", "wat:xx")
        assert code == 2 and "cannot parse" in err


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

    def test_unknown_claim_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "bogus-claim")
        assert code == 2 and "unknown claim" in err

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

    def test_threads_flag_never_changes_bytes(self, capsys):
        runs = []
        for threads in ("1", "2"):
            code, out, _ = run(
                capsys,
                "--threads", threads,
                "search", "--k-lo", "3", "--k-hi", "4", "--n-hi", "40",
            )
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

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
        assert code == 2 and "error" in err.lower() or "k" in err

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


class TestArgparseErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "rank"])
        assert exc.value.code == 2
