"""Verification suites: report contracts, case admissibility, suite outcomes."""

from __future__ import annotations

import re
import time
from pathlib import Path

import pytest

from crankspace import cli, cyclotomic, partitions, qseries, search, verify
from crankspace.laurent import LaurentPoly
from crankspace.partitions import (
    COLORED_K_BOUND,
    POLY_BOUND,
    BoundExceeded,
    InvalidEll,
    crank_poly,
    rank_poly,
)
from crankspace.verify import (
    CLAIMS,
    CONSTANCY_K_MAX,
    FAMILIES,
    FAMILY_A_ONSET,
    FAMILY_B_ONSET,
    CRANK_UNIMODAL_ONSET,
    H_VALUES,
    RANK_MONOTONE_ONSET,
    AsymptoticSample,
    CongruenceCase,
    Counterexample,
    HypothesisViolation,
    InvalidCase,
    Report,
    enumerate_congruence_cases,
    VARIANTS,
    check_family_unimodality,
    rank_asymptotic_samples,
    run_claims,
    run_plan,
    verify_colored_congruence,
    verify_colored_quotients,
    verify_crank_constancy,
    verify_crank_mod10,
    verify_crank_squared,
    verify_modified_crank,
    verify_modified_rank,
    verify_n22_gap,
    verify_rank_monotonic,
)

from helpers import poly_from_json, rank_increases_walk


VIOLATION = Counterexample({"kind": "congruence", "within_claim": True, "n": 1})
INFO = Counterexample({"kind": "rank-increase", "within_claim": False, "n": 2})


def _read_report(data: dict) -> Report:
    """The report a JSON form describes (its status is derived, so not read)."""
    found = [Counterexample(c["params"], c["poly"] and poly_from_json(c["poly"]))
             for c in data["counterexamples"]]
    return Report(data["claim_id"], data["range"], found, data["elapsed_s"])


class TestReportContract:
    def test_pass_must_have_no_counterexamples(self):
        assert Report("c", "n <= 3", [], 0.0).status == "pass"
        for found in ([INFO], [VIOLATION], [INFO, VIOLATION]):
            assert Report("c", "n <= 3", found, 0.0).status != "pass"

    def test_fail_and_partial_need_counterexamples(self):
        assert Report("c", "n <= 3", [INFO], 0.0).status == "partial"
        assert Report("c", "n <= 3", [VIOLATION, INFO], 0.0).status == "fail"
        assert Report("c", "n <= 3", [INFO, VIOLATION], 0.0).status == "fail"

    def test_json_roundtrip_with_poly(self):
        ce = Counterexample(
            params={"n": 9, "kind": "not-unimodal", "within_claim": False},
            poly=LaurentPoly(-1, (1, 2, 1)),
        )
        rep = Report("c1", "n <= 9", [ce], 1.25)
        data = rep.to_json_dict()
        back = _read_report(data)
        assert back == rep and data["status"] == back.status == "partial"
        assert data["counterexamples"][0]["poly"]["coeffs"] == ["1", "2", "1"]

    def test_json_roundtrip_without_poly(self):
        ce = Counterexample(params={"m": 2, "within_claim": True})
        rep = Report("c2", "all", [ce], 0.5)
        data = rep.to_json_dict()
        assert _read_report(data) == rep and data["status"] == "fail"

    def test_elapsed_recorded(self):
        rep = run_plan(verify_n22_gap())
        assert rep.elapsed_s >= 0.0
        assert rep.status == "pass"


class TestCongruenceCases:
    def test_known_case_fields(self):
        c = CongruenceCase.make(1, 4, 5)
        assert (c.k, c.h, c.ell, c.delta) == (1, 4, 5, 4)

    def test_offset_is_scaled_inverse_of_24(self):
        for c in enumerate_congruence_cases(12):
            assert (24 * c.delta) % c.ell == c.k % c.ell
            assert (c.k + c.h) % c.ell == 0

    def test_enumeration_is_complete_for_small_k(self):
        cases = enumerate_congruence_cases(12)
        assert len(cases) == 24
        triples = [(c.k, c.h, c.ell) for c in cases]
        assert triples == sorted(triples)
        for known in ((1, 4, 5), (6, 4, 5), (9, 14, 23), (11, 14, 5), (7, 26, 11)):
            assert known in triples

    @pytest.mark.parametrize(
        "k,h,ell,msg_part",
        [
            (3, 4, 7, "residue clause"),     # 7 is 1 mod 3, clause needs 2 mod 3
            (2, 4, 5, "multiple"),           # 6 is not a multiple of 5
            (1, 5, 6, "must be in"),         # 5 is not an admissible h
            (0, 4, 5, "k must be"),
            (6, 4, 10, "prime"),             # 10 divides 6 + 4 but is not prime
            (4, 6, 5, "residue clause"),     # 5 is 1 mod 4, clause needs 3 mod 4
        ],
    )
    def test_inadmissible_cases_raise(self, k, h, ell, msg_part):
        with pytest.raises(InvalidCase, match=msg_part):
            CongruenceCase.make(k, h, ell)

    def test_h_universe(self):
        assert H_VALUES == (4, 6, 8, 10, 14, 26)

    def test_second_family_has_no_seven_color_case(self):
        # k=7 requires h in {6, 14}; both lead to inadmissible moduli,
        # so that corner of the parameter space is empty
        for h in H_VALUES:
            for ell in range(5, 7 + h + 1):
                try:
                    case = CongruenceCase.make(7, h, ell)
                except InvalidCase:
                    continue
                with pytest.raises(HypothesisViolation):
                    verify_colored_quotients("B", case, n_max=1)


class TestFamilyHypotheses:
    def test_first_family_rejects_large_h_for_odd_k(self):
        case = CongruenceCase.make(7, 26, 11)
        with pytest.raises(HypothesisViolation, match="excludes h"):
            verify_colored_quotients("A", case, n_max=1)

    def test_second_family_rejects_even_k(self):
        case = CongruenceCase.make(8, 6, 7)
        with pytest.raises(HypothesisViolation):
            verify_colored_quotients("B", case, n_max=1)

    def test_second_family_rejects_wrong_h(self):
        case = CongruenceCase.make(7, 26, 11)
        with pytest.raises(HypothesisViolation, match="needs h"):
            verify_colored_quotients("B", case, n_max=1)

    def test_kind_must_be_a_or_b(self):
        case = CongruenceCase.make(1, 4, 5)
        with pytest.raises(HypothesisViolation, match="kind"):
            verify_colored_quotients("c", case, n_max=1)


class TestSuitesOnSmallRanges:
    def test_modified_rank_passes_and_notes_small_wobbles(self):
        rep = run_plan(verify_modified_rank(5, n_max=8))
        assert rep.status == "pass"
        assert "below size 39" in rep.range
        assert str(RANK_MONOTONE_ONSET) in rep.range

    def test_modified_crank_passes_and_notes_small_wobbles(self):
        rep = run_plan(verify_modified_crank(5, n_max=10))
        assert rep.status == "pass"
        assert str(CRANK_UNIMODAL_ONSET) in rep.range

    def test_crank_squared_quotients(self):
        rep = run_plan(verify_crank_squared(n_max=30))
        assert rep.status == "pass"
        assert "interior zeros" in rep.range

    def test_crank_squared_reads_one_class_sum_table_per_slice(self, monkeypatch):
        moduli = []
        hat_sums = cyclotomic.hat_sums
        monkeypatch.setattr(cyclotomic, "hat_sums", lambda f, m: moduli.append(m) or hat_sums(f, m))
        assert run_plan(verify_crank_squared(n_max=30)).status == "pass"
        assert moduli == [10] * 31

    def test_rank_monotonic_above_onset_passes(self):
        rep = run_plan(verify_rank_monotonic(n_max=80, n_lo=RANK_MONOTONE_ONSET))
        assert rep.status == "pass"

    def test_rank_monotonic_from_one_is_partial_with_info_rows(self):
        rep = run_plan(verify_rank_monotonic(n_max=40))
        assert rep.status == "partial"
        assert rep.counterexamples
        assert all(not ce.params["within_claim"] for ce in rep.counterexamples)
        worst = max(ce.params["n"] for ce in rep.counterexamples)
        assert worst == 38  # wobbles stop right before the onset

    def test_rank_monotonic_reports_what_a_pair_walk_finds(self):
        rep = run_plan(verify_rank_monotonic(n_lo=0, n_max=60))
        walked = rank_increases_walk(0, 60, RANK_MONOTONE_ONSET)
        assert walked  # below-onset increases exist in this range
        assert [ce.params for ce in rep.counterexamples] == walked

    def test_rank_monotonic_finds_a_planted_increase_above_the_onset(self, monkeypatch):
        rank = partitions.rank_poly

        def planted(n):
            # N(11, 50) > N(10, 50) inside the window, N(53, 55) > N(52, 55) at its edge
            f = rank(n)
            if n not in (50, 55):
                return f
            m = 10 if n == 50 else n - 3
            coeffs = list(f.coeffs)
            coeffs[m + 1 - f.lo] = coeffs[m - f.lo] + 1
            return LaurentPoly(f.lo, coeffs)

        monkeypatch.setattr(partitions, "rank_poly", planted)
        rep = run_plan(verify_rank_monotonic(n_lo=0, n_max=60))
        walked = rank_increases_walk(0, 60, RANK_MONOTONE_ONSET)
        assert [ce.params for ce in rep.counterexamples] == walked
        assert rep.status == "fail"
        assert [(ce.params["n"], ce.params["m"]) for ce in rep.counterexamples
                if ce.params["within_claim"]] == [(50, 10), (55, 52)]

    def test_mod_ten_split(self):
        assert run_plan(verify_crank_mod10(n_max=30)).status == "pass"

    def test_extreme_tail_constancy(self):
        rep = run_plan(verify_crank_constancy(n_max=40))
        assert rep.status == "pass" and rep.range == f"k <= {CONSTANCY_K_MAX}, n <= 40"
        # the constants behind it: full columns at the tail
        assert crank_poly(10).coefficient(10) == 1   # k = 0: only the single-row partition
        assert crank_poly(10).coefficient(9) == 0    # k = 1: that gap is always empty

    def test_constancy_builds_each_crank_polynomial_once(self, monkeypatch):
        built = []
        crank_poly = verify.partitions.crank_poly
        monkeypatch.setattr(verify.partitions, "crank_poly",
                            lambda n: built.append(n) or crank_poly(n))
        assert run_plan(verify_crank_constancy(n_max=40)).status == "pass"
        assert sorted(built) == list(range(2, 41))

    def test_colored_congruence_case(self):
        case = CongruenceCase.make(1, 4, 5)
        rep = run_plan(verify_colored_congruence(case, n_max=12))
        assert rep.status == "pass"
        assert rep.claim_id.endswith("k1-h4-ell5")

    def test_colored_quotients_small_instance(self):
        case = CongruenceCase.make(6, 4, 5)
        rep = run_plan(verify_colored_quotients("A", case, n_max=6))
        assert rep.status == "pass"
        assert "onset" in rep.range
        with pytest.raises(ValueError, match="n_max"):
            verify_colored_quotients("A", case, n_max=-1)

    @pytest.mark.parametrize("claim_id,n_max,passes,bits,decoded,unpacked", [
        # the benchmark's colored-quotients requests: r full theta passes, one slot
        # width, one slice per n, and two unpacks per slice for odd k (pos and neg parts)
        ("cor3.5-A-k6-ell5", 24, 3, 88, 25, 25),
        ("cor3.5-B-k9-ell23", 5, 5, 104, 6, 12),
        ("cor3.5-B-k11-ell5", 24, 6, 120, 25, 50),
    ])
    def test_each_colored_quotients_request_does_its_counted_work(
            self, monkeypatch, claim_id, n_max, passes, bits, decoded, unpacked):
        theta_bits, slices, unpacks = [], [], []
        theta_pass, scan, unpack = qseries._theta_pass, qseries._slices, qseries._unpack_half

        def counted_pass(ints, aj, origin, bits, last, window=0):
            theta_bits.append(bits)
            theta_pass(ints, aj, origin, bits, last, window)

        def counted_scan(*args):
            for m, half in scan(*args):
                slices.append(m)
                yield m, half

        monkeypatch.setattr(qseries, "_theta_pass", counted_pass)
        monkeypatch.setattr(qseries, "_slices", counted_scan)
        monkeypatch.setattr(qseries, "_unpack_half", lambda *args: unpacks.append(args[2]) or unpack(*args))
        [report] = run_claims(claim_id, n_max=n_max, threads=1)
        assert report.status == "pass"
        assert theta_bits == [bits] * passes
        assert len(slices) == len(set(slices)) == decoded
        assert unpacks == [bits] * unpacked


class TestSliceCheckFailures:
    def test_non_divisible_slice(self, monkeypatch):
        off = LaurentPoly(-1, (1, 1, 1))  # symmetric and unimodal, span too short for Phi_5
        monkeypatch.setattr(qseries, "iter_ck_slices",
                            lambda members, sizes: [(a, [((size, [1, 1]) for size in sizes)])
                                                    for a, _ in members])
        rep = run_plan(verify_colored_quotients("A", CongruenceCase.make(6, 4, 5), n_max=1))
        assert rep.status == "fail"
        assert [c.params for c in rep.counterexamples] == [
            {"kind": "not-divisible", "within_claim": True, "n": n, "size": 5 * n + 4}
            for n in (0, 1)
        ]
        assert rep.counterexamples[0].poly == off

    def test_non_divisible_crank_squared(self, monkeypatch):
        off = LaurentPoly(-1, (1, 1, 1))  # span too short for Phi_5(z^2)
        monkeypatch.setattr(partitions, "crank_poly", lambda N: off)
        rep = run_plan(verify_crank_squared(n_max=1))
        assert rep.status == "fail"
        assert [c.params for c in rep.counterexamples] == [
            {"kind": "not-divisible", "within_claim": True, "n": n, "size": 5 * n + 4}
            for n in (0, 1)
        ]
        assert rep.counterexamples[0].poly == off

    def test_family_defect_at_its_onset_fails_conj1_4(self, monkeypatch, capsys):
        scan = search.slice_defects
        planted = {("A", 5): [FAMILY_A_ONSET - 1, FAMILY_A_ONSET], ("B", 7): [FAMILY_B_ONSET]}

        def defects(specs, n_hi, threads):
            found = scan(specs, n_hi, threads)
            return [sorted({*bad, *planted.get(family, [])}) for family, bad in zip(FAMILIES, found)]

        monkeypatch.setattr(search, "slice_defects", defects)
        rep = run_plan(check_family_unimodality(n_hi=30))
        assert rep.status == "fail"
        assert [c.params for c in rep.counterexamples] == [
            {"kind": "not-unimodal", "within_claim": True, "family": "A", "k": 5, "n": FAMILY_A_ONSET},
            {"kind": "not-unimodal", "within_claim": True, "family": "B", "k": 7, "n": FAMILY_B_ONSET},
        ]
        # the planted defect below the onset is only tallied
        assert re.search(rf"A5 at \[[^]]*\b{FAMILY_A_ONSET - 1}\];", rep.range)
        assert cli.main(["verify", "conj1.4", "--n-max", "29"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("conj1.4: FAIL (")
        assert (f"  - {{'kind': 'not-unimodal', 'within_claim': True, 'family': 'B', 'k': 7, "
                f"'n': {FAMILY_B_ONSET}}}\n") in out

    @pytest.mark.parametrize(
        "suite,params,route",
        [
            (lambda: run_plan(verify_modified_rank(5, n_max=1)), ("ell",), "divides_standard"),
            (lambda: run_plan(verify_modified_crank(7, n_max=1)), ("ell",), "divides_standard"),
            (lambda: run_plan(verify_colored_quotients("A", CongruenceCase.make(6, 4, 5), n_max=1)),
             ("size",), "divides_standard"),
            (lambda: run_plan(verify_crank_squared(n_max=1)), ("size",), "divides_squared"),
        ],
        ids=["modified-rank", "modified-crank", "colored-quotients", "crank-squared"],
    )
    def test_route_disagreement(self, monkeypatch, suite, params, route):
        monkeypatch.setattr(verify, route, lambda f, ell: False)
        rep = suite()
        assert rep.status == "fail"
        assert [c.params["kind"] for c in rep.counterexamples] == ["route-disagreement"] * 2
        for n, ce in enumerate(rep.counterexamples):
            assert ce.params["within_claim"] and ce.params["n"] == n
            assert set(ce.params) == {"kind", "within_claim", "n", *params}

    @pytest.mark.parametrize("half,faulty", [
        ([1, 1, 1], True),  # the halves of 1 1 1 1 1, unimodal
        ([0, 2, 1], False),  # and of 1 2 0 2 1, not unimodal
    ], ids=["unimodal", "not-unimodal"])
    def test_negative_quotient_of_a_symmetric_unimodal_slice_is_a_fault(self, monkeypatch, capsys,
                                                                         half, faulty):
        monkeypatch.setattr(qseries, "iter_ck_slices",
                            lambda members, sizes: [(a, [((size, half) for size in sizes)])
                                                    for a, _ in members])
        monkeypatch.setattr(verify, "divides_standard", lambda f, ell: True)
        monkeypatch.setattr(verify, "exact_quotient", lambda f, ell, variant: LaurentPoly(0, (1, -1, 1)))
        plan = verify_colored_quotients("A", CongruenceCase.make(6, 4, 5), n_max=1)  # sizes 4, 9
        if not faulty:  # below the onset, a negative quotient stays a tallied claim finding
            assert "negative quotient below onset at sizes [4, 9]" in run_plan(plan).range
            return
        with pytest.raises(ArithmeticError, match="symmetric unimodal multiple of Phi_5"):
            run_plan(plan)
        assert cli.main(["verify", "cor3.5-A-k6-ell5", "--n-max", "1"]) == 3
        assert "ArithmeticError" in capsys.readouterr().err


class TestPlantedFaults:
    """A fault planted in a function a suite calls at run time fails its claim."""

    @staticmethod
    def plant_crank(monkeypatch, size: int, edits: dict[int, int]) -> None:
        """Add edits[e] to the z^e coefficient of crank_poly(size) only."""
        crank = partitions.crank_poly

        def planted(n):
            f = crank(n)
            if n != size:
                return f
            coeffs = list(f.coeffs)
            for e, amount in edits.items():
                coeffs[e - f.lo] += amount
            return LaurentPoly(f.lo, coeffs)

        monkeypatch.setattr(partitions, "crank_poly", planted)

    @staticmethod
    def assert_fails(capsys, plan, argv: list[str], found: list[dict],
                     shown: list[str] | None = None) -> None:
        """plan's report, and `verify argv` through the CLI, fail with exactly found.

        shown lists each counterexample's rendered ` poly=` text, where it has a polynomial.
        """
        rep = run_plan(plan)
        assert rep.status == "fail"
        assert [c.params for c in rep.counterexamples] == found
        assert cli.main(["verify", *argv]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{argv[0]}: FAIL (")
        suffixes = [f" poly={text}" for text in shown] if shown else [""] * len(found)
        assert "".join(f"  - {params}{suffix}\n" for params, suffix in zip(found, suffixes)) in out

    def test_thm2_2(self, monkeypatch, capsys):
        # one partition of 9 moved from crank 0 to crank 2: classes 0 and 2 hold 1 and 3, not 2 and 2
        self.plant_crank(monkeypatch, 9, {0: -1, 2: 1})
        found = [{"kind": "mod10-imbalance", "within_claim": True, "n": 1, "size": 9, "j": 0, "k": k,
                  "lhs": lhs, "rhs": 10} for k, lhs in ((0, 5), (1, 15))]
        self.assert_fails(capsys, verify_crank_mod10(n_max=3), ["thm2.2", "--n-max", "3"], found)

    def test_lem2_4(self, monkeypatch, capsys):
        self.plant_crank(monkeypatch, 30, {27: 1})  # M(n - 3, n) is 1 for every other n >= 6
        found = [{"kind": "not-constant", "within_claim": True, "k": 3, "n": 30, "value": 2,
                  "expected": 1}]
        self.assert_fails(capsys, verify_crank_constancy(n_max=40), ["lem2.4", "--n-max", "40"], found)

    def test_crank_n22_gap(self, monkeypatch, capsys):
        # at ell = 7, N = 159: M(151, 159) = 7 and M(152, 159) = 4, a gap of 2, planted down to -1
        assert 7 * 22 + partitions.beta(7) == 159
        self.plant_crank(monkeypatch, 159, {152: 3})
        found = [{"kind": "gap-negative", "within_claim": True, "ell": 7, "size": 159, "gap": -1}]
        self.assert_fails(capsys, verify_n22_gap(), ["crank-n22-gap"], found)

    def test_thm1_2(self, monkeypatch, capsys):
        count = partitions.colored_count
        monkeypatch.setattr(partitions, "colored_count", lambda k, n: count(k, n) + (n == 19))
        found = [{"kind": "congruence", "within_claim": True, "k": 1, "ell": 5, "n": 3, "size": 19,
                  "residue": 1}]
        self.assert_fails(capsys, verify_colored_congruence(CongruenceCase.make(1, 4, 5), n_max=5),
                          ["thm1.2-k1-h4-ell5", "--n-max", "5"], found)

    @pytest.mark.parametrize("edits,found,shown", [
        # 2 (z^-9 + z) Phi_5(z^2) taken from crank_poly(9): a symmetric quotient, negative at both ends
        ({e: -2 for e in (-9, -7, -5, -3, -1, 1, 3, 5, 7, 9)}, ["negative-quotient"],
         ["-1*z^-9 + 1*z^-6 + 1*z^-5 + 1*z^-3 + 1*z^-2 - 1*z^1"]),
        # z^-9 Phi_5(z^2) added: a non-negative quotient whose ends differ
        ({e: 1 for e in (-9, -7, -5, -3, -1)}, ["normalized-quotient-asymmetric"],
         ["2*z^-9 + 1*z^-6 + 1*z^-5 + 1*z^-3 + 1*z^-2 + 1*z^1"]),
    ], ids=["negative", "asymmetric"])
    def test_conj1_1_part2(self, monkeypatch, capsys, edits, found, shown):
        # crank_poly(9)'s quotient by Phi_5(z^2) is z^-9 + z^-6 + z^-5 + z^-3 + z^-2 + z;
        # each planted slice stays a multiple of Phi_5(z^2), so both routes still divide it
        self.plant_crank(monkeypatch, 9, edits)
        found = [{"kind": kind, "within_claim": True, "n": 1, "size": 9} for kind in found]
        self.assert_fails(capsys, verify_crank_squared(n_max=2), ["conj1.1-part2", "--n-max", "2"],
                          found, shown)

    @pytest.mark.parametrize("fault", ["not-unimodal", "negative-quotient"])
    @pytest.mark.parametrize("argv,plan", [
        (["conj1.1-part1-ell5", "--n-max", "8"], lambda: verify_modified_rank(5, n_max=8)),
        (["conj1.1-part3-ell5", "--n-max", "8"], lambda: verify_modified_crank(5, n_max=8)),
        (["cor3.5-A-k6-ell5", "--n-max", "3"],
         lambda: verify_colored_quotients("A", CongruenceCase.make(6, 4, 5), n_max=3)),
    ], ids=["modified-rank", "modified-crank", "colored-quotients"])
    def test_half_slices(self, monkeypatch, capsys, argv, plan, fault):
        # Planted in the half of size 44 (n = 8) through partitions._modified_half, past the
        # rank and crank onsets (39, 44), or of size 19 (n = 3) through qseries.iter_ck_slices,
        # past cor3.5-A's onset 15.  height is added to slots 1..5, so f gains
        # height (z^-5 + z) Phi_5(z) and its quotient height (z^-5 + z): with z^1 above z^0,
        # f is not unimodal and its quotient non-negative; with z^1 below 0, f is not
        # unimodal and its quotient is negative at z^1.
        seen = {}

        def plant(half):
            height = half[0] - half[1] + 1 if fault == "not-unimodal" else -half[0] - 1
            seen.update(half=half, height=height)
            return half[:1] + [h + height for h in half[1:6]] + half[6:]

        if argv[0].startswith("cor3.5"):
            build = qseries.iter_ck_slices

            def planted(members, sizes):
                for a, scans in build(members, sizes):
                    yield a, [((m, plant(half) if m == 19 else half) for m, half in scan) for scan in scans]

            monkeypatch.setattr(qseries, "iter_ck_slices", planted)
            params, size = {"n": 3, "size": 19}, 19
        else:
            route = partitions._modified_half
            monkeypatch.setattr(partitions, "_modified_half", lambda statistic, ell, n:
                                plant(route(statistic, ell, n)) if n == 8 else route(statistic, ell, n))
            params, size = {"ell": 5, "n": 8}, 44
        rep = run_plan(plan())
        half, height = seen["half"], seen["height"]
        f = LaurentPoly.from_half(plant(half))
        q = cyclotomic.exact_quotient(LaurentPoly.from_half(half), 5, "standard").coeff_map()
        q[-5], q[1] = q.get(-5, 0) + height, q.get(1, 0) + height
        q = LaurentPoly.from_coeff_map(q)
        found = [{"kind": "not-unimodal", "within_claim": True, **params, "size": size}]
        polys = [f]
        if fault == "negative-quotient":
            assert min(q.coeffs) < 0
            found.append({"kind": "negative-quotient", "within_claim": True, **params})
            polys.append(q)
        assert [c.poly for c in rep.counterexamples] == polys
        # every planted slice and quotient is long, so the text report gives its span
        assert all(len(str(poly)) > 100 for poly in polys)
        shown = [f"<{len(poly.coeffs)} coefficients on [{poly.lo}, {poly.hi}]>" for poly in polys]
        if argv[0] == "conj1.1-part1-ell5":
            assert shown[0] == "<85 coefficients on [-42, 42]>"
        self.assert_fails(capsys, plan(), argv, found, shown)


# one instance id per pattern entry, each in its own claim's range
PATTERN_EXAMPLES = {"thm1.2": "thm1.2-k9-h14-ell23", "cor3.5": "cor3.5-B-k11-ell5"}


# The registry entries whose suite takes no n_max.
IGNORES_N_MAX = {"crank-n22-gap"}


class TestClaimRegistry:
    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.claim_id)
    def test_bare_id_runs_every_instance(self, claim):
        reports = run_claims(claim.claim_id, n_max=claim.n_min, threads=1)
        assert len(reports) == len(claim.ells or claim.instances)
        assert all(r.claim_id.startswith(claim.claim_id) for r in reports)

    def test_variants_and_pattern_examples_resolve(self):
        with_pattern = {c.claim_id for c in CLAIMS if c.pattern}
        assert set(PATTERN_EXAMPLES) == with_pattern
        for claim_id in [*VARIANTS, *PATTERN_EXAMPLES.values()]:
            [report] = run_claims(claim_id, n_max=0)
            assert report.claim_id == claim_id and report.status == "pass"

    def test_readme_claim_table_lists_exactly_the_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("Claim ids:")[1].split("###")[0]
        listed = re.findall(r"^\| `([^`\[]+)(?:\[[^\]]*\])?` \|", table, re.MULTILINE)
        assert sorted(listed) == sorted(c.claim_id for c in CLAIMS)

    def test_unknown_id_and_empty_range_raise_before_running(self):
        with pytest.raises(ValueError, match="unknown claim id"):
            run_claims("conj1.1-part1-ell11")
        with pytest.raises(ValueError, match="empty range"):
            run_claims("lem2.4", n_max=1)

    @pytest.mark.parametrize("claim_id", [
        *(c.claim_id for c in CLAIMS if c.claim_id not in IGNORES_N_MAX), "all"])
    def test_over_bound_n_max_is_refused_before_any_suite(self, monkeypatch, claim_id):
        calls = []
        for module, name in ((partitions, "rank_poly"), (partitions, "crank_poly"),
                             (partitions, "_modified_half"),
                             (partitions, "colored_count"), (qseries, "iter_ck_slices"),
                             (search, "slice_defects")):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        # and no plan runs: every claim is planned, and refused, before the first one runs
        monkeypatch.setattr(verify, "run_plan", lambda plan: calls.append(plan.claim_id))
        with pytest.raises(BoundExceeded):
            run_claims(claim_id, n_max=10**6)
        assert calls == []

    @pytest.mark.parametrize("claim_id,n_max", [
        *((c.claim_id, None) for c in CLAIMS),  # the suites' defaults
        ("cor3.5-A-k6-ell5", 24), ("cor3.5-B-k9-ell23", 5), ("cor3.5-B-k11-ell5", 24),
        ("conj1.4", 59), ("conj1.1-part2", 50), ("conj1.1-part3", 16), ("thm2.2", 50),
        ("thm1.2-k9-h14-ell23", 50), ("conj1.3", 200), ("conj1.3", POLY_BOUND),
    ])
    def test_defaults_and_documented_requests_are_admitted(self, claim_id, n_max):
        claim, instances = verify._resolve(claim_id)
        for instance in instances:
            claim.plan(instance, n_max, None, 1)

    def test_plans_fan_out_costliest_first_and_report_in_registry_order(self, monkeypatch):
        # one usable CPU: the fan-out takes the pool's one-worker path, so every
        # _pool_map call, the suites' own included, is seen here; none forks
        calls = []
        pool_map = search._pool_map
        monkeypatch.setattr(search, "_pool_map",
                            lambda fn, tasks, threads: calls.append((tasks, threads))
                            or pool_map(fn, tasks, threads))
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(search.os, "fork", lambda: pytest.fail("forked"), raising=False)
        plans = [claim.plan(instance, 3, None, 1)
                 for claim in CLAIMS for instance in claim.ells or claim.instances]
        reports = run_claims("all", n_max=3, threads=2)
        assert [r.claim_id for r in reports] == [plan.claim_id for plan in plans]
        ranked, threads = calls[0]
        assert threads == 2
        assert sorted(p.claim_id for p in ranked) == sorted(p.claim_id for p in plans)
        assert [p.cost for p in ranked] == sorted((p.cost for p in plans), reverse=True)
        assert ranked[0].claim_id.startswith("cor3.5")
        # the rest follow every colored scan in registry order
        assert [p.claim_id for p in ranked if not p.cost] == [p.claim_id for p in plans if not p.cost]
        assert [threads for _, threads in calls[1:]] == [1, 1]  # conj1.4's and conj4.2's scans
        calls.clear()
        reports = run_claims("thm1.2", n_max=1, threads=1)
        assert [r.claim_id for r in reports] == [p.claim_id for p in plans if p.claim_id.startswith("thm1.2")]
        assert [threads for _, threads in calls] == [1]  # one thread: the same pool, one worker
        calls.clear()
        run_claims("conj1.4", n_max=3, threads=2)
        assert [threads for _, threads in calls] == [2, 2]  # one plan keeps its own fan-out

    def test_the_first_failure_in_cost_order_is_raised_at_every_worker_count(self, monkeypatch):
        # conj1.3 comes first in the registry, cor3.5-B-k9-ell23 first in cost order
        plan_runner = verify.run_plan

        def failing(plan):
            if plan.claim_id in ("conj1.3", "cor3.5-B-k9-ell23"):
                raise ArithmeticError(plan.claim_id)
            return plan_runner(plan)

        monkeypatch.setattr(verify, "run_plan", failing)
        # three usable CPUs, so that --threads 3 forks two workers on any host
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        for threads in (1, 2, 3):
            with pytest.raises(ArithmeticError, match="^cor3.5-B-k9-ell23$"):
                run_claims("all", n_max=5, threads=threads)

    def test_elapsed_covers_the_whole_runner(self, monkeypatch):
        # conj4.2's plan runs its scan, so run_plan times it
        def slow_scan(**kwargs):
            time.sleep(0.05)
            return []

        monkeypatch.setattr(search, "exhaustive_search", slow_scan)
        [report] = run_claims("conj4.2")
        assert report.elapsed_s >= 0.05

    @pytest.mark.parametrize("claim", [c for c in CLAIMS if c.claim_id not in IGNORES_N_MAX],
                             ids=lambda c: c.claim_id)
    def test_check_admits_exactly_what_the_suite_admits(self, monkeypatch, claim):
        # the suite's plan is the one admission: building it computes nothing, and
        # at the edge of what it admits its work computes while one past it refuses
        class Reached(Exception):
            pass

        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise Reached

        for module, name in ((partitions, "rank_poly"), (partitions, "crank_poly"),
                             (partitions, "_modified_half"),
                             (partitions, "colored_count"), (qseries, "iter_ck_slices"),
                             (search, "slice_defects")):
            monkeypatch.setattr(module, name, spy)

        def admitted(instance, n_max):
            try:
                claim.plan(instance, n_max, None, 1)
            except BoundExceeded:
                return False
            return True

        for instance in claim.ells or claim.instances:
            lo, hi = claim.n_min, 2 * claim.n_min + 1
            while admitted(instance, hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:  # admitted at lo, refused at hi
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if admitted(instance, mid) else (lo, mid)
            assert calls == [], (instance, lo)
            with pytest.raises(Reached):
                run_plan(claim.plan(instance, lo, None, 1))
            calls.clear()
            with pytest.raises(BoundExceeded):
                claim.plan(instance, hi, None, 1)
            assert calls == [], (instance, hi)


class TestPolyBound:
    @pytest.mark.parametrize("suite,largest", [
        (lambda: verify_modified_rank(5, n_max=1000), 5004),
        (lambda: verify_modified_crank(5, n_max=1000), 5004),
        (lambda: verify_crank_squared(n_max=1000), 5004),
        (lambda: verify_crank_mod10(n_max=1000), 5004),
        (lambda: verify_rank_monotonic(n_max=POLY_BOUND + 1), POLY_BOUND + 1),
        (lambda: verify_crank_constancy(n_max=POLY_BOUND + 1), POLY_BOUND + 1),
    ], ids=["conj1.1-part1", "conj1.1-part3", "conj1.1-part2", "thm2.2", "conj1.3", "lem2.4"])
    def test_suite_refuses_its_largest_size_before_any_polynomial(self, monkeypatch, suite, largest):
        calls = []
        for name in ("rank_poly", "crank_poly", "_modified_half"):  # what the suites build with
            monkeypatch.setattr(partitions, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(BoundExceeded, match=f"n={largest} exceeds"):
            suite()
        assert calls == []

    def test_unsupported_ell_is_refused_at_plan_time(self, monkeypatch):
        calls = []
        for name in ("rank_poly", "crank_poly", "_modified_half"):  # what the suites build with
            monkeypatch.setattr(partitions, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(InvalidEll, match="modified crank polynomials .* got 13"):
            verify_modified_crank(13)
        with pytest.raises(InvalidEll, match="modified rank polynomials .* got 11"):
            verify_modified_rank(11)
        assert calls == []


class TestColoredBound:
    def test_largest_admitted_requests(self):
        # each costs about a second, so only the check runs here
        for k, n in ((COLORED_K_BOUND, 623), (1, 29240), (3, 29240), (2, 18495), (4, 18495)):
            partitions._check_colored(k, n)

    @pytest.mark.parametrize("k,n", [
        (COLORED_K_BOUND + 1, 0), (COLORED_K_BOUND, 624), (1, 29241), (2, 18496)])
    def test_past_the_bound_raises(self, k, n):
        with pytest.raises(BoundExceeded, match="colored-count bound"):
            partitions.colored_count(k, n)

    def test_zero_colors_are_bounded_too(self, monkeypatch):
        # p_0 is the constant series 1, but its table still has n + 1 entries
        calls = []
        monkeypatch.setattr(qseries, "colored_coeffs", lambda *args: calls.append(args))
        with pytest.raises(BoundExceeded, match="colored-count bound"):
            partitions.colored_count(0, 10**6)
        assert calls == []

    def test_congruence_checks_its_largest_size_first(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qseries, "colored_coeffs",
                            lambda k, n: calls.append(n) or [0] * (n + 1))
        case = CongruenceCase.make(996, 4, 5)
        run_plan(verify_colored_congruence(case, n_max=50))  # admitted: its largest size is 254
        with pytest.raises(BoundExceeded):
            verify_colored_congruence(case, n_max=150)
        assert len(calls) == 51


class TestAsymptotics:
    def test_sample_fields_and_serialization(self):
        samples = rank_asymptotic_samples(100)
        assert samples and isinstance(samples[0], AsymptoticSample)
        first = samples[0]
        assert first.n == 100 and first.m == 0
        assert first.actual == rank_poly(100).coefficient(0)
        data = first.to_json_dict()
        assert set(data) >= {"n", "m", "gamma", "predicted", "actual", "rel_error"}

    def test_error_shrinks_with_n(self):
        e100 = rank_asymptotic_samples(100, m_values=[0])[0].rel_error
        e400 = rank_asymptotic_samples(400, m_values=[0])[0].rel_error
        assert e400 < e100 < 0.05

    def test_out_of_range_flag(self):
        samples = rank_asymptotic_samples(50, m_values=[0, 40])
        by_m = {s.m: s for s in samples}
        assert not by_m[0].out_of_range
        assert by_m[40].out_of_range

    def test_size_bound_is_checked_before_the_partition_table(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qseries, "colored_coeffs", lambda *args: calls.append(args))
        with pytest.raises(BoundExceeded):
            rank_asymptotic_samples(POLY_BOUND + 1)
        assert calls == []

    def test_prediction_is_positive_and_symmetric_in_m(self):
        plus, minus = rank_asymptotic_samples(60, m_values=[3, -3])
        assert plus.predicted == minus.predicted > 0
