"""Partition statistics: closed-form counts vs. the enumeration oracle and the packed series."""

from __future__ import annotations

import doctest
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crankspace.partitions
from crankspace.cyclotomic import hat_sums
from crankspace.laurent import LaurentPoly
from crankspace.partitions import (
    MODIFIED_CRANK_ELLS,
    MODIFIED_RANK_ELLS,
    POLY_BOUND,
    BoundExceeded,
    InvalidEll,
    _closed_form_half,
    beta,
    colored_count,
    crank_poly,
    delta,
    modified_crank_poly,
    modified_rank_poly,
    rank_poly,
)

from helpers import (
    ENUMERATION_BOUND,
    EmptyPartition,
    add,
    closed_form_half_reference,
    crank_of,
    crank_poly_enumerated,
    edit_span,
    enumerate_partitions,
    packed_rank_series,
    rank_of,
    rank_poly_enumerated,
    tuple_slices,
)


class TestEnumeration:
    def test_order_is_reverse_lexicographic(self):
        assert list(enumerate_partitions(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_zero_has_the_empty_partition(self):
        assert list(enumerate_partitions(0)) == [()]
        assert colored_count(1, 0) == 1

    def test_counts_match_euler_recurrence(self):
        known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [colored_count(1, n) for n in range(11)] == known
        for n in range(26):
            assert sum(1 for _ in enumerate_partitions(n)) == colored_count(1, n)

    def test_parts_are_weakly_decreasing_and_sum_to_n(self):
        for n in range(1, 15):
            for parts in enumerate_partitions(n):
                assert sum(parts) == n
                assert all(a >= b for a, b in zip(parts, parts[1:]))

    def test_bound_guard(self):
        with pytest.raises(BoundExceeded):
            list(enumerate_partitions(ENUMERATION_BOUND + 1))
        with pytest.raises(BoundExceeded):
            rank_poly_enumerated(ENUMERATION_BOUND + 1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            colored_count(1, -1)


class TestStatistics:
    def test_rank_is_largest_part_minus_part_count(self):
        assert rank_of((4,)) == 3
        assert rank_of((3, 1)) == 1
        assert rank_of((2, 2)) == 0
        assert rank_of((2, 1, 1)) == -1
        assert rank_of((1, 1, 1, 1)) == -3
        assert rank_of((1,)) == 0

    def test_crank_cases(self):
        # no ones: the largest part
        assert crank_of((4,)) == 4
        assert crank_of((2, 2)) == 2
        # with ones: (parts larger than the count of ones) minus that count
        assert crank_of((3, 1)) == 0
        assert crank_of((2, 1, 1)) == -2
        assert crank_of((1,)) == -1
        assert crank_of((3, 2, 2, 1, 1)) == -1  # one part above the two ones

    def test_empty_partition_has_no_statistic(self):
        with pytest.raises(EmptyPartition):
            rank_of(())
        with pytest.raises(EmptyPartition):
            crank_of(())


class TestCountsAgainstEnumeration:
    def test_rank_counts_match_for_all_m(self):
        for n in range(1, 21):
            oracle = rank_poly_enumerated(n)
            for m in range(-n, n + 1):
                assert rank_poly(n).coefficient(m) == oracle.coefficient(m)

    def test_crank_counts_match_for_all_m(self):
        for n in range(1, 21):
            oracle = crank_poly_enumerated(n)
            for m in range(-n, n + 1):
                assert crank_poly(n).coefficient(m) == oracle.coefficient(m)

    def test_size_one_carries_the_corrected_value(self):
        # the lone partition of 1 has raw statistic -1, but both columns
        # use the corrected convention that puts its whole mass at 0
        assert crank_of((1,)) == -1
        assert crank_poly(1).coefficient(-1) == 0
        assert crank_poly_enumerated(1).coefficient(-1) == 0
        assert crank_poly(1).coefficient(0) == 1
        assert crank_poly_enumerated(1).coefficient(0) == 1
        assert crank_poly(1) == LaurentPoly.one()
        assert crank_poly_enumerated(1) == LaurentPoly.one()

    def test_polys_match_enumerated_polys(self):
        for n in range(1, 21):
            assert rank_poly(n) == rank_poly_enumerated(n)
            assert crank_poly(n) == crank_poly_enumerated(n)

    # few draws: enumerating both statistics near n = 50 takes seconds
    @settings(max_examples=3, deadline=None)
    @given(st.integers(min_value=31, max_value=50))
    def test_polys_match_enumerated_polys_past_criterion_2(self, n):
        assert rank_poly(n) == rank_poly_enumerated(n)
        assert crank_poly(n) == crank_poly_enumerated(n)

    def test_poly_totals_are_partition_counts(self):
        for n in range(2, 30):
            assert sum(rank_poly(n).coeffs) == colored_count(1, n)
            assert sum(crank_poly(n).coeffs) == colored_count(1, n)

    def test_rank_poly_symmetric_crank_poly_symmetric(self):
        for n in range(2, 30):
            assert rank_poly(n).is_symmetric()
            assert crank_poly(n).is_symmetric()

    def test_residue_counts_sum_rows(self):
        for n in range(1, 16):
            for t in (5, 7, 11):
                for r in range(t):
                    want_rank = sum(
                        rank_poly(n).coefficient(m)
                        for m in range(-n, n + 1)
                        if m % t == r
                    )
                    assert hat_sums(rank_poly(n), t)[r] == want_rank
                    want_crank = sum(
                        crank_poly(n).coefficient(m)
                        for m in range(-n, n + 1)
                        if m % t == r
                    )
                    assert hat_sums(crank_poly(n), t)[r] == want_crank
                assert sum(hat_sums(rank_poly(n), t)) == colored_count(1, n)


class TestClosedFormAgainstSeries:
    AUDIT_ORDER = 300

    def test_rank_poly_matches_packed_rank_series(self):
        series = packed_rank_series(self.AUDIT_ORDER)
        for n in range(self.AUDIT_ORDER + 1):
            assert rank_poly(n) == series[n], f"mismatch at n={n}"

    def test_crank_poly_matches_crank_factor_weights(self):
        for n, (raw,) in tuple_slices((1,), (1,), range(2, self.AUDIT_ORDER + 1)):
            assert crank_poly(n) == raw, f"mismatch at n={n}"

    def test_poly_bound_is_reachable(self):
        total = colored_count(1, POLY_BOUND)
        for builder in (rank_poly, crank_poly):
            poly = builder(POLY_BOUND)
            assert poly.is_symmetric()
            assert sum(poly.coeffs) == total
            with pytest.raises(BoundExceeded):
                builder(POLY_BOUND + 1)


class TestClosedFormSlices:
    @pytest.mark.parametrize("s", [1, 3], ids=["crank", "rank"])
    def test_strided_slices_match_the_per_coefficient_loop(self, s):
        sizes = [*range(401), *random.Random(s).sample(range(401, POLY_BOUND), 12), POLY_BOUND]
        for n in sizes:
            assert _closed_form_half(n, s) == closed_form_half_reference(n, s), f"mismatch at n={n}"


class TestColoredCounts:
    def test_known_prefixes(self):
        assert [colored_count(2, n) for n in range(11)] == [
            1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481,
        ]
        assert [colored_count(3, n) for n in range(11)] == [
            1, 3, 9, 22, 51, 108, 221, 429, 810, 1479, 2640,
        ]

    def test_colored_convolution(self):
        # p_{j+k}(n) = sum_i p_j(i) p_k(n-i)
        for n in range(15):
            assert colored_count(5, n) == sum(
                colored_count(2, i) * colored_count(3, n - i) for i in range(n + 1)
            )


class TestResidueParameters:
    def test_offset_inverts_twentyfour(self):
        for ell in (5, 7, 11, 13):
            assert (24 * beta(ell)) % ell == 1 % ell
        assert (beta(5), beta(7), beta(11)) == (4, 5, 6)

    def test_offset_of_a_large_prime(self):
        ell = 1000000007
        assert beta(ell) == ell - (ell * ell - 1) // 24

    def test_offset_rejects_bad_moduli(self):
        for bad in (4, 6, 2, 3, 1, 0, -5):
            with pytest.raises(InvalidEll):
                beta(bad)

    def test_general_offset_scales_linearly(self):
        for ell in (5, 7, 11, 23):
            for k in range(1, 13):
                assert delta(k, ell) == (k * beta(ell)) % ell
        with pytest.raises(InvalidEll):
            delta(1, 4)


class TestModifiedPolynomials:
    @pytest.mark.parametrize("ell", [5, 7])
    def test_modified_rank_adds_four_boundary_terms(self, ell):
        for n in range(0, 6):
            size = ell * n + beta(ell)
            base = rank_poly(size)
            extra = LaurentPoly.from_coeff_map(
                {size - 2: 1, size - 1: -1, 2 - size: 1, 1 - size: -1}
            )
            assert modified_rank_poly(ell, n) == add(base, extra)

    @pytest.mark.parametrize("ell", [5, 7, 11])
    def test_modified_crank_adds_four_boundary_terms(self, ell):
        for n in range(0, 6):
            size = ell * n + beta(ell)
            base = crank_poly(size)
            extra = LaurentPoly.from_coeff_map(
                {size - ell: 1, size: -1, ell - size: 1, -size: -1}
            )
            assert modified_crank_poly(ell, n) == add(base, extra)

    @pytest.mark.parametrize("statistic,ell", [("rank", ell) for ell in MODIFIED_RANK_ELLS]
                             + [("crank", ell) for ell in MODIFIED_CRANK_ELLS])
    def test_half_edits_match_the_four_term_edit_of_the_full_polynomial(self, statistic, ell):
        # the four edits to the full polynomial laid out over [-N, N], for every N <= 600
        for n in range(0, (600 - beta(ell)) // ell + 1):
            N = ell * n + beta(ell)
            if statistic == "rank":
                edits = ((N - 2, 1), (N - 1, -1), (2 - N, 1), (1 - N, -1))
                assert modified_rank_poly(ell, n) == edit_span(rank_poly(N), N, edits)
            else:
                edits = ((N - ell, 1), (N, -1), (ell - N, 1), (-N, -1))
                assert modified_crank_poly(ell, n) == edit_span(crank_poly(N), N, edits)

    def test_modified_polys_stay_symmetric_with_same_mass(self):
        for ell in (5, 7, 11):
            for n in range(4):
                size = ell * n + beta(ell)
                polys = [(modified_crank_poly(ell, n), crank_poly(size))]
                if ell in (5, 7):
                    polys.append((modified_rank_poly(ell, n), rank_poly(size)))
                for poly, base in polys:
                    assert poly.is_symmetric()
                    assert sum(poly.coeffs) == sum(base.coeffs)

    def test_modified_rank_rejects_unsupported_modulus(self):
        with pytest.raises(InvalidEll):
            modified_rank_poly(11, 0)  # rank variant exists only for 5 and 7
        with pytest.raises(InvalidEll):
            modified_crank_poly(13, 0)


def test_doctests_pass():
    result = doctest.testmod(crankspace.partitions)
    assert result.attempted > 0
    assert result.failed == 0
