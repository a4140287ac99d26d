"""Partition statistics: closed-form counts vs. the enumeration oracle and the packed series."""

from __future__ import annotations

import doctest

import pytest

import crankspace.partitions
from crankspace.cyclotomic import hat_sum
from crankspace.laurent import LaurentPoly
from crankspace.partitions import (
    ENUMERATION_BOUND,
    POLY_BOUND,
    BoundExceeded,
    EmptyPartition,
    InvalidEll,
    beta,
    colored_count,
    crank_count,
    crank_of,
    crank_poly,
    crank_poly_enumerated,
    delta,
    enumerate_partitions,
    modified_crank_poly,
    modified_rank_poly,
    partition_count,
    rank_count,
    rank_of,
    rank_poly,
    rank_poly_enumerated,
)
from crankspace.qseries import _ck_packed

from helpers import packed_rank_series


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
        assert partition_count(0) == 1

    def test_counts_match_euler_recurrence(self):
        known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [partition_count(n) for n in range(11)] == known
        for n in range(26):
            assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)

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
            partition_count(-1)


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
                assert rank_count(m, n) == oracle.coefficient(m)

    def test_crank_counts_match_for_all_m(self):
        for n in range(1, 21):
            oracle = crank_poly_enumerated(n)
            for m in range(-n, n + 1):
                assert crank_count(m, n) == oracle.coefficient(m)

    def test_size_one_carries_the_corrected_value(self):
        # the lone partition of 1 has raw statistic -1, but both columns
        # use the corrected convention that puts its whole mass at 0
        assert crank_of((1,)) == -1
        assert crank_count(-1, 1) == 0
        assert crank_poly_enumerated(1).coefficient(-1) == 0
        assert crank_count(0, 1) == 1
        assert crank_poly_enumerated(1).coefficient(0) == 1
        assert crank_poly(1) == LaurentPoly.one()
        assert crank_poly_enumerated(1) == LaurentPoly.one()

    def test_polys_match_enumerated_polys(self):
        for n in range(1, 21):
            assert rank_poly(n) == rank_poly_enumerated(n)
            assert crank_poly(n) == crank_poly_enumerated(n)

    def test_poly_totals_are_partition_counts(self):
        for n in range(2, 30):
            assert rank_poly(n).value_at_one() == partition_count(n)
            assert crank_poly(n).value_at_one() == partition_count(n)

    def test_rank_poly_symmetric_crank_poly_symmetric(self):
        for n in range(2, 30):
            assert rank_poly(n).is_symmetric()
            assert crank_poly(n).is_symmetric()

    def test_residue_counts_sum_rows(self):
        for n in range(1, 16):
            for t in (5, 7, 11):
                for r in range(t):
                    want_rank = sum(
                        rank_count(m, n)
                        for m in range(-n, n + 1)
                        if m % t == r
                    )
                    assert hat_sum(rank_poly(n), r, t) == want_rank
                    want_crank = sum(
                        crank_count(m, n)
                        for m in range(-n, n + 1)
                        if m % t == r
                    )
                    assert hat_sum(crank_poly(n), r, t) == want_crank
                assert (
                    sum(hat_sum(rank_poly(n), r, t) for r in range(t))
                    == partition_count(n)
                )


class TestClosedFormAgainstSeries:
    AUDIT_ORDER = 300

    def test_rank_poly_matches_packed_rank_series(self):
        series = packed_rank_series(self.AUDIT_ORDER)
        for n in range(self.AUDIT_ORDER + 1):
            assert rank_poly(n) == series[n], f"mismatch at n={n}"

    def test_crank_poly_matches_crank_factor_weights(self):
        raw = _ck_packed((1,), 1, self.AUDIT_ORDER)
        for n in range(2, self.AUDIT_ORDER + 1):
            assert crank_poly(n) == raw.coeff(n), f"mismatch at n={n}"

    def test_poly_bound_is_reachable(self):
        total = partition_count(POLY_BOUND)
        for builder in (rank_poly, crank_poly):
            poly = builder(POLY_BOUND)
            assert poly.is_symmetric()
            assert poly.value_at_one() == total
            with pytest.raises(BoundExceeded):
                builder(POLY_BOUND + 1)


class TestColoredCounts:
    def test_one_color_is_plain_partition_count(self):
        for n in range(25):
            assert colored_count(1, n) == partition_count(n)

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
            extra = (
                LaurentPoly.monomial(size - 2)
                - LaurentPoly.monomial(size - 1)
                + LaurentPoly.monomial(2 - size)
                - LaurentPoly.monomial(1 - size)
            )
            assert modified_rank_poly(ell, n) == base + extra

    @pytest.mark.parametrize("ell", [5, 7, 11])
    def test_modified_crank_adds_four_boundary_terms(self, ell):
        for n in range(0, 6):
            size = ell * n + beta(ell)
            base = crank_poly(size)
            extra = (
                LaurentPoly.monomial(size - ell)
                - LaurentPoly.monomial(size)
                + LaurentPoly.monomial(ell - size)
                - LaurentPoly.monomial(-size)
            )
            assert modified_crank_poly(ell, n) == base + extra

    def test_modified_polys_stay_symmetric_with_same_mass(self):
        for ell in (5, 7, 11):
            for n in range(4):
                size = ell * n + beta(ell)
                polys = [(modified_crank_poly(ell, n), crank_poly(size))]
                if ell in (5, 7):
                    polys.append((modified_rank_poly(ell, n), rank_poly(size)))
                for poly, base in polys:
                    assert poly.is_symmetric()
                    assert poly.value_at_one() == base.value_at_one()

    def test_modified_rank_rejects_unsupported_modulus(self):
        with pytest.raises(InvalidEll):
            modified_rank_poly(11, 0)  # rank variant exists only for 5 and 7
        with pytest.raises(InvalidEll):
            modified_crank_poly(13, 0)


def test_doctests_pass():
    result = doctest.testmod(crankspace.partitions)
    assert result.attempted > 0
    assert result.failed == 0
