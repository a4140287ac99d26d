"""Colored-crank q-series engine vs. naive factor-by-factor oracles."""

from __future__ import annotations

import inspect
import typing

import pytest

import crankspace.qseries
from crankspace.laurent import LaurentPoly
from crankspace.partitions import colored_count, crank_poly, rank_poly
from crankspace.qseries import (
    CrankSpec,
    InvalidK,
    _ck_packed,
    ak_spec,
    bk_spec,
    ck_slices_at,
    colored_coeffs,
    iter_ck_slices,
)

from helpers import naive_colored_crank, naive_crank_series, naive_rank_series, packed_rank_series


def slices(spec: CrankSpec, order: int) -> list[LaurentPoly]:
    return [poly for _, poly in iter_ck_slices(spec, order + 1)]


class TestCrankSpec:
    def test_valid_spec(self):
        s = CrankSpec(5, (4, 2, 1))
        assert s.delta == 1
        assert s.label() == "C5(4,2,1)"

    def test_delta_matches_parity_and_weight_count(self):
        # odd k keeps one bare Euler factor; even k has none
        assert CrankSpec(6, (5, 3, 1)).delta == 0
        assert CrankSpec(7, (4, 3, 2, 1)).delta == 1
        for spec in (CrankSpec(6, (5, 3, 1)), CrankSpec(7, (4, 3, 2, 1))):
            assert 2 * len(spec.a) - spec.delta == spec.k

    def test_weight_count_is_forced_by_k(self):
        with pytest.raises(InvalidK):
            CrankSpec(7, (4, 3, 2))  # needs four weights
        with pytest.raises(InvalidK):
            CrankSpec(6, (4, 3, 2, 1))  # needs three

    @pytest.mark.parametrize(
        "k,a",
        [
            (0, ()),
            (1, (1,)),
            (2, (1,)),
            (3, (2, 2)),
            (3, (1, 2)),
            (3, (2, 1, 1)),
            (3, (2, -1)),
            (3, (2, 0)),
        ],
    )
    def test_invalid_specs_raise(self, k, a):
        with pytest.raises(InvalidK):
            CrankSpec(k, a)

    def test_invalid_k_is_value_error(self):
        assert issubclass(InvalidK, ValueError)


class TestFamilySpecs:
    def test_first_family_weights_are_consecutive_down_to_two(self):
        assert ak_spec(3).a == (3, 2)
        assert ak_spec(4).a == (3, 2)
        assert ak_spec(6).a == (4, 3, 2)
        assert ak_spec(7).a == (5, 4, 3, 2)

    def test_first_family_rejects_small_k(self):
        with pytest.raises(InvalidK):
            ak_spec(2)

    def test_second_family_skips_weight_four(self):
        assert bk_spec(7).a == (6, 5, 3, 2)
        assert bk_spec(9).a == (7, 6, 5, 3, 2)
        assert bk_spec(11).a == (8, 7, 6, 5, 3, 2)
        assert all(4 not in bk_spec(k).a for k in (7, 9, 11, 13))

    def test_second_family_gates_even_k(self):
        for k in (6, 8, 10):
            with pytest.raises(InvalidK):
                bk_spec(k)

    def test_second_family_rejects_small_odd_k(self):
        with pytest.raises(InvalidK):
            bk_spec(5)


class TestSeriesAgainstNaiveOracle:
    @pytest.mark.parametrize(
        "spec",
        [
            CrankSpec(3, (2, 1)),
            CrankSpec(3, (3, 1)),
            CrankSpec(4, (4, 3)),
            CrankSpec(5, (4, 2, 1)),
            CrankSpec(6, (6, 5, 4)),
            bk_spec(7),
        ],
        ids=lambda s: s.label(),
    )
    def test_colored_series_matches_oracle(self, spec):
        order = 14
        series = slices(spec, order)
        naive = naive_colored_crank(spec.a, spec.delta, order)
        assert len(series) == order + 1
        for n in range(order + 1):
            assert series[n] == naive[n], f"mismatch at q^{n}"

    def test_rank_series_matches_oracle_and_per_size_poly(self):
        order = 20
        series = packed_rank_series(order)
        naive = naive_rank_series(order)
        for n in range(order + 1):
            assert series[n] == naive[n]
            assert series[n] == rank_poly(n)

    def test_corrected_crank_series(self):
        order = 20
        raw = _ck_packed((1,), 1, order)
        naive_raw = naive_crank_series(order)
        # size 1 is the corrected column: constant 1, not z - 1 + 1/z
        assert crank_poly(1) == LaurentPoly.one()
        assert raw.coeff(1) == naive_raw[1] == LaurentPoly.from_text("1*z^-1 - 1*z^0 + 1*z^1")
        for n in range(order + 1):
            assert raw.coeff(n) == naive_raw[n]
            if n != 1:
                assert raw.coeff(n) == crank_poly(n)

    def test_specialization_at_one_counts_colored_partitions(self):
        for spec in (CrankSpec(3, (2, 1)), CrankSpec(5, (5, 4, 3)), ak_spec(6)):
            for n, poly in iter_ck_slices(spec, 13):
                assert poly.value_at_one() == colored_count(spec.k, n)

    def test_colored_coeffs_prefix_property(self):
        long = colored_coeffs(4, 30)
        short = colored_coeffs(4, 12)
        assert long[:13] == short
        assert long[0] == 1 and long[1] == 4

    def test_every_slice_is_symmetric(self):
        assert all(p.is_symmetric() for p in slices(CrankSpec(5, (5, 3, 2)), 15))


class TestSliceAccess:
    def test_iter_matches_full_series(self):
        spec = CrankSpec(4, (3, 2))
        pairs = list(iter_ck_slices(spec, 11))
        assert [n for n, _ in pairs] == list(range(11))
        assert [p for _, p in pairs] == naive_colored_crank(spec.a, spec.delta, 10)

    def test_slices_at_picks_requested_indices(self):
        spec = CrankSpec(3, (3, 2))
        series = slices(spec, 20)
        got = ck_slices_at(spec, 20, [0, 7, 20])
        assert set(got) == {0, 7, 20}
        for n, poly in got.items():
            assert poly == series[n]

    def test_slices_at_rejects_out_of_range(self):
        spec = CrankSpec(3, (2, 1))
        with pytest.raises(IndexError):
            ck_slices_at(spec, 10, [11])
        with pytest.raises(IndexError):
            ck_slices_at(spec, 10, [-1])


def test_public_annotations_resolve():
    for _, fn in inspect.getmembers(crankspace.qseries, inspect.isfunction):
        if fn.__module__ == crankspace.qseries.__name__:
            typing.get_type_hints(fn)
