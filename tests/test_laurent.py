"""Exact Laurent polynomials: construction, transforms, predicates, serialization.

TestRingLaws checks the tests' reference ring (helpers.add, sub, mul), which
the naive oracles are built on, and the package's shift and substitution
against it.
"""

from __future__ import annotations

import doctest
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crankspace.laurent
from crankspace.cli import _parse_poly_arg
from crankspace.laurent import LaurentPoly

from helpers import add, mul, poly_from_json, sub


def poly_strategy(max_abs=40, max_span=12):
    return st.builds(
        LaurentPoly,
        st.integers(min_value=-8, max_value=8),
        st.lists(st.integers(min_value=-max_abs, max_value=max_abs), max_size=max_span),
    )


polys = poly_strategy()


class TestConstruction:
    def test_normalizes_leading_and_trailing_zeros(self):
        assert LaurentPoly(-3, (0, 0, 1, 2, 0)) == LaurentPoly(-1, (1, 2))

    def test_zero_is_canonical(self):
        assert LaurentPoly(5, ()) == LaurentPoly.zero()
        assert LaurentPoly(-7, (0, 0)) == LaurentPoly.zero()
        assert LaurentPoly.zero().lo == 0
        assert not LaurentPoly.zero()

    def test_monomial(self):
        m = LaurentPoly(-4, (3,))
        assert m.lo == -4 and m.hi == -4 and m.coefficient(-4) == 3
        assert LaurentPoly(2, (0,)) == LaurentPoly.zero()

    def test_one(self):
        assert LaurentPoly.one() == LaurentPoly(0, (1,))
        assert bool(LaurentPoly.one())

    def test_coefficient_outside_support_is_zero(self):
        p = LaurentPoly(-1, (1, 0, 0, 0, 2))
        assert p.coefficient(0) == 0
        assert p.coefficient(100) == 0

    def test_coeff_map_drops_zeros(self):
        p = LaurentPoly(-1, (1, 0, 2))
        assert p.coeff_map() == {-1: 1, 1: 2}
        assert LaurentPoly.from_coeff_map(p.coeff_map()) == p

    def test_from_coeff_map_empty(self):
        assert LaurentPoly.from_coeff_map({}) == LaurentPoly.zero()

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
    def test_from_half_mirrors_the_half(self, half):
        f = LaurentPoly.from_half(half)
        assert f.is_symmetric()
        assert [f.coefficient(-i) for i in range(len(half))] == half
        assert [f.coefficient(i) for i in range(len(half))] == half
        assert f.coefficient(len(half)) == f.coefficient(-len(half)) == 0

    def test_hashable(self):
        seen = {LaurentPoly.one(), LaurentPoly(0, (1,)), LaurentPoly.zero()}
        assert len(seen) == 2

    def test_equal_only_to_laurent_polys(self):
        assert LaurentPoly.one() != (0, (1,))
        assert LaurentPoly.one() != 1
        assert LaurentPoly(2, (0, 3)) == LaurentPoly(3, (3,))


class TestRingLaws:
    @given(polys, polys)
    def test_addition_commutes(self, f, g):
        assert add(f, g) == add(g, f)

    @given(polys, polys, polys)
    def test_addition_associates(self, f, g, h):
        assert add(add(f, g), h) == add(f, add(g, h))

    @given(polys)
    def test_additive_identity_and_inverse(self, f):
        assert add(f, LaurentPoly.zero()) == f
        assert sub(f, f) == LaurentPoly.zero()
        assert add(sub(LaurentPoly.zero(), f), f) == LaurentPoly.zero()

    @given(polys, polys)
    def test_multiplication_commutes(self, f, g):
        assert mul(f, g) == mul(g, f)

    @settings(max_examples=60)
    @given(polys, polys, polys)
    def test_multiplication_associates(self, f, g, h):
        assert mul(mul(f, g), h) == mul(f, mul(g, h))

    @given(polys, polys, polys)
    def test_distributivity(self, f, g, h):
        assert mul(f, add(g, h)) == add(mul(f, g), mul(f, h))

    @given(polys)
    def test_multiplicative_identity_and_annihilator(self, f):
        assert mul(f, LaurentPoly.one()) == f
        assert mul(f, LaurentPoly.zero()) == LaurentPoly.zero()

    @given(polys, polys)
    def test_evaluation_at_one_is_multiplicative(self, f, g):
        assert sum(mul(f, g).coeffs) == sum(f.coeffs) * sum(g.coeffs)
        assert sum(add(f, g).coeffs) == sum(f.coeffs) + sum(g.coeffs)

    @given(polys, st.integers(min_value=-6, max_value=6))
    def test_shift_multiplies_by_monomial(self, f, k):
        assert f.shift(k) == mul(f, LaurentPoly(k, (1,)))


class TestPredicates:
    def test_symmetric_examples(self):
        assert LaurentPoly(-1, (1, 3, 1)).is_symmetric()
        assert LaurentPoly.zero().is_symmetric()
        assert not LaurentPoly(0, (1, 3, 1)).is_symmetric()  # palindromic but centered off 0
        assert not LaurentPoly(-1, (1, 2)).is_symmetric()

    def test_unimodal_examples(self):
        assert LaurentPoly(-1, (1, 2, 1)).is_unimodal()
        assert LaurentPoly(0, (3, 3, 3)).is_unimodal()
        assert LaurentPoly.zero().is_unimodal()
        assert not LaurentPoly(0, (2, 1, 2)).is_unimodal()

    def test_interior_zero_breaks_unimodality(self):
        # 1, 0, 1 dips in the middle even though both ends look fine
        assert not LaurentPoly(-1, (1, 0, 1)).is_unimodal()

    def test_negative_coefficient_is_never_unimodal(self):
        assert not LaurentPoly(0, (1, -2, 1)).is_unimodal()

    @given(st.integers(-4, 4), st.lists(st.integers(0, 3), max_size=6),
           st.lists(st.integers(0, 3), max_size=6), st.integers(0, 23), st.integers(-2, 3))
    def test_unimodality_is_rise_then_fall(self, lo, rise, fall, at, value):
        # a rise, a fall and perhaps one changed entry, which may be negative or
        # an interior zero: plateaus everywhere, unimodal about as often as not
        coeffs = sorted(rise) + sorted(fall, reverse=True)
        if at < len(coeffs):
            coeffs[at] = value
        f = LaurentPoly(lo, coeffs)
        seq = (0,) + f.coeffs + (0,)
        steps = range(len(seq) - 1)
        assert f.is_unimodal() == any(
            all(seq[i] <= seq[i + 1] for i in steps if i < peak)
            and all(seq[i] >= seq[i + 1] for i in steps if i >= peak)
            for peak in range(len(seq)))

    @given(st.lists(st.one_of(st.integers(-2, 2), st.integers()), min_size=1, max_size=12))
    @example([0])
    @example([0, 0, 0])
    @example([-1])
    @example([3, 3, 0])
    @example([2, 0, 1])
    def test_half_test_matches_is_unimodal_on_palindromes(self, half):
        assert LaurentPoly.unimodal_half(half) == LaurentPoly.from_half(half).is_unimodal()

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=8), st.integers(0, 11), st.integers(-2, 4))
    def test_half_test_matches_is_unimodal_on_perturbed_descending_halves(self, fall, at, value):
        # a fall and perhaps one changed entry, which may rise, be negative or end the half:
        # unimodal about as often as not
        half = sorted(fall, reverse=True)
        if at < len(half):
            half[at] = value
        assert LaurentPoly.unimodal_half(half) == LaurentPoly.from_half(half).is_unimodal()

    def test_nonnegative(self):
        assert LaurentPoly(-3, (0, 1, 2)).is_nonnegative()
        assert LaurentPoly.zero().is_nonnegative()
        assert not LaurentPoly(0, (1, -1)).is_nonnegative()

    def test_size_four_crank_poly_is_symmetric_but_not_unimodal(self):
        p = LaurentPoly(-4, (1, 0, 1, 0, 1, 0, 1, 0, 1))
        assert p.is_symmetric()
        assert not p.is_unimodal()

    @given(polys)
    def test_symmetry_matches_exponent_reversal(self, f):
        reversed_f = LaurentPoly.from_coeff_map(
            {-e: c for e, c in f.coeff_map().items()}
        )
        assert f.is_symmetric() == (f == reversed_f)

    @given(polys, polys)
    def test_product_of_symmetric_is_symmetric(self, f, g):
        if f.is_symmetric() and g.is_symmetric():
            assert mul(f, g).is_symmetric()


class TestSerialization:
    def test_text_form(self):
        p = LaurentPoly(-2, (1, 0, -3, 2))
        assert str(p) == "1*z^-2 - 3*z^0 + 2*z^1"
        assert str(LaurentPoly.zero()) == "0"

    @given(polys)
    def test_text_roundtrip(self, f):
        # the text form reads back through the parser of `quotient --poly`
        assert _parse_poly_arg(str(f)) == f

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="cannot parse"):
            _parse_poly_arg("z^2 + chaos")

    def test_json_dict_uses_decimal_strings(self):
        big = 10 ** 40
        p = LaurentPoly(-1, (big, 0, -big))
        data = p.to_json_dict()
        assert data["lo"] == -1
        assert data["coeffs"] == [str(big), "0", str(-big)]
        assert poly_from_json(data) == p

    @given(polys)
    def test_json_roundtrip_through_text(self, f):
        blob = json.dumps(f.to_json_dict())
        assert poly_from_json(json.loads(blob)) == f

    def test_repr_is_evalable_hint(self):
        p = LaurentPoly(0, (1, 2))
        assert "LaurentPoly" in repr(p)


def test_doctests_pass():
    result = doctest.testmod(crankspace.laurent)
    assert result.attempted > 0
    assert result.failed == 0
