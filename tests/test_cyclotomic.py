"""Prime-cyclotomic divisors: variants, residue-sum criterion, exact division."""

from __future__ import annotations

import doctest
import itertools
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import crankspace.cyclotomic
from crankspace.cyclotomic import (
    VARIANTS,
    NotDivisible,
    divides_squared,
    divides_standard,
    exact_quotient,
    hat_sums,
)
from crankspace.laurent import CrankspaceError, LaurentPoly

from helpers import add, divides_by_division, hat_sums_reference, mul, phi, schoolbook_quotient

PRIMES = (5, 7, 11)
AUDIT_PRIMES = (3, 5, 7, 11, 13, 23, 37)


def random_poly(rng, span=12, bound=9):
    lo = rng.randrange(-6, 3)
    width = rng.randrange(1, span)
    return LaurentPoly(lo, [rng.randrange(-bound, bound + 1) for _ in range(width)])


def quotient_or_reason(divide, f, *divisor):
    try:
        return divide(f, *divisor)
    except NotDivisible as exc:
        return str(exc)


class TestPhi:
    def test_standard_is_all_ones(self):
        for ell in PRIMES:
            p = phi(ell)
            assert p == LaurentPoly(0, (1,) * ell)

    def test_negated_alternates_signs(self):
        for ell in PRIMES:
            p = phi(ell, "negated")
            assert p.coeff_map() == {e: (-1) ** e for e in range(ell)}

    def test_squared_substitutes_square(self):
        for ell in PRIMES:
            assert phi(ell, "squared").coeff_map() == {2 * e: 1 for e in range(ell)}

    def test_squared_factors_as_standard_times_negated(self):
        for ell in PRIMES:
            assert phi(ell, "squared") == mul(phi(ell), phi(ell, "negated"))

    @pytest.mark.parametrize("bad", [2, 4, 6, 9, 15, -5, 1, 0])
    def test_rejects_non_odd_prime(self, bad):
        with pytest.raises(ValueError):
            phi(bad)

    def test_three_is_an_odd_prime(self):
        assert phi(3) == LaurentPoly(0, (1, 1, 1))

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            phi(5, "cubed")
        assert VARIANTS == ("standard", "squared", "negated")


class TestHatSum:
    def test_matches_manual_residue_totals(self):
        f = LaurentPoly(-2, (1, 2, 3, 4, 5))
        assert hat_sums(f, 5)[0] == 3
        assert hat_sums(f, 5)[3] == 1  # exponent -2 lands in class 3 mod 5
        assert hat_sums(f, 5)[2] == 5

    @pytest.mark.parametrize("m", [0, -1])
    def test_a_modulus_below_one_is_refused(self, m):
        with pytest.raises(CrankspaceError, match="modulus must be >= 1"):
            hat_sums(LaurentPoly(-2, (1, 2, 3, 4, 5)), m)

    @given(
        st.builds(
            LaurentPoly,
            st.integers(min_value=-10, max_value=10),
            st.lists(st.integers(min_value=-50, max_value=50), max_size=20),
        ),
        st.integers(min_value=2, max_value=9),
    )
    def test_residue_classes_partition_the_total(self, f, m):
        assert sum(hat_sums(f, m)) == sum(f.coeffs)

    @given(
        st.builds(
            LaurentPoly,
            st.integers(min_value=-30, max_value=10),
            st.lists(st.integers(min_value=-50, max_value=50), max_size=25),
        ),
        st.integers(min_value=1, max_value=40),
    )
    def test_strided_sums_match_the_per_coefficient_loop(self, f, m):
        event(f"modulus past the span: {m > len(f.coeffs)}")
        assert hat_sums(f, m) == hat_sums_reference(f, m)


class TestDivisibilityRoutes:
    def test_standard_accepts_phi_multiples(self):
        for ell in PRIMES:
            f = mul(phi(ell), LaurentPoly(-3, (2, 0, 1)))
            assert divides_standard(f, ell)
            assert divides_by_division(f, phi(ell))

    def test_standard_rejects_near_misses(self):
        assert not divides_standard(add(phi(5), LaurentPoly.one()), 5)
        assert not divides_by_division(add(phi(5), LaurentPoly.one()), phi(5))

    def test_zero_divisible_by_everything(self):
        assert divides_standard(LaurentPoly.zero(), 7)
        assert divides_squared(LaurentPoly.zero(), 7)
        assert divides_by_division(LaurentPoly.zero(), phi(7))

    def test_squared_route_tracks_squared_divisor(self):
        for ell in PRIMES:
            f = mul(phi(ell, "squared"), LaurentPoly(-3, (1, 2)))
            assert divides_squared(f, ell)
            assert divides_by_division(f, phi(ell, "squared"))
            for factor in ("standard", "negated"):  # each divides Phi_ell(z^2) but not conversely
                assert not divides_squared(phi(ell, factor), ell)
                assert not divides_squared(mul(phi(ell, factor), LaurentPoly(0, (1, 2))), ell)

    def test_squared_route_matches_division_on_seeded_corpus(self):
        rng = random.Random(20261019)
        seen = set()
        for ell in AUDIT_PRIMES:
            g = phi(ell, "squared")
            corpus = [LaurentPoly.zero(), g, g.shift(-9)]
            for trial in range(60):
                # spans from 1 exponent to past 2*ell - 1; every other one times a divisor variant
                f = random_poly(rng, span=3 * ell)
                corpus.append(mul(f, phi(ell, VARIANTS[trial % 3])) if trial % 2 else f)
            for f in corpus:
                divisible = divides_by_division(f, g)
                assert divides_squared(f, ell) == divisible, (f, ell)
                seen.add((divisible, len(f.coeffs) < 2 * ell - 1))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_routes_agree_on_seeded_corpus(self):
        rng = random.Random(20260817)
        for ell in PRIMES:
            for trial in range(300):
                f = random_poly(rng)
                if trial % 2:
                    f = mul(f, phi(ell))
                assert divides_standard(f, ell) == divides_by_division(f, phi(ell))
                assert divides_squared(f, ell) == divides_by_division(
                    f, phi(ell, "squared")
                )


class TestExactQuotient:
    def test_recovers_the_cofactor(self):
        cof = LaurentPoly(-2, (3, -1, 0, 4))
        for variant in VARIANTS:
            assert exact_quotient(mul(cof, phi(7, variant)), 7, variant) == cof

    def test_quotient_times_divisor_reconstructs(self):
        # the schoolbook oracle on arbitrary nonzero divisors
        rng = random.Random(99)
        for _ in range(200):
            g = random_poly(rng)
            if not g:
                continue
            cof = random_poly(rng)
            f = mul(cof, g)
            assert mul(schoolbook_quotient(f, g), g) == f

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_schoolbook_on_seeded_corpus(self, variant):
        rng = random.Random(f"exact-quotient:{variant}")
        outcomes = set()
        for ell in AUDIT_PRIMES:
            g = phi(ell, variant)
            corpus = [LaurentPoly.zero(), g.shift(-9), LaurentPoly(-4, (1,) * (len(g.coeffs) - 1))]
            for trial in range(40):
                f = random_poly(rng, span=3 * len(g.coeffs))
                corpus.append(mul(f, g) if trial % 2 else f)
            for f in corpus:
                expected = quotient_or_reason(schoolbook_quotient, f, g)
                assert quotient_or_reason(exact_quotient, f, ell, variant) == expected
                outcomes.add(expected if isinstance(expected, str) else "divisible")
        assert "divisible" in outcomes and "nonzero remainder" in outcomes
        assert any(o.startswith("span z^-4..") for o in outcomes)

    def test_not_divisible_raises(self):
        with pytest.raises(NotDivisible, match="shorter than divisor span z\\^0..z\\^4"):
            exact_quotient(LaurentPoly(0, (1, 1)), 5)
        with pytest.raises(NotDivisible, match="nonzero remainder"):
            exact_quotient(add(phi(5), LaurentPoly.one()), 5)

    def test_refuses_a_divisor_outside_the_family(self):
        for ell, variant in ((9, "standard"), (2, "negated"), (5, "cubed")):
            with pytest.raises(CrankspaceError):
                exact_quotient(LaurentPoly.zero(), ell, variant)

    def test_not_divisible_is_arithmetic_error(self):
        assert issubclass(NotDivisible, ArithmeticError)

    def test_zero_divisor_raises_zero_division(self):
        # only the schoolbook oracle takes an arbitrary divisor
        with pytest.raises(ZeroDivisionError):
            schoolbook_quotient(LaurentPoly.one(), LaurentPoly.zero())

    def test_zero_dividend(self):
        for variant in VARIANTS:
            assert exact_quotient(LaurentPoly.zero(), 5, variant) == LaurentPoly.zero()


class TestSymmetricUnimodalCriterion:
    """A symmetric unimodal f divisible by Phi_ell has a non-negative quotient.

    The statement `verify._check_slices` relies on when it treats a negative
    quotient of such a slice as a fault.
    """

    @settings(max_examples=300, deadline=None)
    @given(ell=st.sampled_from((3, 5, 7, 11)), first=st.integers(1, 3),
           steps=st.lists(st.integers(0, 2), max_size=12), bump=st.integers(0, 2))
    def test_quotient_is_non_negative(self, ell, first, steps, bump):
        rise = list(itertools.accumulate([first, *steps]))
        f = LaurentPoly(-len(rise), rise + [rise[-1] + bump] + rise[::-1])
        assert f.is_symmetric() and f.is_unimodal()
        divisible = divides_standard(f, ell)
        event(f"divisible: {divisible}")
        if divisible:
            assert exact_quotient(f, ell).is_nonnegative(), (f, ell)


def test_doctests_pass():
    result = doctest.testmod(crankspace.cyclotomic)
    assert result.attempted > 0
    assert result.failed == 0
