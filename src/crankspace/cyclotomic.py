"""Cyclotomic divisibility tests for integer Laurent polynomials.

For an odd prime ell, the cyclotomic polynomial Phi_ell(z) = 1 + z + ... +
z^(ell-1) and its variants Phi_ell(z^2) and Phi_ell(-z) divide a Laurent
polynomial f exactly when certain residue-class coefficient sums of f agree.
Those criteria are linear scans over the span; exact long division is kept as
an independent audit route, and the two must always agree.  Divisibility by
Phi_ell means equidistribution of the underlying counts over residue classes
mod ell, which is how partition congruences surface at the polynomial level.
"""

from __future__ import annotations

from .laurent import CrankspaceError, LaurentPoly

VARIANTS = ("standard", "squared", "negated")


class NotDivisible(ArithmeticError):
    """Raised when an exact polynomial quotient does not exist."""


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _check_modulus(ell: int, variant: str = "standard") -> None:
    """Refuse a cyclotomic divisor choice other than Phi_ell of z, z^2 or -z, ell an odd prime."""
    if not _is_odd_prime(ell):
        raise CrankspaceError(f"ell must be an odd prime, got {ell}")
    if variant not in VARIANTS:
        raise CrankspaceError(f"variant must be one of {VARIANTS}, got {variant!r}")


def phi(ell: int, variant: str = "standard") -> LaurentPoly:
    """The chosen cyclotomic polynomial as a LaurentPoly.

    >>> str(phi(3))
    '1*z^0 + 1*z^1 + 1*z^2'
    >>> str(phi(3, "squared"))
    '1*z^0 + 1*z^2 + 1*z^4'
    >>> str(phi(3, "negated"))
    '1*z^0 - 1*z^1 + 1*z^2'
    """
    _check_modulus(ell, variant)
    if variant == "standard":
        return LaurentPoly(0, (1,) * ell)
    if variant == "squared":
        return LaurentPoly(0, (1, 0) * (ell - 1) + (1,))
    return LaurentPoly(0, tuple((-1) ** i for i in range(ell)))


def hat_sums(f: LaurentPoly, m: int) -> list[int]:
    """The coefficient sums of f over its exponent classes mod m, by residue.

    >>> hat_sums(LaurentPoly(-2, (1, 2, 3, 4, 5)), 5)
    [3, 4, 5, 1, 2]
    """
    if m < 1:
        raise CrankspaceError("modulus must be >= 1")
    sums = [0] * m
    for i, c in enumerate(f.coeffs):
        sums[(f.lo + i) % m] += c
    return sums


def divides_standard(f: LaurentPoly, ell: int) -> bool:
    """Whether Phi_ell(z) divides f, by the residue-sum criterion.

    Phi_ell | f iff all ell residue-class sums of f mod ell are equal.
    """
    _check_modulus(ell)
    sums = hat_sums(f, ell)
    return all(s == sums[ell - 1] for s in sums)


def divides_negated(f: LaurentPoly, ell: int) -> bool:
    """Whether Phi_ell(-z) divides f, by the residue-sum criterion.

    Phi_ell(-z) | f iff the alternating differences
    (-1)^r * (hat(f, r, 2*ell) - hat(f, r + ell, 2*ell)) agree for all r.
    """
    _check_modulus(ell)
    sums = hat_sums(f, 2 * ell)
    target = sums[ell - 1] - sums[2 * ell - 1]
    for r in range(ell - 1):
        d = sums[r] - sums[r + ell]
        if r % 2 == 1:
            d = -d
        if d != target:
            return False
    return True


def exact_quotient(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The Laurent polynomial q with q*g == f, if one exists over Z.

    Schoolbook long division from the top exponent; raises NotDivisible when
    the remainder is nonzero or a leading-coefficient division fails.  This is
    the audit route for the residue-sum criteria and works for any nonzero g.

    >>> exact_quotient(phi(5).shift(-2), phi(5))
    LaurentPoly('1*z^-2')
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero()
    glen = len(g.coeffs)
    qlen = len(f.coeffs) - glen + 1
    if qlen <= 0:
        raise NotDivisible(f"span z^{f.lo}..z^{f.hi} shorter than divisor span z^{g.lo}..z^{g.hi}")
    num = list(f.coeffs)
    glead = g.coeffs[-1]
    q = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = num[i + glen - 1]
        if c == 0:
            continue
        if c % glead != 0:
            raise NotDivisible("leading coefficient does not divide exactly")
        qi = c // glead
        q[i] = qi
        for j, gj in enumerate(g.coeffs):
            num[i + j] -= qi * gj
    if any(num):
        raise NotDivisible("nonzero remainder")
    return LaurentPoly(f.lo - g.lo, q)
