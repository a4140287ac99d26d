"""Cyclotomic divisibility tests for integer Laurent polynomials.

For an odd prime ell, the divisors are the cyclotomic polynomial Phi_ell(z) =
1 + z + ... + z^(ell-1) and its variants Phi_ell(z^2) and Phi_ell(-z).  The
residue-sum route answers Phi_ell(z) and Phi_ell(z^2), the divisors the
claims test, each from one table of f's residue-class coefficient sums.
`exact_quotient`, the independent second route, answers all three (for
`quotient` too): it divides by the sparse binomial multiple 1 - eps*z^(s*ell)
of Phi_ell(eps*z^s), and the two routes must always agree.  Divisibility by
Phi_ell means equidistribution of the underlying counts over residue classes
mod ell, which is how partition congruences surface at the polynomial level.
"""

from __future__ import annotations

from itertools import accumulate

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


def hat_sums(f: LaurentPoly, m: int) -> list[int]:
    """The coefficient sums of f over its exponent classes mod m, by residue.

    Class r holds the coefficients at indices (r - f.lo) mod m, m apart.

    >>> hat_sums(LaurentPoly(-2, (1, 2, 3, 4, 5)), 5)
    [3, 4, 5, 1, 2]
    """
    if m < 1:
        raise CrankspaceError("modulus must be >= 1")
    return [sum(f.coeffs[(r - f.lo) % m::m]) for r in range(m)]


def divides_standard(f: LaurentPoly, ell: int) -> bool:
    """Whether Phi_ell(z) divides f, by the residue-sum criterion.

    Phi_ell | f iff all ell residue-class sums of f mod ell are equal.
    """
    _check_modulus(ell)
    sums = hat_sums(f, ell)
    return all(s == sums[ell - 1] for s in sums)


def divides_squared(f: LaurentPoly, ell: int) -> bool:
    """Whether Phi_ell(z^2) divides f, by the residue-sum criterion.

    Write f = A(z^2) + z*B(z^2).  Phi_ell(z^2) | f iff Phi_ell divides A and
    B, that is iff f's class sums mod 2*ell are all equal over the even
    classes and all equal over the odd classes: each equals the one two
    classes on.

    >>> divides_squared(LaurentPoly(-1, (1, 2, 1, 2, 1, 2, 1, 2, 1, 2)), 5)
    True
    """
    _check_modulus(ell)
    sums = hat_sums(f, 2 * ell)
    return sums[2:] == sums[:-2]


def exact_quotient(f: LaurentPoly, ell: int, variant: str = "standard") -> LaurentPoly:
    """The Laurent polynomial q with q * Phi_ell(eps*z^s) == f, if one exists.

    The divisor is Phi_ell(z), Phi_ell(z^2) or Phi_ell(-z) (s = 1 or 2,
    eps = 1 or -1).  Its binomial multiple is sparse: since ell is odd,
    Phi_ell(eps*z^s) * (1 - eps*z^s) = 1 - eps*z^(s*ell), so q is
    f * (1 - eps*z^s) divided by that binomial, one running sum per residue
    class mod s*ell.  The division is exact iff the sums leave the top
    s*ell entries zero; otherwise NotDivisible is raised.  Independent of
    the residue-sum criteria, which `verify` checks it against.

    >>> exact_quotient(LaurentPoly(-2, (1, 1, 1, 1, 1)), 5)
    LaurentPoly('1*z^-2')
    """
    _check_modulus(ell, variant)
    if not f:
        return LaurentPoly.zero()
    s = 2 if variant == "squared" else 1
    eps = -1 if variant == "negated" else 1
    period, c = s * ell, f.coeffs
    qlen = len(c) - period + s
    if qlen <= 0:
        raise NotDivisible(f"span z^{f.lo}..z^{f.hi} shorter than divisor span z^0..z^{period - s}")
    q = [x - eps * y for x, y in zip(c + (0,) * s, (0,) * s + c)]
    step = None if eps > 0 else (lambda acc, x: x - acc)  # per class: q[i] += eps * q[i - period]
    for r in range(period):
        q[r::period] = accumulate(q[r::period], step)
    if any(q[qlen:]):
        raise NotDivisible("nonzero remainder")
    return LaurentPoly(f.lo, q[:qlen])
