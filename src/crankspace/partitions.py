"""Integer partitions, their rank and crank, and derived counting polynomials.

The rank of a partition is its largest part minus its number of parts.  The
crank is the largest part when no part equals 1; otherwise it is the number
of parts exceeding the count of 1s, minus that count.  N(m, n) and M(m, n)
count partitions of n with rank resp. crank m; the polynomials
sum_m N(m, n) z^m and sum_m M(m, n) z^m are the objects the divisibility and
unimodality claims are about.

Two independent computation routes exist on purpose: direct enumeration
(exponential, bounded, the oracle) and closed formulas over the partition
numbers p(.) (the route behind the public counts, up to POLY_BOUND):

    N(m, n) = sum_{k>=1} (-1)^(k-1) [p(n - k(3k-1)/2 - k|m|) - p(n - k(3k+1)/2 - k|m|)]
    M(m, n) = sum_{k>=1} (-1)^(k-1) [p(n - k(k-1)/2 - k|m|) - p(n - k(k+1)/2 - k|m|)]

the rank formula of Atkin and Swinnerton-Dyer (Proc. London Math. Soc.
1954) and the crank formula of Andrews and Garvan (Bull. AMS 1988), the
latter for n >= 2.  Counts at n = 1 follow the corrected crank convention
M(0, 1) = 1, M(m, 1) = 0 otherwise; the empty partition has no rank or
crank, while the n = 0 polynomials are the constant 1 as a
generating-function convention.
"""

from __future__ import annotations

import math
from typing import Iterator

from . import qseries
from .laurent import LaurentPoly

ENUMERATION_BOUND = 60
POLY_BOUND = 5000

Partition = tuple[int, ...]


class BoundExceeded(ValueError):
    """Raised when a requested size is beyond the configured safety bound."""


class EmptyPartition(ValueError):
    """Raised when a statistic undefined on the empty partition is requested."""


class InvalidEll(ValueError):
    """Raised for progression moduli outside the supported primes."""


def _check_partition(parts) -> Partition:
    lam = tuple(parts)
    if not lam:
        raise EmptyPartition("the empty partition has no rank or crank")
    if any(p < 1 for p in lam):
        raise ValueError(f"parts must be positive integers, got {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be non-increasing, got {lam}")
    return lam


def enumerate_partitions(n: int, bound: int = ENUMERATION_BOUND) -> Iterator[Partition]:
    """All partitions of n in reverse lexicographic order, (n) first.

    >>> list(enumerate_partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > bound:
        raise BoundExceeded(f"enumeration of n={n} exceeds bound {bound}")
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        i = len(parts) - 1
        ones = 0
        while i >= 0 and parts[i] == 1:
            ones += 1
            i -= 1
        if i < 0:
            return
        parts[i] -= 1
        rem = ones + 1
        cap = parts[i]
        del parts[i + 1 :]
        while rem > 0:
            take = min(cap, rem)
            parts.append(take)
            rem -= take


def rank_of(parts) -> int:
    """Largest part minus number of parts."""
    lam = _check_partition(parts)
    return lam[0] - len(lam)


def crank_of(parts) -> int:
    """Largest part if no 1s occur, else (#parts greater than #1s) - #1s."""
    lam = _check_partition(parts)
    ones = sum(1 for p in lam if p == 1)
    if ones == 0:
        return lam[0]
    return sum(1 for p in lam if p > ones) - ones


# -- closed-form counts --------------------------------------------------------


def _closed_form_poly(n: int, s: int) -> LaurentPoly:
    """sum_m c(m, n) z^m for n >= 1, by the module docstring's formulas.

    c(m, n) sums over k >= 1 with offsets k(sk-1)/2 and k(sk+1)/2: s = 3
    gives the rank count N(m, n), s = 1 the crank count M(m, n) for n >= 2.
    The two p(.) arguments of one k differ by exactly k.
    """
    p = qseries.colored_coeffs(1, n)
    half = []
    for m in range(n + 1):
        total, sign, k = 0, 1, 1
        while (i := n - k * (s * k - 1) // 2 - k * m) >= 0:
            total += sign * (p[i] - p[i - k] if i >= k else p[i])
            sign, k = -sign, k + 1
        half.append(total)
    return LaurentPoly(-n, half[:0:-1] + half)


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > POLY_BOUND:
        raise BoundExceeded(f"n={n} exceeds the polynomial size bound {POLY_BOUND}")


def rank_poly(n: int) -> LaurentPoly:
    """sum_m N(m, n) z^m, from the rank formula over p(.)."""
    _check_size(n)
    return LaurentPoly.one() if n <= 1 else _closed_form_poly(n, 3)


def crank_poly(n: int) -> LaurentPoly:
    """sum_m M(m, n) z^m with the corrected n = 1 column, from the crank formula over p(.)."""
    _check_size(n)
    return LaurentPoly.one() if n <= 1 else _closed_form_poly(n, 1)


def rank_count(m: int, n: int) -> int:
    """N(m, n): partitions of n with rank m; N(0, 0) = 1."""
    return rank_poly(n).coefficient(m)


def crank_count(m: int, n: int) -> int:
    """M(m, n): partitions of n with crank m, corrected at n = 1."""
    return crank_poly(n).coefficient(m)


# -- enumeration oracle --------------------------------------------------------


def rank_poly_enumerated(n: int, bound: int = ENUMERATION_BOUND) -> LaurentPoly:
    """Rank polynomial by direct enumeration (the oracle route)."""
    if n == 0:
        return LaurentPoly.one()
    acc: dict[int, int] = {}
    for lam in enumerate_partitions(n, bound):
        r = rank_of(lam)
        acc[r] = acc.get(r, 0) + 1
    return LaurentPoly.from_coeff_map(acc)


def crank_poly_enumerated(n: int, bound: int = ENUMERATION_BOUND) -> LaurentPoly:
    """Crank polynomial by direct enumeration, corrected at n = 1."""
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return LaurentPoly.one()
    acc: dict[int, int] = {}
    for lam in enumerate_partitions(n, bound):
        c = crank_of(lam)
        acc[c] = acc.get(c, 0) + 1
    return LaurentPoly.from_coeff_map(acc)


# -- colored counts and progressions --------------------------------------------


def partition_count(n: int) -> int:
    """p(n), exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return qseries.colored_coeffs(1, n)[n]


def colored_count(k: int, n: int) -> int:
    """p_k(n): partitions of n into parts of k colors (series-based)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return qseries.colored_coeffs(k, n)[n]


def beta(ell: int) -> int:
    """The progression offset ell - (ell^2 - 1)/24 for a prime ell >= 5.

    >>> [beta(ell) for ell in (5, 7, 11)]
    [4, 5, 6]
    """
    if ell < 5 or math.gcd(ell, 24) != 1 or any(ell % d == 0 for d in range(2, ell)):
        raise InvalidEll(f"ell must be a prime >= 5, got {ell}")
    return ell - (ell * ell - 1) // 24


def delta(k: int, ell: int) -> int:
    """Least non-negative residue with 24 * delta == k (mod ell)."""
    if math.gcd(24, ell) != 1:
        raise InvalidEll(f"24 must be invertible mod ell, got ell={ell}")
    return (k * pow(24, -1, ell)) % ell


def modified_rank_poly(ell: int, n: int) -> LaurentPoly:
    """Rank polynomial at ell*n + beta(ell) with the four boundary terms moved.

    Adds z^(N-2) - z^(N-1) and the mirror pair for N = ell*n + beta(ell):
    the extreme rank values N-1 and their mirrors are shifted inward by one,
    which makes the result symmetric and (conjecturally) unimodal and
    divisible by Phi_ell.  Supported for ell in {5, 7}.
    """
    if ell not in (5, 7):
        raise InvalidEll(f"modified rank polynomials are defined for ell in {{5, 7}}, got {ell}")
    if n < 0:
        raise ValueError("n must be >= 0")
    N = ell * n + beta(ell)
    f = rank_poly(N)
    for e, c in ((N - 2, 1), (N - 1, -1), (2 - N, 1), (1 - N, -1)):
        f = f + LaurentPoly.monomial(e, c)
    return f


def modified_crank_poly(ell: int, n: int) -> LaurentPoly:
    """Crank polynomial at ell*n + beta(ell) with the extremes pulled in by ell.

    Adds z^(N-ell) - z^N and the mirror pair for N = ell*n + beta(ell).
    Supported for ell in {5, 7, 11}.
    """
    if ell not in (5, 7, 11):
        raise InvalidEll(f"modified crank polynomials are defined for ell in {{5, 7, 11}}, got {ell}")
    if n < 0:
        raise ValueError("n must be >= 0")
    N = ell * n + beta(ell)
    f = crank_poly(N)
    for e, c in ((N - ell, 1), (N, -1), (ell - N, 1), (-N, -1)):
        f = f + LaurentPoly.monomial(e, c)
    return f
