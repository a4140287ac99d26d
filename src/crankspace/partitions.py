"""Integer partitions, their rank and crank, and derived counting polynomials.

The rank of a partition is its largest part minus its number of parts.  The
crank is the largest part when no part equals 1; otherwise it is the number
of parts exceeding the count of 1s, minus that count.  N(m, n) and M(m, n)
count partitions of n with rank resp. crank m; the polynomials
sum_m N(m, n) z^m and sum_m M(m, n) z^m are the objects the divisibility and
unimodality claims are about.

Two independent computation routes exist on purpose: direct enumeration
(exponential, bounded, the oracle) and the exact q-series (polynomial-time,
the default backend for the public counts).  Counts at n = 1 follow the
corrected crank convention M(0, 1) = 1, M(m, 1) = 0 otherwise; the empty
partition has no rank or crank, while the n = 0 polynomials are the constant
1 as a generating-function convention.
"""

from __future__ import annotations

import math
from typing import Iterator

from . import qseries
from .cyclotomic import hat_sum
from .laurent import LaurentPoly

ENUMERATION_BOUND = 60
SERIES_BOUND = 5000

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


# -- series-backed counts ------------------------------------------------------

_rank_cache: qseries.QSeries | None = None
_crank_cache: qseries.QSeries | None = None


def _rank_series_to(n: int) -> qseries.QSeries:
    global _rank_cache
    if _rank_cache is None or _rank_cache.order < n:
        order = max(n, 64, 2 * _rank_cache.order if _rank_cache else 0)
        _rank_cache = qseries.rank_series(order)
    return _rank_cache


def _crank_series_to(n: int) -> qseries.QSeries:
    global _crank_cache
    if _crank_cache is None or _crank_cache.order < n:
        order = max(n, 64, 2 * _crank_cache.order if _crank_cache else 0)
        _crank_cache = qseries.crank_series_corrected(order)
    return _crank_cache


def rank_poly(n: int) -> LaurentPoly:
    """sum_m N(m, n) z^m, from the series backend."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > SERIES_BOUND:
        raise BoundExceeded(f"n={n} exceeds series bound {SERIES_BOUND}")
    return _rank_series_to(n)[n]


def crank_poly(n: int) -> LaurentPoly:
    """sum_m M(m, n) z^m with the corrected n = 1 column."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > SERIES_BOUND:
        raise BoundExceeded(f"n={n} exceeds series bound {SERIES_BOUND}")
    return _crank_series_to(n)[n]


def rank_count(m: int, n: int) -> int:
    """N(m, n): partitions of n with rank m; N(0, 0) = 1."""
    return rank_poly(n).coefficient(m)


def crank_count(m: int, n: int) -> int:
    """M(m, n): partitions of n with crank m, corrected at n = 1."""
    return crank_poly(n).coefficient(m)


def rank_residue_count(r: int, t: int, n: int) -> int:
    """N(r, t; n): partitions of n with rank congruent to r mod t."""
    return hat_sum(rank_poly(n), r, t)


def crank_residue_count(r: int, t: int, n: int) -> int:
    """M(r, t; n): partitions of n with crank congruent to r mod t."""
    return hat_sum(crank_poly(n), r, t)


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
