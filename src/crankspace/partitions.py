"""Integer partitions, their rank and crank, and derived counting polynomials.

The rank of a partition is its largest part minus its number of parts.  The
crank is the largest part when no part equals 1; otherwise it is the number
of parts exceeding the count of 1s, minus that count.  N(m, n) and M(m, n)
count partitions of n with rank resp. crank m; the polynomials
sum_m N(m, n) z^m and sum_m M(m, n) z^m are the objects the divisibility and
unimodality claims are about.

The counts have one production route, closed formulas over the partition
numbers p(.), up to POLY_BOUND; the tests audit it against direct enumeration
and a packed rank series:

    N(m, n) = sum_{k>=1} (-1)^(k-1) [p(n - k(3k-1)/2 - k|m|) - p(n - k(3k+1)/2 - k|m|)]
    M(m, n) = sum_{k>=1} (-1)^(k-1) [p(n - k(k-1)/2 - k|m|) - p(n - k(k+1)/2 - k|m|)]

the rank formula of Atkin and Swinnerton-Dyer (Proc. London Math. Soc.
1954) and the crank formula of Andrews and Garvan (Bull. AMS 1988), the
latter for n >= 2.  They depend on |m| only, so each size's counts are
computed for m = 0..n and mirrored once; the modified polynomials edit that
half (_modified_half), and the claims take it as it is.  One k's terms over
every m read a strided slice of p(.), so each k is one C-level pass.  Counts
at n = 1 follow the corrected crank convention M(0, 1) = 1, M(m, 1) = 0
otherwise; the empty partition has no rank or crank, while the n = 0
polynomials are the constant 1 as a generating-function convention.
"""

from __future__ import annotations

import math
import operator

from . import qseries
from .cyclotomic import _is_odd_prime
from .laurent import CrankspaceError, LaurentPoly

POLY_BOUND = 5000
# p_k(n) builds one table of n + 1 entries for each pass: one per k' = k,
# k-3, ... (three colors per pass by Jacobi's identity) and one per color
# 1..k mod 3 (a pentagonal pass), each entry a sum of about sqrt(2n) terms,
# and keeps them cached.  The estimate counts those passes, at least one so
# that k = 0 is bounded too.  The costliest admitted requests stay near one
# second and 50 MB: k = 1 and 3 at n = 29240, k = 2 and 4 at n = 18495, and
# k = 1000 at n = 623.
COLORED_K_BOUND = 1000
COLORED_WORK_BOUND = 5_000_000
MODIFIED_RANK_ELLS = (5, 7)
MODIFIED_CRANK_ELLS = (5, 7, 11)


class BoundExceeded(CrankspaceError):
    """Raised when a requested size is beyond the configured safety bound."""


class InvalidEll(CrankspaceError):
    """Raised for progression moduli outside the supported primes."""


# -- closed-form counts --------------------------------------------------------


def _closed_form_half(n: int, s: int) -> list[int]:
    """[c(0, n), ..., c(n, n)], the z^0, z^-1, ... half of sum_m c(m, n) z^m, for n >= 1.

    c(m, n) sums over k >= 1 with offsets k(sk-1)/2 and k(sk+1)/2: s = 3
    gives the rank count N(m, n), s = 1 the crank count M(m, n) for n >= 2.
    The two p(.) arguments of one k differ by exactly k, so with
    i = n - k(sk-1)/2 the run p(i), p(i-k), ... is the strided slice
    p[i::-k], and k's terms for m = 0, 1, ... are that run minus itself
    shifted by one, a 0 past its end: one C-level pass per k.
    """
    p = qseries.colored_coeffs(1, n)
    half = [0] * (n + 1)
    k = 1
    while (i := n - k * (s * k - 1) // 2) >= 0:
        run = p[i::-k]
        half[: len(run)] = map((operator.sub, operator.add)[k & 1], half,
                               map(operator.sub, run, run[1:] + (0,)))
        k += 1
    return half


def _check_size(n: int) -> None:
    if n < 0:
        raise CrankspaceError("n must be >= 0")
    if n > POLY_BOUND:
        raise BoundExceeded(f"n={n} exceeds the polynomial size bound {POLY_BOUND}")


def rank_poly(n: int) -> LaurentPoly:
    """sum_m N(m, n) z^m, from the rank formula over p(.)."""
    _check_size(n)
    return LaurentPoly.one() if n <= 1 else LaurentPoly.from_half(_closed_form_half(n, 3))


def crank_poly(n: int) -> LaurentPoly:
    """sum_m M(m, n) z^m with the corrected n = 1 column, from the crank formula over p(.)."""
    _check_size(n)
    return LaurentPoly.one() if n <= 1 else LaurentPoly.from_half(_closed_form_half(n, 1))


# -- colored counts and progressions --------------------------------------------


def _check_colored(k: int, n: int) -> None:
    if n < 0:
        raise CrankspaceError("n must be >= 0")
    passes = max(1, k // 3 + k % 3)
    if k > COLORED_K_BOUND or passes * n * math.isqrt(n) > COLORED_WORK_BOUND:
        raise BoundExceeded(
            f"p_{k}({n}) exceeds the colored-count bound: k <= {COLORED_K_BOUND} "
            f"and max(1, k // 3 + k % 3) * n * isqrt(n) <= {COLORED_WORK_BOUND}"
        )


def colored_count(k: int, n: int) -> int:
    """p_k(n): partitions of n into parts of k colors (series-based).

    Raises BoundExceeded past COLORED_K_BOUND or COLORED_WORK_BOUND.
    """
    _check_colored(k, n)
    return qseries.colored_coeffs(k, n)[n]


def beta(ell: int) -> int:
    """The progression offset ell - (ell^2 - 1)/24 for a prime ell >= 5.

    >>> [beta(ell) for ell in (5, 7, 11)]
    [4, 5, 6]
    """
    if ell < 5 or not _is_odd_prime(ell):
        raise InvalidEll(f"ell must be a prime >= 5, got {ell}")
    return ell - (ell * ell - 1) // 24


def delta(k: int, ell: int) -> int:
    """Least non-negative residue with 24 * delta == k (mod ell)."""
    if math.gcd(24, ell) != 1:
        raise InvalidEll(f"24 must be invertible mod ell, got ell={ell}")
    return (k * pow(24, -1, ell)) % ell


def _modified_size(statistic: str, ell: int, n: int) -> int:
    """ell*n + beta(ell); refuses an unsupported ell, a negative n and a size past POLY_BOUND."""
    ells = MODIFIED_RANK_ELLS if statistic == "rank" else MODIFIED_CRANK_ELLS
    if ell not in ells:
        raise InvalidEll(f"modified {statistic} polynomials are defined for ell in "
                         f"{{{', '.join(map(str, ells))}}}, got {ell}")
    if n < 0:
        raise CrankspaceError("n must be >= 0")
    _check_size(N := ell * n + beta(ell))
    return N


def _modified_half(statistic: str, ell: int, n: int) -> list[int]:
    """The z^0, z^-1, ... half of the modified rank or crank polynomial at N = ell*n + beta(ell).

    The one place the edits are made: the closed-form half with one count moved
    in from z^-top to z^-(top - step), for the rank top = N-1 and step = 1, for
    the crank top = N and step = ell (at n = 0, N < ell and z^(N-ell) lands in
    slot ell - N, as its mirror does).  The polynomial is then (conjecturally)
    unimodal and divisible by Phi_ell.
    """
    N = _modified_size(statistic, ell, n)
    top, step = (N - 1, 1) if statistic == "rank" else (N, ell)
    half = _closed_form_half(N, 3 if statistic == "rank" else 1)
    half[abs(top - step)] += 1
    half[top] -= 1
    return half


def modified_rank_poly(ell: int, n: int) -> LaurentPoly:
    """Rank polynomial at N = ell*n + beta(ell), plus z^(N-2) - z^(N-1) and its mirror."""
    return LaurentPoly.from_half(_modified_half("rank", ell, n))


def modified_crank_poly(ell: int, n: int) -> LaurentPoly:
    """Crank polynomial at N = ell*n + beta(ell), plus z^(N-ell) - z^N and its mirror."""
    return LaurentPoly.from_half(_modified_half("crank", ell, n))
