"""Shared test oracles.

Naive reference builders recompute the same series the engine produces, but
with nothing shared: plain LaurentPoly arithmetic, factor-by-factor
geometric recurrences, and the alternating pentagonal-number expansion.
They are deliberately slow and obvious; tests compare the fast engine
against them at small orders.  packed_rank_series is the packed-bigint rank
series, the audit route for the closed-form rank polynomials up to order 300.
divides_by_division is the exact-division form of the divisibility test, the
audit route for the residue-sum criteria.

TABLE1_ROWS freezes the reference threshold table behind the CLI's `search
table1` preset (39 rows, k = 3..6, scan bound 75) in its exact row order:
(k, weights, threshold-or-None).
"""

from __future__ import annotations

from crankspace.cyclotomic import NotDivisible, exact_quotient
from crankspace.laurent import LaurentPoly
from crankspace.qseries import _PackedSeries, _slot_bits


def divides_by_division(f: LaurentPoly, g: LaurentPoly) -> bool:
    """Whether g divides f, decided by exact long division."""
    try:
        exact_quotient(f, g)
    except NotDivisible:
        return False
    return True


def pentagonal_signs(limit: int) -> list[tuple[int, int]]:
    """(g, sign) for generalized pentagonal numbers g <= limit, g >= 1."""
    out = []
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > limit and g2 > limit:
            return out
        sign = -1 if j % 2 else 1
        if g1 <= limit:
            out.append((g1, sign))
        if g2 <= limit:
            out.append((g2, sign))
        j += 1


def multiply_inverse_factor(coeffs: list[LaurentPoly], a: int, n: int) -> list[LaurentPoly]:
    """Multiply a q-series (list of z-polynomials) by 1 / (1 - z^a q^n)."""
    mono = LaurentPoly.monomial(a)
    out = list(coeffs)
    for m in range(n, len(out)):
        out[m] = out[m] + out[m - n] * mono
    return out


def multiply_euler_numerator(coeffs: list[LaurentPoly]) -> list[LaurentPoly]:
    """Multiply a q-series by prod_{n >= 1} (1 - q^n), truncated."""
    order = len(coeffs) - 1
    out = list(coeffs)
    for m in range(order + 1):
        acc = coeffs[m]
        for g, sign in pentagonal_signs(m):
            term = coeffs[m - g]
            acc = acc + term if sign > 0 else acc - term
        out[m] = acc
    return out


def naive_geometric_product(families: list[int], order: int) -> list[LaurentPoly]:
    """Coefficients of prod_{a in families} prod_{n >= 1} 1/(1 - z^a q^n)."""
    coeffs = [LaurentPoly.one()] + [LaurentPoly.zero()] * order
    for a in families:
        for n in range(1, order + 1):
            coeffs = multiply_inverse_factor(coeffs, a, n)
    return coeffs


def naive_colored_crank(a: tuple[int, ...], delta: int, order: int) -> list[LaurentPoly]:
    """The colored-crank product: Euler^delta over the paired weight factors."""
    families = [s * w for w in a for s in (1, -1)]
    coeffs = naive_geometric_product(families, order)
    for _ in range(delta):
        coeffs = multiply_euler_numerator(coeffs)
    return coeffs


def naive_crank_series(order: int) -> list[LaurentPoly]:
    """Raw crank coefficients (no size-1 correction)."""
    return naive_colored_crank((1,), 1, order)


def naive_rank_series(order: int) -> list[LaurentPoly]:
    """Rank coefficients: sum_j q^(j^2) / prod_{i <= j} (1 - z q^i)(1 - q^i / z)."""
    total = [LaurentPoly.one()] + [LaurentPoly.zero()] * order
    j = 1
    while j * j <= order:
        coeffs = [LaurentPoly.one()] + [LaurentPoly.zero()] * (order - j * j)
        for i in range(1, j + 1):
            coeffs = multiply_inverse_factor(coeffs, 1, i)
            coeffs = multiply_inverse_factor(coeffs, -1, i)
        for m, poly in enumerate(coeffs):
            total[m + j * j] = total[m + j * j] + poly
        j += 1
    return total


def packed_rank_series(order: int) -> list[LaurentPoly]:
    """The rank distribution series to `order`, on the packed kernel.

    sum over n >= 0 of q^(n^2) / prod_{j=1..n} (1-z q^j)(1-z^-1 q^j); the
    q^n coefficient is the rank polynomial of n, all coefficients
    non-negative.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    bits = _slot_bits(2, order)
    den = [0] * (order + 1)
    den[0] = 1
    acc = [0] * (order + 1)
    acc[0] = 1
    n = 1
    while n * n <= order:
        for a in (1, -1):
            sh = bits * (a + n)
            for m in range(n, order + 1):
                den[m] += den[m - n] << sh
        nn = n * n
        sh = bits * nn
        for m in range(nn, order + 1):
            acc[m] += den[m - nn] << sh
        n += 1
    packed = _PackedSeries(1, bits, tuple(acc), None)
    return [packed.coeff(m) for m in range(order + 1)]


# (k, weights, threshold or None) in the published row order, scan bound 75.
TABLE1_ROWS: list[tuple[int, tuple[int, ...], int | None]] = [
    (3, (2, 1), 7), (3, (3, 1), None), (3, (3, 2), 6),
    (4, (2, 1), 1), (4, (3, 1), None), (4, (4, 1), None),
    (4, (3, 2), 1), (4, (4, 2), None), (4, (4, 3), 23),
    (5, (3, 2, 1), 9), (5, (4, 2, 1), None), (5, (5, 2, 1), None),
    (5, (4, 3, 1), 11), (5, (5, 3, 1), None), (5, (5, 4, 1), 9),
    (5, (4, 3, 2), 10), (5, (5, 3, 2), None), (5, (5, 4, 2), 13),
    (5, (5, 4, 3), 13),
    (6, (3, 2, 1), 1), (6, (4, 2, 1), None), (6, (5, 2, 1), None),
    (6, (6, 2, 1), None), (6, (4, 3, 1), 5), (6, (5, 3, 1), None),
    (6, (6, 3, 1), None), (6, (5, 4, 1), 11), (6, (6, 4, 1), None),
    (6, (6, 5, 1), 21), (6, (4, 3, 2), 14), (6, (5, 3, 2), None),
    (6, (6, 3, 2), None), (6, (5, 4, 2), 19), (6, (6, 4, 2), None),
    (6, (6, 5, 2), 20), (6, (5, 4, 3), 7), (6, (6, 4, 3), None),
    (6, (6, 5, 3), 32), (6, (6, 5, 4), 19),
]

TABLE1_SCAN_BOUND = 75
