"""The colored-crank kernel: exact truncated q-series with Laurent coefficients.

Everything here is a power series in q truncated at a caller-chosen order.
The scalar series are the k-colored partition numbers, the coefficients of
prod_{n>=1} (1-q^n)^(-k) (`colored_coeffs`; k = 1 gives p(n)).  The
polynomial series are the colored-crank products C_k(a_1..a_r): (k-d)/2
copies of the a = 0 crank factor prod_{n>=1} (1-q^n) / ((1-z^a q^n)(1-z^-a q^n))
times the factors for a_1..a_r, where d = k mod 2 and r = (k+d)/2; each
q-coefficient is a LaurentPoly in z.  Single-size rank and crank polynomials
are not built here: `partitions` sums the Atkin-Swinnerton-Dyer rank formula
and the Andrews-Garvan crank formula over p(n).

All construction reduces to multiplying a series by (1 - z^a q^j)^(-1), the
ascending recurrence coeffs[m] += z^a * coeffs[m-j], plus one sparse pass for
prod (1-q^n) via the pentagonal-number expansion.  The factors of the a = 0
copies cancel against the numerators, so the geometric stage is a product of
pure (1 - z^a q^j)^(-1) factors whose coefficients are all non-negative.

That non-negativity enables the kernel trick used here: the z-coefficient
vector of each q-coefficient is packed into a single big integer with a fixed
slot width, so the inner recurrence is one bigint shift-add per (factor,
coefficient) pair and runs at C speed.  Slot widths are sized from the exact
coefficient bound prod (1-q^n)^(-F) evaluated at z = 1, so no slot can ever
overflow into its neighbor; tests cross-check the kernel against a naive
LaurentPoly-arithmetic builder and against enumeration.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator

from .laurent import LaurentPoly


class InvalidK(ValueError):
    """Raised for colored-crank parameters outside the supported family."""


@dataclasses.dataclass(frozen=True)
class CrankSpec:
    """Parameters (k; a_1 > a_2 > ... > a_r) of one colored-crank product.

    k >= 3 counts colors; r = (k + (k mod 2)) / 2 positive strictly
    decreasing weights pick which factors carry z.
    """

    k: int
    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        if self.k < 3:
            raise InvalidK(f"k must be >= 3, got {self.k}")
        r = (self.k + self.k % 2) // 2
        if len(self.a) != r:
            raise InvalidK(f"k={self.k} needs exactly {r} weights, got {len(self.a)}")
        if any(x < 1 for x in self.a):
            raise InvalidK(f"weights must be positive, got {self.a}")
        if any(self.a[i] <= self.a[i + 1] for i in range(len(self.a) - 1)):
            raise InvalidK(f"weights must be strictly decreasing, got {self.a}")

    @property
    def delta(self) -> int:
        return self.k % 2

    def label(self) -> str:
        return f"C{self.k}({','.join(str(x) for x in self.a)})"


# -- scalar helpers -----------------------------------------------------------

_COLORED_CACHE: dict[int, list[int]] = {}


def _pentagonal_terms(limit: int) -> list[tuple[int, int]]:
    """Generalized pentagonal numbers g = j(3j-1)/2 <= limit with sign (-1)^j."""
    terms = []
    j = 1
    while True:
        emitted = False
        for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if g <= limit:
                terms.append((g, -1 if j % 2 else 1))
                emitted = True
        if not emitted:
            return terms
        j += 1


def colored_coeffs(k: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of prod_{n>=1} (1-q^n)^(-k), exactly.

    k = 0 gives the constant series 1; k = 1 the partition numbers.  Uses the
    pentagonal recurrence p_k(n) = p_{k-1}(n) - sum_g sign(g) p_k(n-g), one
    sparse pass per color, with a module-level cache that extends in place.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if order < 0:
        raise ValueError("order must be >= 0")
    for kk in range(0, k + 1):
        cur = _COLORED_CACHE.setdefault(kk, [1])
        if len(cur) > order:
            continue
        if kk == 0:
            cur.extend([0] * (order + 1 - len(cur)))
            continue
        prev = _COLORED_CACHE[kk - 1]
        terms = _pentagonal_terms(order)
        for n in range(len(cur), order + 1):
            v = prev[n]
            for g, sgn in terms:
                if g > n:
                    break
                v -= sgn * cur[n - g]
            cur.append(v)
    return tuple(_COLORED_CACHE[k][: order + 1])


# -- packed kernel ------------------------------------------------------------


def _slot_bits(families_count: int, order: int) -> int:
    """Slot width (bits, multiple of 8) that no intermediate value can reach.

    Every intermediate coefficient of the all-nonnegative geometric product is
    bounded by the corresponding coefficient of prod (1-q^n)^(-F) at z = 1
    (a partial product times a series with constant term 1 and non-negative
    coefficients only grows).  14 extra bits absorb the sparse summations
    (pentagonal passes and outer q-power accumulations sum well under 2^12
    such terms at any realistic order).
    """
    bound = colored_coeffs(families_count, order)[order]
    bits = bound.bit_length() + 14
    return ((bits + 7) // 8) * 8


def _geometric_packed(families: tuple[int, ...], amp: int, order: int, bits: int) -> list[int]:
    """Packed product of (1 - z^a q^n)^(-1) for a in families, n in 1..order.

    Entry m encodes the q^m coefficient: slot i (width `bits`) holds the
    coefficient of z^(i - amp*m).  Requires |a| <= amp for every family so
    slot indices stay in range; amp = 0 is the scalar case.
    """
    ints = [0] * (order + 1)
    ints[0] = 1
    for a in families:
        if abs(a) > amp:
            raise ValueError("family exponent exceeds the slot amplitude")
        for n in range(1, order + 1):
            sh = bits * (a + amp * n)
            for m in range(n, order + 1):
                ints[m] += ints[m - n] << sh
    return ints


def _pentagonal_passes(packed: list[int], amp: int, order: int, bits: int) -> tuple[list[int], list[int]]:
    """Multiply a packed series by prod (1-q^n), keeping signs separated.

    Returns (pos, neg) with the true coefficient vector pos[m] - neg[m];
    both stay non-negative packed integers so slots never borrow.
    """
    pos = list(packed)
    neg = [0] * (order + 1)
    for g, sgn in _pentagonal_terms(order):
        sh = bits * (amp * g)
        dst = pos if sgn > 0 else neg
        for m in range(g, order + 1):
            dst[m] += packed[m - g] << sh
    return pos, neg


def _unpack_slots(x: int, nslots: int, bits: int) -> list[int]:
    if x == 0:
        return [0] * nslots
    nbytes = bits // 8
    raw = x.to_bytes(nslots * nbytes, "little")
    return [
        int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") for i in range(nslots)
    ]


def _unpack_coeff(pos: int, neg: int, m: int, amp: int, bits: int) -> LaurentPoly:
    nslots = 2 * amp * m + 1
    p = _unpack_slots(pos, nslots, bits)
    if neg:
        q = _unpack_slots(neg, nslots, bits)
        p = [a - b for a, b in zip(p, q)]
    return LaurentPoly(-amp * m, p)


@dataclasses.dataclass(frozen=True)
class _PackedSeries:
    amp: int
    bits: int
    pos: tuple[int, ...]
    neg: tuple[int, ...] | None

    def coeff(self, m: int) -> LaurentPoly:
        return _unpack_coeff(self.pos[m], self.neg[m] if self.neg else 0, m, self.amp, self.bits)


def _ck_packed(a: tuple[int, ...], delta: int, order: int) -> _PackedSeries:
    """Packed colored-crank product for weights a and delta copies of prod (1-q^n).

    Weights (1,) with delta 1 give the raw crank factor, whose q^n coefficient
    for n >= 2 is the crank polynomial that `partitions.crank_poly` computes
    from the Andrews-Garvan formula instead.
    """
    amp = a[0]
    bits = _slot_bits(2 * len(a), order)
    families = tuple(s * aj for aj in a for s in (1, -1))
    packed = _geometric_packed(families, amp, order, bits)
    if delta:
        pos, neg = _pentagonal_passes(packed, amp, order, bits)
        return _PackedSeries(amp, bits, tuple(pos), tuple(neg))
    return _PackedSeries(amp, bits, tuple(packed), None)


# -- public slice access ------------------------------------------------------


def iter_ck_slices(spec: CrankSpec, n_hi: int) -> Iterator[tuple[int, LaurentPoly]]:
    """Yield (n, q^n coefficient of the weight tuple's product) for 0 <= n < n_hi.

    The packed store stays resident (O(k * a_1 * n_hi) integers of machine
    size); slices are unpacked one at a time so the dense polynomials never
    all coexist.
    """
    if n_hi < 1:
        raise ValueError("n_hi must be >= 1")
    packed = _ck_packed(spec.a, spec.delta, n_hi - 1)
    for m in range(n_hi):
        yield m, packed.coeff(m)


def ck_slices_at(spec: CrankSpec, order: int, indices: Iterable[int]) -> dict[int, LaurentPoly]:
    """Unpack only the requested q^n coefficients of the weight tuple's product.

    Useful for progression claims, where only every ell-th slice matters;
    the skipped coefficients are never materialized as polynomials.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    packed = _ck_packed(spec.a, spec.delta, order)
    out = {}
    for m in indices:
        if not 0 <= m <= order:
            raise IndexError(f"slice index {m} outside [0, {order}]")
        out[m] = packed.coeff(m)
    return out


def ak_spec(k: int) -> CrankSpec:
    """The first distinguished family: weights (m+1, m, ..., 3, 2), m = (k+d)/2."""
    if k < 3:
        raise InvalidK(f"k must be >= 3, got {k}")
    m = (k + k % 2) // 2
    return CrankSpec(k, tuple(range(m + 1, 1, -1)))


def bk_spec(k: int) -> CrankSpec:
    """The second distinguished family: (m+2, m+1, ..., 6, 5, 3, 2), skipping 4.

    Defined for odd k >= 7.
    """
    if k % 2 == 0 or k < 7:
        raise InvalidK(f"k must be odd and >= 7, got {k}")
    m = (k + 1) // 2
    return CrankSpec(k, tuple(range(m + 2, 4, -1)) + (3, 2))
