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
ascending recurrence coeffs[m] += z^a * coeffs[m-j], plus, for odd k, the
factor prod (1-q^n) via the pentagonal-number expansion.  The factors of the
a = 0 copies cancel against the numerators, so the geometric stage is a
product of pure (1 - z^a q^j)^(-1) factors whose coefficients are all
non-negative.  It is built once per request; the pentagonal sum is then done
only for the slices asked for, one at a time, through the single accessor
`iter_ck_slices(spec, sizes)`.

That non-negativity enables the kernel trick used here: the z-coefficient
vector of each q-coefficient is packed into a single big integer with a fixed
slot width, so the inner recurrence is one bigint shift-add per (factor,
coefficient) pair and runs at C speed.  The negative families are multiplied
in first and the positive ones in ascending order, which keeps the integers
short while they grow.  Slot widths are exact: at z = 1 the geometric stage
is prod (1-q^n)^(-F), so every packed integer's slots sum to a total read off
`colored_coeffs`, and a slot as wide as the largest total cannot overflow.
Every decoded slice is checked against its total at run time (a carry
between slots changes the sum), and a mismatch raises SlotOverflow.  Slots
of 64 bits or fewer are widened to 64 and decoded at C speed.  Tests
cross-check the kernel against a naive LaurentPoly-arithmetic builder and
against enumeration.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, NamedTuple, Sequence

from .laurent import LaurentPoly


class InvalidK(ValueError):
    """Raised for colored-crank parameters outside the supported family."""


class CrankSpec(NamedTuple("CrankSpec", [("k", int), ("a", tuple[int, ...])])):
    """Parameters (k; a_1 > a_2 > ... > a_r) of one colored-crank product.

    k >= 3 counts colors; r = (k + (k mod 2)) / 2 positive strictly
    decreasing weights pick which factors carry z.
    """

    __slots__ = ()

    def __new__(cls, k: int, a: Iterable[int]):
        a = tuple(int(x) for x in a)
        if k < 3:
            raise InvalidK(f"k must be >= 3, got {k}")
        r = (k + k % 2) // 2
        if len(a) != r:
            raise InvalidK(f"k={k} needs exactly {r} weights, got {len(a)}")
        if any(x < 1 for x in a):
            raise InvalidK(f"weights must be positive, got {a}")
        if any(a[i] <= a[i + 1] for i in range(len(a) - 1)):
            raise InvalidK(f"weights must be strictly decreasing, got {a}")
        return super().__new__(cls, k, a)

    @property
    def delta(self) -> int:
        return self.k % 2


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


class SlotOverflow(ArithmeticError):
    """A packed slot held a value wider than its slot: the width was too small.

    An internal fault, never a usage error, so it is not a ValueError.
    """


def _slot_width(largest: int) -> int:
    """Slot bits (a multiple of 8, at least 64) that hold every value <= largest."""
    return max(64, (largest.bit_length() + 7) // 8 * 8)


def _geometric_packed(families: tuple[int, ...], amp: int, order: int, bits: int) -> list[int]:
    """Packed product of (1 - z^a q^n)^(-1) for a in families, n in 1..order.

    Entry m encodes the q^m coefficient: slot i (width `bits`) holds the
    coefficient of z^(i - amp*m).  Requires |a| <= amp for every family so
    slot indices stay in range; amp = 0 is the scalar case.  The product does
    not depend on the family order, but the cost does: an integer is only as
    long as its top non-zero slot, so passing the negative families first
    and the positive ones in ascending order keeps the integers short.
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


def _pentagonal_split(series: Sequence[int], m: int, terms: list[tuple[int, int]],
                      shift: int) -> tuple[int, int]:
    """The q^m coefficient of series * prod (1-q^n), as (positive, negative) parts.

    Entry m - g of the series enters shifted left by shift * g bits, which
    re-centres a packed entry (shift = slot bits * amplitude); shift 0 sums
    plain integers.
    """
    pos, neg = series[m], 0
    for g, sgn in terms:
        if g > m:
            break
        term = series[m - g] << (shift * g)
        if sgn > 0:
            pos += term
        else:
            neg += term
    return pos, neg


def _unpack_slots(x: int, nslots: int, bits: int, total: int) -> list[int]:
    """The nslots slots of x, certified to sum to the exact total.

    x is sum_i v_i * 2^(bits*i) for non-negative slot values v_i.  A value
    that does not fit its slot carries into the next one, which lowers the
    sum of the decoded slots by 2^bits - 1; so the decoded sum equals the
    total exactly when nothing overflowed.  Otherwise, or when x does not fit
    nslots slots at all, SlotOverflow is raised.  64-bit slots decode at C
    speed through a machine-word view (little-endian hosts); wider ones slot
    by slot.
    """
    nbytes = bits // 8
    try:
        raw = x.to_bytes(nslots * nbytes, "little")
    except OverflowError:
        raise SlotOverflow(f"a packed value overflows {nslots} slots of {bits} bits") from None
    if bits == 64 and sys.byteorder == "little":
        slots = memoryview(raw).cast("Q").tolist()
    else:
        slots = [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little")
                 for i in range(nslots)]
    if sum(slots) != total:
        raise SlotOverflow(f"{bits}-bit slots sum to {sum(slots)}, not to {total}")
    return slots


def _ck_slices(a: tuple[int, ...], delta: int, sizes: Iterable[int]) -> Iterator[tuple[int, LaurentPoly]]:
    """Yield (m, q^m coefficient) of the colored-crank product for each m in sizes.

    The product has weights a and delta copies of prod (1-q^n).  The packed
    geometric product is built once, up to max(sizes), with the families in
    the order -a_1..-a_r, +a_r..+a_1 (see `_geometric_packed`).  Each slice
    then sums its own pentagonal terms (delta = 1 only) into separate
    non-negative pos/neg packed integers, so slots never borrow.

    Slot widths are exact: at z = 1 the geometric product is
    prod (1-q^n)^(-F), F = 2r, so the slots of a slice's pos part sum to
    p_F(m) plus its positive p_F(m - g) terms and those of its neg part to
    its negative ones.  No slot exceeds its integer's total, so slots as wide
    as the largest requested total cannot overflow; `_unpack_slots` checks
    each decoded part against its total at run time all the same.  Weights
    (1,) with delta 1 give the raw crank factor, whose q^n coefficient for
    n >= 2 is the crank polynomial that `partitions.crank_poly` computes from
    the Andrews-Garvan formula instead.
    """
    sizes = list(sizes)
    if min(sizes, default=0) < 0:
        raise ValueError(f"slice sizes must be >= 0, got {min(sizes)}")
    order = max(sizes, default=0)
    amp = a[0]
    terms = _pentagonal_terms(order) if delta else []
    colored = colored_coeffs(2 * len(a), order)
    totals = [_pentagonal_split(colored, m, terms, 0) for m in sizes]
    bits = _slot_width(max((t for pair in totals for t in pair), default=0))
    families = tuple(-aj for aj in a) + a[::-1]
    packed = _geometric_packed(families, amp, order, bits)
    for m, (pos_total, neg_total) in zip(sizes, totals):
        pos, neg = _pentagonal_split(packed, m, terms, bits * amp)
        nslots = 2 * amp * m + 1
        coeffs = _unpack_slots(pos, nslots, bits, pos_total)
        if neg_total:
            coeffs = [x - y for x, y in zip(coeffs, _unpack_slots(neg, nslots, bits, neg_total))]
        yield m, LaurentPoly(-amp * m, coeffs)


# -- public slice access ------------------------------------------------------


def iter_ck_slices(spec: CrankSpec, sizes: Iterable[int]) -> Iterator[tuple[int, LaurentPoly]]:
    """Yield (n, q^n coefficient of the weight tuple's product) for n in sizes.

    The one slice accessor, for every access pattern: a progression claim
    asks for every ell-th size, a unimodality scan for every size.  The
    packed geometric product stays resident (O(k * a_1 * max(sizes))
    integers of machine size); the pentagonal sum and the unpacking are done
    per requested slice, so skipped sizes cost nothing and the dense
    polynomials never all coexist.  Negative sizes raise ValueError.
    """
    yield from _ck_slices(spec.a, spec.delta, sizes)


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
