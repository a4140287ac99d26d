"""Shared test oracles.

add, sub and mul are the tests' reference ring on LaurentPoly values: the
package builds every polynomial from a coefficient list and has no ring
arithmetic.  Naive reference builders recompute the same series the engine
produces, but with nothing shared: that reference ring, factor-by-factor
geometric recurrences, and the alternating pentagonal-number expansion.
They are deliberately slow and obvious; tests compare the fast engine
against them at small orders.  The partition-enumeration oracle
(enumerate_partitions, rank_of, crank_of and the *_poly_enumerated builders)
is the direct route for rank and crank counts, exponential and bounded by
ENUMERATION_BOUND.  packed_rank_series is the packed-bigint rank
series, the audit route for the closed-form rank polynomials up to order 300.
full_spectrum_slices builds the colored-crank slices on a packed kernel that
computes both halves of every slice, the audit route for the half-spectrum
kernel and for the z -> 1/z symmetry it relies on.  shift_add_half packs the
kernel's geometric stage factor by factor, N^2 shift-adds per weight, the
audit route for the theta-series division that `qseries.iter_ck_slices` runs.
count_windowed_pushes counts the terms each windowed theta pass pushes, next
to those that can reach its window, for the screen's work ledgers.
phi builds the three cyclotomic divisors as polynomials, and
schoolbook_quotient divides by any nonzero polynomial by long division: the
audit route for `cyclotomic.exact_quotient`, which divides by Phi_ell's
binomial multiple instead.  divides_by_division is the schoolbook form of the
divisibility test, the audit route for the residue-sum criteria, and
hat_sums_reference the per-coefficient loop that `cyclotomic.hat_sums` sums
as strided slices.  edit_span adds terms to a polynomial laid out over
[-N, N], the reference for the modified builders' edits to a half.
closed_form_half_reference sums the rank and crank formulas one coefficient
at a time, the reference for `partitions._closed_form_half`'s strided
slices, and rank_increases_walk reads conj1.3's counterexamples off every
coefficient pair, the reference for the suite's one comparison per size.
colored_coeffs_reference builds p_k one color at a time by the pentagonal
recurrence, the audit route for `qseries.colored_coeffs`.  spec_slices is
the one-parity call of the kernel, one spec's (n, slice) pairs, and
tuple_slices its call for one weight tuple and several parities; both mirror
the kernel's halves with `LaurentPoly.from_half`, as `cor3.5` does; scan_threshold
is one weight tuple's SearchResult, read off the slice scan the search uses.
poly_from_json reads a polynomial's JSON form back; the package writes JSON
but reads none.

TABLE1_ROWS freezes the reference threshold table behind the CLI's `search
table1` preset (39 rows, k = 3..6, scan bound 75) in its exact row order:
(k, weights, threshold-or-None).
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, Sequence

from crankspace import partitions, qseries
from crankspace.cyclotomic import NotDivisible, _check_modulus
from crankspace.laurent import LaurentPoly
from crankspace.partitions import BoundExceeded
from crankspace.qseries import CrankSpec, SlotOverflow, _slot_width, colored_coeffs, iter_ck_slices
from crankspace.search import DEFAULT_SCAN_BOUND, SearchResult, slice_defects

ENUMERATION_BOUND = 60

Partition = tuple[int, ...]


class EmptyPartition(ValueError):
    """Raised when a statistic undefined on the empty partition is requested."""


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
    """All partitions of n in reverse lexicographic order, (n) first."""
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


def add(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f + g."""
    lo = min(f.lo, g.lo)
    cs = [0] * (max(f.hi, g.hi) - lo + 1)
    for p in (f, g):
        for i, c in enumerate(p.coeffs, p.lo - lo):
            cs[i] += c
    return LaurentPoly(lo, cs)


def sub(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f - g."""
    return add(f, LaurentPoly(g.lo, [-c for c in g.coeffs]))


def mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f * g, by the schoolbook product."""
    cs = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            cs[i + j] += a * b
    return LaurentPoly(f.lo + g.lo, cs)


def poly_from_json(data: dict) -> LaurentPoly:
    """The polynomial a LaurentPoly.to_json_dict form describes."""
    return LaurentPoly(data["lo"], [int(c) for c in data["coeffs"]])


def spec_slices(spec: CrankSpec, sizes: Iterable[int]) -> Iterator[tuple[int, LaurentPoly]]:
    """(n, q^n coefficient of spec's product) for n in sizes: the kernel's halves, mirrored."""
    [(_, [scan])] = iter_ck_slices([(spec.a, (spec.delta,))], sizes)
    for n, half in scan:
        yield n, LaurentPoly.from_half(half)


def tuple_slices(a: tuple[int, ...], deltas: Sequence[int],
                 sizes: Iterable[int]) -> list[tuple[int, tuple[LaurentPoly, ...]]]:
    """Per size, weights a's slice for each delta, from one kernel call."""
    [(_, scans)] = iter_ck_slices([(a, deltas)], sizes)
    return [(row[0][0], tuple(LaurentPoly.from_half(half) for _, half in row))
            for row in zip(*map(list, scans))]


def scan_threshold(spec: CrankSpec, n_hi: int = DEFAULT_SCAN_BOUND) -> SearchResult:
    """Scan slices 1 <= n < n_hi of one weight tuple and locate the last non-unimodal one."""
    [bad] = slice_defects([spec], n_hi, threads=1)
    return SearchResult(spec, n_hi, bad[-1] if bad else None)


def phi(ell: int, variant: str = "standard") -> LaurentPoly:
    """Phi_ell(z), Phi_ell(z^2) or Phi_ell(-z) as a LaurentPoly."""
    _check_modulus(ell, variant)
    if variant == "standard":
        return LaurentPoly(0, (1,) * ell)
    if variant == "squared":
        return LaurentPoly(0, (1, 0) * (ell - 1) + (1,))
    return LaurentPoly(0, tuple((-1) ** i for i in range(ell)))


def schoolbook_quotient(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The Laurent polynomial q with q*g == f, if one exists over Z.

    Schoolbook long division from the top exponent; raises NotDivisible when
    the remainder is nonzero or a leading-coefficient division fails.  Works
    for any nonzero g, with the same NotDivisible texts as exact_quotient.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
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


def divides_by_division(f: LaurentPoly, g: LaurentPoly) -> bool:
    """Whether g divides f, decided by schoolbook long division."""
    try:
        schoolbook_quotient(f, g)
    except NotDivisible:
        return False
    return True


def hat_sums_reference(f: LaurentPoly, m: int) -> list[int]:
    """The coefficient sums of f over its exponent classes mod m, one coefficient at a time."""
    sums = [0] * m
    for i, c in enumerate(f.coeffs):
        sums[(f.lo + i) % m] += c
    return sums


def edit_span(f: LaurentPoly, N: int, edits: Iterable[tuple[int, int]]) -> LaurentPoly:
    """f plus c*z^e for each (e, c) in edits; f's span and every e lie in [-N, N]."""
    cs = [0] * (f.lo + N) + list(f.coeffs) + [0] * (N - f.hi)
    for e, c in edits:
        cs[e + N] += c
    return LaurentPoly(-N, cs)


def closed_form_half_reference(n: int, s: int) -> list[int]:
    """partitions._closed_form_half(n, s), one coefficient and one term at a time."""
    p = colored_coeffs(1, n)
    half = []
    for m in range(n + 1):
        total, sign, k = 0, 1, 1
        while (i := n - k * (s * k - 1) // 2 - k * m) >= 0:
            total += sign * (p[i] - p[i - k] if i >= k else p[i])
            sign, k = -sign, k + 1
        half.append(total)
    return half


def rank_increases_walk(n_lo: int, n_max: int, onset: int) -> list[dict]:
    """conj1.3's counterexample params, pair by pair: those at n >= onset first, then the rest.

    Reads every size through partitions.rank_poly, so a patch on it applies here too.
    """
    within, below = [], []
    for n in range(n_lo, n_max + 1):
        f = partitions.rank_poly(n)
        for m in range(n - 2):
            a, b = f.coefficient(m), f.coefficient(m + 1)
            if a < b:
                (within if n >= onset else below).append(
                    {"kind": "rank-increase", "within_claim": n >= onset, "n": n, "m": m,
                     "lhs": a, "rhs": b})
    return within + below


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


def colored_coeffs_reference(k_max: int, order: int) -> list[list[int]]:
    """Coefficients 0..order of prod (1-q^n)^(-k) for k = 0..k_max, one color per pass.

    Each pass divides the previous row by (q)_inf through the pentagonal
    recurrence.
    """
    terms = pentagonal_signs(order)
    rows = [[1] + [0] * order]
    for _ in range(k_max):
        prev, cur = rows[-1], []
        for n in range(order + 1):
            cur.append(prev[n] - sum(sign * cur[n - g] for g, sign in terms if g <= n))
        rows.append(cur)
    return rows


def multiply_inverse_factor(coeffs: list[LaurentPoly], a: int, n: int) -> list[LaurentPoly]:
    """Multiply a q-series (list of z-polynomials) by 1 / (1 - z^a q^n)."""
    out = list(coeffs)
    for m in range(n, len(out)):
        out[m] = add(out[m], out[m - n].shift(a))
    return out


def multiply_euler_numerator(coeffs: list[LaurentPoly]) -> list[LaurentPoly]:
    """Multiply a q-series by prod_{n >= 1} (1 - q^n), truncated."""
    order = len(coeffs) - 1
    out = list(coeffs)
    for m in range(order + 1):
        acc = coeffs[m]
        for g, sign in pentagonal_signs(m):
            term = coeffs[m - g]
            acc = add(acc, term) if sign > 0 else sub(acc, term)
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
            total[m + j * j] = add(total[m + j * j], poly)
        j += 1
    return total


def packed_rank_series(order: int) -> list[LaurentPoly]:
    """The rank distribution series to `order`, on the packed kernel.

    sum over n >= 0 of q^(n^2) / prod_{j=1..n} (1-z q^j)(1-z^-1 q^j); the
    q^n coefficient is the rank polynomial of n, all coefficients
    non-negative.  At z = 1 the q^m coefficient sums to p(m), so slots as
    wide as p(order) cannot overflow, and each decoded slice is checked
    against p(m).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    p = colored_coeffs(1, order)
    bits = (p[order].bit_length() + 7) // 8 * 8
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
    return [LaurentPoly(-m, _unpack_slots(acc[m], 2 * m + 1, bits, p[m]))
            for m in range(order + 1)]


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


def shift_add_half(a: tuple[int, ...], order: int, bits: int) -> list[int]:
    """The kernel's packed geometric stage, one geometric factor at a time.

    Slot s of entry m holds the coefficient of z^(c - s), c = a_1, for
    e <= c.  The negative families go in first (a_r..a_1) as
    ints[m] += ints[m-n] << bits*a, then the positive ones (a_r..a_1) as
    ints[m] += ints[m-n] >> bits*a: a positive factor only raises
    exponents, so the right shift drops exactly the terms above z^c, none of
    which could come back down.  Every value is non-negative, so the
    integers equal the theta-series division's whenever no slot overflows.
    """
    c = a[0]
    ints = [0] * (order + 1)
    ints[0] = 1 << (bits * c)
    for aj in reversed(a):
        sh = bits * aj
        for n in range(1, order + 1):
            for m in range(n, order + 1):
                ints[m] += ints[m - n] << sh
    for aj in reversed(a):
        sh = bits * aj
        for n in range(1, order + 1):
            for m in range(n, order + 1):
                ints[m] += ints[m - n] >> sh
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


def count_windowed_pushes(monkeypatch) -> tuple[list[int], list[int]]:
    """Per windowed theta pass from now on, the terms it pushed and those whose lowest slot is in its window.

    A pass pushes (j, k) with j + k(k-1)/2 <= its order; the term's lowest slot at frame
    c = max(a_j, origin) is a_j*(k-1)(k-2)/2 + (c - a_j)*k(k-1)/2 (qseries._theta_pass).  Pushes
    are counted as the stores of a list subclass, less each entry's reframe (m >= 1) and mask.
    """
    pushed, expected = [], []
    theta_pass = qseries._theta_pass

    class Counted(list):
        stores = 0

        def __setitem__(self, m, value):
            self.stores += 1
            super().__setitem__(m, value)

    def counted_pass(ints, aj, origin, bits, last, window=0):
        if not window:
            return theta_pass(ints, aj, origin, bits, last, window)
        counted, c, order = Counted(ints), max(aj, origin), len(ints) - 1
        theta_pass(counted, aj, origin, bits, last, window)
        ints[:] = counted
        pushed.append(counted.stores - 2 * order - 1)
        expected.append(sum(1 for j in range(order + 1) for k in range(2, order + 2)
                            if j + k * (k - 1) // 2 <= order
                            and aj * (k - 1) * (k - 2) // 2 + (c - aj) * k * (k - 1) // 2 < window))

    monkeypatch.setattr(qseries, "_theta_pass", counted_pass)
    return pushed, expected


def full_spectrum_slices(a: tuple[int, ...], delta: int, order: int) -> list[LaurentPoly]:
    """Slices 0..order of the colored-crank product, both halves built in full.

    The packed geometric product runs with the families -a_1..-a_r,
    +a_r..+a_1 and slot i of entry m holding the coefficient of
    z^(i - a_1*m), so every slice is read off all 2*a_1*m + 1 of its slots
    and no symmetry is assumed.  Each decoded part is checked against its
    exact total.
    """
    amp = a[0]
    terms = pentagonal_signs(order) if delta else []
    colored = colored_coeffs(2 * len(a), order)
    totals = [_pentagonal_split(colored, m, terms, 0) for m in range(order + 1)]
    bits = _slot_width(max(t for pair in totals for t in pair))
    packed = _geometric_packed(tuple(-aj for aj in a) + a[::-1], amp, order, bits)
    out = []
    for m, (pos_total, neg_total) in enumerate(totals):
        pos, neg = _pentagonal_split(packed, m, terms, bits * amp)
        nslots = 2 * amp * m + 1
        coeffs = _unpack_slots(pos, nslots, bits, pos_total)
        if neg_total:
            coeffs = [x - y for x, y in zip(coeffs, _unpack_slots(neg, nslots, bits, neg_total))]
        out.append(LaurentPoly(-amp * m, coeffs))
    return out


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
