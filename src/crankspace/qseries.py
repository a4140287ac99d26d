"""The colored-crank kernel: exact truncated q-series with Laurent coefficients.

Everything here is a power series in q truncated at a caller-chosen order.
The scalar series are the k-colored partition numbers, the coefficients of
prod_{n>=1} (1-q^n)^(-k) (`colored_coeffs`; k = 1 gives p(n)), built three
colors per sparse pass by Jacobi's identity for (q)_inf^3.  The
polynomial series are the colored-crank products C_k(a_1..a_r): (k-d)/2
copies of the a = 0 crank factor prod_{n>=1} (1-q^n) / ((1-z^a q^n)(1-z^-a q^n))
times the factors for a_1..a_r, where d = k mod 2 and r = (k+d)/2; each
q-coefficient is a Laurent polynomial in z, a palindrome, and the kernel
yields only its z^0, z^-1, ... half, as a list: the scans test that half,
and only `cor3.5` mirrors it into a LaurentPoly (`LaurentPoly.from_half`).
Single-size rank and crank polynomials are not built here: `partitions`
sums the Atkin-Swinnerton-Dyer rank formula and the Andrews-Garvan crank
formula over p(n).

The factors of the a = 0 copies cancel against the numerators, so each
product is a geometric stage G = prod_a prod_n 1/((1-z^a q^n)(1-z^-a q^n)),
whose coefficients are all non-negative, times prod (1-q^n) for odd k (the
pentagonal-number expansion).  G depends only on the weights, so one build
serves both parities.  Every pass runs in one walk, `_build`, of one build
tree: `_plan`'s for tuples of one r, which divides once by a weight that
several share where that saves work, or a chain of tuples that nest across
r, each built from the one before it by one pentagonal and one theta pass.

G is built by division by theta series, not factor by factor.  By the Jacobi
triple product, (q)_inf prod_n (1-z^a q^n)(1-z^-a q^n) is the sparse series
sum_{k>=1} (-1)^(k+1) q^(k(k-1)/2) (z^(a(1-k)) + ... + z^(a(k-1))), so
G = (q)_inf^r / prod_a (that series).  Dividing by one weight's series costs
O(N^1.5) coefficient operations to order N, where the 2N geometric factors
it replaces cost about N^2.  Each q-coefficient is handled as one big
integer, the image of its z-polynomial under z -> 2^bits: ring operations
commute with that map, so the division runs on integers at C speed, and
neither the signed intermediate values nor slots that overflow on the way
change the exact result.  G's coefficients are non-negative and bounded by
totals read off `colored_coeffs`, so in slots that wide the base-2^bits
digits of its images are its coefficients, decoded through 64-bit machine
words at any slot width; two run-time checks certify every decoded half all
the same, and a failure raises SlotOverflow.  Every step of the division
is a left shift or an add, so the same walk with each integer reduced
modulo 2^(W*bits) yields a slice's W outermost coefficients exactly, at a
small fraction of the cost (`top_windows`): the search screens by them
before it builds, and both scans check every built top slice against them.
Tests cross-check the kernel against a naive LaurentPoly-arithmetic
builder, against the factor-by-factor shift-add build and against a packed
kernel that builds both halves of every slice.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from typing import Iterable, Iterator, NamedTuple, Sequence

from .laurent import CrankspaceError


class InvalidK(CrankspaceError):
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
    """Generalized pentagonal numbers g = j(3j-1)/2 <= limit, ascending, with sign (-1)^j."""
    return [(g, -1 if j % 2 else 1) for j in range(1, math.isqrt(2 * limit // 3) + 2)
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if g <= limit]


def colored_coeffs(k: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of prod_{n>=1} (1-q^n)^(-k), exactly.

    k = 0 gives the constant series 1; k = 1 the partition numbers.  For
    k >= 3, p_k = p_(k-3) / (q)_inf^3, and Jacobi's identity
    (q)_inf^3 = sum_j (-1)^j (2j+1) q^(j(j+1)/2) makes that one sparse pass:
    p_k(n) = p_(k-3)(n) - sum_t J_t p_k(n-t).  k = 1 and 2 take one
    pentagonal pass from k - 1 instead.  So only the chain k, k-3, ..., k mod 3
    and the colors 0..k mod 3 are built, in a module-level cache that
    extends in place.
    """
    if k < 0:
        raise CrankspaceError("k must be >= 0")
    if order < 0:
        raise CrankspaceError("order must be >= 0")
    pentagonal = jacobi = None
    for kk in [*range(k % 3 + 1), *range(k % 3 + 3, k + 1, 3)]:
        cur = _COLORED_CACHE.setdefault(kk, [1])
        if len(cur) > order:
            continue
        if kk == 0:
            cur.extend([0] * (order + 1 - len(cur)))
            continue
        if kk < 3:
            pentagonal = pentagonal or _pentagonal_terms(order)
            prev, terms = _COLORED_CACHE[kk - 1], pentagonal
        else:
            jacobi = jacobi or [(j * (j + 1) // 2, (-1) ** j * (2 * j + 1))
                                for j in range(1, math.isqrt(2 * order) + 1)]
            prev, terms = _COLORED_CACHE[kk - 3], jacobi
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


def _pentagonal_split(series: Sequence[int], m: int, terms: list[tuple[int, int]],
                      shift: int = 0) -> tuple[int, int]:
    """The q^m coefficient of series * prod (1-q^n), as (positive, negative) parts.

    Multiplying by q^g moves no z-exponent, so entry m - g enters as it is
    when the entries are plain integers or packed ones that share one slot
    origin (shift 0).  Packed entries framed at c (entry n the image of
    z^(c*n) E[n]) take shift = bits*c: a left shift of shift*g bits moves
    entry m - g into entry m's frame.
    """
    pos, neg = series[m], 0
    for g, sgn in terms:
        if g > m:
            break
        term = series[m - g] << shift * g if shift else series[m - g]
        if sgn > 0:
            pos += term
        else:
            neg += term
    return pos, neg


def _pentagonal_pass(ints: list[int], terms: list[tuple[int, int]], c: int, bits: int) -> None:
    """Multiply the entries, framed at c, in place by (q)_inf, whose terms reach their order."""
    for m in range(len(ints) - 1, 0, -1):
        pos, neg = _pentagonal_split(ints, m, terms, bits * c)
        ints[m] = pos - neg


def _unpack_half(x: int, nslots: int, bits: int, margin: int, total: int) -> list[int]:
    """Slots margin..nslots-1 of x (z^0, z^-1, ...), certified as one half of a palindrome.

    Slot s of x holds the non-negative coefficient of z^(margin - s) of a
    polynomial invariant under z -> 1/z.  The margin slots (z^margin..z^1)
    must equal their mirrors, and twice the returned slots' sum less the
    z^0 slot must be the total of all coefficients.  A value that outgrows
    its slot carries into the next one, which breaks one check or both; a
    failure, or x not fitting nslots >= 2*margin + 1 slots, raises
    SlotOverflow.  On little-endian hosts every width decodes through one
    machine-word view: each slot's bytes are padded to whole 64-bit limbs
    (one strided copy per byte column), the low limbs are read at C speed,
    and a higher limb is added only to the slots where it is non-zero.
    Big-endian hosts decode slot by slot.
    """
    nbytes = bits // 8
    try:
        raw = x.to_bytes(nslots * nbytes, "little")
    except OverflowError:
        raise SlotOverflow(f"a packed value overflows {nslots} slots of {bits} bits") from None
    if sys.byteorder == "little":
        limbs = -(-nbytes // 8)
        if nbytes != 8 * limbs:
            padded = bytearray(8 * limbs * nslots)
            for c in range(nbytes):
                padded[c :: 8 * limbs] = raw[c::nbytes]
            raw = padded
        words = memoryview(raw).cast("Q").tolist()
        slots = words[::limbs] if limbs > 1 else words
        for j in range(1, limbs):
            high = words[j::limbs]
            for s in itertools.compress(range(nslots), high):
                slots[s] += high[s] << (64 * j)
    else:
        slots = [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little")
                 for i in range(nslots)]
    half = slots[margin:]
    if slots[margin - 1 :: -1] != half[1 : margin + 1]:
        raise SlotOverflow(f"{bits}-bit margin slots differ from their mirrors")
    if 2 * sum(half) - half[0] != total:
        raise SlotOverflow(f"{bits}-bit slots sum to {2 * sum(half) - half[0]}, not to {total}")
    return half


def _theta_pass(ints: list[int], aj: int, origin: int, bits: int, last: bool,
                window: int = 0) -> None:
    """Divide the packed entries, in place, by weight aj's theta series (see iter_ck_slices).

    During the pass, entry m is the image of z^(c*m) E[m] under z -> 2^bits,
    c = max(origin, aj): a polynomial, since E[m] spans z^(-c*m)..z^(c*m),
    so every shift is a left shift.  Entries framed at origin, the frame of
    the passes before, are reframed first when aj is wider.  Each finished
    E[j] is pushed forward through the recurrence
    E[m] += sum_{k>=2} (-1)^k run_k E[m - T_k], T_k = k(k-1)/2,
    run_k = z^(aj(1-k)) + ... + z^(aj(k-1)): run_k E[j] grows by one
    shift-add per k (adding E[j] + z^aj E[j] at the next offset) and lands in
    its entry by a second, shifted aj*lo + (c - aj)*T_k slots,
    lo = (k-1)(k-2)/2, so each (j, k) pair costs two; both shifts are kept
    as running sums.  With last set, each entry is converted to its half as
    soon as it has been pushed forward.

    With window set, each entry is reduced modulo 2^(window*bits) before it
    is pushed forward, and no term whose lowest slot, aj*lo + (c - aj)*T_k,
    is window or above is added: slots 0..window-1 stay exact (top_windows).
    """
    order = len(ints) - 1
    c = max(origin, aj)
    sh, ex, reframe = bits * aj, bits * (c - aj), bits * (c - origin)
    sh2, grow = 2 * sh, sh + ex
    for m in range(1, order + 1):
        ints[m] <<= reframe * m
    mask = (1 << bits * window) - 1
    k = 2  # with window set, past the last k whose term's lowest slot is below window
    while window and aj * (k - 1) * (k - 2) // 2 + (c - aj) * k * (k - 1) // 2 < window:
        k += 1
    reach = (k - 1) * (k - 2) // 2 if window else order  # the largest k(k-1)/2 pushed
    for j in range(order + 1):
        if window:
            ints[j] &= mask
        t = ints[j]
        pair = t + (t << sh)
        run = t
        k, m, lift, shift, step = 2, j + 1, sh, ex, sh + 2 * ex  # m = j + T_k; step: shift's next rise
        stop = min(order, j + reach)
        while m <= stop:
            run += pair << lift
            if k & 1:
                ints[m] -= run << shift
            else:
                ints[m] += run << shift
            m += k
            k += 1
            lift += sh2
            shift += step
            step += grow
        if last:  # grow = bits*c
            ints[j] = t >> (grow * (j - 1)) if j else t << grow


def _q_power(r: int, order: int) -> list[int]:
    """Coefficients 0..order of (q)_inf^r, as a new list: r pentagonal passes, each in place."""
    ints = [1] + [0] * order
    pentagonal = _pentagonal_terms(order)
    for _ in range(r):
        _pentagonal_pass(ints, pentagonal, 0, 0)
    return ints


def _slices(ints: list[int], c: int, bits: int, terms: list[tuple[int, int]], sizes: list[int],
            totals: list[tuple[int, int]]) -> Iterator[tuple[int, list[int]]]:
    """(m, half of the q^m coefficient) for m in sizes: one parity's scan of one packed G."""
    for m, (pos_total, neg_total) in zip(sizes, totals):
        nslots = c * (1 + max(m, 1)) + 1  # the mirrors of the margin, even at m = 0
        pos, neg = _pentagonal_split(ints, m, terms)
        half = _unpack_half(pos, nslots, bits, c, pos_total)
        if neg_total:
            half = list(map(operator.sub, half, _unpack_half(neg, nslots, bits, c, neg_total)))
        yield m, half


def _plan(c: int, members: list[tuple[int, tuple[int, ...]]], order: int, window: int = 0
          ) -> tuple[tuple[int, int], int, int | list]:
    """The cheapest build tree to q^order of members (i, weights left, descending) from entries framed at c.

    Returns its cost (units, passes), the order its first steps read, and
    the tree: a leaf is a member's i (a member index, or a subtree that its
    steps lead into), a node a list of steps (w, o, sub), each a division
    by w's theta series to q^o.  Members that share their next weight
    divide by it once, unless it reframes (w > c) and building each alone,
    a chain of one-step nodes ascending, costs fewer units, or as many in
    fewer passes.  A full pass at frame c' counts c' units (its
    entries are about 2c'm slots wide), a windowed one (_theta_pass) the
    order it reaches: before a step that reframes by gap, only
    (window - 1) // gap, since every later entry leaves the window.
    """
    if len(members) == 1:  # alone: a chain of one-step nodes, ascending, so that frames only grow
        i, rest = members[0]
        plan = (0, 0), order, i
        for w, below in zip(rest, [*rest[1:], 0]):  # from its last step back
            plan = _step(max(c, below), w, plan, window)
        return plan
    groups: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for i, rest in members:
        groups.setdefault(rest[0], []).append((i, rest))
    plans = []
    for w, group in groups.items():
        if len(group) > 1:  # shared, unless it reframes and the chains cost less, summed one by one
            shared = _step(c, w, _plan(max(c, w), [(i, rest[1:]) for i, rest in group], order, window),
                           window)
            if w <= c or shared[0] < tuple(map(sum, zip(*(_plan(c, [m], order, window)[0] for m in group)))):
                plans.append(shared)
                continue
        plans += [_plan(c, [member], order, window) for member in group]
    return _side_by_side(plans)


def _step(c: int, w: int, plan: tuple, window: int) -> tuple:
    """A division by w from entries framed at c, then plan, as a _plan of one step."""
    (units, passes), o, tree = plan
    reads = min(o, (window - 1) // (w - c)) if window and w > c else o
    return (units + (o if window else max(c, w)), passes + 1), reads, [(w, o, tree)]


def _side_by_side(plans: list[tuple]) -> tuple:
    """_plans of disjoint members as one: costs and steps added up, reading as far as any one reads."""
    return ((sum(plan[0][0] for plan in plans), sum(plan[0][1] for plan in plans)),
            max((plan[1] for plan in plans), default=0), [step for plan in plans for step in plan[2]])


def _build(ints: list[int], c: int, tree: int | list, bits: int, window: int = 0
           ) -> Iterator[tuple[int, list[int]]]:
    """(i, packed G) for each member i of tree, from ints framed at c.

    A tree is a leaf i, or a list of leaves, each yielded as a halved copy
    so the items after it go on, and steps (w, o, sub): to q^o, a division
    by w's theta series (_plan), which halves in place when sub is a leaf,
    or for w = 0 a product with (q)_inf at frame c.  With window set, every
    division keeps each entry to its low window slots (_theta_pass) and
    halves nothing.  The last step of a list works on ints in place and
    each other one on a copy, so a yielded G is never touched again.
    """
    if isinstance(tree, int):
        yield tree, ints
        return
    for n, item in enumerate(tree):
        if isinstance(item, int):
            grow = bits * c
            yield item, [t >> grow * (j - 1) if j else t << grow for j, t in enumerate(ints)]
            continue
        w, order, sub = item
        own = ints if n == len(tree) - 1 else ints[: order + 1]
        own[order + 1 :] = [0] * (order + 1 - len(own))  # cut or pad to q^order
        if w:
            _theta_pass(own, w, c, bits, not window and isinstance(sub, int), window)
        else:
            _pentagonal_pass(own, _pentagonal_terms(order), c, bits)
        yield from _build(own, max(c, w), sub, bits, window)


def iter_ck_slices(members: Sequence[tuple[tuple[int, ...], Sequence[int]]], sizes: Iterable[int]
                   ) -> Iterator[tuple[tuple[int, ...], list[Iterator[tuple[int, list[int]]]]]]:
    """Per member (a, deltas), one slice scan over sizes for each delta of weights a's product.

    The products have weights a and, for each delta, delta copies of
    prod (1-q^n).  Every member has the same number r of weights, or each
    member's a[1:] is the weights of the member before it (they nest).  Each
    next() builds one member's G, the geometric stage, up to max(sizes) and
    yields (a, scans): one iterator per delta, in the order of deltas, of
    (m, half of the q^m coefficient) for m in sizes, in their order.
    Members come in the order the build reaches them.  A scan decodes each
    slice only when it is asked for, so a caller that stops a scan early
    pays for no slice past it.  Each weight enters as
    (1 - z^a q^n)^(-1) (1 - z^-a q^n)^(-1), so every slice is a palindrome:
    only its z^e, e <= 0, half is built, and it is yielded as the list of
    its z^0, z^-1, ... coefficients (`LaurentPoly.from_half` mirrors it).
    Negative sizes, members that repeat weights, or members that differ in r
    and do not nest raise CrankspaceError.

    G is the scalar (q)_inf^r, built once for all members, divided by one
    theta series per weight along _plan's build tree: a shared step serves
    every member below it, and a member left alone takes its passes ascending,
    a_r first.  Either way every entry ends framed at c = a_1, and the
    member's last pass leaves slot s of entry m holding the coefficient of
    z^(c - s).  Members that nest are one branch of steps from the first
    member's (q)_inf^r: weights (b, *a) after a give
    G = (q)_inf G_a / theta_b, a pentagonal step on G_a's entries framed at
    c = a_1, each q^g term shifted c*g slots into its entry's frame (as in
    top_windows), then a theta step that reframes at b.  The image's
    base-2^bits digits are G's coefficients (module docstring): the last
    pass's right shift by c*(m-1) slots drops exactly the terms below z^-c
    and leaves z^e in slot c + e, which by the z -> 1/z symmetry holds the
    coefficient of z^(c - s) at s = c + e.  The entries share one origin,
    so each slice sums its own pentagonal terms (delta = 1 only) unshifted
    into separate non-negative pos/neg packed integers, and slots never
    borrow; that sum and the unpacking are done per requested slice, so
    skipped sizes cost nothing and the dense polynomials never all coexist.

    Slot widths are exact: at z = 1 G is prod (1-q^n)^(-F), F = 2r, so the
    coefficients of a slice's pos part sum to p_F(m) plus its positive
    p_F(m - g) terms and those of its neg part to its negative ones; no
    coefficient exceeds its part's total, and none of G's up to the top
    requested size exceeds p_F of that size.  The slot is as wide as the
    largest total over every requested size, every member's r and every
    member's delta, so it is exact for the widest member and parity and
    wide enough for the others; `_unpack_half` certifies each decoded part
    against its own r's totals all the same.  Weights (1,) with delta 1 give
    the raw crank factor, whose q^n coefficient for n >= 2 is the crank
    polynomial that `partitions.crank_poly` computes from the Andrews-Garvan
    formula instead.
    """
    sizes = list(sizes)
    if min(sizes, default=0) < 0:
        raise CrankspaceError(f"slice sizes must be >= 0, got {min(sizes)}")
    weights = [a for a, _ in members]
    r = len(weights[0]) if weights else 0
    shared = all(len(a) == r for a in weights)
    if not shared and any(a[1:] != before for before, a in zip(weights, weights[1:])):
        raise CrankspaceError(f"members must share r or nest, got weights {weights}")
    if len(set(weights)) < len(weights):
        raise CrankspaceError("members must have distinct weights")
    order = max(sizes, default=0)
    terms = {d: _pentagonal_terms(order) if d else [] for _, deltas in members for d in deltas}
    totals = {}
    for rj in {len(a) for a in weights}:
        colored = colored_coeffs(2 * rj, order)
        totals.update(((rj, d), [_pentagonal_split(colored, m, t) for m in sizes]) for d, t in terms.items())
    bits = _slot_width(max((t for row in totals.values() for pair in row for t in pair), default=0))
    if shared:
        tree = _plan(0, list(enumerate(weights)), order)[2]
    else:  # the first member alone, its passes leading into [i, (0, order, [(member i + 1's a_1, ...)])] per i
        tree = len(weights) - 1
        for i in range(len(weights) - 2, -1, -1):
            tree = [i, (0, order, [(weights[i + 1][0], order, tree)])]
        tree = _plan(0, [(tree, weights[0])], order)[2]
    for i, ints in _build(_q_power(r, order), 0, tree, bits):
        a, deltas = members[i]
        yield a, [_slices(ints, a[0], bits, terms[d], sizes, totals[len(a), d]) for d in deltas]
        del ints  # the next member builds without this one's entries


def top_windows(members: Sequence[tuple[tuple[int, ...], Sequence[int]]], m: int) -> list[list[list[int]]]:
    """Per member (a, deltas) and delta, the coefficients of z^(c - c*m) .. z^(-c*m), c = a_1, at a's q^m.

    For m >= 1 a window is the last c + 1 entries of the half that
    iter_ck_slices yields for (a, delta) at m, at a small fraction of its
    cost: the members of each r and a_1 (a search task, or one member of a
    chain) share one walk of one _plan tree, the build's division with
    every entry kept to its W = c + 1 lowest slots (_theta_pass).
    Reduction modulo 2^(W*bits) after z -> 2^bits is a ring map, and every
    step is a left shift or an add on a frame whose slot 0 is z^(-c'*m), so
    an entry's low W slots depend only on the low W slots of those before
    it.  For delta 1, each pentagonal term q^g G[m - g] with c*g < W is
    shifted c*g slots into entry m's frame, positive and negative terms
    summed apart.  Each part's coefficients are non-negative and below
    2^bits (iter_ck_slices' totals bound), so its low W digits are exact.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (a, _) in enumerate(members):
        groups.setdefault((len(a), a[0]), []).append(i)
    terms, windows = _pentagonal_terms(m), {}
    for (r, c), group in groups.items():
        colored, w = colored_coeffs(2 * r, m), c + 1
        bits = _slot_width(max(max(_pentagonal_split(colored, m, terms if d else []))
                               for i in group for d in members[i][1]))
        _, reads, tree = _plan(0, [(i, members[i][0]) for i in group], m, w)
        slot, near = (1 << bits) - 1, [(g, sgn) for g, sgn in terms if c * g < w]
        for i, ints in _build(_q_power(r, reads), 0, tree, bits, w):
            parts = [_pentagonal_split(ints, m, near if d else [], bits * c) for d in members[i][1]]
            windows[i] = [[(pos >> (bits * s) & slot) - (neg >> (bits * s) & slot) for s in range(c, -1, -1)]
                          for pos, neg in parts]
    return [windows[i] for i in range(len(members))]


def ak_spec(k: int) -> CrankSpec:
    """The first distinguished family: weights (m+1, m, ..., 3, 2), m = (k+d)/2."""
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
