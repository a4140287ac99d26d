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
serves both parities, and one call of `iter_ck_slices` builds a set of
tuples with the same r along one build tree (`_plan`), walked by `_build`: a
pass over the largest weights that several tuples share, the widest kind of
pass, runs once for all of them where that saves work.  Or its tree is a
chain of tuples that nest across r, each member built from the one before it
by one pentagonal and one theta pass, where a lone build costs r theta passes.

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
is a left shift or an add, so the same division with each integer reduced
modulo 2^(W*bits) yields a slice's W outermost coefficients exactly, at a
small fraction of the cost: `top_windows` gives them for one tuple's top
slice, which the search screens by before it builds.  Tests cross-check
the kernel against a naive LaurentPoly-arithmetic builder, against the
factor-by-factor shift-add build and against a packed kernel that builds
both halves of every slice.
"""

from __future__ import annotations

import functools
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
_Q_POWER_CACHE: dict[int, list[int]] = {}


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
    is pushed forward, and no term whose lowest slot, aj*(k-1)(k-2)/2, is
    window or above is added: slots 0..window-1 stay exact (top_windows).
    """
    order = len(ints) - 1
    c = max(origin, aj)
    sh, ex, reframe = bits * aj, bits * (c - aj), bits * (c - origin)
    sh2, grow = 2 * sh, sh + ex
    for m in range(1, order + 1):
        ints[m] <<= reframe * m
    mask = (1 << bits * window) - 1
    reach = order  # the largest k(k-1)/2 pushed
    if window:  # k = s + 2 for the largest s with s(s+1)/2 <= (window-1)//aj
        s = (math.isqrt(8 * ((window - 1) // aj) + 1) - 1) // 2
        reach = (s + 2) * (s + 1) // 2
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
    """Coefficients 0..order of (q)_inf^r, as a new list: r pentagonal passes, each in place.

    The longest series built for each r is kept, and a shorter request takes
    its prefix: truncation commutes with the product.
    """
    ints = _Q_POWER_CACHE.get(r, [])
    if len(ints) <= order:
        ints = [1] + [0] * order
        pentagonal = _pentagonal_terms(order)
        for _ in range(r):
            _pentagonal_pass(ints, pentagonal, 0, 0)
        _Q_POWER_CACHE[r] = ints
    return ints[: order + 1]


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


def _plan(c: int, members: list[tuple[int, tuple[int, ...]]]) -> tuple[tuple[int, int], int | list]:
    """The cheapest build tree of members (i, weights left, descending) from entries framed at c.

    Returns its cost, (frame units, passes), with a pass at frame c'
    counted as c' units (its entries are about 2c'm slots wide), and the
    tree: a leaf is a member index i, a node a list of steps (w, subtree),
    each one division by w's theta series.  A member built alone is a chain
    of one-step nodes, ascending.  Members that share their next weight w
    are divided by it once only where that costs less (fewer units, or as
    many in fewer passes), so no tree costs more units or passes than
    building each member alone.
    """
    if len(members) == 1 and not members[0][1]:
        return (0, 0), members[0][0]
    alone = (sum(max(c, w) for _, rest in members for w in rest), sum(len(rest) for _, rest in members))
    groups: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for i, rest in members:
        groups.setdefault(rest[0], []).append((i, rest[1:]))
    if len(groups) < len(members):  # some members share their next weight
        subs = {w: _plan(max(c, w), below) for w, below in groups.items()}
        cost = (sum(max(c, w) + units for w, ((units, _), _) in subs.items()),
                sum(1 + passes for (_, passes), _ in subs.values()))
        if cost < alone:
            return cost, [(w, tree) for w, (_, tree) in subs.items()]
    return alone, [functools.reduce(lambda tree, w: [(w, tree)], rest, i)[0] for i, rest in members]


def _build(ints: list[int], c: int, tree: int | list, bits: int) -> Iterator[tuple[int, list[int]]]:
    """(i, packed G) for each member i of tree, from ints framed at c.

    A tree is a leaf i, or a list of leaves, each yielded as a halved copy
    so the items after it go on, and steps (w, sub): a division by w's theta
    series (_plan), which halves in place when sub is a leaf, or for w = 0 a
    product with (q)_inf at frame c.  The last step of a list works on ints
    in place and each other one on a copy, so a yielded G is never touched again.
    """
    if isinstance(tree, int):
        yield tree, ints
        return
    for n, item in enumerate(tree):
        if isinstance(item, int):
            grow = bits * c
            yield item, [t >> grow * (j - 1) if j else t << grow for j, t in enumerate(ints)]
            continue
        w, sub = item
        own = ints if n == len(tree) - 1 else ints[:]
        if w:
            _theta_pass(own, w, c, bits, isinstance(sub, int))
        else:
            _pentagonal_pass(own, _pentagonal_terms(len(own) - 1), c, bits)
        yield from _build(own, max(c, w), sub, bits)


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
    theta series per weight along _plan's build tree, whose shared steps are
    the widest passes, a_1's first: a step serves every member below it.
    _plan shares a pass only where that pays; a member left alone takes its
    remaining passes ascending, a_r first and a_1 last.  Either way every
    entry ends framed at c = a_1, and the member's last pass leaves slot s
    of entry m holding the coefficient of z^(c - s).  Members that nest are
    one branch of steps from the first member's (q)_inf^r: weights (b, *a)
    after a give G = (q)_inf G_a / theta_b, a pentagonal step on G_a's
    entries framed at c = a_1, each q^g term shifted c*g slots into its
    entry's frame (as in top_windows), then a theta step that reframes at b.
    The integers are exact images whatever their sign, and whatever slots
    overflow on the way.  G's coefficients are non-negative and below
    2^bits, so the image's base-2^bits digits are those coefficients: the
    last pass's right shift by c*(m-1) slots drops exactly the terms below
    z^-c and leaves z^e in slot c + e, which by the z -> 1/z symmetry holds
    the coefficient of z^(c - s) at s = c + e.  The entries share one
    origin, so each slice sums its own pentagonal terms (delta = 1 only)
    unshifted into separate non-negative pos/neg packed integers, and slots
    never borrow; that sum and the unpacking are done per requested slice,
    so skipped sizes cost nothing and the dense polynomials never all
    coexist.

    Slot widths are exact: at z = 1 G is prod (1-q^n)^(-F), F = 2r, so the
    coefficients of a slice's pos part sum to p_F(m) plus its positive
    p_F(m - g) terms and those of its neg part to its negative ones; no
    coefficient exceeds its part's total, and none of G's up to the top
    requested size exceeds p_F of that size.  The slot is as wide as the
    largest total over every requested size, every member's r and every
    member's delta, so it is exact for the widest member and parity and
    wide enough for the others; `_unpack_half` certifies each decoded part
    against its own r's totals all the same.  Weights (1,)
    with delta 1 give the raw crank factor, whose q^n coefficient for
    n >= 2 is the crank polynomial that `partitions.crank_poly` computes
    from the Andrews-Garvan formula instead.
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
        tree = _plan(0, list(enumerate(weights)))[1]
    else:  # the first member's passes, ascending, then [i, (0, [(member i + 1's a_1, ...)])] for each i
        tree = len(weights) - 1
        for i in range(len(weights) - 2, -1, -1):
            tree = [i, (0, [(weights[i + 1][0], tree)])]
        tree = functools.reduce(lambda sub, w: [(w, sub)], weights[0], tree)
    for i, ints in _build(_q_power(r, order), 0, tree, bits):
        a, deltas = members[i]
        yield a, [_slices(ints, a[0], bits, terms[d], sizes, totals[len(a), d]) for d in deltas]
        del ints  # the next member builds without this one's entries


def top_windows(a: tuple[int, ...], deltas: Sequence[int], m: int) -> list[list[int]]:
    """Per delta in deltas, the coefficients of z^(-c*m + c) .. z^(-c*m), c = a_1, of a's q^m slice.

    For m >= 1 that window is the last c + 1 entries of the half that
    iter_ck_slices yields for (a, delta) at m, in the half's order, and costs
    a small fraction of it.  It is the same theta division, one pass per
    weight ascending, with every entry kept to its W = c + 1 lowest slots
    (_theta_pass's window).  Reduction modulo 2^(W*bits) after z -> 2^bits
    is a ring map, and every step is a left shift or an add on a frame whose
    slot 0 is z^(-a_j*m), so an entry's low W slots depend only on the low W
    slots of the entries before it.  A pass
    before the last needs only its orders up to (W - 1) // (the gap to the
    next weight): the next reframe shifts every later entry out of the
    window.  For delta 1, each pentagonal term q^g G[m - g] is shifted c*g
    slots into entry m's frame (those with c*g >= W miss the window), and the
    positive and negative terms are summed apart.  Each part is the image of
    a polynomial whose coefficients are non-negative and below 2^bits, by
    the totals bound iter_ck_slices sizes its slots by, so its low W
    base-2^bits digits are its coefficients, exactly.
    """
    c, w = a[0], a[0] + 1
    orders = [m]  # what each pass must reach, from a_1's back to (q)_inf^r's
    for gap in map(operator.sub, a, [*a[1:], 0]):
        orders.append(min(orders[-1], (w - 1) // gap))
    terms = _pentagonal_terms(m)
    colored = colored_coeffs(2 * len(a), m)
    bits = _slot_width(max(max(_pentagonal_split(colored, m, terms if d else [])) for d in deltas))
    ints = _q_power(len(a), orders[-1])
    for aj, origin, order in zip(a[::-1], (0, *a[:0:-1]), orders[-2::-1]):  # a_r's pass first
        ints += [0] * (order + 1 - len(ints))
        _theta_pass(ints, aj, origin, bits, False, w)
    slot, near = (1 << bits) - 1, [(g, sgn) for g, sgn in terms if c * g < w]
    windows = []
    for d in deltas:
        pos, neg = _pentagonal_split(ints, m, near if d else [], bits * c)
        windows.append([(pos >> (bits * s) & slot) - (neg >> (bits * s) & slot) for s in range(c, -1, -1)])
    return windows


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
