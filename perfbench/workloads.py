"""The benchmark's four workloads, as seeded lists of crankspace argv.

A workload is a fixed composition of operations ("a pass").  Each operation
is one fresh `crankspace` process, so every operation pays for interpreter
start, import and the module caches, as a command-line user does.  The seed
only chooses what a pass contains and its order; the program receives
nothing but the generated argv.

`--threads` is never part of an operation's argv here: the runner prepends
the same explicit worker count to every operation, so output digests are
keyed without it (the program guarantees worker count never changes bytes).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Iterator

Argv = tuple[str, ...]

# beta(ell) = ell - (ell^2 - 1)/24, the offset of the progressions ell*n + beta.
BETA = {5: 4, 7: 5, 11: 6}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Yields the operation list of each pass of a run, from the run's seed.
    passes: Callable[[random.Random], Iterator[list[Argv]]]
    menu: Callable[[], list[Argv]]


def _verify(claim: str, *extra: str) -> Argv:
    return ("--format", "json", "verify", claim, *extra)


# -- colored-quotients ----------------------------------------------------------

# The three cor3.5 instances of the paper.  --n-max cuts each default range
# (order 300) to order ~124, so one pass fits about eight times into a run.
COLORED_QUOTIENT_OPS: list[Argv] = [
    _verify("cor3.5-A-k6-ell5", "--n-max", "24"),
    _verify("cor3.5-B-k9-ell23", "--n-max", "5"),
    _verify("cor3.5-B-k11-ell5", "--n-max", "24"),
]

# -- classical-claims -----------------------------------------------------------

# conj1.1-part2, -part3 and thm2.2 are cut from sizes ~500 (crank series of
# order 512) to ~250, so no operation runs much past a second and one pass
# fits about five times into a run; the series caches still grow by doubling
# (64, 128, 256) inside each process.
CLASSICAL_OPS: list[Argv] = [
    _verify("conj1.1-part1"),
    _verify("conj1.1-part2", "--n-max", "50"),
    _verify("conj1.1-part3", "--n-max", "16"),
    _verify("conj1.3"),
    _verify("thm2.2", "--n-max", "50"),
    _verify("lem2.4"),
    _verify("crank-n22-gap"),
    _verify("thm1.2"),
]

# -- search-scan ----------------------------------------------------------------

# The k 7..8 scan stops at n < 60 and conj1.4 at n <= 59, so that one pass
# fits three or four times into a run and the three operations' costs stay
# far apart (about 3.3, 1.3 and 0.7 s), so each percentile stays on one.
SEARCH_OPS: list[Argv] = [
    ("search", "table1"),
    ("search", "--k-lo", "7", "--k-hi", "8", "--n-hi", "60"),
    _verify("conj1.4", "--n-max", "59"),
]


def _shuffled(ops: list[Argv]) -> Callable[[random.Random], Iterator[list[Argv]]]:
    def passes(rng: random.Random) -> Iterator[list[Argv]]:
        while True:
            yield rng.sample(ops, len(ops))
    return passes


# -- poly-cold ------------------------------------------------------------------

# Each stratum yields one operation per pass.  Sizes stay within 50..700:
# crank cost grows at least cubically (about 1.1 s at N = 400 and 5 s at
# N = 700 on the reference machine), so the series route's SERIES_BOUND of
# 5000 is far out of practical reach and crank sizes stop at 420.  Strata
# are narrow so that a pass costs about the same whatever the draw, and the
# percentiles stay inside one cost level: op_p50_s lands in the middle of
# three strata of about equal cost (crank-m, rank-l, mrank: the 6th to 8th
# cheapest of 13) and op_tail_s (p80) in the 11th, quotient, whose
# neighbours cost clearly less and more.
_SIZES = {
    "rank-xs": range(50, 71, 5),
    "crank-xs": range(50, 71, 5),
    "rank-s": range(100, 121, 5),
    "rank-m": range(160, 181, 5),
    "crank-m": range(180, 191, 2),
    "rank-l": range(300, 321, 4),
    "crank-l": range(260, 281, 5),
    "rank-xl": range(690, 701, 5),
    "crank-xl": range(400, 421, 5),
}
_COLORED_K = range(3, 13)
_COLORED_N = range(300, 701, 50)
# (ells, size window) of the modified statistics along ell*n + beta.
_MODIFIED = {
    "mrank": ((5, 7), (320, 340)),
    "mcrank": ((5, 7, 11), (300, 310)),
    "quotient": ((5, 7, 11), (330, 340)),
}


def _progression(ell: int, window: tuple[int, int]) -> list[int]:
    lo, hi = window
    return [n for n in range(hi) if lo <= ell * n + BETA[ell] <= hi]


def _poly(kind: str, n: int) -> Argv:
    return ("poly", kind, "--n", str(n))


def _modified_op(stratum: str, ell: int, n: int) -> Argv:
    if stratum == "mrank":
        return ("poly", "modified-rank", "--ell", str(ell), "--n", str(n))
    if stratum == "mcrank":
        return ("poly", "modified-crank", "--ell", str(ell), "--n", str(n))
    return ("quotient", "--ell", str(ell), "--poly", f"mcrank:{ell}:{n}")


def _poly_cold_strata() -> list[list[Argv]]:
    strata = [[("colored", "pk", "--k", str(k), "--n", str(n))
               for k in _COLORED_K for n in _COLORED_N]]
    strata += [[_poly(name.split("-")[0], n) for n in sizes] for name, sizes in _SIZES.items()]
    strata += [[_modified_op(name, ell, n) for ell in ells for n in _progression(ell, window)]
               for name, (ells, window) in _MODIFIED.items()]
    return strata


def _poly_cold_passes(rng: random.Random) -> Iterator[list[Argv]]:
    """One operation per stratum per pass, dealt from a shuffled deck per stratum.

    Dealing without replacement spreads a run's draws over each whole
    stratum, so runs with different seeds do nearly the same work.
    """
    strata = _poly_cold_strata()
    decks: list[list[Argv]] = [[] for _ in strata]
    while True:
        ops = []
        for stratum, deck in zip(strata, decks):
            if not deck:
                deck += rng.sample(stratum, len(stratum))
            ops.append(deck.pop())
        rng.shuffle(ops)
        yield ops


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "colored-quotients",
        "the packed colored-crank kernel does ~95% of the work and only every ell-th slice "
        "is unpacked; kernel, slot-certificate and per-spec-cache changes must show here",
        _shuffled(COLORED_QUOTIENT_OPS), lambda: list(COLORED_QUOTIENT_OPS)),
    Workload(
        "classical-claims",
        "one process requests many sizes, so the partitions series caches and their doubling "
        "growth work, with both cyclotomic routes and colored_coeffs; no colored kernel, no pool",
        _shuffled(CLASSICAL_OPS), lambda: list(CLASSICAL_OPS)),
    Workload(
        "search-scan",
        "many small kernel products, every slice unpacked and predicate-checked, and the only "
        "use of the search process pool; a kernel change that helps cor3.5 but costs this shows",
        _shuffled(SEARCH_OPS), lambda: list(SEARCH_OPS)),
    Workload(
        "poly-cold",
        "one size per process, so caches are never reused: import, series build and output "
        "rendering set the latency users see; a closed-form rank/crank route must show here",
        _poly_cold_passes, lambda: [op for st in _poly_cold_strata() for op in st]),
)}


def fans_out(argv: Argv) -> bool:
    """Whether the operation starts the program's process pool."""
    return "search" in argv or any(claim in argv for claim in ("conj1.4", "conj4.2", "all"))


# The cold no-op whose wall time is setup_s.
SETUP_OP: Argv = ("verify", "--list")


def all_ops() -> list[Argv]:
    """Every operation any seed can generate, plus the set-up no-op."""
    ops = [SETUP_OP]
    for w in WORKLOADS.values():
        ops += [op for op in w.menu() if op not in ops]
    return ops
