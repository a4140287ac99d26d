"""Exhaustive search for eventually unimodal colored-crank weight tuples.

The search space for a given color count k is every strictly decreasing
weight tuple drawn from {1..k}; for each tuple the q^n coefficients of its
product are scanned below a bound, and the minimal m with "unimodal for all
m < n < n_hi" follows from the last non-unimodal n.  So the search scans each
parity from n_hi - 1 down and stops at its first non-unimodal slice, and
first screens every parity by the exact outer window of its top slice, the
end of that slice's half (qseries.top_windows, one windowed walk per task):
a window that proves that slice not unimodal settles the parity, and only
the undecided ones are built.  The family scan, which tallies every defect, builds and scans them
all.  Slices need no symmetry check and no polynomial: each is tested on the
palindrome's half the kernel decodes, by LaurentPoly.unimodal_half, the one
unimodality test, which verify's slice checks run too.  The claims these
scans decide (the first-gap criterion, the families' onsets) live in verify.

Work parallelizes over tasks, each built by one kernel call (slice_defects),
on this process and its forks (_pool_map).  A search's task is the weight
tuples of one r and one largest weight a_1 (7 for table1, 5 for k 7..8):
its windowed tree and its build tree run a pass they share once where that
pays.  The family scan's is a chain of tuples that nest across r (2 for
conj1.4's 8 tuples), each built from the one before it.  Results merge in
input order, so the output is byte-identical for any worker count.  One
cost model, scan_work, prices a scan's full theta passes in bit
operations: it admits every scan (refuse_past_bound) and orders
slice_defects' tasks, the largest first.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Iterable, Iterator, NamedTuple

from . import qseries
from .laurent import CrankspaceError, LaurentPoly
from .partitions import BoundExceeded
from .qseries import CrankSpec

DEFAULT_SCAN_BOUND = 75
# The largest scan the package starts, in modelled bit operations (scan_work):
# the model cost of cor3.5-B-k11-ell5 --n-max 117, weights (8, 7, 6, 5, 3, 2)
# to q^589, which takes 11-15 s and a 131 MB peak RSS on one core of a 2-core VM.
# Fewer weights reach further in q under it and hold more: the largest admitted
# peak found is 168 MB, cor3.5-A-k4-ell7 --n-max 179 (q^1259, 11-12 s).
SCAN_WORK_BOUND = 126_385_122_240


class SearchResult(NamedTuple):
    """What one weight tuple's unimodality scan below n_hi found.

    largest_nonunimodal is the largest scanned n (1 <= n < n_hi) whose slice
    is not unimodal, or None.  The verdicts derive from it: threshold is the
    minimal m such that every slice with m < n < n_hi is unimodal (0 when all
    are), or None when the top slice is not, so eventually_unimodal is False.
    Both speak only for the scanned bound, which is why n_hi is carried along.
    """

    spec: CrankSpec
    n_hi: int
    largest_nonunimodal: int | None

    @property
    def eventually_unimodal(self) -> bool:
        return self.largest_nonunimodal != self.n_hi - 1

    @property
    def threshold(self) -> int | None:
        return (self.largest_nonunimodal or 0) if self.eventually_unimodal else None

    def to_json_dict(self) -> dict:
        return {
            "k": self.spec.k,
            "a": list(self.spec.a),
            "n_hi": self.n_hi,
            "threshold": self.threshold,
            "eventually_unimodal": self.eventually_unimodal,
            "largest_nonunimodal": self.largest_nonunimodal,
        }


def crank_space(k: int) -> Iterator[CrankSpec]:
    """All strictly decreasing weight tuples from {1..k} of the length k needs.

    Ordered by ascending combination of the underlying set, each read
    largest-first — the order the reference tables use.
    """
    r = (k + k % 2) // 2
    for combo in itertools.combinations(range(1, k + 1), r):  # valid by construction: _make checks nothing
        yield CrankSpec._make((k, combo[::-1]))


# The task queue is written whole before any worker starts, so writing it must
# never block: it holds at most one page (4096 bytes, the least a Linux pipe
# holds) of 4-byte chunk numbers.  Past that many tasks a chunk is a run of
# consecutive tasks.
_QUEUE_CHUNKS = 1024


def _drain(fn, tasks: list, bounds: list[int], queue: int) -> dict:
    """{index: result or exception} of the chunks this worker pulls off the queue.

    Chunks come off in index order; the worker stops at its first failing task.
    """
    done: dict = {}
    while token := os.read(queue, 4):
        chunk = int.from_bytes(token, "little")
        for i in range(bounds[chunk], bounds[chunk + 1]):
            try:
                done[i] = fn(tasks[i])
            except Exception as exc:  # the caller raises the lowest-index one
                done[i] = exc
                return done
    return done


def _pool_map(fn, tasks: list, threads: int | None) -> list:
    """Map fn over tasks in order, on min(threads, len(tasks), usable CPUs) workers (None: all).

    Usable CPUs are the affinity mask's (so a `taskset` limit counts), else the
    CPU count.  This process is one worker and forks the others (none where
    os.fork is missing; the package starts no threads, so forking is safe).
    Every worker pulls chunks of task indices off one shared pipe and stops at
    its first failing task; a child pickles what it did back over a pipe of its
    own and leaves through os._exit.  The lowest-index failure is raised, so
    results and errors alike do not depend on the worker count.  A child that
    exits without its results raises RuntimeError.  Every child is reaped
    before this returns or raises; one whose results were not read is killed.
    """
    if not tasks:
        return []
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(cpus if threads is None else threads, len(tasks), cpus)
    if workers > 1 and hasattr(os, "fork"):
        import pickle  # here, not at the top: a serial command never needs it
    else:
        workers = 1
    chunks = min(len(tasks), _QUEUE_CHUNKS)
    bounds = [c * len(tasks) // chunks for c in range(chunks + 1)]
    queue, feed = os.pipe()
    os.write(feed, b"".join(c.to_bytes(4, "little") for c in range(chunks)))
    os.close(feed)
    children: dict = {}  # unreaped child pid -> the read end of its result pipe
    try:
        for _ in range(workers - 1):
            source, sink = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(source)
                os.close(sink)
                raise
            if pid == 0:  # the child: its share, its results, then out past every exit hook
                code = 1
                try:
                    os.close(source)
                    with open(sink, "wb") as pipe:
                        pickle.dump(_drain(fn, tasks, bounds, queue), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(sink)
            children[pid] = open(source, "rb")
        done = _drain(fn, tasks, bounds, queue)
        for pid in list(children):
            data = children[pid].read()
            exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if exit_code or not data:
                raise RuntimeError(f"pool worker {pid} exited with code {exit_code} without its results")
            done.update(pickle.loads(data))
    finally:
        os.close(queue)
        for pid, pipe in children.items():
            import signal  # here: only a child whose results were not read needs it
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [i for i, value in done.items() if isinstance(value, Exception)]
    if failed:
        raise done[min(failed)]
    return [done[i] for i in range(len(tasks))]


def exhaustive_search(
    k_lo: int = 3,
    k_hi: int = 6,
    n_hi: int = DEFAULT_SCAN_BOUND,
    threads: int | None = None,
) -> list[SearchResult]:
    """Thresholds for every weight tuple with k_lo <= k <= k_hi.

    Results are ordered by k ascending, then by the tuple order of
    crank_space; the order and content do not depend on the worker count.
    Raises BoundExceeded, before any scan, past SCAN_WORK_BOUND.
    """
    check_scan_work(k_lo, k_hi, n_hi)
    if not 3 <= k_lo <= k_hi:
        raise CrankspaceError(f"need 3 <= k_lo <= k_hi, got [{k_lo}, {k_hi}]")
    specs = [spec for k in range(k_lo, k_hi + 1) for spec in crank_space(k)]
    return [SearchResult(spec, n_hi, bad[-1] if bad else None)
            for spec, bad in zip(specs, slice_defects(specs, n_hi, threads, top_only=True))]


def _slot_bits(r: int, order: int) -> int:
    """A slot width >= any iter_ck_slices picks: qseries._slot_width of 2^L, L = floor(log2 bound).

    Each total it sizes for r weights sums p_2r(m - g) over distinct g <= m,
    at most sum_(i<=m) p_2r(i) <= p_F(m), F = 2r + 1.  With u = x/(1 - x),
    log prod 1/(1 - x^n) <= u pi^2/6, so ln p_F(n) <= F u pi^2/6 + n ln(1 + 1/u),
    least where u(1 + u) = 6n/(F pi^2): a closed form, so admission builds nothing.
    """
    if order <= 0:
        return 64
    n = min(order, 2**32)  # a float, 2^L small; its entry count alone puts a larger order past any bound
    c = (2 * r + 1) * math.pi ** 2 / 6
    u = (math.sqrt(1 + 4 * n / c) - 1) / 2
    return qseries._slot_width(1 << math.floor((c * u + n * math.log1p(1 / u)) / math.log(2)))


def scan_work(r: int, order: int, passes: int, weight_sum: int) -> int:
    """The modelled bit operations of `passes` theta passes, to q^order, of r-weight products.

    weight_sum sums the passes' weights.  A pass over weight a pushes each
    entry j <= N = order, 2a*j + 1 slots wide, through its
    floor(sqrt(2(N - j))) + 1 theta terms at two shift-adds each, on slots of
    _slot_bits(r, N) bits; the sum over j is taken in closed form.
    """
    # i = N - j is counted once by each t <= s with l_t = ceil(t^2/2) = (t^2 + t mod 2)/2 <= i
    n = max(order, 0)
    s = math.isqrt(2 * n)
    odd = (s + 1) // 2  # the odd t <= s
    t2 = s * (s + 1) * (2 * s + 1) // 6
    l_sum = (t2 + odd) // 2
    l2_sum = (t2 * (3 * s * s + 3 * s - 1) // 5 + 2 * odd * (4 * odd * odd - 1) // 3 + odd) // 4
    terms = (s + 1) * (n + 1) - l_sum  # sum over i <= N of floor(sqrt(2i)) + 1
    weighted = (s + 1) * n * (n + 1) // 2 - (l2_sum - l_sum) // 2  # of i(floor(sqrt(2i)) + 1)
    return _slot_bits(r, n) * (2 * terms * passes + 4 * (n * terms - weighted) * weight_sum)


def refuse_past_bound(work: int, request: str) -> None:
    """Raise BoundExceeded if request's scan_work passes SCAN_WORK_BOUND."""
    if work > SCAN_WORK_BOUND:
        raise BoundExceeded(f"{request} exceeds the scan work bound {SCAN_WORK_BOUND} bit operations")


def check_scan_work(k_lo: int = 3, k_hi: int = 6, n_hi: int = DEFAULT_SCAN_BOUND) -> int:
    """The scan_work of exhaustive_search(k_lo, k_hi, n_hi); BoundExceeded past SCAN_WORK_BOUND.

    Each k counts all r passes of each of its C(k, r) tuples to q^(n_hi - 1),
    as if each tuple were built alone, ascending; each weight 1..k is in
    C(k - 1, r - 1) of them.  A group build shares passes only where that
    costs no more frame units and no more passes (qseries._plan), and every
    tuple is priced, also one that the screen settles without a full build:
    an upper bound, which the sharing and the screen only loosen.
    """
    work = 0
    for k in range(max(k_lo, 3), k_hi + 1):
        r = (k + k % 2) // 2
        # C(k, r) > 2^(k/2): any larger k is over the bound, its C(k, r) not worth computing
        big = k > 2 * SCAN_WORK_BOUND.bit_length()
        work += SCAN_WORK_BOUND + 1 if big else scan_work(
            r, n_hi - 1, math.comb(k, r) * r, math.comb(k - 1, r - 1) * k * (k + 1) // 2)
        refuse_past_bound(work, f"search over k {k_lo}..{k_hi} below n_hi {n_hi}")
    return work


def results_to_csv(results: Iterable[SearchResult]) -> str:
    """Rows (k, a_vector, threshold, n_hi); '-' marks no threshold."""
    lines = ["k,a_vector,threshold,n_hi\n"]
    for r in results:
        a = ",".join(map(str, r.spec.a))
        t = r.threshold if r.eventually_unimodal else "-"
        lines.append(f'{r.spec.k},"({a})",{t},{r.n_hi}\n')
    return "".join(lines)


def _top_screen(members: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], top: int) -> tuple[dict, dict]:
    """Split the parities of members (a, deltas), of one r and one a_1, by the windows of their q^top slices.

    A window (the end of that slice's half, from one qseries.top_windows
    walk) that rises outward or ends below 0 proves the slice not unimodal:
    {(a, delta): [top]} in the first dict; the rest {(a, delta): window}.
    """
    decided, undecided = {}, {}
    for (a, deltas), found in zip(members, qseries.top_windows(members, top)):
        for delta, window in zip(deltas, found):
            if LaurentPoly.unimodal_half(window):
                undecided[a, delta] = window
            else:
                decided[a, delta] = [top]
    return decided, undecided


def _defects_task(task: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], int, bool]
                  ) -> dict[tuple[tuple[int, ...], int], list[int]]:
    """{(a, delta): its non-unimodal n below n_hi, ascending} for one of slice_defects' tasks.

    Sizes are scanned from the top down; with top_only, each parity stops at
    its first non-unimodal slice, the only one its caller reads, and the
    parities whose top slice _top_screen decides are not built.  The rest
    are built by one kernel call for the whole task (a tuple with none left
    is not built).  The decoded top half of each screened parity must end in
    its window, and that of each chain member past the first (the ones the
    chain's pentagonal passes reach) in its window built alone
    (qseries.top_windows), or ArithmeticError is raised.  Each slice is
    tested on the certified half the kernel decodes; none is mirrored.
    """
    members, n_hi, top_only = task
    top = n_hi - 1
    if top_only:
        defects, windows = _top_screen(members, top)
    else:
        defects, windows = {}, {(a, delta): window for a, deltas in members[1:]
                                for delta, window in zip(deltas, qseries.top_windows([(a, deltas)], top)[0])}
    kept = {a: rest for a, deltas in members if (rest := [d for d in deltas if (a, d) not in defects])}
    for a, scans in qseries.iter_ck_slices(list(kept.items()), range(top, 0, -1)):
        for delta, scan in zip(kept[a], scans):
            bad, window = [], windows.get((a, delta))
            for n, half in scan:
                if window and n == top and half[-len(window):] != window:
                    raise ArithmeticError(f"the q^{top} window of weights {a}, delta {delta}, "
                                          "differs from the end of its built half")
                if not LaurentPoly.unimodal_half(half):
                    bad.append(n)
                    if top_only:
                        break
            defects[a, delta] = bad[::-1]
        del scans, scan, half  # the next member builds without this one's entries
    return defects


def slice_defects(specs: Iterable[CrankSpec], n_hi: int, threads: int | None = None,
                  top_only: bool = False) -> list[list[int]]:
    """Per spec, its non-unimodal n in 1 <= n < n_hi, ascending.

    The one slice scan: exhaustive_search reads its thresholds from these
    lists, check_family_unimodality its defects.  With top_only, each list
    holds at most the largest such n, since the scan runs from n_hi - 1
    down and stops at it: that is all exhaustive_search reads; a spec whose
    top slice its outer window proves not unimodal gets [n_hi - 1] with no
    build (_defects_task).  With top_only, a task is the weight tuples of
    one r and one largest weight a_1 (a trie across r would cost these
    scans more).  Without it, the family scan, a task is a chain: tuples
    taken by r ascending, each joining the chain that ends in its weights
    after a_1.  Tasks start largest first by the summed scan_work of their
    tuples, screened or not, so no large task is left to run alone at the
    end.  Results follow the order of `specs`, whatever the worker count.
    """
    if n_hi < 2:
        raise CrankspaceError(f"n_hi must be >= 2, got {n_hi}")
    specs = list(specs)
    parities: dict[tuple[int, ...], dict[int, None]] = {}  # insertion-ordered
    for spec in specs:
        parities.setdefault(spec.a, {})[spec.delta] = None
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # by (r, a_1), or by a chain's last member
    for a in parities if top_only else sorted(parities, key=len):
        if top_only:
            groups.setdefault((len(a), a[0]), []).append(a)
        else:
            groups[a] = groups.pop(a[1:], []) + [a]
    tasks = sorted(((tuple((a, tuple(parities[a])) for a in group), n_hi, top_only)
                    for group in groups.values()),
                   key=lambda task: sum(scan_work(len(a), n_hi - 1, len(a), sum(a)) for a, _ in task[0]),
                   reverse=True)
    found = {}
    for defects in _pool_map(_defects_task, tasks, threads):
        found.update(defects)
    return [found[spec.a, spec.delta] for spec in specs]
