"""Exhaustive search for eventually unimodal colored-crank weight tuples.

The search space for a given color count k is every strictly decreasing
weight tuple drawn from {1..k}; for each tuple the q^n coefficients of its
product are scanned below a bound, and the minimal m with "unimodal for all
m < n < n_hi" follows from the last non-unimodal n.  The claims decided from
these scans (the first-gap criterion and the families' onsets) live in verify.

Work parallelizes over distinct weight tuples (`_pool_map`): this process is
one worker and forks the others, which pull tasks off one shared pipe, the
largest first; where os.fork is missing the scan runs serially.  Each task
packs one tuple's geometric product once and scans it for every parity asked
of that tuple (every k = 3 tuple is also a k = 4 tuple, and A_k shares its
weights with A_(k+1) for odd k).  Results come back keyed by weight tuple and
are merged in input order, so the output is byte-identical for any worker
count.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Iterable, Iterator, NamedTuple

from . import qseries
from .laurent import CrankspaceError
from .partitions import BoundExceeded
from .qseries import CrankSpec

DEFAULT_SCAN_BOUND = 75
# The largest slice scan the package starts, in estimated slot operations (see
# _tuple_work).  10^10 is a minute or so on one core of a 2-core VM (1.3e8 to
# 2.5e8 per second, measured); `search table1` is 2.4e8.  The estimate counts
# every spec, though specs that share a weight tuple share its packed build,
# so it is an upper bound on the kernel work.
SCAN_WORK_BOUND = 10**10


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
    for combo in itertools.combinations(range(1, k + 1), r):
        yield CrankSpec(k, tuple(reversed(combo)))


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
        import signal
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
            for spec, bad in zip(specs, slice_defects(specs, n_hi, threads))]


def _tuple_work(r: int, a1: int, order: int) -> int:
    # packing one tuple to q^N: about r*N^2 shift-adds over integers of at most a_1*N slots
    return r * a1 * max(order, 1) ** 3


def _check_work(work: int, request: str) -> None:
    if work > SCAN_WORK_BOUND:
        raise BoundExceeded(f"{request} exceeds the scan work bound {SCAN_WORK_BOUND} slot operations")


def check_slice_work(specs: Iterable[CrankSpec], order: int, request: str) -> None:
    """Raise BoundExceeded if packing every spec's product to q^order would pass SCAN_WORK_BOUND."""
    _check_work(sum(_tuple_work(len(s.a), s.a[0], order) for s in specs), request)


def check_scan_work(k_lo: int = 3, k_hi: int = 6, n_hi: int = DEFAULT_SCAN_BOUND) -> None:
    """Raise BoundExceeded if exhaustive_search(k_lo, k_hi, n_hi) would pass SCAN_WORK_BOUND.

    Each k counts C(k, r) weight tuples at a_1 <= k, to order n_hi.
    """
    work = 0
    for k in range(max(k_lo, 3), k_hi + 1):
        r = (k + k % 2) // 2
        # C(k, r) > 2^(k/2): any larger k is over the bound, its C(k, r) not worth computing
        big = k > 2 * SCAN_WORK_BOUND.bit_length()
        work += SCAN_WORK_BOUND + 1 if big else math.comb(k, r) * _tuple_work(r, k, n_hi)
        _check_work(work, f"search over k {k_lo}..{k_hi} below n_hi {n_hi}")


def results_to_csv(results: Iterable[SearchResult]) -> str:
    """Rows (k, a_vector, threshold, n_hi); '-' marks no threshold."""
    lines = ["k,a_vector,threshold,n_hi\n"]
    for r in results:
        a = ",".join(map(str, r.spec.a))
        t = r.threshold if r.eventually_unimodal else "-"
        lines.append(f'{r.spec.k},"({a})",{t},{r.n_hi}\n')
    return "".join(lines)


def _defects_task(task: tuple[tuple[int, ...], tuple[int, ...], int]) -> list[list[int]]:
    a, deltas, n_hi = task
    defects: list[list[int]] = [[] for _ in deltas]
    for n, slices in qseries.iter_ck_slices(a, deltas, range(1, n_hi)):
        for bad, f in zip(defects, slices):
            if not f.is_unimodal():
                bad.append(n)
    return defects


def slice_defects(specs: Iterable[CrankSpec], n_hi: int, threads: int | None = None) -> list[list[int]]:
    """Per weight tuple, its non-unimodal n in 1 <= n < n_hi.

    The one slice scan: exhaustive_search reads its thresholds from these
    lists, check_family_unimodality its defects.  Slices need no symmetry
    check: the kernel builds each one as a mirrored half.  One task per
    distinct weight tuple packs its product once for all of its specs'
    parities; tasks start largest first (by _tuple_work), so no large product
    is left to run alone at the end.
    Results follow the order of `specs`, whatever the worker count.
    """
    if n_hi < 2:
        raise CrankspaceError(f"n_hi must be >= 2, got {n_hi}")
    specs = list(specs)
    parities: dict[tuple[int, ...], dict[int, None]] = {}  # insertion-ordered sets
    for spec in specs:
        parities.setdefault(spec.a, {})[spec.delta] = None
    tasks = sorted(((a, tuple(deltas), n_hi) for a, deltas in parities.items()), reverse=True,
                   key=lambda task: _tuple_work(len(task[0]), task[0][0], n_hi - 1))
    found = {a: dict(zip(deltas, bad)) for (a, deltas, _), bad
             in zip(tasks, _pool_map(_defects_task, tasks, threads))}
    return [found[spec.a][spec.delta] for spec in specs]
