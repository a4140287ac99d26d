"""Run one crankspace invocation with every layer's public functions timed.

    python3 perfbench/tracer.py TRACE_DIR [crankspace argv ...]

behaves like the `crankspace` command, and also writes what it measured to
TRACE_DIR: `main.json` from this process, and `w<pid>.jsonl` from each pool
worker it forks.  The program's source is not touched: every public function
of the layers below the CLI is replaced by a timing wrapper, both in the
module that defines it and in every crankspace module that imported it by
name (so `verify.exact_quotient` is timed as well as
`cyclotomic.exact_quotient`).  LaurentPoly's predicate methods are wrapped on
the class.

Per span name the tracer keeps four numbers: calls, inclusive seconds, self
seconds (minus directly nested traced spans) and outer seconds (inclusive,
counted only when no span of the same layer encloses it).  A generator
function's span is split into its first `next()` (`<name>.first`) and the
later ones (`<name>.next`).  Pool workers inherit the wrappers through
fork; they start with an empty record and append it to their file after each
top-level span, because the pool ends them with SIGTERM, which skips any
exit hook.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("verify", "search", "partitions", "qseries", "cyclotomic")
PREDICATES = ("is_unimodal", "is_symmetric", "is_nonnegative")
CK_FUNCTIONS = ("ck_slices_at", "iter_ck_slices", "ck_series")
SERIES_FUNCTIONS = {"rank_series": "rank", "crank_series_corrected": "crank"}
POLY_FUNCTIONS = {"rank_poly": "rank", "crank_poly": "crank"}


def _pentagonal(limit: int) -> list[int]:
    out, j = [], 1
    while j * (3 * j - 1) // 2 <= limit:
        out += [g for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if g <= limit]
        j += 1
    return out


def kernel_shift_adds(spec, order: int) -> int:
    """Shift-adds the packed colored kernel performs for (spec, order).

    Computed, not counted: each of the 2r geometric families does
    sum_{n=1..order} (order - n + 1) shift-adds, and odd k adds one pass per
    generalized pentagonal number g <= order of (order - g + 1).
    """
    total = 2 * len(spec.a) * order * (order + 1) // 2
    if spec.k % 2:
        total += sum(order - g + 1 for g in _pentagonal(order))
    return total


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.origin = os.getpid()
        self.worker_file = None
        self.stack: list[list] = []
        self.clear()

    def clear(self) -> None:
        self.spans: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.max_n: dict[str, int] = {}
        self.reports: list[list] = []
        self.toplevel_s = 0.0

    def after_fork(self) -> None:
        self.stack = []
        self.worker_file = None
        self.clear()

    def enter(self, name: str, layer: str) -> None:
        self.stack.append([name, layer, time.perf_counter(), 0.0])

    def leave(self) -> None:
        name, layer, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if all(frame[1] != layer for frame in self.stack):
            rec[3] += dur
        if self.stack:
            self.stack[-1][3] += dur
            return
        self.toplevel_s += dur
        if os.getpid() != self.origin:
            self.flush_worker()

    def record(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "max_n": self.max_n,
                "reports": self.reports, "toplevel_s": self.toplevel_s}

    def flush_worker(self) -> None:
        if self.worker_file is None:
            path = os.path.join(self.out_dir, f"w{os.getpid()}.jsonl")
            self.worker_file = open(path, "a", encoding="utf-8")
        self.worker_file.write(json.dumps(self.record()) + "\n")
        self.worker_file.flush()
        self.clear()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


def _on_call(tracer: Tracer, module: str, fname: str, fn):
    """A hook that records the counters derived from one call's arguments."""
    sig = inspect.signature(fn)
    if module == "qseries" and fname in CK_FUNCTIONS:
        def hook(args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            order = bound["n_hi"] - 1 if "n_hi" in bound else bound.get("order")
            if "spec" in bound and order is not None:
                tracer.count("qseries.kernel_shift_adds", kernel_shift_adds(bound["spec"], order))
        return hook
    if module == "qseries" and fname in SERIES_FUNCTIONS:
        key = "qseries.series_order." + SERIES_FUNCTIONS[fname]

        def hook(args, kwargs):
            tracer.count(key, sig.bind(*args, **kwargs).arguments.get("order", 0))
        return hook
    if module == "partitions" and fname in POLY_FUNCTIONS:
        key = POLY_FUNCTIONS[fname]

        def hook(args, kwargs):
            n = sig.bind(*args, **kwargs).arguments.get("n", 0)
            tracer.max_n[key] = max(tracer.max_n.get(key, 0), n)
        return hook
    return None


def _wrap(tracer: Tracer, layer: str, name: str, fn, hook=None):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if hook:
                hook(args, kwargs)
            it = fn(*args, **kwargs)
            part = ".first"
            try:
                while True:
                    tracer.enter(name + part, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave()
                    part = ".next"
                    yield item
            finally:
                it.close()
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook:
            hook(args, kwargs)
        tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if type(result).__name__ == "Report":
            tracer.reports.append([result.claim_id, result.elapsed_s])
        return result
    return wrapper


def install(out_dir: str) -> Tracer:
    """Wrap every layer's public functions in all crankspace modules."""
    tracer = Tracer(out_dir)
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "crankspace" or key.startswith("crankspace."))]
    for layer in LAYERS:
        module = sys.modules[f"crankspace.{layer}"]
        for fname, fn in list(vars(module).items()):
            if fname.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            wrapped = _wrap(tracer, layer, f"{layer}.{fname}", fn,
                            _on_call(tracer, layer, fname, fn))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
    poly_cls = sys.modules["crankspace.laurent"].LaurentPoly
    for meth in PREDICATES:
        setattr(poly_cls, meth, _wrap(tracer, "laurent", f"laurent.{meth}",
                                      getattr(poly_cls, meth)))
    os.register_at_fork(after_in_child=tracer.after_fork)
    return tracer


def main(argv: list[str]) -> int:
    out_dir, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    from crankspace import cli
    import_s = time.perf_counter() - t0
    tracer = install(out_dir)
    t1 = time.perf_counter()
    try:
        rc = cli.main(cli_argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        main_s = time.perf_counter() - t1
        sys.stdout.flush()
        rec = tracer.record()
        rec.update(import_s=import_s, main_s=main_s)
        with open(os.path.join(out_dir, "main.json"), "w", encoding="utf-8") as fh:
            json.dump(rec, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
