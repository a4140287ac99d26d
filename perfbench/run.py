"""crankspace benchmark: closed-loop runs of real CLI invocations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs `src/crankspace`).  One client
sends operations one after another; each operation is a fresh `crankspace`
process.  The run repeats whole passes of its workload (see workloads.py)
while another pass still fits into S seconds, checks every operation's exit
code and output digest, and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates an untraced
pass with the same pass run through tracer.py, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced pass wall time).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from checks import digest, flip_one_byte
from workloads import SETUP_OP, WORKLOADS, Argv, all_ops, fans_out

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
GOLDEN = BENCH_DIR / "golden.json"
# What the installed `crankspace` console script runs.
ENTRY = "import sys; from crankspace.cli import main; sys.exit(main())"
SETUP_REPEATS = 7
# op_tail_s is this nearest-rank percentile of the operations' times.  It is
# fixed, so a faster program that fits more passes into a run is compared at
# the same percentile, and it falls inside one cost level of every workload
# rather than on the edge between two: the costliest of colored-quotients'
# and search-scan's three operations, the 7th of classical-claims' eight
# claims (conj1.1-part3), the 11th of poly-cold's 13 strata.
TAIL_PCT = 80
OP_TIMEOUT_S = 150.0
# Time of reference_loop() at reference host speed (close to its median on a
# quiet 2-core Xeon VM at 2.1 GHz under Python 3.11), and how many probes
# each CPU an operation runs on gets just before and just after it.  Short
# probes, several of them, so that the median skips those that a pause of
# the virtual CPU happened to hit.
REFERENCE_S = 0.007
PROBES_PER_CPU = 3

END_TO_END = [
    ("setup_s", "s"), ("total_s", "s"), ("cpu_s", "s"),
    ("op_p50_s", "s"), ("op_tail_s", "s"), ("peak_rss_mb", "MB"),
]
VERIFY_CLAIMS = sorted({op[op.index("verify") + 1] for op in all_ops()
                        if "verify" in op and op != SETUP_OP})
PER_LAYER = [
    ("qseries.ck_slices_s", "s"), ("qseries.ck_build_s", "s"), ("qseries.ck_unpack_s", "s"),
    ("qseries.kernel_shift_adds", "count"), ("qseries.rank_series_s", "s"),
    ("qseries.crank_series_s", "s"), ("qseries.series_order_sum", "count"),
    ("qseries.colored_coeffs_s", "s"),
    ("partitions.rank_poly_s", "s"), ("partitions.crank_poly_s", "s"),
    ("partitions.poly_calls", "count"), ("partitions.series_useful_ratio", "ratio"),
    ("cyclotomic.residue_s", "s"), ("cyclotomic.exact_quotient_s", "s"),
    ("cyclotomic.calls", "count"),
    ("laurent.predicates_s", "s"), ("laurent.predicate_calls", "count"),
    ("search.exhaustive_search_s", "s"), ("search.family_scan_s", "s"),
    ("search.tuples", "count"), ("search.pool_efficiency", "ratio"),
    ("verify.self_s", "s"),
    *[(f"verify.claim.{claim}_s", "s") for claim in VERIFY_CLAIMS],
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.worker_processes", "count"),
]


def reference_loop() -> float:
    """Wall time of fixed pure-Python work: a probe of the host's current speed.

    On a shared host the same operation can run 1.5x slower for seconds to
    minutes while neighbours are busy, and that slows CPU time as well as
    wall time; the two CPUs of a small VM can differ as much.  The runner
    times this work on the CPUs an operation runs on (all of them at once),
    just before and just after it, and divides the operation's times by its slowness: the median
    probe over REFERENCE_S.  Reported times therefore read as seconds at
    reference speed, and runs made in slow and fast spells compare.  It does not
    touch crankspace, so no change to the program moves it.  Half of it is
    small-integer bytecode, half big-integer shift-adds like the program's
    packed kernel, since a busy host slows the two kinds of work unequally.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(35_000):
        x += i * i % 7
    packed = [1] + [0] * 56
    for a in range(3):
        for n in range(1, 57):
            shift = 48 * (a + 3 * n)
            for m in range(n, 57):
                packed[m] += packed[m - n] << shift
    return time.perf_counter() - t0


class OpResult:
    def __init__(self, argv: Argv, wall: float, cpu: float, rss_mb: float, ok: bool,
                 stdout: bytes, trace_dir: Path | None, slowness: float):
        self.argv, self.wall, self.cpu, self.rss_mb = argv, wall, cpu, rss_mb
        self.ok, self.stdout, self.trace_dir, self.slowness = ok, stdout, trace_dir, slowness

    @property
    def t(self) -> float:
        """Wall seconds at reference speed."""
        return self.wall / self.slowness

    @property
    def c(self) -> float:
        """CPU seconds at reference speed."""
        return self.cpu / self.slowness


class Runner:
    """Starts operations with a pinned environment and checks their output."""

    def __init__(self, threads: int, golden: dict[str, str]):
        self.threads = threads
        self.golden = golden
        # No inherited PYTHON* or CRANKSPACE* setting: bytecode writing stays on
        # so the cache is warm, stdout stays buffered, and the worker count is
        # only ever the explicit --threads.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("PYTHON", "CRANKSPACE"))}
        self.env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
        # Serial operations run on the first CPU, operations that fan out on
        # the first `threads` CPUs; each is probed on the CPUs it runs on.
        self.cpus = sorted(os.sched_getaffinity(0))[:threads]

    def probe(self, cpus: list[int]) -> list[float]:
        """PROBES_PER_CPU timings of reference_loop() on each CPU, all at once.

        Several CPUs are probed together, by forked helpers, because an
        operation that fans out keeps them all busy, and a busy host slows
        two busy virtual CPUs more than one.
        """
        helpers = []
        for cpu in cpus[1:]:
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(rfd)
                os.sched_setaffinity(0, [cpu])
                timings = [reference_loop() for _ in range(PROBES_PER_CPU)]
                os.write(wfd, json.dumps(timings).encode())
                os._exit(0)
            os.close(wfd)
            helpers.append((pid, rfd))
        os.sched_setaffinity(0, cpus[:1])
        probes = [reference_loop() for _ in range(PROBES_PER_CPU)]
        for pid, rfd in helpers:
            with os.fdopen(rfd, "rb") as pipe:
                probes += json.loads(pipe.read())
            os.waitpid(pid, 0)
        return probes

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def check(self, argv: Argv, rc: int, stdout: bytes) -> bool:
        expected = self.golden.get(" ".join(argv))
        return rc == 0 and expected is not None and digest(argv, stdout) == expected

    def run(self, argv: Argv, traced: bool = False, threads: int | None = None) -> OpResult:
        trace_dir = None
        cmd = [sys.executable, "-c", ENTRY]
        if traced:
            trace_dir = Path(tempfile.mkdtemp(prefix="op-", dir=self.work))
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_dir)]
        cmd += ["--threads", str(threads or self.threads), *argv]
        cpus = self.cpus if fans_out(argv) else self.cpus[:1]
        probes = self.probe(cpus)
        os.sched_setaffinity(0, cpus)  # inherited by the operation and its pool
        with tempfile.TemporaryFile(dir=self.work) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=self.work, start_new_session=True)
            timer = threading.Timer(OP_TIMEOUT_S, os.killpg, (proc.pid, 9))
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = self.check(argv, proc.returncode, out)
        if not ok:
            print(f"FAILED (exit {proc.returncode}): crankspace {' '.join(argv)}", flush=True)
        probes += self.probe(cpus)
        return OpResult(argv, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                        ok, out, trace_dir, statistics.median(probes) / REFERENCE_S)


def self_check(runner: Runner, first: OpResult, rng: random.Random) -> bool:
    """An operation whose output differs by one byte must count as failed."""
    altered, pos = flip_one_byte(first.stdout, rng)
    byte_caught = not runner.check(first.argv, 0, altered)
    exit_caught = not runner.check(first.argv, 1, first.stdout)
    verdict = {True: "counted as failed", False: "NOT DETECTED"}
    print(f"self-check: byte {pos} of `{' '.join(first.argv)}` altered -> {verdict[byte_caught]}; "
          f"exit code 1 -> {verdict[exit_caught]}")
    return byte_caught and exit_caught


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def pass_time(passes: list[list[OpResult]]) -> float:
    return sum(r.t for p in passes for r in p) / len(passes)


def end_to_end(setup: list[OpResult], passes: list[list[OpResult]]) -> dict[str, float]:
    ops = [r for p in passes for r in p]
    walls = [r.t for r in ops]
    tail = nearest_rank(walls, TAIL_PCT)
    print(f"passes: {len(passes)}; op_tail_s is p{TAIL_PCT} of {len(walls)} "
          f"operations, {sum(w > tail for w in walls)} beyond it")
    return {
        "setup_s": statistics.median(r.t for r in setup),
        "total_s": pass_time(passes),
        "cpu_s": sum(r.c for r in ops) / len(passes),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail,
        "peak_rss_mb": max(r.rss_mb for r in ops),
    }


def _read_trace(trace_dir: Path) -> tuple[dict, list[dict]]:
    main = json.loads((trace_dir / "main.json").read_text())
    workers = []
    for path in sorted(trace_dir.glob("w*.jsonl")):
        workers.append([json.loads(line) for line in path.read_text().splitlines()])
    return main, workers


def layer_metrics(traced: list[OpResult]) -> dict[str, float]:
    """Per-layer figures of one traced pass: seconds at reference speed, summed
    over its operations (cli.import_s: median per operation)."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    claims = {claim: 0.0 for claim in VERIFY_CLAIMS}
    useful = cli_self = 0.0
    import_s, workers = [], 0
    for r in traced:
        main, worker_files = _read_trace(r.trace_dir)
        workers += len(worker_files)
        records = [main] + [rec for recs in worker_files for rec in recs]
        for rec in records:
            for name, (n, incl_s, self_s, outer_s) in rec["spans"].items():
                acc = spans.setdefault(name, [0, 0.0, 0.0, 0.0])
                acc[0] += n
                acc[1] += incl_s / r.slowness
                acc[2] += self_s / r.slowness
                acc[3] += outer_s / r.slowness
            for name, v in rec["counters"].items():
                counters[name] = counters.get(name, 0) + v
        useful += sum(main["max_n"].values())
        import_s.append(main["import_s"] / r.slowness)
        cli_self += (main["main_s"] - main["toplevel_s"]) / r.slowness
        if "verify" in r.argv:
            claim = r.argv[r.argv.index("verify") + 1]
            claims[claim] += sum(e for _, e in main["reports"]) / r.slowness

    def calls(*names):
        return sum(spans[n][0] for n in names if n in spans)

    def incl(*names):
        return sum(spans[n][1] for n in names if n in spans)

    def outer(*names):
        return sum(spans[n][3] for n in names if n in spans)

    ck_iter = ("qseries.iter_ck_slices.first", "qseries.iter_ck_slices.next")
    residue = ("cyclotomic.divides_standard", "cyclotomic.divides_negated", "cyclotomic.hat_sum")
    division = ("cyclotomic.exact_quotient", "cyclotomic.divides_by_division")
    predicates = tuple(f"laurent.{p}" for p in ("is_unimodal", "is_symmetric", "is_nonnegative"))
    built = sum(v for k, v in counters.items() if k.startswith("qseries.series_order."))
    out = {
        "qseries.ck_slices_s": outer("qseries.ck_slices_at", *ck_iter),
        "qseries.ck_build_s": incl(ck_iter[0]),
        "qseries.ck_unpack_s": incl(ck_iter[1]),
        "qseries.kernel_shift_adds": counters.get("qseries.kernel_shift_adds", 0),
        "qseries.rank_series_s": incl("qseries.rank_series"),
        "qseries.crank_series_s": incl("qseries.crank_series_corrected"),
        "qseries.series_order_sum": built,
        "qseries.colored_coeffs_s": incl("qseries.colored_coeffs"),
        "partitions.rank_poly_s": incl("partitions.rank_poly"),
        "partitions.crank_poly_s": incl("partitions.crank_poly"),
        "partitions.poly_calls": calls("partitions.rank_poly", "partitions.crank_poly"),
        "partitions.series_useful_ratio": useful / built if built else 0.0,
        "cyclotomic.residue_s": outer(*residue),
        "cyclotomic.exact_quotient_s": outer(*division),
        "cyclotomic.calls": calls(*residue, *division),
        "laurent.predicates_s": incl(*predicates),
        "laurent.predicate_calls": calls(*predicates),
        "search.exhaustive_search_s": incl("search.exhaustive_search"),
        "search.family_scan_s": incl("search.check_family_unimodality"),
        "search.tuples": calls("search.min_unimodal_threshold"),
        "verify.self_s": sum((v[2] for n, v in spans.items() if n.startswith("verify.")), 0.0),
        "cli.import_s": statistics.median(import_s),
        "cli.self_s": cli_self,
        "trace.worker_processes": workers,
    }
    out.update({f"verify.claim.{c}_s": v for c, v in claims.items()})
    return out


def traced_run(workload, runner: Runner, rng: random.Random, seconds: float):
    """Alternate an untraced pass with the same pass traced; return per-layer figures."""
    plain, traced = [], []
    start = time.perf_counter()
    for ops in workload.passes(rng):
        plain.append([runner.run(op) for op in ops])
        traced.append([runner.run(op, traced=True) for op in ops])
        pair = sum(r.wall for r in plain[-1] + traced[-1])
        if time.perf_counter() - start + pair > seconds:
            break
    # Pool efficiency: the same scan at one worker against the pinned worker count.
    scan = ("search", "table1")
    single = runner.run(scan, threads=1) if runner.threads > 1 and scan in ops else None
    per_pass = [layer_metrics(p) for p in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = pass_time(traced) - pass_time(plain)
    print(f"traced passes: {len(traced)}; untraced pass {pass_time(plain):.4f} s, "
          f"traced pass {pass_time(traced):.4f} s (at reference speed)")
    metrics["search.pool_efficiency"] = 0.0
    if single is not None:
        pooled = statistics.median(r.t for p in plain for r in p if r.argv == scan)
        metrics["search.pool_efficiency"] = single.t / (runner.threads * pooled)
    elif scan in ops:
        print("search.pool_efficiency unmeasured: one worker only")
    pooled_ops = any(fans_out(op) for op in ops) and runner.threads > 1
    if pooled_ops and metrics["trace.worker_processes"] == 0:
        print("unmeasured: no pool worker wrote spans; search.tuples and the worker-side "
              "qseries and laurent times read low")
    return metrics, [r for p in plain + traced for r in p] + ([single] if single else [])


def environment(threads: int) -> dict:
    lines, h = {}, hashlib.sha256()
    for path in sorted((SRC / "crankspace").glob("*.py")):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cores": os.cpu_count(), "threads": threads, "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit, "src_sha256": h.hexdigest()[:16],
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "crankspace" / "cli.py").is_file():
        print(f"error: {SRC / 'crankspace'} not found; run from a checkout root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    threads = min(2, os.cpu_count() or 1)
    BUILD.mkdir(exist_ok=True)
    runner = Runner(threads, json.loads(GOLDEN.read_text()))
    rng = random.Random(f"{workload.name}:{args.seed}")
    try:
        print("env: " + json.dumps(environment(threads), sort_keys=True))
        runner.run(SETUP_OP)  # warms the bytecode cache; not timed
        if args.trace:
            metrics, ops = traced_run(workload, runner, rng, args.seconds)
            units, setup = dict(PER_LAYER), []
        else:
            setup = [runner.run(SETUP_OP) for _ in range(SETUP_REPEATS)]
            passes = []
            start = time.perf_counter()
            for pass_ops in workload.passes(rng):
                passes.append([runner.run(op) for op in pass_ops])
                if time.perf_counter() - start + sum(r.wall for r in passes[-1]) > args.seconds:
                    break
            print("pass wall s, as measured: "
                  + " ".join(f"{sum(r.wall for r in p):.3f}" for p in passes) + "; median slowness "
                  + f"{statistics.median(r.slowness for p in passes for r in p):.4f}")
            metrics = end_to_end(setup, passes)
            ops = [r for p in passes for r in p]
            units = dict(END_TO_END)
        checked = self_check(runner, ops[0], rng)
    finally:
        runner.close()
    failed = sum(not r.ok for r in ops)
    print(f"workload {workload.name}, seed {args.seed}: failed_ratio = {failed}/{len(ops)} "
          f"= {failed / len(ops):.4f}; times in seconds at reference speed")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6f} {units[name]}")
    result = {
        "correct": failed == 0 and all(r.ok for r in setup) and checked,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
