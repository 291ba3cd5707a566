"""Closed-loop benchmark for bslim: one client, one thread, one process.

Usage, from the repository root:

    python3 benchmarks/run.py --workload reduce --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1      # every workload in turn

The client issues the next query only when the previous one has returned,
as a script calling the library would.  A run generates its workload's
inputs from the seed, issues queries from the workload's pool, cycling,
for ``--seconds`` seconds (and at least 200 distinct queries, so
``latency_p95_ms`` has ten samples beyond it), caps each query's
wall-clock time with ``SIGALRM`` and records a query over its cap as
failed, then checks every answer outside the timed region.

Times are CPU time of the single client thread (``time.process_time``),
scaled to a host of fixed speed.  The client never waits on I/O, so on a
dedicated machine CPU time and wall-clock time agree, while on a shared
virtual machine the wall clock also counts the time the hypervisor gives
to other guests (steal time).  The CPU itself also runs about 1.5 times
slower or faster as other guests load the host, so a ``Gauge`` times a
fixed kernel of the benchmark's own code between the queries and each
query's CPU time is scaled by the speed measured around it: a figure reads
what it would on a host where the kernel takes ``GAUGE_KERNEL_MS``.  The
mean scale factor and the wall-clock rate are printed beside the figures.

The measured window holds two kinds of work.  Warm queries run in this
process, the pool at least twice over: per distinct query the latency is
the mean of its issues after the first, a warm-up; the latency
percentiles and ``queries_per_s`` (distinct queries over the sum of those
latencies) follow from them, and the wall-clock rate over all issues is
printed beside them.  Between warm queries, at evenly
spaced times, fresh interpreters time the set-up (``setup_s``) and one
cold pass over every query of the workload (``cold_pass_s``), which pays
what a first call pays: digit memos, the enumeration cache, the CLI's
first parser.  The answers of the cold passes are checked as well.
The named conjugacy stress queries, which always go over the cap, run
only in ``selftest.py``: no query of a measured run should fail.

The run prints a readable report and, as the last line of stdout, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  The exit code is 1 when an answer is wrong, a query
raised or a query went over its cap.

With ``--trace 1`` the wrappers in ``tracing.py`` are installed, the run
is repeated untraced in a fresh interpreter over the same queries to
measure the tracing overhead (its answers are checked too), and the spans
are written to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import itertools
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import reference as R  # noqa: E402
import workloads as W  # noqa: E402

MIN_QUERIES = 200
HARD_LIMIT_S = 120.0  # stop issuing even short of the minimum, to exit well within 180 s
# String hashes set the order in which sets iterate, in the package as in the
# benchmark; with a random hash seed per process, conjugacy runs of one seed
# differed by about 5% between processes.
HASH_SEED = "0"
SETUP_PROBES = 21
COLD_PASSES = 3
GAUGE_KERNEL_MS = 0.5  # nominal CPU time of one gauge kernel
GAUGE_EVERY_MS = 5.0  # query CPU time between two gauge samples
GAUGE_SETUP_SAMPLES = 40
GAUGE_REACH_MS = 10.0  # query CPU time, before and after a query, whose samples gauge it


# --- the host's speed ------------------------------------------------------------------


class Gauge:
    """The host's speed, from a fixed kernel of the benchmark's own code
    (``reference.py``: free reduction, digits, a wreath image) timed
    between queries.

    As other guests load the host, its CPU runs in a fast and a slow state
    about 1.5 times apart; it switches within fractions of a second, and
    the mix of the two changes for minutes at a time, so a query's CPU time
    depends on when it ran.  Timed after every ``GAUGE_EVERY_MS`` of query
    CPU time, the kernel sees the state each query ran in, and
    ``rescale()`` takes each query's CPU time, through the samples taken
    around it, to a host of fixed speed: one on which the kernel takes
    ``GAUGE_KERNEL_MS``.  The kernel does not touch ``bslim``, so a
    change to the package moves the scaled figures as it moves the raw
    ones."""

    def __init__(self):
        rng = random.Random(0)
        self.word = "".join(rng.choice("aAbB") for _ in range(3000))
        self.marks: list[float] = []  # query CPU time (ms) spent before each sample
        self.kernel_ns: list[int] = []
        self._kernel()  # warm-up, untimed

    def _kernel(self) -> None:
        R.free_reduce(self.word)
        R.digits(3, "rat:1/2", 24)
        R.wreath_image(self.word[:300])

    def sample(self, mark: float = 0.0) -> None:
        t0 = time.process_time_ns()
        self._kernel()
        self.kernel_ns.append(time.process_time_ns() - t0)
        self.marks.append(mark)

    def scale(self) -> float:
        """Factor from CPU time measured here to CPU time at the nominal
        speed, over all samples."""
        return GAUGE_KERNEL_MS * 1e6 * len(self.kernel_ns) / sum(self.kernel_ns)

    def rescale(self, records: list) -> list:
        """The records with each CPU time scaled by the speed of the samples
        taken within ``GAUGE_REACH_MS`` of query CPU time before and after
        it, or within its own length, if longer: a long query spans many
        switches of state, and the samples must too."""
        prefix = list(itertools.accumulate(self.kernel_ns, initial=0))
        out, start = [], 0.0
        for qid, status, ms in records:
            reach = max(ms, GAUGE_REACH_MS)
            lo = bisect.bisect_left(self.marks, start - reach)
            hi = bisect.bisect_right(self.marks, start + ms + reach)
            lo, hi = min(lo, len(self.marks) - 1), max(hi, lo + 1)
            mean_ns = (prefix[hi] - prefix[lo]) / (hi - lo)
            out.append((qid, status, ms * GAUGE_KERNEL_MS * 1e6 / mean_ns))
            start += ms
        return out


# --- loading the package and building contexts ----------------------------------------


def import_package(workload: str):
    """Import bslim from the checkout's src/ and return its modules."""
    if not (SRC / "bslim" / "__init__.py").is_file():
        raise SystemExit(f"error: no bslim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ["madic", "lattice", "group", "bsclassic"]
    if workload == "session":
        names.append("cli")
    importlib.import_module("bslim")
    return SimpleNamespace(**{n: importlib.import_module(f"bslim.{n}") for n in names})


def build_contexts(lib, specs):
    return [lib.lattice.GroupCtx.make(m, xi) for m, xi in specs]


def probe_setup(workload: str, specs_json: str) -> None:
    """Body of one fresh interpreter: time importing bslim and building the
    workload's specs and contexts, then gauge the host's speed."""
    specs = json.loads(specs_json)
    t0 = time.process_time()
    lib = import_package(workload)
    build_contexts(lib, specs)
    spent = time.process_time() - t0
    gauge = Gauge()
    for _ in range(GAUGE_SETUP_SAMPLES):
        gauge.sample()
    print(json.dumps({"setup_s": spent * gauge.scale()}))


def replay(args, count: int) -> dict:
    """Run the first ``count`` queries of the schedule in a fresh
    interpreter; return its wall time and checked outcome."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--replay", str(count)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SideJobs:
    """Set-up probes and cold passes, each in a fresh interpreter, run
    between warm queries at evenly spaced times of the window, so that the
    host's drift over the window reaches them as it reaches the warm
    queries."""

    def __init__(self, args, inputs):
        n = SETUP_PROBES + COLD_PASSES
        every = n // COLD_PASSES
        self.jobs = [(j * args.seconds / n, "cold" if j % every == 0 else "setup")
                     for j in range(n)]
        self.args, self.inputs = args, inputs
        self.setup: list[float] = []
        self.cold: list[dict] = []
        self.spent = 0.0

    def __call__(self, elapsed: float) -> None:
        """Run the jobs due at ``elapsed`` seconds into the window."""
        while self.jobs and self.jobs[0][0] <= elapsed:
            self._run(self.jobs.pop(0)[1])

    def finish(self) -> None:
        while self.jobs:
            self._run(self.jobs.pop(0)[1])

    def _run(self, kind: str) -> None:
        t0 = time.perf_counter()
        if kind == "setup":
            cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                   self.args.workload, json.dumps(self.inputs["specs"])]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
            self.setup.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        else:
            self.cold.append(replay(self.args, len(self.inputs["pool"])))
        self.spent += time.perf_counter() - t0


# --- the closed loop -------------------------------------------------------------------


class QueryTimeout(BaseException):
    """Raised by the alarm inside a query that went over its cap.  A
    BaseException, so no ``except Exception`` in the package swallows it."""


class Cap:
    """Per-query wall-clock cap through SIGALRM, for single-threaded code."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise QueryTimeout()

    def __enter__(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def schedule(inputs: dict, i: int) -> dict:
    """Query number i: named fixed queries at their positions, otherwise the
    pool in order, cycling."""
    fixed = inputs["fixed"]
    if str(i) in fixed:
        return fixed[str(i)]
    before = sum(1 for pos in fixed if int(pos) < i)
    pool = inputs["pool"]
    return pool[(i - before) % len(pool)]


def run_loop(workload, lib, inputs, seconds, count=None, tracer=None, between=None,
             gauge=None):
    """Issue queries until ``seconds`` have passed and both MIN_QUERIES and
    two passes over the pool are done (or exactly ``count`` queries).
    ``between(elapsed)``, if given, runs before each query; the time it
    takes counts toward ``seconds`` but not toward the returned wall time.
    ``gauge``, if given, is sampled after every ``GAUGE_EVERY_MS`` of query
    CPU time.  Returns the records (query id, status, CPU time in ms), the
    answers of the queries that returned, and the wall time.  The status is
    "ok", "timeout" or "error: <exception>"."""
    run = W.RUNNERS[workload]
    keep = W.KEEPERS.get(workload, lambda q, answer: answer)
    ctxs = build_contexts(lib, inputs["specs"])
    cap = Cap(W.CAPS[workload])
    # a traced run is followed by an untraced replay of the same queries
    limit = HARD_LIMIT_S if tracer is None else HARD_LIMIT_S / 2
    # the first pass warms up; summarize() leaves it out of the latencies
    least = max(MIN_QUERIES, 2 * (len(inputs["pool"]) + len(inputs["fixed"])))
    records, answers = [], {}
    spent = since_gauge = 0.0
    if gauge is not None:
        gauge.sample(spent)
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        if between is not None:
            between(clock() - start)
        now = clock()
        if count is not None:
            if i >= count:
                break
        elif (i >= least and now - start >= seconds) or now - start >= limit:
            break
        q = schedule(inputs, i)
        status, answer = "ok", None
        t0 = time.process_time_ns()
        try:
            with cap:
                if tracer is None:
                    answer = run(lib, ctxs, q)
                else:
                    with tracer.query(q["id"]):
                        answer = run(lib, ctxs, q)
        except QueryTimeout:
            status = "timeout"
            # an interrupted query may leave a digit memo half extended
            k = q["args"][0]
            if isinstance(k, int) and q["op"] != "xfp":
                ctxs[k] = build_contexts(lib, [inputs["specs"][k]])[0]
        except Exception as exc:  # a raising query is a failed query, not a crash
            status = f"error: {type(exc).__name__}: {exc}"[:200]
        t1 = time.process_time_ns()
        records.append((q["id"], status, (t1 - t0) / 1e6))
        spent += (t1 - t0) / 1e6
        since_gauge += (t1 - t0) / 1e6
        if gauge is not None and since_gauge >= GAUGE_EVERY_MS:
            gauge.sample(spent)
            since_gauge = 0.0
        if status == "ok":
            answers[q["id"]] = keep(q, answer)
        i += 1
    if between is not None:
        between.finish()
    wall = clock() - start - (between.spent if between is not None else 0.0)
    return records, answers, wall


# --- reporting ----------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "commit": git_commit(),
        "load": "closed loop, 1 client, 1 process, 1 thread (the machine may be shared)",
    }


def summarize(records, wall, wrong):
    # A query's latency is the mean of its issues after the first.  The
    # first issue pays the first-call costs, which the cold passes measure;
    # it counts only for a query issued once.  The host's speed switches
    # between a fast and a slow state every second or two, so a query's
    # issues come from both; a mean moves with the share of each, where a
    # median jumps from one state to the other.  The rate follows from the
    # same latencies (steady state, caches warm); the wall-clock rate over
    # all issues is reported beside it.
    issues: dict[str, list[float]] = {}
    for qid, _, ms in records:
        issues.setdefault(qid, []).append(ms)
    lat = [statistics.fmean(v[1:] or v) for v in issues.values()]
    timeouts = [qid for qid, status, _ in records if status == "timeout"]
    errors = [qid for qid, status, _ in records if status.startswith("error")]
    failed_ids = set(timeouts) | set(errors) | set(wrong)
    failed = sum(1 for qid, status, _ in records if status != "ok" or qid in wrong)
    p95 = percentile(lat, 95)
    return {
        "attempted": len(records),
        "failed": failed,
        "failed_ids": sorted(failed_ids),
        "timeouts": sorted(set(timeouts)),
        "errors": sorted(set(errors)),
        "queries_per_s": len(lat) / (sum(lat) / 1000),
        "wall_queries_per_s": len(records) / wall,
        "latency_p50_ms": statistics.median(lat),
        "latency_p95_ms": p95,
        "beyond_p95": sum(1 for x in lat if x > p95),
        "distinct": len(lat),
        "wall_s": wall,
    }


def cpu_seconds(records) -> float:
    return sum(ms for _, _, ms in records) / 1000


def run_replay(args, lib, inputs) -> int:
    """Body of a fresh interpreter: the first ``args.replay`` queries of the
    schedule, then the answer checks."""
    gauge = Gauge()
    records, answers, wall = run_loop(args.workload, lib, inputs, 0, count=args.replay,
                                      gauge=gauge)
    wrong = W.CHECKERS[args.workload](lib, inputs, answers)
    s = summarize(records, wall, wrong)
    print(json.dumps({
        "wall_s": wall, "cpu_s": cpu_seconds(gauge.rescale(records)),
        "attempted": s["attempted"], "failed": s["failed"],
        "timeouts": s["timeouts"],
        "raised": {qid: status for qid, status, _ in records if status.startswith("error")},
        "wrong": wrong,
    }))
    return 0


def run_workload(args) -> int:
    workload, seed = args.workload, args.seed
    lib = import_package(workload)
    # The named stress queries always go over the cap; they run only in
    # selftest.py, so that no query of a measured run fails.
    inputs = {**W.generate(workload, seed), "fixed": {}}
    if args.replay is not None:
        return run_replay(args, lib, inputs)

    tracer = side = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        side = SideJobs(args, inputs)
    gauge = Gauge()
    records, answers, wall = run_loop(workload, lib, inputs, args.seconds,
                                      tracer=tracer, between=side, gauge=gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    wrong = W.CHECKERS[workload](lib, inputs, answers)
    records = gauge.rescale(records)
    s = summarize(records, wall, wrong)
    raised = {qid: status for qid, status, _ in records if status.startswith("error")}
    timeouts = list(s["timeouts"])
    attempted, failed = s["attempted"], s["failed"]
    # fresh interpreters: the cold passes, or the untraced replay of a traced run
    children = side.cold if side is not None else [replay(args, len(records))]
    for n, child in enumerate(children, 1):
        tag = f" (cold pass {n})" if side is not None else " (untraced replay)"
        attempted += child["attempted"]
        failed += child["failed"]
        timeouts += [qid + tag for qid in child["timeouts"]]
        raised.update({qid + tag: status for qid, status in child["raised"].items()})
        wrong.update({qid + tag: why for qid, why in child["wrong"].items()})
    env = environment(seed)

    print(f"workload {workload}  seed {seed}  trace {args.trace}  "
          f"(closed loop, 1 client, 1 thread; cap {W.CAPS[workload]} s per query)")
    print(f"  CPU times scaled to the nominal host speed, by {gauge.scale():.4f} on average "
          f"({len(gauge.kernel_ns)} gauge samples)")
    if tracer is None:
        one_pass = len(inputs["pool"])
        metrics = {
            "queries_per_s": (s["queries_per_s"], "1/s",
                              f"{s['distinct']} warm queries / sum of their latencies; wall: "
                              f"{s['attempted']} in {s['wall_s']:.2f} s = "
                              f"{s['wall_queries_per_s']:.2f}/s"),
            "latency_p50_ms": (s["latency_p50_ms"], "ms", f"n={s['distinct']} queries, mean of "
                               f"{s['attempted'] / s['distinct'] - 1:.1f} issues each "
                               "after a warm-up issue"),
            "latency_p95_ms": (s["latency_p95_ms"], "ms",
                               f"n={s['distinct']}, {s['beyond_p95']} samples beyond"),
            "cold_pass_s": (statistics.fmean(c["cpu_s"] for c in side.cold), "s",
                            f"mean of {len(side.cold)} fresh interpreters, "
                            f"{one_pass} queries each"),
            "failed_frac": (failed / attempted, "ratio", f"{failed} of {attempted}"),
            "setup_s": (statistics.median(side.setup), "s",
                        f"median of {len(side.setup)} fresh interpreters"),
            "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of the warm-query process"),
        }
        for name, (value, unit, note) in metrics.items():
            print(f"  {name:<16} {value:>12.4f} {unit:<6} ({note})")
        reported = {k: v for k, v in metrics.items() if k != "failed_frac"}
    else:
        layer = tracer.metrics()
        layer["madic.digits_s"] = digits_time(lib, tracer)
        layer["trace.overhead_frac"] = cpu_seconds(records) / children[0]["cpu_s"] - 1
        write_trace(tracer, workload, seed)
        for name in sorted(layer):
            print(f"  {name:<28} {layer[name]:>14.6g}")
        reported = {k: (v, unit_of(k)) for k, v in layer.items()}
    for qid in timeouts:
        print(f"  over cap: {qid}")
    for qid, status in raised.items():
        print(f"  raised: {qid}: {status}")
    for qid, why in sorted(wrong.items()):
        print(f"  wrong: {qid}: {why}")
    print("  env: " + json.dumps(env))

    correct = not wrong and not raised and not timeouts
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in reported.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload}-s{seed}-t{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "summary": s, "wrong": wrong,
                    "timeouts": timeouts}, indent=1)
    )
    print(json.dumps(result))
    return 0 if correct else 1


def digits_time(lib, tracer) -> float:
    """Seconds for a fresh digit stream per spec, at the depth the run reached."""
    depth: dict[object, int] = {}
    for stream, i in tracer.stream_depth.items():
        depth[stream.spec] = max(depth.get(stream.spec, 0), i)
    total = 0.0
    for spec, d in depth.items():
        t0 = time.process_time()
        lib.madic.RDigitStream(spec).digits(d)
        total += time.process_time() - t0
    return total


def write_trace(tracer, workload: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-s{seed}.json"
    path.write_text(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns", "note"],
                                "spans": tracer.spans}, default=str))


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "bits" if metric.endswith("bits_max") else "count"


def run_all(args) -> int:
    status = 0
    for workload in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, timeout=900).returncode
    return status


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=W.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--probe-setup", nargs=2, metavar=("WORKLOAD", "SPECS"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe_setup:
        probe_setup(*args.probe_setup)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
