"""holodiff benchmark: closed-loop request workloads with a correctness gate.

    python3 perfbench/run.py --workload siegel-g8 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload fay-g2 --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --smoke

One client sends one request at a time and the next starts only when the
previous one returned.  The run draws a fixed set of distinct requests
from the seed and repeats the set in rounds until the time is up; each
request's latency is its fastest run, scaled to the reference speed of
``speed.py``.  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced rounds and prints the per-layer table.  The last line of
stdout is one JSON object.  See README.md in this directory for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads.  The requests multiply small
# matrices; with the default of one thread per CPU, idle BLAS threads
# spin on the few shared CPUs and the timings measure the scheduler.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gate import MalformedReport, check_report  # noqa: E402
from speed import REFERENCE_S, reference_seconds, scaled  # noqa: E402
from tracing import PER_LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

# theta-g4 runs like the others but is left out of BENCHMARK.json: its
# lattice sums stream large arrays, which do not slow down with the host
# the way the reference work does, so its scaled timings still spread
# too far between runs to bound.
WORKLOAD_NAMES = ("theta-g4", "fay-g2", "petri-quintic", "siegel-g8")
END_TO_END_METRICS = (
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("pass_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_SAMPLES = 13
SETUP_TIMEOUT_S = 120
WARMUP_REQUESTS = 2
MIN_ROUNDS = 2  # a run never stops before every request has run this often
_MS_FIELD = re.compile(r" ms=\d+")


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_package():
    """Import holodiff from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import holodiff
    except ImportError as exc:
        raise BenchmarkError(f"cannot import holodiff from {src}: {exc}") from None
    if Path(holodiff.__file__).resolve().parent != (src / "holodiff").resolve():
        raise BenchmarkError(f"holodiff was imported from {holodiff.__file__}, not {src}")
    import workloads
    return workloads


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = ",".join(f"{k}={os.environ.get(k)}" for k in BLAS_THREAD_VARS)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads + " (set by the benchmark)",
        "commit": commit,
        "benchmark_threads": 1,
    }


def time_setup(workload: str, seed: int) -> float:
    """Wall time from process start to ready-for-the-first-request.

    The sample is a fresh interpreter running ``--setup-only``, waited
    for before this returns.  It is not scaled to the reference speed:
    start-up is mostly process creation, imports and page faults, whose
    time did not follow the reference readings.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = perf_counter()
        rest, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise BenchmarkError(f"set-up process failed (exit {proc.returncode}): "
                             f"{(line + rest).strip()[:500]}")
    return t1 - t0


def tail_stats(latencies, pct):
    """The pct-th percentile and how many requests lie beyond it."""
    value = float(np.percentile(latencies, pct))
    return value, sum(1 for x in latencies if x > value)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            n_requests: int | None = None, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload and return its metrics and bookkeeping.

    The loop runs the workload's distinct requests in rounds, in the
    same order each round, until `seconds` have passed and every request
    has run at least MIN_ROUNDS times; it may stop part-way through a
    round.  Each run is timed between two readings of the reference work
    (`speed.py`) and scaled to the reference speed.  A request's latency
    is its fastest scaled run.  Every run of a request must return the
    same report, timings aside.  With `trace`, odd rounds run traced.
    The set-up samples are taken between requests, spread evenly over
    the run, so that their median covers the same stretch of time as
    the requests.  `n_requests` overrides the workload's request count;
    only smoke mode uses it.
    """
    wmod = import_package()
    wl = wmod.WORKLOADS[workload]
    requests = wmod.set_up(workload, seed, n_requests)
    count = len(requests)

    def gated(req, code, text):
        try:
            return check_report(text, command=req.command, seed=req.seed,
                                expected_checks=wl.checks, exit_code=code)
        except MalformedReport as exc:
            raise BenchmarkError(f"malformed report for request seed {req.seed}: {exc}\n{text}") from None

    for req in requests[:WARMUP_REQUESTS]:  # lazy imports and caches, untimed
        gated(req, *wl.run(req))

    tracer = Tracer() if trace else None
    first = [None] * count  # each request's report in its first round, timings zeroed
    best = [float("inf")] * count  # fastest untraced run, at the reference speed
    best_traced = [float("inf")] * count
    best_wall = [float("inf")] * count  # fastest untraced run, unscaled
    refs = []
    checks_run = checks_failed = failed_ops = 0
    failed_by_check = {}
    setup = []
    n = 0
    ref_before = reference_seconds()
    start = perf_counter()
    while True:
        if (len(setup) < setup_samples
                and perf_counter() - start >= len(setup) * seconds / setup_samples):
            setup.append(time_setup(workload, seed))
            ref_before = reference_seconds()
        i, rnd = n % count, n // count
        req = requests[i]
        use_trace = trace and rnd % 2 == 1
        if use_trace:
            tracer.request = n
            tracer.install()
        raised = False
        t0 = perf_counter()
        try:
            code, text = wl.run(req)
        except Exception as exc:  # an operation that produced no verdict
            raised, code, text = True, None, f"{type(exc).__name__}: {exc}"
            print(f"request {req.seed} raised {text}", file=sys.stderr)
        dt = perf_counter() - t0
        if use_trace:
            tracer.uninstall()
        ref_after = reference_seconds()
        refs.append(ref_after)
        dt_ref = scaled(dt, ref_before, ref_after)
        ref_before = ref_after
        if use_trace:
            best_traced[i] = min(best_traced[i], dt_ref)
        else:
            best[i] = min(best[i], dt_ref)
            best_wall[i] = min(best_wall[i], dt)
        n += 1

        no_verdict = raised or (code is not None and code not in (0, 1))
        failed_ops += no_verdict
        if rnd == 0:
            failed = ([f"{name}:no-verdict" for name in wl.checks] if no_verdict
                      else gated(req, code, text).failed_checks)
            checks_run += len(wl.checks)
            checks_failed += len(failed)
            for name in failed:
                failed_by_check[name] = failed_by_check.get(name, 0) + 1
            first[i] = (code, _MS_FIELD.sub(" ms=0", text))
        elif (code, _MS_FIELD.sub(" ms=0", text)) != first[i]:
            raise BenchmarkError(f"request {req.seed} is not deterministic:\n"
                                 f"{first[i][1]}---\n{text}")
        if (n >= MIN_ROUNDS * count and len(setup) == setup_samples
                and perf_counter() - start >= seconds):
            break
    wall = perf_counter() - start

    tail, beyond = tail_stats(best, wl.tail_pct)
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": n, "failed": failed_ops,
        "requests": count, "rounds": n / count, "wall_rate": n / wall,
        "wall_p50_ms": 1e3 * statistics.median(best_wall),
        "ref_ms": (1e3 * min(refs), 1e3 * statistics.median(refs)),
        "checks_run": checks_run, "checks_failed": checks_failed,
        "failed_by_check": dict(sorted(failed_by_check.items())),
        "setup_samples_s": setup,
        "tail_pct": wl.tail_pct, "tail_beyond": beyond,
        "metrics": {},
    }
    if not trace:
        result["metrics"] = {
            "req_per_s": count / sum(best),
            "req_p50_ms": 1e3 * statistics.median(best),
            "req_tail_ms": 1e3 * tail,
            "pass_share": 1.0 - checks_failed / checks_run,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
    else:
        traced_runs = sum(1 for k in range(n) if (k // count) % 2 == 1)
        per_func, per_layer = tracer.table(traced_runs)
        metrics = layer_metrics(per_func, per_layer)
        metrics["trace_overhead_share"] = (statistics.median(best_traced)
                                           / statistics.median(best) - 1.0)
        result["metrics"] = metrics
        result["per_func"] = per_func
        result["traced_requests"] = traced_runs
        result["spans"] = len(tracer.spans)
    return result


def emit(result: dict, facts: dict, out=sys.stdout):
    """Human-readable lines, then the one-line JSON result."""
    def say(line=""):
        print(line, file=out)

    say("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    r = result
    say(f"workload={r['workload']} seed={r['seed']} trace={int(r['trace'])} "
        f"distinct_requests={r['requests']} runs={r['attempted']} rounds={r['rounds']:.2f} "
        f"failed_runs={r['failed']} clients=1 (closed loop) "
        f"wall_rate={r['wall_rate']:.6g}/s")
    share = r["checks_failed"] / r["checks_run"]
    say(f"fail_share={share:.6g} ({r['checks_failed']} of {r['checks_run']} checks "
        f"over the {r['requests']} distinct requests) by check: "
        + (" ".join(f"{k}={v}" for k, v in r["failed_by_check"].items()) or "none"))
    say("setup samples, wall (s): " + " ".join(f"{t:.4f}" for t in r["setup_samples_s"]))
    say(f"reference work: min={r['ref_ms'][0]:.4f} ms median={r['ref_ms'][1]:.4f} ms, "
        f"timings scaled to {1e3 * REFERENCE_S:g} ms; unscaled req_p50_ms={r['wall_p50_ms']:.6g}")
    if not r["trace"]:
        units = dict(END_TO_END_METRICS)
        for name, value in r["metrics"].items():
            extra = ""
            if name == "req_tail_ms":
                extra = (f"  (p{r['tail_pct']:g} of {r['requests']} requests, "
                         f"{r['tail_beyond']} beyond it)")
            say(f"e2e {name} = {value:.6g} {units[name]}{extra}")
    else:
        say(f"traced requests={r['traced_requests']} spans={r['spans']}")
        say(f"{'function':40s} {'calls/req':>10s} {'ms/req':>10s} {'self ms/req':>12s} {'raised/req':>10s}")
        rows = sorted(r["per_func"].items(), key=lambda kv: -kv[1]["self_ms"])
        for name, rec in rows:
            say(f"{name:40s} {rec['calls']:10.2f} {rec['ms']:10.3f} {rec['self_ms']:12.3f} "
                f"{rec['raised']:10.3f}")
        units = dict(PER_LAYER_METRICS)
        for name, value in r["metrics"].items():
            say(f"layer {name} = {value:.6g} {units[name]}")
    units = dict(PER_LAYER_METRICS if r["trace"] else END_TO_END_METRICS)
    say(json.dumps({
        "correct": True,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in r["metrics"].items()},
    }))


# Layer counts that must be non-zero on each workload, or the tracer
# missed a binding.
SMOKE_EXPECT = {
    "theta-g4": ("theta.theta.calls", "report.calls"),
    "fay-g2": ("theta.theta.calls", "jacobian.abel_map.calls", "cli.calls"),
    "petri-quintic": ("linalg.signed_minor.calls", "petri.calls", "bases.calls"),
    "siegel-g8": ("pairindex.calls", "siegel.calls", "linalg.calls", "report.calls"),
}


def smoke() -> int:
    """Every workload for a few requests, traced and untraced; checks
    that every metric name is printed."""
    import io

    facts = machine_facts()
    for workload in WORKLOAD_NAMES:
        for trace, names in ((False, END_TO_END_METRICS), (True, PER_LAYER_METRICS)):
            res = measure(workload, seed=1, seconds=0.0, trace=trace, n_requests=4,
                          setup_samples=1)
            buf = io.StringIO()
            emit(res, facts, out=buf)
            printed = json.loads(buf.getvalue().splitlines()[-1])["metrics"]
            want = [n for n, _ in names]
            if sorted(printed) != sorted(want):
                raise BenchmarkError(f"{workload} trace={int(trace)} printed {sorted(printed)}")
            for name in SMOKE_EXPECT[workload] if trace else ():
                if not printed[name]["value"] > 0:
                    raise BenchmarkError(f"{workload}: {name} is {printed[name]['value']}")
            print(f"smoke {workload} trace={int(trace)}: {len(printed)} metrics, "
                  f"{res['attempted']} requests")
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly and check the printed metric names")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        if args.setup_only:
            requests = import_package().set_up(args.workload, args.seed)
            print(f"ready {len(requests)}", flush=True)
            return 0
        facts = machine_facts()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        emit(result, facts)
        return 0
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
