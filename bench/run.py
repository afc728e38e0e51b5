"""otrigid benchmark: one workload, one seed, a closed loop with one caller.

    python3 bench/run.py --workload fig1-gcd --seed 0 --seconds 50 --trace 0

The benchmark generates a fixed set of items from --seed, drives otrigid's
public functions on them, round after round, from this single process and
thread, checks every item's outputs and prints one line per metric. The last
line of standard output is the JSON result. --trace 0 reports the end-to-end
metrics; --trace 1 runs each round both untraced and traced, checks that both
give the same plan digests, reports the per-layer metrics and writes the
spans to .bench_out/. See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; set-up probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("fig1-gcd", "tiny-audit")
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT = 60
P90_MIN_ITEMS = 100  # the p90 needs at least ten items beyond it
# The reference work runs between items, at most every REF_EVERY_S seconds;
# an item's time is divided by the median of the last REF_WINDOW samples.
REF_EVERY_S = 0.25
REF_WINDOW = 5


def reference_work():
    """Fixed interpreter-bound work that calls no otrigid code: the yardstick
    for the host's speed at the moment an item runs."""
    acc = 0
    table = {}
    for i in range(40000):
        acc = (acc * 31 + i) % 1000003
        table[i % 257] = acc
    return acc + sum(table.values())


def prepare(workload, seed):
    """Everything before the first timed call: imports and input preparation."""
    sys.path.insert(0, SRC)
    import otrigid
    import otrigid.cli  # noqa: F401  the CLI's import cost is part of set-up

    if not os.path.abspath(otrigid.__file__).startswith(SRC + os.sep):
        raise ImportError(f"otrigid was imported from {otrigid.__file__}, not from {SRC}")
    import workloads

    workdir = os.path.join(OUT_DIR, f"work{os.getpid()}")
    os.makedirs(workdir)
    return workloads.WORKLOADS[workload](seed), workdir


def setup_probe(args):
    """Wall time from spawning a fresh interpreter until it has done prepare()
    and could make its first timed call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=SETUP_PROBE_TIMEOUT)
    return float(proc.stdout.split()[-1]) - start


def machine_context(args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_item(bench, item, workdir, tr):
    """(digest, failures) of one item; an item that raises is a failed item."""
    try:
        return bench.run(item, workdir, tr)
    except Exception:  # the loop must go on and count the failure
        return None, [traceback.format_exc(limit=4)]


def report_failures(item, fails):
    for msg in fails:
        print(f"FAILED item {item[0]!r}: {msg.strip()}")


def schedule(items, seconds):
    """(index, round, item): one whole round of the items, then round after
    round, item by item, until ``seconds`` have passed."""
    start = time.perf_counter()
    rnd = 0
    while True:
        for k, item in enumerate(items):
            if rnd and time.perf_counter() - start >= seconds:
                return
            yield k, rnd, item
        rnd += 1


def run_plain(bench, workdir, seconds, probe=None):
    """Closed loop over the run's items, round after round, until ``seconds``
    have passed.

    Each item run's time is divided by the time the reference work took
    around then (the median of its last REF_WINDOW samples), which cancels
    the host's speed at that moment; an item's cost is the median of these
    ratios over its passing runs. ``probe`` measures set-up once; its
    SETUP_PROBES calls are spread over the run, between items.
    """
    from tracing import NullTracer

    tr = NullTracer()
    items = bench.items
    times = [[] for _ in items]
    ratios = [[] for _ in items]
    digests = [None] * len(items)
    refs = []
    setup_samples = []
    attempted = failed = rounds = 0
    last_ref = -math.inf
    start = time.perf_counter()
    for k, rnd, item in schedule(items, seconds):
        while probe and len(setup_samples) < SETUP_PROBES and (
                time.perf_counter() - start >= len(setup_samples) * seconds / SETUP_PROBES):
            setup_samples.append(probe())
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            r0 = time.perf_counter()
            reference_work()
            last_ref = time.perf_counter()
            refs.append(last_ref - r0)
        t0 = time.perf_counter()
        digest, fails = run_item(bench, item, workdir, tr)
        dt = time.perf_counter() - t0
        attempted += 1
        rounds = rnd + 1
        if rnd == 0:
            digests[k] = digest
        elif digest != digests[k]:
            fails.append(f"plan digest {digest} != {digests[k]} of the first run")
        if fails:
            failed += 1
            report_failures(item, fails)
        else:
            times[k].append(dt)
            ratios[k].append(dt / statistics.median(refs[-REF_WINDOW:]))
    while probe and len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe())
    cost = [statistics.median(r) for r in ratios if r]
    latency = [statistics.median(t) for t in times if t]
    metrics = {
        "item_mean_ref": (statistics.fmean(cost) if cost else 0.0, "ref"),
        "item_p50_ref": (statistics.median(cost) if cost else 0.0, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if setup_samples:
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
    print(f"reference_s {statistics.median(refs):.6g} median of {len(refs)} samples")
    if latency:
        print(f"items_per_s {len(latency) / sum(latency):.6g} 1/s")
        print(f"item_p50_s {statistics.median(latency):.6g} s")
    if len(latency) >= P90_MIN_ITEMS:
        p90 = statistics.quantiles(latency, n=10)[-1]
        print(f"item_p90_s {p90:.6g} s over {len(latency)} items")
    else:
        print(f"item_p90_s not reported: {len(latency)} items < {P90_MIN_ITEMS}")
    print(f"rounds {rounds} over {len(items)} items")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} item runs)")
    return attempted, failed, metrics, setup_samples


def run_traced(bench, workdir, seconds, trace_path, meta):
    """Each item runs once untraced and once traced, alternating which goes
    first, and both runs must give the same plan digest. Per-layer metrics
    come from the traced runs."""
    from tracing import NullTracer, Tracer, installed, ITEM_SPAN

    tracer = Tracer()
    null = NullTracer()
    plain_s = traced_s = 0.0
    attempted = failed = 0

    def timed(item, traced):
        if not traced:
            t0 = time.perf_counter()
            result = run_item(bench, item, workdir, null)
            return result, time.perf_counter() - t0
        with installed(tracer):
            t0 = time.perf_counter()
            with tracer.span(ITEM_SPAN):
                result = run_item(bench, item, workdir, tracer)
            return result, time.perf_counter() - t0

    for _, _, item in schedule(bench.items, seconds):
        tracer.item = attempted
        if attempted % 2 == 0:
            (d_plain, f_plain), dt_plain = timed(item, False)
            (d_traced, f_traced), dt_traced = timed(item, True)
        else:
            (d_traced, f_traced), dt_traced = timed(item, True)
            (d_plain, f_plain), dt_plain = timed(item, False)
        plain_s += dt_plain
        traced_s += dt_traced
        fails = f_plain + f_traced
        if d_plain is None or d_plain != d_traced:
            fails.append(f"plan digest untraced {d_plain} != traced {d_traced}")
        attempted += 1
        if fails:
            failed += 1
            report_failures(item, fails)
    metrics = tracer.layer_metrics(attempted)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")
    metrics["experiments.items"] = (attempted, "count")
    tracer.dump(trace_path, meta)
    print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if args.setup_probe:
        _, workdir = prepare(args.workload, args.seed)
        stamp = time.monotonic()
        shutil.rmtree(workdir)
        print(stamp)
        return 0

    bench, workdir = prepare(args.workload, args.seed)
    try:
        context = machine_context(args)
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.json")
            attempted, failed, metrics = run_traced(bench, workdir, args.seconds,
                                                    trace_path, context)
        else:
            attempted, failed, metrics, context["setup_samples_s"] = run_plain(
                bench, workdir, args.seconds, probe=lambda: setup_probe(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context["loadavg_end"] = os.getloadavg()
    context["items"] = attempted
    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
