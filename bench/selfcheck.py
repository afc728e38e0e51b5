"""Self-checks of the benchmark itself: seeds reproduce, and the gate bites.

    python3 bench/selfcheck.py

Runs every check_* function, prints one PASS/FAIL line each and exits non-zero
if any failed. Takes about half a minute.
"""
from __future__ import annotations

import shutil
import sys
import traceback

import run

sys.path.insert(0, run.SRC)


def _first_items(workload, seed, count=3):
    from tracing import NullTracer

    bench, workdir = run.prepare(workload, seed)
    try:
        return [bench.run(item, workdir, NullTracer()) for item in bench.items[:count]]
    finally:
        shutil.rmtree(workdir)


def northwest_plan(inst):
    """The staircase plan: feasible, a vertex, and almost never optimal."""
    from otrigid.solver import TransportPlan

    m, n, scale = inst.m, inst.n, inst.scale
    rows, cols = [scale // m] * m, [scale // n] * n
    flows = []
    i = j = 0
    while i < m and j < n:
        q = min(rows[i], cols[j])
        if q:
            flows.append((i, j, q))
        rows[i] -= q
        cols[j] -= q
        if rows[i] == 0:
            i += 1
        else:
            j += 1
    return TransportPlan(m, n, scale, tuple(flows))


def check_same_seed_same_digests():
    for workload in ("tiny-audit", "fig1-gcd"):
        first = _first_items(workload, 3)
        again = _first_items(workload, 3)
        assert all(fails == [] for _, fails in first), first
        assert [d for d, _ in first] == [d for d, _ in again], workload


def check_metrics_match_benchmark_json():
    """Both modes print exactly the metrics BENCHMARK.json declares, with
    their units, as the last line of standard output."""
    import contextlib
    import io
    import json
    import os

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "tiny-audit", "--seed", "0", "--seconds", "0",
                             "--trace", str(trace)])
        result = json.loads(out.getvalue().splitlines()[-1])
        assert code == 0 and result["correct"] and result["failed"] == 0, result
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (key, got, want)


def check_other_seed_other_inputs():
    import workloads

    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    for name, make in workloads.WORKLOADS.items():
        a, b = make(0), make(1)
        inst_a = a.items[0][1]
        inst_b = b.items[0][1]
        assert inst_a.costs.c.shape == inst_b.costs.c.shape, name
        assert (inst_a.costs.c != inst_b.costs.c).any(), name


def check_gate_rejects_suboptimal_plan():
    from otrigid import instance, solver
    from tracing import Tracer
    import workloads

    inst = instance.gen_random_costs(5, 7, 0)
    bad = northwest_plan(inst)
    bad.validate()
    assert solver.objective(inst, bad) > solver.objective(inst, solver.solve(inst)) + 1e-9
    fails, tr = [], Tracer()
    workloads.certify(inst, bad, "northwest", fails, tr)
    assert fails and tr.counts == {"solver.certify_fail": 1}, (fails, tr.counts)


def check_run_counts_suboptimal_items_as_failed():
    """With solve swapped for the northwest corner, exactly the items whose
    northwest plan is not optimal fail. The FAILED lines the run prints for
    them are expected and are not shown."""
    import contextlib
    import io

    from otrigid import experiments, oracle, solver

    for workload, module in (("fig1-gcd", experiments), ("tiny-audit", solver)):
        bench, workdir = run.prepare(workload, 0)
        if workload == "tiny-audit":
            items = [item for item in bench.items if item[0][0] == "oracle"]
            expected = 0
            for _, inst in items:
                best = oracle.brute_force_solve(inst).min_cost
                expected += solver.objective(inst, northwest_plan(inst)) > best + 1e-9
        else:
            items = bench.items[:1]
            expected = 1  # 80 x 120 W1 points: never the staircase
        bench.items = items
        original = module.solve
        module.solve = northwest_plan
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                attempted, failed, _, _ = run.run_plain(bench, workdir, seconds=0)
        finally:
            module.solve = original
            shutil.rmtree(workdir)
        assert expected >= 1 and (attempted, failed) == (len(items), expected), (
            workload, attempted, failed, expected)


def main():
    checks = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("check_")]
    bad = 0
    for name, fn in checks:
        try:
            fn()
        except Exception:
            bad += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
        else:
            print(f"PASS {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
