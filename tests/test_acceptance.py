"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The heavy corpora (200 random rigidity instances, the
50x2222 and 7x2000 experiment runs) are solved once in module-scoped fixtures
and shared across criteria.
"""
import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from otrigid import (
    ExperimentSpec,
    brute_force_solve,
    gen_point_instance,
    gen_random_costs,
    genericity_check,
    load_plan_csv,
    objective,
    rigidity_report,
    save_plan_csv,
    save_stats_json,
    scaled_objective,
    solve,
    stats_dict,
    uncross,
    TransportPlan,
)
from otrigid.constructions import gcd_construct
from otrigid.experiments import build_instance
from otrigid.io import plan_csv_lines
from otrigid.solver import find_crossings

REL = 1e-12

# sha256 over the plan CSV lines of every plan of a corpus, in corpus order.
# The first four were recorded from the solver's northwest-corner start with
# Dantzig-then-Bland pivots, "fig1 ell=20 s0-15" (the most degenerate shape)
# from its least-cost start with the same pivots.  A change to the start, the
# pivot rule or the tree bookkeeping must return the very same plans
# (continuous random costs make each optimum unique).
PLAN_DIGESTS = {
    "criterion 4": "c921b2925bdc7105c70d37f813cfefae5a3c02f7a2853289530fd49b8c6b8541",
    "sec22 s0-9": "6576220ed5bda84284222351b1891830531685e2d401aa4d3db33b8b272292bd",
    "fig2 s0-9": "594118a46c32090fa61aa5e45c27086a4cf33b782048ca63d8d81a06285ba4ea",
    "fig1 ell=10 s0-9": "621b9f163107f076836863721256abc4c2b433af3f3be88e16e0db330d65401d",
    "fig1 ell=20 s0-15": "4f07dbf05b50c2ec4344c9d4e0907a573f6779f7fa9b6361e8d676d2a27ac690",
}


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:>2}] {status}: {detail}")
    assert ok, detail


def _w2_instance(m, n, seed):
    return gen_point_instance("uniform-square", m, n, 2.0, seed)


@pytest.fixture(scope="module")
def rigidity_corpus():
    """Criterion 4 corpus: 200 generic random-cost instances, solved."""
    rng = np.random.default_rng(20260823)
    out = []
    seed = 0
    while len(out) < 200:
        m = int(rng.integers(2, 11))
        n = int(rng.integers(m, 201))
        inst = gen_random_costs(m, n, seed)
        seed += 1
        if not genericity_check(inst).generic:
            continue  # exact tie: draw a fresh instance
        out.append((inst, solve(inst)))
    return out


@pytest.fixture(scope="module")
def fig2_runs():
    """Criterion 6/8 corpus: W2 on 50 uniform sources to 2222 targets, 10 seeds."""
    runs = []
    for seed in range(10):
        start = time.perf_counter()
        inst = _w2_instance(50, 2222, seed)
        plan = solve(inst)
        runs.append((seed, plan, time.perf_counter() - start))
    return runs


@pytest.fixture(scope="module")
def sec22_runs():
    """Criterion 7 corpus: 7 sources, 2000 targets, random costs, 10 seeds."""
    runs = []
    for seed in range(10):
        start = time.perf_counter()
        inst = gen_random_costs(7, 2000, seed)
        plan = solve(inst)
        runs.append((seed, plan, time.perf_counter() - start))
    return runs


@pytest.fixture(scope="module")
def oracle_corpus():
    """Criterion 2/3 corpus: all (m,n) in {2,3}x{2,3,4}, 20 seeds each."""
    out = []
    for m in (2, 3):
        for n in (2, 3, 4):
            for seed in range(20):
                inst = gen_random_costs(m, n, 1000 * m + 100 * n + seed)
                out.append((inst, solve(inst), brute_force_solve(inst)))
    return out


def test_criterion_1_birkhoff_property():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    failures = 0
    for k in range(100):
        n = int(rng.integers(2, 51))
        plan = solve(gen_random_costs(n, n, k))
        if not (
            plan.scale == n
            and plan.support_size == n
            and all(f == 1 for _, _, f in plan.flows)
        ):
            failures += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        failures == 0 and elapsed < 10.0,
        f"100 square instances all solved to permutations "
        f"({failures} failures, {elapsed:.2f}s < 10s)",
    )


def test_criterion_2_oracle_equivalence(oracle_corpus):
    start = time.perf_counter()
    mismatches = 0
    for inst, plan, res in oracle_corpus:
        obj = objective(inst, plan)
        if abs(obj - res.min_cost) > REL * max(abs(res.min_cost), 1e-300):
            mismatches += 1
        elif plan.flows not in {p.flows for p in res.optimal_plans}:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        mismatches == 0 and elapsed < 30.0,
        f"solver matches brute force on {len(oracle_corpus)} tiny instances "
        f"({mismatches} mismatches, {elapsed:.2f}s < 30s)",
    )


def test_criterion_3_noncrossing(oracle_corpus):
    crossings = 0
    checked = 0
    for inst, plan, res in oracle_corpus:
        if not genericity_check(inst).generic:
            continue
        checked += 1
        crossings += len(find_crossings(plan))
        for p in res.optimal_plans:
            crossings += len(find_crossings(p))
    _report(
        3,
        crossings == 0,
        f"zero crossings across {checked} generic instances "
        f"(all integral optima and solver outputs)",
    )


def test_criterion_4_rigidity_bounds(rigidity_corpus):
    start = time.perf_counter()
    violations = 0
    for inst, plan in rigidity_corpus:
        rep = rigidity_report(plan)
        m, n, s = inst.m, inst.n, rep.support_size
        # (1) on every fanout; (2) and (3) both say s <= n + m*sqrt(n)
        bound1 = all(-(-n // m) <= ti <= n // m + m - 1 for ti in rep.t)
        bound23 = s <= n or (s - n) ** 2 <= m * m * n
        violations += not (bound1 and bound23)
    elapsed = time.perf_counter() - start
    _report(
        4,
        violations == 0 and elapsed < 60.0,
        f"all three bounds hold on 200 generic instances "
        f"({violations} violations, check pass {elapsed:.2f}s < 60s)",
    )


def test_criterion_5_fig1_gcd_bounds():
    details = []
    ok = True
    for ell in (10, 40):
        m, n = 2 * ell, 3 * ell
        inst = gen_point_instance("uniform-square", m, n, 1.0, ell)
        constructed = gcd_construct(inst)
        solved = solve(inst)
        rep_c = rigidity_report(constructed)
        rep_s = rigidity_report(solved)
        obj_match = abs(
            objective(inst, constructed) - objective(inst, solved)
        ) <= REL * abs(objective(inst, solved))
        ok = ok and rep_c.t_max <= 3 and max(rep_c.ell) <= 2 and obj_match
        details.append(
            f"ell={ell}: gcd plan t_max={rep_c.t_max} ell_max={max(rep_c.ell)}, "
            f"solver plan observed t_max={rep_s.t_max} ell_max={max(rep_s.ell)}"
        )
    _report(5, ok, "; ".join(details))


def test_criterion_6_fig2_fanout(fig2_runs):
    ok = True
    dist = {}
    noteworthy = []
    for seed, plan, elapsed in fig2_runs:
        rep = rigidity_report(plan)
        ok = ok and rep.t_min >= 45 and rep.t_max <= 93 and elapsed < 120.0
        dist[rep.t_max] = dist.get(rep.t_max, 0) + 1
        if rep.t_max > 47:
            noteworthy.append(seed)
    note = f", seeds with t_max>47 (observation, not failure): {noteworthy}" \
        if noteworthy else ""
    _report(
        6,
        ok,
        f"10 seeds: t in [45, 93] everywhere; observed t_max distribution "
        f"{dict(sorted(dist.items()))}{note}",
    )


def test_criterion_7_sec22_fanout(sec22_runs):
    ok = True
    within_289 = 0
    for seed, plan, elapsed in sec22_runs:
        rep = rigidity_report(plan)
        ok = ok and all(286 <= ti <= 291 for ti in rep.t) and elapsed < 30.0
        if rep.t_max <= 289:
            within_289 += 1
    _report(
        7,
        ok,
        f"10 seeds: every fanout in [286, 291]; {within_289}/10 seeds stay <= 289",
    )


def test_criterion_8_mean_fanin_bound(fig2_runs):
    bound = 1.0 + 50.0 / math.sqrt(2222)
    ok = True
    worst = Fraction(0)
    for _, plan, _ in fig2_runs:
        mean_ell = Fraction(plan.support_size, plan.n)
        worst = max(worst, mean_ell)
        ok = ok and float(mean_ell) <= bound * (1.0 + REL)
    _report(
        8,
        ok,
        f"mean fanin <= {bound:.6f} on all 10 runs (worst {float(worst):.6f})",
    )


def test_criterion_9_uncrossing():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    n = 10
    ok = True
    for k in range(50):
        p1 = rng.permutation(n)
        p2 = rng.permutation(n)
        while np.array_equal(p1, p2):
            p2 = rng.permutation(n)
        flows = {}
        for i in range(n):
            for p in (p1, p2):
                key = (i, int(p[i]))
                flows[key] = flows.get(key, 0) + 1
        plan = TransportPlan(n, n, 2 * n, tuple((i, j, f) for (i, j), f in flows.items()))
        inst = gen_random_costs(n, n, k)
        out = uncross(inst, plan)
        out.validate()
        ok = (
            ok
            and find_crossings(out) == []
            and scaled_objective(inst, out) <= scaled_objective(inst, plan)
        )
    elapsed = time.perf_counter() - start
    _report(
        9,
        ok and elapsed < 5.0,
        f"50 mixed-permutation plans uncrossed, objective never increased "
        f"({elapsed:.2f}s < 5s)",
    )


def test_criterion_10_pair_count_inequality(rigidity_corpus, fig2_runs, sec22_runs):
    plans = [plan for _, plan in rigidity_corpus]
    plans += [plan for _, plan, _ in fig2_runs]
    plans += [plan for _, plan, _ in sec22_runs]
    violations = sum(
        sum(math.comb(lj, 2) for lj in rigidity_report(p).ell) > math.comb(p.m, 2)
        for p in plans
    )
    _report(
        10,
        violations == 0,
        f"sum C(ell_j, 2) <= C(m, 2) on all {len(plans)} solver outputs",
    )


def test_criterion_11_roundtrip_determinism(tmp_path):
    inst = _w2_instance(6, 9, 0)
    plan = solve(inst)
    ok = True
    blobs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        # regenerate everything from the seed to prove run-level determinism
        inst_r = _w2_instance(6, 9, 0)
        plan_r = solve(inst_r)
        save_plan_csv(plan_r, d / "plan.csv")
        save_stats_json(stats_dict(plan_r), d / "stats.json")
        blobs.append((d / "plan.csv").read_bytes() + (d / "stats.json").read_bytes())
        reparsed = load_plan_csv(d / "plan.csv", m=6, n=9, scale=plan.scale)
        ok = ok and reparsed == plan
        ok = ok and json.loads((d / "stats.json").read_text()) == stats_dict(plan_r)
    ok = ok and blobs[0] == blobs[1]
    _report(11, ok, "plan CSV and stats JSON round-trip; repeated runs byte-identical")


def _plans_digest(plans):
    h = hashlib.sha256()
    for plan in plans:
        h.update(("\n".join(plan_csv_lines(plan)) + "\n").encode())
    return h.hexdigest()


def test_plan_digests(rigidity_corpus, sec22_runs, fig2_runs):
    fig1 = ExperimentSpec("fig1", out_dir="", ell=10)
    fig1_20 = ExperimentSpec("fig1", out_dir="", ell=20)
    digests = {
        "criterion 4": _plans_digest(plan for _, plan in rigidity_corpus),
        "sec22 s0-9": _plans_digest(plan for _, plan, _ in sec22_runs),
        "fig2 s0-9": _plans_digest(plan for _, plan, _ in fig2_runs),
        "fig1 ell=10 s0-9": _plans_digest(
            solve(build_instance(fig1, seed)) for seed in range(10)
        ),
        "fig1 ell=20 s0-15": _plans_digest(
            solve(build_instance(fig1_20, seed)) for seed in range(16)
        ),
    }
    changed = sorted(k for k in PLAN_DIGESTS if digests[k] != PLAN_DIGESTS[k])
    _report(12, not changed, f"plans byte-identical on {len(digests)} corpora "
                             f"(changed: {changed or 'none'})")
