import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otrigid import (
    CostMatrix,
    Instance,
    PointCloud,
    TransportPlan,
    cost_from_points,
    enumerate_plans,
    gen_random_costs,
    genericity_check,
    pair_counts,
    rigidity_report,
    solve,
    stats_dict,
    verify_optimality,
)

C23 = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])


def test_single_source_covers_everything():
    plan = solve(gen_random_costs(1, 6, 0))
    rep = rigidity_report(plan)
    assert rep.t == (6,)
    assert rep.ell == (1,) * 6


def test_permutation_report():
    n = 9
    plan = solve(gen_random_costs(n, n, 1))
    rep = rigidity_report(plan)
    assert rep.t == (1,) * n
    assert rep.ell == (1,) * n
    assert rep.lower == 1


def test_double_count_identity():
    for seed in range(8):
        plan = solve(gen_random_costs(4, 11, seed))
        rep = rigidity_report(plan)
        assert sum(rep.t) == sum(rep.ell) == rep.support_size


def test_fanout_split_2x3_fixture():
    rep = rigidity_report(solve(Instance(CostMatrix(C23))))
    assert (rep.full[0], rep.split[0]) == (1, 1)  # target 0 filled at S/n = 2


def test_fanout_split_single_source():
    rep = rigidity_report(solve(gen_random_costs(1, 5, 3)))
    assert (rep.full, rep.split) == ((5,), (0,))


def test_fanout_split_permutation():
    rep = rigidity_report(solve(gen_random_costs(6, 6, 2)))
    assert (rep.full, rep.split) == ((1,) * 6, (0,) * 6)


def test_fanout_split_bounds():
    for seed in range(10):
        inst = gen_random_costs(5, 12, seed)
        plan = solve(inst)
        rep = rigidity_report(plan)
        cap = plan.scale // plan.n
        for i in range(inst.m):
            row = [f for ii, _, f in plan.flows if ii == i]
            assert rep.full[i] == sum(f == cap for f in row)
            assert rep.full[i] + rep.split[i] == rep.t[i]
            assert rep.full[i] <= inst.n // inst.m
            assert rep.split[i] <= inst.m - 1  # non-crossing plans


def _pair_sum(plan):
    # sum_j C(l_j, 2): the source pairs summed over shared targets, bound (4)
    return sum(math.comb(lj, 2) for lj in rigidity_report(plan).ell)


def test_pair_counts_permutation():
    plan = solve(gen_random_costs(7, 7, 4))
    rep = pair_counts(plan)
    assert rep.crossings == rep.max_pair_count == _pair_sum(plan) == 0


def test_pair_counts_full_2x2():
    plan = TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    rep = pair_counts(plan)
    assert rep.max_pair_count == 2
    assert rep.crossings == 1
    assert _pair_sum(plan) == 2 > math.comb(2, 2)  # crossing plan violates the bound


def test_pair_counts_bounded_for_solver_output():
    for seed in range(10):
        inst = gen_random_costs(6, 17, seed)
        plan = solve(inst)
        rep = pair_counts(plan)
        assert rep.max_pair_count <= 1
        assert rep.crossings == 0
        assert _pair_sum(plan) <= math.comb(6, 2)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 6), n=st.integers(2, 20), seed=st.integers(0, 10**6))
def test_cauchy_schwarz_chain(m, n, seed):
    plan = solve(gen_random_costs(m, n, seed))
    lhs = sum(rigidity_report(plan).ell)
    assert lhs <= n + math.sqrt(n) * math.sqrt(2 * _pair_sum(plan)) + 1e-9


def _is_forest(m, n, flows):
    # union-find over the bipartite graph of the support arcs
    root = list(range(m + n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for i, j, _ in flows:
        a, b = find(i), find(m + j)
        if a == b:
            return False
        root[a] = b
    return True


def test_rigidity_bounds_hold_on_every_forest_plan():
    # the paper's bounds are a theorem on vertex plans (see the analysis
    # docstring): every integral plan of every shape with m <= 4 and
    # m*n <= 16 meets the lower end of (1), every forest plan meets (1),
    # (2)/(3) in exact integers and sum_j C(l_j, 2) <= C(m, 2), its stats
    # JSON has split_targets and max_split at most m - 1, and plans with a
    # cycle break each upper inequality somewhere
    plans = forests = 0
    broken = [0, 0, 0]
    for m in range(1, 5):
        for n in range(1, 16 // m + 1):
            for plan in enumerate_plans(gen_random_costs(m, n, 0)):
                rep = rigidity_report(plan)
                s = rep.support_size
                assert rep.t_min >= -(-n // m)
                ok = (rep.t_max <= n // m + m - 1,
                      s <= n or (s - n) ** 2 <= m * m * n,
                      _pair_sum(plan) <= math.comb(m, 2))
                plans += 1
                if _is_forest(m, n, plan.flows):
                    forests += 1
                    assert all(ok)
                    stats = stats_dict(plan)
                    assert stats["split_targets"] <= m - 1
                    assert stats["max_split"] <= m - 1
                else:
                    broken = [b + (not k) for b, k in zip(broken, ok)]
    assert (forests, plans) == (887, 4832)
    assert all(broken), broken


def test_bound_values():
    plan = solve(gen_random_costs(4, 10, 0))
    rep = rigidity_report(plan)
    assert rep.lower == 3  # ceil(10/4)
    assert rep.excess == rep.t_max - 3


def test_bound_1_upper_end_is_attained_by_the_w2_clustered_wheel():
    # Source 0 sits at the origin and m - 1 sources on a circle of radius
    # 0.4 around it.  Each source has a tight cluster of q targets, and one
    # more target lies near the midpoint between the origin and each outer
    # source, so n = qm + m - 1.  Each outer source takes m - 1 of the m
    # units of its midpoint target and source 0 the last one: t_0 =
    # q + m - 1 = floor(n/m) + m - 1, and c = t_max - ceil(n/m) = m - 2.
    rng = np.random.default_rng(0)
    for m, n in ((4, 11), (8, 47), (13, 51), (20, 219)):
        q = (n - (m - 1)) // m
        angles = 2 * np.pi * np.arange(m - 1) / (m - 1)
        outer = 0.4 * np.column_stack([np.cos(angles), np.sin(angles)])
        sources = np.vstack([np.zeros((1, 2)), outer])
        clusters = np.repeat(sources, q, axis=0) + rng.normal(0.0, 0.01, (q * m, 2))
        midpoints = outer / 2 + rng.normal(0.0, 0.001, (m - 1, 2))
        inst = cost_from_points(PointCloud(sources),
                                PointCloud(np.vstack([clusters, midpoints])), 2.0)
        assert inst.n == n
        plan = solve(inst)
        rep = rigidity_report(plan)
        assert rep.t[0] == rep.t_max == n // m + m - 1
        assert rep.excess == m - 2
        assert genericity_check(inst).generic
        assert verify_optimality(inst, plan) is not None
