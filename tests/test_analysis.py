import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrigid import (
    CostMatrix,
    Instance,
    TransportPlan,
    gen_random_costs,
    pair_counts,
    rigidity_report,
    solve,
)

C23 = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])


def test_single_source_covers_everything():
    plan = solve(gen_random_costs(1, 6, 0))
    rep = rigidity_report(plan)
    assert rep.t == (6,)
    assert rep.ell == (1,) * 6
    assert rep.bound1_ok and rep.bound2_ok and rep.bound3_ok


def test_permutation_report():
    n = 9
    plan = solve(gen_random_costs(n, n, 1))
    rep = rigidity_report(plan)
    assert rep.t == (1,) * n
    assert rep.ell == (1,) * n
    assert rep.lower == 1
    assert rep.upper1 == n  # slack unless n = 1
    assert rep.bound1_ok and rep.bound2_ok and rep.bound3_ok


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


def test_pair_counts_permutation():
    plan = solve(gen_random_costs(7, 7, 4))
    rep = pair_counts(plan)
    assert rep.total == rep.crossings == 0
    assert rep.pair_counts == {}


def test_pair_counts_full_2x2():
    plan = TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    rep = pair_counts(plan)
    assert rep.pair_counts == {(0, 1): 2}
    assert rep.total == 2
    assert rep.crossings == 1
    assert rep.total > rep.pair_bound  # crossing plan violates the bound


def test_pair_counts_bounded_for_solver_output():
    for seed in range(10):
        inst = gen_random_costs(6, 17, seed)
        rep = pair_counts(solve(inst))
        assert rep.max_pair_count <= 1
        assert rep.crossings == 0
        assert rep.total <= rep.pair_bound


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 6), n=st.integers(2, 20), seed=st.integers(0, 10**6))
def test_cauchy_schwarz_chain(m, n, seed):
    plan = solve(gen_random_costs(m, n, seed))
    rep = rigidity_report(plan)
    pc = pair_counts(plan)
    lhs = sum(rep.ell)
    assert lhs <= n + math.sqrt(n) * math.sqrt(2 * pc.total) + 1e-9


def _two_source_plan(n, shared):
    # 2 x n plan at scale 4n: the first `shared` targets are split between the
    # two sources, the rest go whole to one of them, so the support is n + shared
    sole = n - shared
    x0 = [3 if j < 2 * (sole % 2) else 2 for j in range(shared)]
    flows = [(0, j, f) for j, f in enumerate(x0)] + [(1, j, 4 - f) for j, f in enumerate(x0)]
    flows += [(0, j, 4) for j in range(shared, shared + sole // 2)]
    flows += [(1, j, 4) for j in range(shared + sole // 2, n)]
    plan = TransportPlan(2, n, 4 * n, tuple(flows))
    plan.validate()
    assert plan.support_size == n + shared
    return plan


@pytest.mark.parametrize("n,shared,ok", [(4, 4, True), (9, 5, True), (9, 6, True),
                                         (9, 7, False), (16, 8, True), (16, 9, False)])
def test_bounds_2_3_exact_at_boundary(n, shared, ok):
    # m = 2 and n a perfect square: support n + 2*sqrt(n) meets (2) and (3)
    # with equality, and one more arc breaks both
    rep = rigidity_report(_two_source_plan(n, shared))
    assert rep.bound2_ok is ok and rep.bound3_ok is ok


def test_bound_values():
    plan = solve(gen_random_costs(4, 10, 0))
    rep = rigidity_report(plan)
    assert rep.lower == 3  # ceil(10/4)
    assert rep.upper1 == 2 + 4 - 1  # floor(10/4) + m - 1
    assert rep.upper2 == pytest.approx(2.5 + math.sqrt(10))
    assert rep.upper3 == pytest.approx(1 + 4 / math.sqrt(10))
    assert rep.excess == rep.t_max - 3
