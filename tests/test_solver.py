import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrigid import (
    CostMatrix,
    Instance,
    PointCloud,
    SupportCycleError,
    TransportPlan,
    brute_force_solve,
    cost_from_points,
    find_crossings,
    gen_random_costs,
    genericity_check,
    objective,
    solve,
    uncross,
    verify_optimality,
)
from otrigid.solver import _least_cost_basis, _perturbed_marginals

# hand-verified 2x3 fixture: unique optimum has scaled cost 2 (objective 1/3)
C23 = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])
OPT23 = ((0, 0, 2), (0, 1, 1), (1, 1, 1), (1, 2, 2))


def test_solve_1x1():
    plan = solve(Instance(CostMatrix(np.array([[3.7]]))))
    assert plan.scale == 1
    assert plan.flows == ((0, 0, 1),)


def test_solve_2x3_fixture():
    inst = Instance(CostMatrix(C23))
    plan = solve(inst)
    assert plan.scale == 6
    assert plan.flows == OPT23
    assert objective(inst, plan) == pytest.approx(1 / 3, rel=1e-12)


def test_solve_square_returns_permutation():
    for seed in range(5):
        n = 5 + seed
        inst = gen_random_costs(n, n, seed)
        plan = solve(inst)
        assert plan.scale == n
        assert plan.support_size == n
        assert all(f == 1 for _, _, f in plan.flows)


def test_solve_support_is_forest():
    for seed in range(10):
        inst = gen_random_costs(4, 9, seed)
        plan = solve(inst)
        plan.validate()
        assert plan.support_size <= inst.m + inst.n - 1
        assert _is_forest(plan)


def _is_forest(plan):
    # union-find over the bipartite support
    parent = list(range(plan.m + plan.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in plan.flows:
        a, b = find(i), find(plan.m + j)
        if a == b:
            return False
        parent[a] = b
    return True


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 12),
    seed=st.integers(0, 10**6),
)
def test_solve_feasible_and_certified(m, n, seed):
    inst = gen_random_costs(m, n, seed)
    plan = solve(inst)
    plan.validate()
    assert verify_optimality(inst, plan) is not None


def _lattice_w1(m, n, seed):
    # integer grid points with forced duplicates: many exact ties
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, (m, 2)).astype(float)
    y = rng.integers(0, 3, (n, 2)).astype(float)
    x[-1] = x[0]
    y[-1] = y[0]
    return cost_from_points(PointCloud(x, "source"), PointCloud(y, "target"), 1.0).costs.c


def _hostile_costs():
    """(id, cost matrix) pairs: exact ties, degenerate shapes, extreme scale."""
    cases = [("zeros-50x2222", np.zeros((50, 2222)))]
    for m, n in ((1, 1), (1, 5), (5, 1), (2, 2), (3, 4), (4, 3), (7, 3), (9, 4)):
        cases.append((f"zeros-{m}x{n}", np.zeros((m, n))))
    for m, n, seed in ((2, 3, 0), (3, 3, 1), (4, 4, 2), (3, 5, 3), (5, 3, 4),
                       (6, 9, 5), (12, 8, 6), (20, 30, 7)):
        cases.append((f"lattice-w1-{m}x{n}", _lattice_w1(m, n, seed)))
    for m, n in ((1, 6), (6, 1), (2, 8), (4, 4), (8, 2), (5, 3), (10, 25), (25, 10)):
        rng = np.random.default_rng(100 * m + n)
        cases.append((f"zero-one-{m}x{n}", rng.integers(0, 2, (m, n)).astype(float)))
    for m, n in ((1, 7), (7, 1), (3, 2), (6, 4), (11, 5)):
        cases.append((f"random-{m}x{n}", gen_random_costs(m, n, m * n).costs.c))
    for sign in (1.0, -1.0):
        cases.append((f"scaled-{sign:+.0f}e150-random-4x4",
                      sign * 1e150 * gen_random_costs(4, 4, 11).costs.c))
        cases.append((f"scaled-{sign:+.0f}e150-lattice-6x8",
                      sign * 1e150 * _lattice_w1(6, 8, 12)))
    cases.append(("scaled-1e150-zero-one-3x5",
                  1e150 * np.random.default_rng(13).integers(0, 2, (3, 5))))
    return cases


@pytest.mark.parametrize("c", [pytest.param(c, id=name) for name, c in _hostile_costs()])
def test_solve_hostile_costs(c):
    inst = Instance(CostMatrix(c))
    start = time.perf_counter()
    plan = solve(inst)
    elapsed = time.perf_counter() - start
    plan.validate()
    assert verify_optimality(inst, plan) is not None
    if inst.m * inst.n <= 16:
        optimal = brute_force_solve(inst).optimal_plans
        assert plan.flows in {p.flows for p in optimal}
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "c",
    [pytest.param(c, id=name) for name, c in _hostile_costs()]
    + [pytest.param(gen_random_costs(m, n, 5).costs.c, id=f"random-{m}x{n}")
       for m, n in ((1, 9), (9, 1), (12, 5), (97, 105))],
)
def test_perturbed_start_is_a_positive_spanning_tree(c):
    # nondegenerate marginals: the matrix-minimum start alone must give m+n-1
    # positive arcs meeting every marginal, i.e. a spanning tree
    m, n = c.shape
    _, supply, demand = _perturbed_marginals(m, n, math.lcm(m, n))
    flows = _least_cost_basis(c, supply, demand)
    assert len(flows) == m + n - 1
    assert min(flows.values()) >= 1
    rows, cols = [0] * m, [0] * n
    for k, f in flows.items():
        rows[k // n] += f
        cols[k % n] += f
    assert rows == supply and cols == demand
    assert _is_forest(TransportPlan(m, n, 1, [divmod(k, n) + (1,) for k in flows]))


def _full_order_start(c, supply, demand):
    # reference matrix-minimum start: every arc in stable cost order
    m, n = c.shape
    rows, cols = list(supply), list(demand)
    flows = {}
    for k in np.argsort(c, axis=None, kind="stable").tolist():
        i, j = divmod(k, n)
        if rows[i] and cols[j]:
            q = min(rows[i], cols[j])
            flows[k] = q
            rows[i] -= q
            cols[j] -= q
    return flows


@pytest.mark.parametrize(
    "c",
    [pytest.param(c, id=name) for name, c in _hostile_costs()]
    + [pytest.param(gen_random_costs(m, n, 5).costs.c, id=f"random-{m}x{n}")
       for m, n in ((12, 5), (40, 60), (97, 105))],
)
def test_least_cost_basis_matches_full_order_walk(c):
    # the screened start must allocate exactly as a walk over the whole
    # stable cost order, in the same order
    m, n = c.shape
    _, supply, demand = _perturbed_marginals(m, n, math.lcm(m, n))
    flows = _least_cost_basis(c, supply, demand)
    assert list(flows.items()) == list(_full_order_start(c, supply, demand).items())


def test_objective_zero_costs():
    inst = Instance(CostMatrix(np.zeros((3, 5))))
    assert objective(inst, solve(inst)) == 0.0


def test_objective_permutation_formula():
    inst = gen_random_costs(6, 6, 3)
    plan = solve(inst)
    sigma = {i: j for i, j, _ in plan.flows}
    expected = sum(inst.costs.c[i, sigma[i]] for i in range(6)) / 6
    assert objective(inst, plan) == pytest.approx(expected, rel=1e-14)


def test_objective_dimension_mismatch():
    inst = Instance(CostMatrix(np.zeros((2, 2))))
    plan = solve(gen_random_costs(3, 3, 0))
    with pytest.raises(ValueError):
        objective(inst, plan)


def test_verify_rejects_suboptimal_plan():
    inst = Instance(CostMatrix(C23))
    bad = TransportPlan(2, 3, 6, ((0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 2, 2)))
    bad.validate()
    assert objective(inst, bad) == pytest.approx(2 / 3, rel=1e-12)
    assert verify_optimality(inst, bad) is None


def test_verify_certificate_1x1():
    inst = Instance(CostMatrix(np.array([[2.5]])))
    cert = verify_optimality(inst, solve(inst))
    assert cert is not None
    assert cert.u[0] + cert.v[0] == pytest.approx(2.5)


def test_verify_disconnected_support():
    # optimal permutation whose support splits into n components
    inst = gen_random_costs(8, 8, 17)
    assert verify_optimality(inst, solve(inst)) is not None


def test_verify_raises_on_cyclic_support():
    inst = Instance(CostMatrix(np.zeros((2, 2))))
    cyclic = TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    with pytest.raises(SupportCycleError):
        verify_optimality(inst, cyclic)


def test_find_crossings_full_2x2():
    plan = TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    crossings = find_crossings(plan)
    assert len(crossings) == 1
    x = crossings[0]
    assert (x.i, x.i2, x.j, x.j2) == (0, 1, 0, 1)


def test_find_crossings_attaches_costs():
    inst = Instance(CostMatrix(np.array([[0.0, 1.0], [2.0, 3.0]])))
    plan = TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    (x,) = find_crossings(plan, inst)
    assert x.costs == (0.0, 1.0, 2.0, 3.0)


def _brute_force_crossings(plan, inst):
    pos = plan.flow_dict()
    c = inst.costs.c
    return [
        (i, i2, j, j2, (c[i, j], c[i, j2], c[i2, j], c[i2, j2]))
        for i in range(plan.m) for i2 in range(i + 1, plan.m)
        for j in range(plan.n) for j2 in range(j + 1, plan.n)
        if {(i, j), (i, j2), (i2, j), (i2, j2)} <= pos.keys()
    ]


@pytest.mark.parametrize("density", [0.1, 0.3, 0.6, 1.0])
@pytest.mark.parametrize("m,n,seed", [(1, 6, 0), (6, 1, 1), (2, 2, 2), (5, 9, 3),
                                      (9, 5, 4), (12, 12, 5)])
def test_find_crossings_matches_brute_force(m, n, seed, density):
    # supports need not be feasible plans: density 1.0 is the full product
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < density
    flows = tuple((i, j, 1) for i, j in np.argwhere(mask).tolist())
    plan = TransportPlan(m, n, m * n, flows)
    inst = gen_random_costs(m, n, seed)
    got = [(x.i, x.i2, x.j, x.j2, x.costs) for x in find_crossings(plan, inst)]
    assert got == _brute_force_crossings(plan, inst)
    if density == 1.0:
        assert len(got) == math.comb(m, 2) * math.comb(n, 2)


def test_find_crossings_single_row_or_col():
    plan = solve(gen_random_costs(1, 5, 0))
    assert find_crossings(plan) == []
    plan = solve(gen_random_costs(5, 1, 0))
    assert find_crossings(plan) == []


def test_solve_output_noncrossing_when_generic():
    for seed in range(10):
        inst = gen_random_costs(5, 13, seed)
        assert genericity_check(inst).generic
        assert find_crossings(solve(inst)) == []


def test_uncross_fixture():
    inst = Instance(CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    plan = TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    assert objective(inst, plan) == pytest.approx(0.5, rel=1e-15)
    out = uncross(inst, plan)
    assert out.flows == ((0, 0, 2), (1, 1, 2))
    assert objective(inst, out) == 0.0


def test_uncross_fixed_point():
    inst = gen_random_costs(4, 7, 2)
    plan = solve(inst)
    assert find_crossings(plan) == []
    assert uncross(inst, plan).flows == plan.flows


def test_uncross_tie_break_deterministic():
    # a + d = b + c exactly: push must zero the lexicographically smallest entry
    inst = Instance(CostMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
    plan = TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    out = uncross(inst, plan)
    assert find_crossings(out) == []
    assert out.flows == ((0, 1, 2), (1, 0, 2))  # zeroed (0, 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
def test_uncross_properties_on_mixed_permutations(seed, n):
    rng = np.random.default_rng(seed)
    p1 = rng.permutation(n)
    p2 = rng.permutation(n)
    flows = {}
    for i in range(n):
        flows[(i, int(p1[i]))] = flows.get((i, int(p1[i])), 0) + 1
        flows[(i, int(p2[i]))] = flows.get((i, int(p2[i])), 0) + 1
    plan = TransportPlan(n, n, 2 * n, tuple((i, j, f) for (i, j), f in flows.items()))
    plan.validate()
    inst = gen_random_costs(n, n, seed)
    out = uncross(inst, plan)
    out.validate()
    assert find_crossings(out) == []
    assert objective(inst, out) <= objective(inst, plan) + 1e-15
    assert out.support_size <= plan.support_size


def test_plan_validate_rejects_bad_marginals():
    with pytest.raises(ValueError):
        TransportPlan(2, 2, 2, ((0, 0, 2), (1, 1, 0))).validate()
    with pytest.raises(ValueError):
        TransportPlan(2, 3, 6, ((0, 0, 3), (1, 1, 3))).validate()
    with pytest.raises(ValueError):
        TransportPlan(2, 3, 4, ((0, 0, 2), (1, 1, 2))).validate()  # 4 % 3 != 0
