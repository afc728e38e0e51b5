import copy
import hashlib
import itertools
import math
import pickle
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrigid import (
    CostMatrix,
    ExperimentSpec,
    Instance,
    PointCloud,
    SupportCycleError,
    TransportPlan,
    brute_force_solve,
    cost_from_points,
    enumerate_plans,
    gen_random_costs,
    genericity_check,
    objective,
    pair_counts,
    rigidity_report,
    solve,
    uncross,
    verify_optimality,
)
from otrigid import solver as solver_mod
from otrigid.experiments import build_instance
from otrigid.instance import TIE_TOL
from otrigid.io import plan_csv_lines
from otrigid.solver import (
    DualCertificate,
    _least_cost_basis,
    _perturbed_marginals,
    _pick,
    _price,
    _rooted_forest,
    _solve_difference_constraints,
    find_crossings,
    scaled_objective,
    target_masks,
)
from otrigid.svg import svg_document

# hand-verified 2x3 fixture: unique optimum has scaled cost 2 (objective 1/3)
C23 = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])
OPT23 = ((0, 0, 2), (0, 1, 1), (1, 1, 1), (1, 2, 2))
BAD23 = ((0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 2, 2))  # scaled cost 4


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
        assert _is_forest(plan.m, plan.n, [(i, j) for i, j, _ in plan.flows])


def _is_forest(m, n, arcs):
    # union-find over the bipartite graph of the (i, j) arcs
    parent = list(range(m + n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in arcs:
        a, b = find(i), find(m + j)
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
    return cost_from_points(PointCloud(x), PointCloud(y), 1.0).costs.c


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


_SMALL_SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 12 // m + 1)]


@st.composite
def _small_hostile_costs(draw):
    """An m x n cost matrix with m * n <= 12: {0, 1, 2} ties, all zeros,
    negative integers, lattice W1 with duplicated points, or uniform costs
    scaled by 2**150 or 2**-150."""
    m, n = draw(st.sampled_from(_SMALL_SHAPES))

    def matrix(values, rows, cols):
        flat = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=float).reshape(rows, cols)

    kind = draw(st.sampled_from(["ties", "zeros", "negative", "lattice", "scaled"]))
    if kind == "ties":
        return matrix(st.integers(0, 2), m, n)
    if kind == "zeros":
        return np.zeros((m, n))
    if kind == "negative":
        return matrix(st.integers(-9, -1), m, n)
    if kind == "lattice":
        x, y = matrix(st.integers(0, 2), m, 2), matrix(st.integers(0, 2), n, 2)
        x[-1], y[-1] = x[0], y[0]
        return cost_from_points(PointCloud(x), PointCloud(y), 1.0).costs.c
    scale = draw(st.sampled_from([2.0**150, 2.0**-150]))
    return scale * matrix(st.floats(0.0, 1.0), m, n)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(c=_small_hostile_costs())
def test_solve_hostile_corpus(c):
    # every small hostile case ends in a valid, certified plan that is one of
    # the oracle's optima
    inst = Instance(CostMatrix(c))
    plan = solve(inst)
    plan.validate()
    assert verify_optimality(inst, plan) is not None
    assert plan.flows in {p.flows for p in brute_force_solve(inst).optimal_plans}


@pytest.mark.parametrize(
    "c",
    [pytest.param(c, id=name) for name, c in _hostile_costs()]
    + [pytest.param(gen_random_costs(m, n, 5).costs.c, id=f"random-{m}x{n}")
       for m, n in ((1, 9), (9, 1), (12, 5), (97, 105))],
)
def test_perturbed_start_is_a_positive_spanning_tree(c):
    # nondegenerate marginals: the matrix-minimum start alone must give a
    # tree rooted at node 0 whose m+n-1 arcs carry at least one unit each
    # and meet every marginal
    m, n = c.shape
    _, supply, demand = _perturbed_marginals(m, n, math.lcm(m, n))
    parent, children, pflow, step, _ = _least_cost_basis(c, c, supply, demand)
    assert parent[0] == -1 and pflow[0] == 0
    assert [sorted(kids) for kids in children] == [
        [y for y in range(1, m + n) if parent[y] == x] for x in range(m + n)]
    rows, cols = [0] * m, [0] * n
    for x in range(1, m + n):
        assert pflow[x] >= 1
        i, t = (x, parent[x]) if x < m else (parent[x], x)
        assert 0 <= i < m <= t < m + n  # every arc joins a source and a target
        rows[i] += pflow[x]
        cols[t - m] += pflow[x]
        seen = {x}
        while x:  # every node reaches the root without a cycle
            x = parent[x]
            assert x not in seen
            seen.add(x)
    assert rows == supply and cols == demand


def _full_order_start(c, supply, demand):
    # reference matrix-minimum start: every arc in stable cost order
    m, n = c.shape
    rows, cols = list(supply), list(demand)
    flows = []
    for k in np.argsort(c, axis=None, kind="stable").tolist():
        i, j = divmod(k, n)
        if rows[i] and cols[j]:
            q = min(rows[i], cols[j])
            flows.append((i, j, q))
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
    # the screened start, rooted as it allocates and propagated by
    # _tree_potentials, must give the tree that the certificate's
    # independent rooting finds on a walk over the whole stable cost order,
    # setting each potential as it hangs its node: the same parents and
    # flows, and the same steps and potentials bit for bit
    m, n = c.shape
    _, supply, demand = _perturbed_marginals(m, n, math.lcm(m, n))
    parent, _, pflow, step, w = _least_cost_basis(c, c, supply, demand)
    arcs = _full_order_start(c, supply, demand)
    ref_parent, ref_step, ref_w, _ = _rooted_forest(arcs, c)
    assert parent == ref_parent
    # the flow of the arc from x to its parent, read off the walk's own arcs
    flow = {(i, m + j): f for i, j, f in arcs}
    assert pflow == [0] + [flow[(x, p) if x < m else (p, x)]
                           for x, p in enumerate(parent) if x]
    assert [x.hex() for x in step] == [x.hex() for x in ref_step]
    assert [x.hex() for x in w] == [x.hex() for x in ref_w]


def _sec22(seed):
    return build_instance(ExperimentSpec("sec22", ""), seed)


def _fig1_20(seed):
    return build_instance(ExperimentSpec("fig1", "", ell=20), seed)


def _fig2(seed):
    return build_instance(ExperimentSpec("fig2", ""), seed)


def _count_pivots(monkeypatch):
    """Count the entering arcs solve takes and its full pricings.

    A pivot enters an arc either from _pick, off a list priced at an
    earlier pivot, or from a full _price, which enters its own best arc.
    """
    counts = {"pivots": 0, "pricings": 0}
    pick, price = solver_mod._pick, solver_mod._price

    def counting_pick(*args):
        entering = pick(*args)
        counts["pivots"] += entering is not None
        return entering

    def counting_price(*args):
        entering, rest = price(*args)
        counts["pricings"] += 1
        counts["pivots"] += entering is not None
        return entering, rest

    monkeypatch.setattr(solver_mod, "_pick", counting_pick)
    monkeypatch.setattr(solver_mod, "_price", counting_price)
    return counts


def _propagate_from_node_0(children, c, m):
    # u_i + v_j = c_ij down the tree from w = 0 at node 0, costs read off c
    w = [0.0] * len(children)
    stack = [0]
    while stack:
        x = stack.pop()
        for y in children[x]:
            w[y] = w[x] - c[x][y - m] if x < m else c[y][x - m] + w[x]
            stack.append(y)
    return w


def _integer_costs(shape, seed):
    return np.random.default_rng(seed).integers(0, 4, shape).astype(float)


@pytest.mark.parametrize("inst", [
    pytest.param(_sec22(0), id="sec22-s0"),
    pytest.param(_fig1_20(0), id="fig1-ell20-s0"),
    pytest.param(Instance(CostMatrix(C23 * 2.0**600)), id="C23-2**600"),
    pytest.param(Instance(CostMatrix(C23 * 2.0**-600)), id="C23-2**-600"),
] + [pytest.param(Instance(CostMatrix(_integer_costs(shape, seed))), id=f"int-{shape}-s{seed}")
     for shape, seed in (((3, 4), 1), ((4, 3), 3), ((4, 6), 3))])
def test_potentials_are_exact_at_every_pivot(inst, monkeypatch):
    # after every propagation solve makes (the start, then one per pivot), w
    # holds the bits a fresh propagation from node 0 over the same tree gives
    counts = _count_pivots(monkeypatch)
    c = inst.costs.c.tolist()
    fill = solver_mod._tree_potentials
    checks = 0

    m = inst.m

    def checked_fill(w, stack, children, step):
        nonlocal checks
        fill(w, stack, children, step)
        fresh = _propagate_from_node_0(children, c, m)
        assert [x.hex() for x in w] == [x.hex() for x in fresh]
        # _price masks no tree arc: one whose target is the child prices to
        # exactly 0, and none prices below the entering cut
        for x, kids in enumerate(children):
            for y in kids:
                i, t = (x, y) if x < m else (y, x)
                red = (c[i][t - m] - w[i]) + w[t]
                if t == y:
                    assert red == 0.0
                else:
                    assert red >= -inst.costs.tie
        checks += 1

    monkeypatch.setattr(solver_mod, "_tree_potentials", checked_fill)
    solve(inst)
    assert checks == counts["pivots"] + 1


@pytest.mark.parametrize("inst, trees", [
    pytest.param(_sec22(0), 1, id="sec22-s0"),
    pytest.param(build_instance(ExperimentSpec("fig1", "", ell=2), 0), 2, id="fig1-ell2-s0"),
])
def test_certificate_shares_no_propagation_with_solve(inst, trees, monkeypatch):
    # the certificate sets its own potentials, so with solve's propagation
    # broken after the solve it still certifies a one-tree and a two-tree plan
    plan = solve(inst)
    assert plan.support_size == inst.m + inst.n - trees

    def broken(*args):
        raise AssertionError("the certificate called _tree_potentials")

    monkeypatch.setattr(solver_mod, "_tree_potentials", broken)
    assert verify_optimality(inst, plan) is not None


@pytest.mark.parametrize(
    "c",
    [pytest.param(c, id=name) for name, c in _hostile_costs()]
    + [pytest.param(_integer_costs(shape, 4), id=f"int-{shape}") for shape in ((4, 6), (40, 60))],
)
def test_full_pricing_enters_what_pick_would(c):
    # at the start tree's potentials, a full pricing keeps the `size` most
    # negative arcs below the cut and enters what _pick enters from them in
    # arc-index order: a reference list priced in Python.  Integer costs make
    # exact ties among reduced costs, so the tie-break and the order show
    m, n = c.shape
    _, supply, demand = _perturbed_marginals(m, n, math.lcm(m, n))
    w = _least_cost_basis(c, c, supply, demand)[4]
    cut = -Instance(CostMatrix(c)).costs.tie
    rows = c.tolist()
    below = sorted((r, i * n + j) for i in range(m) for j in range(n)
                   if (r := (rows[i][j] - w[i]) + w[m + j]) < cut)
    for size in (2, max(64, m * n // 100)):
        entering, rest = _price(c, w, cut, size, np.empty((m, n)))
        if not below:
            assert entering is None and rest == []
            continue
        # the kept arcs: all below the size-th reduced cost, and enough of
        # those tied with it, whichever of them the partition keeps
        bound = below[min(size, len(below)) - 1][0]
        kept = {k for r, k in below if r < bound}
        tied = {k for r, k in below if r == bound}
        got = sorted((i * n + t - m) for _, i, t in [entering] + rest)
        assert len(got) == min(size, len(below))
        assert kept <= set(got) <= kept | tied
        ref = [(rows[k // n][k % n], k // n, m + k % n) for k in got]
        assert entering == _pick(ref, w, cut)
        assert rest == ref


# (pivots, full pricings) of solve, counted by wrapping _pick and _price
PIVOT_PATH = {
    ("sec22", 0): (95, 25), ("sec22", 1): (118, 31), ("sec22", 2): (129, 32),
    ("fig1 ell=20", 0): (79, 11), ("fig1 ell=20", 1): (76, 10),
}


@pytest.mark.parametrize("preset,seed", list(PIVOT_PATH))
def test_pivot_path_pinned(preset, seed, monkeypatch):
    inst = _sec22(seed) if preset == "sec22" else _fig1_20(seed)
    counts = _count_pivots(monkeypatch)
    solve(inst)
    assert (counts["pivots"], counts["pricings"]) == PIVOT_PATH[preset, seed]


def test_pivot_limit_counts_pivots_and_names_itself(monkeypatch):
    # the limit is m*n + _PIVOT_SLACK pivots: set to fig1 ell=20 s0's pinned
    # count it solves, one below that it raises and names the limit
    inst = _fig1_20(0)
    plan = solve(inst)
    pivots = PIVOT_PATH["fig1 ell=20", 0][0]
    slack = pivots - inst.m * inst.n
    monkeypatch.setattr(solver_mod, "_PIVOT_SLACK", slack)
    assert solve(inst) == plan
    monkeypatch.setattr(solver_mod, "_PIVOT_SLACK", slack - 1)
    with pytest.raises(RuntimeError, match=f"pivot limit of {pivots - 1} "):
        solve(inst)


@pytest.mark.parametrize("inst", [
    pytest.param(_sec22(seed), id=f"sec22-s{seed}") for seed in range(3)
] + [pytest.param(_fig1_20(seed), id=f"fig1-ell20-s{seed}") for seed in range(2)] + [
    pytest.param(_fig2(0), id="fig2-s0"),
])
def test_solve_maps_under_invariances(inst):
    # transposing the costs, permuting the sources and the targets, adding
    # a_i + b_j and scaling by 2**-600 or 2**600 each map the optimal vertex
    # exactly; the start's centred order sees a_i + b_j only up to rounding.
    # For W2, scaling the source cloud by lam and moving it by t makes the
    # costs lam*c + a_i + b_j, which moves no optimum either
    c = inst.costs.c
    m, n = c.shape
    flows = set(solve(Instance(CostMatrix(c))).flows)
    rng = np.random.default_rng(0)

    transposed = solve(Instance(CostMatrix(c.T.copy())))
    assert {(i, j, f) for j, i, f in transposed.flows} == flows

    rows, cols = rng.permutation(m).tolist(), rng.permutation(n).tolist()
    permuted = solve(Instance(CostMatrix(c[rows][:, cols])))
    assert {(rows[a], cols[b], f) for a, b, f in permuted.flows} == flows

    shifted = c + rng.random(m)[:, None] + rng.random(n)[None, :]
    assert set(solve(Instance(CostMatrix(shifted))).flows) == flows

    for k in (-600, 600):
        assert set(solve(Instance(CostMatrix(c * 2.0**k))).flows) == flows

    geo = inst.geometry
    if geo is not None and geo.p == 2.0:
        x, y = geo.sources.points, geo.targets
        for lam, t in ((2, 0), (0.5, (3, 1)), (1, (0.25, -0.5)), (3, (-1.5, 0.75))):
            moved = cost_from_points(PointCloud(lam * x + np.array(t)), y, 2.0)
            assert set(solve(moved).flows) == flows


def _assignment_cases(count):
    # seeded hostile instances whose scale S = lcm(m, n) is at most 400:
    # integer 0..3 costs, W1 on a 4x4 lattice, uniform costs scaled by
    # 2**150 or 2**-150, and uniform costs rounded to two digits; then three
    # tie-heavy 40x60 W1 instances on a 5x5 lattice, the fig1 ell=20 shape
    rng = np.random.default_rng(12)
    shapes = [(m, n) for m in range(1, 13) for n in range(1, 25) if math.lcm(m, n) <= 400]
    for case in range(count):
        m, n = shapes[rng.integers(len(shapes))]
        kind = case % 4
        if kind == 0:
            c = rng.integers(0, 4, (m, n)).astype(float)
        elif kind == 1:
            x, y = rng.integers(0, 4, (m, 2)), rng.integers(0, 4, (n, 2))
            c = cost_from_points(PointCloud(x), PointCloud(y), 1.0).costs.c
        elif kind == 2:
            c = rng.random((m, n)) * (2.0**150 if rng.integers(2) else 2.0**-150)
        else:
            c = np.round(rng.random((m, n)), 2)
        yield Instance(CostMatrix(c))
    for seed in range(3):
        lattice = np.random.default_rng(seed)
        x, y = lattice.integers(0, 5, (40, 2)), lattice.integers(0, 5, (60, 2))
        yield cost_from_points(PointCloud(x), PointCloud(y), 1.0)


def test_solve_matches_an_independent_assignment_optimum():
    # an S x S assignment, with each row of c repeated S/m times and each
    # column S/n times, has the optimal scaled cost of the transport problem;
    # scipy's solver shares no code with solve.  Only the objective and the
    # certificate are compared: on ties another optimal vertex is legitimate
    optimize = pytest.importorskip("scipy.optimize")
    for inst in _assignment_cases(600):
        c, m, n, S = inst.costs.c, inst.m, inst.n, inst.scale
        big = np.repeat(np.repeat(c, S // m, axis=0), S // n, axis=1)
        rows, cols = optimize.linear_sum_assignment(big)
        plan = solve(inst)
        assert abs(scaled_objective(inst, plan) - big[rows, cols].sum()) <= S * inst.costs.tie
        assert verify_optimality(inst, plan) is not None


def test_objective_zero_costs():
    inst = Instance(CostMatrix(np.zeros((3, 5))))
    assert objective(inst, solve(inst)) == 0.0


def test_objective_permutation_formula():
    inst = gen_random_costs(6, 6, 3)
    plan = solve(inst)
    sigma = {i: j for i, j, _ in plan.flows}
    expected = sum(inst.costs.c[i, sigma[i]] for i in range(6)) / 6
    assert objective(inst, plan) == pytest.approx(expected, rel=1e-14)


def _entrywise_left_fold(inst, plan):
    total = 0.0
    for i, j, f in plan.flows:
        total = total + float(inst.costs.c[i, j]) * f
    return total


def test_scaled_objective_matches_entrywise_sum():
    # bit for bit the entry-by-entry left fold from +0.0 (float.hex tells
    # -0.0 from 0.0), on random costs, the product couplings of every
    # tiny-audit uncross shape and the hostile matrices at 2**(+-150)
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(20):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        inst = Instance(CostMatrix(rng.normal(size=(m, n)) * 10.0 ** rng.integers(-30, 30)))
        cases += [(inst, solve(inst)), (inst, _random_sparse_plan(rng, m, n, 3))]
    # the product couplings n x (n+1), n = 2..29: up to 870 flows
    cases += itertools.islice(_uncross_corpus(), 28)
    for _, c in _hostile_costs() + [("negative-zeros-3x4", np.full((3, 4), -0.0))]:
        m, n = c.shape
        plan = _random_sparse_plan(rng, m, n, 3)
        for k in (0, 150, -150):
            inst = Instance(CostMatrix(c * 2.0**k))
            cases.append((inst, plan))
            if m * n <= 1000:
                cases.append((inst, solve(inst)))
    for inst, plan in cases:
        got = scaled_objective(inst, plan)
        assert got.hex() == _entrywise_left_fold(inst, plan).hex()
        if not inst.costs.c.any():
            assert got.hex() == (0.0).hex()  # +0.0, even over -0.0 costs
    # an index past the matrix cannot reach it: the plan is not built
    with pytest.raises(ValueError, match="out of range"):
        TransportPlan(2, 3, 6, ((0, 3, 1),))


def test_objective_dimension_mismatch():
    inst = Instance(CostMatrix(np.zeros((2, 2))))
    plan = solve(gen_random_costs(3, 3, 0))
    with pytest.raises(ValueError):
        objective(inst, plan)


def test_verify_rejects_suboptimal_plan():
    inst = Instance(CostMatrix(C23))
    bad = TransportPlan(2, 3, 6, BAD23)
    bad.validate()
    assert objective(inst, bad) == pytest.approx(2 / 3, rel=1e-12)
    assert verify_optimality(inst, bad) is None


@pytest.mark.parametrize("k", [-600, -40, 40, 600])
def test_tie_rule_is_scale_invariant(k):
    # scaling every cost by 2**k is exact, so no tie decision may change
    rng = np.random.default_rng(0)
    near_ties = np.add.outer([0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75])
    near_ties += 1e-14 * rng.random((3, 4))  # every quadruple ties at TIE_TOL
    for c in (C23, gen_random_costs(3, 4, 1).costs.c, near_ties):
        m, n = c.shape
        base = Instance(CostMatrix(c))
        scaled = Instance(CostMatrix(c * 2.0**k))
        assert solve(scaled).flows == solve(base).flows
        assert genericity_check(scaled).violations == genericity_check(base).violations
        product = TransportPlan(m, n, m * n, tuple((i, j, 1) for i in range(m) for j in range(n)))
        assert uncross(scaled, product).flows == uncross(base, product).flows
        plans = [p.flows for p in brute_force_solve(base).optimal_plans]
        assert [p.flows for p in brute_force_solve(scaled).optimal_plans] == plans
    scaled = Instance(CostMatrix(C23 * 2.0**k))
    assert verify_optimality(scaled, TransportPlan(2, 3, 6, OPT23)) is not None
    assert verify_optimality(scaled, TransportPlan(2, 3, 6, BAD23)) is None


def test_verify_certificate_1x1():
    inst = Instance(CostMatrix(np.array([[2.5]])))
    cert = verify_optimality(inst, solve(inst))
    assert cert is not None
    assert cert.u[0] + cert.v[0] == pytest.approx(2.5)


def test_certificates_are_values():
    # == compares u and v by value, the arrays are read-only copies (not
    # views into the certificate's potentials), and copies, pickles and
    # hashing behave as CostMatrix's do
    inst = gen_random_costs(3, 5, 0)
    plan = solve(inst)
    cert, again = verify_optimality(inst, plan), verify_optimality(inst, plan)
    assert cert == again and cert is not again
    u, v = cert.u.copy(), cert.v.copy()
    built = DualCertificate(u, v)
    u[1] += 1.0
    v[1] += 1.0
    assert built == cert  # the constructor copied u and v
    assert DualCertificate(u, cert.v) != cert
    assert DualCertificate(cert.u, v) != cert
    for dup in (cert, copy.deepcopy(cert), pickle.loads(pickle.dumps(cert))):
        assert dup == cert
        for a in (dup.u, dup.v):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
    with pytest.raises(TypeError, match="unhashable type: 'DualCertificate'"):
        hash(cert)


def test_difference_constraints_on_one_tree():
    # a 1x1 system needs no shift; a negative diagonal entry, an arc inside
    # the tree, is clamped to 0 in place and left to verify_optimality's test
    delta = _solve_difference_constraints(np.zeros((1, 1)))
    assert delta.shape == (1,) and delta[0] == 0.0
    bound = np.array([[-1.0]])
    delta = _solve_difference_constraints(bound)
    assert delta.tolist() == [0.0] and bound.tolist() == [[0.0]]


def _assert_certifies(inst, plan, cert):
    # the definition: u_i + v_j <= c_ij everywhere, equality on the support,
    # both within the tie cut costs.tie
    c = inst.costs.c
    tol = inst.costs.tie
    assert cert.u.shape == (inst.m,) and cert.v.shape == (inst.n,)
    assert (np.add.outer(cert.u, cert.v) <= c + tol).all()
    for i, j, _ in plan.flows:
        assert abs(c[i, j] - cert.u[i] - cert.v[j]) <= tol


def test_verify_disconnected_support():
    # optimal permutation whose support splits into n components
    inst = gen_random_costs(8, 8, 17)
    plan = solve(inst)
    assert plan.support_size == 8  # eight one-arc trees
    cert = verify_optimality(inst, plan)
    assert cert is not None
    _assert_certifies(inst, plan, cert)


def _with_cycle_reduced_cost(inst, plan, i, j, r):
    # inst with c_ij moved so that the off-support arc (i, j) closes a cycle
    # of reduced cost r with the plan's support: through its own tree when
    # the arc lies inside one, else, on a two-tree support, back through the
    # tightest arc from j's tree to i's.  No shift of the trees' potentials
    # moves a cycle's reduced cost
    m, n = plan.m, plan.n
    c = inst.costs.c.copy()
    _, _, w, tree = _rooted_forest(plan.flows, c)
    assert max(tree) <= 1
    w = np.array(w)
    red = (c - w[:m, None]) + w[None, m:]
    a, b = tree[i], tree[m + j]
    back = 0.0
    if a != b:
        back = min(red[i2, j2] for i2 in range(m) for j2 in range(n)
                   if (tree[i2], tree[m + j2]) == (b, a))
    c[i, j] -= red[i, j] + back - r
    moved = Instance(CostMatrix(c))
    assert moved.costs.tie == inst.costs.tie
    return moved


@pytest.mark.parametrize("support", ["one tree", "two trees"])
def test_verify_decides_at_the_tie_cut(support):
    # an off-support arc whose cycle sits 1.5 ties below zero fails the
    # certificate, and one 0.5 ties below passes it; on the two-tree support
    # of fig1 ell=2 seed 0 both for an arc inside a tree, whose reduced cost
    # no shift moves, and for an arc between the trees, whose cycle the
    # difference constraints close
    if support == "one tree":
        inst, plan, arcs = Instance(CostMatrix(C23)), TransportPlan(2, 3, 6, OPT23), [(0, 2)]
    else:
        inst = build_instance(ExperimentSpec("fig1", "", ell=2), 0)
        plan = solve(inst)
        # trees {s0, s3, t0, t1, t4} and {s1, s2, t2, t3, t5}
        assert _rooted_forest(plan.flows, inst.costs.c)[3] == [0, 1, 1, 0, 0, 0, 1, 1, 0, 1]
        arcs = [(0, 4), (0, 2)]
    for i, j in arcs:
        assert all((i, j) != (a, b) for a, b, _ in plan.flows)
        for ties, certified in ((1.5, False), (0.5, True)):
            moved = _with_cycle_reduced_cost(inst, plan, i, j, -ties * inst.costs.tie)
            cert = verify_optimality(moved, plan)
            assert (cert is not None) == certified, (i, j, ties)
            if certified:
                _assert_certifies(moved, plan, cert)


# SHA-256 of u and v bytes over _certificate_corpus(), as the certificate gave
# them when every support went through the difference constraints
CERTIFICATE_DIGEST = "1b1c35d16d97cd92bd6bdc3968a83728b5a5b9904bb771876877c63cc51c0f3c"


def _certificate_corpus():
    for m, n in itertools.product((2, 3), (2, 3, 4)):
        yield Instance(CostMatrix(np.zeros((m, n))))  # zero potentials, signed zeros
        for seed in range(10):
            yield gen_random_costs(m, n, seed)
    for seed in range(3):
        yield build_instance(ExperimentSpec("sec22", ""), seed)
    for seed in range(4):
        yield build_instance(ExperimentSpec("fig1", "", ell=20), seed)


def test_verify_certificate_bytes_pinned():
    # a one-tree support skips the difference constraints, whose only shift
    # is then delta = 0; u and v keep their bits, signed zeros included, and
    # the multi-tree supports of fig1 ell=20 keep the general path
    h = hashlib.sha256()
    one_tree = multi_tree = 0
    for inst in _certificate_corpus():
        plan = solve(inst)
        cert = verify_optimality(inst, plan)
        _assert_certifies(inst, plan, cert)
        if plan.support_size == inst.m + inst.n - 1:  # a spanning forest of one tree
            one_tree += 1
        else:
            multi_tree += 1
        h.update(cert.u.tobytes())
        h.update(cert.v.tobytes())
    assert one_tree and multi_tree >= 4
    assert h.hexdigest() == CERTIFICATE_DIGEST


# SHA-256 of u and v bytes over _multi_tree_corpus()'s multi-tree plans
MULTI_TREE_CERTIFICATE_DIGEST = "69c370f582807f232df8d7b7025efce8e7fee7f1467eb67f86ceb0b194716c18"


def _multi_tree_corpus():
    # integer {0, 1, 2} costs, 2x2 to 6x6, with each zero as +0.0 and as
    # -0.0, each also scaled by 2**-600 (exact), then random n x n squares,
    # whose permutation plans are n one-arc trees
    for m, n in itertools.product(range(2, 7), repeat=2):
        for seed in range(3):
            c = np.random.default_rng(seed).integers(0, 3, (m, n)).astype(float)
            for signed in (c, np.where(c == 0.0, -0.0, c)):
                yield Instance(CostMatrix(signed))
                yield Instance(CostMatrix(signed * 2.0**-600))
    for n in range(2, 14):
        yield gen_random_costs(n, n, n)


def test_verify_multi_tree_certificate_bytes_pinned():
    # the multi-tree path on tie-heavy, signed-zero and tiny costs, which
    # CERTIFICATE_DIGEST's corpus does not reach; v = 0.0 - w holds no -0.0
    h = hashlib.sha256()
    multi_tree = 0
    for inst in _multi_tree_corpus():
        plan = solve(inst)
        if plan.support_size == inst.m + inst.n - 1:
            continue  # one tree: no difference constraints
        cert = verify_optimality(inst, plan)
        _assert_certifies(inst, plan, cert)
        assert not np.signbit(cert.v[cert.v == 0.0]).any()
        h.update(cert.u.tobytes())
        h.update(cert.v.tobytes())
        multi_tree += 1
    assert multi_tree == 160
    assert h.hexdigest() == MULTI_TREE_CERTIFICATE_DIGEST


def test_verify_raises_on_cyclic_support():
    inst = Instance(CostMatrix(np.zeros((2, 2))))
    cyclic = TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    with pytest.raises(SupportCycleError):
        verify_optimality(inst, cyclic)
    # the first tree {s0, t0} is a tree; the cycle s1 t1 s2 t2 is in the second
    second = TransportPlan(4, 4, 8, ((0, 0, 2), (1, 1, 1), (1, 2, 1), (2, 1, 1),
                                     (2, 2, 1), (3, 3, 2)))
    with pytest.raises(SupportCycleError):
        verify_optimality(gen_random_costs(4, 4, 0), second)


@pytest.mark.parametrize("kind", ["uniform", "0-1-2", "zeros"])
def test_verify_matches_definition_on_every_plan(kind):
    # every integral plan of every shape up to 4x4, three random cost draws
    # each: a cyclic support raises, a forest is certified exactly when the
    # oracle calls it optimal, and every certificate meets the definition
    rng = np.random.default_rng(3)
    draws = range(1 if kind == "zeros" else 3)
    for m, n, _ in itertools.product(range(1, 5), range(1, 5), draws):
        if kind == "uniform":
            c = rng.random((m, n))
        elif kind == "0-1-2":
            c = rng.integers(0, 3, (m, n)).astype(float)
        else:
            c = np.zeros((m, n))
        inst = Instance(CostMatrix(c))
        optimal = {p.flows for p in brute_force_solve(inst).optimal_plans}
        for plan in enumerate_plans(inst):
            if not _is_forest(m, n, [(i, j) for i, j, _ in plan.flows]):
                with pytest.raises(SupportCycleError):
                    verify_optimality(inst, plan)
                continue
            cert = verify_optimality(inst, plan)
            assert (cert is not None) == (plan.flows in optimal)
            if cert is not None:
                _assert_certifies(inst, plan, cert)


def test_find_crossings_full_2x2():
    plan = TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    assert find_crossings(plan) == [(0, 1, 0, 1)]


def _flow_dict(plan):
    return {(i, j): f for i, j, f in plan.flows}


def _brute_force_crossings(plan):
    pos = _flow_dict(plan)
    return [
        (i, i2, j, j2)
        for i in range(plan.m) for i2 in range(i + 1, plan.m)
        for j in range(plan.n) for j2 in range(j + 1, plan.n)
        if {(i, j), (i, j2), (i2, j), (i2, j2)} <= pos.keys()
    ]


@pytest.mark.parametrize("density", [0.1, 0.3, 0.6, 1.0])
@pytest.mark.parametrize("m,n,seed", [(1, 6, 0), (6, 1, 1), (2, 2, 2), (5, 9, 3),
                                      (9, 5, 4), (12, 12, 5), (3, 130, 6), (9, 70, 7)])
def test_find_crossings_matches_brute_force(m, n, seed, density):
    # density 1.0 is the full product coupling; below it, a sum of
    # northwest-corner plans (at most m+n-1 arcs each) about that dense.
    # n = 130 and 70 put targets past bit 63 of the per-source bitsets
    rng = np.random.default_rng(seed)
    if density == 1.0:
        plan = TransportPlan(m, n, m * n, tuple((i, j, 1) for i in range(m) for j in range(n)))
    else:
        plan = _random_sparse_plan(rng, m, n, math.ceil(density * m * n / (m + n - 1)))
    got = find_crossings(plan)
    assert got == _brute_force_crossings(plan)
    # pair_counts reads the same per-source target bitsets, and counts the same crossings
    pos = _flow_dict(plan)
    assert target_masks(plan) == [sum(1 << j for j in range(n) if (i, j) in pos)
                                  for i in range(m)]
    common = {(i, i2): sum((i, j) in pos and (i2, j) in pos for j in range(n))
              for i in range(m) for i2 in range(i + 1, m)}
    rep = pair_counts(plan)
    assert rep.max_pair_count == max(common.values(), default=0)
    assert rep.crossings == len(got)
    # double counting: the common-target counts sum to sum_j C(l_j, 2)
    ell = rigidity_report(plan).ell
    assert sum(common.values()) == sum(math.comb(lj, 2) for lj in ell)
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


def test_uncross_pushes_by_the_gain_sign_past_the_tie_band():
    # a crossing's gain 1.5 ties from zero is no tie: the push lowers the
    # cost, though the tie rule (zero the lexicographically smallest entry)
    # would push the other way on these flows
    g = 1.5e-12  # 1.5 ties: max|c| is 1 to within g
    # gain -g on the 2x2 product plan: the tie rule lowers (0, 0) and (1, 1)
    inst = Instance(CostMatrix(np.array([[1.0, 1.0], [1.0, 1.0 - g]])))
    assert inst.costs.tie == TIE_TOL
    plan = TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    assert uncross(inst, plan).flows == ((0, 0, 2), (1, 1, 2))
    # gain +g on targets 0, 1 with f_00 = 3 > f_11 = 2: the tie rule lowers
    # (0, 1) and (1, 0); the gain lowers (0, 0) and (1, 1), and the next
    # crossing, on targets 0, 2 with gain 0.5, lowers (0, 0) and (1, 2)
    inst = Instance(CostMatrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + g, 0.5]])))
    assert 1.4 < g / inst.costs.tie < 1.6
    plan = TransportPlan(2, 3, 12, ((0, 0, 3), (0, 1, 2), (0, 2, 1),
                                    (1, 0, 1), (1, 1, 2), (1, 2, 3)))
    assert uncross(inst, plan).flows == ((0, 1, 4), (0, 2, 2), (1, 0, 4), (1, 2, 2))


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


# sha256 over the plan CSV lines of every uncross output of _uncross_corpus,
# in corpus order, recorded from the uncross that re-scanned all source pairs
# after every push.  A change to how uncross finds its next crossing must
# return the very same plans.
UNCROSS_DIGEST = "d59945823f87b3aa1ce6e5fd9fd1a50a933edb63e548522b202ea12d5a100065"


def _add_northwest_corner(flows, rows, cols, base):
    """Add the northwest-corner plan at scale `base` over these row and
    column orders to the {(i, j): f} dict `flows`."""
    m, n = len(rows), len(cols)
    supply, demand = [base // m] * m, [base // n] * n
    a = b = 0
    while a < m and b < n:
        i, j = rows[a], cols[b]
        f = min(supply[i], demand[j])
        flows[(i, j)] = flows.get((i, j), 0) + f
        supply[i] -= f
        demand[j] -= f
        a += supply[i] == 0
        b += demand[j] == 0


def _random_sparse_plan(rng, m, n, layers):
    """Sum of `layers` northwest-corner plans over random row/column orders."""
    base = math.lcm(m, n)
    flows = {}
    for _ in range(layers):
        _add_northwest_corner(flows, rng.permutation(m).tolist(), rng.permutation(n).tolist(), base)
    return TransportPlan(m, n, layers * base, tuple((i, j, f) for (i, j), f in flows.items()))


def _uncross_corpus():
    """(inst, plan) pairs: product couplings and sparse plans on tied costs."""
    for seed in (0, 1):
        for n in range(2, 30):
            inst = gen_random_costs(n, n + 1, seed)
            unit = inst.scale // (n * (n + 1))
            yield inst, TransportPlan(n, n + 1, inst.scale, tuple(
                (i, j, unit) for i in range(n) for j in range(n + 1)))
    rng = np.random.default_rng(20261018)
    for k in range(160):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 11))
        kind = k % 4
        if kind == 0:
            c = rng.random((m, n))
        elif kind == 1:
            c = rng.integers(0, 3, (m, n)).astype(float)  # many exact ties
        elif kind == 2:
            c = np.ones((m, n))
        else:  # a_i + b_j: every push is an exact tie
            c = (rng.integers(0, 5, m)[:, None] + rng.integers(0, 5, n)[None, :]).astype(float)
        yield Instance(CostMatrix(c)), _random_sparse_plan(rng, m, n, int(rng.integers(2, 5)))


def test_uncross_output_digest():
    h = hashlib.sha256()
    for inst, plan in _uncross_corpus():
        out = uncross(inst, plan)
        h.update(("\n".join(plan_csv_lines(out)) + "\n").encode())
    assert h.hexdigest() == UNCROSS_DIGEST


def _uncross_by_definition(inst, plan):
    """uncross as its docstring defines it: push on find_crossings' first
    crossing until none is left."""
    c = inst.costs.c
    tie_tol = inst.costs.tie
    flows = _flow_dict(plan)
    while True:
        cur = TransportPlan(plan.m, plan.n, plan.scale,
                            tuple((i, j, f) for (i, j), f in flows.items()))
        crossings = find_crossings(cur)
        if not crossings:
            return cur
        i, i2, j, j2 = crossings[0]
        diag, anti = ((i, j), (i2, j2)), ((i, j2), (i2, j))
        gain = (c[i, j] + c[i2, j2]) - (c[i, j2] + c[i2, j])
        if abs(gain) <= tie_tol:
            # a push zeroes its lowered arc of least flow (the lexicographically
            # smaller on equal flows); zero the smaller of the two candidates
            def zeroed(arcs):
                return min(arcs, key=lambda arc: (flows[arc], arc))
            push_diag = zeroed(anti) < zeroed(diag)
        else:
            push_diag = gain < 0
        up, down = (diag, anti) if push_diag else (anti, diag)
        eps = min(flows[arc] for arc in down)
        for arc in up:
            flows[arc] += eps
        for arc in down:
            flows[arc] -= eps
            if not flows[arc]:
                del flows[arc]


@st.composite
def _layered_plans(draw):
    """(inst, plan): a sum of 1-4 permutation or northwest-corner plans on
    continuous, 0/1/2-valued or additive (every push a tie) costs."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    base = math.lcm(m, n)
    layers = draw(st.integers(1, 4))
    flows = {}
    for _ in range(layers):
        if m == n and draw(st.booleans()):
            for i, j in enumerate(draw(st.permutations(range(n)))):
                flows[(i, j)] = flows.get((i, j), 0) + base // n
        else:
            _add_northwest_corner(flows, draw(st.permutations(range(m))),
                                  draw(st.permutations(range(n))), base)
    plan = TransportPlan(m, n, layers * base, tuple((i, j, f) for (i, j), f in flows.items()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "small", "additive"]))
    if kind == "continuous":
        c = rng.random((m, n))
    elif kind == "small":
        c = rng.integers(0, 3, (m, n)).astype(float)
    else:
        c = (rng.integers(0, 5, m)[:, None] + rng.integers(0, 5, n)[None, :]).astype(float)
    return Instance(CostMatrix(c)), plan


@settings(max_examples=150, deadline=None)
@given(case=_layered_plans())
def test_uncross_matches_definition(case):
    inst, plan = case
    plan.validate()
    assert uncross(inst, plan) == _uncross_by_definition(inst, plan)


def _wide_uncross_cases():
    """(id, inst, plan) with targets past one 30-bit int digit, where a
    source's target bitset spans several digits: product couplings and
    layered sparse plans with n in {31, 64, 65, 130}, plus m = 1 and n = 1."""
    rng = np.random.default_rng(20261019)

    def costs(kind, m, n):
        if kind == "continuous":
            return rng.random((m, n))
        if kind == "small":
            return rng.integers(0, 3, (m, n)).astype(float)
        return (rng.integers(0, 5, m)[:, None] + rng.integers(0, 5, n)[None, :]).astype(float)

    for m, n, kind in [(2, 31, "continuous"), (2, 64, "continuous"), (2, 65, "small"),
                       (2, 130, "continuous"), (3, 64, "additive"), (3, 65, "continuous"),
                       (1, 130, "continuous"), (130, 1, "continuous")]:
        product = TransportPlan(m, n, m * n, tuple((i, j, 1) for i in range(m) for j in range(n)))
        yield f"product-{m}x{n}-{kind}", Instance(CostMatrix(costs(kind, m, n))), product
    kinds = ["continuous", "small", "additive"]
    for n in (31, 64, 65, 130):
        for k, m in enumerate((1, 3, 7)):
            kind = kinds[(n + k) % 3]
            yield (f"sparse-{m}x{n}-{kind}", Instance(CostMatrix(costs(kind, m, n))),
                   _random_sparse_plan(rng, m, n, 3))
    yield "sparse-31x1-small", Instance(CostMatrix(costs("small", 31, 1))), _random_sparse_plan(rng, 31, 1, 2)


_WIDE_UNCROSS_CASES = list(_wide_uncross_cases())


@pytest.mark.parametrize("inst,plan", [case[1:] for case in _WIDE_UNCROSS_CASES],
                         ids=[case[0] for case in _WIDE_UNCROSS_CASES])
def test_uncross_matches_definition_past_one_digit(inst, plan):
    assert uncross(inst, plan) == _uncross_by_definition(inst, plan)


def test_plan_validate_rejects_bad_marginals():
    with pytest.raises(ValueError):
        TransportPlan(2, 2, 2, ((0, 0, 2), (1, 1, 0))).validate()
    with pytest.raises(ValueError):
        TransportPlan(2, 3, 6, ((0, 0, 3), (1, 1, 3))).validate()
    with pytest.raises(ValueError):
        TransportPlan(2, 3, 4, ((0, 0, 2), (1, 1, 2))).validate()  # 4 % 3 != 0
    # construction runs the check: no infeasible plan is ever built
    for args, match in (
        ((2, 2, 4, ((1, 0, 1), (0, 1, 2), (1, 0, 1))), "duplicate flow entry \\(1,0\\)"),
        ((2, 2, 4, ((0, 0, 2), (1, 2, 2))), "out of range"),
        ((2, 2, 4, ((-1, 0, 2), (1, 1, 2))), "out of range"),
        ((2, 2, 2, ((0, 0, 1), (1, 1, 1), (0, 1, 0))), "positive integer"),
        ((2, 2, 0, ()), "at least 1"),
        ((0, 2, 2, ()), "at least 1"),
        ((2, 0, 2, ()), "at least 1"),
        ((2, 3, 4, ((0, 0, 2), (1, 1, 2))), "divisible"),
        ((3, 2, 4, ((0, 0, 2), (1, 1, 2))), "divisible"),
        ((2, 3, 6, ((0, 0, 3), (1, 1, 3))), "target not exactly filled"),
        ((2, 2, 4, ((0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 1, 1))), "source not exactly depleted"),
        # only ints: a float flow or scale used to build and break the CSV emitter
        ((1, 1, 1, ((0, 0, 1.0),)), "must be three ints"),
        ((1, 1, 1, ((0.0, 0, 1),)), "must be three ints"),
        ((1, 1, 1, ((0, True, 1),)), "must be three ints"),
        ((1, 1, 1, ((0, 0, np.int64(1)),)), "must be three ints"),
        ((1, 1, 2.0, ((0, 0, 2),)), "must be ints"),
        ((1.0, 1, 1, ((0, 0, 1),)), "must be ints"),
        ((1, np.int64(1), 1, ((0, 0, 1),)), "must be ints"),
        # flows the sort cannot order are a ValueError too, not a TypeError
        ((1, 2, 2, ((0, "a", 1), (0, 1, 1))), "flows must be"),
        ((1, 2, 2, ((None, 0, 1), (0, 1, 1))), "flows must be"),
        ((1, 2, 2, ((0, [1], 1), (0, 1, 1))), "flows must be"),
        ((1, 2, 2, None), "flows must be"),
        ((1, 2, 2, (5, 7)), "flows must be"),
    ):
        with pytest.raises(ValueError, match=match):
            TransportPlan(*args)


@pytest.mark.parametrize("flows,bad", [
    (((0, 1),), (0, 1)),
    (((0, 0, 1), ()), ()),
    (((0, 0, 1, 5), (0, 1, 1)), (0, 0, 1, 5)),
    (((0, 0, 1), (0, 1, 1, 0)), (0, 1, 1, 0)),
])
def test_plan_names_an_entry_that_is_not_a_triple(flows, bad):
    # a short or a long entry is named, not left to tuple unpacking
    with pytest.raises(ValueError, match=re.escape(f"flow entry {bad!r} is not an (i, j, f) triple")):
        TransportPlan(1, 2, 2, flows)


@pytest.mark.parametrize("m,n", [(2, 2), (4, 4), (3, 2)])
def test_plan_shape_must_match_instance(m, n):
    # a plan of another shape is refused, not certified, indexed past the
    # matrix or drawn
    inst = gen_random_costs(3, 3, 0)
    plan = solve(gen_random_costs(m, n, 0))
    for check in (objective, verify_optimality, uncross):
        with pytest.raises(ValueError, match="do not match"):
            check(inst, plan)
    geo = cost_from_points(PointCloud(np.eye(3, 2)), PointCloud(np.eye(3, 2)), 1.0)
    with pytest.raises(ValueError, match="do not match"):
        svg_document(geo, plan)
