import copy
import dataclasses
import math
import pickle
import time

import numpy as np
import pytest

from otrigid import (
    CostMatrix,
    Instance,
    PointCloud,
    cost_from_points,
    gen_point_instance,
    gen_points,
    gen_random_costs,
    genericity_check,
    perturb,
    solve,
)
from otrigid import instance as instance_mod
from otrigid.instance import MAX_ABS_COST, TIE_TOL, VIOLATION_LIST_LIMIT, Geometry
from otrigid.io import instance_from_dict, instance_to_dict


def test_gen_points_uniform_range():
    cloud = gen_points("uniform-square", 1, 2, 7)
    assert cloud.points.shape == (1, 2)
    assert np.all((cloud.points >= 0) & (cloud.points < 1))


def test_gen_points_fig2_size():
    cloud = gen_points("uniform-square", 2222, 2, 3)
    assert cloud.points.shape == (2222, 2)
    assert np.all((cloud.points >= 0) & (cloud.points < 1))


def test_gen_points_deterministic():
    a = gen_points("gaussian", 40, 3, 11)
    b = gen_points("gaussian", 40, 3, 11)
    assert np.array_equal(a.points, b.points)


def test_gen_points_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_points("uniform-square", 0, 2, 1)
    with pytest.raises(ValueError):
        gen_points("triangular", 3, 2, 1)


def test_cost_from_points_345_triangle():
    x = PointCloud([[0.0, 0.0]])
    y = PointCloud([[3.0, 4.0]])
    inst1 = cost_from_points(x, y, 1.0)
    inst2 = cost_from_points(x, y, 2.0)
    assert inst1.costs.c[0, 0] == pytest.approx(5.0, rel=1e-15)
    assert inst2.costs.c[0, 0] == pytest.approx(25.0, rel=1e-15)


def test_cost_from_points_self_distance_zero():
    x = gen_points("uniform-square", 6, 2, 5)
    inst = cost_from_points(x, x, 2.0)
    assert np.all(np.diagonal(inst.costs.c) == 0.0)


def test_cost_from_points_swap_is_transpose():
    x = gen_points("uniform-square", 4, 2, 1)
    y = gen_points("gaussian", 7, 2, 2)
    a = cost_from_points(x, y, 2.0)
    b = cost_from_points(y, x, 2.0)
    assert np.array_equal(a.costs.c, b.costs.c.T)


def test_cost_from_points_keeps_the_clouds():
    # the clouds are read-only already and carry no label to rewrite
    x = gen_points("uniform-square", 3, 2, 1)
    y = gen_points("uniform-square", 5, 2, 2)
    geo = cost_from_points(x, y, 2).geometry
    assert geo.sources is x and geo.targets is y
    assert type(geo.p) is float and geo.p == 2.0  # Geometry keeps p as a float


def test_cost_from_points_dimension_mismatch():
    x = gen_points("uniform-square", 3, 2, 1)
    y = gen_points("uniform-square", 3, 3, 1)
    with pytest.raises(ValueError):
        cost_from_points(x, y, 2.0)


@pytest.mark.parametrize("src_dim,tgt_dim,p", [
    (2, 2, 0), (2, 2, -1.0), (2, 2, math.inf), (2, 2, math.nan), (2, 2, None),
    (2, 2, [2]), (2, 2, "2"), (2, 3, 2.0), (3, 2, 2.0),
], ids=["p0", "p-1", "p-inf", "p-nan", "p-null", "p-list", "p-str", "dim2-3", "dim3-2"])
def test_load_rejects_what_cost_from_points_rejects(src_dim, tgt_dim, p):
    # Geometry holds the rules, so a file cannot carry a geometry that
    # cost_from_points refuses; its costs are the ones such a geometry
    # gives when the rule is ignored (the first common coordinates, p as is)
    x = gen_points("uniform-square", 2, src_dim, 0)
    y = gen_points("uniform-square", 3, tgt_dim, 1)
    with pytest.raises(ValueError):
        cost_from_points(x, y, p)
    d = min(src_dim, tgt_dim)
    c = np.zeros((2, 3))
    if isinstance(p, (int, float)):
        with np.errstate(all="ignore"):
            c = instance_mod._power_distance_matrix(x.points[:, :d], y.points[:, :d], p)
        c[~np.isfinite(c)] = 0.0
    geometry = {"sources": x.points.tolist(), "targets": y.points.tolist(), "p": p}
    with pytest.raises(ValueError):
        instance_from_dict({"m": 2, "n": 3, "costs": c.tolist(), "geometry": geometry})


def test_scale_is_lcm():
    for m, n in [(1, 1), (2, 3), (7, 2000), (50, 2222), (20, 30)]:
        inst = Instance(CostMatrix(np.zeros((m, n))))
        assert inst.scale == math.lcm(m, n)
        assert inst.scale % m == 0 and inst.scale % n == 0


def test_gen_random_costs_range_and_shape():
    inst = gen_random_costs(1, 1, 0)
    assert 0.0 <= inst.costs.c[0, 0] < 1.0
    inst = gen_random_costs(7, 2000, 1)
    assert inst.costs.c.shape == (7, 2000)
    assert inst.geometry is None


def test_random_costs_generic_over_seeds():
    for seed in range(50):
        rep = genericity_check(gen_random_costs(5, 8, seed))
        assert rep.generic, f"seed {seed} unexpectedly non-generic"


def test_genericity_all_zero():
    rep = genericity_check(Instance(CostMatrix(np.zeros((2, 2)))))
    assert not rep.generic
    assert rep.violations == ((0, 1, 0, 1),)
    # the verdict is read off the list, so the two cannot disagree
    assert [f.name for f in dataclasses.fields(rep)] == ["violations", "truncated"]


def test_genericity_hand_scan():
    # d = c0 - c1 = [-2, 0, 2]: the 3 quadruple sums all differ
    inst = Instance(CostMatrix(np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])))
    rep = genericity_check(inst)
    assert rep.generic


def test_genericity_vacuous_for_single_row_or_col():
    assert genericity_check(Instance(CostMatrix(np.zeros((1, 5))))).generic
    assert genericity_check(Instance(CostMatrix(np.zeros((5, 1))))).generic


def test_genericity_monotone_in_tolerance():
    # the scan under genericity_check, at cuts around costs.tie: a wider cut
    # flags a superset
    rng = np.random.default_rng(9)
    c = np.round(rng.random((4, 5)), 2)  # coarse grid forces some ties
    max_abs = CostMatrix(c).max_abs
    found = []
    for tau in (0.0, 1e-12, 1e-6, 1e-2, 1.0):
        out = []
        assert not instance_mod._collect_near_ties(c, tau * max_abs, out)
        found.append(set(out))
    for small, big in zip(found, found[1:]):
        assert small <= big


def test_genericity_finds_planted_tie():
    rng = np.random.default_rng(4)
    c = rng.random((4, 6))
    c[2, 5] = c[0, 5] + c[2, 3] - c[0, 3]  # plant c_03 + c_25 = c_05 + c_23
    rep = genericity_check(Instance(CostMatrix(c)))
    assert not rep.generic
    assert (0, 2, 3, 5) in rep.violations


@pytest.mark.parametrize("gap, tie", [(2.0, False), (0.5, True)])
def test_genericity_cut_at_its_edge(gap, tie):
    # the cut is 1e-12 * max|c|: a planted quadruple whose sum misses by
    # gap * 1e-12 * max|c| is a near-tie at gap 0.5 and not at gap 2;
    # max|c| = 2 exactly
    c = np.random.default_rng(4).random((4, 6))
    c[3, 0] = 2.0
    c[2, 5] = c[0, 5] + c[2, 3] - c[0, 3] + gap * 1e-12 * 2.0
    rep = genericity_check(Instance(CostMatrix(c)))
    assert rep.violations == (((0, 2, 3, 5),) if tie else ())


def test_genericity_exact_on_long_rows():
    # 3 * (12000 choose 2) ~ 2e8 quadruples, one planted tie among them
    inst = gen_random_costs(3, 12000, 0)
    assert genericity_check(inst).generic
    c = inst.costs.c.copy()
    c[2, 11999] = c[0, 11999] + c[2, 5] - c[0, 5]
    rep = genericity_check(Instance(CostMatrix(c)))
    assert rep.violations == ((0, 2, 5, 11999),)
    assert not rep.truncated


def _brute_force_near_ties(c, abs_tol):
    """Every quadruple, with the scan's own rounding: (c_ik - c_jk) - (c_il - c_jl)."""
    m, n = c.shape
    return tuple(
        (i, j, k, l)
        for i in range(m)
        for j in range(i + 1, m)
        for k in range(n)
        for l in range(k + 1, n)
        if abs((c[i, k] - c[j, k]) - (c[i, l] - c[j, l])) <= abs_tol
    )


def _near_tie_corpus():
    rng = np.random.default_rng(31)
    corpus = [np.zeros((3, 4)), rng.random((5, 7)), rng.random((6, 3))]
    corpus += [np.round(rng.random((4, 6)), digits) for digits in (1, 2)]
    planted = rng.random((4, 6))
    planted[2, 5] = planted[0, 5] + planted[2, 3] - planted[0, 3]
    corpus.append(planted)
    base = rng.random((3, 4))
    corpus.append(base[[0, 1, 2, 0]][:, [0, 1, 2, 3, 1]])  # duplicated row and column
    grid = np.array([(a, b) for a in range(3) for b in range(3)], dtype=float)
    for p in (1.0, 2.0):
        lattice = cost_from_points(
            PointCloud(grid[:5]), PointCloud(grid[2:]), p
        )
        corpus.append(lattice.costs.c)
    return corpus


def test_genericity_matches_brute_force():
    for c in _near_tie_corpus():
        costs = CostMatrix(c)
        rep = genericity_check(Instance(costs))
        assert not rep.truncated
        assert rep.violations == _brute_force_near_ties(c, costs.tie), c.shape
        # the scan is exact at any cut, not only at costs.tie
        for tol in (0.0, 1e-12, 1e-6, 1e-2, 1.0):
            abs_tol = tol * costs.max_abs
            got = []
            assert not instance_mod._collect_near_ties(c, abs_tol, got)
            assert tuple(sorted(got)) == _brute_force_near_ties(c, abs_tol), (c.shape, tol)


def _per_pair_near_ties(c, abs_tol, limit):
    """Reference scan, one source pair at a time in (i, j) order: every sorted
    position lo, then every later position within abs_tol of it."""
    m, n = c.shape
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            d = c[i] - c[j]
            perm = np.argsort(d, kind="stable")
            row = d[perm]
            for lo in range(n):
                t = lo + 1
                while t < n and row[t] - row[lo] <= abs_tol:
                    if len(out) == limit:
                        return out, True
                    k, l = sorted((int(perm[lo]), int(perm[t])))
                    out.append((i, j, k, l))
                    t += 1
    return out, False


def _scan_block_corpus():
    rng = np.random.default_rng(17)
    shapes = ((1, 1), (1, 5), (5, 1), (2, 2), (3, 4), (4, 3), (6, 9), (9, 4))
    for m, n in shapes:
        yield np.zeros((m, n))
        yield rng.integers(0, 3, (m, n)).astype(float)
        x = rng.integers(0, 3, (m, 2)).astype(float)
        y = rng.integers(0, 3, (n, 2)).astype(float)
        yield cost_from_points(PointCloud(x), PointCloud(y), 1.0).costs.c
    yield gen_point_instance("uniform-square", 8, 12, 1.0, 3).costs.c


@pytest.mark.parametrize("limit", [VIOLATION_LIST_LIMIT, 5])
def test_genericity_blocked_scan_matches_per_pair_scan(monkeypatch, limit):
    # any block size gives the reference's violations, in its order, and
    # stops at the same one when the list limit is small
    monkeypatch.setattr(instance_mod, "VIOLATION_LIST_LIMIT", limit)
    for c in _scan_block_corpus():
        m, n = c.shape
        abs_tol = TIE_TOL * float(np.max(np.abs(c)))
        want = _per_pair_near_ties(c, abs_tol, limit)
        # n and 2 * n + 1: a block that whole pairs fill and one a difference past them
        for block in (1, 7, n, 2 * n + 1, m * n, 1 << 20):
            monkeypatch.setattr(instance_mod, "_SCAN_BLOCK", block)
            got = []
            truncated = instance_mod._collect_near_ties(c, abs_tol, got)
            assert (got, truncated) == want, (c.shape, block)
            rep = genericity_check(Instance(CostMatrix(c)))
            assert rep.violations == tuple(sorted(want[0]))
            assert rep.truncated == want[1]


def _broadcast_power_distance(x, y, p):
    # the (m, n, d) broadcast-and-sum form the one-coordinate-at-a-time
    # accumulation must reproduce
    diff = x[:, None, :] - y[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2)) ** p


@pytest.mark.parametrize("m,n", [(40, 60), (50, 2222)])  # fig1 ell=20 and fig2
def test_power_distance_keeps_its_bits(m, n):
    for dim in (1, 2, 3):
        x = gen_points("uniform-square", m, dim, dim).points
        y = gen_points("gaussian", n, dim, dim + 10).points
        for p in (0.5, 1.0, 2.0, 3.0):
            got = instance_mod._power_distance_matrix(x, y, p)
            assert got.tobytes() == _broadcast_power_distance(x, y, p).tobytes(), (dim, p)


def test_geometry_check_verdict_matches_allclose():
    x = gen_points("uniform-square", 3, 2, 0)
    y = gen_points("uniform-square", 4, 2, 1)
    inst = cost_from_points(x, y, 2.0)
    atol = TIE_TOL * inst.costs.max_abs
    costs = [inst.costs.c + k * atol for k in (0.0, 0.5, 3.0)]
    bad = inst.costs.c.copy()
    bad[2, 3] = 2.0
    costs.append(bad)
    pts = x.points.copy()
    geometries = [inst.geometry]
    for value in (np.inf, np.nan):
        pts[1, 0] = value
        geometries.append(Geometry(PointCloud(pts), y, 2.0))
    for c in costs:
        for g in geometries:
            ok = np.allclose(c, instance_mod._power_distance_matrix(
                g.sources.points, g.targets.points, 2.0), rtol=0.0, atol=atol)
            if ok:
                Instance(CostMatrix(c), g)
            else:
                with pytest.raises(ValueError, match="inconsistent with geometry"):
                    Instance(CostMatrix(c), g)
    # the mismatch, inf and nan cases are all refused
    with pytest.raises(ValueError):
        Instance(CostMatrix(bad), inst.geometry)
    for g in geometries[1:]:
        with pytest.raises(ValueError):
            Instance(inst.costs, g)


def test_genericity_list_truncated_on_all_zero():
    inst = Instance(CostMatrix(np.zeros((50, 2222))))  # ~3e9 violations
    start = time.perf_counter()
    rep = genericity_check(inst)
    elapsed = time.perf_counter() - start
    assert not rep.generic
    assert rep.truncated
    assert len(rep.violations) == VIOLATION_LIST_LIMIT
    assert elapsed < 1.0


def test_perturb_bound_and_determinism():
    inst = gen_random_costs(5, 8, 0)
    eta = 1e-3
    out1 = perturb(inst, eta, 42)
    out2 = perturb(inst, eta, 42)
    assert np.array_equal(out1.costs.c, out2.costs.c)
    delta = out1.costs.c - inst.costs.c
    assert np.all(delta >= 0.0)
    assert np.all(delta < eta * inst.costs.max_abs)


def test_perturb_adds_plain_jitter_where_it_fits():
    inst = gen_random_costs(5, 8, 3)
    eta = 1e-6
    expected = inst.costs.c + np.random.default_rng(7).random((5, 8)) * (
        eta * inst.costs.max_abs
    )
    assert perturb(inst, eta, 7).costs.c.tobytes() == expected.tobytes()


def test_perturb_stays_within_cost_bound():
    c = np.full((2, 2), MAX_ABS_COST)
    c[1, 1] = -MAX_ABS_COST
    inst = Instance(CostMatrix(c))
    out1 = perturb(inst, 1e-9, 0)
    out2 = perturb(inst, 1e-9, 0)
    assert out1.costs.c.tobytes() == out2.costs.c.tobytes()
    assert out1.costs.max_abs <= MAX_ABS_COST
    delta = np.abs(out1.costs.c - c)
    assert np.all(delta > 0.0) and np.all(delta < 1e-9 * MAX_ABS_COST)
    assert genericity_check(out1).generic


def test_perturb_restores_genericity_on_zeros():
    inst = Instance(CostMatrix(np.zeros((2, 2))))
    for seed in range(10):
        assert genericity_check(perturb(inst, 1e-9, seed)).generic


def test_perturb_drops_geometry():
    x = gen_points("uniform-square", 3, 2, 0)
    y = gen_points("uniform-square", 4, 2, 1)
    inst = cost_from_points(x, y, 2.0)
    assert perturb(inst, 1e-9, 0).geometry is None


def test_geometry_consistency_enforced():
    x = gen_points("uniform-square", 3, 2, 0)
    y = gen_points("uniform-square", 4, 2, 1)
    inst = cost_from_points(x, y, 2.0)
    bad = inst.costs.c.copy()
    bad[0, 0] += 0.5
    with pytest.raises(ValueError):
        Instance(CostMatrix(bad), inst.geometry)


def test_cost_matrix_rejects_nonfinite():
    # a nan beside an entry past 2**996 is reported as not finite, in either order
    for c in ([[0.0, np.nan]], [[np.inf]], [[1.0, -np.inf]],
              [[2.0**1000, np.nan]], [[np.nan, -(2.0**1000)]]):
        with pytest.raises(ValueError, match="must all be finite"):
            CostMatrix(np.array(c))
    with pytest.raises(ValueError, match=r"\|c_ij\| <= 2\*\*996"):
        CostMatrix(np.array([[0.0, -(2.0**1000)]]))


@pytest.mark.parametrize("bad", ["0.5", True, None, np.True_, b"1", [0.5]],
                         ids=["str", "bool", "None", "numpy-bool", "bytes", "list"])
def test_non_numbers_are_refused(bad):
    # numpy alone reads "0.5" as 0.5, True as 1.0 and None as nan
    for make in (CostMatrix, PointCloud):
        with pytest.raises(ValueError, match="must be numbers"):
            make([[0.5, bad]])
        with pytest.raises(ValueError, match="must be numbers"):
            make(np.array([[0.5, bad]], dtype=object))
    for arr in (np.array([["0.5", "1"]]), np.array([[True, False]])):
        with pytest.raises(ValueError, match="must be numbers"):
            CostMatrix(arr)
    y = PointCloud([[0.0, 0.0]])
    for p in (True, np.True_, "2", None):
        with pytest.raises(ValueError, match="exponent p"):
            Geometry(y, y, p)


def test_real_numbers_are_accepted():
    want = CostMatrix(np.array([[0.5, 2.0, -3.0]]))
    for c in ([[0.5, 2, -3.0]], [[np.float64(0.5), np.int64(2), -3]],
              np.array([[0.5, 2, -3]], dtype=object), want.c.astype(np.float32)):
        assert CostMatrix(c) == want
    for arr in (np.array([[1, 4, -6]]), np.array([[1, 4, 6]], dtype=np.uint8)):
        assert CostMatrix(arr) == CostMatrix(arr.astype(float))
    assert Geometry(PointCloud([[0, 1]]), PointCloud([[1.0, 0.0]]), 2).p == 2.0


def test_cost_matrix_rejects_magnitudes_that_overflow():
    # an exact tie whose differences overflow: c[0] - c[1] = 2e308 -> inf
    with pytest.raises(ValueError):
        CostMatrix(np.array([[1e308, 1e308], [-1e308, -1e308]]))
    with pytest.raises(ValueError):
        CostMatrix(np.array([[0.0, -(2.0**997)]]))
    assert CostMatrix(np.array([[MAX_ABS_COST, -MAX_ABS_COST]])).max_abs == MAX_ABS_COST
    # below the bound, a tie at 1e150 is still seen exactly
    tie = Instance(CostMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]) * 1e150))
    assert not genericity_check(tie).generic


def test_instances_are_read_only_copies():
    a = np.array([[1.0, 2.0, 4.0], [3.0, 1.5, 2.5]])
    inst = Instance(CostMatrix(a))
    plan = solve(inst)
    # validation ran at construction; a later write to the caller's array
    # must not reach the costs the solver reads
    a[0, 0] = np.nan
    assert inst.costs.c[0, 0] == 1.0
    assert solve(inst) == plan
    with pytest.raises(ValueError):
        inst.costs.c[0, 0] = 0.0

    xs = np.array([[0.0, 0.0], [1.0, 0.0]])
    ys = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    geo = cost_from_points(PointCloud(xs), PointCloud(ys), 2.0)
    xs[0, 0] = 5.0
    ys[:] = 0.0
    assert geo.geometry.sources.points[0, 0] == 0.0
    assert geo.geometry.targets.points[2, 0] == 2.0
    for cloud in (geo.geometry.sources, geo.geometry.targets, gen_points("gaussian", 3, 2, 0)):
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0


@pytest.mark.parametrize("inst", [
    gen_point_instance("uniform-square", 2, 3, 2.0, 0),
    gen_random_costs(3, 4, 1),
], ids=["points", "costs"])
def test_copies_and_pickles_are_read_only(inst):
    # deep copies and pickles skip __post_init__ unless they rebuild through
    # the constructors; they used to hand back writeable arrays
    plan = solve(inst)
    for dup in (copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        assert dup == inst
        assert (dup.m, dup.n, dup.scale) == (inst.m, inst.n, inst.scale)
        assert dup.costs.max_abs == inst.costs.max_abs
        arrays = [dup.costs.c]
        if inst.geometry is not None:
            arrays += [dup.geometry.sources.points, dup.geometry.targets.points]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        assert solve(dup) == plan
    assert perturb(inst, 1e-9, 0) != inst  # == compares values


def test_instances_are_unhashable():
    # == compares the arrays by value, so a hash would have to agree with
    # that; none is given, and hashing fails naming the otrigid type
    inst = gen_point_instance("uniform-square", 2, 3, 2.0, 0)
    for obj, name in ((inst, "Instance"), (inst.costs, "CostMatrix"),
                      (inst.geometry.sources, "PointCloud")):
        with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
            hash(obj)
        with pytest.raises(TypeError, match=name):
            obj in set()
        with pytest.raises(TypeError, match=name):
            {obj}
        assert obj == copy.deepcopy(obj)


def _assert_derived(inst):
    c = inst.costs.c
    assert (inst.m, inst.n) == (inst.costs.m, inst.costs.n) == c.shape
    assert inst.scale == math.lcm(inst.m, inst.n)
    assert inst.costs.max_abs == float(np.max(np.abs(c)))
    assert inst.costs.tie == TIE_TOL * inst.costs.max_abs


@pytest.mark.parametrize("c", [
    np.zeros((3, 4)),
    np.array([[MAX_ABS_COST, -MAX_ABS_COST], [0.5, -MAX_ABS_COST]]),
    np.array([[-2.5]]),
    np.random.default_rng(5).standard_normal((6, 4)),  # m > n
], ids=["zeros", "bound", "1x1", "m>n"])
def test_derived_attributes_match_definitions(c):
    inst = Instance(CostMatrix(c))
    _assert_derived(inst)
    _assert_derived(perturb(inst, 1e-9, 0))
    _assert_derived(copy.deepcopy(inst))
    _assert_derived(pickle.loads(pickle.dumps(inst)))
    _assert_derived(instance_from_dict(instance_to_dict(inst)))
    wider = np.hstack([c, c[:, :1] / 2])
    _assert_derived(dataclasses.replace(inst, costs=CostMatrix(wider)))
    _assert_derived(Instance(dataclasses.replace(inst.costs, c=c.T)))
    m, n = c.shape
    x = gen_points("gaussian", m, 2, 1)
    y = gen_points("gaussian", n, 2, 2)
    _assert_derived(cost_from_points(x, y, 1.0))
    _assert_derived(instance_from_dict(instance_to_dict(cost_from_points(x, y, 2.0))))
    # the derived values are attributes, not fields: constructors, repr, eq
    # and replace see only the inputs
    assert [f.name for f in dataclasses.fields(CostMatrix)] == ["c"]
    assert [f.name for f in dataclasses.fields(Instance)] == ["costs", "geometry"]
