import math
from fractions import Fraction

import numpy as np
import pytest

from otrigid import (
    TransportPlan,
    birkhoff_decompose,
    cost_from_points,
    gen_points,
    gen_random_costs,
    gcd_construct,
    objective,
    rigidity_report,
    solve,
)


def _mass_matrix(plan):
    """Exact n * P as a Fraction matrix (row sums 1 for m = n)."""
    n = plan.n
    dense = [[Fraction(0)] * n for _ in range(n)]
    for i, j, f in plan.flows:
        dense[i][j] = Fraction(f * n, plan.scale)
    return dense


def _random_square_plan(n, k, seed):
    """Mix k random permutations at scale k*n."""
    rng = np.random.default_rng(seed)
    flows = {}
    for _ in range(k):
        p = rng.permutation(n)
        for i in range(n):
            key = (i, int(p[i]))
            flows[key] = flows.get(key, 0) + 1
    plan = TransportPlan(n, n, k * n, tuple((i, j, f) for (i, j), f in flows.items()))
    plan.validate()
    return plan


def test_birkhoff_permutation_is_single_term():
    plan = solve(gen_random_costs(6, 6, 0))
    dec = birkhoff_decompose(plan)
    assert len(dec.terms) == 1
    assert dec.terms[0][1] == 1


def test_birkhoff_uniform_2x2():
    plan = TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    dec = birkhoff_decompose(plan)
    assert sorted(sigma for sigma, _ in dec.terms) == [(0, 1), (1, 0)]
    assert all(w == Fraction(1, 2) for _, w in dec.terms)


def test_birkhoff_requires_square():
    with pytest.raises(ValueError):
        birkhoff_decompose(solve(gen_random_costs(2, 3, 0)))


def test_birkhoff_recombination_exact():
    for seed in range(6):
        plan = _random_square_plan(7, 4, seed)
        dec = birkhoff_decompose(plan)
        assert sum(w for _, w in dec.terms) == 1
        recombined = dec.recombine()
        expected = _mass_matrix(plan)
        for i in range(7):
            for j in range(7):
                assert recombined[i, j] == expected[i][j]


def test_birkhoff_term_count_bound():
    for seed in range(6):
        plan = _random_square_plan(8, 5, seed)
        dec = birkhoff_decompose(plan)
        assert len(dec.terms) <= plan.support_size - plan.n + 1


def test_gcd_construct_square_is_permutation():
    inst = gen_random_costs(5, 5, 1)
    plan = gcd_construct(inst)
    assert plan.support_size == 5
    assert all(f == 1 for _, _, f in plan.flows)


def test_gcd_construct_fig1_bounds():
    # m = 20, n = 30, g = 10: fanout <= 3, fanin <= 2
    x = gen_points("uniform-square", 20, 2, 0)
    y = gen_points("uniform-square", 30, 2, 1)
    inst = cost_from_points(x, y, 1.0)
    plan = gcd_construct(inst)
    plan.validate()
    rep = rigidity_report(plan)
    assert rep.t_max <= 3
    assert max(rep.ell) <= 2
    assert objective(inst, plan) == pytest.approx(
        objective(inst, solve(inst)), rel=1e-12
    )


def test_gcd_construct_random_costs_bounds():
    # (97, 105): coprime, scale lcm = 10185
    for m, n, seed in [(4, 6, 0), (6, 9, 1), (4, 10, 2), (3, 7, 3), (97, 105, 0)]:
        inst = gen_random_costs(m, n, seed)
        g = math.gcd(m, n)
        plan = gcd_construct(inst)
        rep = rigidity_report(plan)
        assert rep.t_max <= n // g
        assert max(rep.ell) <= m // g
        assert objective(inst, plan) == pytest.approx(
            objective(inst, solve(inst)), rel=1e-12
        )
