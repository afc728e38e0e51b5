import hashlib
import json
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
    objective,
    rigidity_report,
    solve,
)
from otrigid.constructions import gcd_construct
from otrigid.io import decomposition_to_dict


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


# sha256 over the decomposition JSON (sorted keys, one line each) of
# birkhoff_decompose(solve(gen_random_costs(n, n, s))) for n = 2..13 and
# s = 0..2, recorded from the recursive matching that the explicit-stack one
# replaced.  The matching must find the very same permutations.
BIRKHOFF_DIGEST = "1dd32dfc9d80650e5a1eb9e8619a381f6edb5231a8c6ee63038d36ac6f45e9bd"


def test_birkhoff_output_digest():
    h = hashlib.sha256()
    for n in range(2, 14):
        for s in range(3):
            dec = birkhoff_decompose(solve(gen_random_costs(n, n, s)))
            h.update((json.dumps(decomposition_to_dict(dec), sort_keys=True) + "\n").encode())
    assert h.hexdigest() == BIRKHOFF_DIGEST


def test_birkhoff_long_augmenting_path():
    # identity plus cyclic shift: the last row's augmenting path runs through
    # every other row, 1500 steps, which overflowed a recursive matching
    n = 1500
    plan = TransportPlan(n, n, 2 * n, tuple(
        (i, j, 1) for i in range(n) for j in sorted({i, (i + 1) % n})))
    dec = birkhoff_decompose(plan)
    assert len(dec.terms) == 2
    assert all(w == Fraction(1, 2) for _, w in dec.terms)
    # every plan arc gets 1/2; those 2n halves already carry the whole mass
    # n of the recombination, so every other entry is zero
    dense = dec.recombine()
    assert all(dense[i, j] == Fraction(f, 2) for i, j, f in plan.flows)


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
