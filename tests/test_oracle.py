import hashlib
import itertools
import math

import numpy as np
import pytest

from otrigid import (
    CostMatrix,
    Instance,
    OracleCapExceeded,
    OracleResult,
    TransportPlan,
    brute_force_solve,
    enumerate_plans,
    find_crossings,
    gen_random_costs,
    genericity_check,
    objective,
    solve,
)
from otrigid.instance import TIE_TOL
from otrigid.io import plan_csv_lines
from otrigid.oracle import DEFAULT_CAP, _tables
from otrigid.solver import scaled_objective

C23 = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])


def test_enumerate_1x1():
    plans = list(enumerate_plans(Instance(CostMatrix(np.array([[1.0]])))))
    assert len(plans) == 1
    assert plans[0].flows == ((0, 0, 1),)


def test_enumerate_2x2_permutations():
    plans = list(enumerate_plans(gen_random_costs(2, 2, 0)))
    assert len(plans) == 2
    supports = sorted(p.flows for p in plans)
    assert supports == [((0, 0, 1), (1, 1, 1)), ((0, 1, 1), (1, 0, 1))]


def test_enumerate_2x3_contingency_count():
    # hand count: row sums 3 with entries <= 2 -> 7 tables
    plans = list(enumerate_plans(Instance(CostMatrix(C23))))
    assert len(plans) == 7
    for p in plans:
        p.validate()
    assert len({p.flows for p in plans}) == 7


def test_enumerate_cap_rejects_non_positive():
    with pytest.raises(ValueError):
        list(enumerate_plans(Instance(CostMatrix(C23)), cap=0))


def _brute_force_from_plans(inst):
    """brute_force_solve rebuilt on enumerate_plans and scaled_objective."""
    tie = TIE_TOL * inst.scale * inst.costs.max_abs
    best, optimal, count = None, [], 0
    for plan in enumerate_plans(inst):
        count += 1
        cost = scaled_objective(inst, plan)
        if best is None or cost < best - tie:
            best = cost
            optimal = [p for p in optimal if scaled_objective(inst, p) <= best + tie]
            optimal.append(plan)
        elif cost <= best + tie:
            optimal.append(plan)
    return OracleResult(best / inst.scale, tuple(optimal), count)


def _oracle_cost_cases():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3):
        for n in (1, 2, 3, 4):
            yield rng.random((m, n))
            yield np.zeros((m, n))
            yield rng.integers(0, 2, (m, n)).astype(float)
    for k in (-40, 0, 40):
        yield C23 * 2.0**k


def test_brute_force_matches_plan_enumeration():
    for c in _oracle_cost_cases():
        inst = Instance(CostMatrix(c))
        assert brute_force_solve(inst) == _brute_force_from_plans(inst)


def _tables_by_definition(m, n):
    """Every table in lexicographic order of its rows: itertools.product over
    each row's compositions of S/m, kept when its column sums are S/n."""
    S = math.lcm(m, n)
    compositions = [q for q in itertools.product(range(S // m + 1), repeat=n) if sum(q) == S // m]
    # a row packed in base S + 1, one digit per column: no column sum
    # exceeds S, so the packed rows of a table add up column by column
    packed = {q: sum(x * (S + 1) ** j for j, x in enumerate(q)) for q in compositions}
    want = sum(S // n * (S + 1) ** j for j in range(n))
    return [rows for rows in itertools.product(compositions, repeat=m)
            if sum(map(packed.__getitem__, rows)) == want]


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 6) if m * n <= 16])
def test_tables_match_definition(m, n):
    inst = Instance(CostMatrix(np.zeros((m, n))))
    want = _tables_by_definition(m, n)
    assert list(_tables(inst, DEFAULT_CAP)) == want
    # the cap counts tables: exactly len(want) pass, one fewer raises after
    # yielding the first len(want) - 1
    assert list(_tables(inst, len(want))) == want
    if len(want) > 1:
        got = []
        with pytest.raises(OracleCapExceeded):
            got.extend(_tables(inst, len(want) - 1))
        assert got == want[:-1]


# sha256 over brute_force_solve's min_cost repr, enumerated_count and the
# plan CSV lines of its optimal plans, for _oracle_cost_cases then 3x4 and
# 4x3 random costs with seeds 0-2, recorded from the table generator that
# built every capped row fill and pruned dead ones afterwards.
ORACLE_DIGEST = "a89a8f2b8a9644d8af829c467a62da8eead96e2fd7e3caa641f4e63c45ff0fdd"


def test_brute_force_output_digest():
    h = hashlib.sha256()
    insts = [Instance(CostMatrix(c)) for c in _oracle_cost_cases()]
    insts += [gen_random_costs(m, n, s) for m, n in ((3, 4), (4, 3)) for s in range(3)]
    for inst in insts:
        res = brute_force_solve(inst)
        h.update(f"{res.min_cost!r}\n{res.enumerated_count}\n".encode())
        for plan in res.optimal_plans:
            h.update(("\n".join(plan_csv_lines(plan)) + "\n").encode())
    assert h.hexdigest() == ORACLE_DIGEST


def test_enumerate_cap_exceeded():
    with pytest.raises(OracleCapExceeded):
        list(enumerate_plans(Instance(CostMatrix(C23)), cap=3))


def test_brute_force_2x3_fixture():
    res = brute_force_solve(Instance(CostMatrix(C23)))
    assert res.enumerated_count == 7
    assert res.min_cost == pytest.approx(1 / 3, rel=1e-12)
    assert len(res.optimal_plans) == 1
    assert res.optimal_plans[0].flows == ((0, 0, 2), (0, 1, 1), (1, 1, 1), (1, 2, 2))


def test_brute_force_zero_costs_all_optimal():
    inst = Instance(CostMatrix(np.zeros((2, 3))))
    res = brute_force_solve(inst)
    assert res.min_cost == 0.0
    assert len(res.optimal_plans) == res.enumerated_count == 7


def test_brute_force_2x2_generic_unique():
    for seed in range(10):
        inst = gen_random_costs(2, 2, seed)
        res = brute_force_solve(inst)
        assert len(res.optimal_plans) == 1
        assert res.optimal_plans[0].support_size == 2


def test_oracle_agrees_with_solver():
    for m in (2, 3):
        for n in (2, 3, 4):
            for seed in range(5):
                inst = gen_random_costs(m, n, seed)
                res = brute_force_solve(inst)
                plan = solve(inst)
                assert objective(inst, plan) == pytest.approx(
                    res.min_cost, rel=1e-12
                )
                assert plan.flows in {p.flows for p in res.optimal_plans}


def test_all_integral_optima_noncrossing_when_generic():
    for seed in range(8):
        inst = gen_random_costs(3, 4, seed)
        if not genericity_check(inst).generic:
            continue
        res = brute_force_solve(inst)
        for p in res.optimal_plans:
            assert find_crossings(p) == []


def test_float_sums_fold_left():
    # Python >= 3.12's sum() compensates float sums and would return 1.0;
    # objectives fold left, so 1e16 + 1.0 rounds back to 1e16 first
    inst = Instance(CostMatrix(np.array([[1e16, 1.0, -1e16]])))
    plan = TransportPlan(1, 3, 3, ((0, 0, 1), (0, 1, 1), (0, 2, 1)))
    assert scaled_objective(inst, plan) == 0.0
    res = brute_force_solve(inst)
    assert res.optimal_plans == (plan,)
    assert res.min_cost == 0.0
