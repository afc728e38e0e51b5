"""Brute-force enumeration of all integral plans on tiny instances.

Ground truth for the solver and for claims quantified over every optimal
plan.  Enumeration is row-by-row backtracking over integer matrices with
fixed margins (row sums S/m, column sums S/n), pruned by remaining column
capacity.
"""
from __future__ import annotations

from dataclasses import dataclass

from .instance import TIE_TOL, Instance
from .solver import TransportPlan

DEFAULT_CAP = 10**7


class OracleCapExceeded(RuntimeError):
    """Instance has more integral plans than the enumeration cap allows."""


@dataclass(frozen=True)
class OracleResult:
    min_cost: float  # objective value (already divided by the scale)
    optimal_plans: tuple  # all integral plans tied with min_cost (see brute_force_solve)
    enumerated_count: int


def _row_fills(row_sum, caps, j=0, prefix=()):
    """All ways to split row_sum over columns j.. within per-column caps."""
    if j == len(caps) - 1:
        if row_sum <= caps[j]:
            yield prefix + (row_sum,)
        return
    tail_cap = sum(caps[j + 1 :])
    lo = max(0, row_sum - tail_cap)
    hi = min(caps[j], row_sum)
    for q in range(lo, hi + 1):
        yield from _row_fills(row_sum - q, caps, j + 1, prefix + (q,))


def _tables(inst: Instance, cap: int):
    """Yield every integer matrix with row sums S/m and column sums S/n once,
    as a tuple of row tuples.

    Raises OracleCapExceeded when more than ``cap`` matrices exist.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    m = inst.m
    row_sum = inst.scale // m
    count = 0

    def recurse(i, rem_cols, rows):
        nonlocal count
        if i == m:
            count += 1
            if count > cap:
                raise OracleCapExceeded(f"more than {cap} integral plans")
            yield rows
            return
        for row in _row_fills(row_sum, rem_cols):
            new_rem = tuple(r - q for r, q in zip(rem_cols, row))
            # a column demanding more than the remaining rows can supply is dead
            if max(new_rem) <= (m - i - 1) * row_sum:
                yield from recurse(i + 1, new_rem, rows + (row,))

    yield from recurse(0, (inst.scale // inst.n,) * inst.n, ())


def _table_plan(inst: Instance, rows) -> TransportPlan:
    flows = tuple((i, j, f) for i, row in enumerate(rows) for j, f in enumerate(row) if f)
    return TransportPlan(inst.m, inst.n, inst.scale, flows)


def enumerate_plans(inst: Instance, cap: int = DEFAULT_CAP):
    """Yield every integral plan once; raises OracleCapExceeded when more
    than ``cap`` plans exist."""
    for rows in _tables(inst, cap):
        yield _table_plan(inst, rows)


def brute_force_solve(inst: Instance, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact minimum over all integral plans, returning every argmin plan.

    Scaled objectives tie within TIE_TOL * S * max|c|, the tie rule applied
    to sums of S costs: |scaled objective| <= S * max|c|.  Each table is
    scored as ``scaled_objective`` scores its plan, summing c_ij * f_ij over
    the positive entries in (i, j) order, and only the tables tied with the
    best become plans.
    """
    tie = TIE_TOL * inst.scale * inst.costs.max_abs
    c = inst.costs.c.tolist()
    best = None
    optimal = []  # (scaled cost, table)
    count = 0
    for rows in _tables(inst, cap):
        count += 1
        cost = sum(cij * f for crow, row in zip(c, rows) for cij, f in zip(crow, row) if f)
        if best is None or cost < best - tie:
            best = cost
            optimal = [t for t in optimal if t[0] <= best + tie]
            optimal.append((cost, rows))
        elif cost <= best + tie:
            optimal.append((cost, rows))
    if best is None:
        raise AssertionError("transportation problem is always feasible")
    return OracleResult(
        min_cost=best / inst.scale,
        optimal_plans=tuple(_table_plan(inst, rows) for _, rows in optimal),
        enumerated_count=count,
    )
