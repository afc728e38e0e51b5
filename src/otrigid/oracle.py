"""Brute-force enumeration of all integral plans on tiny instances.

Ground truth for the solver and for claims quantified over every optimal
plan.  Enumeration is row-by-row backtracking over integer matrices with
fixed margins (row sums S/m, column sums S/n) that generates only live row
fills: no partial table is built that cannot be completed.
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


def _row_fills(row_sum, lo, hi):
    """Every row with lo[j] <= q_j <= hi[j] and sum q_j = row_sum, in
    lexicographic order, with no dead prefix.

    Built column by column: a prefix is extended only by values that leave
    the remaining sum within the bounds of the columns still to fill.
    """
    prefixes = [((), row_sum)]  # (prefix, row_sum left for its tail)
    lo_tail, hi_tail = sum(lo), sum(hi)
    for lo_j, hi_j in zip(lo, hi):
        lo_tail -= lo_j
        hi_tail -= hi_j
        prefixes = [
            (prefix + (q,), left - q)
            for prefix, left in prefixes
            for q in range(max(lo_j, left - hi_tail), min(hi_j, left - lo_tail) + 1)
        ]
    return [prefix for prefix, _ in prefixes]


def _tables(inst: Instance, cap: int):
    """Yield every integer matrix with row sums S/m and column sums S/n once,
    as a tuple of row tuples, in lexicographic order of the rows.

    Only live row fills are generated.  With r rows after row i, column j
    still needing rem_j units takes at least max(0, rem_j - r * S/m) and at
    most min(rem_j, S/m) in row i, so every fill extends to a table and the
    last row is forced to equal the remaining column needs.  The fills of one
    (row index, remaining columns) are built once per call.

    Raises OracleCapExceeded when more than ``cap`` matrices exist.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    m = inst.m
    row_sum = inst.scale // m
    fills = {}  # (i, rem_cols) -> [(row, rem_cols after the row), ...]
    count = 0

    def recurse(i, rem_cols, rows):
        nonlocal count
        if i == m - 1:
            count += 1
            if count > cap:
                raise OracleCapExceeded(f"more than {cap} integral plans")
            yield rows + (rem_cols,)
            return
        key = (i, rem_cols)
        live = fills.get(key)
        if live is None:
            later = (m - i - 1) * row_sum  # most the rows after row i can take
            lo = [max(0, r - later) for r in rem_cols]
            hi = [min(r, row_sum) for r in rem_cols]
            live = fills[key] = [
                (row, tuple(r - q for r, q in zip(rem_cols, row)))
                for row in _row_fills(row_sum, lo, hi)
            ]
        for row, rest in live:
            yield from recurse(i + 1, rest, rows + (row,))

    try:
        yield from recurse(0, (inst.scale // inst.n,) * inst.n, ())
    finally:
        # recurse refers to itself, so this frame waits for the cyclic
        # collector; drop the memo now rather than let memos pile up
        fills.clear()


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
