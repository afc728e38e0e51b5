"""Brute-force enumeration of all integral plans on tiny instances.

Ground truth for the solver and for claims quantified over every optimal
plan.  The integer matrices with fixed margins (row sums S/m, column sums
S/n) are built in int64 numpy blocks of partial tables, expanded level by
level, one entry per level: every partial table gets all the values its next
entry can take with the table still completable, so no dead partial table is
built.  Blocks are expanded depth-first, a bounded number of partial tables
at a time, which keeps the lexicographic order and bounds memory.
``brute_force_solve`` scores a whole block with the left fold that
``scaled_objective`` uses, so its costs have the same bits, and ties them
within ``S * costs.tie``, the instance's one tie cut.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .solver import TransportPlan

DEFAULT_CAP = 10**7
_TABLE_BLOCK = 4096  # partial tables per expansion; one table's values are never split


class OracleCapExceeded(RuntimeError):
    """Instance has more integral plans than the enumeration cap allows."""


@dataclass(frozen=True)
class OracleResult:
    min_cost: float  # objective value (already divided by the scale)
    optimal_plans: tuple  # all integral plans tied with min_cost (see brute_force_solve)
    enumerated_count: int


def _table_blocks(inst: Instance, cap: int):
    """Yield every integer matrix with row sums S/m and column sums S/n once,
    as int64 blocks of shape (k, m, n), in lexicographic order of the rows.

    Rows 0..m-2 are filled entry by entry in row-major order, one level of
    the expansion per entry, and only live values are laid out.  A partial
    table is live when the rest of its current row can be filled, since the
    later rows can then always be filled: the north-west corner rule fills
    any nonnegative column needs that add up to their row sums.  So with
    ``left`` units still to place in the row and column k still needing
    rem_k, entry j takes every q with
    max(0, left - sum_{k>j} rem_k) <= q <= min(rem_j, left).  The values
    of each partial table are laid out ascending with ``np.repeat`` over the
    per-table value counts, so fills come out in lexicographic order.  A
    row's last entry is forced to ``left``, and the last row to the needs the
    columns have left.

    A partial table is one int64 row: the entries of rows 0..m-2, then the
    column needs, which become the last row, then ``left``.  Blocks wait on
    a stack, deepest last.  An expansion that would make more than
    ``_TABLE_BLOCK`` partial tables takes only a leading share of its block
    and puts the rest back, so the order is kept and memory stays bounded at
    any cap.

    Raises OracleCapExceeded, after yielding the first ``cap`` tables, when
    more than ``cap`` matrices exist.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    m, n = inst.m, inst.n
    row_sum = inst.scale // m
    filled = (m - 1) * n  # entries expanded; the column needs follow them
    left = m * n  # offset of what the current row still needs
    root = np.zeros((1, left + 1), np.int64)
    root[0, filled:left] = inst.scale // n
    root[0, left] = row_sum
    stack = [(root, 0)]  # (block, index of the next entry to fill)
    count = 0
    while stack:
        block, e = stack.pop()
        if e == filled:
            k = len(block)
            tables = block[:, :left].reshape(k, m, n)
            if count + k > cap:
                if cap > count:
                    yield tables[:cap - count]
                raise OracleCapExceeded(f"more than {cap} integral plans")
            count += k
            yield tables
            continue
        need = filled + e % n
        if need == left - 1:  # the row's last entry takes what the row needs
            block[:, e] = block[:, left]
            block[:, need] -= block[:, left]
            block[:, left] = row_sum
            stack.append((block, e + 1))
            continue
        rest = block[:, left]
        low = np.maximum(rest - np.add.reduce(block[:, need + 1:left], axis=1), 0)
        stop = np.minimum(block[:, need], rest) + 1
        counts = stop - low
        ends = counts.cumsum()
        if ends[-1] > _TABLE_BLOCK:
            cut = max(1, int(np.searchsorted(ends, _TABLE_BLOCK, "right")))
            if cut < len(block):
                stack.append((block[cut:], e))
                block, stop, counts, ends = block[:cut], stop[:cut], counts[:cut], ends[:cut]
        grown = block.repeat(counts, axis=0)
        values = np.arange(ends[-1]) - (ends - stop).repeat(counts)
        grown[:, e] = values
        grown[:, need] -= values
        grown[:, left] -= values
        stack.append((grown, e + 1))


def _tables(inst: Instance, cap: int):
    """Yield every table of ``_table_blocks`` lazily, as a tuple of row
    tuples of Python ints, in the same order and under the same cap."""
    for block in _table_blocks(inst, cap):
        for rows in block.tolist():
            yield tuple(map(tuple, rows))


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

    Scaled objectives tie within S * costs.tie, the tie rule applied to sums
    of S costs: |scaled objective| <= S * max|c|.  Each block of
    tables is scored by one ``np.add.accumulate`` of c_ij * T_ij along every
    table's entries in (i, j) order, a left fold with the bits of
    ``scaled_objective``'s fold over the positive entries:

    - every entry is at most S = lcm(m, n) <= m * n, exact in int64 and
      float64, so each product is the same;
    - a zero entry adds +-0.0, which changes no partial sum but a zero one;
    - so the two folds agree in bits wherever a partial sum is nonzero, and
      a zero total is +0.0 in ``scaled_objective``, which starts at +0.0;
      the final ``+ 0.0`` makes the block's -0.0 (from -0.0 terms alone)
      +0.0 too.

    The scan for the best runs sequentially in table order, and only the
    tables tied with the best become plans, their entries Python ints.
    """
    tie = inst.scale * inst.costs.tie
    c = inst.costs.c.ravel()
    best = None
    optimal = []  # (scaled cost, table rows)
    count = 0
    for block in _table_blocks(inst, cap):
        count += len(block)
        costs = np.add.accumulate(block.reshape(len(block), -1) * c, axis=1)[:, -1] + 0.0
        for r, cost in enumerate(costs.tolist()):
            if best is None or cost < best - tie:
                best = cost
                optimal = [t for t in optimal if t[0] <= best + tie]
                optimal.append((cost, block[r].tolist()))
            elif cost <= best + tie:
                optimal.append((cost, block[r].tolist()))
    if best is None:
        raise AssertionError("transportation problem is always feasible")
    return OracleResult(
        min_cost=best / inst.scale,
        optimal_plans=tuple(_table_plan(inst, rows) for _, rows in optimal),
        enumerated_count=count,
    )
