"""Rigidity statistics: fanout/fanin vectors, bound checks, pair counting.

Fanout t_i counts distinct targets of source i, fanin l_j counts distinct
sources of target j.  The three bound verdicts check, for a plan under
generic costs:

  (1)  ceil(n/m) <= t_i <= floor(n/m) + m - 1   for every source,
  (2)  mean(t)   <= n/m + sqrt(n),
  (3)  mean(l)   <= 1 + m/sqrt(n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .solver import TransportPlan, shared_targets


@dataclass(frozen=True)
class RigidityReport:
    t: tuple  # fanout per source
    ell: tuple  # fanin per target
    support_size: int
    bound1_ok: bool
    bound2_ok: bool
    bound3_ok: bool
    lower: int  # ceil(n/m)
    upper1: int  # floor(n/m) + m - 1
    upper2: float  # n/m + sqrt(n)
    upper3: float  # 1 + m/sqrt(n)

    @property
    def t_min(self):
        return min(self.t)

    @property
    def t_max(self):
        return max(self.t)

    @property
    def excess(self):
        """Empirical fanout excess t_max - ceil(n/m) over the trivial lower bound."""
        return self.t_max - self.lower


@dataclass(frozen=True)
class PairCountReport:
    pair_counts: dict  # {(i, i2): common-target count}, only nonzero pairs
    total: int  # sum_j C(l_j, 2)
    max_pair_count: int
    pair_bound: int  # C(m, 2)


def rigidity_report(plan: TransportPlan) -> RigidityReport:
    m, n = plan.m, plan.n
    t = [0] * m
    ell = [0] * n
    for i, j, _ in plan.flows:
        t[i] += 1
        ell[j] += 1
    support = len(plan.flows)
    lower = -(-n // m)  # ceil
    upper1 = n // m + m - 1
    upper2 = n / m + math.sqrt(n)
    upper3 = 1.0 + m / math.sqrt(n)
    bound1_ok = all(lower <= ti <= upper1 for ti in t)
    # (2) s/m <= n/m + sqrt(n) and (3) s/n <= 1 + m/sqrt(n) both say
    # s <= n + m*sqrt(n), which integers decide exactly
    bound23_ok = support <= n or (support - n) ** 2 <= m * m * n
    return RigidityReport(
        t=tuple(t),
        ell=tuple(ell),
        support_size=support,
        bound1_ok=bound1_ok,
        bound2_ok=bound23_ok,
        bound3_ok=bound23_ok,
        lower=lower,
        upper1=upper1,
        upper2=upper2,
        upper3=upper3,
    )


def fanout_split(plan: TransportPlan, i: int):
    """(saturated, partial): targets source i fills to capacity vs partially.

    Saturation is exact integer equality f_ij == S/n.  saturated <= floor(n/m)
    by mass conservation; for non-crossing plans partial <= m - 1.
    """
    if not 0 <= i < plan.m:
        raise IndexError(f"source index {i} out of range")
    cap = plan.scale // plan.n
    saturated = 0
    fanout = 0
    for ii, _, f in plan.flows:
        if ii == i:
            fanout += 1
            if f == cap:
                saturated += 1
    return saturated, fanout - saturated


def pair_counts(plan: TransportPlan) -> PairCountReport:
    """Common-target counts per source pair; total cross-checked as sum C(l_j, 2)."""
    counts = {pair: len(common) for pair, common in shared_targets(plan).items()}
    ell = [0] * plan.n
    for _, j, _ in plan.flows:
        ell[j] += 1
    total = sum(lj * (lj - 1) // 2 for lj in ell)
    if total != sum(counts.values()):
        raise AssertionError("pair-count double-counting identity violated")
    return PairCountReport(
        pair_counts=counts,
        total=total,
        max_pair_count=max(counts.values(), default=0),
        pair_bound=plan.m * (plan.m - 1) // 2,
    )
