"""Rigidity statistics: fanout/fanin vectors, bound checks, pair counting.

Fanout t_i counts distinct targets of source i, fanin l_j counts distinct
sources of target j.  Each fanout splits as t_i = full_i + d_i: full_i
targets that source i fills alone (f_ij = S/n, so full_i <= floor(n/m)) and
d_i targets it shares with another source.  The bound verdicts check,
for a plan under generic costs:

  (1)  ceil(n/m) <= t_i <= floor(n/m) + m - 1   for every source,
  (2)  mean(t)   <= n/m + sqrt(n),
  (3)  mean(l)   <= 1 + m/sqrt(n).

(2) and (3) are one test: with support size s, (2) says s/m <= n/m + sqrt(n)
and (3) says s/n <= 1 + m/sqrt(n), and both say s <= n + m*sqrt(n), which
integers decide exactly.  ``bound2_ok`` is the verdict for both.
"""
from __future__ import annotations

from dataclasses import dataclass

from .solver import TransportPlan, shared_targets


@dataclass(frozen=True)
class RigidityReport:
    t: tuple  # fanout per source
    ell: tuple  # fanin per target
    full: tuple  # per source, targets it fills alone (f_ij = S/n)
    split: tuple  # per source, targets it shares: t_i - full_i
    support_size: int
    bound1_ok: bool
    bound2_ok: bool  # bounds (2) and (3), one test
    lower: int  # ceil(n/m)
    upper1: int  # floor(n/m) + m - 1

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
    crossings: int  # sum over source pairs of C(common targets, 2)
    max_pair_count: int
    pair_bound: int  # C(m, 2)


def rigidity_report(plan: TransportPlan) -> RigidityReport:
    """Fanouts, fanins, each fanout's full/split parts and the bound verdicts, in one pass."""
    m, n = plan.m, plan.n
    cap = plan.scale // n
    t = [0] * m
    ell = [0] * n
    full = [0] * m
    for i, j, f in plan.flows:
        t[i] += 1
        ell[j] += 1
        if f == cap:
            full[i] += 1
    support = len(plan.flows)
    lower = -(-n // m)  # ceil
    upper1 = n // m + m - 1
    bound1_ok = all(lower <= ti <= upper1 for ti in t)
    bound2_ok = support <= n or (support - n) ** 2 <= m * m * n
    return RigidityReport(
        t=tuple(t),
        ell=tuple(ell),
        full=tuple(full),
        split=tuple(ti - fi for ti, fi in zip(t, full)),
        support_size=support,
        bound1_ok=bound1_ok,
        bound2_ok=bound2_ok,
        lower=lower,
        upper1=upper1,
    )


def pair_counts(plan: TransportPlan) -> PairCountReport:
    """Common-target counts per source pair, and the crossings they make.

    Each target j adds one to the count of each of the C(l_j, 2) source pairs
    it serves, so ``total``, the sum of the counts, is sum_j C(l_j, 2).  A
    source pair with k common targets makes C(k, 2) crossings, so
    ``crossings`` costs nothing beyond the counts, however many crossings
    there are.
    """
    counts = {pair: len(common) for pair, common in shared_targets(plan).items()}
    return PairCountReport(
        pair_counts=counts,
        total=sum(counts.values()),
        crossings=sum(k * (k - 1) // 2 for k in counts.values()),
        max_pair_count=max(counts.values(), default=0),
        pair_bound=plan.m * (plan.m - 1) // 2,
    )
