"""Rigidity statistics: fanout/fanin vectors, fanout splits, pair counting.

Fanout t_i counts distinct targets of source i, fanin l_j counts distinct
sources of target j.  Each fanout splits as t_i = full_i + d_i: full_i
targets that source i fills alone (f_ij = S/n, so full_i <= floor(n/m)) and
d_i targets it shares with another source.

The paper states its rigidity bounds for generic costs, but they hold on
every vertex plan, on any costs, and ``solve`` returns only vertex plans; so
nothing here checks them per plan, and ``tests/test_analysis.py`` asserts
them once, on every forest plan of the small shapes.  With support size s:

  (1)  ceil(n/m) <= t_i <= floor(n/m) + m - 1   for every source,
  (2)  mean(t)   <= n/m + sqrt(n),   i.e. s <= n + m*sqrt(n),
  (3)  mean(l)   <= 1 + m/sqrt(n),   the same inequality,
  (4)  sum_j C(l_j, 2) <= C(m, 2).

Proof.  Target j takes S/n in all, so f_ij <= S/n, and source i ships S/m
in t_i arcs: t_i >= n/m, the lower end of (1), on every feasible plan.  A
vertex plan's support is a forest (Klee & Witzgall 1968) on m + n nodes,
so s <= n + m - 1 and sum_j (l_j - 1) = s - n <= m - 1.  That sum bounds the
number of split targets (l_j > 1), which bounds each d_i: both are at most
m - 1.  With full_i * S/n <= S/m the upper end of (1) follows; s <= n + m - 1
<= n + m*sqrt(n) gives (2) and (3); and since C(1 + a, 2) + C(1 + b, 2) <=
C(1 + a + b, 2), the sum in (4) is largest when one target takes all s - n
extra sources: at most C(m, 2).

Mass balance.  Let phi_ij = f_ij * n/S be the share of target j that source
i takes.  Source i ships S/m, so its shares sum to n/m and

  t_i - n/m = sum_{j in supp i} (1 - phi_ij)

on every feasible plan: a target that i fills alone adds 0, so only i's
split targets count.  Each target's shares sum to 1, so summing over i gives
sum_j (l_j - 1) = s - n, and on a forest mean(t) - n/m = (s - n)/m <=
(m - 1)/m.  ``tests/test_analysis.py`` checks both in exact fractions.

Residue identity.  A forest of k trees has s = m + n - k arcs, and with
r = n mod m >= 1, m * ceil(n/m) = n + m - r, so on a vertex plan

  sum_i (t_i - ceil(n/m)) = r - k,

each term >= 0 by (1).  So k <= r, every t_i <= floor(n/m) + r (the upper
end of (1) needs r = m - 1 and k = 1), and when n = 1 (mod m) the support
is one tree and every t_i = ceil(n/m).  When m divides n the same count
gives sum_i (t_i - n/m) = m - k.  ``tests/test_analysis.py`` checks the
identity in integers on every forest plan of the small shapes.

W2 costs attain the upper end of (1): in the clustered wheel of
``tests/test_analysis.py`` source 0 takes floor(n/m) + m - 1 targets.
"""
from __future__ import annotations

from dataclasses import dataclass

from .solver import TransportPlan, target_masks


@dataclass(frozen=True)
class RigidityReport:
    t: tuple  # fanout per source
    ell: tuple  # fanin per target
    full: tuple  # per source, targets it fills alone (f_ij = S/n)
    split: tuple  # per source, targets it shares: t_i - full_i
    support_size: int
    lower: int  # ceil(n/m)

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
    crossings: int  # sum over source pairs of C(common targets, 2)
    max_pair_count: int  # most targets one source pair shares


def rigidity_report(plan: TransportPlan) -> RigidityReport:
    """Fanouts, fanins and each fanout's full/split parts, in one pass."""
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
    return RigidityReport(
        t=tuple(t),
        ell=tuple(ell),
        full=tuple(full),
        split=tuple(ti - fi for ti, fi in zip(t, full)),
        support_size=len(plan.flows),
        lower=-(-n // m),  # ceil
    )


def pair_counts(plan: TransportPlan) -> PairCountReport:
    """Crossings, counted without listing them, and the most shared targets.

    A source pair with k common targets makes C(k, 2) crossings, and k is
    the popcount of the ``&`` of the pair's target bitsets (``target_masks``,
    the ones ``uncross`` keeps), so the count costs one ``&`` per source
    pair, however many crossings there are.  A vertex plan has no crossing
    (its support is a forest), so the stats JSON leaves this out;
    ``otrigid uncross`` reports it.
    """
    masks = target_masks(plan)
    counts = [(a & b).bit_count() for k, a in enumerate(masks) for b in masks[k + 1:]]
    return PairCountReport(
        crossings=sum(k * (k - 1) // 2 for k in counts),
        max_pair_count=max(counts, default=0),
    )
