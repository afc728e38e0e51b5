"""Permutation decomposition of square plans and the gcd-bounded optimal plan."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import rigidity_report
from .instance import Instance
from .solver import TransportPlan, solve


@dataclass(frozen=True)
class PermutationDecomposition:
    """Convex combination of permutations recombining exactly to an m = n plan.

    terms: ((sigma, weight), ...) with sigma a tuple mapping row -> column and
    weight a positive Fraction; weights sum to exactly 1.  Construction
    checks all of this and raises ValueError on a violation.
    """

    n: int
    terms: tuple

    def __post_init__(self):
        n = self.n
        if type(n) is not int or n < 1:
            raise ValueError(f"decomposition size must be an int >= 1, got {n!r}")
        perm = list(range(n))
        for sigma, w in self.terms:
            if any(type(j) is not int for j in sigma) or sorted(sigma) != perm:
                raise ValueError(f"{sigma!r} is not a permutation of range({n})")
            if not isinstance(w, Fraction) or w <= 0:
                raise ValueError(f"decomposition weight {w!r} is not a positive Fraction")
        if sum(w for _, w in self.terms) != 1:
            raise ValueError("decomposition weights must sum to exactly 1")

    def recombine(self) -> np.ndarray:
        """Exact rational n x n mass matrix sum_k weight_k * P(sigma_k)."""
        dense = np.full((self.n, self.n), Fraction(0), dtype=object)
        for sigma, w in self.terms:
            for i, j in enumerate(sigma):
                dense[i, j] += w
        return dense


def _perfect_matching(support_by_row, n):
    """Kuhn's augmenting-path matching on the support; deterministic scan order."""
    match_col = [-1] * n  # column -> row

    def try_row(row, visited):
        for col in support_by_row[row]:
            if visited[col]:
                continue
            visited[col] = True
            if match_col[col] < 0 or try_row(match_col[col], visited):
                match_col[col] = row
                return True
        return False

    for row in range(n):
        if not try_row(row, [False] * n):
            return None
    sigma = [-1] * n
    for col, row in enumerate(match_col):
        sigma[row] = col
    return tuple(sigma)


def birkhoff_decompose(plan: TransportPlan) -> PermutationDecomposition:
    """Greedy extraction of permutations from a square doubly stochastic plan.

    Each round finds a perfect matching inside the current support (one exists
    by Hall's theorem), subtracts the minimum flow along it and repeats; every
    round zeroes at least one entry, so the number of terms is at most
    support_size - n + 1.
    """
    if plan.m != plan.n:
        raise ValueError("Birkhoff decomposition requires m = n")
    n = plan.n
    S = plan.scale
    residual = plan.flow_dict()
    terms = []
    while residual:
        support_by_row = [[] for _ in range(n)]
        for (i, j) in sorted(residual):
            support_by_row[i].append(j)
        sigma = _perfect_matching(support_by_row, n)
        if sigma is None:
            raise AssertionError("support of a feasible square plan must contain a matching")
        w = min(residual[(i, sigma[i])] for i in range(n))
        terms.append((sigma, Fraction(w, S // n)))
        for i in range(n):
            arc = (i, sigma[i])
            residual[arc] -= w
            if residual[arc] == 0:
                del residual[arc]
    return PermutationDecomposition(n=n, terms=tuple(terms))


def gcd_construct(inst: Instance) -> TransportPlan:
    """Optimal plan with fanout <= n/gcd(m,n) and fanin <= m/gcd(m,n).

    This is ``solve`` plus a check of the bounds.  With g = gcd(m, n), every
    integral plan at scale L = lcm(m, n) meets them: each source ships
    L/m = n/g units, each target takes L/n = m/g units, and every positive
    flow is at least one unit.  ``solve`` returns such a plan, so the bounds
    are checked here, not constructed.
    """
    plan = solve(inst)
    rep = rigidity_report(plan)
    g = math.gcd(inst.m, inst.n)
    fanout, fanin = rep.t_max, max(rep.ell)
    if fanout > inst.n // g or fanin > inst.m // g:
        raise AssertionError(
            f"integral plan breaks the gcd bounds: fanout {fanout} > {inst.n // g} "
            f"or fanin {fanin} > {inst.m // g}"
        )
    return plan
