"""Permutation decomposition of square plans."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    """Kuhn's augmenting-path matching on the support; deterministic scan order.

    Each row's augmenting-path search is a depth-first search kept on an
    explicit stack, so a path as long as n needs no recursion; it scans the
    rows' columns in the order a recursive search would.
    """
    match_col = [-1] * n  # column -> row
    for root in range(n):
        visited = [False] * n
        stack = [iter(support_by_row[root])]  # stack[k]: columns left for the path's k-th row
        taken = []  # taken[k]: the column the path's k-th row is trying
        while stack:
            for col in stack[-1]:
                if not visited[col]:
                    visited[col] = True
                    break
            else:  # no column left for this row: its parent tries its next one
                stack.pop()
                if taken:
                    taken.pop()
                continue
            row = match_col[col]
            if row >= 0:
                taken.append(col)
                stack.append(iter(support_by_row[row]))
                continue
            while taken:  # free column: flip the path, each column to the row before
                prev = taken.pop()
                match_col[col], col = match_col[prev], prev
            match_col[col] = root
            break
        else:
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
    # residual[i] = {j: f_ij}: flows are sorted, so each row's keys are in
    # ascending j, and deleting a key keeps that order for the matching scan
    residual = [{} for _ in range(n)]
    for i, j, f in plan.flows:
        residual[i][j] = f
    terms = []
    while residual[0]:  # every row has the same residual mass
        sigma = _perfect_matching(residual, n)
        if sigma is None:
            raise AssertionError("support of a feasible square plan must contain a matching")
        w = min(row[j] for row, j in zip(residual, sigma))
        terms.append((sigma, Fraction(w, S // n)))
        for row, j in zip(residual, sigma):
            if row[j] == w:
                del row[j]
            else:
                row[j] -= w
    return PermutationDecomposition(n=n, terms=tuple(terms))


def gcd_construct(inst: Instance) -> TransportPlan:
    """``solve``'s plan, whose fanout is <= n/gcd(m,n) and fanin <= m/gcd(m,n).

    With g = gcd(m, n), every integral plan at scale L = lcm(m, n) meets both
    bounds: each source ships L/m = n/g units, each target takes L/n = m/g
    units, and every positive flow is at least one unit.
    """
    # the bounds need no construction and no check; kept for
    # bench/workloads.py, which still calls it
    return solve(inst)
