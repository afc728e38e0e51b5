"""Exact network simplex for the scaled transportation problem.

Flows are integers at scale S (a multiple of lcm(m, n)); each source emits
S/m units and each target absorbs S/n units.  The solver maintains a
spanning-tree basis on the bipartite graph K_{m,n}, rooted at source 0 and
kept as node-indexed lists, the only record of the basis.  Potentials are
one list w, with w_i = u_i for a source and w_{m+j} = -v_j for a target; the
tree arc from node x to parent[x] keeps its flow in pflow[x] and its step
step[x] = w[x] - w[parent[x]] (-c_ij when x is a target, +c_ij when x is a
source), beside the children lists.  A pivot walks only its cycle and the
subtree it re-hangs, and touches no dict.

``_tree_potentials`` propagates w, w[y] = w[x] + step[y], for ``solve``
alone: its start and each pivot's re-hung subtree.  The certificate shares
no tree code with ``solve``: ``verify_optimality``'s ``_rooted_forest``
roots the support forest of any plan (each tree at its lowest node, so a
spanning tree at source 0) and sets each node's w as it hangs it, while
``solve``'s start roots its own tree as it allocates.  So a fault in either
rooting or propagation cannot pass both ``solve`` and the check on it.

It pivots on an exactly perturbed integer problem (see
``_perturbed_marginals``) whose every basis is nondegenerate: each pivot
moves at least one unit and strictly lowers the cost, so no entering rule
can cycle.  Reduced costs depend only on the basis, so the optimal perturbed
basis is an optimal basis of the real problem, whose flows are read off the
perturbed ones exactly.  This is the supply-perturbation form of a strongly
feasible basis (Ahuja, Magnanti & Orlin 1993, section 11.6).

It starts from a matrix-minimum basis allocated in the order of the
double-centred costs: c less its row means, less the column means of that,
the least-squares fit of u_i + v_j to c taken off.  Adding a_i + b_j to c
moves no optimum (Ahuja, Magnanti & Orlin 1993, chapter 11) but would move
the order of c itself, and W2 costs carry such offsets, |x_i|^2 and |y_j|^2,
that steer the greedy allocation wrong; the start ignores them.  The
centred matrix sets only that order: the tree's steps, so the
potentials, the pricing and the stopping rule, are read off c.  The start
screens the order against live-row and live-column masks in numpy, and
builds the rooted tree as it allocates (``_least_cost_basis``).

Pricing keeps a candidate list: a full numpy pricing of all m*n arcs keeps
the most negative ones and enters the most negative of them itself; each
later pivot reprices only the rest and enters the most negative, and a new
full pricing runs only when none is left below the entering cut -costs.tie,
under which a reduced cost is not a tie with zero.
The solve stops when a full pricing finds no arc below the cut.  Each w it
prices is bit for bit what one propagation from the root gives, so the
returned plan is an optimal polytope vertex.
A ``TransportPlan`` is exactly feasible once built, so a function taking one
with an instance checks only that the shapes agree (``check_shape``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .instance import Instance

# safety valve: solve raises after m*n + _PIVOT_SLACK pivots.  Measured
# solves take at most 0.22 m*n pivots (3x3 shapes) and 0.018 m*n on fig2, so
# the limit turns a solver bug into an error, not an hours-long loop
_PIVOT_SLACK = 1000
# candidate-list length: one per _ARCS_PER_CANDIDATE arcs, at least
# _MIN_CANDIDATES.  Repricing one arc in Python costs about as much as a numpy
# pricing of ~100, so a scan of the full list costs about one full pricing
_ARCS_PER_CANDIDATE = 100
_MIN_CANDIDATES = 64
_START_BLOCK = 512  # arcs the start screens per numpy live-mask pass


@dataclass(frozen=True)
class TransportPlan:
    """Sparse integer flow matrix at scale S; mass_ij = f_ij / S.

    Feasible by construction: ``flows`` is sorted to (i asc, j asc), then
    ``validate`` runs, so m, n, S and every i, j, f_ij are ints, each
    f_ij >= 1 and rows sum to S/m, columns to S/n.  Any other input raises
    ValueError, flows that cannot be sorted included.
    """

    m: int
    n: int
    scale: int
    flows: tuple  # ((i, j, f), ...)

    def __post_init__(self):
        try:
            flows = tuple(sorted(map(tuple, self.flows)))
        except TypeError:  # not iterable, or entries that do not compare
            raise ValueError("flows must be an iterable of (i, j, f) triples "
                             "of ints") from None
        object.__setattr__(self, "flows", flows)
        self.validate()

    def validate(self):
        """Check exact integral feasibility; raises ValueError on violation."""
        m, n, scale = self.m, self.n, self.scale
        if not (type(m) is type(n) is type(scale) is int):
            raise ValueError(f"m, n and scale must be ints, got {m!r}, {n!r}, {scale!r}")
        if min(m, n, scale) < 1:
            raise ValueError(f"m, n and scale must be at least 1, got {m}, {n}, {scale}")
        if scale % m or scale % n:
            raise ValueError("scale must be divisible by both m and n")
        row = [0] * m
        col = [0] * n
        pi = pj = -1  # flows are sorted, so a duplicate follows its twin
        try:
            for i, j, f in self.flows:
                if not (type(i) is type(j) is type(f) is int):
                    raise ValueError(f"flow ({i!r},{j!r},{f!r}) must be three ints")
                if not (0 <= i < m and 0 <= j < n):
                    raise ValueError(f"flow index ({i},{j}) out of range")
                if f < 1:
                    raise ValueError(f"flow ({i},{j}) must be a positive integer")
                if i == pi and j == pj:
                    raise ValueError(f"duplicate flow entry ({i},{j})")
                pi, pj = i, j
                row[i] += f
                col[j] += f
        except ValueError:
            # an entry that is not a triple fails the unpacking; name it
            # here, off the loop, which then does no per-entry length test
            bad = next((e for e in self.flows if len(e) != 3), None)
            if bad is None:
                raise
            raise ValueError(f"flow entry {bad!r} is not an (i, j, f) triple") from None
        if row != [scale // m] * m:
            raise ValueError("source not exactly depleted")
        if col != [scale // n] * n:
            raise ValueError("target not exactly filled")

    @property
    def support_size(self):
        return len(self.flows)


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Potentials (u, v) with u_i + v_j <= c_ij up to ``costs.tie``, tight on the support.

    A value like ``CostMatrix``: u and v are read-only float copies with
    their bits kept, ``==`` compares them by value, copies and pickles
    rebuild through the constructor, and ``hash()`` raises TypeError.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "v"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __reduce__(self):
        return DualCertificate, (self.u, self.v)

    def __eq__(self, other):
        if type(other) is not DualCertificate:
            return NotImplemented
        return np.array_equal(self.u, other.u) and np.array_equal(self.v, other.v)


class SupportCycleError(ValueError):
    """The plan's support contains a cycle, so it is not a basic solution."""


def _perturbed_marginals(m, n, scale):
    """(K, supplies, demands) of the perturbed problem that ``solve`` runs on.

    With K = 2m + 1 every source supplies K*S/m + 1 and every target
    demands K*S/n, the last one K*S/n + m.  No proper non-empty set of nodes
    then balances its supply and demand, so every basic solution is
    nondegenerate, and a tree arc carrying f at scale S carries K*f + g with
    |g| <= m here: f = (f' + m) // K recovers it.
    """
    k = 2 * m + 1
    demand = [k * scale // n] * n
    demand[-1] += m
    return k, [k * scale // m + 1] * m, demand


def _least_cost_basis(c, rank, supply, demand):
    """Initial spanning-tree basis: matrix-minimum allocation, rooted as it
    is allocated.  c is the cost matrix, ``rank`` the matrix whose order
    sets the allocation order (``solve`` passes the centred costs).

    Arcs are visited in ascending ``rank`` (ties in row-major order) and
    each gets as much flow as its row and column still allow.  On perturbed
    marginals no proper set of nodes balances, so every allocation but the
    last empties exactly one of its row and column, and the last empties
    both: the m+n-1 positive arcs are one spanning tree.  The emptied node
    hangs from the other endpoint, which empties later, with its flow and
    its step, +c_ij for a source and -c_ij for a target (one ``c.item`` per
    arc), so the tree is rooted at the last allocation's target.  Reversing
    the path from node 0 to that root, as a pivot's re-hang does, roots it
    at node 0.  Returns (parent, children, pflow, step, w), pflow[x] the flow
    from x to parent[x] and the rest in ``_rooted_forest``'s form.

    The default argsort is 4-7 times as fast as the stable one at a few
    thousand arcs, and gives the same order unless two ranks are exactly
    equal.  After the first ``_START_BLOCK`` arcs, each block of the order
    is screened against live-row and live-column masks, so the Python
    loop sees only arcs whose row and column were both live when their block
    began.  The masks are built at the second block, so shapes of one block
    run the plain loop.
    """
    m, n = c.shape
    size = m + n
    cost = c.item
    order = np.argsort(rank, axis=None)
    ranked = rank.take(order)
    if (ranked[1:] == ranked[:-1]).any():  # exact tie: keep row-major order
        order = np.argsort(rank, axis=None, kind="stable")
    rem_rows = list(supply)
    rem_cols = list(demand)
    dead_rows, dead_cols = [], []  # emptied since the last screen
    parent = [-1] * size
    pflow = [0] * size
    step = [0.0] * size
    rows_left = m
    for lo in range(0, m * n, _START_BLOCK):
        block = order[lo:lo + _START_BLOCK]
        if lo:  # every row and column is live in the first block
            if lo == _START_BLOCK:
                live_rows = np.ones(m, dtype=bool)
                live_cols = np.ones(n, dtype=bool)
            live_rows[dead_rows] = False
            live_cols[dead_cols] = False
            dead_rows.clear()
            dead_cols.clear()
            block = block[live_rows[block // n] & live_cols[block % n]]
        for i, j in zip((block // n).tolist(), (block % n).tolist()):
            fi, fj = rem_rows[i], rem_cols[j]
            if fi and fj:
                t = m + j
                if fi <= fj:  # row i empties, and column j too at the last
                    parent[i] = t
                    pflow[i] = fi
                    step[i] = cost(i, j)
                    rem_rows[i] = 0
                    rem_cols[j] = fj - fi
                    dead_rows.append(i)
                    rows_left -= 1
                    if not rows_left:  # every row empty, hence every column
                        break
                else:
                    parent[t] = i
                    pflow[t] = fj
                    step[t] = -cost(i, j)
                    rem_rows[i] = fi - fj
                    rem_cols[j] = 0
                    dead_cols.append(j)
        if not rows_left:
            break
    # root at node 0: each node on the path from 0 to the root takes the
    # flow and the negated step of the arc to its old child on the path
    prev, f, s, x = -1, 0, 0.0, 0
    while x >= 0:
        up = parent[x]
        parent[x] = prev
        f, pflow[x] = pflow[x], f
        s, step[x] = -step[x], s
        prev, x = x, up
    children = [[] for _ in range(size)]
    for x in range(1, size):
        children[parent[x]].append(x)
    w = [0.0] * size
    _tree_potentials(w, [0], children, step)
    return parent, children, pflow, step, w


def _rooted_forest(arcs, c):
    """Root every tree of the forest on ``arcs``, (i, j, f) triples, at its
    lowest node, and set its potentials; c is the m x n cost matrix.  It
    roots the support of the plan ``verify_optimality`` certifies, which
    reads no flow, so it keeps none, and it calls no code of ``solve``.

    Nodes are sources 0..m-1 and targets m..m+n-1; in a feasible plan each
    tree's lowest node is a source, and a spanning tree is rooted at node 0.
    Returns (parent, step, w, tree) as plain lists, with parent -1 at each
    root: the arc from x to parent[x] steps step[x], -c_ij or +c_ij read with
    one ``c.item`` per arc; w is 0 at each root, and the walk sets w[y] =
    w[x] + step[y] as it hangs y from x, the sum ``_tree_potentials`` makes;
    tree[x] numbers x's tree in the order of the roots.  Raises
    SupportCycleError at the first arc that closes a cycle.
    """
    m, n = c.shape
    size = m + n
    cost = c.item
    adj = [[] for _ in range(size)]  # (neighbour, its step below this node)
    for i, j, _ in arcs:
        cij = cost(i, j)
        adj[i].append((m + j, -cij))  # a target child steps down by c_ij
        adj[m + j].append((i, cij))
    parent = [-1] * size
    step = [0.0] * size
    w = [0.0] * size
    tree = [-1] * size
    k = 0
    for root in range(size):
        if tree[root] >= 0:
            continue
        tree[root] = k
        stack = [root]
        while stack:
            x = stack.pop()
            up = parent[x]
            for nb, s in adj[x]:
                if nb != up:
                    if tree[nb] >= 0:
                        raise SupportCycleError("support contains a cycle")
                    tree[nb] = k
                    parent[nb] = x
                    step[nb] = s
                    w[nb] = w[x] + s
                    stack.append(nb)
        k += 1
    return parent, step, w, tree


def _tree_potentials(w, stack, children, step):
    """Fill w below the nodes on ``stack``, whose w is set: w[y] = w[x] +
    step[y] for each child y of x, so that u_i + v_j = c_ij on each tree arc.
    It serves ``solve`` alone, its start (``_least_cost_basis``) and each
    pivot's re-hung subtree; the certificate's ``_rooted_forest`` sets its
    own w.

    w_i = u_i for a source and w_{m+j} = -v_j for a target, so reduced costs
    are c_ij - w_i + w_{m+j}.  Each w is read off its parent's w and its
    step, so a re-hung subtree gets the bits a propagation from the root
    gives.  Only nodes with children go on the stack, which ends empty: most
    targets are leaves.
    """
    while stack:
        x = stack.pop()
        wx = w[x]
        for y in children[x]:
            w[y] = wx + step[y]
            if children[y]:
                stack.append(y)


def _price(c_np, w, cut, size, red):
    """Full pricing: enter the most negative arc and list the next ones.

    Keeps the ``size`` most negative arcs with reduced cost < cut and
    returns (entering, rest): the most negative of them, ties to the lowest
    arc index, and the others in arc-index order, each as a (c_ij, i, m+j)
    triple; (None, []) when no arc is below the cut.  numpy's
    fl(c_ij - w_i) + w_t is the sum ``_pick`` makes, so this is what
    ``_pick`` would enter from the kept arcs.  ``red`` is an m x n buffer.
    Tree arcs need no mask, and ``solve`` relies on it: w is one
    propagation from the root, so a tree arc whose child is the target,
    w_t = w_i + step_t = fl(w_i - c_ij), prices fl(c_ij - w_i) + w_t = 0
    exactly, and one whose child is the source, w_i = fl(w_t + c_ij), is off
    by about one rounding of |w|, the ``TIE_TOL`` comment's bound, far above
    -costs.tie.
    """
    m, n = red.shape
    wa = np.array(w)
    np.subtract(c_np, wa[:m, None], out=red)
    np.add(red, wa[None, m:], out=red)
    flat = red.reshape(-1)
    arcs = (flat < cut).nonzero()[0]
    if not arcs.size:
        return None, []
    reds = flat[arcs]
    if arcs.size > size:
        keep = np.sort(np.argpartition(reds, size - 1)[:size])
        arcs, reds = arcs[keep], reds[keep]
    cand = list(zip(c_np.take(arcs).tolist(), (arcs // n).tolist(),
                    (arcs % n + m).tolist()))
    return cand.pop(int(reds.argmin())), cand  # argmin: the first minimum


def _pick(cand, w, cut):
    """Reprice the candidates and enter the most negative one.

    Keeps in ``cand`` only the others still below ``cut`` and returns the
    entering (c_ij, i, m+j), or None when no candidate is below it.  Ties
    go to the earliest candidate, the lowest arc index, as in ``_price``.
    """
    best = cut
    keep = []
    for e in cand:
        r = e[0] - w[e[1]] + w[e[2]]
        if r < cut:
            if r < best:
                best, at = r, len(keep)
            keep.append(e)
    if not keep:
        return None
    e = keep.pop(at)
    cand[:] = keep
    return e


def solve(inst: Instance) -> TransportPlan:
    """Minimize sum c_ij * f_ij / S over integral plans; returns a vertex plan.

    Raises RuntimeError past m*n + ``_PIVOT_SLACK`` pivots, a limit no
    measured solve comes near.
    """
    m, n = inst.m, inst.n
    S = inst.scale
    c_np = inst.costs.c

    K, supply, demand = _perturbed_marginals(m, n, S)
    # the start's order ignores row and column offsets (module docstring);
    # sum / n gives np.mean's bits without its fixed cost on tiny shapes
    centred = c_np - c_np.sum(axis=1, keepdims=True) / n
    centred -= centred.sum(axis=0) / m
    parent, children, pflow, step, w = _least_cost_basis(c_np, centred, supply, demand)

    mark = [0] * (m + n)  # apex search: last pivot tag that climbed a node
    enter_cut = -inst.costs.tie
    list_size = max(_MIN_CANDIDATES, m * n // _ARCS_PER_CANDIDATE)
    red = np.empty((m, n))  # full-pricing buffer
    cand = []  # candidate list: arcs (c_ij, i, m+j) last priced below enter_cut
    limit = m * n + _PIVOT_SLACK
    for pivot in range(limit + 1):  # the last pass only finds no entering arc
        entering = _pick(cand, w, enter_cut)
        if entering is None:
            entering, cand = _price(c_np, w, enter_cut, list_size, red)
            if entering is None:
                break
        ce, ei, et = entering

        # the apex of the cycle is the first node one endpoint reaches that
        # the other has already climbed through; climbing both in turn stops
        # within twice the longer side, so no depth array is kept
        tag_a, tag_b = 2 * pivot + 1, 2 * pivot + 2
        a, b = ei, et
        mark[a] = tag_a
        mark[b] = tag_b
        while True:
            if a:  # node 0 is the root
                a = parent[a]
                if mark[a] == tag_b:
                    apex = a
                    break
                mark[a] = tag_a
            if b:
                b = parent[b]
                if mark[b] == tag_a:
                    apex = b
                    break
                mark[b] = tag_b

        # flow rises on the entering arc, so on the tree path from ei to et
        # it falls on every arc walked source -> target: climbing from
        # either endpoint, the first arc falls and the arcs alternate.  Every
        # basis is nondegenerate, so the falling arc of least flow is unique
        # and theta >= 1; it is the arc from ``out`` to its parent
        theta = 0
        for x, on_a in ((ei, True), (et, False)):
            while x != apex:
                if not theta or pflow[x] < theta:
                    theta, out, out_on_a = pflow[x], x, on_a
                x = parent[x]
                if x == apex:
                    break
                x = parent[x]
        for x in (ei, et):
            while x != apex:
                pflow[x] -= theta
                x = parent[x]
                if x == apex:
                    break
                pflow[x] += theta
                x = parent[x]

        # dropping the leaving arc detaches the subtree under ``out``; it
        # holds the entering endpoint q on out's side of the cycle.  Re-hang
        # it from the other endpoint r by reversing the parent pointers on
        # the path q .. out, each node taking over the flow and the negated
        # step of the arc to its old child on the path; q takes the entering
        # arc, with theta and the step of its cost.  Then recompute the
        # subtree's potentials from r down its arcs, so that w stays what a
        # propagation from the root gives
        q, r = (ei, et) if out_on_a else (et, ei)
        f, s = theta, (ce if q < m else -ce)
        children[parent[out]].remove(out)
        prev, x = r, q
        while True:
            up = parent[x]
            parent[x] = prev
            f, pflow[x] = pflow[x], f
            s, step[x] = -step[x], s
            children[prev].append(x)
            if x == out:
                break
            children[up].remove(x)
            prev, x = x, up
        w[q] = w[r] + step[q]
        _tree_potentials(w, [q], children, step)
    else:
        raise RuntimeError(f"network simplex exceeded its pivot limit of {limit} "
                           f"(m*n + {_PIVOT_SLACK}) on a {m}x{n} instance")

    # a tree arc carries K*f + g with |g| <= m, so (f' + m) // K is f
    support = []
    for x in range(1, m + n):
        g = (pflow[x] + m) // K
        if g:
            p = parent[x]
            support.append((x, p - m, g) if x < m else (p, x - m, g))
    return TransportPlan(m, n, S, support)


def check_shape(inst: Instance, plan: TransportPlan):
    """Raise ValueError unless the plan is m x n like the instance."""
    if plan.m != inst.m or plan.n != inst.n:
        raise ValueError("plan and instance shapes do not match: "
                         f"{plan.m}x{plan.n} vs {inst.m}x{inst.n}")


def objective(inst: Instance, plan: TransportPlan) -> float:
    """Total transport cost sum c_ij * f_ij / S."""
    return scaled_objective(inst, plan) / plan.scale


def scaled_objective(inst: Instance, plan: TransportPlan) -> float:
    """Integer-weighted cost sum c_ij * f_ij (no division by the scale).

    Sums in flow order from +0.0, reading each support cost with one
    ``c.item``, so the cost is O(support).  It folds left, which ``sum()``
    stopped doing in Python 3.12, so every Python gets the same bits.  Raises
    ValueError on a shape mismatch.
    """
    check_shape(inst, plan)
    cost = inst.costs.c.item
    total = 0.0
    for i, j, f in plan.flows:
        total += cost(i, j) * f
    return total


def verify_optimality(inst: Instance, plan: TransportPlan) -> Optional[DualCertificate]:
    """Certify optimality by complementary slackness, or return None.

    The support is rooted as a forest (``_rooted_forest``), which sets
    potentials down each tree in ``solve``'s w form.  Each tree's
    additive freedom is then fixed by solving the induced difference
    constraints (Bellman-Ford over trees), so that a valid certificate is
    found whenever one exists.  One test decides, on the returned u and v:
    no reduced cost lies below -costs.tie, within which it counts as zero.
    Raises SupportCycleError if the support is not a forest, and ValueError
    when the shapes differ.
    """
    check_shape(inst, plan)
    m = inst.m
    c = inst.costs.c
    parent, _, w, tree = _rooted_forest(plan.flows, c)
    w = np.array(w)
    red = (c - w[:m, None]) + w[None, m:]

    # shift tree k's potentials by delta_k: constraints
    # delta_a - delta_b <= min reduced cost over (i in a, j in b); one tree
    # leaves no shift to fix (delta = 0), so its red stands
    ntree = parent.count(-1)
    if ntree > 1:
        # one minimum per (source tree, target tree) block of red, with rows
        # and columns grouped by tree; every tree holds a source and a
        # target, because the plan is feasible, so no block is empty
        comp = np.array(tree)
        rows = np.argsort(comp[:m], kind="stable")
        cols = np.argsort(comp[m:], kind="stable")
        trees = np.arange(ntree)
        bound = np.minimum.reduceat(red[rows], comp[:m][rows].searchsorted(trees), axis=0)
        bound = np.minimum.reduceat(bound[:, cols], comp[m:][cols].searchsorted(trees), axis=1)
        w += _solve_difference_constraints(bound)[comp]
        # computed again from c, not by shifting red's blocks: the check
        # must read the u and v it returns, and a shifted red would round
        # differently at the tie cut
        red = (c - w[:m, None]) + w[None, m:]
    # the support needs no tightness test: each support arc is a tree arc,
    # which _rooted_forest made tight as it hung it, and delta shifts both
    # its ends alike
    if red.min() < -inst.costs.tie:
        return None
    return DualCertificate(u=w[:m], v=0.0 - w[m:])  # 0.0 - w: v holds no -0.0


def _solve_difference_constraints(w):
    """Bellman-Ford shifts delta for delta_a - delta_b <= w[a, b].

    Clamps w's diagonal, each a reduced cost inside one tree that no shift
    moves, at 0 in place, then runs at most k Jacobi sweeps from delta = 0.
    It decides nothing: ``verify_optimality``'s one test reads any
    violation off the shifted u and v.
    """
    k = w.shape[0]
    np.fill_diagonal(w, np.maximum(np.diagonal(w), 0.0))  # verify_optimality's own bound
    delta = np.zeros(k)
    paths = np.empty_like(w)  # paths[a, b] = delta_b + w[a, b], reused by every sweep
    for _ in range(k):
        # relax: delta_a <= delta_b + w[a, b]
        best = np.add(delta, w, out=paths).min(axis=1)
        if not (best < delta).any():
            break
        np.minimum(delta, best, out=delta)
    return delta


def target_masks(plan: TransportPlan) -> list:
    """Per source, an int bitset of the targets it serves: bit j of entry i
    is set iff f_ij > 0."""
    masks = [0] * plan.m
    for i, j, _ in plan.flows:
        masks[i] |= 1 << j
    return masks


def find_crossings(plan: TransportPlan):
    """All (i, i2, j, j2) tuples, i < i2 and j < j2, whose four flows are positive.

    It reads the same per-source target bitsets that ``uncross`` keeps
    (``target_masks``): a pair's common targets are one ``&``, and only a
    pair sharing two or more yields crossings, listed in ascending bit
    order.  A plan can have ~m^2 n^2 / 4 crossings, so a caller that only
    counts them reads ``analysis.pair_counts(plan).crossings`` instead.  The
    library itself only counts; this list is kept for bench/workloads.py and
    as the tests' reference for ``uncross``.
    """
    masks = target_masks(plan)
    out = []
    for i, mi in enumerate(masks):
        for i2 in range(i + 1, plan.m):
            common = mi & masks[i2]
            if common & (common - 1):
                js = [j for j in range(common.bit_length()) if common >> j & 1]
                out.extend((i, i2, j, j2) for a, j in enumerate(js) for j2 in js[a + 1:])
    return out


def uncross(inst: Instance, plan: TransportPlan) -> TransportPlan:
    """Remove crossings by pushing flow around 4-cycles, never increasing cost.

    Each step picks the first crossing in (i, i2, j, j2) order and pushes the
    full min flow in the cost-non-increasing direction, zeroing one entry, so
    the support shrinks every step and the loop terminates.  Ties within
    costs.tie push in the direction that zeroes the lexicographically
    smallest entry.

    A push raises two arcs that are already positive and lowers two others,
    so supports only shrink and no source pair ever gains a common target.
    The first crossing pair therefore never moves back in (i, i2) order, and
    one ordered pass over the pairs, pushing on each until it shares fewer
    than two targets, makes exactly the pushes of a rescan after every push.
    Within a pair, a push on (j, j2) drops j, j2 or both from the common
    targets and leaves the rest, so the pair's next crossing is again its
    two lowest common targets: each push takes them from the bitsets.

    Each source keeps its support as an int bitset over targets and its flows
    in a list row (a list indexes faster than a dict on the measured inputs);
    the costs become list rows in one ``tolist``.  A pair's common targets
    are then one ``&``, and dropping their lowest set bit, ``x & (x - 1)``,
    leaves the rest: empty means fewer than two.  The output support is a
    subset of the input one, so it is read off the input flows in their order.
    Raises ValueError when the shapes differ.
    """
    check_shape(inst, plan)
    tie = inst.costs.tie
    m = plan.m
    rows = [[0] * plan.n for _ in range(m)]  # rows[i][j] = f_ij
    masks = [0] * m  # target_masks(plan), filled in the same pass as rows
    for i, j, f in plan.flows:
        rows[i][j] = f
        masks[i] |= 1 << j
    crow = inst.costs.c.tolist()

    for i, ri in enumerate(rows):
        ci = crow[i]
        for i2 in range(i + 1, m):
            c2, r2 = crow[i2], rows[i2]
            while True:
                common = masks[i] & masks[i2]
                rest = common & (common - 1)  # common without its lowest target
                if not rest:
                    break
                j = (common ^ rest).bit_length() - 1
                j2 = (rest & -rest).bit_length() - 1
                # pushing eps onto the (i,j),(i2,j2) diagonal changes cost by eps*gain
                gain = (ci[j] + c2[j2]) - (ci[j2] + c2[j])
                if -tie <= gain <= tie:
                    # tie: zero the lexicographically smallest entry.  The
                    # -diagonal push zeroes (i, j), the smallest of all four,
                    # unless f_i2j2 < f_ij makes it zero (i2, j2), the
                    # largest; the +diagonal push zeroes (i, j2) or (i2, j)
                    push_diag = ri[j] > r2[j2]
                else:
                    push_diag = gain < 0
                # lower (i, a) and (i2, b), raise (i, b) and (i2, a)
                if push_diag:
                    a, b = j2, j
                else:
                    a, b = j, j2
                fa, fb = ri[a], r2[b]
                eps = fa if fa < fb else fb
                ri[b] += eps
                r2[a] += eps
                ri[a] = fa - eps
                r2[b] = fb - eps
                # at least one lowered arc hits zero and leaves its bitset
                if fa == eps:
                    masks[i] ^= 1 << a
                if fb == eps:
                    masks[i2] ^= 1 << b

    support = tuple((i, j, f) for i, j, _ in plan.flows if (f := rows[i][j]))
    return TransportPlan(plan.m, plan.n, plan.scale, support)
