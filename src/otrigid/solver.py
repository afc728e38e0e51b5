"""Exact network simplex for the scaled transportation problem.

Flows are integers at scale S (a multiple of lcm(m, n)); each source emits
S/m units and each target absorbs S/n units.  The solver maintains a
spanning-tree basis on the bipartite graph K_{m,n}, rooted at source 0 and
kept as node-indexed lists: the tree arc from node x to parent[x] keeps its
flow in pflow[x] and its position in the basis in pslot[x], beside the
children lists.  A pivot walks only its cycle and the subtree it re-hangs,
and touches no dict.  Potentials are one list w, with w_i = u_i for a
source and w_{m+j} = -v_j for a target.

``verify_optimality`` works on the same objects: ``_rooted_forest`` roots
the support forest of any plan (each tree at its lowest node, so a spanning
tree at source 0) and ``_tree_potentials`` propagates w down every tree,
for the certificate as for the basis.

It pivots on an exactly perturbed integer problem (see
``_perturbed_marginals``) whose every basis is nondegenerate: each pivot
moves at least one unit and strictly lowers the cost, so no entering rule
can cycle.  Reduced costs depend only on the basis, so the optimal perturbed
basis is an optimal basis of the real problem, whose flows are read off the
perturbed ones exactly.  This is the supply-perturbation form of a strongly
feasible basis (Ahuja, Magnanti & Orlin 1993, section 11.6).

It starts from a least-cost (matrix-minimum) basis, screening the cost
order against live-row and live-column masks in numpy.  Pricing keeps a
candidate list: a full numpy pricing of all m*n arcs keeps the most negative
ones, each later pivot reprices only those and enters the most negative, and
a new full pricing runs only when none is left below the entering cut
-costs.tie, under which a reduced cost is not a tie with zero.  The
solve stops when a full pricing from freshly propagated potentials finds no
arc below the cut, so the returned plan is an optimal polytope vertex.
A ``TransportPlan`` is exactly feasible once built, so a function taking one
with an instance checks only that the shapes agree (``check_shape``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .instance import Instance

_MAX_PIVOTS = 50_000_000  # safety valve; never hit in practice
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
    f_ij >= 1 and rows sum to S/m, columns to S/n.
    """

    m: int
    n: int
    scale: int
    flows: tuple  # ((i, j, f), ...)

    def __post_init__(self):
        object.__setattr__(self, "flows", tuple(sorted(map(tuple, self.flows))))
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
        if row != [scale // m] * m:
            raise ValueError("source not exactly depleted")
        if col != [scale // n] * n:
            raise ValueError("target not exactly filled")

    @property
    def support_size(self):
        return len(self.flows)

    def flow_dict(self):
        return {(i, j): f for i, j, f in self.flows}


@dataclass(frozen=True)
class DualCertificate:
    """Potentials (u, v) with u_i + v_j <= c_ij everywhere, tight on the support."""

    u: np.ndarray
    v: np.ndarray


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


def _least_cost_basis(c_np, supply, demand):
    """Initial spanning-tree basis: matrix-minimum allocation.

    Arcs are visited in ascending cost (ties in row-major order) and each
    gets as much flow as its row and column still allow.  Every allocation
    exhausts a row or a column, so the positive arcs form a forest whose
    components each balance supply and demand; on perturbed marginals only
    the whole graph balances, so they are one spanning tree of m+n-1
    positive arcs.  Returns {arc index i*n+j: flow}.

    The default argsort is 4-7 times as fast as the stable one at a few
    thousand arcs, and gives the same order unless two costs are exactly
    equal.  After the first ``_START_BLOCK`` arcs, each block of the cost
    order is screened against live-row and live-column masks, so the Python
    loop sees only arcs whose row and column were both live when their block
    began.  The masks are built at the second block, so shapes of one block
    run the plain loop.
    """
    m, n = c_np.shape
    order = np.argsort(c_np, axis=None)
    ranked = c_np.take(order)
    if (ranked[1:] == ranked[:-1]).any():  # exact tie: keep row-major order
        order = np.argsort(c_np, axis=None, kind="stable")
    rem_rows = list(supply)
    rem_cols = list(demand)
    dead_rows, dead_cols = [], []  # emptied since the last screen
    flows = {}
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
        for k, i, j in zip(block.tolist(), (block // n).tolist(), (block % n).tolist()):
            if rem_rows[i] and rem_cols[j]:
                q = min(rem_rows[i], rem_cols[j])
                flows[k] = q
                rem_rows[i] -= q
                rem_cols[j] -= q
                if not rem_rows[i]:
                    dead_rows.append(i)
                    rows_left -= 1
                    if not rows_left:  # every row empty, hence every column
                        return flows
                if not rem_cols[j]:
                    dead_cols.append(j)
    return flows


def _rooted_forest(arcs, m, n):
    """Root every tree of the forest on ``arcs``, (i, j, f) triples, at its
    lowest node.

    Nodes are sources 0..m-1 and targets m..m+n-1; in a feasible plan each
    tree's lowest node is a source, and a spanning tree is rooted at node 0.
    Returns (parent, children, pflow, pslot, tree) as plain lists, with
    parent -1 at each root: the arc from x to parent[x] carries pflow[x] and
    is arcs[pslot[x]], and tree[x] numbers x's tree in the order of the
    roots.  Raises SupportCycleError at the first arc that closes a cycle.
    """
    size = m + n
    adj = [[] for _ in range(size)]
    for t, (i, j, f) in enumerate(arcs):
        adj[i].append((m + j, f, t))
        adj[m + j].append((i, f, t))
    parent = [-1] * size
    pflow = [0] * size
    pslot = [-1] * size
    tree = [-1] * size
    children = [[] for _ in range(size)]
    k = 0
    for root in range(size):
        if tree[root] >= 0:
            continue
        tree[root] = k
        stack = [root]
        while stack:
            x = stack.pop()
            up = parent[x]
            kids = children[x]
            for nb, f, t in adj[x]:
                if nb != up:
                    if tree[nb] >= 0:
                        raise SupportCycleError("support contains a cycle")
                    tree[nb] = k
                    parent[nb] = x
                    pflow[nb] = f
                    pslot[nb] = t
                    kids.append(nb)
            stack.extend(kids)
        k += 1
    return parent, children, pflow, pslot, tree


def _tree_potentials(parent, children, pslot, arc_cost, m):
    """Propagate u_i + v_j = c_ij down every tree from 0 at its root.

    ``arc_cost`` is a numpy array of the tree arcs' costs by slot.  Returns
    one list w with w_i = u_i for a source and w_{m+j} = -v_j for a target:
    reduced costs are c_ij - w_i + w_{m+j}, and shifting u by -d and v by +d
    on a subtree is w -= d on its nodes.
    """
    cost = arc_cost.tolist()
    w = [0.0] * len(parent)
    stack = [x for x, up in enumerate(parent) if up < 0]
    while stack:
        x = stack.pop()
        kids = children[x]
        wx = w[x]
        if x < m:
            for t in kids:
                w[t] = wx - cost[pslot[t]]
        else:
            for i in kids:
                w[i] = cost[pslot[i]] + wx
        stack.extend(kids)
    return w


def _price(c_np, w, basis, cut, size, red):
    """Full pricing: the ``size`` most negative arcs with reduced cost < cut.

    Returns them as (c_ij, i, m+j) triples in arc-index order; ``red`` is an
    m x n buffer.
    """
    m, n = red.shape
    wa = np.array(w)
    np.subtract(c_np, wa[:m, None], out=red)
    np.add(red, wa[None, m:], out=red)
    flat = red.reshape(-1)
    flat[basis] = 0.0
    arcs = (flat < cut).nonzero()[0]
    if arcs.size > size:
        arcs = np.sort(arcs[np.argpartition(flat[arcs], size - 1)[:size]])
    return list(zip(c_np.take(arcs).tolist(), (arcs // n).tolist(),
                    (arcs % n + m).tolist()))


def _pick(cand, w, cut):
    """Reprice the candidates and enter the most negative one.

    Keeps in ``cand`` only the others still below ``cut`` and returns the
    entering (c_ij, i, m+j) and its reduced cost, or None when no candidate
    is below it.  Ties go to the earliest candidate, so after a full pricing
    this is Dantzig's rule with the lowest arc index.
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
    return e, best


def solve(inst: Instance) -> TransportPlan:
    """Minimize sum c_ij * f_ij / S over integral plans; returns a vertex plan."""
    m, n = inst.m, inst.n
    S = inst.scale
    c_np = inst.costs.c

    K, supply, demand = _perturbed_marginals(m, n, S)
    flows = _least_cost_basis(c_np, supply, demand)  # tree arcs, by i*n+j
    basis = np.fromiter(flows, dtype=np.intp, count=len(flows))
    parent, children, pflow, pslot, _ = _rooted_forest(
        [(k // n, k % n, f) for k, f in flows.items()], m, n)
    w = _tree_potentials(parent, children, pslot, c_np.take(basis), m)

    mark = [0] * (m + n)  # apex search: last pivot tag that climbed a node
    enter_cut = -inst.costs.tie
    list_size = max(_MIN_CANDIDATES, m * n // _ARCS_PER_CANDIDATE)
    red = np.empty((m, n))  # full-pricing buffer
    cand = []  # candidate list: arcs (c_ij, i, m+j) last priced below enter_cut
    for pivot in range(_MAX_PIVOTS):
        entering = _pick(cand, w, enter_cut)
        if entering is None:
            cand = _price(c_np, w, basis, enter_cut, list_size, red)
            if not cand and pivot:
                # incremental shifts accumulate rounding; confirm optimality
                # against freshly propagated potentials before stopping
                w = _tree_potentials(parent, children, pslot, c_np.take(basis), m)
                cand = _price(c_np, w, basis, enter_cut, list_size, red)
            entering = _pick(cand, w, enter_cut)
            if entering is None:
                break
        (_, ei, et), best = entering

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
        # the path q .. out, each node taking over the flow and basis slot of
        # the arc to its old child on the path; q takes the entering arc,
        # with theta and the slot the leaving arc frees.  Then shift the
        # subtree's potentials so that the entering arc becomes tight (the
        # root side keeps u_0 = 0)
        q, r = (ei, et) if out_on_a else (et, ei)
        # w -= delta on the subtree changes the entering reduced cost
        # c - w_ei + w_et by -delta when q = et and by +delta when q = ei
        delta = -best if q < m else best
        f, t = theta, pslot[out]
        basis[t] = ei * n + et - m
        children[parent[out]].remove(out)
        prev, x = r, q
        while True:
            up = parent[x]
            parent[x] = prev
            f, pflow[x] = pflow[x], f
            t, pslot[x] = pslot[x], t
            children[prev].append(x)
            if x == out:
                break
            children[up].remove(x)
            prev, x = x, up
        subtree = [q]
        for x in subtree:
            w[x] -= delta
            subtree.extend(children[x])
    else:
        raise RuntimeError("network simplex exceeded the pivot safety limit")

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

    Sums in flow order over one (i, j) gather of the support's costs, so the
    cost is O(support).  It folds left, which ``sum()`` stopped doing in Python
    3.12, so every Python gets the same bits.  Raises ValueError on a shape mismatch.
    """
    check_shape(inst, plan)
    flows = plan.flows
    costs = inst.costs.c[[i for i, _, _ in flows], [j for _, j, _ in flows]].tolist()
    total = 0.0
    for cij, (_, _, f) in zip(costs, flows):
        total += cij * f
    return total


def verify_optimality(inst: Instance, plan: TransportPlan) -> Optional[DualCertificate]:
    """Certify optimality by complementary slackness, or return None.

    A reduced cost within costs.tie of zero counts as zero.

    The support is rooted as a forest (``_rooted_forest``) and potentials
    are propagated down each tree in ``solve``'s w form.  Each tree's
    additive freedom is then fixed by solving the induced difference
    constraints (Bellman-Ford over trees), so that a valid certificate is
    found whenever one exists.  Raises SupportCycleError if the support is
    not a forest, and ValueError when the shapes differ.
    """
    check_shape(inst, plan)
    m, n = inst.m, inst.n
    c = inst.costs.c
    parent, children, _, pslot, tree = _rooted_forest(plan.flows, m, n)
    arcs = np.array([i * n + j for i, j, _ in plan.flows])  # support, by slot
    w = np.array(_tree_potentials(parent, children, pslot, c.take(arcs), m))
    comp = np.array(tree)
    tie = inst.costs.tie
    red = (c - w[:m, None]) + w[None, m:]

    # shift tree k's potentials by delta_k: constraints
    # delta_a - delta_b <= min reduced cost over (i in a, j in b); one tree
    # leaves no shift to fix (delta = 0), so its red stands
    ntree = parent.count(-1)
    if ntree > 1:
        # one minimum per (source tree, target tree) block of red, with rows
        # and columns grouped by tree; every tree holds a source and a
        # target, because the plan is feasible, so no block is empty
        rows = np.argsort(comp[:m], kind="stable")
        cols = np.argsort(comp[m:], kind="stable")
        trees = np.arange(ntree)
        bound = np.minimum.reduceat(red[rows], comp[:m][rows].searchsorted(trees), axis=0)
        bound = np.minimum.reduceat(bound[:, cols], comp[m:][cols].searchsorted(trees), axis=1)
        delta = _solve_difference_constraints(bound, tie)
        if delta is None:
            return None
        w += delta[comp]
        red = (c - w[:m, None]) + w[None, m:]
    # the support needs no tightness test: each support arc is a tree arc,
    # which _tree_potentials makes tight, and delta shifts both its ends alike
    if red.min() < -tie:
        return None
    return DualCertificate(u=w[:m], v=0.0 - w[m:])  # 0.0 - w: v holds no -0.0


def _solve_difference_constraints(w, abs_tol):
    """Bellman-Ford for delta_a - delta_b <= w[a, b]; None if infeasible."""
    k = w.shape[0]
    diag = np.diagonal(w)
    if (diag < -abs_tol).any():
        return None  # reduced cost negative inside a component
    w = w.copy()
    np.fill_diagonal(w, np.maximum(diag, 0.0))
    delta = np.zeros(k)
    paths = np.empty_like(w)  # paths[a, b] = delta_b + w[a, b], reused by every sweep
    for _ in range(k):
        # relax: delta_a <= delta_b + w[a, b]
        best = np.add(delta, w, out=paths).min(axis=1)
        if not (best < delta).any():
            return delta
        np.minimum(delta, best, out=delta)
    # one more sweep: any further strict improvement beyond tolerance means
    # a negative cycle, i.e. the plan is not optimal
    best = np.add(delta, w, out=paths).min(axis=1)
    if (best < delta - abs_tol).any():
        return None
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
    targets and leaves the rest, so the pair's common targets are taken once
    and walked in ascending order with a two-slot window: the surviving slot
    and the next entry are the next (j, j2).

    Each source keeps its support as an int bitset over targets and its flows
    in a list row (a list indexes faster than a dict on the measured inputs),
    so a pair's common targets are one ``&``, "fewer than two" is one
    ``x & (x - 1)``, and the walk takes the lowest set bit each step.  The
    output support is a subset of the input one, so it is read off the input
    flows in their order.
    Raises ValueError when the shapes differ.
    """
    check_shape(inst, plan)
    c = inst.costs.c
    tie = inst.costs.tie
    m = plan.m
    rows = [[0] * plan.n for _ in range(m)]  # rows[i][j] = f_ij
    masks = [0] * m  # target_masks(plan), filled in the same pass as rows
    for i, j, f in plan.flows:
        rows[i][j] = f
        masks[i] |= 1 << j
    # cost rows as lists, read only for sources that push: a crossing-free
    # plan on a wide matrix then converts no costs at all
    crow = [None] * m

    for i, ri in enumerate(rows):
        for i2 in range(i + 1, m):
            mi = masks[i]
            if not mi & (mi - 1):
                break
            common = mi & masks[i2]
            if not common & (common - 1):
                continue
            ci = crow[i]
            if ci is None:
                ci = crow[i] = c[i].tolist()
            c2 = crow[i2]
            if c2 is None:
                c2 = crow[i2] = c[i2].tolist()
            r2 = rows[i2]
            low = common & -common
            j = low.bit_length() - 1  # the window's first slot; -1 when empty
            common ^= low
            while common:
                low = common & -common
                common ^= low
                j2 = low.bit_length() - 1
                if j < 0:
                    j = j2
                    continue
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
                # at least one lowered arc hits zero; a target whose lowered
                # arc stays positive is still common, and fills the first slot
                j = -1
                if fa > eps:
                    j = a
                else:
                    masks[i] ^= 1 << a
                if fb > eps:
                    j = b
                else:
                    masks[i2] ^= 1 << b

    support = tuple((i, j, f) for i, j, _ in plan.flows if (f := rows[i][j]))
    return TransportPlan(plan.m, plan.n, plan.scale, support)
