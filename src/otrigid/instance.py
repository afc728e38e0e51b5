"""Instance model: point clouds, cost matrices, genericity checking, perturbation.

An instance is a dense m x n cost matrix with equal-weight marginals 1/m on
sources and 1/n on targets.  All masses are tracked at the integer scale
S = lcm(m, n), which makes every vertex of the transportation polytope
integral.

Instances are read-only copies: ``CostMatrix`` and ``PointCloud`` copy their
input arrays and mark the copies non-writeable, so the costs a plan is
certified on are the costs it was solved on.  Point clouds carry no label:
``Geometry``'s ``sources`` and ``targets`` slots say which is which, so
``cost_from_points`` keeps the caller's clouds as they are.  ``m``, ``n``,
``scale``, ``max_abs`` and the tie cut ``costs.tie`` are plain attributes,
computed once at construction.  Deep copies and pickles rebuild both
through their constructors, so they are read-only too, and ``==`` compares
the arrays by value.  A hash of the array bytes would not agree with that
``==`` (0.0 == -0.0), so ``hash()`` of any of the three raises TypeError:
``Instance`` sets ``__hash__ = None``, and ``eq=False`` keeps the other
two's own ``__eq__``, which implies it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# The one tie rule: two cost expressions (costs, reduced costs, or a cycle's
# alternating cost sum) are equal when they differ by at most the cut
# CostMatrix.tie = TIE_TOL * max|c|, the only place TIE_TOL is applied.
# With no absolute floor, scaling all costs by a power of two changes no
# decision. Rounding stays far below it (Higham 2002, ch. 4): each solver
# potential is one propagation down a tree path of at most 2 min(m, n) arcs,
# one rounding per arc, and |w| <= 3 max|c| at the stop, so a reduced cost is
# off by at most ~(12 min(m, n) + 10) * 2**-53 * max|c|, 7e-14 * max|c| when
# min(m, n) = 50. DEFAULT_PERTURB_ETA must stay well above TIE_TOL.
TIE_TOL = 1e-12
DEFAULT_PERTURB_ETA = 1e-9

# Largest accepted |c_ij|. Below it the solver's and the scan's floats cannot
# overflow for any m + n < 2**26: cost differences and the genericity scan's
# four-term sums stay within 4 * 2**996; tree potentials, being alternating
# sums along a path of at most m + n - 1 arcs, stay within (m + n) * 2**996,
# and reduced costs c_ij - u_i - v_j within (2(m + n) + 1) * 2**996. Beyond
# it c[i] - c[j] can round to inf, and inf - inf = nan then hides exact ties.
MAX_ABS_COST = 2.0**996

# Most violations a GenericityReport lists. Hostile input (all-zero costs) has
# ~m^2 n^2 / 4 of them, so the list stops here; the verdict stays exact.
VIOLATION_LIST_LIMIT = 10_000

# Cost differences the genericity scan sorts per numpy pass: a chunk of
# max(1, _SCAN_BLOCK // n) source pairs, each with its n differences, so at
# most 128 KiB of float64 unless one pair alone is longer; it stays in L2.
# At 1 << 15 (256 KiB) each chunk's arrays crossed glibc's default 128 KiB
# mmap threshold and came back as fresh pages: inside a fig1 ell=20
# run_seed that cost ~96 minor page faults per scan and most of the gain.
_SCAN_BLOCK = 1 << 14


def _float_array(data, what):
    """A new float64 array of ``data``; ValueError unless every entry is a
    real number that fits in a float.

    numpy alone would read "0.5" as 0.5, True as 1.0 and None as nan.  Float
    and int arrays skip the per-entry type check.
    """
    if not (isinstance(data, np.ndarray) and data.dtype.kind in "fiu"):
        for t in dict.fromkeys(map(type, np.array(data, dtype=object).flat)):
            if not issubclass(t, numbers.Real) or issubclass(t, bool):
                raise ValueError(f"{what} entries must be numbers, not {t.__name__}")
    try:
        return np.array(data, dtype=float)
    except OverflowError:  # an int such as 10**400
        raise ValueError(f"{what} entries must fit in a float") from None


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A non-empty list of points of common dimension."""

    points: np.ndarray  # shape (k, d)

    def __post_init__(self):
        pts = _float_array(self.points, "point")
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("point cloud must be a non-empty (k, d) array with d >= 1")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, which copies
        # the points read-only again
        return PointCloud, (self.points,)

    def __eq__(self, other):
        if type(other) is not PointCloud:
            return NotImplemented
        return np.array_equal(self.points, other.points)

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense m x n matrix of finite transport costs with |c_ij| <= MAX_ABS_COST.

    Also holds ``m``, ``n``, ``max_abs`` = max|c_ij| and the tie cut
    ``tie`` = TIE_TOL * max_abs; they are not fields.
    """

    c: np.ndarray

    def __post_init__(self):
        c = _float_array(self.c, "cost matrix")
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
            raise ValueError("cost matrix must be 2-dimensional and non-empty")
        max_abs = float(np.max(np.abs(c)))  # inf or nan exactly when an entry is
        if not max_abs < math.inf:
            raise ValueError("cost matrix entries must all be finite")
        if max_abs > MAX_ABS_COST:
            raise ValueError("cost matrix entries must satisfy |c_ij| <= 2**996")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", c.shape[0])
        object.__setattr__(self, "n", c.shape[1])
        object.__setattr__(self, "max_abs", max_abs)
        object.__setattr__(self, "tie", TIE_TOL * max_abs)

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, which copies
        # the costs read-only again and recomputes m, n, max_abs and tie
        return CostMatrix, (self.c,)

    def __eq__(self, other):
        if type(other) is not CostMatrix:
            return NotImplemented
        return np.array_equal(self.c, other.c)


@dataclass(frozen=True)
class Geometry:
    """Optional point-cloud origin of a cost matrix: c_ij = ||x_i - y_j||^p.

    The clouds share a dimension and ``p`` is a positive finite real, not a
    bool, kept as a float; anything else raises ValueError.
    """

    sources: PointCloud
    targets: PointCloud
    p: float

    def __post_init__(self):
        if self.sources.dim != self.targets.dim:
            raise ValueError(f"dimension mismatch: {self.sources.dim} vs {self.targets.dim}")
        p = self.p
        if not isinstance(p, numbers.Real) or isinstance(p, bool) or not 0 < p < math.inf:
            raise ValueError(f"exponent p must be positive and finite, not {p!r}")
        try:
            object.__setattr__(self, "p", float(p))
        except OverflowError:  # an int such as 10**400 is below math.inf
            raise ValueError("exponent p must fit in a float") from None


@dataclass(frozen=True)
class Instance:
    """Costs plus optional geometry.

    Also holds ``m``, ``n`` and ``scale`` = S = lcm(m, n), at which S/m and S/n
    are the integral source and target masses; they are not fields.
    """

    costs: CostMatrix
    geometry: Optional[Geometry] = None

    __hash__ = None  # see the module docstring

    def __post_init__(self):
        m, n = self.costs.m, self.costs.n
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "scale", math.lcm(m, n))
        if self.geometry is not None:
            g = self.geometry
            if len(g.sources) != m or len(g.targets) != n:
                raise ValueError("geometry size does not match cost matrix")
            expected = _power_distance_matrix(g.sources.points, g.targets.points, g.p)
            # an inf or nan distance fails too: the max is then inf or nan
            if not np.abs(self.costs.c - expected).max() <= self.costs.tie:
                raise ValueError("costs are inconsistent with geometry")


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of the quadruple scan c_ik + c_jl vs c_il + c_jk."""

    violations: tuple  # quadruples (i, j, k, l) with i < j, k < l, sorted
    truncated: bool = False  # more than VIOLATION_LIST_LIMIT exist; the rest are not listed

    @property
    def generic(self):
        return not self.violations


def _power_distance_matrix(x, y, p):
    """||x_i - y_j||^p, the squared differences summed left to right.

    One coordinate at a time needs no (m, n, d) array.  For d < 8 the bits
    are those of ``np.sum`` over the coordinate axis, which folds so few
    terms left to right too; from d = 8 on numpy sums pairwise instead.
    """
    sq = np.zeros((len(x), len(y)))
    for k in range(x.shape[1]):
        diff = x[:, None, k] - y[None, :, k]
        diff *= diff
        sq += diff
    return np.sqrt(sq) ** p


def gen_points(dist, count, dim, seed):
    """Sample a point cloud: 'uniform-square' in [0,1]^dim or 'gaussian' iid N(0,1)."""
    rng = np.random.default_rng(seed)
    if dist == "uniform-square":
        pts = rng.random((count, dim))
    elif dist == "gaussian":
        pts = rng.standard_normal((count, dim))
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    return PointCloud(pts)


def cost_from_points(x: PointCloud, y: PointCloud, p: float) -> Instance:
    """Build an instance with c_ij = ||x_i - y_j||^p, keeping the geometry."""
    geo = Geometry(x, y, p)
    return Instance(CostMatrix(_power_distance_matrix(x.points, y.points, geo.p)), geo)


def gen_point_instance(dist, m, n, p, seed) -> Instance:
    """W_p instance between m sources and n targets drawn from ``dist`` in 2D.

    One seed fixes both clouds: sources are drawn with ``seed`` and targets
    with ``seed + 10_000_019``, so the two never share an RNG stream.
    """
    x = gen_points(dist, m, 2, seed)
    y = gen_points(dist, n, 2, seed + 10_000_019)
    return cost_from_points(x, y, p)


def gen_random_costs(m, n, seed) -> Instance:
    """Instance with iid uniform [0,1) costs and no geometry."""
    rng = np.random.default_rng(seed)
    return Instance(CostMatrix(rng.random((m, n))))


def perturb(inst: Instance, eta: float, seed) -> Instance:
    """Add iid uniform [0, eta*max|c|) jitter to every cost entry.

    An entry that the jitter would push past MAX_ABS_COST has it subtracted
    instead, which keeps it within the bound whenever eta <= 1.  Geometry is
    dropped: the perturbed costs are no longer exact powers of distances.
    Deterministic per seed.  Raises ValueError unless 0 < eta <= 1.
    """
    if not 0 < eta < math.inf:  # also false for nan
        raise ValueError("eta must be positive and finite")
    if eta > 1:
        raise ValueError("eta must be at most 1")
    rng = np.random.default_rng(seed)
    scale = inst.costs.max_abs
    if scale == 0.0:
        scale = 1.0  # all-zero costs still get absolute jitter in [0, eta)
    jitter = rng.random(inst.costs.c.shape) * (eta * scale)
    c = inst.costs.c + jitter
    over = c > MAX_ABS_COST
    c[over] = inst.costs.c[over] - jitter[over]
    return Instance(CostMatrix(c))


def genericity_check(inst: Instance) -> GenericityReport:
    """Exact scan of quadruples (i<j, k<l) for |c_ik + c_jl - c_il - c_jk| <= costs.tie.

    With d = c_i - c_j, a quadruple is a near-tie when |d_k - d_l| <= costs.tie.
    Source pairs i < j are visited in (i, j) order, in chunks of
    max(1, _SCAN_BLOCK // n) pairs whose differences are sorted in one numpy
    pass.  Only source pairs whose sorted d has an adjacent gap within the
    cut can hold a near-tie, because rounded subtraction is monotone: any
    sorted window ds[hi] - ds[lo] <= costs.tie contains such a gap.  Only
    those pairs get the two-pointer sweep, started only at such gaps, so the
    scan is exact and costs O(m^2 n log n) plus the violations it lists.

    Once VIOLATION_LIST_LIMIT violations are listed the scan stops at the
    next one and marks the report truncated; ``generic`` is exact either way.
    """
    violations = []
    truncated = _collect_near_ties(inst.costs.c, inst.costs.tie, violations)
    violations.sort()
    return GenericityReport(tuple(violations), truncated)


def _collect_near_ties(c, abs_tol, out):
    """Append near-ties (i, j, k, l) to ``out``; True when the list limit cut the scan."""
    m, n = c.shape
    # source pairs i < j are numbered in (i, j) order, source i's from first[i]
    first = np.concatenate(([0], np.cumsum(np.arange(m - 1, 0, -1))))
    step = max(1, _SCAN_BLOCK // n)
    for p in range(0, first[-1], step):
        pairs = np.arange(p, min(p + step, first[-1]))
        src_i = first.searchsorted(pairs, side="right") - 1
        src_j = pairs - first[src_i] + src_i + 1
        # subtract in place: a third live chunk-sized array made the heap
        # shrink and regrow, ~125 minor page faults per fig1 ell=20 scan
        # inside run_seed
        diffs = c[src_i]
        diffs -= c[src_j]
        diffs.sort(axis=1)
        close = diffs[:, 1:] - diffs[:, :-1] <= abs_tol
        # only flagged pairs pay for the indirect sort that names the targets
        for r in np.flatnonzero(close.any(axis=1)).tolist():
            i, j = int(src_i[r]), int(src_j[r])
            perm = np.argsort(c[i] - c[j], kind="stable").tolist()
            # the chunk's sorted row is d[perm]: sorts differ only in the
            # order of equal floats
            row = diffs[r].tolist()
            # two-pointer sweep over sorted differences: all (k, l) with
            # |d_k - d_l| <= abs_tol appear as pairs inside a sliding window,
            # and a window can only start where the next gap is close
            hi = 0
            for lo in np.flatnonzero(close[r]).tolist():
                if hi < lo + 1:
                    hi = lo + 1
                while hi < n and row[hi] - row[lo] <= abs_tol:
                    hi += 1
                for t in range(lo + 1, hi):
                    if len(out) == VIOLATION_LIST_LIMIT:
                        return True
                    k, l = perm[lo], perm[t]
                    if k > l:
                        k, l = l, k
                    out.append((i, j, k, l))
    return False
