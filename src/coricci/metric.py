"""Finite metric spaces: validation, shortest-path metrics, geodesic tests.

The O(n^3) triangle check of a distance table runs in the transport kernel
(coricci.transport._kernel, compiled or pure Python), as triangle_violation,
and so does the O(n^3) pass that finds a space's 1-skeleton, on first use.
The geodesic test first asks the kernel for a one-hop certificate
(geodesic_certificate), which decides it on the gallery's cube, Glauber and
birth-death metrics without a shortest-path search; scipy's Dijkstra runs,
and scipy is imported, only where the certificate fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedGraph, MetricViolation, RepeatedPoint

METRIC_ATOL = 1e-12
GEODESIC_RTOL = 1e-9


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite point set with an exact pairwise distance table.

    Immutable after construction; safe to share across threads (two threads
    that both read skeleton first may both compute it, to the same arrays).
    """

    points: tuple
    dist: np.ndarray
    _index: dict = field(repr=False, compare=False, default=None)
    _skeleton: tuple = field(repr=False, compare=False, default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", _point_index(self.points))
        object.__setattr__(self, "dist", read_only(self.dist))

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise KeyError(f"unknown point {point!r}") from None

    def indices(self, points) -> list:
        """The index of each of points, in order; raises KeyError (or
        TypeError, for an unhashable one) when one is not a point."""
        return list(map(self._index.__getitem__, points))

    def d(self, x, y) -> float:
        return float(self.dist[self.index(x), self.index(y)])

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n > 1 else 0.0

    @property
    def skeleton(self) -> tuple:
        """The 1-skeleton of dist as read-only CSR arrays (indptr, indices)
        of its edges u < v: the pairs with no third point k between them,
        d(u, k) + d(k, v) <= d(u, v) with d(u, k) and d(k, v) each shorter
        than d(u, v), compared exactly (the transport kernel's skeleton).
        Computed on first use, in one O(n^3) pass, and kept; building a
        space never computes it."""
        if self._skeleton is None:
            from .transport import _kernel

            arrays = _kernel.skeleton(self.dist)
            for a in arrays:
                a.setflags(write=False)
            object.__setattr__(self, "_skeleton", arrays)
        return self._skeleton


def read_only(a: np.ndarray) -> np.ndarray:
    """a if it is read-only, else a read-only copy: the caller's array stays writeable."""
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def _point_index(points) -> dict:
    """{point: its index}; raises RepeatedPoint naming the first point that
    appears twice."""
    index = {p: i for i, p in enumerate(points)}
    if len(index) < len(points):
        repeat = next(p for i, p in enumerate(points) if index[p] != i)
        raise RepeatedPoint(f"point {repeat!r} appears more than once")
    return index


def _validate_metric(dist: np.ndarray, atol: float = METRIC_ATOL) -> None:
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise MetricViolation("distance table is not square")
    if not np.all(np.isfinite(dist)):
        raise MetricViolation("non-finite distance entry")
    if np.any(dist < 0):
        raise MetricViolation("negative distance entry")
    if np.any(np.abs(np.diag(dist)) > atol):
        raise MetricViolation("nonzero diagonal entry")
    if np.any(np.abs(dist - dist.T) > atol):
        i, j = np.unravel_index(np.argmax(np.abs(dist - dist.T)), dist.shape)
        raise MetricViolation(f"asymmetry at pair ({i}, {j})")
    if n > 1:
        off = dist.copy()
        np.fill_diagonal(off, 1.0)
        if np.any(off <= 0):
            i, j = np.unravel_index(np.argmin(off), dist.shape)
            raise MetricViolation(f"zero distance between distinct points ({i}, {j})")
    # Triangle inequality, in the selected transport kernel: the first
    # intermediate point that fails, and the worst pair through it.  The
    # transport package imports this module, so the kernel is imported here.
    from .transport import _kernel

    witness = _kernel.triangle_violation(dist, atol)
    if witness is not None:
        k, i, j = witness
        raise MetricViolation(
            f"triangle inequality fails for ({i}, {j}) via {k}: "
            f"d={dist[i, j]} > {dist[i, k] + dist[k, j]}"
        )


def space_from_matrix(points, matrix) -> FiniteMetricSpace:
    """Validate a dense distance matrix against every metric axiom."""
    dist = np.array(matrix, dtype=np.float64)
    if len(points) != dist.shape[0]:
        raise MetricViolation("point count does not match matrix size")
    _validate_metric(dist)
    dist.setflags(write=False)
    return FiniteMetricSpace(tuple(points), dist)


def space_from_edges(points, edges) -> FiniteMetricSpace:
    """Build the shortest-path metric of a weighted undirected graph.

    edges: iterable of (u, v, weight) with positive weights.  Raises
    DisconnectedGraph if some pair is unreachable.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    points = tuple(points)
    index = _point_index(points)
    n = len(points)
    rows, cols, data = [], [], []
    for u, v, w in edges:
        w = float(w)
        if w <= 0:
            raise MetricViolation(f"non-positive edge weight on ({u!r}, {v!r})")
        i, j = index[u], index[v]
        rows += [i, j]
        cols += [j, i]
        data += [w, w]
    graph = csr_matrix((data, (rows, cols)), shape=(n, n))
    dist = shortest_path(graph, method="D", directed=False)
    if np.any(np.isinf(dist)):
        raise DisconnectedGraph("edge list does not connect all points")
    dist.setflags(write=False)
    return FiniteMetricSpace(points, dist)


def build_space(source, points=None) -> FiniteMetricSpace:
    """Build a space from a distance matrix or a weighted edge list.

    Matrix input: source is a square array-like; points default to range(n).
    Edge-list input: source is a list of (u, v, weight); points default to
    the sorted set of endpoints.
    """
    try:
        arr = np.asarray(source, dtype=np.float64)
        is_matrix = arr.ndim == 2 and arr.shape[0] == arr.shape[1]
    except (TypeError, ValueError):
        is_matrix = False
    # A square numeric 2D input is a distance matrix; anything else (in
    # particular triples with non-numeric endpoints) is an edge list.  Pass a
    # non-square edge list or label endpoints to avoid the ambiguous case.
    if not is_matrix:
        if points is None:
            points = sorted({e[0] for e in source} | {e[1] for e in source})
        return space_from_edges(points, source)
    if points is None:
        points = range(len(source))
    return space_from_matrix(list(points), source)


def is_hop(dist, eps: float):
    """Which distances count as one hop at scale eps: d <= eps + METRIC_ATOL.
    The geodesic test and the geodesic pair scan both use this predicate."""
    return dist <= eps + METRIC_ATOL


def is_epsilon_geodesic(space: FiniteMetricSpace, eps: float):
    """Test whether every pair admits a chain of <= eps hops summing to d(x,y).

    Returns (True, None) or (False, (x, y)) with a violating pair.  A chain
    exists iff the shortest path restricted to hops of length <= eps
    reproduces the full distance (within relative tolerance 1e-9).  The hops
    form a sparse graph, searched with scipy's Dijkstra.  It is undirected:
    an entry that is a hop one way only (the table may be asymmetric within
    METRIC_ATOL) joins its points at its own length, and an entry that is a
    hop both ways at the smaller of the two.

    The search is skipped when the kernel's one-hop certificate holds: every
    pair s != t is joined by a hop, or some hop s-k of length w has
    d(k,t) < d(s,t) and w + d(k,t) <= d(s,t) in floating point.  Following
    such first hops from s gives a path to t along which d(., t) falls
    strictly, so it has at most n - 1 hops, and Dijkstra's sum along it is at
    most d(s,t) (1 + 2 (n - 1) 2^-53).  That is within GEODESIC_RTOL while
    n < 4e6, which holds for every table that fits in memory (4e6 points
    take 128 TB), so the search would return (True, None) as well.  Where
    the certificate fails, the search decides, and its verdict and witness
    pair are returned as they are.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    from .transport import _kernel

    if _kernel.geodesic_certificate(space.dist, eps + METRIC_ATOL):
        return True, None
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    d = space.dist
    hop = np.where(is_hop(d, eps), d, np.inf)
    hop = np.minimum(hop, hop.T)
    np.fill_diagonal(hop, np.inf)
    rows, cols = np.nonzero(np.isfinite(hop) & (hop != 0))
    graph = csr_matrix((hop[rows, cols], (rows, cols)), shape=d.shape)
    restricted = shortest_path(graph, method="D", directed=True)
    gap = restricted - d
    tol = GEODESIC_RTOL * np.maximum(d, 1.0)
    bad = np.argwhere(gap > tol)
    if bad.size:
        i, j = bad[0]
        return False, (space.points[i], space.points[j])
    return True, None
