import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from coricci import gallery, transport
from coricci.errors import DisconnectedGraph, MetricViolation, RepeatedPoint
from coricci.metric import (
    GEODESIC_RTOL,
    METRIC_ATOL,
    FiniteMetricSpace,
    build_space,
    is_epsilon_geodesic,
    is_hop,
    space_from_edges,
    space_from_matrix,
)
from coricci.transport import Distribution, _mcf_py, w1_cost

# The pure-Python kernel, then the selected one (the C kernel when built).
KERNELS = (_mcf_py, transport._kernel)


def test_path_graph_shortest_path():
    space = space_from_edges([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)])
    assert space.d(0, 2) == 2.0


def test_triangle_violation_rejected(monkeypatch):
    for kernel in KERNELS:
        monkeypatch.setattr(transport, "_kernel", kernel)
        with pytest.raises(MetricViolation):
            build_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]])


def test_triangle_violation_names_first_witness(monkeypatch):
    """The first intermediate point that fails, and the worst pair through
    it, on either kernel."""
    dist = [[0, 1, 5, 7], [1, 0, 1, 2], [5, 1, 0, 1], [7, 2, 1, 0]]
    for kernel in KERNELS:
        monkeypatch.setattr(transport, "_kernel", kernel)
        with pytest.raises(MetricViolation,
                           match=r"fails for \(0, 3\) via 1: d=7.0 > 3.0"):
            build_space(dist)


def test_asymmetry_rejected():
    with pytest.raises(MetricViolation):
        space_from_matrix([0, 1], [[0, 1], [2, 0]])


def test_zero_off_diagonal_rejected():
    with pytest.raises(MetricViolation):
        space_from_matrix([0, 1, 2], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])


def test_nonzero_diagonal_rejected():
    with pytest.raises(MetricViolation):
        space_from_matrix([0, 1], [[0.5, 1], [1, 0]])


def test_disconnected_graph_rejected():
    with pytest.raises(DisconnectedGraph):
        space_from_edges([0, 1, 2, 3], [(0, 1, 1.0), (2, 3, 1.0)])


def test_repeated_point_rejected():
    """A space names each point once: the matrix, edge-list and direct
    constructors all name the first point given twice."""
    points = ["a", "a", "b"]
    dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    for build in (
        lambda: space_from_matrix(points, dist),
        lambda: space_from_edges(points, [("a", "b", 1.0)]),
        lambda: FiniteMetricSpace(tuple(points), dist),
        lambda: build_space(dist, points=points),
    ):
        with pytest.raises(RepeatedPoint, match="point 'a' appears more than once"):
            build()


def test_hamming_cube_from_edges():
    points = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    edges = [
        (p, q, 1.0)
        for p in points
        for q in points
        if sum(x != y for x, y in zip(p, q)) == 1 and p < q
    ]
    space = space_from_edges(points, edges)
    for p in points:
        for q in points:
            assert space.d(p, q) == sum(x != y for x, y in zip(p, q))
    assert space.diameter == 3.0


def test_cube_is_1_geodesic():
    points = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    edges = [
        (p, q, 1.0)
        for p in points
        for q in points
        if sum(x != y for x, y in zip(p, q)) == 1 and p < q
    ]
    space = space_from_edges(points, edges)
    ok, witness = is_epsilon_geodesic(space, 1.0)
    assert ok and witness is None


def test_isolated_pair_not_geodesic():
    space = space_from_matrix(["a", "b"], [[0, 3], [3, 0]])
    ok, witness = is_epsilon_geodesic(space, 1.0)
    assert not ok
    assert set(witness) == {"a", "b"}


def test_random_unit_graph_is_1_geodesic():
    rng = np.random.default_rng(7)
    n = 8
    # random connected unit-weight graph: a spanning path plus extras
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    for _ in range(6):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((int(i), int(j), 1.0))
    space = space_from_edges(range(n), edges)
    ok, _ = is_epsilon_geodesic(space, 1.0)
    assert ok


def test_edge_list_geodesic_at_max_weight():
    edges = [(0, 1, 1.5), (1, 2, 0.5), (2, 3, 2.0), (0, 3, 4.0)]
    space = space_from_edges(range(4), edges)
    ok, _ = is_epsilon_geodesic(space, 2.0)
    assert ok


def _dense_is_epsilon_geodesic(space, eps):
    """The geodesic test on the dense n x n hop matrix, searched by scipy's
    undirected Dijkstra: the reference for the sparse hop graph."""
    d = space.dist
    hop = np.where(is_hop(d, eps), d, np.inf)
    np.fill_diagonal(hop, 0.0)
    restricted = shortest_path(np.where(np.isinf(hop), 0, hop), method="D", directed=False)
    bad = np.argwhere(restricted - d > GEODESIC_RTOL * np.maximum(d, 1.0))
    if bad.size:
        i, j = bad[0]
        return False, (space.points[i], space.points[j])
    return True, None


def _geodesic_case(kind, n, seed, eps):
    """A distance table of n points: for kind "graph", a shortest-path
    metric whose edges are shorter than eps, at eps, up to METRIC_ATOL above
    it, just beyond that or longer, with a third of the entries moved by up
    to 1e-12 each, so some are hops one way only; for "line" and "plane",
    real-valued points, whose sums round."""
    rng = np.random.default_rng(seed)
    if kind == "graph":
        lengths = np.concatenate([eps + np.array([0.0, 0.5, 1.0, 1.5]) * METRIC_ATOL,
                                  [0.5 * eps, 1.7 * eps]])
        weights = np.triu(rng.choice(lengths, size=(n, n)) * (rng.random((n, n)) < 0.5), 1)
        weights[np.arange(n - 1), np.arange(1, n)] = rng.choice(lengths, size=n - 1)
        dist = shortest_path(weights + weights.T, method="D", directed=False)
        dist += np.where(rng.random((n, n)) < 1 / 3, rng.uniform(-1e-12, 1e-12, (n, n)), 0.0)
        np.fill_diagonal(dist, 0.0)
        return dist
    pts = rng.random((n, 1 if kind == "line" else 2)) * eps * rng.choice([1, 3, 10])
    return np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
       eps=st.sampled_from([0.1, 1.0, 2.5]))
def test_geodesic_test_matches_the_dense_hop_matrix(n, seed, eps):
    """The sparse hop graph gives the dense test's answer and witness pair,
    on shortest-path metrics whose edges are shorter than eps, at eps, up to
    METRIC_ATOL above it, just beyond that or longer, with a third of the
    entries moved by up to 1e-12 each, so some are hops one way only."""
    space = FiniteMetricSpace(tuple(range(n)), _geodesic_case("graph", n, seed, eps))
    assert is_epsilon_geodesic(space, eps) == _dense_is_epsilon_geodesic(space, eps)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["graph", "line", "plane"]), n=st.integers(2, 10),
       seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([0.1, 1.0, 2.5]))
def test_geodesic_certificate_implies_the_dijkstra_test(kind, n, seed, eps):
    """Wherever the one-hop certificate holds, the dense Dijkstra test finds
    the space eps-geodesic; both kernels give the same certificate; and
    is_epsilon_geodesic returns the dense test's verdict and witness pair
    either way.  On the line and plane tables, rounding also makes the
    certificate fail where the test holds within GEODESIC_RTOL, so the
    search decides there."""
    dist = _geodesic_case(kind, n, seed, eps)
    certificates = {kernel.geodesic_certificate(dist, eps + METRIC_ATOL) for kernel in KERNELS}
    assert len(certificates) == 1
    space = FiniteMetricSpace(tuple(range(n)), dist)
    dense = _dense_is_epsilon_geodesic(space, eps)
    if certificates.pop():
        assert dense == (True, None)
    assert is_epsilon_geodesic(space, eps) == dense


def test_fallback_decides_where_rounding_defeats_the_certificate(monkeypatch):
    """d(0, 2) = 0.3 while 0.1 + 0.2 rounds to 0.30000000000000004, so the
    certificate fails in both directions; the space is still 0.2-geodesic
    within GEODESIC_RTOL, and the Dijkstra search, which then runs, says
    so.  At 0.15 the point 2 has no hop, and the search names (0, 2)."""
    import scipy.sparse.csgraph

    space = space_from_matrix(range(3), [[0, 0.1, 0.3], [0.1, 0, 0.2], [0.3, 0.2, 0]])
    calls = []
    search = scipy.sparse.csgraph.shortest_path
    monkeypatch.setattr(scipy.sparse.csgraph, "shortest_path",
                        lambda *a, **k: calls.append(1) or search(*a, **k))
    for kernel in KERNELS:
        assert not kernel.geodesic_certificate(space.dist, 0.2 + METRIC_ATOL)
        monkeypatch.setattr(transport, "_kernel", kernel)
        assert is_epsilon_geodesic(space, 0.2) == (True, None)
        assert is_epsilon_geodesic(space, 0.15) == (False, (0, 2))
    assert len(calls) == 4


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
def test_geodesic_test_rejects_eps_that_is_not_positive(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        is_epsilon_geodesic(gallery.cube(2).space, eps)


def test_matrix_roundtrip_bit_exact():
    rng = np.random.default_rng(3)
    pts = rng.random((5, 2))
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    space = build_space(dist)
    again = build_space(
        [[float(repr(float(v))) for v in row] for row in space.dist]
    )
    assert np.array_equal(space.dist, again.dist)


def test_build_space_edge_list_with_labels():
    space = build_space([("a", "b", 1.0), ("b", "c", 2.0)])
    assert space.d("a", "c") == 3.0


def _metric_or_violation(dist):
    try:
        space_from_matrix(range(len(dist)), dist)
    except MetricViolation as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 13),
    seed=st.integers(0, 2**32 - 1),
    graph=st.booleans(),
    bump=st.sampled_from([0.0, 0.5, 0.99, 1.01, 2.0, 1e9]),
)
def test_triangle_check_is_the_same_on_both_kernels(n, seed, graph, bump):
    """The compiled triangle check finds the same first failing point k and
    the same witness pair as the numpy loop of _mcf_py, and space_from_matrix
    raises the same MetricViolation through either, also where one entry is
    raised just above or below METRIC_ATOL past a tight triangle.  Integer
    shortest-path metrics have many tight triangles and tied worst pairs."""
    compiled = pytest.importorskip("coricci.transport._mcf_cy")
    rng = np.random.default_rng(seed)
    if graph:
        weights = np.triu(rng.integers(1, 4, size=(n, n)) * (rng.random((n, n)) < 0.5), 1)
        weights[np.arange(n - 1), np.arange(1, n)] = 1  # a spanning path
        dist = shortest_path(weights + weights.T, method="D", directed=False)
    else:
        pts = rng.random((n, 2))
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    if n > 1:
        i, j = rng.choice(n, size=2, replace=False)
        dist[i, j] = dist[j, i] = dist[i, j] + bump * METRIC_ATOL
    witness = _mcf_py.triangle_violation(dist, METRIC_ATOL)
    assert compiled.triangle_violation(dist, METRIC_ATOL) == witness
    messages = []
    for selected in (_mcf_py, compiled):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transport, "_kernel", selected)
            messages.append(_metric_or_violation(dist))
    assert messages[0] == messages[1]
    assert (witness is None) == (messages[0] is None)


@pytest.mark.parametrize("n", range(3, 10))
def test_triangle_check_tests_every_cell(n):
    """On n points at distance 1 from each other, with d(i, j) = d(j, i) =
    2.5 for one pair, the triangle inequality fails at (i, j) and (j, i)
    alone; both kernels name it, for every pair of a table of odd or even
    size, so the compiled kernel's scan of one half of a symmetric table
    leaves no cell out."""
    for i, j in itertools.combinations(range(n), 2):
        dist = np.ones((n, n)) - np.eye(n)
        dist[i, j] = dist[j, i] = 2.5
        for kernel in KERNELS:
            k = min(set(range(n)) - {i, j})
            assert kernel.triangle_violation(dist, METRIC_ATOL) == (k, i, j)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 13),
    seed=st.integers(0, 2**32 - 1),
    graph=st.booleans(),
    bump=st.sampled_from([0.0, 0.5, 0.99, 1.01, 2.0, 1e9]),
)
def test_triangle_check_is_the_same_on_asymmetric_tables(n, seed, graph, bump):
    """As test_triangle_check_is_the_same_on_both_kernels, on tables that
    are asymmetric within METRIC_ATOL, as space_from_matrix accepts them: a
    third of the entries moved by up to METRIC_ATOL / 2, and one entry
    raised on one side of the diagonal only.  The compiled kernel scans one
    half of a symmetric table only, so these take its full scan."""
    compiled = pytest.importorskip("coricci.transport._mcf_cy")
    rng = np.random.default_rng(seed)
    if graph:
        weights = np.triu(rng.integers(1, 4, size=(n, n)) * (rng.random((n, n)) < 0.5), 1)
        weights[np.arange(n - 1), np.arange(1, n)] = 1
        dist = shortest_path(weights + weights.T, method="D", directed=False)
    else:
        pts = rng.random((n, 2))
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    dist += np.where(rng.random((n, n)) < 1 / 3,
                     rng.uniform(0, METRIC_ATOL / 2, (n, n)), 0.0)
    np.fill_diagonal(dist, 0.0)
    if n > 1:
        i, j = rng.choice(n, size=2, replace=False)
        dist[i, j] += bump * METRIC_ATOL
    witness = _mcf_py.triangle_violation(dist, METRIC_ATOL)
    assert compiled.triangle_violation(dist, METRIC_ATOL) == witness
    assert compiled.triangle_violation(dist.T.copy(), METRIC_ATOL) == \
        _mcf_py.triangle_violation(dist.T, METRIC_ATOL)


def _skeleton_pairs(indptr, indices):
    """The skeleton's edges as arrays of their first and second points."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), indices


@pytest.mark.parametrize("N", [1, 2, 5, 7])
def test_skeleton_of_the_cube_is_its_hamming_graph(N):
    """On cube N the skeleton is exactly the N 2^(N-1) pairs at Hamming
    distance 1, listed in row-major order, on either kernel."""
    dist = gallery.cube(N).space.dist
    for kernel in KERNELS:
        tail, head = _skeleton_pairs(*kernel.skeleton(dist))
        I, J = np.nonzero(np.triu(dist == 1.0, 1))
        assert len(head) == N * 2 ** (N - 1)
        assert np.array_equal(tail, I) and np.array_equal(head, J)


def test_skeleton_of_a_line_is_a_path():
    """A line metric has the n - 1 pairs of neighbours; one point has no
    edge, and no point none."""
    dist = gallery.binomial(20, 0.5).space.dist
    for kernel in KERNELS:
        tail, head = _skeleton_pairs(*kernel.skeleton(dist))
        assert np.array_equal(tail, np.arange(20)) and np.array_equal(head, np.arange(1, 21))
        for n in (0, 1):
            indptr, indices = kernel.skeleton(np.zeros((n, n)))
            assert np.array_equal(indptr, np.zeros(n + 1)) and indices.size == 0


def test_skeleton_reproduces_the_metric_of_every_preset():
    """On a chain of every gallery preset, the shortest-path metric of the
    skeleton is the space's distance table, bit for bit, and both kernels
    give the same skeleton.  The space computes it once and keeps it
    read-only."""
    from scipy.sparse import csr_matrix

    chains = [
        gallery.cube(4), gallery.discrete_ou(4), gallery.multinomial(4, 2),
        gallery.binomial(10, 0.3), gallery.glauber("cycle:5", 0.2),
        gallery.geometric_reflect(K=30), gallery.geometric_reset(0.5, K=30),
        gallery.mm_infty(2.0, 1.0, 1e-3, K=20), gallery.linear_rates(1.0, 1.5, 1e-3, K=40),
        gallery.quadratic_rates(1.0, 1.0, 1e-6, K=150, tail_tol=1e-4),
        gallery.pow2_jump(j=6),
    ]
    assert len(chains) == len(gallery.PRESETS)
    for chain in chains:
        space = chain.space
        indptr, indices = space.skeleton
        assert space.skeleton is space.skeleton
        assert not indptr.flags.writeable and not indices.flags.writeable
        for kernel in KERNELS:
            assert all(map(np.array_equal, kernel.skeleton(space.dist), space.skeleton))
        tail, head = _skeleton_pairs(indptr, indices)
        graph = csr_matrix((space.dist[tail, head], (tail, head)), shape=space.dist.shape)
        assert np.array_equal(shortest_path(graph, directed=False), space.dist)


def test_skeleton_stays_connected_where_a_sum_rounds(monkeypatch):
    """d(0, 2) + d(2, 1) rounds to d(0, 1) = 1 because d(2, 1) = 1e-17, yet
    2 is not between 0 and 1 (d(0, 2) is not shorter), nor 1 between 0
    and 2: every pair is an edge, and W1 runs on them."""
    space = space_from_matrix(range(3), [[0, 1, 1], [1, 0, 1e-17], [1, 1e-17, 0]])
    for kernel in KERNELS:
        monkeypatch.setattr(transport, "_kernel", kernel)
        tail, head = _skeleton_pairs(*kernel.skeleton(space.dist))
        assert list(zip(tail, head)) == [(0, 1), (0, 2), (1, 2)]
        assert w1_cost(Distribution.dirac(space, 0), Distribution.dirac(space, 1), space) == 1.0


def test_space_leaves_the_callers_array_writeable():
    """A space keeps a read-only copy of a writeable table, and a read-only
    table itself."""
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    space = FiniteMetricSpace((0, 1), a)
    a[0, 1] = 2.0
    assert space.dist[0, 1] == 1.0 and not space.dist.flags.writeable
    assert FiniteMetricSpace((0, 1), space.dist).dist is space.dist
