import numpy as np
import pytest

from coricci.errors import DisconnectedGraph, MetricViolation
from coricci.metric import (
    build_space,
    is_epsilon_geodesic,
    space_from_edges,
    space_from_matrix,
)


def test_path_graph_shortest_path():
    space = space_from_edges([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)])
    assert space.d(0, 2) == 2.0


def test_triangle_violation_rejected():
    with pytest.raises(MetricViolation):
        build_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]])


def test_triangle_violation_names_first_witness():
    """The first intermediate point that fails, and the worst pair through it."""
    dist = [[0, 1, 5, 7], [1, 0, 1, 2], [5, 1, 0, 1], [7, 2, 1, 0]]
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
