import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formloc.network import (
    DesiredDistances,
    Graph,
    distance_errors,
    edge_offsets,
    rigidity_matrix,
    sorted_neighbors,
)
from oracles import incidence_matrix, neighbors, relative_position_stack


@st.composite
def graphs(draw):
    agents = draw(st.integers(min_value=2, max_value=6))
    pairs = [(t, h) for t in range(agents) for h in range(agents) if t < h]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = tuple((h, t) if f else (t, h) for (t, h), f in zip(chosen, flips))
    return Graph(agents, edges)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))  # same edge, opposite orientation
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (0, 1)))


def test_from_one_based(triangle):
    assert triangle.agent_count == 3
    assert triangle.edges == ((0, 1), (1, 2), (0, 2))
    assert triangle.edge_count == 3


def test_neighbors(triangle):
    assert neighbors(triangle, 0) == frozenset({1, 2})
    assert sorted_neighbors(triangle, 2) == (0, 1)
    path = Graph(3, ((0, 1), (1, 2)))
    assert neighbors(path, 1) == frozenset({0, 2})
    assert neighbors(path, 0) == frozenset({1})
    with pytest.raises(ValueError):
        sorted_neighbors(path, 3)
    with pytest.raises(ValueError):
        sorted_neighbors(path, -1)


@settings(max_examples=100)
@given(graphs())
def test_incidence_columns(graph):
    b = incidence_matrix(graph)
    assert b.shape == (graph.agent_count, graph.edge_count)
    np.testing.assert_array_equal(b.sum(axis=0), np.zeros(graph.edge_count))
    for k, (t, h) in enumerate(graph.edges):
        assert b[t, k] == 1.0 and b[h, k] == -1.0
        assert np.abs(b[:, k]).sum() == 2.0
    # the graph's own arrays agree with the edges, are read-only, and leave
    # the fields alone: equality, hash and repr are those of a fresh graph
    fresh = Graph(graph.agent_count, graph.edges)
    at, ah = graph.scatter
    np.testing.assert_array_equal(at - ah, b)
    assert list(zip(*graph.ends)) == list(graph.edges)
    assert [sorted_neighbors(graph, i) for i in range(graph.agent_count)] == [
        tuple(sorted(neighbors(graph, i))) for i in range(graph.agent_count)]
    for array in graph.ends + graph.scatter:
        assert not array.flags.writeable
    assert graph == fresh and hash(graph) == hash(fresh) and repr(graph) == repr(fresh)
    with pytest.raises(AttributeError):
        graph.ends = graph.ends


def test_edge_offsets_fixed(triangle):
    r = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    z1 = edge_offsets(triangle, r)
    np.testing.assert_array_equal(z1, [[-4.0, 0.0], [4.0, -3.0], [0.0, -3.0]])
    stack = relative_position_stack(triangle, r)
    np.testing.assert_array_equal(stack[:6], z1.ravel())
    np.testing.assert_array_equal(stack[6:], -z1.ravel())


def test_edge_offsets_rejects_bad_size(triangle):
    with pytest.raises(ValueError):
        edge_offsets(triangle, np.zeros(5))


def test_distance_errors_fixed(triangle):
    r = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    z1 = edge_offsets(triangle, r)
    d = DesiredDistances(np.array([4.0, 5.0, 2.0]))
    np.testing.assert_allclose(distance_errors(z1, d), [0.0, 0.0, 5.0])
    # plain arrays accepted too
    np.testing.assert_allclose(distance_errors(z1, [4.0, 5.0, 2.0]), [0.0, 0.0, 5.0])
    with pytest.raises(ValueError):
        distance_errors(z1, [4.0, 5.0])


def test_desired_distances_validation():
    with pytest.raises(ValueError):
        DesiredDistances(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        DesiredDistances(np.array([]))
    with pytest.raises(ValueError):
        DesiredDistances(np.array([np.nan]))
    d = DesiredDistances.uniform(3, 7.5)
    np.testing.assert_array_equal(d.values, [7.5, 7.5, 7.5])


def test_rigidity_matrix_recovers_squared_lengths(triangle, rng):
    r = rng.uniform(-5, 5, size=(3, 2))
    z1 = edge_offsets(triangle, r)
    m = rigidity_matrix(z1, triangle)
    np.testing.assert_allclose(m @ r.ravel(), (z1 ** 2).sum(axis=1), atol=1e-12)


def test_rigidity_matrix_is_half_squared_distance_jacobian(triangle, rng):
    # row k of the matrix at z(r) is the gradient of |z_k|^2 / 2 wrt r
    r = rng.uniform(-5, 5, size=6)
    h = 1e-6

    def half_sq(rv):
        z = edge_offsets(triangle, rv)
        return 0.5 * (z ** 2).sum(axis=1)

    jac = np.zeros((3, 6))
    for c in range(6):
        e = np.zeros(6)
        e[c] = h
        jac[:, c] = (half_sq(r + e) - half_sq(r - e)) / (2 * h)
    m = rigidity_matrix(edge_offsets(triangle, r), triangle)
    np.testing.assert_allclose(m, jac, atol=1e-7)


def test_rigidity_kernel_contains_rigid_motions(triangle, rng):
    r = rng.uniform(-5, 5, size=(3, 2))
    m = rigidity_matrix(edge_offsets(triangle, r), triangle)
    tx = np.tile([1.0, 0.0], 3)
    ty = np.tile([0.0, 1.0], 3)
    rot = np.column_stack([-r[:, 1], r[:, 0]]).ravel()
    for v in (tx, ty, rot):
        np.testing.assert_allclose(m @ v, np.zeros(3), atol=1e-12)


def test_rigidity_matrix_rejects_wrong_edge_count(triangle):
    with pytest.raises(ValueError):
        rigidity_matrix(np.zeros((2, 2)), triangle)
