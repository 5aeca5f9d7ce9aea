"""Test-only oracles: matrix forms of the group and graph quantities that
the library computes in closed form, and that tests compare it against."""

import numpy as np

from formloc.lie_group import AlgebraElement, GroupElement, rotation
from formloc.network import Graph, edge_offsets


def left_invariant_basis(q: GroupElement) -> np.ndarray:
    """Coordinate expressions of the left-invariant frame at q, as columns.

    Columns 2k, 2k+1 are the two translational fields of neighbor k
    (heading-aligned and its quarter-turn); the last column is d/dtheta.
    The result is block-diag(R(theta), ..., R(theta), 1), so it maps body
    velocities (v, w) to coordinate velocities (dp/dt, dtheta/dt).
    """
    n = q.n
    basis = np.zeros((2 * n + 1, 2 * n + 1))
    basis[: 2 * n, : 2 * n] = np.kron(np.eye(n), rotation(q.theta))
    basis[2 * n, 2 * n] = 1.0
    return basis


def embed(q: GroupElement) -> np.ndarray:
    """Homogeneous-matrix embedding: n diagonal copies of R(theta), p in the
    last column, 1 in the corner.  Group products become matrix products."""
    n = q.n
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[: 2 * n, : 2 * n] = np.kron(np.eye(n), rotation(q.theta))
    m[: 2 * n, 2 * n] = q.p
    m[2 * n, 2 * n] = 1.0
    return m


def embed_algebra(xi: AlgebraElement) -> np.ndarray:
    """Matrix form of a body velocity; its matrix exponential embeds exp(xi)."""
    n = xi.n
    j = np.array([[0.0, -xi.w], [xi.w, 0.0]])
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[: 2 * n, : 2 * n] = np.kron(np.eye(n), j)
    m[: 2 * n, 2 * n] = xi.v
    return m


def incidence_matrix(graph: Graph) -> np.ndarray:
    """Agents-by-edges incidence matrix: +1 at the tail, -1 at the head."""
    b = np.zeros((graph.agent_count, graph.edge_count))
    for k, (t, h) in enumerate(graph.edges):
        b[t, k] = 1.0
        b[h, k] = -1.0
    return b


def relative_position_stack(graph: Graph, r: np.ndarray) -> np.ndarray:
    """Stacked relative positions: first half r_tail - r_head per edge, second
    half its negation (both edge orientations)."""
    z1 = edge_offsets(graph, r).ravel()
    return np.concatenate([z1, -z1])
