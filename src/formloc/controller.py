"""Distance-based formation control laws.

All three laws steer squared-distance errors e_k = |r_tail - r_head|^2 - d_k^2
to zero with one formula,

    u = Ah (E_h * (e + a)) - At (E_t * (e - a)),

where At and Ah scatter per-edge terms to the tail and head agents, and
E_t, E_h are the directions the tail and the head of each edge steer along.
The laws differ only in where those directions come from and in the bias a:

- `ideal_control`: E_t = E_h = z, the true offsets r_tail - r_head, and
  a = 0.  This is the gradient flow of the quartic shape potential.
- `estimated_control`: E_t is the tail's estimate of r_tail - r_head and
  E_h is minus the head's estimate of r_head - r_tail, with a = 0.  The two
  endpoints need not agree, so the interaction is no longer symmetric and
  the flow can stall or translate instead of converging.
- `mismatch_control` (Algorithm 1): E_t = E_h, the tail's estimate shared
  by both ends, and a bias a_k that forces a steady rotation, which keeps
  the estimator excited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Graph, distance_errors, edge_offsets

__all__ = [
    "MismatchConfig",
    "estimated_control",
    "formation_potential",
    "ideal_control",
    "mismatch_control",
]


@dataclass(frozen=True)
class MismatchConfig:
    """Per-edge error biases a_k added with opposite signs at the two ends."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(-1)
        if not np.all(np.isfinite(values)):
            raise ValueError("mismatches must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def uniform(cls, edge_count: int, a: float) -> "MismatchConfig":
        return cls(np.full(edge_count, float(a)))


def _control_law(at, ah, tail_dirs, head_dirs, e, a) -> np.ndarray:
    """u = Ah (E_h * (e + a)) - At (E_t * (e - a)), stacked per agent: the
    one formula behind every law, without validation.  `at`, `ah` are the
    graph's `Graph.scatter`.  The directions hold one (x, y) row per edge, and
    `e` and `a` broadcast against them (a column per edge; `a` may be a
    scalar).  Flattened, each edge may hold B such pairs with their `e` and
    `a` per entry, for B configurations evaluated side by side; each agent's
    velocity then comes out as B pairs."""
    edges = ah.shape[1]
    # .dot: the same gemm as @, at less dispatch cost on these small 2-D operands
    return (ah.dot((head_dirs * (e + a)).reshape(edges, -1))
            - at.dot((tail_dirs * (e - a)).reshape(edges, -1))).ravel()


def formation_potential(graph: Graph, r, d) -> float:
    """Shape potential V = (1/4) sum_k e_k^2."""
    e = distance_errors(edge_offsets(graph, r), d)
    return 0.25 * float(e @ e)


def ideal_control(graph: Graph, r, d) -> np.ndarray:
    """Gradient descent on the shape potential with true relative positions.

    Per edge the tail moves along -(r_tail - r_head) e_k and the head along
    the opposite, so the stacked velocity is minus the transposed rigidity
    matrix times e and the centroid never moves.
    """
    z1 = edge_offsets(graph, r)
    e = distance_errors(z1, d)
    return _control_law(*graph.scatter, z1, z1, e[:, None], 0.0)


def estimated_control(graph: Graph, estimates, e) -> np.ndarray:
    """Per-agent law: agent i moves along -sum_j est(i, j) e_ij, so the head
    of an edge steers along minus its own estimate.

    `estimates` maps each directed pair (i, j) with {i, j} an edge to agent
    i's estimate of r_i - r_j.  Errors are symmetric (e_ij = e_ji, one value
    per edge) but the two endpoints' direction estimates need not agree,
    which is exactly what breaks the gradient structure.
    """
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.size != graph.edge_count:
        raise ValueError(f"expected {graph.edge_count} errors, got {e.size}")
    try:
        est_tail = np.array([estimates[(t, h)] for t, h in graph.edges], dtype=float)
        est_head = np.array([estimates[(h, t)] for t, h in graph.edges], dtype=float)
    except KeyError as exc:
        raise ValueError(f"missing estimate for directed pair {exc}") from exc
    if est_tail.shape != (graph.edge_count, 2) or est_head.shape != (graph.edge_count, 2):
        raise ValueError("estimates must be planar vectors")
    return _control_law(*graph.scatter, est_tail, -est_head, e[:, None], 0.0)


def mismatch_control(graph: Graph, shared_estimates, e, a: MismatchConfig) -> np.ndarray:
    """Shared-estimate law with deliberate error biases.

    shared_estimates[k] is the tail's estimate of r_tail - r_head for edge
    k, which both endpoints steer along.  The tail applies -est_k (e_k - a_k)
    and the head +est_k (e_k + a_k); with a = 0 and exact estimates this
    reduces to `ideal_control`, and with a != 0 the biased equilibrium is a
    slightly distorted shape in steady rotation.
    """
    m = graph.edge_count
    est = np.asarray(shared_estimates, dtype=float).reshape(-1, 2)
    e = np.asarray(e, dtype=float).reshape(-1)
    av = a.values
    if est.shape[0] != m or e.size != m or av.size != m:
        raise ValueError(f"expected {m} estimates, errors and mismatches, "
                         f"got {est.shape[0]}, {e.size}, {av.size}")
    return _control_law(*graph.scatter, est, est, e[:, None], av[:, None])
