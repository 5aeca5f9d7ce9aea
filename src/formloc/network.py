"""Sensing topology and rigidity quantities for a team of planar agents.

Agent indices are 0-based throughout the library; configuration files use
1-based labels and the CLI converts at the boundary (`Graph.from_one_based`).
Edges are ordered (tail, head) pairs; the tail conventionally owns the edge
when a single shared estimate per edge is wanted.  A `Graph` computes the
index arrays the engine reads from its edges (`ends`, `scatter`,
`adjacency`) once per instance and keeps them with it, so they live and die
with the graph; `adjacency`, every agent's sorted neighbors, is the one
neighbor table, built in one pass over the edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "AgentError",
    "DesiredDistances",
    "Graph",
    "distance_errors",
    "edge_offsets",
    "rigidity_matrix",
    "sorted_neighbors",
]


class AgentError(ValueError):
    """A ValueError that names agents.  `agents` holds their 0-based
    indices in the order the message names them, so a front end that labels
    agents from 1 can restate it (`one_based`)."""

    def __init__(self, template: str, *agents: int):
        super().__init__(template.format(*agents))
        self.template, self.agents = template, agents

    def one_based(self) -> str:
        return self.template.format(*(i + 1 for i in self.agents))


@dataclass(frozen=True)
class Graph:
    """Undirected sensing graph with an orientation per edge.

    edges holds 0-based (tail, head) pairs; at most one edge joins any two
    agents regardless of orientation.
    """

    agent_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.agent_count < 1:
            raise ValueError(f"agent_count must be positive, got {self.agent_count}")
        edges = tuple((int(t), int(h)) for t, h in self.edges)
        seen = set()
        for t, h in edges:
            if not (0 <= t < self.agent_count and 0 <= h < self.agent_count):
                raise ValueError(f"edge ({t}, {h}) references an agent outside 0..{self.agent_count - 1}")
            if t == h:
                raise AgentError("self-loop at agent {}", t)
            key = (min(t, h), max(t, h))
            if key in seen:
                raise AgentError("duplicate edge between agents {} and {}", t, h)
            seen.add(key)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_one_based(cls, agent_count: int, edges) -> "Graph":
        """Build from 1-based agent labels as used in configuration files."""
        return cls(agent_count, tuple((t - 1, h - 1) for t, h in edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    # Derived from `edges` on first read and kept on the instance, outside
    # the dataclass fields, so ==, hash and repr see only the fields; a
    # frozen dataclass refuses to assign or delete them.

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (edges,) arrays of each edge's tail and head."""
        tails, heads = np.array(self.edges, dtype=int).reshape(-1, 2).T.copy()
        tails.setflags(write=False)
        heads.setflags(write=False)
        return tails, heads

    @cached_property
    def scatter(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (agents, edges) indicators of the tails and the heads;
        their difference is the incidence matrix."""
        at = np.zeros((self.agent_count, self.edge_count))
        ah = np.zeros((self.agent_count, self.edge_count))
        edges = np.arange(self.edge_count)
        tails, heads = self.ends
        at[tails, edges] = 1.0
        ah[heads, edges] = 1.0
        at.setflags(write=False)
        ah.setflags(write=False)
        return at, ah

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The agents sharing an edge with each agent, in ascending order,
        in agent order."""
        nbrs = [[] for _ in range(self.agent_count)]
        for t, h in self.edges:
            nbrs[t].append(h)
            nbrs[h].append(t)
        return tuple(tuple(sorted(js)) for js in nbrs)


@dataclass(frozen=True)
class DesiredDistances:
    """Target inter-agent distances, one positive value per edge."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(-1)
        if values.size == 0 or np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ValueError("desired distances must be finite and positive")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def uniform(cls, edge_count: int, d: float) -> "DesiredDistances":
        return cls(np.full(edge_count, float(d)))


def sorted_neighbors(graph: Graph, i: int) -> tuple:
    """Neighbors of i in ascending order; fixes estimator block layout."""
    if not (0 <= i < graph.agent_count):
        raise ValueError(f"agent {i} outside 0..{graph.agent_count - 1}")
    return graph.adjacency[i]


def _positions_2d(graph: Graph, r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.size != 2 * graph.agent_count:
        raise ValueError(f"expected {2 * graph.agent_count} position coordinates, got {r.size}")
    return r.reshape(-1, 2)


def edge_offsets(graph: Graph, r: np.ndarray) -> np.ndarray:
    """Per-edge relative positions r_tail - r_head as an (m, 2) array."""
    r2 = _positions_2d(graph, r)
    tails, heads = graph.ends
    return r2[tails] - r2[heads]


def distance_errors(z1, d) -> np.ndarray:
    """Squared-distance errors e_k = |z1_k|^2 - d_k^2 per edge."""
    z1 = np.asarray(z1, dtype=float).reshape(-1, 2)
    dv = np.asarray(getattr(d, "values", d), dtype=float).reshape(-1)
    if z1.shape[0] != dv.size:
        raise ValueError(f"got {z1.shape[0]} edge offsets but {dv.size} distances")
    return (z1 ** 2).sum(axis=1) - dv ** 2


def rigidity_matrix(z1, graph: Graph) -> np.ndarray:
    """Edges-by-coordinates matrix with z1_k^T at the tail block and -z1_k^T
    at the head block of row k, so that (matrix @ r) recovers |z1_k|^2."""
    z1 = np.asarray(z1, dtype=float).reshape(-1, 2)
    if z1.shape[0] != graph.edge_count:
        raise ValueError(f"got {z1.shape[0]} edge offsets for {graph.edge_count} edges")
    out = np.zeros((graph.edge_count, 2 * graph.agent_count))
    for k, (t, h) in enumerate(graph.edges):
        out[k, 2 * t : 2 * t + 2] = z1[k]
        out[k, 2 * h : 2 * h + 2] = -z1[k]
    return out
