"""Observability analysis for the squared-distance plus heading outputs.

An agent measures half squared distances to its n neighbors and its own
heading.  `codistribution_rank` checks instantaneous local observability by
stacking the differentials of those outputs together with their derivatives
along the left-invariant frame; the span has dimension 2n+1 at every state,
which is the full state dimension.

That rank test says nothing about a particular motion, so
`empirical_gramian` accumulates, along a discrete trajectory, how output
perturbations propagate back to the initial state through the linearized
kinematics.  A neighbor k whose relative position p_k = (x_k, y_k) never
moves leaves the direction tangent to its distance circle unexcited: its
2x2 diagonal block of the Gramian loses exactly one direction, the tangent
(-y_k, x_k), and the neighbor is flagged.  Its range (x_k, y_k) stays
observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie_group import GroupElement, step_jacobian

__all__ = [
    "CodistributionReport",
    "GramianReport",
    "codistribution_matrix",
    "codistribution_rank",
    "empirical_gramian",
    "observation",
    "observation_jacobian",
]


def observation(q: GroupElement) -> np.ndarray:
    """Outputs (h_1, ..., h_n, theta) with h_k = |p_k|^2 / 2."""
    h = 0.5 * (q.offsets() ** 2).sum(axis=1)
    return np.append(h, q.theta)


def observation_jacobian(q: GroupElement) -> np.ndarray:
    """(n+1) x (2n+1) Jacobian of `observation` at q."""
    n = q.n
    jac = np.zeros((n + 1, 2 * n + 1))
    for k in range(n):
        jac[k, 2 * k : 2 * k + 2] = q.offset(k)
    jac[n, 2 * n] = 1.0
    return jac


# Derivatives along the left-invariant frame keep the outputs inside the
# finite function family [1, theta, h_1..h_n, u_1..u_n, s_1..s_n], where
# u_k = x_k cos(theta) + y_k sin(theta) and s_k = -x_k sin(theta) + y_k cos(theta)
# are the derivatives of h_k along neighbor k's two translational fields.
# A function is a coefficient vector over that basis, so iterated Lie
# derivatives reduce to sparse linear maps and stay exact at any depth.


def _derivative_ops(n: int) -> list:
    dim = 2 + 3 * n
    ops = []
    for j in range(n):  # heading-aligned translational fields, then quarter-turns
        d = np.zeros((dim, dim))
        d[2 + n + j, 2 + j] = 1.0  # h_j -> u_j
        d[0, 2 + n + j] = 1.0      # u_j -> 1
        ops.append(d)
    for j in range(n):
        d = np.zeros((dim, dim))
        d[2 + 2 * n + j, 2 + j] = 1.0  # h_j -> s_j
        d[0, 2 + 2 * n + j] = 1.0      # s_j -> 1
        ops.append(d)
    d = np.zeros((dim, dim))  # heading field
    d[0, 1] = 1.0
    for k in range(n):
        d[2 + 2 * n + k, 2 + n + k] = 1.0   # u_k -> s_k
        d[2 + n + k, 2 + 2 * n + k] = -1.0  # s_k -> -u_k
    ops.append(d)
    return ops


def _differential(coeffs: np.ndarray, q: GroupElement) -> np.ndarray:
    n = q.n
    c, s = np.cos(q.theta), np.sin(q.theta)
    row = np.zeros(2 * n + 1)
    row[2 * n] = coeffs[1]
    for k in range(n):
        x, y = q.offset(k)
        ch = coeffs[2 + k]
        cu = coeffs[2 + n + k]
        cs = coeffs[2 + 2 * n + k]
        row[2 * k] += ch * x + cu * c - cs * s
        row[2 * k + 1] += ch * y + cu * s + cs * c
        row[2 * n] += cu * (-x * s + y * c) + cs * (-x * c - y * s)
    return row


def codistribution_matrix(q: GroupElement, depth: int = 1) -> np.ndarray:
    """Stack the output differentials and their Lie derivatives up to `depth`.

    Depth 1 yields the (3n+1) x (2n+1) matrix of the instantaneous rank
    test: rows d(h_k), d(theta), then the derivatives of each h_k along its
    own two translational fields (derivatives along other agents' fields
    and along the heading field vanish identically and are omitted).
    Higher depths append further iterated derivatives; constants and exact
    repeats are dropped.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    n = q.n
    dim = 2 + 3 * n
    ops = _derivative_ops(n)

    funcs = []
    for k in range(n):  # generation 0: the outputs themselves
        c = np.zeros(dim)
        c[2 + k] = 1.0
        funcs.append(c)
    c = np.zeros(dim)
    c[1] = 1.0
    funcs.append(c)

    seen = {f.tobytes() for f in funcs}
    frontier = list(funcs)
    for _ in range(depth):
        nxt = []
        for op in ops:
            for f in frontier:
                g = op @ f
                # constants (and zero) have identically zero differentials
                # and no further derivatives
                if not g[1:].any():
                    continue
                key = g.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                nxt.append(g)
        funcs.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return np.array([_differential(f, q) for f in funcs])


@dataclass(eq=False)
class CodistributionReport:
    """Result of the instantaneous rank test at one state."""

    rank: int
    singular_values: np.ndarray
    observable: bool


def codistribution_rank(q: GroupElement, tol: float = 1e-9, depth: int = 1) -> CodistributionReport:
    """Rank of the codistribution at q, with `tol` relative to the largest
    singular value.  Observable means rank equals the state dimension 2n+1."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    mat = codistribution_matrix(q, depth)
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = 0 if sv[0] == 0.0 else int(np.sum(sv > tol * sv[0]))
    return CodistributionReport(rank=rank, singular_values=sv, observable=rank == 2 * q.n + 1)


@dataclass(eq=False)
class GramianReport:
    """Empirical observability Gramian over a trajectory."""

    gramian: np.ndarray
    rank: int
    deficient_neighbor_blocks: tuple[int, ...]


def empirical_gramian(trajectory, dt: float, rank_tol: float = 1e-8,
                      block_tol: float = 1e-8) -> GramianReport:
    """Accumulate G = sum_t Phi^T H^T H Phi dt over (state, velocity) samples.

    Phi is the state-transition Jacobian of the linearized kinematics from
    the first sample (the same linearization `estimator.predict_batch`
    uses) and H the output Jacobian at each sample.  A neighbor k is
    reported deficient when the smallest eigenvalue of the (x_k, y_k)
    diagonal block falls below block_tol * trace(G) / (2n+1).

    Phi leaves every offset column untouched, so a stationary neighbor's
    columns of H Phi hold the constant p_k in output row k only.  Its block
    is then the rank-1 term samples * dt * p_k p_k^T: exactly one direction,
    the range-circle tangent (-y_k, x_k), is lost, and the range stays
    observable.
    """
    samples = list(trajectory)
    if len(samples) < 2:
        raise ValueError(f"need at least two trajectory samples, got {len(samples)}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = samples[0][0].n
    dim = 2 * n + 1
    phi = np.eye(dim)
    gram = np.zeros((dim, dim))
    for q, xi in samples:
        if q.n != n or xi.n != n:
            raise ValueError("inconsistent neighbor counts along the trajectory")
        hphi = observation_jacobian(q) @ phi
        gram += hphi.T @ hphi * dt
        phi = step_jacobian(q.theta, xi, dt) @ phi
    gram = 0.5 * (gram + gram.T)

    eig = np.linalg.eigvalsh(gram)
    top = eig[-1]
    rank = 0 if top <= 0.0 else int(np.sum(eig > rank_tol * top))

    floor = block_tol * np.trace(gram) / dim
    deficient = []
    for k in range(n):
        block = gram[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
        if np.linalg.eigvalsh(block)[0] < floor:
            deficient.append(k)
    return GramianReport(gramian=gram, rank=rank, deficient_neighbor_blocks=tuple(deficient))
