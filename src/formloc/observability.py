"""Observability analysis for the squared-distance plus heading outputs.

An agent measures half squared distances h_k = |p_k|^2 / 2 to its n
neighbors and its own heading.  `codistribution_rank` is the instantaneous
rank test: it stacks the differentials of the outputs and of their Lie
derivatives along the left-invariant frame, a closed family whose rows
`codistribution_matrix` writes down directly.  Their span has dimension
2n+1, the full state dimension, at every state.

That rank test says nothing about a particular motion, so
`empirical_gramian` accumulates, along a discrete trajectory, how output
perturbations propagate back to the initial state through the linearized
kinematics.  The product of the step Jacobians has a closed form, so the
Gramian is a set of per-neighbor sums over the samples; their last columns
come from the group layer (`lie_group._step_jacobian_columns`), and this
module reads nothing of the filters.  A neighbor k whose relative position
p_k = (x_k, y_k) never moves leaves the direction tangent to its distance
circle unexcited: its 2x2 diagonal block of the Gramian loses exactly one
direction, the tangent (-y_k, x_k), and the neighbor is flagged.  Its
range (x_k, y_k) stays observable.

A trajectory is a (T, 4n+2) array with one row per sample: the heading
theta, the 2n offsets p, the heading rate w and the 2n body-frame neighbor
rates v.  These are a trajectory CSV's columns without `t`.  The Gramian
reads theta, p and v but never w: the step Jacobian's last column depends
on theta and v alone, so w only fills its column of the layout.  The
Gramian is accumulated over blocks of such rows, so a trajectory may also
come as an iterator of blocks that are parsed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie_group import GroupElement, _quarter_rotations, _step_jacobian_columns

__all__ = [
    "BLOCK_ROWS",
    "CodistributionReport",
    "GramianReport",
    "codistribution_matrix",
    "codistribution_rank",
    "empirical_gramian",
    "observation",
    "observation_jacobian",
]

# Rows per block in which `empirical_gramian` folds a trajectory into its sums
# and `check-observability --trajectory` parses its CSV: peak memory scales
# with this, not with the trajectory's length.  On 24000-sample CSVs (2-core
# x86-64, numpy 2.4) the command's peak RSS read 32.1 / 32.2 / 34.5 / 38.2 MiB
# at 1024 / 2048 / 4096 / 8192 rows with 5 neighbors, and its best in-process
# time 33.5 / 32.6 / 32.4 ms at 1024 / 2048 / 4096 rows with 1 neighbor,
# against 32.2 ms for the file as one block.
BLOCK_ROWS = 2048
# A neighbor's (x_k, y_k) Gramian block is deficient when its smallest
# eigenvalue falls below this fraction of trace(G) / (2n+1).
BLOCK_TOL = 1e-8


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


def codistribution_matrix(q: GroupElement) -> np.ndarray:
    """Stack the output differentials and their first Lie derivatives.

    Along neighbor k's two translational fields h_k has the derivatives
    u_k = x_k cos(theta) + y_k sin(theta) and s_k = -x_k sin(theta) + y_k cos(theta),
    and the heading field maps u_k -> s_k -> -u_k -> -s_k -> u_k; every
    other derivative is a constant or zero.  So the family is closed, and
    the rows are d(h_k), d(theta), d(u_k), d(s_k): 3n+1 rows of 2n+1.  No
    further derivative adds a direction: each is minus one of these rows.
    """
    n = q.n
    c, s = np.cos(q.theta), np.sin(q.theta)
    x, y = q.offsets().T
    k = np.arange(n)
    ru, rs = n + 1 + k, 2 * n + 1 + k  # the rows of d(u_k) and d(s_k)
    mat = np.zeros((3 * n + 1, 2 * n + 1))
    mat[k, 2 * k], mat[k, 2 * k + 1] = x, y
    mat[n, 2 * n] = 1.0
    mat[ru, 2 * k], mat[ru, 2 * k + 1], mat[ru, 2 * n] = c, s, y * c - x * s
    mat[rs, 2 * k], mat[rs, 2 * k + 1], mat[rs, 2 * n] = -s, c, -(x * c + y * s)
    # + 0.0 turns every -0.0 into 0.0: the SVD's last bits see the sign of a zero
    return mat + 0.0


@dataclass(eq=False)
class CodistributionReport:
    """Result of the instantaneous rank test at one state."""

    rank: int
    singular_values: np.ndarray
    observable: bool


def codistribution_rank(q: GroupElement, tol: float = 1e-9) -> CodistributionReport:
    """Rank of the codistribution at q, with `tol` relative to the largest
    singular value.  Observable means rank equals the state dimension 2n+1.

    The verdict holds at moderate length scales only: the singular values
    spread as |p| and 1/|p|, so once max |p_k|^2 exceeds about 1/tol the
    relative tolerance drops a direction that exact arithmetic keeps.  At
    tol 1e-9 one neighbor at (30000, 0) is full rank and one at (32000, 0)
    is not."""
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    mat = codistribution_matrix(q)
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = 0 if sv[0] == 0.0 else int(np.sum(sv > tol * sv[0]))
    return CodistributionReport(rank=rank, singular_values=sv, observable=rank == 2 * q.n + 1)


@dataclass(eq=False)
class GramianReport:
    """Empirical observability Gramian over a trajectory, its eigenvalues
    (largest first) and the verdict: observable means rank equals the state
    dimension 2n+1 and no neighbor block is deficient."""

    gramian: np.ndarray
    rank: int
    eigenvalues: np.ndarray
    deficient_neighbor_blocks: tuple[int, ...]
    observable: bool


def _offset_blocks(blocks, dt: float):
    """Yield (p, c) per block of trajectory rows: the offsets p_tk and the
    prefix sums c_tk = sum_{s<t} f_sk, both (m, n, 2), with c carried from
    one block to the next.  Every block needs the first block's columns."""
    carry = None
    for block in blocks:
        rows = np.asarray(block, dtype=float)
        if rows.ndim != 2 or rows.shape[1] < 6 or (rows.shape[1] - 2) % 4:
            raise ValueError(f"trajectory rows need 4n+2 columns with n >= 1, got shape {rows.shape}")
        if carry is None:
            carry = np.zeros(rows.shape[1] // 2 - 1)
        elif rows.shape[1] != 2 * carry.size + 2:
            raise ValueError(f"trajectory rows need the first block's {2 * carry.size + 2} "
                             f"columns, got shape {rows.shape}")
        if not len(rows):
            continue
        two_n = carry.size
        f = _step_jacobian_columns(_quarter_rotations(rows[:, 0]), rows[:, two_n + 2 :], dt)
        c = np.empty_like(f)
        c[0], c[1:] = carry, f[:-1]
        np.cumsum(c, axis=0, out=c)
        carry = c[-1] + f[-1]
        yield rows[:, 1 : two_n + 1].reshape(len(rows), -1, 2), c.reshape(len(rows), -1, 2)


def empirical_gramian(trajectory, dt: float, rank_tol: float = 1e-8) -> GramianReport:
    """G = sum_t Phi_t^T H_t^T H_t Phi_t dt over the (T, 4n+2) rows of a trajectory.

    H_t is the output Jacobian at sample t and Phi_t the product of the step
    Jacobians I + f_s e^T before it (`lie_group.step_jacobian`), which is
    I + c_t e^T with c_t = sum_{s<t} f_s.  So row k of H_t Phi_t holds p_k in
    block k and a_tk = p_k . c_tk in the last column, and G is made of the
    per-block sums of p_k p_k^T, p_k a_tk and a_tk^2 (plus T in the corner).
    The rank counts the eigenvalues of G above rank_tol times the largest.
    G's eigenvalues are squared singular values of the stacked H_t Phi_t,
    so rank_tol is a relative tolerance on squared singular values, where
    `codistribution_rank`'s tol is one on singular values; the defaults
    differ too (1e-8 here, 1e-9 there), and `check-observability` passes
    its --tol, 1e-9 by default, to either.
    A neighbor k is reported deficient when the smallest eigenvalue of its
    (x_k, y_k) block falls below BLOCK_TOL * trace(G) / (2n+1).  A stationary
    neighbor's block is T dt p_k p_k^T: it loses exactly the range-circle
    tangent (-y_k, x_k), and the range stays observable.  The report carries
    G's eigenvalues, largest first, and the verdict (full rank and no
    deficient block) that `check-observability --trajectory` prints.  Finite
    rows whose sums overflow float64 get no verdict: a Gramian with an entry,
    an eigenvalue or a trace that is not finite is refused with a ValueError.

    Each row's heading rate w is never read: f_s depends on the heading and
    the neighbor rates alone.

    The trajectory is a table (an array, list or tuple of rows) or an
    iterator of row blocks, each (m, 4n+2), that together hold the rows in
    order.  Both are folded into the sums one block at a time, carrying c_t
    from one block to the next, so an iterator that parses its blocks on
    demand keeps memory bounded by the block, not by T.  A table is walked
    in blocks of BLOCK_ROWS rows; an iterator of the same blocks gives the
    same bits.
    """
    for name, value in (("dt", dt), ("rank_tol", rank_tol)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    blocks = trajectory
    if isinstance(trajectory, (np.ndarray, list, tuple)):
        rows = np.asarray(trajectory, dtype=float)
        blocks = ([rows] if rows.ndim != 2
                  else (rows[i : i + BLOCK_ROWS] for i in range(0, len(rows), BLOCK_ROWS)))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        pp = pa = aa = 0.0
        count = 0
        for p, c in _offset_blocks(blocks, dt):
            a = p[..., 0] * c[..., 0] + p[..., 1] * c[..., 1]
            pt = p.transpose(1, 2, 0)  # (n, 2, m): matmul sums these 4-7x faster than einsum
            pp = pp + pt @ pt.transpose(0, 2, 1)
            pa = pa + (pt @ a.T[:, :, None])[..., 0]
            aa += (a * a).sum()
            count += len(a)
        if count < 2:
            raise ValueError(f"need at least two trajectory samples, got {count}")

        n = len(pp)
        dim = 2 * n + 1
        pk = np.arange(2 * n).reshape(n, 2)
        block = (pk[:, :, None], pk[:, None, :])  # the (x_k, y_k) diagonal blocks
        gram = np.zeros((dim, dim))
        gram[block] = pp
        gram[2 * n, : 2 * n] = gram[: 2 * n, 2 * n] = pa.ravel()
        gram[2 * n, 2 * n] = aa + count
        gram *= dt
        overflow = "the Gramian overflows float64: an entry, an eigenvalue or its trace is not finite"
        if not np.isfinite(gram).all():  # eigvalsh returns nan or does not converge
            raise ValueError(overflow)
        eig = np.linalg.eigvalsh(gram)[::-1]
        floor = BLOCK_TOL * np.trace(gram) / dim
        if not (np.isfinite(eig).all() and np.isfinite(floor)):
            raise ValueError(overflow)

    rank = 0 if eig[0] <= 0.0 else int(np.sum(eig > rank_tol * eig[0]))
    deficient = tuple(np.flatnonzero(np.linalg.eigvalsh(gram[block])[:, 0] < floor).tolist())
    return GramianReport(gramian=gram, rank=rank, eigenvalues=eig, deficient_neighbor_blocks=deficient,
                         observable=rank == dim and not deficient)
