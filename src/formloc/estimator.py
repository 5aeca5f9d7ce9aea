"""Extended Kalman filter over the relative-configuration group, stacked.

`predict_batch` and `update_batch` advance A filters that each track n
neighbors at once, as stacked arrays.  The mean lives on the group and is
propagated with the exact flow of the communicated body velocity, so
prediction adds no discretization error of its own.  The covariance lives
in the coordinate chart (p, theta) and uses the discrete linearization of
`lie_group.step_jacobian`.  Updates fuse half squared distances plus the
measured heading; the heading innovation is wrapped to (-pi, pi] while the
stored heading stays unwrapped.  `sim.FilterBank` holds every agent's
filter in these arrays; `EstimatorState` is one filter's view of them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .lie_group import _SMALL_W, GroupElement, wrap_angle

__all__ = [
    "EstimatorState",
    "NoiseConfig",
    "SingularUpdateError",
    "predict_batch",
    "update_batch",
]


class SingularUpdateError(RuntimeError):
    """Innovation covariance was not invertible at working precision."""


@dataclass(frozen=True)
class NoiseConfig:
    """Process power spectral densities and measurement variances."""

    process_position_psd: float = 1e-4
    process_heading_psd: float = 1e-6
    meas_distance_var: float = 1e-4
    meas_heading_var: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("process_position_psd", "process_heading_psd"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("meas_distance_var", "meas_heading_var"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(eq=False)
class EstimatorState:
    """Filter mean (a group element) and coordinate covariance."""

    mean: GroupElement
    covariance: np.ndarray

    def __post_init__(self):
        dim = 2 * self.mean.n + 1
        cov = np.array(self.covariance, dtype=float)
        if cov.shape != (dim, dim):
            raise ValueError(f"covariance must be {dim}x{dim}, got {cov.shape}")
        skew = np.max(np.abs(cov - cov.T)) if cov.size else 0.0
        if skew > 1e-9 * (1.0 + np.max(np.abs(cov))):
            raise ValueError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)


def _rotations(theta: np.ndarray) -> np.ndarray:
    """Stacked 2x2 rotation matrices, (A, 2, 2) for A headings."""
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape + (2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = c, -s, s, c
    return out


def _step_jacobian_columns(theta: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """dt * R(theta + pi/2) v_k for A headings (A,) and body rates (A, 2n):
    the offset rows of the last column of `lie_group.step_jacobian`, the
    only entries off its diagonal, stacked as (A, 2n)."""
    quarter = _rotations(theta + 0.5 * np.pi).swapaxes(1, 2)
    return dt * (v.reshape(theta.shape[0], -1, 2) @ quarter).reshape(v.shape)


@lru_cache(maxsize=None)
def _batch_constants(n: int, noise: NoiseConfig) -> tuple:
    """Per-degree arrays shared by every batched step: identity, process
    PSD and measurement variance diagonals, and the (row, column) indices
    of the offsets in the observation Jacobian."""
    dim = 2 * n + 1
    psd = np.concatenate([np.full(2 * n, noise.process_position_psd), [noise.process_heading_psd]])
    rdiag = np.concatenate([np.full(n, noise.meas_distance_var), [noise.meas_heading_var]])
    return np.eye(dim), psd, rdiag, (np.repeat(np.arange(n), 2), np.arange(2 * n))


def predict_batch(p: np.ndarray, theta: np.ndarray, cov: np.ndarray, v: np.ndarray,
                  w: np.ndarray, dt: float, noise: NoiseConfig):
    """Propagate A filters that each track n neighbors through one sampling
    interval.

    p is (A, 2n), theta (A,), cov (A, 2n+1, 2n+1); v (A, 2n) and w (A,)
    are the body velocities.  The mean follows the exact group flow; the
    covariance advances as F P F^T + dt * diag(PSDs), with F the discrete
    linearization at the current mean.  Returns the predicted
    (p, theta, cov).
    """
    a_count, two_n = p.shape
    eye, psd, _, _ = _batch_constants(two_n // 2, noise)
    vd = (dt * v).reshape(a_count, -1, 2)
    wd = dt * w
    if wd.any():
        # exp(dt * xi) per filter, with the series branch below _SMALL_W
        small = np.abs(wd) < _SMALL_W
        ws = np.where(small, 1.0, wd)
        a = np.where(small, 1.0 - wd * wd / 6.0, np.sin(ws) / ws)[:, None]
        b = np.where(small, 0.5 * wd, 2.0 * np.sin(0.5 * ws) ** 2 / ws)[:, None]
        vd = np.stack([a * vd[..., 0] - b * vd[..., 1], b * vd[..., 0] + a * vd[..., 1]], axis=-1)
    # (at w = 0 the series coefficients are exactly 1 and 0: vd is the flow)
    p_new = (vd @ _rotations(theta).swapaxes(1, 2)).reshape(a_count, two_n) + p

    f = np.empty(cov.shape)
    f[:] = eye
    f[:, :two_n, two_n] = _step_jacobian_columns(theta, v, dt)
    cov_new = f @ cov @ f.swapaxes(1, 2) + dt * psd * eye
    return p_new, theta + wd, 0.5 * (cov_new + cov_new.swapaxes(1, 2))


def update_batch(p: np.ndarray, theta: np.ndarray, cov: np.ndarray, y: np.ndarray,
                 noise: NoiseConfig):
    """Fuse one measurement vector into each of A filters that track n
    neighbors.

    y is (A, n+1): n half squared distances, then the heading, per filter.
    The covariance takes the Joseph form, re-symmetrized, so it stays
    positive semidefinite for any gain.  A filter whose innovation
    covariance is not finite or not invertible keeps its input state and
    is reported, and the others still update: returns (p, theta, cov,
    errors) with errors mapping the refused rows to their
    SingularUpdateError.
    """
    a_count, two_n = p.shape
    n = two_n // 2
    eye, _, rdiag, offset_entries = _batch_constants(n, noise)
    h = np.zeros((a_count, n + 1, two_n + 1))
    h[(slice(None),) + offset_entries] = p
    h[:, n, two_n] = 1.0
    hp = h @ cov
    s = hp @ h.swapaxes(1, 2) + rdiag * eye[: n + 1, : n + 1]

    errors = {}
    work = cov
    finite = np.isfinite(s).all(axis=(1, 2))
    if not finite.all():
        # neutral stand-ins keep the refused rows out of the shared arithmetic
        bad = ~finite
        s[bad], hp[bad], h[bad] = eye[: n + 1, : n + 1], 0.0, 0.0
        work = cov.copy()
        work[bad] = eye
        for row in np.flatnonzero(bad):
            errors[row] = SingularUpdateError("innovation covariance is not finite")
    try:
        gain = np.linalg.solve(s, hp).swapaxes(1, 2)
    except np.linalg.LinAlgError:
        # one singular matrix fails the stacked solve: redo it row by row
        gain = np.zeros((a_count, two_n + 1, n + 1))
        for row in np.flatnonzero(finite):
            try:
                gain[row] = np.linalg.solve(s[row], hp[row]).T
            except np.linalg.LinAlgError as exc:
                errors[row] = SingularUpdateError(f"innovation covariance not invertible: {exc}")

    innovation = y.copy()
    innovation[:, :n] -= 0.5 * (p.reshape(a_count, n, 2) ** 2).sum(axis=2)
    innovation[:, n] = wrap_angle(innovation[:, n] - theta)
    delta = (gain @ innovation[:, :, None])[:, :, 0]

    ikh = eye - gain @ h
    cov_new = ikh @ work @ ikh.swapaxes(1, 2) + (gain * rdiag) @ gain.swapaxes(1, 2)
    cov_new = 0.5 * (cov_new + cov_new.swapaxes(1, 2))
    p_new = p + delta[:, :-1]
    theta_new = theta + delta[:, -1]
    if errors:
        rows = np.array(sorted(errors))
        p_new[rows], theta_new[rows], cov_new[rows] = p[rows], theta[rows], cov[rows]
    return p_new, theta_new, cov_new, errors
