"""Extended Kalman filter over the relative-configuration group, stacked.

`sim._sense` advances every filter of a world at once, each tracking n
neighbors, as stacked arrays.  The mean lives on the group.  No agent
turns, so over a sampling interval the body velocity v moves the offsets
by dt * R(theta) v and leaves the heading: that is the exact group flow at
zero heading rate, so prediction adds no discretization error of its own.
The covariance lives in the coordinate chart (p, theta) and uses the
discrete linearization of `lie_group.step_jacobian`, whose last column
`lie_group._step_jacobian_columns` gives for the stack.  Updates fuse half
squared distances plus the measured heading; the heading innovation is
wrapped to (-pi, pi] while the stored heading stays unwrapped.
`sim.WorldState` holds every filter in a flat offset table and heading
array, with the covariances per degree, all behind a leading seed axis; a
degree's means are a view of the table, and `EstimatorState` is one
filter's view of them (`WorldState.filters`).

Each step has two parts.  The per-row part is elementwise, so it runs once
over the stacked rows of filters of every degree: the range and
wrapped-heading innovations (`_innovations`).  The per-degree part is the
stacked matrix algebra of one degree, one call each for the predict and the
update: the mean step, the Jacobian products and F P F^T + Q
(`_predict_degree`); H, H P, S, the stacked solve, the gain, the increments
delta and the Joseph form (`_update_degree`), which also refuses a filter
whose S is not finite or not invertible.  The caller adds the increments,
p + delta and theta + delta, to the predicted means of the same degree.
The parts take any leading axes, such as (seeds, filters), and key a
refused filter by its index tuple over them.  The arrays a degree's calls
share (the identity, Q, R, H's offset entries) are that degree's
`_constants`, which the caller builds once and passes in: `sim` builds
them with the world, so no step looks anything up by the noise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .lie_group import GroupElement, _step_jacobian_columns, wrap_angle

__all__ = [
    "EstimatorState",
    "NoiseConfig",
    "SingularUpdateError",
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


def _constants(n: int, noise: NoiseConfig, dt: float) -> tuple:
    """The arrays every filter of degree n shares, for `_predict_degree` and
    `_update_degree`: the identity, Q = dt * diag(process PSDs), the
    measurement variance diagonal as a vector and as the matrix R, and the
    (row, column) indices of the offsets in the observation Jacobian.
    `sim.init_world` builds them once per degree for a world's lifetime."""
    eye = np.eye(2 * n + 1)
    psd = np.concatenate([np.full(2 * n, noise.process_position_psd), [noise.process_heading_psd]])
    rdiag = np.concatenate([np.full(n, noise.meas_distance_var), [noise.meas_heading_var]])
    return (eye, dt * psd * eye, rdiag, rdiag * eye[: n + 1, : n + 1],
            (np.repeat(np.arange(n), 2), np.arange(2 * n)))


def _predict_degree(p: np.ndarray, cov: np.ndarray, v: np.ndarray, rot: np.ndarray,
                    quarter: np.ndarray, dt: float, constants: tuple) -> tuple:
    """The per-degree part of a predict, for filters (...) that track n
    neighbors, with body velocities v (..., 2n), the headings'
    `lie_group.rotation` and `lie_group._quarter_rotations`, and the
    degree's `_constants` for this dt: the predicted means (..., 2n) and
    covariances (..., 2n+1, 2n+1)."""
    two_n = p.shape[-1]
    vd = (dt * v).reshape(p.shape[:-1] + (-1, 2))
    p_new = (vd @ rot.swapaxes(-1, -2)).reshape(p.shape) + p

    eye, q = constants[:2]
    f = np.empty(cov.shape)
    f[:] = eye
    f[..., :two_n, two_n] = _step_jacobian_columns(quarter, v, dt)
    cov_new = f @ cov @ f.swapaxes(-1, -2) + q
    return p_new, 0.5 * (cov_new + cov_new.swapaxes(-1, -2))


def _innovations(offsets: np.ndarray, theta: np.ndarray, ranges: np.ndarray,
                 headings: np.ndarray) -> tuple:
    """The elementwise part of an update's innovation, for stacked filters
    of any degree: each tracked offset (..., 2) against its measured half
    squared distance (...), and each heading against its measurement, both
    of one shape, wrapped to (-pi, pi]."""
    return ranges - 0.5 * (offsets ** 2).sum(axis=-1), wrap_angle(headings - theta)


def _update_degree(p: np.ndarray, cov: np.ndarray, innovation: np.ndarray,
                   constants: tuple) -> tuple:
    """The per-degree part of an update, for filters (...) that track n
    neighbors, with predicted means (..., 2n), covariances
    (..., 2n+1, 2n+1), innovations (..., n+1) and the degree's
    `_constants` (any dt: the update reads no Q): the increments
    (..., 2n+1) of the means, the Joseph-form covariances, re-symmetrized,
    and the refused filters, by their index tuple over (...), mapped to their
    SingularUpdateError.  A filter whose innovation covariance is not finite
    or not invertible is refused: it keeps its covariance, and its
    increments are -0.0, so adding them leaves every bit of its mean as it
    was (x + -0.0 is x, also for x = -0.0)."""
    two_n = p.shape[-1]
    n = two_n // 2
    eye, _, rdiag, r_matrix, offset_entries = constants
    h = np.zeros(p.shape[:-1] + (n + 1, two_n + 1))
    h[(Ellipsis,) + offset_entries] = p
    h[..., n, two_n] = 1.0
    hp = h @ cov
    s = hp @ h.swapaxes(-1, -2) + r_matrix

    errors, work = {}, cov
    if np.isfinite(s).all():
        refused = np.zeros(s.shape[:-2], dtype=bool)
    else:
        refused = ~np.isfinite(s).all(axis=(-2, -1))
        # neutral stand-ins keep the refused filters out of the shared arithmetic
        s[refused], hp[refused], h[refused] = eye[: n + 1, : n + 1], 0.0, 0.0
        work = cov.copy()
        work[refused] = eye
        for at in map(tuple, np.argwhere(refused).tolist()):
            errors[at] = SingularUpdateError("innovation covariance is not finite")
    try:
        gain_t = np.linalg.solve(s, hp)
    except np.linalg.LinAlgError:
        # one singular matrix fails the stacked solve: redo it filter by filter,
        # into the layout the stacked solve returns, so the products below take
        # the same kernels and the other filters the same bits
        gain_t = np.zeros(hp.shape)
        for at in map(tuple, np.argwhere(~refused).tolist()):
            try:
                gain_t[at] = np.linalg.solve(s[at], hp[at])
            except np.linalg.LinAlgError as exc:
                errors[at] = SingularUpdateError(f"innovation covariance not invertible: {exc}")
                refused[at] = True
    gain = gain_t.swapaxes(-1, -2)

    delta = (gain @ innovation[..., None])[..., 0]
    ikh = eye - gain @ h
    cov_new = ikh @ work @ ikh.swapaxes(-1, -2) + (gain * rdiag) @ gain.swapaxes(-1, -2)
    cov_new = 0.5 * (cov_new + cov_new.swapaxes(-1, -2))
    if errors:
        delta[refused], cov_new[refused] = -0.0, cov[refused]
    return delta, cov_new, errors
