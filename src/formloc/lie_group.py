"""Relative-configuration group of one agent and its tracked neighbors.

An agent tracking n neighbors carries the state (p, theta): p stacks the n
planar neighbor offsets in the world frame (block k points from the agent
to neighbor k) and theta is the agent heading.  These states form a matrix
group under

    (p, theta) * (p', theta') = ((R(theta) p'_k + p_k)_k, theta + theta')

with identity (0, 0); a single shared rotation acts on every offset block.
Body-frame velocities xi = (v, w) drive the kinematics

    dp_k/dt = R(theta) v_k,      dtheta/dt = w,

and for constant xi the flow is exact: q(t) = q(0) * exp(t * xi).  That
closed form is what `step_body_velocity` uses, so propagation carries no
integrator drift.  Headings are stored unwrapped; `wrap_angle` reduces
angle differences to (-pi, pi] where a canonical representative matters.

This module is the one home of the kinematics that other modules stack:
`rotation` builds R(theta) for one heading or an array of them, and
`_step_jacobian_columns` is the last column of `step_jacobian` for a stack
of headings.  The filters (`estimator`, `sim`) and the Gramian
(`observability`) take both from here; `step_jacobian` itself stays the
scalar oracle that the tests hold them to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgebraElement",
    "GroupElement",
    "compose",
    "exp",
    "identity",
    "inverse",
    "rotation",
    "step_body_velocity",
    "step_jacobian",
    "wrap_angle",
]

# Below this |w| the closed-form rotation integral switches to its series
# branch; the two branches agree to O(w^3) at the boundary.
_SMALL_W = 1e-8


def rotation(theta) -> np.ndarray:
    """Counter-clockwise rotation matrices, float64: (2, 2) for one heading,
    (..., 2, 2) for an array of headings (...), each entry as that heading
    alone gives it."""
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(np.shape(theta) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = c, -s, s, c
    return out


def wrap_angle(angle):
    """Reduce an angle (or array of angles) to the interval (-pi, pi]."""
    a = np.asarray(angle, dtype=float)
    wrapped = np.pi - np.remainder(np.pi - a, 2.0 * np.pi)
    if np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class GroupElement:
    """Configuration (p, theta) of an agent with n >= 1 tracked neighbors.

    p has length 2n; block p[2k:2k+2] is the world-frame offset from the
    agent to neighbor k.  theta is the heading in radians, unwrapped.
    """

    p: np.ndarray
    theta: float

    def __post_init__(self):
        p = np.array(self.p, dtype=float).reshape(-1)
        if p.size < 2 or p.size % 2 != 0:
            raise ValueError(f"p must stack n >= 1 planar offsets, got length {p.size}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def n(self) -> int:
        return self.p.size // 2

    def offset(self, k: int) -> np.ndarray:
        """World-frame offset of neighbor k."""
        return self.p[2 * k : 2 * k + 2]

    def offsets(self) -> np.ndarray:
        """All neighbor offsets as an (n, 2) view."""
        return self.p.reshape(-1, 2)


@dataclass(frozen=True)
class AlgebraElement:
    """Body-frame velocity (v, w): stacked neighbor rates plus heading rate."""

    v: np.ndarray
    w: float

    def __post_init__(self):
        v = np.array(self.v, dtype=float).reshape(-1)
        if v.size < 2 or v.size % 2 != 0:
            raise ValueError(f"v must stack n >= 1 planar rates, got length {v.size}")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", float(self.w))

    @property
    def n(self) -> int:
        return self.v.size // 2


def identity(n: int) -> GroupElement:
    """Identity configuration for n tracked neighbors."""
    if n < 1:
        raise ValueError(f"need at least one neighbor, got n={n}")
    return GroupElement(np.zeros(2 * n), 0.0)


def _check_same_n(a, b):
    if a.n != b.n:
        raise ValueError(f"neighbor counts differ: {a.n} vs {b.n}")


def compose(q: GroupElement, q2: GroupElement) -> GroupElement:
    """Group product q * q2: rotate q2's offsets by q.theta, then translate."""
    _check_same_n(q, q2)
    p = (q2.offsets() @ rotation(q.theta).T).ravel() + q.p
    return GroupElement(p, q.theta + q2.theta)


def inverse(q: GroupElement) -> GroupElement:
    """Group inverse: (p, theta)^-1 = (-R(-theta) p, -theta)."""
    p = -(q.offsets() @ rotation(-q.theta).T).ravel()
    return GroupElement(p, -q.theta)


def exp(xi: AlgebraElement) -> GroupElement:
    """Exponential map: the time-1 flow of the constant body velocity xi.

    Integrating dp_k/dt = R(t w) v_k from 0 to 1 gives per block

        p_k = a(w) v_k + b(w) J v_k,   a = sin(w)/w,  b = (1 - cos(w))/w,

    with J the quarter-turn.  b is evaluated as 2 sin(w/2)^2 / w to avoid
    cancellation; below _SMALL_W both coefficients switch to their series.
    """
    w = xi.w
    v = xi.v.reshape(-1, 2)
    if abs(w) < _SMALL_W:
        a = 1.0 - w * w / 6.0
        b = 0.5 * w
    else:
        a = np.sin(w) / w
        b = 2.0 * np.sin(0.5 * w) ** 2 / w
    px = a * v[:, 0] - b * v[:, 1]
    py = b * v[:, 0] + a * v[:, 1]
    return GroupElement(np.column_stack([px, py]).ravel(), w)


def step_body_velocity(q: GroupElement, xi: AlgebraElement, dt: float) -> GroupElement:
    """Advance q by the exact flow of the constant body velocity xi over dt."""
    _check_same_n(q, xi)
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    return compose(q, exp(AlgebraElement(dt * xi.v, dt * xi.w)))


def step_jacobian(theta: float, xi: AlgebraElement, dt: float) -> np.ndarray:
    """Discrete linearization I + dt * df/d(p, theta) of the kinematics.

    The offset rates R(theta) v_k depend on the state only through theta,
    so the only off-diagonal entries are d(dp_k/dt)/dtheta = R(theta + pi/2) v_k
    in the last column.  A product of such matrices is again the identity
    plus one last column, the sum of theirs; `observability.empirical_gramian`
    uses that closed-form product, and `estimator._predict_degree` builds the
    same matrix for stacked filters, both from `_step_jacobian_columns`.
    """
    n = xi.n
    f = np.eye(2 * n + 1)
    f[: 2 * n, 2 * n] = dt * (xi.v.reshape(-1, 2) @ rotation(theta + 0.5 * np.pi).T).ravel()
    return f


def _quarter_rotations(theta: np.ndarray) -> np.ndarray:
    """R(theta + pi/2)^T for headings (...), stacked as (..., 2, 2): the
    factor of `_step_jacobian_columns`."""
    return rotation(theta + 0.5 * np.pi).swapaxes(-1, -2)


def _step_jacobian_columns(quarter: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """dt * R(theta + pi/2) v_k for body rates (..., 2n), given the headings'
    `_quarter_rotations`: the offset rows of the last column of
    `step_jacobian`, the only entries off its diagonal, stacked as
    (..., 2n)."""
    return dt * (v.reshape(quarter.shape[:-2] + (-1, 2)) @ quarter).reshape(v.shape)
