"""Group layer checked against independent oracles.

Matrix products of a hand-built homogeneous embedding stand in for the
group operations, scipy's expm for the exponential, and dense Runge-Kutta
integration of the coordinate kinematics for the flow step.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from formloc.lie_group import (
    AlgebraElement,
    GroupElement,
    compose,
    exp,
    identity,
    inverse,
    rotation,
    step_body_velocity,
    step_jacobian,
    wrap_angle,
)
from oracles import embed, embed_algebra, left_invariant_basis


def hom(p, theta):
    # independent homogeneous embedding: n rotation blocks, p, corner 1
    p = np.asarray(p, dtype=float)
    n = p.size // 2
    c, s = np.cos(theta), np.sin(theta)
    m = np.eye(2 * n + 1)
    for k in range(n):
        m[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
    m[: 2 * n, 2 * n] = p
    return m


def unhom(m):
    dim = m.shape[0]
    n = (dim - 1) // 2
    theta = np.arctan2(m[1, 0], m[0, 0])
    return m[: 2 * n, 2 * n], theta


coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
angle = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False)


def elements(n):
    return st.builds(
        GroupElement,
        st.lists(coord, min_size=2 * n, max_size=2 * n).map(np.array),
        angle,
    )


def algebra_elements(n, wmax=8.0):
    return st.builds(
        AlgebraElement,
        st.lists(coord, min_size=2 * n, max_size=2 * n).map(np.array),
        st.floats(min_value=-wmax, max_value=wmax, allow_nan=False),
    )


# ---------------------------------------------------------------- rotation


def test_rotation_basic():
    np.testing.assert_allclose(rotation(0.0), np.eye(2), atol=1e-15)
    r = rotation(np.pi / 2)
    np.testing.assert_allclose(r @ [1.0, 0.0], [0.0, 1.0], atol=1e-15)


@given(angle)
def test_rotation_orthogonal(theta):
    r = rotation(theta)
    np.testing.assert_allclose(r @ r.T, np.eye(2), atol=1e-14)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_rotation_of_one_heading_is_the_literal_matrix(theta):
    # one heading keeps the bytes of the plain 2x2 literal
    c, s = np.cos(theta), np.sin(theta)
    r = rotation(theta)
    assert r.shape == (2, 2) and r.dtype == np.float64
    assert r.tobytes() == np.array([[c, -s], [s, c]]).tobytes()


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=24))
def test_stacked_rotations_match_one_heading_at_a_time(thetas):
    # a strided (k, 1) view, with both zeros and a heading past 1e8 in it
    thetas = np.array(thetas + [0.0, -0.0, np.pi, 5e8])[::-1, None]
    stacked = rotation(thetas)
    assert stacked.shape == thetas.shape + (2, 2)
    for at in np.ndindex(thetas.shape):
        assert stacked[at].tobytes() == rotation(float(thetas[at])).tobytes()


# --------------------------------------------------------------- wrap_angle


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_wrap_angle_range(a):
    w = wrap_angle(a)
    assert -np.pi < w <= np.pi
    assert isinstance(w, float)


@given(angle, st.integers(min_value=-5, max_value=5))
def test_wrap_angle_periodic(a, k):
    assert wrap_angle(a + 2.0 * np.pi * k) == pytest.approx(wrap_angle(a), abs=1e-9)


def test_wrap_angle_boundary():
    # pi is the canonical representative of the cut, not -pi
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    out = wrap_angle(np.array([0.0, 3.0 * np.pi]))
    assert out.shape == (2,)
    np.testing.assert_allclose(out, [0.0, np.pi], atol=1e-12)


# ------------------------------------------------------------- group axioms


@settings(max_examples=200)
@given(elements(2), elements(2), elements(2))
def test_associativity(a, b, c):
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    np.testing.assert_allclose(left.p, right.p, atol=1e-10)
    assert left.theta == pytest.approx(right.theta, abs=1e-12)


@settings(max_examples=200)
@given(elements(2))
def test_identity_and_inverse(q):
    e = identity(q.n)
    for side in (compose(q, e), compose(e, q)):
        np.testing.assert_allclose(side.p, q.p, atol=1e-12)
        assert side.theta == pytest.approx(q.theta, abs=1e-12)
    for side in (compose(q, inverse(q)), compose(inverse(q), q)):
        np.testing.assert_allclose(side.p, np.zeros(2 * q.n), atol=1e-9)
        assert side.theta == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=200)
@given(elements(1), elements(1))
def test_compose_matches_matrix_product(a, b):
    got = compose(a, b)
    p, theta = unhom(hom(a.p, a.theta) @ hom(b.p, b.theta))
    np.testing.assert_allclose(got.p, p, atol=1e-10)
    assert wrap_angle(got.theta - theta) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=200)
@given(elements(2))
def test_inverse_matches_matrix_inverse(q):
    got = inverse(q)
    p, theta = unhom(np.linalg.inv(hom(q.p, q.theta)))
    np.testing.assert_allclose(got.p, p, atol=1e-8)
    assert wrap_angle(got.theta - theta) == pytest.approx(0.0, abs=1e-12)


def test_embed_is_homomorphism(rng):
    for _ in range(50):
        a = GroupElement(rng.normal(size=4), rng.normal())
        b = GroupElement(rng.normal(size=4), rng.normal())
        np.testing.assert_allclose(embed(a), hom(a.p, a.theta), atol=1e-15)
        np.testing.assert_allclose(
            embed(compose(a, b)), embed(a) @ embed(b), atol=1e-12
        )
        np.testing.assert_allclose(
            embed(inverse(a)), np.linalg.inv(embed(a)), atol=1e-10
        )


# ------------------------------------------------------------- exponential


@settings(max_examples=300, deadline=None)
@given(algebra_elements(2))
def test_exp_matches_expm(xi):
    got = exp(xi)
    oracle = scipy.linalg.expm(embed_algebra(xi))
    np.testing.assert_allclose(embed(got), oracle, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(coord, min_size=2, max_size=2).map(np.array),
    st.floats(min_value=-1e-8, max_value=1e-8, allow_nan=False),
)
def test_exp_small_angle_branch(v, w):
    xi = AlgebraElement(v, w)
    oracle = scipy.linalg.expm(embed_algebra(xi))
    np.testing.assert_allclose(embed(exp(xi)), oracle, atol=1e-10)


def test_exp_branch_continuity():
    v = np.array([3.0, -2.0])
    below = exp(AlgebraElement(v, 0.999e-8))
    above = exp(AlgebraElement(v, 1.001e-8))
    np.testing.assert_allclose(below.p, above.p, atol=1e-12)


def test_exp_zero_rotation_is_translation():
    xi = AlgebraElement(np.array([1.0, 2.0, -3.0, 0.5]), 0.0)
    q = exp(xi)
    np.testing.assert_allclose(q.p, xi.v, atol=1e-15)
    assert q.theta == 0.0


# ------------------------------------------------------------------- flows


def _coordinate_rhs(x, xi, n):
    theta = x[2 * n]
    dp = xi.v.reshape(-1, 2) @ rotation(theta).T
    return np.concatenate([dp.ravel(), [xi.w]])


def _rk4_flow(q, xi, dt, substeps=20000):
    n = q.n
    x = np.concatenate([q.p, [q.theta]])
    h = dt / substeps
    for _ in range(substeps):
        k1 = _coordinate_rhs(x, xi, n)
        k2 = _coordinate_rhs(x + 0.5 * h * k1, xi, n)
        k3 = _coordinate_rhs(x + 0.5 * h * k2, xi, n)
        k4 = _coordinate_rhs(x + h * k3, xi, n)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return GroupElement(x[:-1], x[-1])


def test_step_matches_dense_integration(rng):
    for _ in range(5):
        q = GroupElement(rng.uniform(-5, 5, size=4), rng.uniform(-3, 3))
        xi = AlgebraElement(rng.uniform(-2, 2, size=4), rng.uniform(-2, 2))
        dt = 0.37
        got = step_body_velocity(q, xi, dt)
        ref = _rk4_flow(q, xi, dt)
        np.testing.assert_allclose(got.p, ref.p, atol=1e-8)
        assert got.theta == pytest.approx(ref.theta, abs=1e-10)


def test_step_composes_over_subintervals(rng):
    # exact flow: stepping dt then dt equals stepping 2 dt
    q = GroupElement(rng.uniform(-5, 5, size=6), 0.7)
    xi = AlgebraElement(rng.uniform(-2, 2, size=6), 0.9)
    two = step_body_velocity(step_body_velocity(q, xi, 0.3), xi, 0.3)
    one = step_body_velocity(q, xi, 0.6)
    np.testing.assert_allclose(two.p, one.p, atol=1e-12)
    assert two.theta == pytest.approx(one.theta, abs=1e-12)


def test_step_jacobian_matches_finite_differences(rng):
    q = GroupElement(rng.uniform(-4, 4, size=4), 0.9)
    xi = AlgebraElement(rng.uniform(-2, 2, size=4), 0.4)
    dt = 0.05
    n = q.n

    def f(x):
        return _coordinate_rhs(x, xi, n)

    x0 = np.concatenate([q.p, [q.theta]])
    dim = x0.size
    jac = np.zeros((dim, dim))
    h = 1e-6
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        jac[:, k] = (f(x0 + e) - f(x0 - e)) / (2 * h)
    np.testing.assert_allclose(step_jacobian(q.theta, xi, dt), np.eye(dim) + dt * jac, atol=1e-8)


def test_left_invariant_basis_maps_body_to_coordinate_rates(rng):
    q = GroupElement(rng.uniform(-4, 4, size=6), -1.3)
    basis = left_invariant_basis(q)
    # column j is the coordinate velocity of the flow along basis direction j
    eps = 1e-7
    for j in range(basis.shape[1]):
        body = np.zeros(basis.shape[1])
        body[j] = 1.0
        xi = AlgebraElement(body[:-1], body[-1])
        fwd = step_body_velocity(q, xi, eps)
        x1 = np.concatenate([fwd.p, [fwd.theta]])
        x0 = np.concatenate([q.p, [q.theta]])
        np.testing.assert_allclose((x1 - x0) / eps, basis[:, j], atol=1e-6)


# -------------------------------------------------------------- validation


def test_group_element_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GroupElement(np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        GroupElement(np.zeros(0), 0.0)
    with pytest.raises(ValueError):
        AlgebraElement(np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        identity(0)


def test_mismatched_neighbor_counts_rejected():
    q = identity(2)
    with pytest.raises(ValueError):
        compose(q, identity(1))
    with pytest.raises(ValueError):
        step_body_velocity(q, AlgebraElement(np.zeros(2), 0.0), 0.1)
    with pytest.raises(ValueError):
        step_body_velocity(q, AlgebraElement(np.zeros(4), 0.0), -0.1)


def test_offsets_accessors():
    q = GroupElement(np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
    assert q.n == 2
    np.testing.assert_array_equal(q.offset(1), [3.0, 4.0])
    assert q.offsets().shape == (2, 2)
    with pytest.raises(ValueError):
        q.p[0] = 9.0  # frozen storage
