"""Filter layer: textbook-formula oracles, convergence, observability floor.

The predict and update steps are compared against plain numpy
implementations of F P F^T + Q and the Joseph-form Kalman update written
out in the tests, with the linearization rebuilt from scratch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

from formloc.estimator import (
    EstimatorState,
    NoiseConfig,
    SingularUpdateError,
    _constants,
    _predict_degree,
)
from formloc.lie_group import (
    AlgebraElement,
    GroupElement,
    _quarter_rotations,
    rotation,
    step_body_velocity,
)
from formloc.observability import observation
from oracles import initialize, predict, stacked_update, update


def _random_state(rng, n=2, scale=4.0):
    mean = GroupElement(rng.uniform(-scale, scale, size=2 * n), rng.uniform(-2, 2))
    a = rng.normal(size=(2 * n + 1, 2 * n + 1))
    cov = a @ a.T + 0.1 * np.eye(2 * n + 1)
    return EstimatorState(mean, cov)


def _hand_jacobian(theta, xi, dt):
    n = xi.n
    f = np.eye(2 * n + 1)
    quarter = rotation(theta + 0.5 * np.pi)
    for k in range(n):
        f[2 * k : 2 * k + 2, 2 * n] = dt * quarter @ xi.v[2 * k : 2 * k + 2]
    return f


def test_predict_matches_hand_formulas(rng):
    noise = NoiseConfig()
    st = _random_state(rng)
    xi = AlgebraElement(rng.uniform(-2, 2, size=4), 0.7)
    dt = 0.05
    out = predict(st, xi, dt, noise)

    ref_mean = step_body_velocity(st.mean, xi, dt)
    np.testing.assert_array_equal(out.mean.p, ref_mean.p)
    assert out.mean.theta == ref_mean.theta

    f = _hand_jacobian(st.mean.theta, xi, dt)
    q = dt * np.diag([noise.process_position_psd] * 4 + [noise.process_heading_psd])
    np.testing.assert_allclose(out.covariance, f @ st.covariance @ f.T + q, atol=1e-12)


def test_update_matches_hand_kalman(rng):
    noise = NoiseConfig()
    st = _random_state(rng)
    n = st.mean.n
    y = observation(st.mean) + rng.normal(scale=0.05, size=n + 1)
    out = update(st, y, noise)

    # textbook Joseph update with the observation Jacobian rebuilt by hand
    h = np.zeros((n + 1, 2 * n + 1))
    for k in range(n):
        h[k, 2 * k : 2 * k + 2] = st.mean.offset(k)
    h[n, 2 * n] = 1.0
    r = np.diag([noise.meas_distance_var] * n + [noise.meas_heading_var])
    s = h @ st.covariance @ h.T + r
    k_gain = st.covariance @ h.T @ np.linalg.inv(s)
    innov = y - observation(st.mean)
    delta = k_gain @ innov
    ikh = np.eye(2 * n + 1) - k_gain @ h
    ref_cov = ikh @ st.covariance @ ikh.T + k_gain @ r @ k_gain.T

    np.testing.assert_allclose(out.mean.p, st.mean.p + delta[:-1], atol=1e-10)
    assert out.mean.theta == pytest.approx(st.mean.theta + delta[-1], abs=1e-10)
    np.testing.assert_allclose(out.covariance, ref_cov, atol=1e-10)


def test_update_covariance_stays_psd(rng):
    # Joseph form keeps eigenvalues non-negative even with near-singular R
    noise = NoiseConfig(meas_distance_var=1e-12, meas_heading_var=1e-12)
    st = _random_state(rng)
    for _ in range(30):
        y = observation(st.mean) + rng.normal(scale=0.01, size=st.mean.n + 1)
        st = update(st, y, noise)
        assert np.linalg.eigvalsh(st.covariance)[0] > -1e-12
        np.testing.assert_array_equal(st.covariance, st.covariance.T)


def test_update_heading_innovation_wraps(rng):
    st = EstimatorState(GroupElement(np.array([3.0, 0.0]), 0.1), np.eye(3))
    noise = NoiseConfig()
    # measured heading a full turn plus a sliver away: the mean must move by
    # the sliver, not by ~2 pi
    y = np.array([4.5, 0.1 + 2.0 * np.pi + 0.05])
    out = update(st, y, noise)
    assert abs(out.mean.theta - 0.1) < 0.2


def test_update_rejects_nonfinite_innovation_covariance():
    cov = np.eye(3)
    cov[0, 0] = np.nan
    st = EstimatorState(GroupElement(np.array([1.0, 0.0]), 0.0), cov)
    with pytest.raises(SingularUpdateError):
        update(st, np.array([0.5, 0.0]), NoiseConfig())


def test_update_degree_refuses_only_its_bad_filters(rng):
    # filter (0, 1)'s innovation covariance is not finite; filter (1, 1)'s
    # heading row (0, ..., 0, -R_heading) gives it an exactly zero row, which
    # LAPACK reports as singular
    noise = NoiseConfig()
    states = [_random_state(rng) for _ in range(4)]
    p = np.array([s.mean.p for s in states]).reshape(2, 2, -1)
    p[1, 1, 0] = -0.0  # a refused filter keeps even the sign of a zero
    theta = np.array([s.mean.theta for s in states]).reshape(2, 2)
    cov = np.array([s.covariance for s in states]).reshape(2, 2, 5, 5)
    cov[0, 1, 0, 0] = np.inf
    cov[1, 1, -1, :] = cov[1, 1, :, -1] = 0.0
    cov[1, 1, -1, -1] = -noise.meas_heading_var
    y = np.array([observation(s.mean) + rng.normal(scale=0.1, size=3)
                  for s in states]).reshape(2, 2, 3)
    with np.errstate(invalid="ignore"):
        *got, errors = stacked_update(p, theta, cov, y, noise)

    assert sorted(errors) == [(0, 1), (1, 1)]
    assert all(type(i) is int for at in errors for i in at)
    assert all(isinstance(exc, SingularUpdateError) for exc in errors.values())
    for at in errors:
        for out, given in zip(got, (p, theta, cov)):
            assert out[at].tobytes() == given[at].tobytes()
    *alone, alone_errors = stacked_update(p[:, 0], theta[:, 0], cov[:, 0], y[:, 0], noise)
    assert alone_errors == {}
    for out, want in zip(got, alone):
        np.testing.assert_array_equal(out[:, 0], want)


def test_validation_errors(rng):
    st = _random_state(rng, n=1)
    noise = NoiseConfig()
    with pytest.raises(ValueError):
        predict(st, AlgebraElement(np.zeros(2), 0.0), 0.0, noise)
    with pytest.raises(ValueError):
        predict(st, AlgebraElement(np.zeros(4), 0.0), 0.1, noise)
    with pytest.raises(ValueError):
        update(st, np.zeros(3), noise)
    with pytest.raises(ValueError):
        EstimatorState(GroupElement(np.zeros(2), 0.0), np.eye(4))
    asym = np.eye(3)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        EstimatorState(GroupElement(np.zeros(2), 0.0), asym)
    with pytest.raises(ValueError):
        NoiseConfig(process_position_psd=-1.0)
    with pytest.raises(ValueError):
        NoiseConfig(meas_distance_var=0.0)


def test_initialize_statistics():
    truth = GroupElement(np.array([4.0, 1.0, -2.0, 3.0]), 0.6)
    noise = NoiseConfig()
    st = initialize(truth, 1.5, 42, noise=noise)
    assert np.all(np.abs(st.mean.p - truth.p) <= 1.5)
    assert st.mean.theta == truth.theta
    np.testing.assert_allclose(np.diag(st.covariance)[:4], 1.5 ** 2 / 3.0)
    assert st.covariance[4, 4] == noise.meas_heading_var

    again = initialize(truth, 1.5, 42, noise=noise)
    np.testing.assert_array_equal(st.mean.p, again.mean.p)

    gen = np.random.default_rng(42)
    via_gen = initialize(truth, 1.5, gen, noise=noise)
    np.testing.assert_array_equal(st.mean.p, via_gen.mean.p)

    explicit = initialize(truth, 1.5, 0, initial_var=9.0)
    np.testing.assert_allclose(np.diag(explicit.covariance)[:4], 9.0)

    with pytest.raises(ValueError):
        initialize(truth, -1.0, 0)
    with pytest.raises(ValueError):
        initialize(truth, 1.0, 0, initial_var=0.0)


def _run_filter(xi_of, steps, dt, seed, noise):
    truth = GroupElement(np.array([4.0, 1.0]), 0.0)
    st = initialize(truth, 1.5, seed, noise=noise)
    t = 0.0
    for _ in range(steps):
        xi = xi_of(t)
        truth = step_body_velocity(truth, xi, dt)
        st = predict(st, xi, dt, noise)
        y = np.append(0.5 * (truth.offsets() ** 2).sum(axis=1), truth.theta)
        st = update(st, y, noise)
        t += dt
    return st, truth


def test_converges_under_rotating_excitation():
    noise = NoiseConfig()
    dt = 0.05
    st, truth = _run_filter(
        lambda t: AlgebraElement(2.0 * np.array([np.cos(t), np.sin(t)]), 0.2),
        int(50 / dt), dt, 7, noise,
    )
    assert np.linalg.norm(st.mean.p - truth.p) < 1e-3


def test_stationary_neighbor_keeps_tangential_error():
    noise = NoiseConfig()
    dt = 0.05
    st, truth = _run_filter(
        lambda t: AlgebraElement(np.zeros(2), 0.0), int(50 / dt), dt, 7, noise,
    )
    err = st.mean.p - truth.p
    u = truth.p / np.linalg.norm(truth.p)
    radial = float(err @ u)
    tangential = np.sqrt(max(float(err @ err) - radial ** 2, 0.0))
    # range is pinned by the measurements, direction is not
    assert abs(np.linalg.norm(st.mean.p) - np.linalg.norm(truth.p)) < 1e-6
    assert tangential > 1e-2


# ------------------------------------------------ stacked filters vs scalar


@settings(max_examples=60, deadline=None)
@given(st_.integers(1, 5), st_.integers(1, 4), st_.integers(0, 2 ** 32 - 1))
def test_batched_steps_match_scalar_per_filter(count, n, seed):
    # the stacked filter predicts at zero heading rate, as the engine runs it
    rng = np.random.default_rng(seed)
    noise = NoiseConfig(process_position_psd=1e-3, meas_distance_var=1e-2)
    states = [_random_state(rng, n=n) for _ in range(count)]
    v = rng.uniform(-2, 2, size=(count, 2 * n))
    y = np.array([observation(s.mean) + rng.normal(scale=0.1, size=n + 1) for s in states])
    dt = 0.05

    theta = np.array([s.mean.theta for s in states])
    p, cov = _predict_degree(np.array([s.mean.p for s in states]),
                             np.array([s.covariance for s in states]), v,
                             rotation(theta), _quarter_rotations(theta), dt,
                             _constants(n, noise, dt))
    p, theta, cov, errors = stacked_update(p, theta, cov, y, noise)
    assert errors == {}
    for a, state in enumerate(states):
        ref = update(predict(state, AlgebraElement(v[a], 0.0), dt, noise), y[a], noise)
        np.testing.assert_allclose(p[a], ref.mean.p, rtol=1e-12, atol=1e-12)
        assert theta[a] == pytest.approx(ref.mean.theta, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(cov[a], ref.covariance, rtol=1e-12, atol=1e-12)
