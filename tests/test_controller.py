"""Control laws against gradient, kernel and bookkeeping oracles."""

import numpy as np
import pytest

from formloc.controller import (
    MismatchConfig,
    estimated_control,
    formation_potential,
    ideal_control,
    mismatch_control,
)
from formloc.network import DesiredDistances, Graph, distance_errors, edge_offsets, rigidity_matrix


def _true_estimates(graph, r):
    r2 = np.asarray(r, dtype=float).reshape(-1, 2)
    est = {}
    for t, h in graph.edges:
        est[(t, h)] = r2[t] - r2[h]
        est[(h, t)] = r2[h] - r2[t]
    return est


def test_ideal_control_is_negative_gradient(triangle, rng):
    d = DesiredDistances(np.array([3.0, 4.0, 5.0]))
    for _ in range(100):
        r = rng.uniform(-6, 6, size=6)
        u = ideal_control(triangle, r, d)
        h = 1e-5
        grad = np.zeros(6)
        for c in range(6):
            e = np.zeros(6)
            e[c] = h
            grad[c] = (formation_potential(triangle, r + e, d)
                       - formation_potential(triangle, r - e, d)) / (2 * h)
        scale = max(1.0, np.abs(grad).max())
        np.testing.assert_allclose(u, -grad, atol=1e-6 * scale)


def test_ideal_control_via_rigidity_transpose(triangle, rng):
    d = DesiredDistances(np.array([3.0, 4.0, 5.0]))
    r = rng.uniform(-6, 6, size=6)
    z1 = edge_offsets(triangle, r)
    e = distance_errors(z1, d)
    oracle = -rigidity_matrix(z1, triangle).T @ e
    np.testing.assert_allclose(ideal_control(triangle, r, d), oracle, atol=1e-12)


def test_ideal_control_keeps_centroid(triangle, rng):
    d = DesiredDistances.uniform(3, 5.0)
    for _ in range(20):
        u = ideal_control(triangle, rng.uniform(-10, 10, size=6), d).reshape(-1, 2)
        np.testing.assert_allclose(u.sum(axis=0), [0.0, 0.0], atol=1e-10)


def test_ideal_control_zero_at_target_shape(triangle):
    side = 5.0
    r = np.array([[0.0, 0.0], [side, 0.0], [0.5 * side, 0.5 * np.sqrt(3) * side]])
    u = ideal_control(triangle, r, DesiredDistances.uniform(3, side))
    np.testing.assert_allclose(u, np.zeros(6), atol=1e-12)
    assert formation_potential(triangle, r, DesiredDistances.uniform(3, side)) < 1e-24


def test_estimated_control_with_true_estimates_reduces_to_ideal(triangle, rng):
    d = DesiredDistances(np.array([3.0, 4.0, 5.0]))
    r = rng.uniform(-6, 6, size=6)
    e = distance_errors(edge_offsets(triangle, r), d)
    got = estimated_control(triangle, _true_estimates(triangle, r), e)
    np.testing.assert_allclose(got, ideal_control(triangle, r, d), atol=1e-12)


def test_estimated_control_validation(triangle, rng):
    r = rng.uniform(-6, 6, size=6)
    est = _true_estimates(triangle, r)
    with pytest.raises(ValueError):
        estimated_control(triangle, est, np.zeros(2))
    del est[(1, 0)]
    with pytest.raises(ValueError):
        estimated_control(triangle, est, np.zeros(3))


def test_estimated_control_refuses_non_planar_estimates(triangle):
    est = {pair: np.zeros(3) for t, h in triangle.edges for pair in ((t, h), (h, t))}
    with pytest.raises(ValueError, match="^estimates must be planar vectors$"):
        estimated_control(triangle, est, np.zeros(3))


def test_mismatch_control_zero_bias_matches_ideal(triangle, rng):
    d = DesiredDistances(np.array([3.0, 4.0, 5.0]))
    r = rng.uniform(-6, 6, size=6)
    z1 = edge_offsets(triangle, r)
    e = distance_errors(z1, d)
    got = mismatch_control(triangle, z1, e, MismatchConfig.uniform(3, 0.0))
    np.testing.assert_allclose(got, ideal_control(triangle, r, d), atol=1e-12)


def test_mismatch_control_centroid_rate_identity(triangle, rng):
    # summing the per-agent velocities leaves exactly twice the
    # bias-weighted estimate sum: the e-terms cancel tail against head
    for _ in range(20):
        est = rng.uniform(-5, 5, size=(3, 2))
        e = rng.uniform(-20, 20, size=3)
        a = MismatchConfig(rng.uniform(-2, 2, size=3))
        u = mismatch_control(triangle, est, e, a)
        total = u.reshape(-1, 2).sum(axis=0)
        np.testing.assert_allclose(total, 2.0 * (a.values[:, None] * est).sum(axis=0),
                                   atol=1e-10)


def test_mismatch_control_signs_single_edge():
    graph = Graph(2, ((0, 1),))
    est = np.array([[1.0, 0.0]])
    e = np.array([2.0])
    a = MismatchConfig(np.array([0.5]))
    u = mismatch_control(graph, est, e, a).reshape(-1, 2)
    # tail applies -est (e - a), head +est (e + a)
    np.testing.assert_allclose(u[0], [-1.5, 0.0])
    np.testing.assert_allclose(u[1], [2.5, 0.0])


def test_mismatch_control_validation(triangle):
    est = np.zeros((3, 2))
    a = MismatchConfig.uniform(3, 1.0)
    with pytest.raises(ValueError):
        mismatch_control(triangle, est, np.zeros(2), a)
    with pytest.raises(ValueError):
        MismatchConfig(np.array([1.0, np.inf, 0.0]))
