"""Rank tests pinned against hand-derived rows and a finite-difference
Gramian oracle.

The codistribution at ((1, 0), theta=0) with one neighbor was worked out by
hand: stacking d(h), d(theta) and the derivatives of h along the two
translational frame fields gives

    (1, 0,  0)       h = (x^2 + y^2) / 2
    (0, 0,  1)       theta
    (1, 0,  0)       x cos + y sin
    (0, 1, -1)       -x sin + y cos

of rank 3 = 2n + 1.  The Gramian oracle differentiates the discrete Euler
chain numerically instead of chaining analytic Jacobians.  Both closed forms
are also checked against what they replaced: the symbolic Lie-derivative
search and the per-sample Gramian loop of `oracles`.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formloc.lie_group import (
    AlgebraElement,
    GroupElement,
    _quarter_rotations,
    _step_jacobian_columns,
    rotation,
)
from formloc.observability import (
    BLOCK_ROWS,
    _offset_blocks,
    codistribution_matrix,
    codistribution_rank,
    empirical_gramian,
    observation,
    observation_jacobian,
)
from oracles import sequential_gramian, symbolic_codistribution, trajectory_rows


def test_observation_fixed_values():
    q = GroupElement(np.array([3.0, 4.0]), 2.0)
    np.testing.assert_allclose(observation(q), [12.5, 2.0])
    q2 = GroupElement(np.array([1.0, 0.0, 0.0, 2.0]), -0.5)
    np.testing.assert_allclose(observation(q2), [0.5, 2.0, -0.5])


def test_observation_jacobian_matches_finite_differences(rng):
    q = GroupElement(rng.uniform(-4, 4, size=6), 0.8)
    x0 = np.concatenate([q.p, [q.theta]])
    h = 1e-6
    jac = np.zeros((q.n + 1, x0.size))
    for c in range(x0.size):
        e = np.zeros(x0.size)
        e[c] = h
        up = observation(GroupElement((x0 + e)[:-1], (x0 + e)[-1]))
        dn = observation(GroupElement((x0 - e)[:-1], (x0 - e)[-1]))
        jac[:, c] = (up - dn) / (2 * h)
    np.testing.assert_allclose(observation_jacobian(q), jac, atol=1e-8)


def test_codistribution_rows_single_neighbor():
    q = GroupElement(np.array([1.0, 0.0]), 0.0)
    mat = codistribution_matrix(q)
    expected = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, -1.0],
    ])
    np.testing.assert_allclose(mat, expected, atol=1e-15)


def test_codistribution_full_rank_random_states(rng):
    for n in (1, 2, 3, 5):
        for _ in range(25):
            q = GroupElement(rng.uniform(-5, 5, size=2 * n), rng.uniform(-np.pi, np.pi))
            report = codistribution_rank(q)
            assert report.observable
            assert report.rank == 2 * n + 1
            assert report.singular_values.size >= 2 * n + 1


def test_codistribution_rank_with_neighbor_at_origin():
    # a coincident neighbor kills d(h_k) but the frame-field derivatives
    # still span its block
    q = GroupElement(np.array([0.0, 0.0, 2.0, 1.0]), 0.3)
    assert codistribution_rank(q).rank == 5


_zeros = st.sampled_from((0.0, -0.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.data())
def test_codistribution_matches_symbolic_search(n, data):
    # byte for byte at depth 1, signed zeros included
    p = data.draw(st.lists(_zeros | st.floats(-10.0, 10.0), min_size=2 * n, max_size=2 * n))
    theta = data.draw(_zeros | st.floats(-2 * np.pi, 2 * np.pi))
    q = GroupElement(np.array(p), theta)
    want = symbolic_codistribution(q, 1)
    got = codistribution_matrix(q)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    sv = codistribution_rank(q).singular_values
    assert sv.tobytes() == np.linalg.svd(want, compute_uv=False).tobytes()
    # deeper derivatives add no direction: every further row the search finds
    # is minus a depth-1 row (== counts 0.0 and -0.0 as equal)
    for depth in (2, 3, 4):
        for row in symbolic_codistribution(q, depth)[len(want):]:
            assert any(np.array_equal(row, -first) for first in want), (depth, row)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.floats(-10.0, 10.0), st.data())
def test_codistribution_singular_values_do_not_depend_on_the_heading(n, theta, data):
    # rows d(u_k), d(s_k) are R(theta) [[1, 0, y_k], [0, 1, -x_k]]: each row
    # pair is turned by an orthogonal matrix, so the heading moves no singular
    # value; |p_k| spans 1e-3..1e6, past where the rank drops a direction
    logs = data.draw(st.lists(st.floats(-3.0, 6.0), min_size=n, max_size=n))
    angles = data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n))
    p = np.ravel([(10.0 ** e * np.cos(a), 10.0 ** e * np.sin(a)) for e, a in zip(logs, angles)])
    turned, level = codistribution_rank(GroupElement(p, theta)), codistribution_rank(GroupElement(p, 0.0))
    sv = level.singular_values
    assert np.abs(turned.singular_values - sv).max() <= 1e-12 * sv[0]
    assert turned.rank == level.rank


def test_codistribution_validation():
    q = GroupElement(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        codistribution_rank(q, tol=0.0)
    # a NaN or infinite tolerance passed the `<= 0` check and reported rank 0
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^tol must be finite, got {tol}$"):
            codistribution_rank(q, tol=tol)
    with pytest.raises(ValueError, match="^tol must be positive, got -1.0$"):
        codistribution_rank(q, tol=-1.0)


# ------------------------------------------------------------------ gramian


def _euler_chain(x0, velocities, dt, n):
    """Discrete Euler iterates of the coordinate kinematics."""
    xs = [np.array(x0)]
    for xi in velocities[:-1]:
        x = xs[-1]
        dp = xi.v.reshape(-1, 2) @ rotation(x[2 * n]).T
        xs.append(x + dt * np.concatenate([dp.ravel(), [xi.w]]))
    return xs


def _fd_gramian(x0, velocities, dt, n):
    """Central-difference sensitivity of every output wrt the initial state."""
    dim = 2 * n + 1
    eps = 1e-6
    gram = np.zeros((dim, dim))
    base = _euler_chain(x0, velocities, dt, n)
    jacs = [np.zeros((n + 1, dim)) for _ in base]
    for c in range(dim):
        e = np.zeros(dim)
        e[c] = eps
        up = _euler_chain(x0 + e, velocities, dt, n)
        dn = _euler_chain(x0 - e, velocities, dt, n)
        for k in range(len(base)):
            hu = observation(GroupElement(up[k][:-1], up[k][-1]))
            hd = observation(GroupElement(dn[k][:-1], dn[k][-1]))
            for j, (u, d) in enumerate(zip(hu, hd)):
                jacs[k][j, c] = (u - d) / (2 * eps)
    for j in jacs:
        gram += j.T @ j * dt
    return gram


def test_gramian_matches_finite_difference_oracle(rng):
    n = 2
    x0 = np.concatenate([rng.uniform(-3, 3, size=4), [0.4]])
    velocities = [
        AlgebraElement(rng.uniform(-1, 1, size=4), rng.uniform(-0.5, 0.5))
        for _ in range(30)
    ]
    dt = 0.05
    xs = _euler_chain(x0, velocities, dt, n)
    traj = [(GroupElement(x[:-1], x[-1]), xi) for x, xi in zip(xs, velocities)]
    report = empirical_gramian(trajectory_rows(traj), dt)
    oracle = _fd_gramian(x0, velocities, dt, n)
    np.testing.assert_allclose(report.gramian, oracle, atol=1e-5)
    assert report.rank == 5
    assert report.deficient_neighbor_blocks == ()


def _stationary_neighbor_trajectory(rng, still):
    """Neighbor `still` keeps a frozen offset; the other one wanders."""
    n = 2
    p0 = rng.uniform(-4, 4, size=4)
    velocities = []
    for _ in range(60):
        v = rng.uniform(-2, 2, size=4)
        v[2 * still : 2 * still + 2] = 0.0
        velocities.append(AlgebraElement(v, 0.0))
    xs = _euler_chain(np.concatenate([p0, [0.0]]), velocities, 0.05, n)
    return [(GroupElement(x[:-1], x[-1]), xi) for x, xi in zip(xs, velocities)]


def test_gramian_flags_stationary_neighbor(rng):
    for still in (0, 1):
        traj = _stationary_neighbor_trajectory(rng, still)
        report = empirical_gramian(trajectory_rows(traj), 0.05)
        assert report.deficient_neighbor_blocks == (still,)
        # only the tangential direction of the frozen block is lost
        assert report.rank == 4


def test_gramian_full_rank_under_rigid_rotation():
    # constant distances, rotating directions: both blocks stay excited
    n = 2
    p0 = np.array([3.0, 0.0, -1.0, 2.0])
    spin, w, dt = 0.6, 0.3, 0.02
    traj = []
    for k in range(80):
        t = k * dt
        theta = w * t
        p = (p0.reshape(-1, 2) @ rotation(spin * t).T).ravel()
        dp = spin * (p.reshape(-1, 2) @ np.array([[0.0, 1.0], [-1.0, 0.0]]))
        v = (dp @ rotation(theta)).ravel()
        traj.append((GroupElement(p, theta), AlgebraElement(v, w)))
    report = empirical_gramian(trajectory_rows(traj), dt)
    assert report.rank == 2 * n + 1
    assert report.deficient_neighbor_blocks == ()


def _rows_and_pairs(rng, n, count):
    """Samples of an agent turning at a nonzero rate while about half of its
    neighbors (at least one) sit still, as rows and as pairs."""
    dt = 0.05
    still = rng.random(n) < 0.5
    still[rng.integers(n)] = True
    w = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0)
    theta = rng.uniform(-np.pi, np.pi) + w * dt * np.arange(count)
    v = rng.uniform(-2.0, 2.0, size=(count, n, 2))
    v[:, still] = 0.0
    steps = dt * np.einsum("tij,tkj->tki", np.array([rotation(a) for a in theta]), v)
    p = rng.uniform(-5.0, 5.0, size=(n, 2)) + np.cumsum(steps, axis=0) - steps
    rows = np.column_stack([theta, p.reshape(count, -1), np.full(count, w),
                            v.reshape(count, -1)])
    pairs = [(GroupElement(r[1 : 2 * n + 1], r[0]), AlgebraElement(r[2 * n + 2 :], r[2 * n + 1]))
             for r in rows]
    return rows, pairs, dt


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(2, 120), st.integers(0, 2 ** 32 - 1))
def test_gramian_matches_sequential_loop(n, count, seed):
    rows, pairs, dt = _rows_and_pairs(np.random.default_rng(seed), n, count)
    got = empirical_gramian(rows, dt)
    want = sequential_gramian(pairs, dt)
    scale = np.abs(want.gramian).max()
    assert np.abs(got.gramian - want.gramian).max() <= 1e-12 * scale
    assert got.rank == want.rank
    assert got.deficient_neighbor_blocks == want.deficient_neighbor_blocks


def _row_blocks(rows):
    """The rows as an iterator of the BLOCK_ROWS-row blocks a table is walked in."""
    return (rows[i : i + BLOCK_ROWS] for i in range(0, len(rows), BLOCK_ROWS))


def test_gramian_over_blocks_matches_sequential_loop(rng):
    # two and a half blocks: c_t crosses two block boundaries
    rows, pairs, dt = _rows_and_pairs(rng, 2, 5 * BLOCK_ROWS // 2)
    got = empirical_gramian(rows, dt)
    want = sequential_gramian(pairs, dt)
    scale = np.abs(want.gramian).max()
    assert np.abs(got.gramian - want.gramian).max() <= 1e-12 * scale
    assert got.rank == want.rank
    assert got.deficient_neighbor_blocks == want.deficient_neighbor_blocks != ()


def test_gramian_of_row_blocks_is_the_gramian_of_the_table(rng):
    # an iterator of the blocks a table is walked in takes the table's path
    rows, _, dt = _rows_and_pairs(rng, 3, 5 * BLOCK_ROWS // 2)
    table = empirical_gramian(rows, dt)
    for blocks in (_row_blocks(rows), map(np.ndarray.tolist, _row_blocks(rows))):
        got = empirical_gramian(blocks, dt)
        assert got.gramian.tobytes() == table.gramian.tobytes()
        assert got.rank == table.rank
        assert got.deficient_neighbor_blocks == table.deficient_neighbor_blocks
    assert empirical_gramian(rows.tolist(), dt).gramian.tobytes() == table.gramian.tobytes()


@pytest.mark.parametrize("still", [(), (0,), (1,), (0, 1)])
def test_gramian_verdict_and_eigenvalues_match_sequential_loop(rng, still):
    # the agent turns; the neighbors in `still` keep their offsets, the rest wander
    n, dt = 2, 0.05
    velocities = []
    for _ in range(60):
        v = rng.uniform(-2, 2, size=2 * n)
        for k in still:
            v[2 * k : 2 * k + 2] = 0.0
        velocities.append(AlgebraElement(v, 0.3))
    xs = _euler_chain(np.concatenate([rng.uniform(-4, 4, size=2 * n), [0.2]]), velocities, dt, n)
    traj = [(GroupElement(x[:-1], x[-1]), xi) for x, xi in zip(xs, velocities)]
    got = empirical_gramian(trajectory_rows(traj), dt)
    want = sequential_gramian(traj, dt)
    assert got.eigenvalues.tobytes() == np.linalg.eigvalsh(got.gramian)[::-1].tobytes()
    scale = want.eigenvalues[0]
    assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 1e-12 * scale
    assert got.deficient_neighbor_blocks == want.deficient_neighbor_blocks == still
    assert got.rank == want.rank == 2 * n + 1 - len(still)
    assert got.observable == want.observable == (still == ())


def test_prefix_sums_carried_across_blocks_equal_one_cumsum(rng):
    rows, _, dt = _rows_and_pairs(rng, 2, 5 * BLOCK_ROWS // 2)
    f = _step_jacobian_columns(_quarter_rotations(rows[:, 0]), rows[:, 6:], dt)
    want = np.zeros_like(f)
    np.cumsum(f[:-1], axis=0, out=want[1:])
    offsets, prefix = zip(*_offset_blocks(_row_blocks(rows), dt))
    assert [len(c) for c in prefix] == [BLOCK_ROWS, BLOCK_ROWS, BLOCK_ROWS // 2]
    np.testing.assert_array_equal(np.concatenate(prefix).reshape(f.shape), want)
    np.testing.assert_array_equal(np.concatenate(offsets).reshape(f.shape), rows[:, 1:5])


def test_row_blocks_must_agree_on_columns():
    blocks = iter([np.ones((3, 6)), np.ones((0, 6)), np.ones((3, 10))])
    with pytest.raises(ValueError, match=r"first block's 6 columns, got shape \(3, 10\)$"):
        empirical_gramian(blocks, 0.1)
    with pytest.raises(ValueError, match="^need at least two trajectory samples, got 1$"):
        empirical_gramian(iter([np.ones((1, 6)), np.ones((0, 6))]), 0.1)


@pytest.mark.parametrize("shape", [
    (5, 7),   # 4n+2 columns for no n
    (5, 2),   # n = 0
    (1, 6),   # a single sample
    (6,),     # not a table
    (2, 3, 6),
])
def test_gramian_rejects_malformed_rows(shape):
    with pytest.raises(ValueError):
        empirical_gramian(np.ones(shape), 0.1)


def test_gramian_validation(rng):
    q = GroupElement(np.array([1.0, 0.0]), 0.0)
    xi = AlgebraElement(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        empirical_gramian(trajectory_rows([(q, xi)]), 0.1)
    with pytest.raises(ValueError):
        empirical_gramian(trajectory_rows([(q, xi), (q, xi)]), 0.0)
    # rows of one and of two neighbors
    with pytest.raises(ValueError):
        empirical_gramian([np.ones(6), np.ones(10)], 0.1)
    # a tolerance below 0 would count every eigenvalue toward the rank, a negative one too
    with pytest.raises(ValueError, match="^rank_tol must be positive, got -1.0$"):
        empirical_gramian(trajectory_rows([(q, xi), (q, xi)]), 0.1, rank_tol=-1.0)
    # NaN passed the `<= 0` checks (rank 0, no deficient block); a non-finite
    # dt ended in numpy's eigenvalue solver
    for name in ("dt", "rank_tol"):
        for value in (np.nan, np.inf, -np.inf):
            args = {"dt": 0.1, name: value}
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
                empirical_gramian(trajectory_rows([(q, xi), (q, xi)]), **args)


@pytest.mark.parametrize("rows", [
    [[0.0, 1e160, 0.0, 0.0, 0.0, 0.0]] * 3,    # p_k p_k^T overflows: every eigenvalue was nan
    [[0.0, 1e200, 0.0, 0.0, 0.0, 0.0]] * 3,    # eigvalsh returned nan, or did not converge
    [[0.0, 8e153, 8e153, 0.0, 0.0, 0.0]] * 2,  # finite entries, an infinite eigenvalue
    [[0.0, 9e153, 0.0, 0.0, 9e153, 0.0, 0.0, 0.0, 0.0, 0.0]] * 2,  # finite eigenvalues, infinite trace
])
def test_gramian_refuses_sums_that_overflow(rows):
    # every cell is finite, yet the Gramian used to get a verdict, after
    # numpy's overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the Gramian overflows float64: an entry, "
                                             r"an eigenvalue or its trace is not finite$"):
            empirical_gramian(np.array(rows), 1.0)
