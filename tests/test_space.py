import numpy as np
import pytest

from rotinf import (ConstraintOperator, CostVector, Prob, build_grid_space,
                    cost_from_metric, cost_quantile, empirical_distribution)


def test_grid_single_point():
    space = build_grid_space(1, extent=1.0)
    assert space.n_points == 1
    assert np.allclose(space.points, [[0.0, 0.0]])


def test_grid_paper_size():
    assert build_grid_space(10, extent=1.0).n_points == 100


def test_grid_corner_convention():
    space = build_grid_space(2, extent=1.0)
    assert space.n_points == 4
    d = np.linalg.norm(space.points[:, None, :] - space.points[None, :, :], axis=-1)
    off = d[~np.eye(4, dtype=bool)]
    assert np.allclose(np.unique(np.round(off, 12)), [1.0, np.sqrt(2.0)])


def test_grid_rejects_zero():
    with pytest.raises(ValueError):
        build_grid_space(0)


def test_cost_two_points():
    space = build_grid_space(2, 1.0)
    two = cost_from_metric(space, p=1.0)
    assert two.matrix[0, 0] == 0.0
    space2 = type(space)([[0.0], [1.0]])
    c = cost_from_metric(space2, p=1.0)
    assert np.allclose(c.entries, [0, 1, 1, 0])
    assert c.c_max == 1.0


def test_cost_squared_euclidean():
    space = build_grid_space(3, 2.0)
    c = cost_from_metric(space, p=1.0, metric="sqeuclidean")
    pts = space.points
    expect = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    assert np.allclose(c.matrix, expect)
    assert np.isclose(c.c_max, expect.max())


def test_cost_l2_grid_values():
    c = cost_from_metric(build_grid_space(2, 1.0), p=1.0)
    off = c.matrix[~np.eye(4, dtype=bool)]
    assert set(np.round(off, 12)) == {1.0, round(np.sqrt(2.0), 12)}


def test_cost_symmetry_metric_modes():
    rng = np.random.default_rng(0)
    space = type(build_grid_space(2))(rng.normal(size=(6, 3)))
    for metric in ("euclidean", "sqeuclidean"):
        c = cost_from_metric(space, p=2.0, metric=metric)
        assert np.allclose(c.matrix, c.matrix.T)
        assert np.allclose(np.diag(c.matrix), 0.0)


def test_cost_custom_table_negative_rejected():
    space = build_grid_space(2, 1.0)
    table = -np.ones((4, 4))
    with pytest.raises(ValueError):
        cost_from_metric(space, p=1.0, metric=table)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cost_rejects_nonfinite_entries(bad):
    space = build_grid_space(2, 1.0)
    table = np.ones((4, 4))
    table[1, 2] = bad
    with pytest.raises(ValueError):
        cost_from_metric(space, p=1.0, metric=table)
    with pytest.raises(ValueError):
        CostVector(entries=table.ravel(), p=1.0, c_max=1.0)


def test_cost_rejects_p_below_one():
    with pytest.raises(ValueError):
        cost_from_metric(build_grid_space(2), p=0.5)


def test_empirical_counting():
    # atoms 0,0,1,2 out of three
    prob = empirical_distribution([0, 0, 1, 2], 3)
    assert np.allclose(prob.weights, [0.5, 0.25, 0.25])
    assert prob.n == 4


def test_empirical_dirac():
    prob = empirical_distribution([1], 2)
    assert np.allclose(prob.weights, [0.0, 1.0])


def test_empirical_errors():
    with pytest.raises(ValueError):
        empirical_distribution([], 3)
    with pytest.raises(ValueError):
        empirical_distribution([3], 3)


def test_empirical_law_of_large_numbers():
    rng = np.random.default_rng(42)
    draws = rng.choice(2, size=100_000, p=[0.5, 0.5])
    prob = empirical_distribution(draws, 2)
    assert np.abs(prob.weights - 0.5).max() < 0.01


def test_quantile_midpoint_convention():
    c = CostVector(entries=[0.0, 1.0, 1.0, 0.0], p=1.0, c_max=1.0)
    assert cost_quantile(c, 0.5) == 0.5
    assert cost_quantile(c, 0.0) == 0.0
    assert cost_quantile(c, 1.0) == 1.0


def test_quantile_against_sort_interpolate_oracle():
    rng = np.random.default_rng(3)
    entries = rng.uniform(0, 5, size=9)
    c = CostVector(entries=entries, p=1.0, c_max=entries.max())
    for q in (0.1, 0.37, 0.5, 0.9):
        # oracle: sort, then linear interpolation between order statistics
        srt = np.sort(entries)
        pos = q * (srt.size - 1)
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        expect = srt[lo] + (pos - lo) * (srt[hi] - srt[lo])
        assert np.isclose(cost_quantile(c, q), expect)


def test_prob_validation():
    with pytest.raises(ValueError):
        Prob([0.5, 0.6])
    with pytest.raises(ValueError):
        Prob([-0.1, 1.1])
    for bad in ([np.nan, 0.5], [np.nan, 1.0], [np.inf, 0.5], [0.5, -np.inf]):
        with pytest.raises(ValueError):
            Prob(bad)
    p = Prob.from_weights([2.0, 2.0], normalize=True)
    assert np.allclose(p.weights, [0.5, 0.5])


def test_prob_immutable():
    p = Prob([0.5, 0.5])
    with pytest.raises(ValueError):
        p.weights[0] = 1.0


def test_operator_reproduces_marginals():
    rng = np.random.default_rng(1)
    for N in (1, 2, 5):
        P = rng.uniform(size=(N, N))
        P /= P.sum()
        op = ConstraintOperator(N)
        out = op.apply(P.ravel())
        assert np.allclose(out[:N], P.sum(axis=1))
        assert np.allclose(out[N:], P.sum(axis=0))
        red = op.apply_reduced(P.ravel())
        assert np.allclose(red, np.concatenate([P.sum(axis=1), P.sum(axis=0)[:-1]]))


def test_operator_full_rank_reduced():
    for N in range(1, 7):
        A = ConstraintOperator(N).materialize_reduced()
        assert np.linalg.matrix_rank(A) == 2 * N - 1


def test_operator_transpose_consistency():
    rng = np.random.default_rng(2)
    N = 4
    op = ConstraintOperator(N)
    A = op.materialize_reduced()
    mu = rng.normal(size=2 * N - 1)
    assert np.allclose(op.apply_transpose_reduced(mu), A.T @ mu)
