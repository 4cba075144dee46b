"""The plan-free Gaussian band against brute-force curves of plan-sized draws,
and the grid-offset median behind lam0."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import rotinf.regularizers as rg
from rotinf import (IntensityImage, gaussian_limit_sampler, image_to_distribution,
                    plan_covariance_action, rcol_cb_gaussian)
from rotinf._util import rng_for
from rotinf.coloc import _cost_groups, _curve_values, _grid_cost_median, _limit_curve_table
from rotinf.sensitivity import _multinomial_factor_apply
from rotinf.solver import solve_reduced


def brute_curves(cost, draws, thresholds):
    """Explicit sort and cumsum over plan-sized draws, read at each threshold."""
    order = np.argsort(cost, kind="stable")
    cums = np.cumsum(draws[:, order], axis=1)
    last = np.searchsorted(cost[order], thresholds, side="right") - 1
    return np.where(last >= 0, cums[:, np.clip(last, 0, None)], 0.0)


def reference_sample(action, M, rng):
    """The plan-sized sampler as written before the reduced coordinates."""
    n1, n2 = action.n_rows, action.n_cols
    if action.mode == "one_sample":
        Z = rng.standard_normal((M, n1))
        U = _multinomial_factor_apply(action._r, action._sqrt_r, Z)
        T = np.hstack([U, np.zeros((M, n2 - 1))])
    else:
        Zr = rng.standard_normal((M, n1))
        Zs = rng.standard_normal((M, n2))
        Ur = _multinomial_factor_apply(action._r, action._sqrt_r, Zr)
        Us = _multinomial_factor_apply(action._s, action._sqrt_s, Zs)[:, :-1]
        T = np.hstack([np.sqrt(action.delta) * Ur, np.sqrt(1.0 - action.delta) * Us])
    X = action._factor.solve(T.T).T
    Xr = X[:, :n1]
    Xc = np.hstack([X[:, n1:], np.zeros((M, 1))])
    out = (Xr[:, :, None] + Xc[:, None, :]).reshape(M, action.dim)
    out *= action.weights
    return out


def instance(seed, n1, n2, mode):
    """Rounded random costs (so thresholds are shared) and a solved plan."""
    rng = np.random.default_rng(seed)
    C = np.round(rng.uniform(0.0, 1.0, size=(n1, n2)), 1)
    r = rng.dirichlet(np.ones(n1))
    s = rng.dirichlet(np.ones(n2))
    sol = solve_reduced(C, r, s, 0.5, p=1.0, tol=1e-11)
    delta = 0.5 if mode == "two_sample" else None
    action = plan_covariance_action(rg.entropy(), sol.plan, mode=mode, delta=delta)
    return C.ravel(), sol.plan, action


SHAPES = [(4, 5), (6, 3), (1, 4), (4, 1), (1, 1)]


@pytest.mark.parametrize("mode", ["one_sample", "two_sample"])
@pytest.mark.parametrize("n1,n2", SHAPES)
def test_plan_free_curves_match_brute_force(n1, n2, mode):
    cost, plan, action = instance(100 * n1 + n2, n1, n2, mode)
    thresholds, groups = _cost_groups(cost)
    table = _limit_curve_table(groups, thresholds.size, action)
    reduced = action.sample_reduced(300, rng_for(3)) @ table
    draws = action.sample(300, rng_for(3))
    assert np.abs(reduced - brute_curves(cost, draws, thresholds)).max() <= 1e-12
    # the thin wrapper also reads the curves between and beyond the jumps
    grid = np.linspace(-0.1, 1.1, 37)
    assert np.abs(_curve_values(cost, draws, grid)
                  - brute_curves(cost, draws, grid)).max() <= 1e-12
    assert np.abs(_curve_values(cost, plan.entries, grid)
                  - brute_curves(cost, plan.entries[None, :], grid)[0]).max() <= 1e-12


@pytest.mark.parametrize("mode", ["one_sample", "two_sample"])
@pytest.mark.parametrize("n1,n2", SHAPES)
def test_band_quantile_matches_brute_force(n1, n2, mode):
    cost, plan, action = instance(100 * n1 + n2 + 7, n1, n2, mode)
    draws, alpha = 400, 0.1
    band = rcol_cb_gaussian(plan, action, cost, n=100, m=100 if mode == "two_sample" else None,
                            alpha=alpha, draws=draws, seed=11)
    # one chunk at these sizes, so the brute force sees the same draws
    G = action.sample(draws, rng_for(11))
    sups = np.abs(brute_curves(cost, G, band.thresholds)).max(axis=1)
    u = np.quantile(sups, 1.0 - alpha)
    assert abs(band.u_quantile - u) <= 1e-12 * u
    base = brute_curves(cost, plan.entries[None, :], band.thresholds)[0]
    assert np.abs(band.values - base).max() <= 1e-12


@pytest.mark.parametrize("mode", ["one_sample", "two_sample"])
@pytest.mark.parametrize("n1,n2", SHAPES)
def test_limit_sampler_bit_identical(n1, n2, mode):
    _, _, action = instance(100 * n1 + n2 + 13, n1, n2, mode)
    got = gaussian_limit_sampler(action, 25, seed=4)
    assert np.array_equal(got, reference_sample(action, 25, rng_for(4)))


@pytest.mark.parametrize("metric", ["euclidean", "sqeuclidean"])
@pytest.mark.parametrize("p", [1.0, 2.0])
# 6 x 6 and 1 x 2 put the median between two distinct costs
@pytest.mark.parametrize("shape,pixel_size", [((5, 7), 1.0), ((6, 6), 0.37),
                                              ((1, 2), 2.5), ((1, 1), 1.0)])
def test_grid_cost_median_matches_full_matrix(metric, p, shape, pixel_size):
    img = IntensityImage(intensities=np.ones(shape), pixel_size=pixel_size)
    space, _ = image_to_distribution(img)
    full = np.quantile(cdist(space.points, space.points, metric=metric) ** p, 0.5)
    got = _grid_cost_median(img, metric, p)
    assert abs(got - full) <= 1e-12 * abs(full)
