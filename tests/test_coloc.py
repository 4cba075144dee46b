import numpy as np
import pytest

import rotinf.regularizers as rg
from rotinf import (IntensityImage, Prob, cost_from_metric,
                    cost_quantile, image_to_distribution, plan_covariance_action,
                    rcol, rcol_cb_bootstrap, rcol_cb_gaussian, rcol_diff,
                    rcol_pipeline, read_image, resample_distribution,
                    sinkhorn_entropy)
from rotinf.coloc import RColCurve
from rotinf.solver import solve_reduced

from conftest import blob_image, random_instance

E_CONST = np.e / (1.0 + np.e)  # diagonal mass of the symmetric N=2 plan at lam=1


def test_image_single_pixel_dirac():
    img = IntensityImage(intensities=[[3.0]])
    space, prob = image_to_distribution(img)
    assert space.n_points == 1
    assert np.allclose(prob.weights, [1.0])


def test_image_uniform():
    img = IntensityImage(intensities=np.ones((2, 2)), pixel_size=2.0)
    space, prob = image_to_distribution(img)
    assert np.allclose(prob.weights, 0.25)
    d = np.linalg.norm(space.points[0] - space.points[1])
    assert np.isclose(d, 2.0)


def test_image_normalization_random():
    rng = np.random.default_rng(0)
    img = IntensityImage(intensities=rng.uniform(size=(5, 7)))
    _, prob = image_to_distribution(img)
    assert np.isclose(prob.weights.sum(), 1.0)


def test_image_rejects_all_zero():
    with pytest.raises(ValueError):
        IntensityImage(intensities=np.zeros((3, 3)))


@pytest.mark.parametrize("pixel_size", [0.0, -1.0, np.nan, np.inf])
def test_image_rejects_bad_pixel_size(pixel_size):
    with pytest.raises(ValueError, match="pixel size must be finite and positive"):
        IntensityImage(intensities=np.ones((2, 2)), pixel_size=pixel_size)


def test_pgm_roundtrip(tmp_path):
    # plain and raw variants, 8- and 16-bit
    plain = tmp_path / "a.pgm"
    plain.write_bytes(b"P2\n# comment\n2 2\n255\n0 10\n20 255\n")
    img = read_image(plain, pixel_size=1.5)
    assert np.allclose(img.intensities, [[0, 10], [20, 255]])
    assert img.pixel_size == 1.5

    raw8 = tmp_path / "b.pgm"
    raw8.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 10, 20, 255]))
    assert np.allclose(read_image(raw8).intensities, [[0, 10], [20, 255]])

    raw16 = tmp_path / "c.pgm"
    raw16.write_bytes(b"P5\n2 1\n65535\n" + (1000).to_bytes(2, "big")
                      + (65535).to_bytes(2, "big"))
    assert np.allclose(read_image(raw16).intensities, [[1000, 65535]])


def test_csv_image(tmp_path):
    path = tmp_path / "img.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    img = read_image(path)
    assert np.allclose(img.intensities, [[1, 2], [3, 4]])


def test_resample_dirac():
    out = resample_distribution(Prob([0.0, 1.0]), 50, seed=0)
    assert np.allclose(out.weights, [0.0, 1.0])
    assert out.n == 50


def test_resample_concentration():
    rng = np.random.default_rng(1)
    prob = Prob.from_weights(rng.dirichlet(np.ones(30)))
    out = resample_distribution(prob, 1_000_000, seed=2)
    assert np.abs(out.weights - prob.weights).max() < 0.005


def test_resample_support_bound():
    prob = Prob.from_weights(np.full(100, 0.01))
    out = resample_distribution(prob, 7, seed=3)
    assert (out.weights > 0).sum() <= 7


def test_rcol_terminal_and_onspot(two_point_cost, symmetric_half):
    plan = sinkhorn_entropy(two_point_cost, symmetric_half, symmetric_half, 1.0)
    curve = rcol(plan, two_point_cost)
    assert np.isclose(curve.values[-1], 1.0)
    assert np.isclose(curve(0.0), plan.matrix[0, 0] + plan.matrix[1, 1])
    # closed form: jumps from 2a to 1 at t = 1
    assert abs(curve(0.0) - E_CONST) < 1e-8
    assert curve(1.0) == curve.values[-1]
    assert np.isclose(curve(0.5), curve(0.0))  # cadlag step between jumps


def test_rcol_structure_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        N = rng.integers(2, 7)
        c, r, s = random_instance(rng, int(N))
        plan = sinkhorn_entropy(c, r, s, 0.5, tol=1e-10)
        curve = rcol(plan, c)
        assert (np.diff(curve.values) >= -1e-12).all()
        assert np.isclose(curve.values[-1], 1.0)
        assert ((curve.values >= -1e-12) & (curve.values <= 1 + 1e-12)).all()


def test_rcol_lipschitz_in_plan():
    rng = np.random.default_rng(5)
    c, r, s = random_instance(rng, 4)
    a = sinkhorn_entropy(c, r, s, 0.5, tol=1e-10)
    b = sinkhorn_entropy(c, r, s, 1.5, tol=1e-10)
    grid = np.unique(c.entries)
    va = rcol(a, c, thresholds=grid).values
    vb = rcol(b, c, thresholds=grid).values
    tv = np.abs(a.entries - b.entries).sum()
    assert np.abs(va - vb).max() <= tv + 1e-12


def test_rcol_dimension_mismatch(two_point_cost):
    rng = np.random.default_rng(6)
    c, r, s = random_instance(rng, 3)
    plan = sinkhorn_entropy(c, r, s, 1.0)
    with pytest.raises(ValueError):
        rcol(plan, two_point_cost)


def test_gaussian_band_zero_cov(two_point_cost):
    # Dirac first marginal: the limit covariance vanishes and so does the band
    sol = solve_reduced(two_point_cost.matrix[:1, :], [1.0], [0.5, 0.5], 1.0, p=1.0)
    action = plan_covariance_action(rg.entropy(), sol.plan)
    curve = rcol_cb_gaussian(sol.plan, action, sol.cost.ravel(), n=100,
                             alpha=0.05, draws=200, seed=0)
    assert np.allclose(curve.lower, curve.values)
    assert np.allclose(curve.upper, curve.values)


def test_gaussian_band_rate_scaling():
    rng = np.random.default_rng(7)
    c, r, s = random_instance(rng, 4)
    plan = sinkhorn_entropy(c, r, s, 0.8, tol=1e-10)
    action = plan_covariance_action(rg.entropy(), plan)
    c1 = rcol_cb_gaussian(plan, action, c, n=100, alpha=0.05, draws=500, seed=1)
    c2 = rcol_cb_gaussian(plan, action, c, n=200, alpha=0.05, draws=500, seed=1)
    assert np.isclose(c1.u_quantile, c2.u_quantile)  # same draws, same quantile
    half1 = c1.u_quantile / np.sqrt(100)
    # where the wider band stays clear of the [0, 1] clipping
    inner = (c1.values > half1) & (c1.values < 1.0 - half1)
    assert inner.any()
    ratio = (c1.upper - c1.lower)[inner] / (c2.upper - c2.lower)[inner]
    assert np.allclose(ratio, np.sqrt(2.0))


def test_gaussian_band_quantile_monotone_in_alpha():
    rng = np.random.default_rng(8)
    c, r, s = random_instance(rng, 4)
    plan = sinkhorn_entropy(c, r, s, 0.8, tol=1e-10)
    action = plan_covariance_action(rg.entropy(), plan)
    us = [rcol_cb_gaussian(plan, action, c, n=50, alpha=a, draws=400, seed=2).u_quantile
          for a in (0.01, 0.05, 0.2)]
    assert us[0] >= us[1] >= us[2]


def test_gaussian_band_rejects_few_draws(two_point_cost, symmetric_half):
    plan = sinkhorn_entropy(two_point_cost, symmetric_half, symmetric_half, 1.0)
    action = plan_covariance_action(rg.entropy(), plan)
    with pytest.raises(ValueError):
        rcol_cb_gaussian(plan, action, two_point_cost, n=10, alpha=0.05,
                         draws=50, seed=0)


def test_bootstrap_band_degenerate_dirac(two_point_cost):
    r_hat = Prob([1.0, 0.0], n=40)
    s_hat = Prob([1.0, 0.0], n=40)
    band = rcol_cb_bootstrap(r_hat, s_hat, two_point_cost, 1.0, B=60,
                             alpha=0.05, seed=0)
    assert band.u_quantile == 0.0
    assert np.allclose(band.curve.lower, band.curve.upper)


def test_bootstrap_band_contains_its_center():
    rng = np.random.default_rng(9)
    c, r, s = random_instance(rng, 4)
    n = 400
    r_hat = resample_distribution(r, n, seed=1)
    s_hat = resample_distribution(s, n, seed=2)
    band = rcol_cb_bootstrap(r_hat, s_hat, c, 0.8, B=60, alpha=0.1, seed=3)
    assert (band.curve.lower <= band.curve.values + 1e-12).all()
    assert (band.curve.values <= band.curve.upper + 1e-12).all()


def test_bootstrap_band_reports_failure_counts(monkeypatch):
    import rotinf.coloc as coloc_mod
    from rotinf import ConvergenceError

    def always_fails(C, R, S, *args, **kwargs):
        yield (np.full((len(R),) + C.shape, np.nan), R, S, np.zeros(len(R), dtype=int),
               {b: ConvergenceError("synthetic replicate failure") for b in range(len(R))})

    monkeypatch.setattr(coloc_mod.sv, "solve_replicates", always_fails)
    rng = np.random.default_rng(11)
    c, r, s = random_instance(rng, 3)
    r_hat = resample_distribution(r, 100, seed=1)
    s_hat = resample_distribution(s, 100, seed=2)
    with pytest.raises(ConvergenceError, match="of 60"):
        rcol_cb_bootstrap(r_hat, s_hat, c, 0.8, B=60, alpha=0.05, seed=3)


def test_rcol_diff_identical_settings_zero():
    rng = np.random.default_rng(10)
    c, r, s = random_instance(rng, 4)
    n = 300
    r_hat = resample_distribution(r, n, seed=4)
    s_hat = resample_distribution(s, n, seed=5)
    band = rcol_cb_bootstrap(r_hat, s_hat, c, 0.8, B=60, alpha=0.05, seed=6,
                             keep_replicates=True)
    diff = rcol_diff(band.curve, band.curve, band.replicates, band.replicates)
    assert np.allclose(diff.values, 0.0)
    assert np.isclose(diff.values[-1], 0.0)  # both curves end at one
    assert diff.u_quantile == 0.0


def test_rcol_diff_two_blob_phantom_significant():
    # identical blobs against shifted blobs: the difference curve must be
    # significantly positive at small thresholds
    imgA1 = blob_image((8, 8), [(3.5, 3.5)], [1.2], [1.0])
    imgA2 = blob_image((8, 8), [(3.5, 3.5)], [1.2], [1.0])
    imgB1 = blob_image((8, 8), [(1.5, 1.5)], [1.0], [1.0])
    imgB2 = blob_image((8, 8), [(6.0, 6.0)], [1.0], [1.0])

    space, ra1 = image_to_distribution(imgA1)
    _, ra2 = image_to_distribution(imgA2)
    _, rb1 = image_to_distribution(imgB1)
    _, rb2 = image_to_distribution(imgB2)
    c = cost_from_metric(space, p=1.0, metric="sqeuclidean")
    lam = 0.05 * cost_quantile(c, 0.5)
    n = 2000

    double = rcol_cb_bootstrap(resample_distribution(ra1, n, 1),
                               resample_distribution(ra2, n, 2),
                               c, lam, B=60, alpha=0.05, seed=7,
                               keep_replicates=True, tol=1e-7)
    cross = rcol_cb_bootstrap(resample_distribution(rb1, n, 3),
                              resample_distribution(rb2, n, 4),
                              c, lam, B=60, alpha=0.05, seed=8,
                              keep_replicates=True, tol=1e-7)
    diff = rcol_diff(double.curve, cross.curve, double.replicates,
                     cross.replicates, alpha=0.05)
    small = diff.thresholds <= np.quantile(diff.thresholds, 0.3)
    assert (diff.values[small] > 0).any()
    assert (diff.lower[small] > 0).any()  # band excludes zero somewhere small


def test_pipeline_memory_path_reduced_support():
    # resampling bounds the support, so only reduced cost blocks are built
    img_a = blob_image((16, 16), [(6.0, 6.0)], [2.5], [1.0], floor=1e-3)
    img_b = blob_image((16, 16), [(9.0, 9.0)], [3.0], [1.0], floor=1e-3)
    out = rcol_pipeline(img_a, img_b, n=400, seed=5, lam0=0.5, band="none")
    assert out.support_sizes[0] <= 256 and out.support_sizes[1] <= 256
    assert np.isclose(out.curve.values[-1], 1.0)
    assert (np.diff(out.curve.values) >= -1e-12).all()


def test_pipeline_deterministic():
    img_a = blob_image((6, 6), [(2.0, 2.0)], [1.0], [1.0])
    img_b = blob_image((6, 6), [(3.5, 3.0)], [1.2], [1.0])
    a = rcol_pipeline(img_a, img_b, n=200, seed=9, lam0=1.0, band="bootstrap",
                      B=50)
    b = rcol_pipeline(img_a, img_b, n=200, seed=9, lam0=1.0, band="bootstrap",
                      B=50)
    assert np.array_equal(a.curve.values, b.curve.values)
    assert np.array_equal(a.curve.lower, b.curve.lower)
    assert a.u_quantile == b.u_quantile


def test_pipeline_gaussian_band():
    img_a = blob_image((6, 6), [(2.0, 2.0)], [1.0], [1.0])
    img_b = blob_image((6, 6), [(3.5, 3.0)], [1.2], [1.0])
    out = rcol_pipeline(img_a, img_b, n=300, seed=10, lam0=1.0, band="gaussian",
                        draws=300)
    assert out.u_quantile > 0
    assert (out.curve.lower <= out.curve.values + 1e-12).all()


def test_band_sup_attained_on_jump_grid():
    # the limit process is a step function in t, so its sup over a dense grid
    # equals the sup over the distinct cost values
    rng = np.random.default_rng(12)
    c, r, s = random_instance(rng, 4)
    plan = sinkhorn_entropy(c, r, s, 0.8, tol=1e-10)
    action = plan_covariance_action(rg.entropy(), plan)
    from rotinf.coloc import _curve_values
    from rotinf import gaussian_limit_sampler
    draws = gaussian_limit_sampler(action, 50, seed=5)
    jumps = np.unique(c.entries)
    dense = np.linspace(0.0, jumps[-1], 2000)
    sup_jump = np.abs(_curve_values(c.entries, draws, jumps)).max(axis=-1)
    sup_dense = np.abs(_curve_values(c.entries, draws, dense)).max(axis=-1)
    assert (sup_dense <= sup_jump + 1e-15).all()
    assert np.allclose(sup_jump, np.maximum(sup_jump, sup_dense))


def test_step_curve_evaluation():
    curve = RColCurve(thresholds=[1.0, 2.0], values=[0.3, 1.0])
    assert curve(0.5) == 0.0
    assert curve(1.0) == 0.3
    assert curve(1.7) == 0.3
    assert curve(2.0) == 1.0
    assert np.allclose(curve(np.array([0.0, 1.5, 9.0])), [0.0, 0.3, 1.0])
