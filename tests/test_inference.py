import numpy as np
import pytest
from scipy import stats

import rotinf.regularizers as rg
from rotinf import (ConvergenceError, MCConfig, NumericalError, Prob, bootstrap_statistic,
                    build_grid_space, confidence_interval, cost_from_metric,
                    cost_quantile, dirichlet_sample, empirical_distribution,
                    gaussian_limit_sampler, ks_distance, mc_experiment,
                    plan_covariance, plan_covariance_action, sinkhorn_entropy,
                    sinkhorn_statistic)
from rotinf.solver import solve_reduced

from conftest import random_instance


def test_dirichlet_dim_one():
    assert np.allclose(dirichlet_sample(1.0, 1, 0).weights, [1.0])


def test_dirichlet_moments():
    dim, alpha, M = 5, 1.0, 100_000
    rng = np.random.default_rng(1)
    draws = np.array([dirichlet_sample(alpha, dim, rng).weights for _ in range(M)])
    assert np.abs(draws.mean(axis=0) - 1.0 / dim).max() < 0.01 / dim * 5
    var_expect = (dim - 1.0) / (dim ** 2 * (dim * alpha + 1.0))
    assert np.abs(draws.var(axis=0) / var_expect - 1.0).max() < 0.02


def test_dirichlet_rejects_bad_alpha():
    with pytest.raises(ValueError):
        dirichlet_sample(0.0, 3, 0)


def test_ks_distance_oracles():
    rng = np.random.default_rng(2)
    sample = rng.standard_normal(10_000)
    assert ks_distance(sample, "normal") < 0.02  # DKW at this size
    # constant sample against the normal: step function geometry
    v = 0.7
    expect = max(stats.norm.cdf(v), 1.0 - stats.norm.cdf(v))
    assert np.isclose(ks_distance(np.full(50, v), "normal"), expect)
    # identical samples under the two-sample variant
    assert ks_distance(sample, sample) == 0.0


def test_ks_distance_equals_scipys_statistic():
    # sizes from 1, a third of the samples with ties, against the normal, a
    # second CDF and a second sample of another size, shifted, with ties within
    # and across the samples; the direct formulas must give scipy's statistic
    # to the bit
    rng = np.random.default_rng(21)
    for k in range(300):
        size = 1 + k % 60
        x = rng.standard_normal(size)
        other = rng.standard_normal(1 + 7 * k % 45) + 0.5 * rng.standard_normal()
        if k % 3 == 0:
            x, other = np.round(x, 1), np.round(other, 1)
        assert ks_distance(x, "normal") == stats.kstest(x, stats.norm.cdf).statistic
        y = np.abs(x)
        assert ks_distance(y, stats.expon.cdf) == stats.kstest(y, stats.expon.cdf).statistic
        assert ks_distance(x, other) == stats.ks_2samp(x, other).statistic
        assert ks_distance(other, x) == stats.ks_2samp(other, x).statistic
    for x in ([0.3], [0.0, 0.0, 0.0], [-1.0, 2.0, 2.0, 2.0]):
        assert ks_distance(x, "normal") == stats.kstest(x, stats.norm.cdf).statistic
    for x, other in (([0.3], [0.3]), ([0.3], [-0.1]), ([0.3], [0.0, 0.3, 0.3, 1.0]),
                     ([2.0, 2.0, -1.0], [2.0, 0.5]), ([0.0, 1.0, 2.0], [1.0])):
        assert ks_distance(x, other) == stats.ks_2samp(x, other).statistic
    assert np.isnan(ks_distance([0.3, np.nan], [0.1]))
    with pytest.raises(ValueError, match="nonempty"):
        ks_distance([], [0.1])


def test_sinkhorn_statistic_dirac_zero(two_point_cost):
    r = Prob([1.0, 0.0])
    dist = sinkhorn_statistic(r, r, two_point_cost, 1.0, n=10, replicates=20, seed=0)
    assert np.allclose(dist.values, 0.0)


def test_sinkhorn_statistic_deterministic_and_thread_invariant():
    rng = np.random.default_rng(3)
    c, r, s = random_instance(rng, 4)
    a = sinkhorn_statistic(r, s, c, 1.0, n=50, replicates=40, seed=7)
    b = sinkhorn_statistic(r, s, c, 1.0, n=50, replicates=40, seed=7)
    assert np.array_equal(a.values, b.values)


def test_studentized_statistic_is_pivotal():
    # KS to the standard normal shrinks with n (one inversion allowed)
    rng = np.random.default_rng(4)
    space = build_grid_space(3, 1.0)
    c = cost_from_metric(space, p=1.0)
    r = Prob.from_weights(rng.dirichlet(np.ones(9)))
    lam = 2.0 * cost_quantile(c, 0.5)
    ks = []
    for n in (25, 100, 1000):
        dist = sinkhorn_statistic(r, r, c, lam, n=n, replicates=10_000, seed=11,
                                  studentize=True)
        ks.append(ks_distance(dist, "normal"))
    drops = sum(1 for a, b in zip(ks, ks[1:]) if b < a)
    assert drops >= 1 and ks[-1] < ks[0]


def test_bootstrap_dirac_zero(two_point_cost):
    r_hat = empirical_distribution([0] * 12, 2)
    dist = bootstrap_statistic(r_hat, Prob([1.0, 0.0]), two_point_cost, 1.0,
                               B=25, seed=1)
    assert np.allclose(dist.values, 0.0)


def test_bootstrap_centering_rate():
    # the sample mean settles onto the (small) bootstrap expectation at the
    # usual 1/sqrt(B) rate
    rng = np.random.default_rng(5)
    c, r, s = random_instance(rng, 4)
    lam = 1.0
    draws = rng.choice(4, size=400, p=r.weights)
    r_hat = empirical_distribution(draws, 4)
    reference = bootstrap_statistic(r_hat, s, c, lam, B=6400, seed=8)
    center = reference.values.mean()
    assert abs(center) < 3.0 * reference.values.std(ddof=1) / np.sqrt(6400) + 0.05
    for B in (100, 400):
        dist = bootstrap_statistic(r_hat, s, c, lam, B=B, seed=9)
        sd = dist.values.std(ddof=1)
        assert abs(dist.values.mean() - center) < 3.0 * sd / np.sqrt(B)


def test_studentized_statistic_of_plans_at_zero_cost_under_a_root():
    # every replicate of a Dirac sits at zero cost, where the square root has no
    # gradient, so the stacked variance is left with an empty stack
    c = cost_from_metric(build_grid_space(2), p=2.0)
    dirac = Prob(np.eye(4)[1])
    with pytest.raises(NumericalError, match="3 of 3 replicates failed.*not differentiable "
                                             "at zero transport cost"):
        sinkhorn_statistic(dirac, dirac, c, 0.5, n=10, replicates=3, seed=0)


def failing_runs(real, fails, error):
    """``real``, the batched solver, with replicate k failed where fails(k): its plan
    NaN and its error ``error("synthetic replicate failure")``."""
    def flaky(*args, **kwargs):
        lo = 0
        for P, R, S, counts, errors in real(*args, **kwargs):
            for b in range(len(P)):
                if fails(lo + b):
                    P[b], errors[b] = np.nan, error("synthetic replicate failure")
            lo += len(P)
            yield P, R, S, counts, errors
    return flaky


def test_mc_experiment_aggregates_replicate_failures(monkeypatch):
    import rotinf.inference as inf_mod

    monkeypatch.setattr(inf_mod.sv, "solve_replicates", failing_runs(
        inf_mod.sv.solve_replicates, lambda k: k % 3 == 1, ConvergenceError))
    cfg = MCConfig(L=2, lambda0=(2.0,), n=(15,), replicates=30, seed=17)
    with pytest.raises(ConvergenceError, match="replicates failed"):
        mc_experiment(cfg)


def test_bootstrap_plan_mean_clt():
    # entrywise mean of the recentered bootstrap plans shrinks like 1/sqrt(B)
    rng = np.random.default_rng(6)
    c, r, s = random_instance(rng, 3)
    lam = 0.8
    draws = rng.choice(3, size=300, p=r.weights)
    r_hat = empirical_distribution(draws, 3)
    base = solve_reduced(c.matrix, r_hat.weights, s.weights, lam, p=1.0)
    base_full = base.full_entries()
    n = 300

    def boot_plan_mean(B, seed):
        from rotinf._util import rng_for
        acc = np.zeros_like(base_full)
        for k in range(B):
            rstar = rng_for(seed, k).multinomial(n, r_hat.weights) / n
            sol = solve_reduced(c.matrix, rstar, s.weights, lam, p=1.0)
            acc += np.sqrt(n) * (sol.full_entries() - base_full)
        return acc / B

    m100 = np.abs(boot_plan_mean(100, 1)).max()
    m1600 = np.abs(boot_plan_mean(1600, 2)).max()
    assert m1600 < m100  # 4x more replicates shrink the mean fluctuation


def test_gaussian_limit_sampler_moments():
    rng = np.random.default_rng(7)
    c, r, s = random_instance(rng, 3)
    plan = sinkhorn_entropy(c, r, s, 0.7, tol=1e-12)
    action = plan_covariance_action(rg.entropy(), plan)
    dense = plan_covariance(rg.entropy(), plan).sigma_plan
    draws = gaussian_limit_sampler(action, 100_000, seed=3)
    emp = np.cov(draws.T)
    scale = np.abs(dense).max()
    mc_err = 3.0 * scale / np.sqrt(draws.shape[0] / 3.0)
    assert np.abs(emp - dense).max() < mc_err
    # linear functional variance
    v = c.entries
    var_expect = v @ dense @ v
    var_emp = (draws @ v).var(ddof=1)
    assert abs(var_emp / var_expect - 1.0) < 0.02


def test_gaussian_limit_sampler_zero_cov(two_point_cost):
    r = Prob([1.0])
    sol = solve_reduced(two_point_cost.matrix[:1, :], r.weights, [0.5, 0.5], 1.0, p=1.0)
    action = plan_covariance_action(rg.entropy(), sol.plan)
    draws = gaussian_limit_sampler(action, 50, seed=0)
    assert np.abs(draws).max() < 1e-14


def test_confidence_interval_scaling():
    lo1, hi1 = confidence_interval(1.0, 0.25, 100, alpha=0.05)
    lo2, hi2 = confidence_interval(1.0, 0.25, 400, alpha=0.05)
    assert np.isclose((hi1 - lo1) / (hi2 - lo2), 2.0)
    lo, hi = confidence_interval(1.0, 0.25, 100, alpha=0.05, m=100)
    assert np.isclose(hi - lo, (hi1 - lo1) * np.sqrt(2.0))


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(L=2, lambda0=(1.0,), n=(10,), replicates=0, seed=0)
    with pytest.raises(ValueError):
        MCConfig(L=2, lambda0=(-1.0,), n=(10,), replicates=5, seed=0)
    with pytest.raises(ValueError):
        MCConfig(L=2, lambda0=(1.0,), n=(10,), replicates=5, seed=0, mode="nope")
    with pytest.raises(ValueError):
        MCConfig(L=2, lambda0=(1.0,), n=(10,), replicates=5, seed=0,
                 compare_ot_limit=True)  # needs studentize=False
    with pytest.raises(ValueError, match="one-sample 'mode'.*mode='two_sample'"):
        MCConfig(L=2, lambda0=(1.0,), n=(10,), replicates=5, seed=0, studentize=False,
                 compare_ot_limit=True, mode="two_sample")
    for mode in ("one_sample_eq", "one_sample_neq"):
        MCConfig(L=2, lambda0=(1.0,), n=(10,), replicates=5, seed=0, studentize=False,
                 compare_ot_limit=True, mode=mode)


def test_mc_experiment_deterministic_rerun():
    cfg = MCConfig(L=2, lambda0=(2.0, 0.5), n=(20,), replicates=60, seed=13)
    a = mc_experiment(cfg)
    b = mc_experiment(cfg)
    for ca, cb in zip(a.cells, b.cells):
        assert np.array_equal(ca.sample.values, cb.sample.values)
        assert ca.ks_normal == cb.ks_normal


def test_mc_experiment_two_sample_mode():
    cfg = MCConfig(L=2, lambda0=(1.5,), n=(40,), replicates=80, seed=14,
                   mode="two_sample")
    rep = mc_experiment(cfg)
    assert rep.cells[0].sample.values.size == 80
    assert np.isfinite(rep.cells[0].ks_normal)


def test_mc_experiment_lambda_of_n_preset():
    cfg = MCConfig(L=2, lambda0=(1.0,), n=(100,), replicates=30, seed=15,
                   lambda_of_n=True, kappa=1.0)
    rep = mc_experiment(cfg)
    assert np.isclose(rep.cells[0].lam, 1.0 / np.log(np.sqrt(100)))


def test_mc_cell_qq_data():
    cfg = MCConfig(L=2, lambda0=(2.0,), n=(30,), replicates=50, seed=16)
    rep = mc_experiment(cfg)
    v, q = rep.cells[0].qq_data()
    assert v.size == q.size == 50
    assert (np.diff(v) >= 0).all()


@pytest.mark.parametrize("name, value", [("replicates", 0), ("replicates", -1),
                                         ("replicates", 2.5), ("n", 0), ("n", -2),
                                         ("n", 2.5)])
def test_statistics_refuse_bad_counts_before_solving(monkeypatch, two_point_cost, name, value):
    import rotinf.inference as inf_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating")

    monkeypatch.setattr(inf_mod.sv, "solve_reduced", no_solve)
    half = Prob([0.5, 0.5])
    kwargs = {"n": 10, "replicates": 5, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1"):
        sinkhorn_statistic(half, half, two_point_cost, 1.0, seed=0, **kwargs)
    bad = "B" if name == "replicates" else "n"
    with pytest.raises(ValueError, match=f"^{bad} must be an integer of at least 1"):
        bootstrap_statistic(half, half, two_point_cost, 1.0, seed=0,
                            **{"n": 10, "B": 5, bad: value})


def test_mc_config_refuses_sample_sizes_below_one():
    for n in ((0,), (10, -2), ()):
        with pytest.raises(ValueError, match="MCConfig key 'n' must hold sample sizes"):
            MCConfig(L=2, lambda0=(1.0,), n=n, replicates=5, seed=0)


def test_interval_and_bootstrap_refuse_degenerate_sizes(two_point_cost):
    with pytest.raises(ValueError, match="at least 1"):
        confidence_interval(0.1, 0.5, 0)
    with pytest.raises(ValueError, match="at least 1"):
        confidence_interval(0.1, 0.5, 10, m=-2)
    r_hat = empirical_distribution(np.array([0, 1, 1]), 2)
    with pytest.raises(ValueError, match="at least two"):
        bootstrap_statistic(r_hat, Prob([0.5, 0.5]), two_point_cost, 1.0, B=1, seed=0)


@pytest.fixture
def fail_replicates(monkeypatch):
    """Make the solves of the given replicate indices fail with a NumericalError."""
    import rotinf.solver as sv_mod

    real = sv_mod.solve_replicates

    def install(indices):
        monkeypatch.setattr(sv_mod, "solve_replicates",
                            failing_runs(real, indices.__contains__, NumericalError))
    return install


def test_statistics_raise_the_failed_replicates_error(fail_replicates):
    rng = np.random.default_rng(12)
    c, r, s = random_instance(rng, 4)
    fail_replicates({7})
    with pytest.raises(NumericalError, match=r"1 of 20 replicates failed.*replicate 7: synthetic"):
        sinkhorn_statistic(r, s, c, 0.8, n=40, replicates=20, seed=1)
    fail_replicates({3})
    r_hat = empirical_distribution(rng.choice(4, size=50, p=r.weights), 4)
    with pytest.raises(NumericalError, match=r"1 of 20 replicates failed.*replicate 3: synthetic"):
        bootstrap_statistic(r_hat, s, c, 0.8, B=20, seed=2)


def test_mc_cell_raises_the_failed_replicates_error(fail_replicates):
    fail_replicates({4})
    cfg = MCConfig(L=2, lambda0=(2.0,), n=(15,), replicates=30, seed=17)
    with pytest.raises(NumericalError, match=r"1 of 30 replicates failed.*replicate 4"):
        mc_experiment(cfg)


def test_bootstrap_band_failure_rate(fail_replicates):
    from rotinf.coloc import rcol_cb_bootstrap, resample_distribution

    rng = np.random.default_rng(13)
    c, r, s = random_instance(rng, 3)
    r_hat = resample_distribution(r, 100, seed=1)
    s_hat = resample_distribution(s, 100, seed=2)
    fail_replicates({5, 10, 15, 20})  # 4 of 60 exceeds the 5% rate
    with pytest.raises(NumericalError, match=r"4 of 60 replicates failed.*replicate 5"):
        rcol_cb_bootstrap(r_hat, s_hat, c, 0.8, B=60, seed=3)
    fail_replicates({8, 30})
    band = rcol_cb_bootstrap(r_hat, s_hat, c, 0.8, B=60, seed=3, keep_replicates=True)
    assert band.failures == 2
    failed = np.isnan(band.replicates).all(axis=1)
    assert np.flatnonzero(failed).tolist() == [8, 30]
    assert np.isfinite(band.replicates[~failed]).all()
