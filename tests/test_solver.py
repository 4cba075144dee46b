import time
import warnings

import numpy as np
import pytest
from scipy.optimize import bisect, minimize_scalar
from scipy.spatial.distance import cdist

import rotinf.regularizers as rg
import rotinf.solver as sv
from rotinf import (ConvergenceError, CostVector, GroundSpace, Prob,
                    ReductionRequiredError, build_grid_space, cost_from_metric,
                    cost_quantile, divergence, dual_potentials, exact_ot_baseline,
                    ot_limit_sample, sinkhorn_entropy, solve_general,
                    solve_reduced)
from rotinf._util import rng_for
from rotinf.inference import dirichlet_sample, sinkhorn_statistic
from rotinf.solver import DEFAULT_TOL, newton_matrix, sinkhorn_matrix

from conftest import random_instance

CLOSED_FORM_A = 0.5 * np.e / (1.0 + np.e)  # symmetric N=2 plan diagonal at lam=1


def test_closed_form_two_point(two_point_cost, symmetric_half):
    plan = sinkhorn_entropy(two_point_cost, symmetric_half, symmetric_half, 1.0)
    assert abs(plan.matrix[0, 0] - CLOSED_FORM_A) < 1e-9
    assert abs(divergence(two_point_cost, plan) - 1.0 / (1.0 + np.e)) < 1e-9


def test_huge_lambda_gives_product_coupling():
    rng = np.random.default_rng(0)
    c, r, s = random_instance(rng, 5)
    plan = sinkhorn_entropy(c, r, s, 1e6, tol=1e-12)
    assert np.abs(plan.matrix - np.outer(r.weights, s.weights)).max() < 1e-4


def test_single_point_plan():
    c = cost_from_metric(GroundSpace([[0.0]]), p=1.0)
    one = Prob([1.0])
    plan = sinkhorn_entropy(c, one, one, 0.5)
    assert np.allclose(plan.entries, [1.0])
    assert divergence(c, plan) == 0.0


def test_marginal_feasibility_and_positivity():
    rng = np.random.default_rng(1)
    for N in (2, 4, 7):
        c, r, s = random_instance(rng, N)
        plan = sinkhorn_entropy(c, r, s, 0.3, tol=1e-10)
        P = plan.matrix
        assert np.abs(P.sum(axis=1) - r.weights).max() <= 1e-10
        assert np.abs(P.sum(axis=0) - s.weights).max() <= 1e-10
        assert abs(P.sum() - 1.0) < 1e-9
        assert P.min() > 0


def test_zero_marginal_rejected():
    c = cost_from_metric(GroundSpace([[0.0], [1.0]]), p=1.0)
    with pytest.raises(ReductionRequiredError):
        sinkhorn_entropy(c, Prob([0.0, 1.0]), Prob([0.5, 0.5]), 1.0)


def test_max_iter_exceeded_carries_residual(two_point_cost, symmetric_half):
    s = Prob([0.9, 0.1])
    with pytest.raises(ConvergenceError) as err:
        sinkhorn_matrix(two_point_cost.matrix, symmetric_half.weights, s.weights,
                        0.02, tol=1e-14, max_iter=2)
    assert err.value.residual is not None


def test_small_lambda_stability(two_point_cost):
    # exp(-c/lam) underflows badly at lam = 1e-4; stabilization must cope
    r = Prob([0.3, 0.7])
    s = Prob([0.6, 0.4])
    plan = sinkhorn_entropy(two_point_cost, r, s, 1e-4, tol=1e-10)
    # at vanishing regularization the plan approaches the exact optimum
    exact = exact_ot_baseline(two_point_cost, r, s)
    assert abs(np.dot(two_point_cost.entries, plan.entries) - exact.value) < 1e-3


def test_small_lambda_population_stall_finishes_in_newton():
    # the criterion-6 population: r against itself at lambda0 = 0.05 on the
    # 2 x 2 grid. Plain Sinkhorn stalls near residual 1.7e-7 and spends all
    # 100,000 iterations; the warm Newton hand-off finishes it in a few steps
    c = cost_from_metric(build_grid_space(2, 1.0), p=1.0)
    r = dirichlet_sample(1.0, 4, rng_for(21, 0)).weights
    lam = 0.05 * cost_quantile(c, 0.5)
    solve_reduced(c.matrix, r, r, 1.0, p=1.0)  # warm the imports out of the timing
    start = time.perf_counter()
    sol = solve_reduced(c.matrix, r, r, lam, p=1.0)
    elapsed = time.perf_counter() - start
    P = sol.plan.matrix
    assert sol.plan.iterations < 1000 and elapsed < 0.1
    assert np.abs(P.sum(axis=1) - r).max() <= DEFAULT_TOL
    # the column update after Newton keeps the columns exact
    assert np.abs(P.sum(axis=0) - r).max() <= 1e-15


def test_cold_equal_marginal_solve_skips_the_ladder():
    # r = s on six distinct points at lambda0 = 0.02: diag(r) is the unique
    # unregularized optimum, which the cold log-domain round already sits at.
    # Started from the cold-start ladder's potentials instead, the mass split
    # between point 3 and points {0, 4}, coupled by plan entries near 1e-8, is
    # off by 4e-8, and the solve spends all 100,000 iterations and fails
    X = np.array([[0.914, 0.268], [0.196, 0.213], [0.007, 0.814],
                  [0.882, 0.024], [0.904, 0.291], [0.351, 0.687]])
    C = cdist(X, X)
    r = np.array([0.053, 0.197, 0.241, 0.052, 0.412, 0.046])
    r = r / r.sum()
    sol = solve_reduced(C, r, r, 0.02 * np.median(C), p=1.0)
    P = sol.plan.matrix
    assert np.abs(np.concatenate([P.sum(axis=1) - r, P.sum(axis=0) - r])).max() <= DEFAULT_TOL


def test_newton_that_cannot_factor_its_gram_is_tried_again(monkeypatch):
    # a criterion-6 loop on the 2 x 2 grid at lambda0 = 0.02, n = 100 and tol
    # 1e-8: every replicate first stalls where its Gram cannot be factored, so
    # its first Newton stops at its first step. Tried again, each a window
    # twice as long later, Newtons finish replicates 14 and 2 in 319 and 2,000
    # iterations; with one try both spend all 20,000 and end at residual 7.5e-5
    outcomes = []
    real = sv._newton_stack

    def recorded(*args):
        U, V, taken, ok = real(*args)
        outcomes.extend(zip(taken.tolist(), ok.tolist()))
        return U, V, taken, ok

    monkeypatch.setattr(sv, "_newton_stack", recorded)
    c = cost_from_metric(build_grid_space(2, 1.0), p=1.0)
    r = dirichlet_sample(1.0, 4, rng_for(5004, 0))
    lam = 0.02 * cost_quantile(c, 0.5)
    sample = sinkhorn_statistic(r, r, c, lam, n=100, replicates=15, seed=5004,
                                studentize=False, tol=1e-8, max_iter=20_000)
    assert np.isfinite(sample.values).all()
    assert outcomes[:15] == [(1, False)] * 15
    assert any(ok for _, ok in outcomes)


def test_warm_start_checks_both_marginals():
    # the warm plan's rows already match r, so only its columns tell it from
    # the plan to (r, s); a warm solve must not return it unchanged
    C = 1.0 - np.eye(3)
    third = np.full(3, 1.0 / 3.0)
    s = np.array([0.5, 0.25, 0.25])
    for lam in (0.5, 0.002):
        warm = solve_reduced(C, third, third, lam, p=1.0).potentials
        P = solve_reduced(C, third, s, lam, p=1.0, init=warm).plan.matrix
        assert np.abs(P.sum(axis=0) - s).max() <= 1e-15
        assert np.abs(P.sum(axis=1) - third).max() <= DEFAULT_TOL


def test_newton_agrees_with_sinkhorn(monkeypatch):
    # at 0.1 and 0.05 times the median cost Sinkhorn stalls on the N = 10
    # instance and hands the solve to its warm Newton, which must agree too
    handoffs = []
    real = sv._newton_stack

    def counted(*args):
        handoffs.append(None)
        return real(*args)

    monkeypatch.setattr(sv, "_newton_stack", counted)
    rng = np.random.default_rng(2)
    for N, factors in ((2, [1.5]), (5, [1.5]), (10, [1.5, 0.1, 0.05])):
        c, r, s = random_instance(rng, N)
        for factor in factors:
            lam = factor * cost_quantile(c, 0.5)
            handoffs.clear()
            a = sinkhorn_entropy(c, r, s, lam, tol=1e-11)
            assert bool(handoffs) == (factor < 1.0)
            b = solve_general(rg.entropy(), c, r, s, lam, tol=1e-11)
            assert np.abs(a.entries - b.entries).max() < 1e-7


def test_entropy_solvers_run_different_methods(monkeypatch):
    # the agreement above compares two methods only while solve_general keeps
    # the dual Newton for entropy and sinkhorn_entropy keeps Sinkhorn
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("sinkhorn_matrix", "newton_matrix"):
        monkeypatch.setattr(sv, name, counted(name, getattr(sv, name)))
    c, r, s = random_instance(np.random.default_rng(3), 4)
    sinkhorn_entropy(c, r, s, 1.0)
    solve_general(rg.entropy(), c, r, s, 1.0)
    assert calls == ["sinkhorn_matrix", "newton_matrix"]


def test_newton_two_point_closed_form(two_point_cost, symmetric_half):
    plan = solve_general(rg.entropy(), two_point_cost, symmetric_half,
                         symmetric_half, 1.0, tol=1e-12)
    assert abs(plan.matrix[0, 0] - CLOSED_FORM_A) < 1e-8


def test_burg_two_point_bisection_oracle(two_point_cost, symmetric_half):
    lam = 1.0
    plan = solve_general(rg.burg(), two_point_cost, symmetric_half,
                         symmetric_half, lam, tol=1e-12)

    # 1-D reduction: symmetric plan [a, .5-a; .5-a, a]; stationarity of
    # 2(.5-a) + lam * (2*g(a) + 2*g(.5-a)) with g the Burg integrand
    def dF(a):
        h = lambda x: 1.0 - 1.0 / x
        return -2.0 + 2.0 * lam * (h(a) - h(0.5 - a))

    a_star = bisect(dF, 1e-12, 0.5 - 1e-12, xtol=1e-14)
    assert abs(plan.matrix[0, 0] - a_star) < 1e-9


@pytest.mark.parametrize("reg", [rg.entropy(), rg.burg(), rg.fermi_dirac(),
                                 rg.beta_potential(0.5), rg.lp_quasi(0.5)])
def test_huge_lambda_minimizes_penalty_alone(reg, two_point_cost):
    r = Prob([0.6, 0.4])
    s = Prob([0.3, 0.7])
    plan = solve_general(reg, two_point_cost, r, s, 1e8, tol=1e-12)

    # oracle: the feasible set is the segment a in (max(0, r1+s1-1), min(r1, s1));
    # minimize the penalty along it by direct 1-D search
    def seg(a):
        return np.array([a, r.weights[0] - a, s.weights[0] - a,
                         1.0 - r.weights[0] - s.weights[0] + a])

    lo = max(0.0, r.weights[0] + s.weights[0] - 1.0) + 1e-9
    hi = min(r.weights[0], s.weights[0]) - 1e-9
    res = minimize_scalar(lambda a: rg.value(reg, seg(a)), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12})
    assert abs(plan.matrix[0, 0] - res.x) < 1e-5


def test_cost_shift_leaves_plan_unchanged():
    rng = np.random.default_rng(3)
    c, r, s = random_instance(rng, 4)
    shifted = CostVector(entries=c.entries + 2.5, p=c.p, c_max=c.c_max)
    for reg in (rg.entropy(), rg.burg(), rg.lp_quasi(0.5)):
        a = solve_general(reg, c, r, s, 0.8, tol=1e-12)
        b = solve_general(reg, shifted, r, s, 0.8, tol=1e-12)
        assert np.abs(a.entries - b.entries).max() < 1e-9


def test_cost_monotone_in_lambda():
    rng = np.random.default_rng(4)
    c, r, s = random_instance(rng, 5)
    lams = [0.05, 0.1, 0.3, 1.0, 3.0]
    costs = [np.dot(c.entries, sinkhorn_entropy(c, r, s, l, tol=1e-11).entries)
             for l in lams]
    assert all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))


def test_divergence_pth_root(two_point_cost, symmetric_half):
    space = GroundSpace([[0.0], [1.0]])
    c2 = cost_from_metric(space, p=2.0)
    plan = sinkhorn_entropy(c2, symmetric_half, symmetric_half, 1.0)
    ip = np.dot(c2.entries, plan.entries)
    assert np.isclose(divergence(c2, plan), np.sqrt(ip))
    # distance 1 so the cost entries coincide with p=1; same closed form
    assert abs(plan.matrix[0, 0] - CLOSED_FORM_A) < 1e-9


def test_dual_potentials_reconstruct(two_point_cost, symmetric_half):
    plan = sinkhorn_entropy(two_point_cost, symmetric_half, symmetric_half, 1.0,
                            tol=1e-12)
    pots = dual_potentials(plan, two_point_cost)
    Z = two_point_cost.matrix + plan.lam * np.log(plan.matrix)
    assert pots.beta[-1] == 0.0
    assert np.abs(Z - pots.alpha[:, None] - pots.beta[None, :]).max() < 1e-10


def test_dual_potentials_product_plan():
    rng = np.random.default_rng(5)
    N = 4
    r = Prob.from_weights(rng.dirichlet(np.ones(N)))
    s = Prob.from_weights(rng.dirichlet(np.ones(N)))
    c0 = CostVector(entries=np.zeros(N * N), p=1.0, c_max=0.0)
    lam = 0.7
    plan = sinkhorn_entropy(c0, r, s, lam, tol=1e-13)
    pots = dual_potentials(plan, c0)
    expect_alpha = lam * np.log(r.weights) + lam * np.log(s.weights[-1])
    expect_beta = lam * np.log(s.weights) - lam * np.log(s.weights[-1])
    assert np.abs(pots.alpha - expect_alpha).max() < 1e-9
    assert np.abs(pots.beta - expect_beta).max() < 1e-9


def test_dual_potentials_single_point():
    c = cost_from_metric(GroundSpace([[0.0]]), p=1.0)
    one = Prob([1.0])
    pots = dual_potentials(sinkhorn_entropy(c, one, one, 1.0), c)
    assert np.allclose(pots.alpha, [0.0])
    assert np.allclose(pots.beta, [0.0])


def test_dual_potentials_rejects_non_entropy(two_point_cost, symmetric_half):
    plan = solve_general(rg.burg(), two_point_cost, symmetric_half,
                         symmetric_half, 1.0)
    with pytest.raises(ValueError):
        dual_potentials(plan, two_point_cost)


def test_solve_reduced_reembedding():
    rng = np.random.default_rng(6)
    c, r, s = random_instance(rng, 5)
    rw = r.weights.copy()
    rw[[1, 3]] = 0.0
    rw /= rw.sum()
    sol = solve_reduced(c, rw, s.weights, 0.5)
    full = sol.full_entries().reshape(5, 5)
    assert np.allclose(full[1], 0.0) and np.allclose(full[3], 0.0)
    assert np.abs(full.sum(axis=1) - rw).max() < 1e-9
    assert np.abs(full.sum(axis=0) - s.weights).max() < 1e-9


# ---------------------------------------------------------------------------
# Exact baseline


def test_exact_two_point_total_variation(two_point_cost):
    base = exact_ot_baseline(two_point_cost, Prob([0.7, 0.3]), Prob([0.5, 0.5]))
    assert abs(base.value - 0.2) < 1e-12


def test_exact_identity_zero():
    rng = np.random.default_rng(7)
    c, r, _ = random_instance(rng, 4)
    base = exact_ot_baseline(c, r, r)
    assert abs(base.value) < 1e-12


def test_exact_rejects_large_instance():
    c, r, s = random_instance(np.random.default_rng(8), 7)
    with pytest.raises(ValueError):
        exact_ot_baseline(c, r, s)


def test_exact_rejects_marginals_of_the_wrong_size():
    c = cost_from_metric(build_grid_space(2))
    for r, s in ((Prob([0.5, 0.5, 0.0]), Prob([0.25] * 4)),
                 (Prob([0.25] * 4), Prob([0.5, 0.5]))):
        with pytest.raises(ValueError, match=f"{r.dim} and {s.dim} entries; the cost has 4"):
            exact_ot_baseline(c, r, s)


def test_ot_limit_rejects_sizes_off_the_cost():
    c = cost_from_metric(build_grid_space(2))
    quarter = Prob([0.25] * 4)
    vertices = exact_ot_baseline(c, quarter, quarter).dual_vertices
    for r, verts in ((Prob([0.5, 0.5]), vertices), (quarter, vertices[:, :6]),
                     (quarter, np.zeros(4))):
        with pytest.raises(ValueError, match="on a cost of 4 points; need 4 and 8"):
            ot_limit_sample(c, r, verts, M=10, seed=1)


def test_regularized_cost_upper_bounds_exact():
    rng = np.random.default_rng(9)
    for _ in range(5):
        c, r, s = random_instance(rng, 4)
        base = exact_ot_baseline(c, r, s)
        gaps = []
        for lam in (1.0, 0.3, 0.1):
            plan = sinkhorn_entropy(c, r, s, lam, tol=1e-12)
            gaps.append(np.dot(c.entries, plan.entries) - base.value)
        assert all(g >= -1e-10 for g in gaps)
        assert all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))  # shrink as lam drops


def test_exact_duals_feasible_and_optimal():
    rng = np.random.default_rng(10)
    for _ in range(10):
        c, r, s = random_instance(rng, 5)
        base = exact_ot_baseline(c, r, s)
        C = c.matrix
        for vert in base.dual_vertices:
            u, v = vert[:5], vert[5:]
            assert (u[:, None] + v[None, :] - C).max() < 1e-7
            assert abs(np.dot(r.weights, u) + np.dot(s.weights, v) - base.value) < 1e-7


def test_exact_degenerate_has_many_duals():
    # r = s on distinct atoms: the diagonal plan is optimal and the dual face
    # is a polytope with several vertices
    c = cost_from_metric(GroundSpace([[0.0], [1.0], [2.5]]), p=1.0)
    r = Prob([0.3, 0.4, 0.3])
    base = exact_ot_baseline(c, r, r)
    assert abs(base.value) < 1e-12
    assert len(base.dual_vertices) >= 2


def test_ot_limit_singleton_vertex_gaussian(two_point_cost):
    # one vertex u: the limit is <G, u>, a centered Gaussian
    r = Prob([0.7, 0.3])
    u = np.array([1.0, -1.0, 0.0, 0.0])
    vals = ot_limit_sample(two_point_cost, r, u[None, :], M=40_000, seed=11)
    from scipy import stats
    sigma = np.sqrt(u[:2] @ (np.diag(r.weights) - np.outer(r.weights, r.weights)) @ u[:2])
    ks = stats.kstest(vals / sigma, "norm").statistic
    assert ks < 0.01


def test_ot_limit_dirac_all_zero(two_point_cost):
    r = Prob([1.0, 0.0])
    base = exact_ot_baseline(two_point_cost, r, r)
    vals = ot_limit_sample(two_point_cost, r, base.dual_vertices, M=100, seed=1)
    assert np.allclose(vals, 0.0)


def test_ot_limit_mean_matches_oversampled_oracle(two_point_cost, symmetric_half):
    base = exact_ot_baseline(two_point_cost, symmetric_half, symmetric_half)
    vals = ot_limit_sample(two_point_cost, symmetric_half, base.dual_vertices,
                           M=400_000, seed=12)
    # independent oracle: direct construction with an oversampled stream
    rng = np.random.default_rng(999)
    Z = rng.standard_normal((1_000_000, 2))
    w = symmetric_half.weights
    G = Z * np.sqrt(w) - np.outer(Z @ np.sqrt(w), w)
    U = base.dual_vertices[:, :2]
    oracle = (G @ U.T).max(axis=1)
    assert abs(vals.mean() / oracle.mean() - 1.0) < 0.01


@pytest.mark.parametrize("r_size, s_size", [(2, 3), (4, 3), (3, 2), (3, 5)])
def test_solve_reduced_rejects_marginal_size_mismatch(r_size, s_size):
    C = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    with pytest.raises(ValueError, match="do not match"):
        solve_reduced(C, np.full(r_size, 1.0 / r_size), np.full(s_size, 1.0 / s_size),
                      1.0, p=1.0)


@pytest.mark.parametrize("lam, tol", [(np.nan, 1e-9), (np.inf, 1e-9), (-1.0, 1e-9),
                                      (1.0, np.nan), (1.0, 0.0)])
@pytest.mark.parametrize("reg", [None, rg.burg()])
def test_solvers_refuse_bad_lambda_and_tol(two_point_cost, symmetric_half, lam, tol, reg):
    w = symmetric_half.weights
    with pytest.raises(ValueError, match="regularization strength|tolerance"):
        solve_reduced(two_point_cost, w, w, lam, reg=reg, tol=tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [
    lambda C, w: sinkhorn_matrix(C, w, w, 1.0),
    lambda C, w: newton_matrix(rg.entropy(), C, w, w, 1.0),
], ids=["sinkhorn", "newton"])
def test_solvers_refuse_nonfinite_cost_at_once(bad, solve):
    C = np.array([[0.0, bad], [1.0, 0.0]])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cost matrix must be finite"):
        solve(C, np.array([0.5, 0.5]))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [
    lambda C, r, s: sinkhorn_matrix(C, r, s, 1.0),
    lambda C, r, s: newton_matrix(rg.entropy(), C, r, s, 1.0),
], ids=["sinkhorn", "newton"])
def test_solvers_refuse_nonfinite_marginals_at_once(bad, solve):
    C = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    w = np.array([bad, 0.5, 0.5])
    start = time.perf_counter()
    for r, s in ((w, w[::-1]), (w[::-1], w)):
        with pytest.raises(ValueError, match="marginals must be finite"):
            solve(C, r, s)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("solve", [
    lambda C, r, s: sinkhorn_matrix(C, r, s, 1.0),
    lambda C, r, s: newton_matrix(rg.entropy(), C, r, s, 1.0),
], ids=["sinkhorn", "newton"])
def test_solvers_refuse_unequal_mass_at_once(solve):
    # Newton used to return a plan whose dropped last column summed to 0.4;
    # Sinkhorn ran all its iterations before raising ConvergenceError
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    start = time.perf_counter()
    for r, s in (([0.5, 0.4], [0.5, 0.5]), ([0.5, 0.5], [0.5, 0.4])):
        with pytest.raises(ValueError, match="equal mass"):
            solve(C, r, s)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5], [-0.2, 0.6, 0.6]],
                         ids=["nan", "negative"])
def test_solve_reduced_refuses_bad_weights(weights):
    C = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    good = np.full(3, 1.0 / 3.0)
    for r, s in ((weights, good), (good, weights)):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            solve_reduced(C, r, s, 1.0, p=1.0)


@pytest.mark.parametrize("init", [
    (np.zeros(3), np.full(3, np.nan)),
    (np.zeros(4), np.zeros(3)),
    (np.zeros(2), np.zeros(3)),
], ids=["nan", "long", "short"])
@pytest.mark.parametrize("solve", [
    lambda C, w, init: sinkhorn_matrix(C, w, w, 1.0, init=init),
    lambda C, w, init: solve_reduced(C, w, w, 1.0, p=1.0, init=init),
    lambda C, w, init: list(sv.solve_replicates(C, w[None], w[None], 1.0, init)),
], ids=["sinkhorn_matrix", "solve_reduced", "solve_replicates"])
def test_warm_starts_are_refused_before_any_iteration(monkeypatch, init, solve):
    # a NaN potential used to run all 100,000 iterations and fail on residual
    # nan; solve_reduced cut a long one short and indexed past a short one
    def no_iteration(*args):
        raise AssertionError("a Sinkhorn iteration ran")

    monkeypatch.setattr(sv, "_sinkhorn_stack", no_iteration)
    C = 1.0 - np.eye(3)
    with pytest.raises(ValueError, match="warm-start potentials"):
        solve(C, np.full(3, 1.0 / 3.0), init)


def test_newton_line_search_overflow_is_rejected_quietly():
    # a trial point of this instance overflows pi @ y; it must be rejected as
    # infeasible without a RuntimeWarning leaking out
    C = np.array([[1.9756282418523599, 1.5943875993513277, 1.250352414565723],
                  [1.0560779248714491, 0.12186673956271454, 2.9489012117365463],
                  [0.2255918654590956, 0.07639826948162332, 0.6459087540181682]])
    r = np.array([0.0440770690821529, 0.3596454580540866, 0.5962774728637604])
    s = np.array([0.10266432203740324, 0.00177149725538628, 0.8955641807072104])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pi, _, _, res = newton_matrix(rg.entropy(), C, r, s, 0.1)
    P = pi.reshape(3, 3)
    assert res <= 1e-9
    assert np.abs(P.sum(axis=1) - r).max() <= 1e-9
    assert np.abs(P.sum(axis=0) - s).max() <= 1e-9
