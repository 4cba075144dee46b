"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a PASS/FAIL line (run with -s to see them live). The
stochastic criteria pin their seeds, so every reported number is bit-stable
across reruns and thread counts.
"""

import json
import time

import numpy as np
from click.testing import CliRunner

import rotinf.regularizers as rg
from rotinf import (GroundSpace, MCConfig, Prob, bootstrap_statistic,
                    build_grid_space, cost_from_metric, cost_quantile,
                    divergence, empirical_distribution, entropy_block_schur,
                    exact_ot_baseline, ks_distance, mc_experiment, plan_gradient,
                    rcol, rcol_cb_bootstrap, rcol_cb_gaussian,
                    resample_distribution, sinkhorn_entropy, sinkhorn_statistic,
                    solve_general)
from rotinf import coloc, sensitivity as sens
from rotinf._util import rng_for
from rotinf.cli import main as rot_main
from rotinf.solver import _reduced_gram, sinkhorn_matrix, solve_reduced
from rotinf.space import ConstraintOperator

from conftest import blob_image, random_instance


def report(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_closed_form_solve():
    space = GroundSpace([[0.0], [1.0]])
    c = cost_from_metric(space, p=1.0)
    half = Prob([0.5, 0.5])
    sinkhorn_entropy(c, half, half, 1.0)  # warm the code path once
    t0 = time.perf_counter()
    plan = sinkhorn_entropy(c, half, half, 1.0)
    elapsed = time.perf_counter() - t0
    diag_err = abs(plan.matrix[0, 0] - 0.365529)
    div_err = abs(divergence(c, plan) - 0.268941)
    ok = diag_err < 1e-6 and div_err < 1e-6 and elapsed < 1e-3
    report(1, "closed-form solve", ok,
           f"diag err {diag_err:.2e}, divergence err {div_err:.2e}, "
           f"runtime {elapsed * 1e3:.3f} ms")


def test_criterion_02_sensitivity_correctness():
    t0 = time.perf_counter()
    kinds = [rg.entropy(), rg.burg(), rg.fermi_dirac(),
             rg.beta_potential(0.5), rg.lp_quasi(0.5)]
    rng = np.random.default_rng(20)
    worst_fd = 0.0
    worst_id = 0.0
    cases = [(kind, N) for kind in kinds for N in (2, 3, 5)]
    cases += [(kind, 3) for kind in kinds]  # 20 instances total
    assert len(cases) == 20
    for kind, N in cases:
        c, r, s = random_instance(rng, N, alpha=4.0)
        lam = 1.5 * cost_quantile(c, 0.5)
        plan = solve_general(kind, c, r, s, lam, tol=1e-12)
        sr = plan_gradient(kind, plan)
        A = ConstraintOperator(N).materialize_reduced()
        worst_id = max(worst_id, np.abs(A @ sr.grad_phi - np.eye(2 * N - 1)).max())
        h = 1e-5
        vr = rng.normal(size=N)
        vr -= vr.mean()
        vs = rng.normal(size=N - 1)

        def resolve(eps):
            r2 = Prob(r.weights + eps * vr)
            sw = s.weights.copy()
            sw[:-1] += eps * vs
            sw[-1] -= eps * vs.sum()
            return solve_general(kind, c, r2, Prob(sw), lam, tol=1e-12).entries

        fd = (resolve(h) - resolve(-h)) / (2 * h)
        pred = sr.grad_phi @ np.concatenate([vr, vs])
        worst_fd = max(worst_fd, np.abs(fd - pred).max() / np.abs(fd).max())
    elapsed = time.perf_counter() - t0
    ok = worst_fd < 1e-4 and worst_id < 1e-9 and elapsed < 10.0
    report(2, "sensitivity gradient", ok,
           f"worst FD rel err {worst_fd:.2e}, worst A*grad-I {worst_id:.2e}, "
           f"{elapsed:.1f} s")


def test_criterion_03_block_schur_equivalence():
    rng = np.random.default_rng(30)
    worst = 0.0
    for N in range(2, 9):
        c, r, s = random_instance(rng, N)
        plan = sinkhorn_entropy(c, r, s, 0.7, tol=1e-12)
        dense = np.linalg.inv(_reduced_gram(plan.matrix))[:, :N]
        worst = max(worst, np.abs(entropy_block_schur(plan) - dense).max())
    report(3, "block-Schur inversion", worst < 1e-10, f"worst deviation {worst:.2e}")


def test_criterion_04_variance_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    space = build_grid_space(2, 1.0)
    c = cost_from_metric(space, p=1.0)
    r = Prob.from_weights(rng.dirichlet(np.ones(4)))
    s = Prob.from_weights(rng.dirichlet(np.ones(4)))
    lam = 2.0 * cost_quantile(c, 0.5)
    base = solve_reduced(c.matrix, r.weights, s.weights, lam, p=1.0)
    action = sens.plan_covariance_action(base.plan.reg, base.plan, "one_sample")
    gamma = sens.divergence_gradient(base.cost.ravel(), base.plan, p=1.0)
    sigma2 = action.quad_form(gamma)
    dist = sinkhorn_statistic(r, s, c, lam, n=1000, replicates=20_000, seed=3,
                              studentize=False)
    rel = abs(dist.values.var(ddof=1) / sigma2 - 1.0)
    elapsed = time.perf_counter() - t0
    ok = rel < 0.05 and elapsed < 300.0
    report(4, "variance vs Monte Carlo", ok,
           f"sigma2 {sigma2:.5f}, empirical {dist.values.var(ddof=1):.5f}, "
           f"rel err {rel:.3f}, {elapsed:.0f} s")


def test_criterion_05_limit_law_normality():
    cfg = MCConfig(L=4, lambda0=(2.0, 0.6, 0.2), n=(25,), replicates=20_000, seed=1)
    rep = mc_experiment(cfg)
    ks = {cell.lambda0: cell.ks_normal for cell in rep.cells}
    ok = ks[2.0] < 0.05 and ks[2.0] < ks[0.6] < ks[0.2]
    report(5, "limit-law normality and lambda trend", ok,
           f"KS at lambda0 2/0.6/0.2 = {ks[2.0]:.4f}/{ks[0.6]:.4f}/{ks[0.2]:.4f}")


def test_criterion_06_ot_limit_comparison():
    cfg = MCConfig(L=2, lambda0=(0.05,), n=(25,), replicates=20_000, seed=21,
                   studentize=False, compare_ot_limit=True)
    rep = mc_experiment(cfg)
    cell = rep.cells[0]
    ok = cell.ks_ot_limit < cell.ks_normal
    report(6, "non-regularized limit comparison", ok,
           f"KS to transport limit {cell.ks_ot_limit:.4f} < "
           f"KS to Gaussian {cell.ks_normal:.4f}")


def test_criterion_07_bootstrap_consistency():
    rng = np.random.default_rng(11)
    space = build_grid_space(2, 1.0)
    c = cost_from_metric(space, p=1.0)
    r = Prob.from_weights(rng.dirichlet(np.ones(4)))
    lam = 2.0 * cost_quantile(c, 0.5)
    mc = sinkhorn_statistic(r, r, c, lam, n=100, replicates=20_000, seed=5,
                            studentize=False)
    draws = np.random.default_rng(77).choice(4, size=100, p=r.weights)
    r_hat = empirical_distribution(draws, 4)
    boot = bootstrap_statistic(r_hat, r, c, lam, B=500, seed=6)
    ks = ks_distance(boot, mc)
    report(7, "bootstrap consistency", ks < 0.1, f"KS(bootstrap, MC) = {ks:.4f}")


def test_criterion_08_regularization_gap_decay():
    # unit-spaced line: every positive reduced cost is at least one, so the
    # gap decays like exp(-1/lam); the gap is evaluated through an optimal
    # dual's reduced costs, which keeps sub-1e-12 gaps at full relative
    # precision instead of differencing two O(1) objective values
    space = GroundSpace([[0.0], [1.0], [2.0], [3.0]])
    c = cost_from_metric(space, p=1.0)
    C = c.matrix
    q50 = cost_quantile(c, 0.5)
    lams = np.array([1.0, 0.5, 0.2, 0.1, 0.05]) * q50
    rng = np.random.default_rng(0)
    sup_gaps = np.zeros(lams.size)
    all_nonneg = True
    all_monotone = True
    for _ in range(50):
        r = rng.dirichlet(np.ones(4))
        s = rng.dirichlet(np.ones(4))
        base = exact_ot_baseline(c, Prob(r), Prob(s))
        u, v = base.dual_vertices[0][:4], base.dual_vertices[0][4:]
        rc = np.clip(C - u[:, None] - v[None, :], 0.0, None)
        gaps = []
        for i, lam in enumerate(lams):
            P, *_ = sinkhorn_matrix(C, r, s, lam, tol=1e-11, max_iter=300_000)
            gaps.append(float((rc * P).sum()))
            sup_gaps[i] = max(sup_gaps[i], gaps[-1])
        all_nonneg &= min(gaps) >= 0.0
        all_monotone &= all(b <= a * (1 + 1e-9) for a, b in zip(gaps, gaps[1:]))
    slope = np.polyfit(1.0 / lams, np.log(sup_gaps), 1)[0]
    ok = all_nonneg and all_monotone and slope <= -0.9
    report(8, "regularization gap decay", ok,
           f"nonneg {all_nonneg}, monotone {all_monotone}, "
           f"log-gap slope {slope:.3f} <= -0.9")


def test_criterion_09_rcol_structure_and_coverage():
    t0 = time.perf_counter()
    # structure on 50 random instances
    rng = np.random.default_rng(90)
    structure_ok = True
    for _ in range(50):
        N = int(rng.integers(2, 7))
        c, r, s = random_instance(rng, N)
        curve = rcol(sinkhorn_entropy(c, r, s, 0.6, tol=1e-10), c)
        structure_ok &= bool((np.diff(curve.values) >= -1e-12).all())
        structure_ok &= np.isclose(curve.values[-1], 1.0)

    # two-point fixture jump heights
    c2 = cost_from_metric(GroundSpace([[0.0], [1.0]]), p=1.0)
    half = Prob([0.5, 0.5])
    curve2 = rcol(sinkhorn_entropy(c2, half, half, 1.0), c2)
    fixture_ok = abs(curve2(0.0) - 0.731059) < 1e-6 and np.isclose(curve2.values[-1], 1.0)

    # Gaussian band coverage, one-sample, N=16, n=500, lambda0=2, alpha=0.05
    space = build_grid_space(4, 1.0)
    c4 = cost_from_metric(space, p=1.0)
    pop_rng = np.random.default_rng(1)
    r4 = Prob.from_weights(pop_rng.dirichlet(np.ones(16)))
    s4 = Prob.from_weights(pop_rng.dirichlet(np.ones(16)))
    lam4 = 2.0 * cost_quantile(c4, 0.5)
    pop_curve = rcol(sinkhorn_entropy(c4, r4, s4, lam4, tol=1e-10), c4)
    n = 500
    covered = 0
    for rep_idx in range(200):
        rhat = rng_for(7, rep_idx).multinomial(n, r4.weights) / n
        sol = solve_reduced(c4.matrix, rhat, s4.weights, lam4, p=1.0)
        action = sens.plan_covariance_action(rg.entropy(), sol.plan, "one_sample")
        banded = rcol_cb_gaussian(sol.plan, action, sol.cost.ravel(), n=n,
                                  alpha=0.05, draws=2000, seed=rep_idx)
        covered += banded.band_covers(pop_curve)
    gauss_cov = covered / 200.0

    # bootstrap band coverage pattern on 8x8 phantom crops, n=2000, B=100
    img_a = blob_image((8, 8), [(3.0, 3.0)], [1.6], [1.0])
    img_b = blob_image((8, 8), [(4.2, 4.0)], [1.8], [1.0])
    space8, r8 = coloc.image_to_distribution(img_a)
    _, s8 = coloc.image_to_distribution(img_b)
    c8 = cost_from_metric(space8, p=1.0, metric="sqeuclidean")
    q50 = cost_quantile(c8, 0.5)
    boot_cov = {}
    for lam0 in (2.0, 1.0, 0.5, 0.01):
        lam = lam0 * q50
        pop8 = rcol(sinkhorn_entropy(c8, r8, s8, lam, tol=1e-9, max_iter=300_000), c8)
        hits = 0
        for rep_idx in range(100):
            rhat = resample_distribution(r8, 2000, rng_for(100, rep_idx, 0))
            shat = resample_distribution(s8, 2000, rng_for(100, rep_idx, 1))
            band = rcol_cb_bootstrap(rhat, shat, c8, lam, B=100, alpha=0.05,
                                     seed=rep_idx, tol=1e-7)
            hits += band.curve.band_covers(pop8)
        boot_cov[lam0] = hits / 100.0

    # Table-2 pattern: near-nominal coverage at moderate regularization,
    # degradation at lambda0 = 0.01; 100 repetitions resolve differences only
    # to about two percentage points, hence the allowance
    seq = [boot_cov[2.0], boot_cov[1.0], boot_cov[0.5], boot_cov[0.01]]
    noise = 0.03
    pattern_ok = all(b <= a + noise for a, b in zip(seq, seq[1:]))
    pattern_ok &= all(v >= 0.90 for v in seq[:3])
    pattern_ok &= boot_cov[0.01] <= boot_cov[2.0]

    elapsed = time.perf_counter() - t0
    ok = (structure_ok and fixture_ok and 0.90 <= gauss_cov <= 1.0
          and pattern_ok and elapsed < 1200.0)
    report(9, "colocalization structure and coverage", ok,
           f"structure {structure_ok}, fixture {fixture_ok}, gaussian coverage "
           f"{gauss_cov:.3f}, bootstrap coverage "
           + "/".join(f"{boot_cov[k]:.2f}" for k in (2.0, 1.0, 0.5, 0.01))
           + f", {elapsed:.0f} s")


def test_memory_path_large_phantom():
    # companion to the criteria: the resampling path on a 64 x 64 phantom at
    # n = 5000 only ever builds cost blocks on the reduced supports
    t0 = time.perf_counter()
    img_a = blob_image((64, 64), [(24.0, 24.0), (40.0, 38.0)], [6.0, 8.0],
                       [1.0, 0.7], floor=1e-4)
    img_b = blob_image((64, 64), [(30.0, 30.0)], [9.0], [1.0], floor=1e-4)
    out = coloc.rcol_pipeline(img_a, img_b, n=5000, seed=64, lam0=0.5,
                              band="none", tol=1e-8)
    elapsed = time.perf_counter() - t0
    ok = (out.support_sizes[0] <= 4096 and out.support_sizes[1] <= 4096
          and np.isclose(out.curve.values[-1], 1.0)
          and (np.diff(out.curve.values) >= -1e-12).all())
    print(f"\n[memory path] 64x64 phantom at n=5000: supports {out.support_sizes}, "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f} s)")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    runner = CliRunner()
    # mc subcommand across thread counts
    cfg = {"L": 2, "lambda0": [2.0], "n": [30], "replicates": 100, "seed": 42}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    mc_files = []
    for threads, name in ((1, "a"), (3, "b")):
        res = runner.invoke(rot_main, ["mc", "--config", str(cfg_path),
                                       "--threads", str(threads),
                                       "--out-dir", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        mc_files.append((tmp_path / name / "mc_samples_l2_n30.csv").read_bytes())
    mc_ok = mc_files[0] == mc_files[1]

    # rcol subcommand across thread counts
    ys, xs = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
    a_img = np.exp(-((xs - 2.0) ** 2 + (ys - 2.0) ** 2) / 3.0) + 1e-3
    b_img = np.exp(-((xs - 3.5) ** 2 + (ys - 3.0) ** 2) / 3.0) + 1e-3
    np.savetxt(tmp_path / "a.csv", a_img, delimiter=",")
    np.savetxt(tmp_path / "b.csv", b_img, delimiter=",")
    rcol_files = []
    for threads, name in ((2, "r1"), (1, "r2")):
        res = runner.invoke(rot_main, ["rcol", "--imgA", str(tmp_path / "a.csv"),
                                       "--imgB", str(tmp_path / "b.csv"),
                                       "--resample", "200", "--lambda0", "1.0",
                                       "--band", "bootstrap", "--B", "60",
                                       "--seed", "17", "--threads", str(threads),
                                       "--out-dir", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        rcol_files.append((tmp_path / name / "rcol_curve.csv").read_bytes())
    rcol_ok = rcol_files[0] == rcol_files[1]

    # bootstrap subcommand across thread counts
    np.savetxt(tmp_path / "cost.csv", np.array([[0.0, 1.0], [1.0, 0.0]]),
               delimiter=",")
    np.savetxt(tmp_path / "s.csv", np.array([0.5, 0.5]), delimiter=",")
    np.savetxt(tmp_path / "data.csv",
               np.random.default_rng(0).integers(0, 2, size=50), fmt="%d")
    boot_files = []
    for threads, name in ((1, "b1"), (4, "b2")):
        res = runner.invoke(rot_main, ["bootstrap", "--data", str(tmp_path / "data.csv"),
                                       "--cost", str(tmp_path / "cost.csv"),
                                       "--s", str(tmp_path / "s.csv"),
                                       "--lambda", "1.0", "--B", "40", "--seed", "9",
                                       "--threads", str(threads),
                                       "--out-dir", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        boot_files.append((tmp_path / name / "bootstrap_samples.csv").read_bytes())
    boot_ok = boot_files[0] == boot_files[1]
    report(10, "seeded CLI determinism", mc_ok and rcol_ok and boot_ok,
           f"mc bit-identical {mc_ok}, rcol bit-identical {rcol_ok}, "
           f"bootstrap bit-identical {boot_ok}")
