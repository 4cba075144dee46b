"""Monte Carlo study of the Gaussian limit law for the empirical divergence.

Reproduces the qualitative findings of the simulation study at desk scale:
the studentized statistic is close to standard normal for generous
regularization, the fit degrades as the regularization shrinks, and in the
tiny-regularization regime the non-regularized transport limit law becomes
the better reference.
"""

import numpy as np

import rotinf as ri


def main():
    # KS to the standard normal across regularization strengths and sample sizes
    cfg = ri.MCConfig(L=3, lambda0=(2.0, 0.6, 0.2), n=(25, 100), replicates=2000,
                      seed=7)
    report = ri.mc_experiment(cfg)
    print("KS distance of the studentized statistic to N(0,1):")
    print(f"  {'lambda0':>8s} {'n':>6s} {'KS':>8s}")
    for cell in report.cells:
        print(f"  {cell.lambda0:8.2f} {cell.n:6d} {cell.ks_normal:8.4f}")

    # QQ data for the best cell
    cell = report.cells[0]
    v, q = cell.qq_data()
    idx = np.linspace(0, v.size - 1, 7).astype(int)
    print("\nQQ pairs (sample quantile vs normal quantile) at lambda0=2, n=25:")
    for i in idx:
        print(f"  {v[i]:8.3f}  {q[i]:8.3f}")

    # tiny regularization: compare against the non-regularized limit sample
    cfg2 = ri.MCConfig(L=2, lambda0=(0.05,), n=(25,), replicates=2000, seed=21,
                       studentize=False, compare_ot_limit=True)
    rep2 = ri.mc_experiment(cfg2)
    cell2 = rep2.cells[0]
    print(f"\nlambda0 = 0.05, n = 25 on four points:")
    print(f"  KS to the Gaussian limit:        {cell2.ks_normal:.4f}")
    print(f"  KS to the transport limit draws: {cell2.ks_ot_limit:.4f}")
    print("  the non-regularized limit is the better description here")


if __name__ == "__main__":
    main()
