"""Reference computations for checking the program's outputs.

Everything here is written from the definitions, without importing the
package under test:

- the seeding protocol the package documents (stream (seed, key...) is
  ``default_rng(SeedSequence(seed, spawn_key=key))``), so that the benchmark
  can rebuild the exact marginals of any replicate;
- a plain log-domain Sinkhorn iteration solved to a tight tolerance;
- the reduced marginal operator A as an explicit (sparse) matrix, and a dense
  solve of A diag(pi) A^T for the plug-in limit variance and for the
  per-threshold variances of the Gaussian limit curve;
- draws from the unregularized transport limit law of r against itself, by
  enumerating the vertices of its optimal dual set.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
from scipy import stats


# ---------------------------------------------------------------------------
# Seeding protocol


def stream(seed, *key):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def sub_seed(seed, *key):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Ground spaces and images


def grid_cost(L):
    """Euclidean cost on the L x L grid over [0, 1]^2, row-major points."""
    axis = np.linspace(0.0, 1.0, L)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))


def pixel_points(height, width):
    """Pixel (row iy, column ix) -> point iy * width + ix at (ix, iy)."""
    ys, xs = np.meshgrid(np.arange(height, dtype=float), np.arange(width, dtype=float),
                         indexing="ij")
    return np.column_stack([xs.ravel(), ys.ravel()])


def sq_dist(a, b):
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)


def blob_image(shape, centers, widths, heights, floor=1e-4):
    """Sum of Gaussian blobs plus a constant floor."""
    ny, nx = shape
    ys, xs = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    img = np.full(shape, floor, dtype=float)
    for (cy, cx), w, h in zip(centers, widths, heights):
        img += h * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * w ** 2))
    return img


# ---------------------------------------------------------------------------
# Sinkhorn


def _lse(T, axis):
    m = T.max(axis=axis, keepdims=True)
    return np.log(np.exp(T - m).sum(axis=axis)) + m.squeeze(axis=axis)


def sinkhorn(C, a, b, lam, tol=1e-12, max_iter=200_000):
    """Plain alternating log-domain Sinkhorn; returns (plan, iterations, residual).

    After each column update the column marginals are exact, so the row
    residual is the whole marginal error.
    """
    la, lb = np.log(a), np.log(b)
    f = np.zeros(a.size)
    g = np.zeros(b.size)
    res = np.inf
    for it in range(1, max_iter + 1):
        f = lam * (la - _lse((g[None, :] - C) / lam, axis=1))
        g = lam * (lb - _lse((f[:, None] - C) / lam, axis=0))
        P = np.exp((f[:, None] + g[None, :] - C) / lam)
        res = float(np.abs(P.sum(axis=1) - a).max())
        if res <= tol:
            return P, it, res
    raise ArithmeticError(f"reference Sinkhorn stopped at residual {res:.3e}")


def sinkhorn_symmetric(C, a, lam, tol=1e-12, max_iter=200_000):
    """Plan between a and itself (C symmetric) by the averaged symmetric update.

    With identical marginals the alternating iteration contracts at a rate
    of about 1 - exp(-c/lam), which at small lam stalls far above any tight
    tolerance; the symmetric potential f = g with the averaged update
    f <- (f + lam (log a - lse((f - C) / lam))) / 2 converges quickly.
    """
    la = np.log(a)
    f = np.zeros(a.size)
    res = np.inf
    for it in range(1, max_iter + 1):
        f = 0.5 * (f + lam * (la - _lse((f[None, :] - C) / lam, axis=1)))
        P = np.exp((f[:, None] + f[None, :] - C) / lam)
        res = float(np.abs(P.sum(axis=1) - a).max())
        if res <= tol:
            return P, it, res
    raise ArithmeticError(f"reference symmetric Sinkhorn stopped at residual {res:.3e}")


# ---------------------------------------------------------------------------
# Unregularized transport limit of r against itself


def lipschitz_vertices(C):
    """Vertices of {u : u_i - u_j <= C_ij for all i != j} with u_0 = 0.

    For a fully supported r the plan of r against itself is diagonal, so by
    complementary slackness the optimal dual potentials are (u, -u) with u
    in this set. Enumerates every choice of N - 1 active constraints, which
    is only meant for a handful of points.
    """
    N = C.shape[0]
    pairs = [(i, j) for i in range(N) for j in range(N) if i != j]
    A = np.zeros((len(pairs), N))
    for k, (i, j) in enumerate(pairs):
        A[k, i], A[k, j] = 1.0, -1.0
    A = A[:, 1:]
    b = np.array([C[i, j] for i, j in pairs])
    vertices = []
    for active in itertools.combinations(range(len(pairs)), N - 1):
        M = A[list(active)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        u = np.linalg.solve(M, b[list(active)])
        if (A @ u <= b + 1e-9).all():
            vertices.append(np.concatenate([[0.0], u]))
    return np.unique(np.round(vertices, 12), axis=0)


def ot_limit_draws(r, vertices, draws, rng):
    """Draws of max over the vertices u of <G, u>, G ~ N(0, diag(r) - r r^T):
    the limit law of sqrt(n) W_1(r_n, r) for the empirical r_n of n draws."""
    Z = rng.standard_normal((draws, r.size))
    G = Z * np.sqrt(r) - np.outer(Z @ np.sqrt(r), r)
    return (G @ np.asarray(vertices).T).max(axis=1)


# ---------------------------------------------------------------------------
# Limit variances


def marginal_operator(n1, n2):
    """Reduced marginal operator: row sums, then column sums but the last."""
    rows = sp.kron(sp.identity(n1), np.ones((1, n2)))
    cols = sp.kron(np.ones((1, n1)), sp.identity(n2))
    return sp.vstack([rows, cols.tocsr()[: n2 - 1]]).tocsr()


def _gram_solve(P, rhs):
    """Solve (A diag(pi) A^T) y = rhs, A built explicitly."""
    n1, n2 = P.shape
    A = marginal_operator(n1, n2)
    M = (A @ sp.diags(P.ravel()) @ A.T).toarray()
    return np.linalg.solve(M, rhs)


def multinomial_cov(w):
    return np.diag(w) - np.outer(w, w)


def one_sample_variance(P, cost, r):
    """Plug-in limit variance of <cost, pi> when only the first marginal is sampled."""
    n1, n2 = P.shape
    rhs = marginal_operator(n1, n2) @ (P.ravel() * cost.ravel())
    y = _gram_solve(P, rhs)[:n1]
    return float(y @ multinomial_cov(r) @ y)


def _threshold_groups(cost, thresholds):
    """Index of the first threshold >= each cost entry (T when above all)."""
    return np.searchsorted(np.asarray(thresholds, dtype=float), cost.ravel(), side="left")


def two_sample_threshold_variances(P, cost, thresholds, r, s, delta=0.5):
    """Variance of the limit curve value at each threshold, two-sample case.

    The curve value at t is <1[cost <= t], pi>; its limit variance is
    y_t^T B y_t, where y_t solves the reduced Gram system against
    A diag(pi) 1[cost <= t] and B is the block-diagonal multinomial
    covariance of (r, s without its last entry). The right-hand sides are
    accumulated per threshold as row and column sums of pi.
    """
    n1, n2 = P.shape
    T = len(thresholds)
    group = _threshold_groups(cost, thresholds).reshape(n1, n2)
    rows_inc = np.zeros((T + 1, n1))
    cols_inc = np.zeros((T + 1, n2))
    ii, jj = np.indices((n1, n2))
    np.add.at(rows_inc, (group.ravel(), ii.ravel()), P.ravel())
    np.add.at(cols_inc, (group.ravel(), jj.ravel()), P.ravel())
    rhs = np.vstack([np.cumsum(rows_inc, axis=0)[:T].T,
                     np.cumsum(cols_inc, axis=0)[:T, : n2 - 1].T])
    Y = _gram_solve(P, rhs)
    yr, ys = Y[:n1], Y[n1:]
    s_star = s[:-1]
    var_r = (r[:, None] * yr * yr).sum(axis=0) - (r @ yr) ** 2
    var_s = (s_star[:, None] * ys * ys).sum(axis=0) - (s_star @ ys) ** 2
    return np.clip(delta * var_r + (1.0 - delta) * var_s, 0.0, None)


def band_quantile_bounds(sd, alpha, draws, eps=1e-6):
    """Interval that the (1 - alpha) quantile of sup_t |G_t|, estimated from
    ``draws`` Gaussian draws as numpy's interpolated quantile, falls outside
    with probability at most ``eps`` each side.

    The estimate lies between two adjacent order statistics of the draws;
    the k-th smallest of M draws sits at a level of the true CDF F that is
    Beta(k, M - k + 1) distributed. For every x, F(x) is at most the CDF of
    the single threshold with the largest variance, and at least the
    Bonferroni bound over the T thresholds with positive variance. Mapping
    the eps and 1 - eps levels through these gives the interval.
    """
    sd = np.asarray(sd, dtype=float)
    T = int((sd > 0).sum())
    top = float(sd.max())
    h = (draws - 1) * (1.0 - alpha)  # 0-based position of the estimate
    k_lo, k_hi = int(np.floor(h)) + 1, int(np.ceil(h)) + 1
    level_lo = stats.beta.ppf(eps, k_lo, draws - k_lo + 1)
    level_hi = stats.beta.ppf(1.0 - eps, k_hi, draws - k_hi + 1)
    lower = stats.norm.ppf((1.0 + level_lo) / 2.0) * top
    upper = stats.norm.ppf(1.0 - (1.0 - level_hi) / (2.0 * T)) * top
    return float(lower), float(upper)


def cum_curve(cost, mass, thresholds):
    """Mass at costs <= t for each threshold."""
    group = _threshold_groups(cost, thresholds)
    inc = np.bincount(group, weights=np.ravel(mass), minlength=len(thresholds) + 1)
    return np.cumsum(inc)[: len(thresholds)]
