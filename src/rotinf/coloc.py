"""Colocalization curves and uniform confidence bands.

The colocalization curve of a plan records, for every cost threshold t, the
total mass transported at costs <= t. It is a right-continuous step function
jumping only at the distinct cost values, so evaluating on that grid is
exact. Bands come either from the Gaussian plan limit (sampled through the
covariance matrix action) or from the naive bootstrap; the large-image
pipeline resamples the pixel distributions first and only ever builds cost
blocks on the reduced supports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sensitivity as sens
from . import solver as sv
from ._util import child_seed, readonly_array, rng_for
from .inference import _replicates
from .space import METRICS, CostVector, GroundSpace, Prob, check_power

DEFAULT_BAND_DRAWS = 2000


def cdist(xa, xb, metric):
    """``scipy.spatial.distance.cdist``, whose import waits for the first call."""
    from scipy.spatial import distance

    return distance.cdist(xa, xb, metric=metric)


@dataclass(frozen=True)
class IntensityImage:
    """Nonnegative pixel intensities on a square-pixel grid."""

    intensities: np.ndarray  # (height, width)
    pixel_size: float = 1.0

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.intensities, dtype=float))
        if arr.ndim != 2:
            raise ValueError("intensities must form a 2-D pixel array")
        if not np.isfinite(arr).all():
            raise ValueError("intensities must be finite")
        if (arr < 0).any():
            raise ValueError("intensities must be nonnegative")
        if not (arr > 0).any():
            raise ValueError("image must contain at least one positive intensity")
        if not 0.0 < self.pixel_size < np.inf:
            raise ValueError("pixel size must be finite and positive")
        object.__setattr__(self, "intensities", readonly_array(arr))

    @property
    def height(self) -> int:
        return self.intensities.shape[0]

    @property
    def width(self) -> int:
        return self.intensities.shape[1]


def _read_pgm(path) -> np.ndarray:
    """Plain (P2) or raw (P5) PGM, 8- or 16-bit."""
    with open(path, "rb") as fh:
        data = fh.read()

    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            pos = data.index(b"\n", pos) + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    magic = tokens[0]
    width, height, maxval = (int(t) for t in tokens[1:4])
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file")
    if not 0 < maxval < 65536:
        raise ValueError(f"{path}: invalid max value {maxval}")
    if magic == b"P2":
        values = np.array(data[pos:].split(), dtype=float)
    else:
        pos += 1  # single whitespace after the header
        dtype = ">u2" if maxval > 255 else "u1"
        values = np.frombuffer(data, dtype=dtype, offset=pos,
                               count=width * height).astype(float)
    if values.size != width * height:
        raise ValueError(f"{path}: pixel count mismatch")
    return values.reshape(height, width)


def read_image(path, pixel_size: float = 1.0) -> IntensityImage:
    """Load a PGM (by .pgm suffix) or headerless CSV matrix as an image."""
    if str(path).lower().endswith(".pgm"):
        arr = _read_pgm(path)
    else:
        arr = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    try:
        return IntensityImage(intensities=arr, pixel_size=pixel_size)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def image_to_distribution(img: IntensityImage) -> tuple[GroundSpace, Prob]:
    """Pixel grid scaled by the pixel size, and normalized intensities.

    Pixels are flattened row-major: pixel (row iy, column ix) becomes point
    iy * width + ix at coordinates (ix * l, iy * l).
    """
    h, w = img.height, img.width
    l = img.pixel_size
    ys, xs = np.meshgrid(np.arange(h) * l, np.arange(w) * l, indexing="ij")
    space = GroundSpace(np.column_stack([xs.ravel(), ys.ravel()]))
    weights = Prob.from_weights(img.intensities.ravel(), normalize=True)
    return space, weights


def resample_distribution(prob: Prob, n: int, seed) -> Prob:
    """Empirical distribution of n i.i.d. draws from prob.

    The result has at most min(n, N) support points, which is what makes
    large instances tractable downstream.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one draw")
    rng = seed if isinstance(seed, np.random.Generator) else rng_for(seed)
    counts = rng.multinomial(n, prob.weights)
    return Prob.from_weights(counts / n, normalize=True, n=n)


# ---------------------------------------------------------------------------
# Curves


@dataclass(frozen=True)
class RColCurve:
    """Cumulative transported mass by cost threshold, cadlag in t.

    ``lower``/``upper`` carry an optional uniform band at level ``alpha``
    built from the quantile ``u_quantile`` of the supremum statistic at
    sample size ``n``.
    """

    thresholds: np.ndarray
    values: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    alpha: float | None = None
    u_quantile: float | None = None
    n: int | None = None

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float).ravel()
        v = np.asarray(self.values, dtype=float).ravel()
        if t.size != v.size or t.size == 0:
            raise ValueError("thresholds and values must be nonempty and aligned")
        if (np.diff(t) <= 0).any():
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", readonly_array(t))
        object.__setattr__(self, "values", readonly_array(v))
        for name in ("lower", "upper"):
            band = getattr(self, name)
            if band is not None:
                object.__setattr__(self, name, readonly_array(band))

    def __call__(self, t):
        """Evaluate the step function at scalar or vector t."""
        return _step_eval(self.thresholds, self.values, t)

    def band_covers(self, target: "RColCurve", tol: float = 1e-12) -> bool:
        """Whether the band contains the target curve uniformly in t."""
        if self.lower is None or self.upper is None:
            raise ValueError("curve carries no band")
        grid = np.union1d(self.thresholds, target.thresholds)
        lo = _step_eval(self.thresholds, self.lower, grid)
        hi = _step_eval(self.thresholds, self.upper, grid)
        tv = _step_eval(target.thresholds, target.values, grid)
        return bool(((tv >= lo - tol) & (tv <= hi + tol)).all())


def _step_eval(thresholds, values, t):
    """Step functions on ``thresholds`` at t; values may be (M, len(thresholds))."""
    t = np.asarray(t, dtype=float)
    idx = np.searchsorted(thresholds, t, side="right") - 1
    out = np.where(idx >= 0, np.asarray(values)[..., np.clip(idx, 0, None)], 0.0)
    return float(out) if out.ndim == 0 else out


def _cost_groups(cost_entries):
    """Sorted distinct costs and the index of each entry's cost among them."""
    distinct, groups = np.unique(cost_entries, return_inverse=True)
    return distinct, groups.ravel()


def _group_curve(groups, mass, n_groups):
    """Curve of one mass vector on the distinct-cost grid of its groups."""
    return np.cumsum(np.bincount(groups, weights=mass, minlength=n_groups))


def _curve_values(cost_entries, mass, thresholds):
    """Cumulative mass at costs <= t for each threshold; mass may be (M, dim)."""
    distinct, groups = _cost_groups(cost_entries)
    curves = [_group_curve(groups, m, distinct.size) for m in np.atleast_2d(mass)]
    vals = _step_eval(distinct, np.array(curves), thresholds)
    return vals if np.ndim(mass) > 1 else vals[0]


def rcol(plan: sv.TransportPlan, c, thresholds=None) -> RColCurve:
    """Colocalization curve of a plan under a cost vector.

    Thresholds default to the sorted distinct cost values, where the step
    function is exact; a supplied grid is used as-is.
    """
    cost = c.entries if isinstance(c, CostVector) else np.asarray(c, dtype=float).ravel()
    if cost.size != plan.entries.size:
        raise ValueError("cost and plan dimensions do not match")
    if thresholds is None:
        thresholds, groups = _cost_groups(cost)
        vals = _group_curve(groups, plan.entries, thresholds.size)
    else:
        thresholds = np.asarray(thresholds, dtype=float).ravel()
        vals = _curve_values(cost, plan.entries, thresholds)
    return RColCurve(thresholds=thresholds, values=vals)


def _band_rate(n, m):
    if m is None:
        return np.sqrt(n)
    return np.sqrt(n * m / (n + m))


def _limit_curve_table(groups, n_groups, action: sens.PlanCovarianceAction):
    """Matrix mapping reduced draws X (from ``sample_reduced``) to curves X @ table.

    Row i < n_rows is R[:, i], the mass of w in row i at costs <= each
    threshold; row n_rows + j is the same for column j < n_cols - 1.
    """
    n1, n2, T = action.n_rows, action.n_cols, n_groups
    g = groups.reshape(n1, n2)
    rows = np.bincount((g * n1 + np.arange(n1)[:, None]).ravel(), weights=action.weights,
                       minlength=T * n1).reshape(T, n1)
    cols = np.bincount((g * n2 + np.arange(n2)).ravel(), weights=action.weights,
                       minlength=T * n2).reshape(T, n2)
    return np.cumsum(np.hstack([rows, cols[:, :-1]]), axis=0).T


def rcol_cb_gaussian(plan: sv.TransportPlan, action: sens.PlanCovarianceAction, c,
                     n: int, m: int | None = None, alpha: float = 0.05,
                     draws: int = DEFAULT_BAND_DRAWS, seed: int = 0) -> RColCurve:
    """Uniform confidence band from the Gaussian plan limit.

    The band half-width is the empirical (1 - alpha) quantile of the sup-norm
    of the limit process over the cost grid, divided by the sampling rate
    (sqrt(n), or sqrt(n*m/(n+m)) with two estimated marginals).

    Every draw has the form w_ij * (x_i + y_j), so its curve at threshold t
    is x . R_t + y . C_t with R_t, C_t the row and column sums of w over the
    entries of cost <= t. These tables are built once; each draw stays in
    its reduced coordinates (x, y) and never exists at plan size.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    draws = int(draws)
    if draws < max(100, int(np.ceil(1.0 / alpha))):
        raise ValueError("too few draws for a stable band quantile")
    cost = c.entries if isinstance(c, CostVector) else np.asarray(c, dtype=float).ravel()
    if cost.size != plan.entries.size:
        raise ValueError("cost and plan dimensions do not match")
    thresholds, groups = _cost_groups(cost)
    values = _group_curve(groups, plan.entries, thresholds.size)
    table = _limit_curve_table(groups, thresholds.size, action)
    rng = rng_for(seed)
    sups = np.empty(draws)
    chunk = max(1, (1 << 22) // max(1, cost.size))  # fixes the RNG stream order
    done = 0
    while done < draws:
        take = min(chunk, draws - done)
        curves = action.sample_reduced(take, rng) @ table
        sups[done : done + take] = np.abs(curves).max(axis=-1)
        done += take
    u = float(np.quantile(sups, 1.0 - alpha))
    half = u / _band_rate(n, m)
    return RColCurve(thresholds=thresholds, values=values,
                     lower=np.clip(values - half, 0.0, 1.0),
                     upper=np.clip(values + half, 0.0, 1.0),
                     alpha=alpha, u_quantile=u, n=int(n))


@dataclass(frozen=True)
class BootstrapBand:
    """Curve with a bootstrap band plus the replicate curves that built it."""

    curve: RColCurve
    u_quantile: float
    failures: int
    replicates: np.ndarray | None = None  # (B, len(curve.thresholds))


def _bootstrap_band_core(C_red, r_red, s_red, lam, p, B, alpha, seed, n,
                         tol, max_iter, keep_replicates,
                         max_failure_rate=0.05) -> BootstrapBand:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if B < 50:
        raise ValueError("need at least 50 bootstrap replicates")
    thresholds, groups = _cost_groups(C_red)
    groups = groups.reshape(C_red.shape)
    base = sv.solve_reduced(C_red, r_red, s_red, lam, p=p, tol=tol, max_iter=max_iter)
    base_vals = _group_curve(groups.ravel(), base.plan.entries, thresholds.size)

    def replicate_curves(P, R, S):
        # one bincount over (replicate, group) bins; each bin adds its entries in
        # row-major order, where the zeros off a replicate's support add nothing
        T = thresholds.size
        bins = groups + T * np.arange(len(P))[:, None, None]
        mass = np.bincount(bins.ravel(), weights=P.ravel(), minlength=len(P) * T)
        return np.cumsum(mass.reshape(len(P), T), axis=1), {}

    # failed replicates keep their slot as NaN rows so that index pairing
    # across settings stays aligned
    rep = _replicates(C_red, r_red, s_red, n, lam, base.potentials, replicate_curves,
                      int(B), seed, resample_s=True, tol=tol, max_iter=max_iter,
                      max_failure_rate=max_failure_rate)
    valid = ~np.isnan(rep[:, 0])
    failures = int(B - valid.sum())
    sups = np.sqrt(n / 2.0) * np.abs(rep[valid] - base_vals).max(axis=1)
    u = float(np.quantile(sups, 1.0 - alpha))
    half = np.sqrt(2.0) * u / np.sqrt(n)
    curve = RColCurve(thresholds=thresholds, values=base_vals,
                      lower=np.clip(base_vals - half, 0.0, 1.0),
                      upper=np.clip(base_vals + half, 0.0, 1.0),
                      alpha=alpha, u_quantile=u, n=int(n))
    return BootstrapBand(curve=curve, u_quantile=u, failures=failures,
                         replicates=rep if keep_replicates else None)


def rcol_cb_bootstrap(r_hat: Prob, s_hat: Prob, c: CostVector, lam: float,
                      B: int = 100, alpha: float = 0.05, seed: int = 0,
                      p: float | None = None, n: int | None = None,
                      tol: float = sv.DEFAULT_TOL, max_iter: int = sv.DEFAULT_MAX_ITER,
                      keep_replicates: bool = False) -> BootstrapBand:
    """Bootstrap uniform confidence band for the two-sample curve.

    Both empirical marginals are resampled with their common denominator n;
    the band quantile comes from the sup-norm of the recentered bootstrap
    curves at the sqrt(n/2) rate.
    """
    if n is None:
        n = r_hat.n if r_hat.n is not None else s_hat.n
    if n is None:
        raise ValueError("marginals carry no sample size; pass n explicitly")
    if r_hat.n is not None and s_hat.n is not None and r_hat.n != s_hat.n:
        raise ValueError("bootstrap band needs equal sample sizes")
    p = c.p if p is None else p
    rows = r_hat.support()
    cols = s_hat.support()
    C_red = c.matrix[np.ix_(rows, cols)]
    return _bootstrap_band_core(C_red, r_hat.weights[rows], s_hat.weights[cols],
                                lam, p, B, alpha, seed, int(n), tol, max_iter,
                                keep_replicates)


def rcol_diff(curve_a: RColCurve, curve_b: RColCurve, replicates_a, replicates_b,
              alpha: float = 0.05) -> RColCurve:
    """Difference curve A - B with a paired bootstrap uniform band.

    Replicates are paired by index across the two settings; everything is
    re-evaluated on the union threshold grid, where both step functions are
    exact.
    """
    if curve_a.n is None or curve_a.n != curve_b.n:
        raise ValueError("curves must carry one common sample size")
    ra = np.atleast_2d(np.asarray(replicates_a, dtype=float))
    rb = np.atleast_2d(np.asarray(replicates_b, dtype=float))
    if ra.shape[0] != rb.shape[0]:
        raise ValueError("replicate sets must pair up one-to-one")
    keep = ~(np.isnan(ra[:, 0]) | np.isnan(rb[:, 0]))  # drop failed pairs
    ra, rb = ra[keep], rb[keep]
    if ra.shape[0] == 0:
        raise ValueError("no usable replicate pairs")
    ta, tb = curve_a.thresholds[-1], curve_b.thresholds[-1]
    if max(ta, tb) > 2.0 * min(ta, tb):
        raise ValueError("threshold ranges differ too much; curves live on different spaces")
    n = curve_a.n
    grid = np.union1d(curve_a.thresholds, curve_b.thresholds)
    base = _step_eval(curve_a.thresholds, curve_a.values, grid) \
        - _step_eval(curve_b.thresholds, curve_b.values, grid)
    va = _step_eval(curve_a.thresholds, ra, grid)
    vb = _step_eval(curve_b.thresholds, rb, grid)
    sups = np.sqrt(n / 2.0) * np.abs((va - vb) - base).max(axis=1)
    u = float(np.quantile(sups, 1.0 - alpha))
    half = np.sqrt(2.0) * u / np.sqrt(n)
    return RColCurve(thresholds=grid, values=base,
                     lower=np.clip(base - half, -1.0, 1.0),
                     upper=np.clip(base + half, -1.0, 1.0),
                     alpha=alpha, u_quantile=u, n=int(n))


# ---------------------------------------------------------------------------
# Large-image pipeline


def _grid_cost_median(img: IntensityImage, metric: str, p: float) -> float:
    """Median of all pixel-pair costs of the image grid, as np.quantile(., 0.5).

    A pair's cost depends only on its offset (dx, dy), which occurs
    (width - |dx|) * (height - |dy|) times, so the median is read off the
    weighted offset histogram in O(height * width) memory.
    """
    h, w, l = img.height, img.width, img.pixel_size
    dy, dx = np.meshgrid(np.arange(1 - h, h), np.arange(1 - w, w), indexing="ij")
    d2 = (dx * l) ** 2 + (dy * l) ** 2
    cost = (d2 if metric == "sqeuclidean" else np.sqrt(d2)).ravel() ** p
    order = np.argsort(cost)
    counts = np.cumsum(((h - np.abs(dy)) * (w - np.abs(dx))).ravel()[order])
    pos = 0.5 * (counts[-1] - 1)  # the linear-interpolation index among all pairs
    k = int(pos)
    lo, hi = cost[order[np.searchsorted(counts, [k, min(k + 1, counts[-1] - 1)],
                                        side="right")]]
    return float(lo + (hi - lo) * (pos - k))


@dataclass(frozen=True)
class RColAnalysis:
    """Output of the resampling pipeline."""

    curve: RColCurve
    lam: float
    n: int
    band: str
    failures: int = 0
    u_quantile: float | None = None
    support_sizes: tuple[int, int] = (0, 0)
    replicates: np.ndarray | None = None


def rcol_pipeline(img_a: IntensityImage, img_b: IntensityImage, n: int,
                  seed: int, lam: float | None = None, lam0: float | None = None,
                  p: float = 1.0, metric: str = "sqeuclidean",
                  band: str = "bootstrap", B: int = 100,
                  draws: int = DEFAULT_BAND_DRAWS, alpha: float = 0.05,
                  tol: float = sv.DEFAULT_TOL, max_iter: int = sv.DEFAULT_MAX_ITER,
                  keep_replicates: bool = False) -> RColAnalysis:
    """Resample two intensity images and compute the banded curve between them.

    Cost blocks are only ever built on the resampled supports, so the full
    pixel grid never materializes a cost matrix. With ``lam0`` given, the
    regularization is lam0 times the median cost over all pixel pairs of the
    full grid.
    """
    if (img_a.height, img_a.width) != (img_b.height, img_b.width) \
            or img_a.pixel_size != img_b.pixel_size:
        raise ValueError("images must share grid shape and pixel size")
    if (lam is None) == (lam0 is None):
        raise ValueError("give exactly one of lam and lam0")
    if band not in ("bootstrap", "gaussian", "none"):
        raise ValueError("band must be bootstrap, gaussian, or none")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    check_power(p)

    space, ra = image_to_distribution(img_a)
    _, rb = image_to_distribution(img_b)
    rhat = resample_distribution(ra, n, rng_for(seed, 0))
    shat = resample_distribution(rb, n, rng_for(seed, 1))
    rows = rhat.support()
    cols = shat.support()
    pa = space.points[rows]
    pb = space.points[cols]
    C_red = cdist(pa, pb, metric=metric) ** p

    lam = float(lam0 * _grid_cost_median(img_a, metric, p) if lam is None else lam)

    r_red = rhat.weights[rows]
    s_red = shat.weights[cols]
    band_seed = child_seed(seed, 2)

    if band == "bootstrap":
        bb = _bootstrap_band_core(C_red, r_red, s_red, lam, p, B, alpha, band_seed,
                                  int(n), tol, max_iter, keep_replicates)
        return RColAnalysis(curve=bb.curve, lam=lam, n=int(n), band=band,
                            failures=bb.failures, u_quantile=bb.u_quantile,
                            support_sizes=(rows.size, cols.size),
                            replicates=bb.replicates)

    plan = sv.solve_reduced(C_red, r_red, s_red, lam, p=p, tol=tol, max_iter=max_iter).plan
    if band == "none":
        curve = rcol(plan, C_red.ravel())
        return RColAnalysis(curve=curve, lam=lam, n=int(n), band=band,
                            support_sizes=(rows.size, cols.size))
    action = sens.plan_covariance_action(plan.reg, plan, mode="two_sample", delta=0.5)
    curve = rcol_cb_gaussian(plan, action, C_red.ravel(), n=int(n), m=int(n),
                             alpha=alpha, draws=draws, seed=band_seed)
    return RColAnalysis(curve=curve, lam=lam, n=int(n), band=band,
                        u_quantile=curve.u_quantile,
                        support_sizes=(rows.size, cols.size))
