"""Monte Carlo and bootstrap inference for regularized transport statistics.

Every stochastic routine here is a pure function of its inputs and an integer
seed; replicate k draws from a stream derived from (seed, k), and the draws of
a resampling loop are solved together in one batch. The ``threads`` arguments
are accepted for compatibility and change neither results nor speed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats

from . import sensitivity as sens
from . import solver as sv
from ._util import child_seed, rng_for
from .exceptions import ConvergenceError, NumericalError
from .space import CostVector, Prob, build_grid_space, cost_from_metric, cost_quantile

MC_MODES = ("one_sample_eq", "one_sample_neq", "two_sample")


@dataclass(frozen=True)
class SampleDistribution:
    """A simulated sample of a scalar statistic."""

    values: np.ndarray
    kind: str  # mc | bootstrap | gaussian_limit
    n: int
    m: int | None = None
    seed: int | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size == 0:
            raise ValueError("sample must be nonempty")
        if not np.isfinite(vals).all():
            raise ValueError("sample contains non-finite values")
        object.__setattr__(self, "values", vals)


def dirichlet_sample(alpha: float, dim: int, seed) -> Prob:
    """One exchangeable Dirichlet(alpha, ..., alpha) draw on the simplex."""
    if alpha <= 0:
        raise ValueError("concentration parameter must be positive")
    dim = int(dim)
    if dim == 1:
        return Prob(np.array([1.0]))
    rng = seed if isinstance(seed, np.random.Generator) else rng_for(seed)
    return Prob.from_weights(rng.dirichlet(np.full(dim, float(alpha))), normalize=True)


def _sigma2_at(sol: sv.ReducedSolution, mode: str, delta: float | None = None) -> float:
    """Divergence limit variance at a reduced solution."""
    action = sens.plan_covariance_action(sol.plan.reg, sol.plan, mode=mode, delta=delta)
    gamma = sens.divergence_gradient(sol.cost.ravel(), sol.plan, p=sol.plan.p)
    return action.quad_form(gamma)


def _studentized(raw: float, sigma2: float) -> float:
    if sigma2 > 1e-300:
        return raw / np.sqrt(sigma2)
    if abs(raw) < 1e-12:
        return 0.0
    raise NumericalError("vanishing variance with a nonzero statistic")


def _divergence_statistic(w0: float, rate: float, mode: str | None = None,
                          delta: float | None = None):
    """Statistic rate * (W(sol) - w0), studentized at the solution unless mode is None."""
    def statistic(sol):
        raw = rate * (sol.divergence() - w0)
        return raw if mode is None else _studentized(raw, _sigma2_at(sol, mode, delta))
    return statistic


def _replicates(C, r, s, n, lam, p, warm, statistic, count, seed, *, resample_s=False,
                tol, max_iter, max_failure_rate=0.0) -> np.ndarray:
    """Values of ``statistic`` at ``count`` resampled solutions, NaN where one failed.

    Replicate k draws r* = Mult(n, r) / n and, with ``resample_s``, then
    s* = Mult(n, s) / n from the stream (seed, k); otherwise s* = s. Every
    replicate is drawn first; then ``solver.solve_replicates`` solves them
    all together from the warm start on their reduced supports, and
    ``statistic`` is evaluated on each solution in turn. A
    ``ConvergenceError`` or ``NumericalError`` from either step fails the
    replicate. Once failures exceed ``max_failure_rate * count``, the first
    failed replicate's exception type is raised with the failure count, its
    index and its reason.
    """
    count = int(count)
    R = np.empty((count, len(r)))
    S = np.empty((count, len(s)))
    for k in range(count):
        rng = rng_for(seed, k)
        R[k] = rng.multinomial(n, r) / n
        S[k] = rng.multinomial(n, s) / n if resample_s else s
    results = []
    for sol in sv.solve_replicates(C, R, S, lam, p, warm, tol=tol, max_iter=max_iter):
        try:
            results.append(sol if isinstance(sol, Exception) else statistic(sol))
        except (ConvergenceError, NumericalError) as err:
            results.append(err)
    errors = {k: x for k, x in enumerate(results) if isinstance(x, Exception)}
    if len(errors) > max_failure_rate * count:
        k = min(errors)
        raise type(errors[k])(f"{len(errors)} of {count} replicates failed; the first, "
                              f"replicate {k}: {errors[k]}") from errors[k]
    shape = next((np.shape(x) for x in results if not isinstance(x, Exception)), ())
    values = np.full((count,) + shape, np.nan)
    for k, x in enumerate(results):
        if k not in errors:
            values[k] = x
    return values


def sinkhorn_statistic(r: Prob, s: Prob, c: CostVector, lam: float, n: int,
                       replicates: int, seed: int, p: float | None = None,
                       studentize: bool = True, threads: int = 1,
                       tol: float = sv.DEFAULT_TOL,
                       max_iter: int = sv.DEFAULT_MAX_ITER) -> SampleDistribution:
    """Monte Carlo sample of the centered empirical transport distance.

    Each replicate draws n observations from r, solves the plan between the
    empirical vector and s on the reduced support, and records
    sqrt(n) * (W(r_hat, s) - W(r, s)), studentized by the plug-in standard
    deviation at (r_hat | s) when requested. A failed replicate raises its
    error with the replicate index attached.
    """
    p = c.p if p is None else p
    base = sv.solve_reduced(c.matrix, r.weights, s.weights, lam, p=p, tol=tol,
                            max_iter=max_iter)
    statistic = _divergence_statistic(base.divergence(), np.sqrt(n),
                                      "one_sample" if studentize else None)
    vals = _replicates(c.matrix, r.weights, s.weights, n, lam, p, base.potentials, statistic,
                       replicates, seed, tol=tol, max_iter=max_iter)
    return SampleDistribution(values=vals, kind="mc", n=int(n), seed=int(seed))


def bootstrap_statistic(r_hat: Prob, s: Prob, c: CostVector, lam: float, B: int,
                        seed: int, n: int | None = None, p: float | None = None,
                        threads: int = 1, tol: float = sv.DEFAULT_TOL,
                        max_iter: int = sv.DEFAULT_MAX_ITER) -> SampleDistribution:
    """Naive n-out-of-n bootstrap sample of the transport distance.

    Resamples n observations with replacement from the empirical vector
    r_hat and records sqrt(n) * (W(r*_n, s) - W(r_hat, s)) for each of the B
    replicates.
    """
    if B < 2:
        raise ValueError("need at least two bootstrap replicates")
    if n is None:
        n = r_hat.n
    if n is None:
        raise ValueError("r_hat carries no sample size; pass n explicitly")
    p = c.p if p is None else p
    base = sv.solve_reduced(c.matrix, r_hat.weights, s.weights, lam, p=p, tol=tol,
                            max_iter=max_iter)
    statistic = _divergence_statistic(base.divergence(), np.sqrt(n))
    vals = _replicates(c.matrix, r_hat.weights, s.weights, n, lam, p, base.potentials,
                       statistic, B, seed, tol=tol, max_iter=max_iter)
    return SampleDistribution(values=vals, kind="bootstrap", n=int(n), seed=int(seed))


def gaussian_limit_sampler(action: sens.PlanCovarianceAction, M: int, seed: int) -> np.ndarray:
    """M draws from the plan limit law, shape (M, N^2), via the matrix action."""
    return action.sample(int(M), rng_for(seed))


def ks_distance(sample, reference) -> float:
    """Kolmogorov-Smirnov distance of a sample to a reference.

    ``reference`` may be a CDF callable, the string "normal" for the standard
    normal, or a second sample (two-sample variant).
    """
    values = sample.values if isinstance(sample, SampleDistribution) else np.asarray(sample, float)
    if isinstance(reference, str):
        if reference != "normal":
            raise ValueError("only the 'normal' shorthand is supported")
        reference = stats.norm.cdf
    if callable(reference):
        return float(stats.kstest(values, reference).statistic)
    other = reference.values if isinstance(reference, SampleDistribution) else np.asarray(reference, float)
    return float(stats.ks_2samp(values, other).statistic)


def confidence_interval(w: float, sigma2: float, n: int, alpha: float = 0.05,
                        m: int | None = None) -> tuple[float, float]:
    """Two-sided normal interval for the transport distance.

    Uses the sqrt(n) rate in the one-sample case and sqrt(n*m/(n+m)) when a
    second sample size is supplied.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n < 1 or (m is not None and m < 1):
        raise ValueError("sample sizes must be at least 1")
    rate = np.sqrt(n * m / (n + m)) if m is not None else np.sqrt(n)
    half = stats.norm.ppf(1.0 - alpha / 2.0) * np.sqrt(max(sigma2, 0.0)) / rate
    return float(w - half), float(w + half)


# ---------------------------------------------------------------------------
# Monte Carlo experiment harness


@dataclass(frozen=True)
class MCConfig:
    """Configuration of a Monte Carlo cell sweep on an equidistant grid."""

    L: int
    lambda0: tuple[float, ...]
    n: tuple[int, ...]
    replicates: int
    seed: int
    dirichlet_alpha: float = 1.0
    p: float = 1.0
    mode: str = "one_sample_eq"
    extent: float = 1.0
    metric: str = "euclidean"
    studentize: bool = True
    compare_ot_limit: bool = False
    lambda_of_n: bool = False  # lambda(n) = kappa / log(sqrt(n)) instead of lambda0 * q50
    kappa: float = 1.0
    tol: float = sv.DEFAULT_TOL
    max_iter: int = sv.DEFAULT_MAX_ITER
    max_failure_rate: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "lambda0", tuple(float(x) for x in np.atleast_1d(self.lambda0)))
        object.__setattr__(self, "n", tuple(int(x) for x in np.atleast_1d(self.n)))
        if self.mode not in MC_MODES:
            raise ValueError(f"mode must be one of {MC_MODES}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if any(l0 <= 0 for l0 in self.lambda0):
            raise ValueError("lambda0 values must be positive")
        if self.compare_ot_limit and (self.studentize or self.p != 1.0):
            raise ValueError("the transport limit comparison needs studentize=False and p=1")

    @classmethod
    def from_dict(cls, d: dict) -> "MCConfig":
        return cls(**d)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda0"] = list(self.lambda0)
        d["n"] = list(self.n)
        return d


@dataclass(frozen=True)
class MCCell:
    """Result of one (lambda0, n) cell."""

    lambda0: float
    lam: float
    n: int
    ks_normal: float
    sample: SampleDistribution
    ks_ot_limit: float | None = None
    failures: int = 0

    def qq_data(self):
        """(sorted standardized sample, matching standard normal quantiles)."""
        v = np.sort(self.sample.values)
        q = stats.norm.ppf((np.arange(v.size) + 0.5) / v.size)
        return v, q


@dataclass(frozen=True)
class MCReport:
    config: MCConfig
    cells: tuple[MCCell, ...]


def mc_experiment(config: MCConfig, threads: int = 1) -> MCReport:
    """Run the Monte Carlo sweep described by the configuration.

    One fixed population pair (r, s) is drawn from the seed, then every
    (lambda0, n) cell simulates ``replicates`` independent statistics and
    reports the Kolmogorov-Smirnov distance to the standard normal limit,
    plus, when configured, to the non-regularized limit sample. Replicate
    failures are counted; the cell fails once they exceed the configured
    rate.
    """
    space = build_grid_space(config.L, config.extent)
    c = cost_from_metric(space, p=config.p, metric=config.metric)
    C = c.matrix
    q50 = cost_quantile(c, 0.5)
    dim = space.n_points
    two_sample = config.mode == "two_sample"
    mode, delta = ("two_sample", 0.5) if two_sample else ("one_sample", None)

    pop_rng = rng_for(config.seed, 0)
    r = dirichlet_sample(config.dirichlet_alpha, dim, pop_rng)
    if config.mode == "one_sample_eq":
        s = r
    else:
        s = dirichlet_sample(config.dirichlet_alpha, dim, pop_rng)

    cells = []
    cell_idx = 0
    for lam0 in config.lambda0:
        for n in config.n:
            if config.lambda_of_n:
                lam = config.kappa / np.log(np.sqrt(n))
            else:
                lam = lam0 * q50
            cell_seed = child_seed(config.seed, 1, cell_idx)
            base = sv.solve_reduced(C, r.weights, s.weights, lam, p=config.p,
                                    tol=config.tol, max_iter=config.max_iter)
            rate = np.sqrt(n / 2.0) if two_sample else np.sqrt(n)
            sigma_pop2 = _sigma2_at(base, mode, delta)
            statistic = _divergence_statistic(base.divergence(), rate,
                                              mode if config.studentize else None, delta)
            try:
                raw_vals = _replicates(C, r.weights, s.weights, n, lam, config.p,
                                       base.potentials, statistic, config.replicates,
                                       cell_seed, resample_s=two_sample, tol=config.tol,
                                       max_iter=config.max_iter,
                                       max_failure_rate=config.max_failure_rate)
            except (ConvergenceError, NumericalError) as err:
                raise type(err)(f"cell (lambda0={lam0}, n={n}): {err}") from err
            failures = int(np.isnan(raw_vals).sum())
            vals = raw_vals[~np.isnan(raw_vals)]
            sample = SampleDistribution(values=vals, kind="mc", n=n, seed=cell_seed)

            if config.studentize:
                ks_norm = ks_distance(sample, "normal")
            else:
                ks_norm = ks_distance(vals / np.sqrt(sigma_pop2), "normal")

            ks_ot = None
            if config.compare_ot_limit:
                baseline = sv.exact_ot_baseline(c, r, s)
                ot_vals = sv.ot_limit_sample(c, r, baseline.dual_vertices,
                                             M=config.replicates,
                                             seed=child_seed(config.seed, 2, cell_idx))
                ks_ot = ks_distance(vals, ot_vals)

            cells.append(MCCell(lambda0=float(lam0), lam=float(lam), n=int(n),
                                ks_normal=float(ks_norm), sample=sample,
                                ks_ot_limit=ks_ot, failures=failures))
            cell_idx += 1
    return MCReport(config=config, cells=tuple(cells))
