"""Monte Carlo and bootstrap inference for regularized transport statistics.

Every stochastic routine here is a pure function of its inputs and an integer
seed; replicate k draws from a stream derived from (seed, k), so serial and
threaded execution produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats

from . import sensitivity as sens
from . import solver as sv
from ._util import child_seed, rng_for, run_indexed
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


def sinkhorn_statistic(r: Prob, s: Prob, c: CostVector, lam: float, n: int,
                       replicates: int, seed: int, p: float | None = None,
                       studentize: bool = True, threads: int = 1,
                       tol: float = sv.DEFAULT_TOL,
                       max_iter: int = sv.DEFAULT_MAX_ITER) -> SampleDistribution:
    """Monte Carlo sample of the centered empirical transport distance.

    Each replicate draws n observations from r, solves the plan between the
    empirical vector and s on the reduced support, and records
    sqrt(n) * (W(r_hat, s) - W(r, s)), studentized by the plug-in standard
    deviation at (r_hat | s) when requested. Solver failures propagate with
    the replicate index attached.
    """
    p = c.p if p is None else p
    C = c.matrix
    base = sv.solve_reduced(C, r.weights, s.weights, lam, p=p, tol=tol, max_iter=max_iter)
    w_pop = base.divergence()
    warm = base.potentials
    root_n = np.sqrt(n)

    def one(k):
        rng = rng_for(seed, k)
        rhat = rng.multinomial(n, r.weights) / n
        sol = sv.solve_reduced(C, rhat, s.weights, lam, p=p, tol=tol,
                               max_iter=max_iter, init=warm)
        raw = root_n * (sol.divergence() - w_pop)
        if not studentize:
            return raw
        return _studentized(raw, _sigma2_at(sol, "one_sample"))

    def wrapped(k):
        try:
            return one(k)
        except (ConvergenceError, NumericalError) as err:
            raise type(err)(f"replicate {k}: {err}") from err

    vals = run_indexed(wrapped, int(replicates), threads)
    return SampleDistribution(values=np.array(vals), kind="mc", n=int(n), seed=int(seed))


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
    C = c.matrix
    base = sv.solve_reduced(C, r_hat.weights, s.weights, lam, p=p, tol=tol, max_iter=max_iter)
    w_hat = base.divergence()
    warm = base.potentials
    root_n = np.sqrt(n)

    def one(k):
        rng = rng_for(seed, k)
        rstar = rng.multinomial(n, r_hat.weights) / n
        sol = sv.solve_reduced(C, rstar, s.weights, lam, p=p, tol=tol,
                               max_iter=max_iter, init=warm)
        return root_n * (sol.divergence() - w_hat)

    def wrapped(k):
        try:
            return one(k)
        except (ConvergenceError, NumericalError) as err:
            raise type(err)(f"bootstrap replicate {k}: {err}") from err

    vals = run_indexed(wrapped, int(B), threads)
    return SampleDistribution(values=np.array(vals), kind="bootstrap", n=int(n), seed=int(seed))


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


def _two_sample_replicate(C, rw, sw, n, lam, p, rng, tol, max_iter, w_pop,
                          studentize, warm=None):
    rhat = rng.multinomial(n, rw) / n
    shat = rng.multinomial(n, sw) / n
    sol = sv.solve_reduced(C, rhat, shat, lam, p=p, tol=tol, max_iter=max_iter,
                           init=warm)
    raw = np.sqrt(n / 2.0) * (sol.divergence() - w_pop)
    if not studentize:
        return raw
    return _studentized(raw, _sigma2_at(sol, "two_sample", delta=0.5))


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
            w_pop = base.divergence()
            sigma_pop2 = _sigma2_at(base, "one_sample") if config.mode != "two_sample" \
                else _sigma2_at(base, "two_sample", delta=0.5)

            warm = base.potentials

            def one(k, lam=lam, w_pop=w_pop, n=n, cell_seed=cell_seed, warm=warm):
                rng = rng_for(cell_seed, k)
                if config.mode == "two_sample":
                    return _two_sample_replicate(C, r.weights, s.weights, n, lam,
                                                 config.p, rng, config.tol,
                                                 config.max_iter, w_pop,
                                                 config.studentize, warm=warm)
                rhat = rng.multinomial(n, r.weights) / n
                sol = sv.solve_reduced(C, rhat, s.weights, lam, p=config.p,
                                       tol=config.tol, max_iter=config.max_iter,
                                       init=warm)
                raw = np.sqrt(n) * (sol.divergence() - w_pop)
                if not config.studentize:
                    return raw
                return _studentized(raw, _sigma2_at(sol, "one_sample"))

            def guarded(k):
                try:
                    return one(k)
                except (ConvergenceError, NumericalError):
                    return np.nan

            raw_vals = np.array(run_indexed(guarded, config.replicates, threads))
            failures = int(np.isnan(raw_vals).sum())
            if failures > config.max_failure_rate * config.replicates:
                raise ConvergenceError(
                    f"cell (lambda0={lam0}, n={n}): {failures} of "
                    f"{config.replicates} replicates failed")
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
