"""Monte Carlo and bootstrap inference for regularized transport statistics.

Every stochastic routine here is a pure function of its inputs and an integer
seed; replicate k draws from a stream derived from (seed, k). The draws of a
resampling loop are solved together in one batch, which yields them in runs
of arrays, the plans on the loop's cost and their marginals; the loop's
statistic is evaluated once per run on those arrays: the studentized
divergence takes every replicate's plug-in variance from one stacked Gram
solve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri

from . import sensitivity as sens
from . import solver as sv
from ._util import child_seed, positive_int, rng_for
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


def _sigma2_at(plan: sv.TransportPlan, cost, mode: str, delta: float | None = None) -> float:
    """Divergence limit variance at a plan on the cost matrix ``cost``."""
    action = sens.plan_covariance_action(plan.reg, plan, mode=mode, delta=delta)
    return action.quad_form(sens.divergence_gradient(cost.ravel(), plan, p=plan.p))


def _studentized(raw: float, sigma2: float, gamma) -> float:
    """raw / sqrt(sigma2), where a variance no larger than the rounding of its
    quadratic form, 1e-14 max|gamma|^2 with gamma the divergence gradient,
    vanishes."""
    if sigma2 > 1e-14 * np.abs(gamma).max() ** 2:
        return raw / np.sqrt(sigma2)
    if abs(raw) < 1e-12:
        return 0.0
    raise NumericalError("vanishing variance with a nonzero statistic")


def _divergence_statistic(C, base: sv.ReducedSolution, rate: float, mode: str | None = None,
                          delta: float | None = None):
    """Statistic rate * (W - W(base)) of a run of replicate plans on the cost matrix C,
    studentized at each plan unless mode is None.

    W sums each plan over its own support block, as ``divergence_matrix``
    sums the reduced plan; a failed replicate's NaN plan gives NaN. The
    plug-in variances come from one stacked solve
    (``sensitivity.divergence_variances``); a plan it leaves out gets
    ``_sigma2_at`` on its own support, and its error, if any.
    """
    w0, p = base.divergence(), base.plan.p

    def statistic(P, R, S):
        blocks = [np.ix_(r > 0, s > 0) for r, s in zip(R, S)]
        values = np.array([rate * (sv.divergence_matrix(C[ix], plan[ix], p) - w0)
                           for plan, ix in zip(P, blocks)])
        errors = {}
        if mode is None:
            return values, errors
        sigma2 = sens.divergence_variances(C, P, R, S, p, mode=mode, delta=delta)
        for b in np.flatnonzero(~np.isnan(values)):
            cost, plan = C[blocks[b]], P[b][blocks[b]]
            try:
                if np.isnan(sigma2[b]):  # the plan on its own support, as the base's
                    one = replace(base.plan, entries=plan, r=Prob(R[b][R[b] > 0]),
                                  s=Prob(S[b][S[b] > 0]))
                    sigma2[b] = _sigma2_at(one, cost, mode, delta)
                gamma = sens.divergence_gradient(cost.ravel(), plan, p=p)
                values[b] = _studentized(values[b], sigma2[b], gamma)
            except (ConvergenceError, NumericalError) as err:
                errors[b] = err
        return values, errors
    return statistic


def _replicates(C, r, s, n, lam, warm, statistic, count, seed, *, resample_s=False,
                tol, max_iter, max_failure_rate=0.0) -> np.ndarray:
    """Values of ``statistic`` at ``count`` resampled solutions, NaN where one failed.

    Replicate k draws r* = Mult(n, r) / n and, with ``resample_s``, then
    s* = Mult(n, s) / n from the stream (seed, k); otherwise s* = s. Every
    replicate is drawn first; then ``solver.solve_replicates`` solves them
    all together from the warm start on their reduced supports.
    ``statistic(P, R, S)`` maps each run of replicates it yields, their plans
    (NaN where the solve failed) with their normalized marginals, to the
    run's values and {index in the run: ConvergenceError or NumericalError};
    what it stacks does not grow with ``count``. An error from either step
    fails the replicate, and its value is NaN. Once failures exceed
    ``max_failure_rate * count``, or when every replicate fails, the first
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
    values, errors = [], {}
    for P, R_run, S_run, _, failed in sv.solve_replicates(C, R, S, lam, warm, tol=tol,
                                                          max_iter=max_iter):
        run_values, run_errors = statistic(P, R_run, S_run)
        lo = sum(map(len, values))
        errors.update((lo + b, err) for b, err in {**run_errors, **failed}.items())
        values.append(run_values)
    if errors and (len(errors) == count or len(errors) > max_failure_rate * count):
        k = min(errors)
        raise type(errors[k])(f"{len(errors)} of {count} replicates failed; the first, "
                              f"replicate {k}: {errors[k]}") from errors[k]
    values = np.concatenate(values)
    values[sorted(errors)] = np.nan
    return values


def sinkhorn_statistic(r: Prob, s: Prob, c: CostVector, lam: float, n: int,
                       replicates: int, seed: int, p: float | None = None,
                       studentize: bool = True, tol: float = sv.DEFAULT_TOL,
                       max_iter: int = sv.DEFAULT_MAX_ITER) -> SampleDistribution:
    """Monte Carlo sample of the centered empirical transport distance.

    Each replicate draws n observations from r, solves the plan between the
    empirical vector and s on the reduced support, and records
    sqrt(n) * (W(r_hat, s) - W(r, s)), studentized by the plug-in standard
    deviation at (r_hat | s) when requested. A failed replicate raises its
    error with the replicate index attached.
    """
    n, replicates = positive_int("n", n), positive_int("replicates", replicates)
    p = c.p if p is None else p
    base = sv.solve_reduced(c.matrix, r.weights, s.weights, lam, p=p, tol=tol,
                            max_iter=max_iter)
    statistic = _divergence_statistic(c.matrix, base, np.sqrt(n),
                                      "one_sample" if studentize else None)
    vals = _replicates(c.matrix, r.weights, s.weights, n, lam, base.potentials, statistic,
                       replicates, seed, tol=tol, max_iter=max_iter)
    return SampleDistribution(values=vals, kind="mc", n=n, seed=int(seed))


def bootstrap_statistic(r_hat: Prob, s: Prob, c: CostVector, lam: float, B: int,
                        seed: int, n: int | None = None, p: float | None = None,
                        tol: float = sv.DEFAULT_TOL,
                        max_iter: int = sv.DEFAULT_MAX_ITER) -> SampleDistribution:
    """Naive n-out-of-n bootstrap sample of the transport distance.

    Resamples n observations with replacement from the empirical vector
    r_hat and records sqrt(n) * (W(r*_n, s) - W(r_hat, s)) for each of the B
    replicates.
    """
    if positive_int("B", B) < 2:
        raise ValueError("need at least two bootstrap replicates")
    if n is None:
        n = r_hat.n
    if n is None:
        raise ValueError("r_hat carries no sample size; pass n explicitly")
    n = positive_int("n", n)
    p = c.p if p is None else p
    base = sv.solve_reduced(c.matrix, r_hat.weights, s.weights, lam, p=p, tol=tol,
                            max_iter=max_iter)
    statistic = _divergence_statistic(c.matrix, base, np.sqrt(n))
    vals = _replicates(c.matrix, r_hat.weights, s.weights, n, lam, base.potentials,
                       statistic, B, seed, tol=tol, max_iter=max_iter)
    return SampleDistribution(values=vals, kind="bootstrap", n=n, seed=int(seed))


def gaussian_limit_sampler(action: sens.PlanCovarianceAction, M: int, seed: int) -> np.ndarray:
    """M draws from the plan limit law, shape (M, N^2), via the matrix action."""
    return action.sample(int(M), rng_for(seed))


def ks_distance(sample, reference) -> float:
    """Kolmogorov-Smirnov distance of a sample to a reference.

    ``reference`` may be a CDF callable, the string "normal" for the standard
    normal, or a second sample (two-sample variant). Against a CDF F the
    distance is read off the sorted sample x_(1) <= ... <= x_(n) as
    max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n), which is what
    ``scipy.stats.kstest`` reports, without its exact p-value. Between samples
    of sizes n1 and n2 it is h / lcm(n1, n2), h the largest gap between their
    empirical CDFs in units of 1 / lcm, counted in integers: what
    ``scipy.stats.ks_2samp`` reports for samples of up to 10,000 values, and
    the same ratio rounded once beyond that; NaN if either sample holds a NaN.
    """
    values = sample.values if isinstance(sample, SampleDistribution) else np.asarray(sample, float)
    if isinstance(reference, str):
        if reference != "normal":
            raise ValueError("only the 'normal' shorthand is supported")
        reference = ndtr
    if callable(reference):
        cdf = reference(np.sort(values))
        n = cdf.size
        return float(max((np.arange(1.0, n + 1) / n - cdf).max(),
                         (cdf - np.arange(0.0, n) / n).max()))
    other = reference.values if isinstance(reference, SampleDistribution) else np.asarray(reference, float)
    a, b = np.sort(values), np.sort(other)
    n1, n2 = a.size, b.size
    if not (n1 and n2):
        raise ValueError("both samples must be nonempty")
    both = np.concatenate([a, b])
    if np.isnan(both).any():
        return float("nan")
    g = math.gcd(n1, n2)
    gaps = (np.searchsorted(a, both, side="right") * (n2 // g)
            - np.searchsorted(b, both, side="right") * (n1 // g))
    return float(max(gaps.max(), -gaps.min()) / (n1 // g * n2))


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
    half = ndtri(1.0 - alpha / 2.0) * np.sqrt(max(sigma2, 0.0)) / rate
    return float(w - half), float(w + half)


# ---------------------------------------------------------------------------
# Monte Carlo experiment harness


# (type, its name in messages) of each MCConfig field; lambda0 and n may be lists
_NUMBER, _INTEGER = (numbers.Real, "a number"), (numbers.Integral, "an integer")
_FLAG, _TEXT = (bool, "true or false"), (str, "a string")
_MC_FIELD_TYPES = {
    "L": _INTEGER, "replicates": _INTEGER, "seed": _INTEGER, "max_iter": _INTEGER,
    "lambda0": (numbers.Real, "a number or a list of numbers"),
    "n": (numbers.Integral, "an integer or a list of integers"),
    "dirichlet_alpha": _NUMBER, "p": _NUMBER, "extent": _NUMBER, "kappa": _NUMBER,
    "tol": _NUMBER, "max_failure_rate": _NUMBER,
    "studentize": _FLAG, "compare_ot_limit": _FLAG, "lambda_of_n": _FLAG,
    "mode": _TEXT, "metric": _TEXT,
}


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
        for name, (kind, what) in _MC_FIELD_TYPES.items():
            value = getattr(self, name)
            listed = name in ("lambda0", "n") and isinstance(value, (list, tuple, np.ndarray))
            if not all(isinstance(x, kind) and (kind is bool or not isinstance(x, bool))
                       for x in (value if listed else [value])):
                raise TypeError(f"MCConfig key '{name}' must be {what}, "
                                f"got {type(value).__name__} {value!r}")
        object.__setattr__(self, "lambda0", tuple(float(x) for x in np.atleast_1d(self.lambda0)))
        object.__setattr__(self, "n", tuple(int(x) for x in np.atleast_1d(self.n)))
        least_n = 2 if self.lambda_of_n else 1  # log(sqrt(n)) must be positive
        for key, bad, need in (
                ("mode", self.mode not in MC_MODES, f"be one of {MC_MODES}"),
                ("L", self.L < 2, "be at least 2"),
                ("seed", self.seed < 0, "be at least 0"),
                ("replicates", self.replicates < 1, "be at least 1"),
                ("n", not self.n or min(self.n) < least_n,
                 f"hold sample sizes of at least {least_n}"),
                ("max_failure_rate", not 0.0 <= self.max_failure_rate <= 1.0, "lie in [0, 1]"),
                ("lambda0", not self.lambda0 or not all(0.0 < l0 < np.inf for l0 in self.lambda0),
                 "hold finite and positive values"),
                ("dirichlet_alpha", not 0.0 < self.dirichlet_alpha < np.inf,
                 "be finite and positive"),
                ("extent", not 0.0 < self.extent < np.inf, "be finite and positive"),
                ("tol", not 0.0 < self.tol < np.inf, "be finite and positive"),
                ("max_iter", self.max_iter < 1, "be at least 1"),
                ("kappa", self.lambda_of_n and not 0.0 < self.kappa < np.inf,
                 "be finite and positive with lambda_of_n")):
            if bad:
                raise ValueError(f"MCConfig key '{key}' must {need}, got {getattr(self, key)!r}")
        # the sampled law max <G, u> is the one-sample limit; two samples need another
        if self.compare_ot_limit and (self.studentize or self.p != 1.0
                                      or self.mode == "two_sample"):
            raise ValueError("the transport limit comparison needs studentize=False, p=1 and "
                             f"a one-sample 'mode', got studentize={self.studentize}, "
                             f"p={self.p!r}, mode={self.mode!r}")

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
        q = ndtri((np.arange(v.size) + 0.5) / v.size)
        return v, q


@dataclass(frozen=True)
class MCReport:
    config: MCConfig
    cells: tuple[MCCell, ...]


def mc_experiment(config: MCConfig) -> MCReport:
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

    # the unregularized baseline depends on neither lambda0 nor n
    baseline = sv.exact_ot_baseline(c, r, s) if config.compare_ot_limit else None
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
            sigma_pop2 = _sigma2_at(base.plan, base.cost, mode, delta)
            statistic = _divergence_statistic(C, base, rate,
                                              mode if config.studentize else None, delta)
            try:
                raw_vals = _replicates(C, r.weights, s.weights, n, lam,
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
            if baseline is not None:
                ot_vals = sv.ot_limit_sample(c, r, baseline.dual_vertices,
                                             M=config.replicates,
                                             seed=child_seed(config.seed, 2, cell_idx))
                ks_ot = ks_distance(vals, ot_vals)

            cells.append(MCCell(lambda0=float(lam0), lam=float(lam), n=int(n),
                                ks_normal=float(ks_norm), sample=sample,
                                ks_ot_limit=ks_ot, failures=failures))
            cell_idx += 1
    return MCReport(config=config, cells=tuple(cells))
