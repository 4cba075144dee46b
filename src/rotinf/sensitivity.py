"""Plan sensitivities and limit-law covariances.

The regularized plan, viewed as a function of the reduced marginal vector
(r, s minus its last entry), is differentiable with gradient

    grad_phi = H^{-1} A^T [A H^{-1} A^T]^{-1},

where H is the (diagonal) penalty Hessian at the solved plan and A the
reduced marginal operator. The bracketed Gram matrix is inverted through the
solver's ``GramFactor``, the one Cholesky factor of its row-block Schur
complement, which ``newton_matrix`` and the entropy Newton solve with too.
Every covariance here is a congruence of the multinomial covariance through
blocks of this gradient; the covariance of the plan itself is exposed both as
a dense matrix (small instances) and as a matrix action that samples and
multiplies without materializing anything of size N^2 x N^2. These factor one
plan, a stack of one, which fails only where the factor does not exist.
``divergence_variances`` evaluates the divergence variance of a whole stack
of plans, the replicates of a resampling loop, through one stacked
``GramFactor``, which leaves out the plans whose pivots fall below its floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import regularizers as rg
from ._util import readonly_array
from .exceptions import NumericalError
from .solver import GramFactor, TransportPlan
from .space import ConstraintOperator, CostVector, Prob

# Largest plan dimension for which N^2 x N^2 covariances are materialized
DENSE_COV_MAX_ENTRIES = 64 * 64

MODES = ("one_sample", "two_sample")


def multinomial_cov(r) -> np.ndarray:
    """Covariance of the multinomial empirical process: diag(r) - r r^T."""
    w = r.weights if isinstance(r, Prob) else np.asarray(r, dtype=float)
    return np.diag(w) - np.outer(w, w)


def _multinomial_quad(w, z):
    """z^T (diag(w) - w w^T) z without forming the matrix, over the last axis."""
    return np.sum(w * z * z, axis=-1) - np.sum(w * z, axis=-1) ** 2


def _multinomial_factor_apply(w, sqrt_w, Z) -> np.ndarray:
    """Map standard normal rows Z to rows with covariance diag(w) - w w^T."""
    return Z * sqrt_w - np.outer(Z @ sqrt_w, w)


@dataclass(frozen=True)
class SensitivityResult:
    """Gradient of the plan with respect to the reduced marginals."""

    grad_phi: np.ndarray  # (n_rows*n_cols, n_rows+n_cols-1)
    n_rows: int
    n_cols: int

    def __post_init__(self):
        object.__setattr__(self, "grad_phi", readonly_array(self.grad_phi))


def _plan_weights(reg: rg.Regularizer, plan: TransportPlan) -> np.ndarray:
    """Inverse Hessian diagonal of the penalty at the plan, shaped like the plan."""
    if reg.kind == "entropy":
        return plan.matrix
    return 1.0 / rg.hess_diag(reg, plan.matrix)


def _jacobian(factor: GramFactor) -> np.ndarray:
    """The plan gradient diag(w) A^T M^{-1}, one column per reduced marginal entry."""
    op = ConstraintOperator(factor.n_rows, factor.n_cols)
    X = factor.solve(np.eye(op.n_constraints_reduced))
    return factor.weights.reshape(-1, 1) * op.apply_transpose_reduced(X)


def plan_gradient(reg: rg.Regularizer, plan: TransportPlan) -> SensitivityResult:
    """Gradient of the solved plan with respect to the reduced marginals.

    The reduced system is solved against the identity through the Gram
    factor; the entropy penalty uses the plan entries themselves as the
    inverse Hessian diagonal.
    """
    grad = _jacobian(GramFactor(_plan_weights(reg, plan)))
    return SensitivityResult(grad_phi=grad, n_rows=plan.n_rows, n_cols=plan.n_cols)


def entropy_block_schur(plan: TransportPlan) -> np.ndarray:
    """First n_rows columns of the inverse reduced Gram matrix, entropy case.

    The blocks are the plan's own marginal sums, which coincide with (r, s)
    up to the solver residual.
    """
    if plan.reg.kind != "entropy":
        raise ValueError("the block-Schur path applies to entropy plans only")
    return GramFactor(plan.matrix).solve(np.eye(plan.n_rows + plan.n_cols - 1, plan.n_rows))


def _check_mode(mode, delta):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "two_sample":
        if delta is None or not 0.0 < delta < 1.0:
            raise ValueError("two-sample mode needs delta strictly inside (0, 1)")


class PlanCovarianceAction:
    """Matrix action of the plan limit covariance.

    Exposes matrix-vector products, quadratic forms, and Gaussian sampling
    for Sigma = J B J^T with J the relevant gradient block and B the
    (reduced) multinomial covariance, without ever materializing the
    N^2 x N^2 matrix. ``dense()`` builds it explicitly on small instances.
    """

    def __init__(self, reg: rg.Regularizer, plan: TransportPlan,
                 mode: str = "one_sample", delta: float | None = None):
        _check_mode(mode, delta)
        self.mode = mode
        self.delta = float(delta) if delta is not None else None
        self.n_rows = plan.n_rows
        self.n_cols = plan.n_cols
        self.dim = self.n_rows * self.n_cols
        self._op = ConstraintOperator(self.n_rows, self.n_cols)
        self._factor = GramFactor(_plan_weights(reg, plan))
        self._r = np.asarray(plan.r.weights)
        self._s = np.asarray(plan.s.weights)
        self._sqrt_r = np.sqrt(self._r)
        self._sqrt_s = np.sqrt(self._s)

    def _j_transpose(self, v) -> np.ndarray:
        """J_full^T v, length n_rows + n_cols - 1."""
        t = self._op.apply_reduced(self.weights * np.asarray(v, dtype=float).ravel())
        return self._factor.solve(t)

    def _b_apply(self, t) -> np.ndarray:
        n1, tr = self.n_rows, t[:self.n_rows]
        out = np.zeros_like(t)
        out[:n1] = self._r * tr - self._r * np.sum(self._r * tr)
        if self.mode == "two_sample":
            ts, s_star = t[n1:], self._s[:-1]
            out[:n1] *= self.delta
            out[n1:] = (1.0 - self.delta) * (s_star * ts - s_star * np.sum(s_star * ts))
        return out

    def matvec(self, v) -> np.ndarray:
        """Sigma v for a flat plan-space vector v."""
        x = self._factor.solve(self._b_apply(self._j_transpose(v)))
        return self.weights * self._op.apply_transpose_reduced(x)

    def quad_form(self, v) -> float:
        """v^T Sigma v."""
        t = self._j_transpose(v)
        n1 = self.n_rows
        if self.mode == "one_sample":
            return float(_multinomial_quad(self._r, t[:n1]))
        return float(self.delta * _multinomial_quad(self._r, t[:n1])
                     + (1.0 - self.delta) * _multinomial_quad(self._s[:-1], t[n1:]))

    @property
    def weights(self) -> np.ndarray:
        """Inverse Hessian diagonal w at the plan, flat of length dim."""
        return self._factor.weights.ravel()

    def sample_reduced(self, M: int, rng) -> np.ndarray:
        """Reduced coordinates of M Gaussian draws, shape (M, n_rows + n_cols - 1).

        Row k holds (x, y) with y of length n_cols - 1; the draw itself is
        w_ij * (x_i + y_j) with y padded by a zero for the last column.
        Sampling factors the small multinomial covariance instead of Sigma:
        a standard normal vector is pushed through the multinomial factor and
        then through the inverse reduced Gram matrix.
        """
        M = int(M)
        n1, n2 = self.n_rows, self.n_cols
        if self.mode == "one_sample":
            Z = rng.standard_normal((M, n1))
            U = _multinomial_factor_apply(self._r, self._sqrt_r, Z)
            T = np.hstack([U, np.zeros((M, n2 - 1))])
        else:
            Zr = rng.standard_normal((M, n1))
            Zs = rng.standard_normal((M, n2))
            Ur = _multinomial_factor_apply(self._r, self._sqrt_r, Zr)
            Us = _multinomial_factor_apply(self._s, self._sqrt_s, Zs)[:, :-1]
            T = np.hstack([np.sqrt(self.delta) * Ur, np.sqrt(1.0 - self.delta) * Us])
        return self._factor.solve(T.T).T

    def sample(self, M: int, rng) -> np.ndarray:
        """M Gaussian draws with covariance Sigma, shape (M, dim)."""
        X = self.sample_reduced(M, rng)
        return (self.weights[:, None] * self._op.apply_transpose_reduced(X.T)).T

    def dense(self) -> np.ndarray:
        """Materialized Sigma; refused beyond small instances."""
        if self.dim > DENSE_COV_MAX_ENTRIES:
            raise ValueError(
                f"refusing to materialize a {self.dim} x {self.dim} covariance; "
                "use the matrix action instead")
        n1, n2 = self.n_rows, self.n_cols
        J = _jacobian(self._factor)
        if self.mode == "one_sample":
            Jr = J[:, :n1]
            return Jr @ multinomial_cov(self._r) @ Jr.T
        B = np.zeros((n1 + n2 - 1, n1 + n2 - 1))
        B[:n1, :n1] = self.delta * multinomial_cov(self._r)
        B[n1:, n1:] = (1.0 - self.delta) * multinomial_cov(self._s)[:-1, :-1]
        return J @ B @ J.T


@dataclass(frozen=True)
class CovarianceResult:
    """Materialized plan covariance with its mode and, once computed, the
    scalar divergence variance."""

    sigma_plan: np.ndarray
    mode: str
    delta: float | None = None
    sigma_divergence: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigma_plan", readonly_array(self.sigma_plan))


def plan_covariance_action(reg: rg.Regularizer, plan: TransportPlan,
                           mode: str = "one_sample",
                           delta: float | None = None) -> PlanCovarianceAction:
    """Matrix action of the plan limit covariance at the solved plan."""
    return PlanCovarianceAction(reg, plan, mode=mode, delta=delta)


def plan_covariance(reg: rg.Regularizer, plan: TransportPlan,
                    mode: str = "one_sample",
                    delta: float | None = None) -> CovarianceResult:
    """Materialized plan limit covariance (small instances only)."""
    action = PlanCovarianceAction(reg, plan, mode=mode, delta=delta)
    return CovarianceResult(sigma_plan=action.dense(), mode=mode, delta=action.delta)


def divergence_gradient(c, plan, p: float | None = None) -> np.ndarray:
    """Gradient of pi -> <c, pi>**(1/p) at the plan, a TransportPlan or its entries
    (then p must be given with a raw cost)."""
    entries = c.entries if isinstance(c, CostVector) else np.asarray(c, dtype=float).ravel()
    if p is None:
        p = c.p if isinstance(c, CostVector) else plan.p
    if p == 1.0:
        return entries
    ip = float(entries @ np.ravel(getattr(plan, "entries", plan)))
    if ip <= 0.0:
        raise NumericalError("the p-th root is not differentiable at zero transport cost")
    return (1.0 / p) * ip ** (1.0 / p - 1.0) * entries


def divergence_variance(plan: TransportPlan, c, sigma) -> float:
    """Scalar limit variance gamma^T Sigma gamma of the transport distance.

    ``sigma`` may be a CovarianceResult, a dense matrix, or a
    PlanCovarianceAction.
    """
    gamma = divergence_gradient(c, plan)
    if isinstance(sigma, PlanCovarianceAction):
        return sigma.quad_form(gamma)
    if isinstance(sigma, CovarianceResult):
        sigma = sigma.sigma_plan
    sigma = np.asarray(sigma, dtype=float)
    return float(gamma @ sigma @ gamma)


def divergence_variances(C, P, R, S, p: float, mode: str = "one_sample",
                         delta: float | None = None) -> np.ndarray:
    """Divergence limit variances of a stack of entropy plans, one stacked Schur solve.

    P (B, n1, n2) holds plans on the cost matrix C, each zero off its own
    support, and R (B, n1), S (B, n2) their marginals, zero off it likewise.
    Slice b gets what ``divergence_variance`` gives at its plan restricted to
    its support, up to rounding: x = M^{-1} A_red (pi * gamma) through one
    stacked ``GramFactor`` and the multinomial quadratic form of its blocks. A
    slice that the stack does not factor (see ``GramFactor.factored``) or that
    sits at zero transport cost under a fractional root gets NaN, for the
    caller to evaluate on its own, through a stack of one, and meet any error
    there.
    """
    _check_mode(mode, delta)
    free = GramFactor.free_columns(S)
    cost = (C * P).sum(axis=(1, 2))
    stackable = (cost > 0) | (p == 1.0)
    P, R, S, free, cost = (a[stackable] for a in (P, R, S, free, cost))
    weighted = P * C  # pi * gamma, with gamma = C at p = 1
    if p != 1.0:
        weighted *= ((1.0 / p) * cost ** (1.0 / p - 1.0))[:, None, None]
    gram = GramFactor(P, free, R <= 0)
    x, y = gram.solve_blocks(weighted.sum(axis=2), np.where(free, weighted.sum(axis=1), 0.0))
    sigma2 = _multinomial_quad(R, x)
    if mode == "two_sample":
        sigma2 = delta * sigma2 + (1.0 - delta) * _multinomial_quad(S * free, y)
    out = np.full(len(stackable), np.nan)
    out[np.flatnonzero(stackable)[gram.factored]] = sigma2[gram.factored]
    return out


def objective_variance(alpha, r) -> float:
    """Limit variance of the regularized objective value: alpha^T Sigma(r) alpha."""
    a = getattr(alpha, "alpha", alpha)
    a = np.asarray(a, dtype=float).ravel()
    w = r.weights if isinstance(r, Prob) else np.asarray(r, dtype=float)
    return float(_multinomial_quad(w, a))
