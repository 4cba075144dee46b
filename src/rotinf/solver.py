"""Regularized transport solvers and a small exact-transport baseline.

Two solvers compute the unique regularized plan: log-stabilized Sinkhorn
scaling for the entropy penalty and a damped Newton iteration on the reduced
dual system for any supported penalty. Both report the max-abs marginal
residual as their convergence diagnostic. One loop, ``_sinkhorn_stack``,
runs every Sinkhorn iteration, for a stack of marginal pairs over one
kernel; ``sinkhorn_matrix`` runs a single solve as a stack of one, over a
schedule of strengths. A Sinkhorn solve that stalls, as small regularization
makes it do, is handed to a warm entropy Newton
(Brauer, Clason, Lorenz & Wirth 2017) and ends after one column update, or
resumes Sinkhorn where it stalled when Newton fails, to be handed again after
a window twice as long. ``solve_replicates`` runs the warm Sinkhorn solves
of a resampling loop together over one shared kernel, and its stalled
replicates through one stacked Newton, and yields them as arrays: runs of
plans on the loop's cost. ``solve_reduced`` is the entry point the rest of
the package solves through. Every Newton step,
plan gradient and variance solves with the reduced marginal Gram matrix
through one Cholesky factor, ``GramFactor``, of one plan or of a stack.

The exact baseline solves the unregularized linear program on tiny instances
and reads every optimal dual vertex off a basic optimal plan: diag(r) in
closed form when r = s on distinct points, the dual simplex's plan
otherwise. The vertices feed the non-Gaussian limit sampler used to
benchmark the small-regularization regime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import regularizers as rg
from ._util import positive_int, readonly_array, rng_for
from .exceptions import ConvergenceError, NumericalError, ReductionRequiredError
from .space import SIMPLEX_ATOL, ConstraintOperator, CostVector, Prob

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000

# the window [e^-200, e^200] outside which scaling factors are absorbed into the potentials
_ABSORB_LO, _ABSORB_HI = np.exp(-200.0), np.exp(200.0)

# A Sinkhorn solve stalls when, at the end of a window of iterations, its
# residual is above the ratio times the residual at the window's start; it
# then leaves for a warm Newton. Windows start where the solve does and are
# the larger of _STALL_WINDOW and half the kernel's smaller side, as a Newton
# step's Gram costs that many Sinkhorn sweeps; a failed Newton doubles it.
_STALL_WINDOW = 10
_STALL_RATIO = 0.5
_NEWTON_STEPS = 30
_PIVOT_FLOOR = 1e-10
# entries of the (rows, n1, n2) plans a Newton stack holds at once
_STACK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class TransportPlan:
    """Strictly positive transport plan with marginals and solver diagnostics.

    ``iterations`` counts the solver's steps: Newton steps for ``newton_matrix``;
    Sinkhorn iterations plus the steps of a stalled solve's Newton hand-offs
    for the entropy solvers, both charged against ``max_iter``. ``residual``
    is the max-abs marginal residual at exit.
    """

    entries: np.ndarray  # (n_rows * n_cols,), row-major
    r: Prob
    s: Prob
    lam: float
    reg: rg.Regularizer
    p: float
    iterations: int
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "entries", readonly_array(self.entries).ravel())
        if self.entries.size != self.r.dim * self.s.dim:
            raise ValueError("plan size does not match the marginals")

    @property
    def n_rows(self) -> int:
        return self.r.dim

    @property
    def n_cols(self) -> int:
        return self.s.dim

    @property
    def matrix(self) -> np.ndarray:
        return self.entries.reshape(self.n_rows, self.n_cols)


@dataclass(frozen=True)
class DualPotentials:
    """Row and column dual potentials with the last column potential pinned to 0."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", readonly_array(self.alpha).ravel())
        object.__setattr__(self, "beta", readonly_array(self.beta).ravel())


def _logsumexp(T, axis):
    m = T.max(axis=axis, keepdims=True)
    out = np.log(np.exp(T - m).sum(axis=axis)) + m.squeeze(axis=axis)
    return out


def _check_setting(C, lam, tol, max_iter):
    """Refuse a bad regularization strength, tolerance, iteration budget or cost
    before any iteration."""
    positive_int("max_iter", max_iter)
    if not 0.0 < lam < np.inf:
        raise ValueError("regularization strength must be finite and positive")
    if not 0.0 < tol < np.inf:
        raise ValueError("tolerance must be finite and positive")
    if not np.isfinite(C).all():
        raise ValueError("cost matrix must be finite")


def _check_problem(C, r, s, lam, tol, max_iter):
    """Validate a raw problem for the solvers and return it as float arrays."""
    C = np.asarray(C, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    _check_setting(C, lam, tol, max_iter)
    if not (np.isfinite(r).all() and np.isfinite(s).all()):
        raise ValueError("marginals must be finite")
    if (r <= 0).any() or (s <= 0).any():
        raise ReductionRequiredError("marginals must be strictly positive; reduce the support first")
    if C.ndim != 2 or C.shape != (r.size, s.size):
        raise ValueError("marginal sizes do not match the cost matrix")
    # a mass gap d leaves every plan's max residual at d / (n1 + n2) or more
    gap = abs(r.sum() - s.sum())
    if gap > max(tol, 2 * SIMPLEX_ATOL):
        raise ValueError(f"marginals must have equal mass (they differ by {gap:.3e})")
    return C, r, s


def _check_init(init, shape):
    """Warm-start potentials (f0, g0) as float arrays, refused before any iteration
    unless finite and sized to the sides of a cost of that shape."""
    f0, g0 = (np.asarray(x, dtype=float) for x in init)
    if (f0.shape, g0.shape) != ((shape[0],), (shape[1],)):
        raise ValueError(f"warm-start potentials of shapes {f0.shape} and {g0.shape} do not "
                         f"match the {shape[0]} x {shape[1]} cost matrix")
    if not (np.isfinite(f0).all() and np.isfinite(g0).all()):
        raise ValueError("warm-start potentials must be finite")
    return f0, g0


def _new_watch(n1, n2):
    """Fresh stall watches (reference, window, next check) for solves on n1 x n2
    supports (arrays of them): no reference yet, a first window of
    max(_STALL_WINDOW, min(n1, n2) // 2) iterations, and a check at once."""
    watch = np.zeros((np.size(n1), 3))
    watch[:, 0] = np.inf
    watch[:, 1] = np.maximum(_STALL_WINDOW, np.minimum(n1, n2) // 2)
    return watch


def _diagonal_optimum(C, r, s):
    """Whether diag(r) is the unique unregularized optimum: r = s, and a cost that
    is zero exactly on its diagonal and positive everywhere else."""
    off = ~np.eye(len(r), dtype=bool)
    return np.array_equal(r, s) and np.array_equal(C > 0, off) and not C[~off].any()


def sinkhorn_matrix(C, r, s, lam, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, init=None,
                    _resume=None):
    """Entropy-regularized plan on raw arrays, by stabilized Sinkhorn scaling.

    One loop runs each (strength, tol, max_iter) entry of a schedule from the
    potentials (f, g) the entry before left, or from a log-domain round when
    there are none: ``_sinkhorn_stack`` scales the kernel
    exp((f + g - C) / strength) as a stack of one, and the kernel is rebuilt
    after scalings that leave the absorption window are absorbed into (f, g),
    or after a log-domain round when an update cannot be formed (as when the
    kernel underflows). A cold start at lam below span(C) / 25 first runs a
    ladder at span / 4, span / 16, ... above 4 lam, each at tol max(tol, 1e-4)
    within 1,000 iterations, except where diag(r) is the unique unregularized
    optimum (``_diagonal_optimum``): there the cold round already sits at that
    lam -> 0 limit, while the ladder's potentials leave the mass split between
    weakly coupled points off where Sinkhorn cannot move it.

    Parameters
    ----------
    C : (n1, n2) ndarray
        Cost matrix.
    r, s : ndarray
        Strictly positive marginals summing to one.
    lam : float
        Regularization strength, > 0.
    init : (f0, g0) pair, optional
        Warm-start potentials.
    _resume : (iterations, watch), optional
        Continues a warm solve that left the stack of ``solve_replicates``,
        from its absorbed potentials, with that many iterations and that
        (1, 3) stall watch (see ``_sinkhorn_stack``); ``max_iter`` then
        bounds the whole solve.

    Returns
    -------
    P : (n1, n2) ndarray
        The plan.
    f, g : ndarray
        Dual potentials, with ``P = exp((f + g^T - C) / lam)``.
    iterations : int
        Sinkhorn iterations, the ladder's included, plus the steps of the
        Newton hand-offs; Newton steps count against ``max_iter``.
    residual : float
    """
    C, r, s = _check_problem(C, r, s, lam, tol, max_iter)
    f, g = (None, np.zeros(C.shape[1])) if init is None else _check_init(init, C.shape)
    if 1 in C.shape:
        # a single row or column leaves no freedom; the product plan is exact
        P = np.outer(r, s)
        Z = C + lam * np.log(P)
        f = Z[:, -1].copy()
        g = Z[0, :] - Z[0, -1]
        return P, f, g, 0, 0.0

    span = float(C.max() - C.min())
    fresh = (0, _new_watch(*C.shape))  # _sinkhorn_stack copies the watch it is given
    schedule = []
    if init is None and lam < span / 25.0 and not _diagonal_optimum(C, r, s):
        hot = span / 4.0
        while hot > lam * 4.0:
            schedule.append((hot, max(tol, 1e-4), 1000, fresh))
            hot /= 4.0
    schedule.append((lam, tol, max_iter, _resume or fresh))
    total = 0
    for eps, eps_tol, budget, (it, watch) in schedule:
        status = _UNFORMED if f is None else _ABSORB
        while status in (_ABSORB, _UNFORMED):
            if status == _UNFORMED:  # one full Sinkhorn round carried out in the log domain
                f = eps * (np.log(r) - _logsumexp((g[None, :] - C) / eps, axis=1))
                g = eps * (np.log(s) - _logsumexp((f[:, None] - C) / eps, axis=0))
                it += 1
            K = np.exp((f[:, None] + g[None, :] - C) / eps)
            (u,), (v,), (it,), (res,), (status,), watch = _sinkhorn_stack(
                K, r[None], s[None], eps, eps_tol, budget, np.array([it]), watch)
            f = f + eps * np.log(u)
            g = g + eps * np.log(v)
        total += int(it)
    if status == _FAILED:
        raise _sinkhorn_failure(tol, max_iter, float(res), total)
    return (u[:, None] * K) * v[None, :], f, g, total, float(res)


def _sinkhorn_failure(tol, max_iter, res, it):
    return ConvergenceError(
        f"Sinkhorn did not reach tolerance {tol:g} within {max_iter} iterations "
        f"(residual {res:.3e})", residual=res, iterations=it)


def sinkhorn_entropy(c: CostVector, r: Prob, s: Prob, lam: float,
                     tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                     init=None) -> TransportPlan:
    """Entropy-regularized transport plan between r and s, through ``solve_reduced``.

    Raises ``ReductionRequiredError`` when a marginal has zero entries and
    ``ConvergenceError`` when the marginal residual does not reach ``tol``
    within ``max_iter`` iterations.
    """
    if (r.weights <= 0).any() or (s.weights <= 0).any():
        raise ReductionRequiredError("marginals must be strictly positive; reduce the support first")
    return solve_reduced(c, r.weights, s.weights, lam, tol=tol, max_iter=max_iter,
                         init=init).plan


class GramFactor:
    """Cholesky factor of the reduced marginal Gram matrix M = A_red diag(W) A_red^T.

    ``W`` holds (n_rows, n_cols) inverse Hessian weights: the plan for
    entropy, 1/f'' otherwise. M = [diag(row sums), V; V^T, diag(c)] with V
    the weights of the free columns and c their column sums (``sums``, if
    given, holds W's row and column sums). One pass over ``W`` forms
    -V diag(1/c), -0 off the free columns; its product with W^T plus
    diag(row sums) is the Schur complement diag(row sums) - V diag(1/c) V^T,
    bit for bit, as IEEE negation is exact. That is factored once, slice by
    slice, by LAPACK's potrf, and every solve runs potrs on that factor.

    A 2-D ``W`` is a stack of one on its full support (every column but the
    last is free), solved in the reduced layout by ``solve``. It raises
    ``ReductionRequiredError`` on a free column of no mass and
    ``NumericalError`` when the factor does not exist. A stack (B, n1, n2)
    holds slices zero off their own support: a row off it (``off_row``) gets
    an identity block, and a column off it, like the slice's last support
    column, whose potential is pinned, is not ``free`` (``free_columns``).
    ``factored`` marks the slices with no free column of no mass and every
    pivot above _PIVOT_FLOOR times their largest row mass; below it, rounding
    alone decides the direction (as when a plan's kernel has underflowed
    between two blocks). ``solve_blocks`` serves those.
    """

    def __init__(self, W, free=None, off_row=None, sums=None):
        W = np.asarray(W, dtype=float)
        single = W.ndim == 2
        if single:
            W = W[None]
            free = np.arange(W.shape[2])[None] < W.shape[2] - 1
            off_row = 0.0
        self.weights = W
        B, self.n_rows, self.n_cols = W.shape
        rsum, csum = (W.sum(axis=2), W.sum(axis=1)) if sums is None else sums
        empty = free & (csum <= 0)
        if single and empty.any():
            raise ReductionRequiredError("column marginal has zero entries; reduce the support first")
        self._free = free
        self._c = np.where(free & ~empty, csum, 1.0)
        self._nvc = W / np.where(free, -self._c, -np.inf)[:, None, :]
        schur = self._nvc @ W.transpose(0, 2, 1)
        schur.reshape(B, self.n_rows ** 2)[:, :: self.n_rows + 1] += rsum + off_row  # diagonals
        # potrf factors each slice in place: its transpose, Fortran-ordered, becomes
        # the upper factor U with U^T U = the slice, which potrs takes uncopied
        self._chol = schur
        info = [linalg.lapack.dpotrf(g.T, clean=False, overwrite_a=True)[1] for g in schur]
        if single:
            if info[0]:
                raise NumericalError("reduced marginal system is numerically singular: leading "
                                     f"minor {info[0]} of its Schur complement is not positive")
            self.factored = np.ones(1, dtype=bool)
            return
        pivots = np.diagonal(schur, axis1=1, axis2=2).min(axis=1) ** 2
        self.factored = ((np.array(info) == 0) & (pivots > _PIVOT_FLOOR * rsum.max(axis=1))
                         & ~empty.any(axis=1))

    @staticmethod
    def free_columns(S):
        """The columns of positive weight in S (B, n2), less each row's last one."""
        free = S > 0
        free[np.arange(len(S)), S.shape[1] - 1 - np.argmax(free[:, ::-1], axis=1)] = False
        return free

    def solve_blocks(self, top, bottom):
        """Both blocks (x, y) of M^{-1} [top; bottom] slice by slice, for top (B, n1)
        and bottom (B, n2), or with a trailing axis of right-hand sides; x is zero
        on the slices not factored."""
        vector = top.ndim == 2
        if vector:
            top, bottom = top[..., None], bottom[..., None]
        rhs = top + self._nvc @ bottom
        x = np.zeros_like(rhs)
        for b in np.flatnonzero(self.factored):
            x[b] = linalg.lapack.dpotrs(self._chol[b].T, rhs[b], lower=False)[0]
        y = ((bottom - (self.weights.transpose(0, 2, 1) @ x) * self._free[..., None])
             / self._c[..., None])
        return (x[..., 0], y[..., 0]) if vector else (x, y)

    def solve(self, B) -> np.ndarray:
        """M^{-1} B, stack of one, for a vector or a matrix B of n_rows + n_cols - 1 rows:
        the reduced layout, whose last column is dropped."""
        B = np.asarray_chkfinite(B, dtype=float)
        top, bottom = B[: self.n_rows], B[self.n_rows :]
        x = linalg.lapack.dpotrs(self._chol[0].T, top + self._nvc[0, :, :-1] @ bottom,
                                 lower=False)[0]
        c = self._c[0, :-1] if B.ndim == 1 else self._c[0, :-1, None]
        return np.concatenate([x, (bottom - self.weights[0, :, :-1].T @ x) / c])


def _reduced_gram(W):
    """Dense A_red diag(w) A_red^T: the oracle that tests check GramFactor against."""
    n1, n2 = W.shape
    m = n1 + n2 - 1
    M = np.zeros((m, m))
    rows = W.sum(axis=1)
    cols = W.sum(axis=0)
    M[:n1, :n1] = np.diag(rows)
    M[:n1, n1:] = W[:, :-1]
    M[n1:, :n1] = W[:, :-1].T
    M[n1:, n1:] = np.diag(cols[:-1])
    return M


def _newton_stack(K, U, V, R, S, lam, tol, steps):
    """Warm entropy Newton for a stack of plans diag(U[b]) K diag(V[b]) on one kernel.

    ``_sinkhorn_stack`` calls it for the rows that stall at one iteration; a
    single solve's stall is a stack of one. Row b of ``U`` (B, n1) and ``V``
    (B, n2) holds Sinkhorn scalings, zero off the support of its marginals
    R[b] and S[b]. Each step solves the row-block
    Schur systems of every row at once through one ``GramFactor`` and
    backtracks row by row to an Armijo increase of the dual.
    A row succeeds once the plan after a column update v = s / (K^T u) meets
    ``tol`` on the row residual, and fails when its Gram is not positive
    definite, its line search underflows or its ``steps`` (a bound for every
    row or one per row) run out. Rows are taken in chunks of at most
    _STACK_ENTRIES plan entries. Returns (U, V, taken, ok): the Newton
    scalings with the column update applied for rows that succeeded and the
    input scalings for rows that failed, the steps each row attempted and
    which rows succeeded.
    """
    size = max(1, _STACK_ENTRIES // K.size)
    steps = np.broadcast_to(steps, len(U))
    chunks = [_newton_chunk(K, *(x[lo:lo + size] for x in (U, V, R, S, steps)), lam, tol)
              for lo in range(0, len(U), size)]
    return tuple(np.concatenate(part) for part in zip(*chunks))


def _newton_chunk(K, U, V, R, S, steps, lam, tol):
    """``_newton_stack`` on one chunk of rows. The rows still iterating are
    compacted only on the steps where some leave, and a line search whose
    first trials all pass takes them, and their plans' masses, as the next state."""
    B = len(U)
    U_out, V_out = U.copy(), V.copy()
    taken = np.zeros(B, dtype=int)
    succeeded = np.zeros(B, dtype=bool)
    idx = np.arange(B)  # rows still iterating, and their state:
    u, v, r, s, fr, off_row = U.copy(), V.copy(), R, S, GramFactor.free_columns(S), R <= 0
    with np.errstate(all="ignore"):  # overflowing or vanishing trial steps are refused
        P = u[:, :, None] * K
        P *= v[:, None, :]
        mass = P.sum(axis=(1, 2))
        while idx.size:
            rsum, csum = P.sum(axis=2), P.sum(axis=1)
            col_scale = np.divide(s, csum, out=np.zeros_like(s), where=s > 0)
            fit = np.abs((P * col_scale[:, None, :]).sum(axis=2) - r).max(axis=1)
            col = v * col_scale
            done = (fit <= tol) & (np.isfinite(col) & ((col > 0) | (s <= 0))).all(axis=1)
            if done.any():
                U_out[idx[done]], V_out[idx[done]] = u[done], col[done]
                succeeded[idx[done]] = True
            keep = ~done & (taken[idx] < steps[idx])
            if not keep.all():
                idx, u, v, r, s, fr, off_row, P, mass, rsum, csum = (
                    a[keep] for a in (idx, u, v, r, s, fr, off_row, P, mass, rsum, csum))
                if not idx.size:
                    break
            taken[idx] += 1
            gram = GramFactor(P, fr, off_row, sums=(rsum, csum))
            pd = gram.factored
            F_row, F_col = rsum - r, np.where(fr, csum - s, 0.0)
            x, z = gram.solve_blocks(-F_row, -F_col)
            # the dual <a, r> + <b, s> - lam * sum(P) in the log scalings a, b
            linear = (np.where(off_row, 0.0, r * np.log(u)).sum(axis=1)
                      + np.where(s > 0, s * np.log(v), 0.0).sum(axis=1))
            rounding = 1e-14 * np.maximum(1.0, lam * np.abs(linear - mass))
            slope = -lam * ((F_row * x).sum(axis=1) + (F_col * z).sum(axis=1))
            rise = lam * ((r * x).sum(axis=1) + (s * z).sum(axis=1))
            t = np.ones(idx.size)
            trying = np.flatnonzero(pd)
            # the first trial's bound costs passes over the plans, taken only for steps
            # that can raise a log-entry of a plan by more than 10 (x and z are 0 off
            # the support, so max x + max z bounds that rise); others mostly pass t = 1
            far = pd & (x.max(axis=1) + z.max(axis=1) > 10)
            if far.any():
                cap = (np.maximum(rise, 0) + lam * mass + rounding
                       + 1e-4 * np.maximum(-slope, 0))
                t[far] = _first_trial(P[far], x[far], z[far], cap[far], lam)
                trying = trying[t[trying] >= 1e-14]
            first = True
            while trying.size:
                at = slice(None) if trying.size == idx.size else trying  # a view if all try
                tt = t[at]
                ut = u[at] * np.exp(tt[:, None] * x[at])
                vt = v[at] * np.exp(tt[:, None] * z[at])
                Pt = ut[:, :, None] * K
                Pt *= vt[:, None, :]
                mass_t = Pt.sum(axis=(1, 2))
                gain = tt * rise[at] - lam * (mass_t - mass[at])
                ok = ((np.isfinite(ut) & ((ut > 0) | off_row[at])).all(axis=1)
                      & (np.isfinite(vt) & ((vt > 0) | (s[at] <= 0))).all(axis=1)
                      & (gain >= 1e-4 * tt * slope[at] - rounding[at]))
                if first and ok.all():  # the trials are the state of the rows that stay
                    if trying.size < idx.size:
                        idx, r, s, fr, off_row = (a[trying] for a in (idx, r, s, fr, off_row))
                    u, v, P, mass = ut, vt, Pt, mass_t
                    break
                first = False
                moved = trying[ok]
                u[moved], v[moved], P[moved], mass[moved] = ut[ok], vt[ok], Pt[ok], mass_t[ok]
                t[trying[~ok]] *= 0.5
                trying = trying[~ok & (t[trying] >= 1e-14)]
            else:
                keep = pd & (t >= 1e-14)
                if not keep.all():
                    idx, u, v, r, s, fr, off_row, P, mass = (
                        a[keep] for a in (idx, u, v, r, s, fr, off_row, P, mass))
    return U_out, V_out, taken, succeeded


def _first_trial(P, x, z, cap, lam):
    """The length each row's backtracking line search may start at: the largest
    power of two t <= 1 such that every longer trial provably fails the Armijo test.

    Row b moves its plan P[b] to P_t = P e^{t (x_i + z_j)}. For t <= 1 a trial
    passes only if lam * sum(P_t) <= cap[b], a bound on the rest of the test,
    and sum(P_t) is at least each of its entries. So every t above
    L = min over P_ij > 0 and a_ij = x_i + z_j > 0 of (log(cap / lam) - log P_ij) / a_ij
    fails; the 1e-6 added to log(cap / lam) absorbs rounding. Halving from 1 tries
    the same powers of two and refuses every one above L, so starting at the
    largest power of two <= L changes no outcome. A row whose L is not a
    number starts at 1, and one whose L is not positive at 0.
    """
    a = x[:, :, None] + z[:, None, :]
    with np.errstate(divide="ignore"):  # log 0 = -inf puts an entry of no mass at inf
        gap = (np.log(cap / lam) + 1e-6)[:, None, None] - np.log(P)
    L = np.divide(gap, a, out=np.full_like(a, np.inf), where=a > 0).min(axis=(1, 2))
    L = np.fmin(L, 1.0)
    return np.where(L > 0, np.ldexp(0.5, np.frexp(L)[1]), 0.0)


def newton_matrix(reg: rg.Regularizer, C, r, s, lam, tol=DEFAULT_TOL, max_iter=200):
    """Damped Newton iteration on the reduced dual system, raw arrays.

    The dual objective <mu, b> - lam * f*((A^T mu - c)/lam) is concave and
    smooth on its domain; steps are backtracked both to stay inside the
    conjugate domain and to satisfy an Armijo increase. Costs are shifted by
    a constant when the conjugate domain requires strictly negative duals,
    which leaves the plan unchanged on fixed marginals.

    Returns (pi_flat, mu, iterations, residual).
    """
    C, r, s = _check_problem(C, r, s, lam, tol, max_iter)
    n1, n2 = C.shape
    c = C.ravel()
    if reg.kind == "lp_quasi":
        shift = lam - float(c.min())
    else:
        shift = max(0.0, -float(c.min()))
    if shift != 0.0:
        c = c + shift
    op = ConstraintOperator(n1, n2)
    b = np.concatenate([r, s[:-1]])
    mu = np.zeros(n1 + n2 - 1)

    def state(mu_try):
        y = (op.apply_transpose_reduced(mu_try) - c) / lam
        if not rg.in_conjugate_domain(reg, y):
            return None, -np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            pi = rg.conjugate_grad(reg, y)
            fstar = float(pi @ y) - rg.value(reg, pi)
        if not np.isfinite(pi).all() or (pi <= 0).any() or not np.isfinite(fstar):
            return None, -np.inf
        return pi, float(mu_try @ b) - lam * fstar

    pi, gval = state(mu)
    if pi is None:
        raise NumericalError("initial dual point is infeasible")
    it = 0
    while True:
        F = op.apply_reduced(pi) - b
        res = float(np.abs(F).max())
        if res <= tol:
            break
        if it >= max_iter:
            raise ConvergenceError(
                f"Newton did not reach tolerance {tol:g} within {max_iter} iterations "
                f"(residual {res:.3e})", residual=res, iterations=it)
        it += 1
        d = GramFactor(1.0 / rg.hess_diag(reg, pi).reshape(n1, n2) / lam).solve(-F)
        slope = -float(F @ d)  # directional derivative of the dual objective
        rounding = 1e-14 * max(1.0, abs(gval))  # near the optimum the increase
        t = 1.0                                 # falls below double precision
        while True:
            pi_try, g_try = state(mu + t * d)
            if pi_try is not None and g_try >= gval + 1e-4 * t * slope - rounding:
                break
            t *= 0.5
            if t < 1e-14:
                raise ConvergenceError("Newton line search step underflow",
                                       residual=res, iterations=it)
        mu = mu + t * d
        pi, gval = pi_try, g_try
    return pi, mu, it, res


def solve_general(reg: rg.Regularizer, c: CostVector, r: Prob, s: Prob, lam: float,
                  tol: float = DEFAULT_TOL, max_iter: int = 200) -> TransportPlan:
    """Regularized plan for any supported penalty via the dual Newton iteration."""
    pi, _, it, res = newton_matrix(reg, c.matrix, r.weights, s.weights, lam,
                                   tol=tol, max_iter=max_iter)
    return TransportPlan(entries=pi, r=r, s=s, lam=float(lam), reg=reg, p=c.p,
                         iterations=it, residual=res)


def divergence_matrix(C, P, p: float) -> float:
    """p-th root of the transport cost of a plan, raw arrays."""
    val = float(np.sum(np.asarray(C) * np.asarray(P)))
    if p == 1.0:
        return val
    return val ** (1.0 / p)


def divergence(c: CostVector, plan: TransportPlan) -> float:
    """Regularized transport distance <c, pi>**(1/p)."""
    return divergence_matrix(c.matrix, plan.matrix, c.p)


def dual_potentials(plan: TransportPlan, c: CostVector) -> DualPotentials:
    """Recover (alpha, beta) with beta[-1] = 0 from an entropy plan.

    The entropy plan satisfies c + lam*log(pi) = alpha_i + beta_j; the
    decomposition is read off and its additive structure verified.
    """
    if plan.reg.kind != "entropy":
        raise ValueError("dual potentials are defined for entropy plans only")
    C = c.matrix if isinstance(c, CostVector) else np.asarray(c, dtype=float)
    Z = C + plan.lam * np.log(plan.matrix)
    alpha = Z[:, -1].copy()
    beta = Z[0, :] - alpha[0]
    beta[-1] = 0.0
    resid = float(np.abs(Z - alpha[:, None] - beta[None, :]).max())
    if resid > 1e-6:
        raise NumericalError(
            f"plan is not additively structured in the log domain (residual {resid:.3e})")
    return DualPotentials(alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# Support reduction


@dataclass(frozen=True)
class ReducedSolution:
    """A plan solved on the joint support of the marginals.

    ``plan`` lives on the reduced index sets; ``full_entries`` re-embeds it
    into the original space with zero rows and columns. For entropy solves
    ``potentials`` holds the dual potentials re-embedded to full length
    (zeros off-support), usable to warm-start nearby solves.
    """

    plan: TransportPlan
    cost: np.ndarray  # reduced cost matrix
    row_support: np.ndarray
    col_support: np.ndarray
    n_rows_full: int
    n_cols_full: int
    potentials: tuple | None = None

    def full_entries(self) -> np.ndarray:
        out = np.zeros((self.n_rows_full, self.n_cols_full))
        out[np.ix_(self.row_support, self.col_support)] = self.plan.matrix
        return out.ravel()

    def divergence(self) -> float:
        return divergence_matrix(self.cost, self.plan.matrix, self.plan.p)


def _check_weights(C, rw, sw):
    """Validate marginal weights, vectors or stacks of rows, against the cost."""
    if (rw.shape[-1], sw.shape[-1]) != C.shape:
        raise ValueError(f"marginal sizes {rw.shape[-1]} and {sw.shape[-1]} do not match "
                         f"the {C.shape[0]} x {C.shape[1]} cost matrix")
    if not all(np.isfinite(w).all() and (w >= 0).all() for w in (rw, sw)):
        raise ValueError("marginal weights must be finite and nonnegative")


def solve_reduced(cost, r_weights, s_weights, lam, reg: rg.Regularizer | None = None,
                  p: float | None = None, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER, init=None) -> ReducedSolution:
    """Solve on the support of the marginals and keep the embedding indices.

    ``cost`` may be a CostVector or a raw (N, N) matrix (then ``p`` must be
    given). Zero-weight atoms are dropped, the reduced problem is solved, and
    the result carries enough information to re-embed or evaluate statistics
    on the reduced index set.
    """
    if isinstance(cost, CostVector):
        C = cost.matrix
        p = cost.p if p is None else p
    else:
        C = np.asarray(cost, dtype=float)
        if p is None:
            raise ValueError("p must be given with a raw cost matrix")
    rw = np.asarray(r_weights, dtype=float).ravel()
    sw = np.asarray(s_weights, dtype=float).ravel()
    _check_weights(C, rw, sw)
    rows = np.flatnonzero(rw > 0)
    cols = np.flatnonzero(sw > 0)
    r_red = Prob.from_weights(rw[rows], normalize=True)
    s_red = Prob.from_weights(sw[cols], normalize=True)
    C_red = C[np.ix_(rows, cols)]
    potentials = None
    if reg is None or reg.kind == "entropy":
        if init is not None:
            f0, g0 = _check_init(init, C.shape)
            init = (f0[rows], g0[cols])
        P, f, g, it, res = sinkhorn_matrix(C_red, r_red.weights, s_red.weights, lam,
                                           tol=tol, max_iter=max_iter, init=init)
        reg = rg.entropy()
        potentials = (np.zeros(C.shape[0]), np.zeros(C.shape[1]))
        potentials[0][rows] = f
        potentials[1][cols] = g
    else:
        P, _, it, res = newton_matrix(reg, C_red, r_red.weights, s_red.weights,
                                      lam, tol=tol, max_iter=min(max_iter, 500))
    plan = TransportPlan(entries=P.ravel(), r=r_red, s=s_red, lam=float(lam), reg=reg,
                         p=float(p), iterations=it, residual=res)
    return ReducedSolution(plan=plan, cost=C_red, row_support=rows, col_support=cols,
                           n_rows_full=C.shape[0], n_cols_full=C.shape[1],
                           potentials=potentials)


_DONE, _FAILED, _ABSORB, _UNFORMED = range(4)


def _sinkhorn_stack(K, R, S, lam, tol, max_iter, iters, watch):
    """Sinkhorn scaling of a stack of marginal pairs, the rows of R and S, over one kernel.

    This is the only Sinkhorn iteration: ``sinkhorn_matrix`` runs a single
    solve through it as a stack of one. Row b starts from the kernel itself,
    with scalings 1 on the support of R[b] and S[b] and 0 off it, at
    iteration count iters[b] and with stall watch watch[b] = (reference, window, next check): the
    residual at the start of its current window, the window's length and the
    count at which the window ends, inf once a Newton has succeeded. All rows
    advance together, and a row's path depends on its own state alone.

    The exit test is the row residual max|u K v - r|, the column residual too
    at count 0. A row leaves with status _DONE when it meets ``tol``,
    _FAILED when its count reaches ``max_iter``, _ABSORB after an update that
    takes a scaling out of [e^-200, e^200] (to be absorbed into the
    potentials), and _UNFORMED, with the scalings and count from before, when
    its update cannot be formed (a zero, infinite or NaN scaling). At the end
    of a window, a residual above _STALL_RATIO times the one at its start is
    a stall: the rows that stall at one iteration run one ``_newton_stack``
    in place of that update, and its steps count as iterations. A Newton
    that succeeds ends the watch; one that fails leaves the scalings as they
    were, and the watch re-arms from the residual at the stall with its
    window doubled. Returns (U, V, iterations, residuals, statuses, watches).
    """
    B = len(R)
    # the supports, and 1.0 off them: U + r_off has U's minimum over the support or 1
    r_in, s_in = R > 0, S > 0
    r_off, s_off = 1.0 - r_in, 1.0 - s_in
    U, V = 1.0 - r_off, 1.0 - s_off
    U_out, V_out, watch_out = np.empty_like(U), np.empty_like(V), np.empty((B, 3))
    iters_out, resid, status = np.empty(B, dtype=int), np.empty(B), np.empty(B, dtype=int)
    lo, hi = _ABSORB_LO, _ABSORB_HI
    masked = not (r_in.all() and s_in.all())
    # the rows running and their state; a row's count is the loop's plus its base
    live, base, watch = np.arange(B), np.array(iters), np.array(watch, dtype=float)

    def leave(mask, code, step):
        nonlocal live, U, V, KV, R, S, r_in, s_in, r_off, s_off, res, base, watch
        idx = live[mask]
        U_out[idx], V_out[idx], status[idx], resid[idx] = U[mask], V[mask], code, res[mask]
        iters_out[idx], watch_out[idx] = step + base[mask], watch[mask]
        if idx.size == live.size:
            live = idx[:0]
            return
        keep = ~mask
        live, U, V, KV, R, S, r_in, s_in, r_off, s_off, res, base, watch = (
            x[keep] for x in (live, U, V, KV, R, S, r_in, s_in, r_off, s_off, res, base, watch))

    it, soonest = 0, 0  # no row's window or budget ends before loop count soonest
    with np.errstate(all="ignore"):  # zero or overflowing scalings leave the loop
        while live.size:
            KV = V @ K.T
            res = np.abs(U * KV - R).max(axis=1)
            if it == 0:  # a row at count 0 has no column update behind it yet
                np.maximum(res, np.abs(V * (U @ K) - S).max(axis=1), out=res, where=base == 0)
            if res.min() <= tol:
                leave(res <= tol, _DONE, it)
                if not live.size:
                    break
            stalled = None
            if it >= soonest:
                failed = it + base >= max_iter
                if failed.any():
                    leave(failed, _FAILED, it)
                    if not live.size:
                        break
                count = it + base
                due = watch[:, 2] <= count
                stalled = due & (res > _STALL_RATIO * watch[:, 0])
                watch[stalled, 1] *= 2  # should its Newton fail
                # the next window starts here, or where the Newton of a stalled row ends
                watch[due, 0], watch[due, 2] = res[due], count[due] + watch[due, 1]
            it += 1
            U_old, V_old = U, V
            if masked:
                U = np.divide(R, KV, out=np.zeros_like(R), where=r_in)
                V = np.divide(S, U @ K, out=np.zeros_like(S), where=s_in)
            else:
                U = R / KV
                V = S / (U @ K)
            if stalled is not None:
                if stalled.any():
                    U[stalled], V[stalled], taken, ok = _newton_stack(
                        K, U_old[stalled], V_old[stalled], R[stalled], S[stalled], lam, tol,
                        np.minimum(_NEWTON_STEPS, max_iter - count[stalled]))
                    base[stalled] += taken - 1
                    watch[stalled, 2] += taken
                    watch[np.flatnonzero(stalled)[ok], 2] = np.inf  # success ends the watch
                soonest = (np.minimum(watch[:, 2], max_iter) - base).min()
            if masked:
                inside = lo <= (U + r_off).min() and lo <= (V + s_off).min()
            else:
                inside = lo <= U.min() and lo <= V.min()
            if inside and U.max() <= hi and V.max() <= hi:
                continue
            out = ~((((U >= lo) & (U <= hi)) | ~r_in).all(axis=1)
                    & (((V >= lo) & (V <= hi)) | ~s_in).all(axis=1))
            if stalled is not None:
                out &= ~stalled
            if out.any():
                formed = ((np.isfinite(U) & ((U > 0) | ~r_in)).all(axis=1)
                          & (np.isfinite(V) & ((V > 0) | ~s_in)).all(axis=1))
                U[~formed], V[~formed] = U_old[~formed], V_old[~formed]
                leave(out, np.where(formed, _ABSORB, _UNFORMED)[out], it - 1 + formed[out])
    return U_out, V_out, iters_out, resid, status, watch_out


def _normalized(W):
    """Each row of W divided by its mass, summed over its positive entries alone
    as ``solve_reduced`` sums them."""
    out = np.zeros_like(W)
    for w, o in zip(W, out):
        pos = w > 0
        o[pos] = w[pos] / w[pos].sum()
    return out


def solve_replicates(C, R, S, lam, init, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Warm entropy solves of many marginal pairs on one cost, run as one batch.

    Row k of ``R`` (B, n1) and ``S`` (B, n2) holds replicate k's nonnegative
    weights, and ``init`` = (f0, g0) are the warm potentials of a solution
    whose support holds every replicate's. Yields one record
    (P, R, S, iterations, errors) per run of consecutive replicates that
    holds at most _STACK_ENTRIES entries of C: their plans on C (b, n1, n2),
    each zero off its own support and NaN where the solve failed; their
    weights normalized on their supports; their iteration counts, 0 where
    the solve failed; and {index in the run: the ConvergenceError or
    NumericalError}. Replicate k takes the path that ``solve_reduced`` takes
    for (C, R[k], S[k]) from ``init`` at the same ``tol`` and ``max_iter``:
    the same count, or the same error, unless a residual lands within
    rounding of ``tol``. Its plan agrees within ``tol``, absolute, and
    usually to rounding: a Newton finish solves on the loop's kernel, whose
    rounding an ill-conditioned Gram amplifies.

    One kernel exp((f0 + g0 - C) / lam) on the union of the supports serves
    every replicate in one ``_sinkhorn_stack``, and the replicates that stall
    at one iteration run one stacked Newton over it. The plans it finishes
    are formed in one broadcast per run. Replicates whose scalings leave the
    absorption window or whose update cannot be formed finish in
    ``sinkhorn_matrix`` from their absorbed potentials, carrying their
    iteration count and stall watch, and a replicate with a single atom on
    either side, whose plan is the product of its marginals, goes there
    directly.
    """
    C, R, S = (np.asarray(x, dtype=float) for x in (C, R, S))
    _check_setting(C, lam, tol, max_iter)
    _check_weights(C, R, S)
    f0, g0 = _check_init(init, C.shape)
    R, S = _normalized(R), _normalized(S)
    batch = np.flatnonzero(((R > 0).sum(axis=1) > 1) & ((S > 0).sum(axis=1) > 1))
    ru = np.flatnonzero((R[batch] > 0).any(axis=0))
    cu = np.flatnonzero((S[batch] > 0).any(axis=0))
    K = np.exp((f0[ru][:, None] + g0[cu][None, :] - C[np.ix_(ru, cu)]) / lam)
    Rb, Sb = R[np.ix_(batch, ru)], S[np.ix_(batch, cu)]
    U, V, iters, resid, status, watches = _sinkhorn_stack(
        K, Rb, Sb, lam, tol, max_iter, np.zeros(batch.size, dtype=int),
        _new_watch((Rb > 0).sum(axis=1), (Sb > 0).sum(axis=1)))
    slot = np.full(len(R), -1)
    slot[batch] = np.arange(batch.size)
    state = np.full(len(R), _ABSORB)  # single-atom replicates go to sinkhorn_matrix too
    state[batch] = status
    size = max(1, _STACK_ENTRIES // C.size)
    for lo in range(0, len(R), size):
        run = slice(lo, lo + size)
        P = np.zeros((min(size, len(R) - lo),) + C.shape)
        counts = np.zeros(len(P), dtype=int)
        errors = {}
        done = np.flatnonzero(state[run] == _DONE)
        i = slot[lo + done]
        P[np.ix_(done, ru, cu)] = U[i][:, :, None] * K * V[i][:, None, :]
        counts[done] = iters[i]
        for b in np.flatnonzero(state[run] != _DONE):
            k, i = lo + b, slot[lo + b]
            rows, cols = np.flatnonzero(R[k]), np.flatnonzero(S[k])
            warm = watch = None
            try:
                if state[k] == _FAILED:
                    raise _sinkhorn_failure(tol, max_iter, float(resid[i]), int(iters[i]))
                if i >= 0:  # leaves the stack with its absorbed potentials and stall watch
                    warm = (f0[rows] + lam * np.log(U[i, np.searchsorted(ru, rows)]),
                            g0[cols] + lam * np.log(V[i, np.searchsorted(cu, cols)]))
                    watch = (int(iters[i]), watches[i:i + 1])
                P[b][np.ix_(rows, cols)], _, _, counts[b], _ = sinkhorn_matrix(
                    C[np.ix_(rows, cols)], R[k, rows], S[k, cols], lam, tol=tol,
                    max_iter=max_iter, init=warm, _resume=watch)
            except (ConvergenceError, NumericalError) as err:
                P[b], errors[b] = np.nan, err
        yield P, R[run], S[run], counts, errors


# ---------------------------------------------------------------------------
# Exact baseline on tiny instances

_BASELINE_MAX_POINTS = 6
# spanning trees solved in one stack: at most 1 MB of 11 x 11 systems at 6 points,
# where r = s has 41,472 trees
_BASELINE_TREES = 1024


@dataclass(frozen=True)
class ExactBaseline:
    """Exact unregularized optimum and all optimal dual basic solutions."""

    value: float
    dual_vertices: np.ndarray  # (n_vertices, 2N), column potentials after row potentials


class _DisjointSet:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def exact_ot_baseline(c: CostVector, r: Prob, s: Prob) -> ExactBaseline:
    """Exact optimal transport value and all optimal dual basic solutions.

    Only tiny instances are supported. A basic optimal plan has a forest as
    its support; every spanning tree that extends it by edges between its
    components gives one potential vector, and the feasible ones are the
    optimal dual vertices. When r = s on the support and the cost there is
    zero exactly on the diagonal, diag(r) is the unique optimal plan and the
    value is 0; otherwise the dual simplex finds a basic optimal plan.
    Zero-weight atoms are dropped for the enumeration and their dual entries
    re-embedded as zeros.
    """
    N = c.n_points
    if N > _BASELINE_MAX_POINTS:
        raise ValueError(f"exact baseline supports at most {_BASELINE_MAX_POINTS} points")
    if r.dim != N or s.dim != N:
        raise ValueError(f"marginals have {r.dim} and {s.dim} entries; the cost has {N} points")
    rw, sw = r.weights, s.weights
    rows = np.flatnonzero(rw > 0)
    cols = np.flatnonzero(sw > 0)
    C = c.matrix[np.ix_(rows, cols)]
    rv = rw[rows] / rw[rows].sum()
    sv = sw[cols] / sw[cols].sum()
    n1, n2 = rows.size, cols.size

    A = ConstraintOperator(n1, n2).materialize_reduced()
    if np.array_equal(rows, cols) and _diagonal_optimum(C, rv, sv):
        value, P = 0.0, np.diag(rv)
    else:
        from scipy.optimize import linprog

        res = linprog(C.ravel(), A_eq=A, b_eq=np.concatenate([rv, sv[:-1]]),
                      bounds=(0, None), method="highs-ds")
        if not res.success:
            raise NumericalError(f"exact transport LP failed: {res.message}")
        value, P = float(res.fun), res.x.reshape(n1, n2)
    scale = max(1.0, float(np.abs(C).max()))
    P[P < 1e-11 * scale] = 0.0

    support = [(i, j) for i in range(n1) for j in range(n2) if P[i, j] > 0]
    dsu = _DisjointSet(n1 + n2)
    for (i, j) in support:
        if not dsu.union(i, n1 + j):
            raise NumericalError("exact transport LP returned a plan whose support has a cycle")
    comp = {}
    for node in range(n1 + n2):
        comp.setdefault(dsu.find(node), len(comp))
    k = len(comp)
    comp_of = [comp[dsu.find(node)] for node in range(n1 + n2)]

    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(n1):
        for j in range(n2):
            ca, cb = comp_of[i], comp_of[n1 + j]
            if ca != cb:
                groups.setdefault((min(ca, cb), max(ca, cb)), []).append(i * n2 + j)

    def spanning(subset):
        dsu2 = _DisjointSet(k)
        return all(dsu2.union(a, b) for (a, b) in subset)

    # a tree over the k components (none when k = 1) picks the groups; each
    # choice of one edge per picked group completes the forest to a spanning tree
    trees = itertools.chain.from_iterable(
        itertools.product(*(groups[e] for e in subset))
        for subset in itertools.combinations(sorted(groups), k - 1) if spanning(subset))
    forest = [i * n2 + j for (i, j) in support]
    found = []
    while chunk := list(itertools.islice(trees, _BASELINE_TREES)):
        edges = np.hstack([np.tile(forest, (len(chunk), 1)),
                           np.array(chunk, dtype=int).reshape(len(chunk), k - 1)])
        # u_i + v_j = C[i, j] on each tree's edges; A's rows pin v[-1] = 0
        uv = np.linalg.solve(A.T[edges], C.ravel()[edges][..., None])[..., 0]
        U, V = uv[:, :n1], np.hstack([uv[:, n1:], np.zeros((len(edges), 1))])
        found.append(uv[(U[:, :, None] + V[:, None, :] - C).max(axis=(1, 2)) <= 1e-8 * scale])
    found = np.concatenate(found)
    if not found.size:
        raise NumericalError("no feasible dual vertex found")
    first = {}  # the first vertex found with each rounded vector
    for i, key in enumerate(map(tuple, np.round(found, 9).tolist())):
        first.setdefault(key, i)
    found = found[list(first.values())]
    vertices = np.zeros((len(found), 2 * N))
    vertices[:, rows] = found[:, :n1]
    vertices[:, N + cols[:-1]] = found[:, n1:]
    return ExactBaseline(value=value, dual_vertices=vertices)


def ot_limit_sample(c: CostVector, r: Prob, dual_vertices, M: int, seed: int) -> np.ndarray:
    """Draws from the non-regularized transport distance limit law.

    Each draw is max over optimal dual vertices of <G, u> raised to 1/p, where
    u is the row-potential part of a vertex and G is the multinomial Gaussian
    of r: the one-sample limit law of the transport distance, at r = s and,
    for p = 1, at r != s.
    """
    vertices = np.asarray(dual_vertices, dtype=float)
    if vertices.ndim == 1:
        vertices = vertices[None, :]
    if vertices.size == 0:
        raise ValueError("dual vertex set must be nonempty")
    N = c.n_points
    if r.dim != N or vertices.shape[1] != 2 * N:
        raise ValueError(f"a marginal of size {r.dim} and dual vertices of "
                         f"{vertices.shape[1]} entries on a cost of {N} points; "
                         f"need {N} and {2 * N}")
    M = int(M)
    if M < 1:
        raise ValueError("need at least one draw")
    U = vertices[:, :N]
    rng = rng_for(seed)
    sqrt_r = np.sqrt(r.weights)
    Z = rng.standard_normal((M, N))
    G = Z * sqrt_r - np.outer(Z @ sqrt_r, r.weights)
    vals = (G @ U.T).max(axis=1)
    p = c.p
    if p == 1.0:
        return vals
    if (vals < -1e-10).any():
        raise NumericalError("negative limit values under a fractional root; need r = s")
    return np.clip(vals, 0.0, None) ** (1.0 / p)
