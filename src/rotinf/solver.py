"""Regularized transport solvers and a small exact-transport baseline.

Two solvers compute the unique regularized plan: log-stabilized Sinkhorn
scaling for the entropy penalty and a damped Newton iteration on the reduced
dual system for any supported penalty. Both report the max-abs marginal
residual as their convergence diagnostic.

The exact baseline solves the unregularized linear program on tiny instances
and enumerates every optimal dual vertex, which feeds the non-Gaussian limit
sampler used to benchmark the small-regularization regime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linprog

from . import regularizers as rg
from ._util import readonly_array, rng_for
from .exceptions import ConvergenceError, NumericalError, ReductionRequiredError
from .space import ConstraintOperator, CostVector, Prob

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000

# |log u| threshold at which scaling factors are absorbed into the potentials
_ABSORB_LOG = 200.0


@dataclass(frozen=True)
class TransportPlan:
    """Strictly positive transport plan with marginals and solver diagnostics."""

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


def _sinkhorn_core(C, r, s, lam, tol, max_iter, f=None, g=None):
    """Stabilized Sinkhorn scaling on raw arrays.

    Scaling factors are absorbed into the potentials (f, g) once they leave a
    safe magnitude window; a full log-domain update is used to recover from
    kernel underflow. Returns (P, f, g, iterations, residual, converged) and
    never raises on non-convergence.
    """
    n1, n2 = C.shape
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if f is None:
        f = np.zeros(n1)
        g = np.zeros(n2) if g is None else np.array(g, dtype=float)
        cold = True
    else:
        f = np.array(f, dtype=float)
        g = np.zeros(n2) if g is None else np.array(g, dtype=float)
        cold = False
    logr = np.log(r)
    logs = np.log(s)
    u = np.ones(n1)
    v = np.ones(n2)

    def absorb():
        nonlocal f, g, u, v
        f = f + lam * np.log(u)
        g = g + lam * np.log(v)
        u = np.ones(n1)
        v = np.ones(n2)

    def log_round():
        # one full Sinkhorn round carried out in the log domain
        nonlocal f, g
        absorb()
        f = lam * (logr - _logsumexp((g[None, :] - C) / lam, axis=1))
        g = lam * (logs - _logsumexp((f[:, None] - C) / lam, axis=0))
        return np.exp((f[:, None] + g[None, :] - C) / lam)

    if cold:
        K = log_round()
        it = 1
    else:
        K = np.exp((f[:, None] + g[None, :] - C) / lam)
        it = 0

    converged = False
    res = np.inf
    while True:
        Kv = K @ v
        res = float(np.abs(u * Kv - r).max())
        if res <= tol:
            converged = True
            break
        if it >= max_iter:
            break
        it += 1
        if (Kv <= 0).any() or not np.isfinite(Kv).all():
            K = log_round()
            continue
        u = r / Kv
        KTu = K.T @ u
        if (KTu <= 0).any() or not np.isfinite(KTu).all():
            K = log_round()
            continue
        v = s / KTu
        lu = np.abs(np.log(u)).max()
        lv = np.abs(np.log(v)).max()
        if max(lu, lv) > _ABSORB_LOG:
            absorb()
            K = np.exp((f[:, None] + g[None, :] - C) / lam)

    P = (u[:, None] * K) * v[None, :]
    absorb()
    return P, f, g, it, res, converged


def sinkhorn_matrix(C, r, s, lam, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                    init=None, eps_scaling=None):
    """Entropy-regularized plan on raw arrays.

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
    eps_scaling : bool, optional
        Solve a ladder of decreasing regularization strengths before the
        target one. Defaults to on for cold starts at small lam.

    Returns
    -------
    P : (n1, n2) ndarray
        The plan.
    f, g : ndarray
        Dual potentials, with ``P = exp((f + g^T - C) / lam)``.
    iterations : int
    residual : float
    """
    C = np.asarray(C, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    if not 0.0 < lam < np.inf:
        raise ValueError("regularization strength must be finite and positive")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not np.isfinite(C).all():
        raise ValueError("cost matrix must be finite")
    if (r <= 0).any() or (s <= 0).any():
        raise ReductionRequiredError("marginals must be strictly positive; reduce the support first")
    n1, n2 = C.shape
    if r.size != n1 or s.size != n2:
        raise ValueError("marginal sizes do not match the cost matrix")
    if n1 == 1 or n2 == 1:
        # a single row or column leaves no freedom; the product plan is exact
        P = np.outer(r, s)
        Z = C + lam * np.log(P)
        f = Z[:, -1].copy()
        g = Z[0, :] - Z[0, -1]
        return P, f, g, 0, 0.0

    f0 = g0 = None
    if init is not None:
        f0, g0 = init
    span = float(C.max() - C.min())
    if eps_scaling is None:
        eps_scaling = init is None and span > 0 and lam < span / 25.0

    ladder_iters = 0
    if eps_scaling:
        hot = span / 4.0
        while hot > lam * 4.0:
            _, f0, g0, it, _, _ = _sinkhorn_core(
                C, r, s, hot, tol=max(tol, 1e-4), max_iter=1000, f=f0, g=g0)
            ladder_iters += it
            hot /= 4.0

    P, f, g, it, res, ok = _sinkhorn_core(C, r, s, lam, tol, max_iter, f=f0, g=g0)
    if not ok:
        raise ConvergenceError(
            f"Sinkhorn did not reach tolerance {tol:g} within {max_iter} iterations "
            f"(residual {res:.3e})", residual=res, iterations=it + ladder_iters)
    return P, f, g, it + ladder_iters, res


def sinkhorn_entropy(c: CostVector, r: Prob, s: Prob, lam: float,
                     tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                     init=None, eps_scaling=None) -> TransportPlan:
    """Entropy-regularized transport plan between r and s.

    Raises ``ReductionRequiredError`` when a marginal has zero entries and
    ``ConvergenceError`` when the marginal residual does not reach ``tol``
    within ``max_iter`` iterations.
    """
    P, _, _, it, res = sinkhorn_matrix(c.matrix, r.weights, s.weights, lam,
                                       tol=tol, max_iter=max_iter, init=init,
                                       eps_scaling=eps_scaling)
    return TransportPlan(entries=P.ravel(), r=r, s=s, lam=float(lam),
                         reg=rg.entropy(), p=c.p, iterations=it, residual=res)


def _reduced_gram(W):
    """Dense A_red diag(w) A_red^T assembled from its marginal block structure."""
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


def newton_matrix(reg: rg.Regularizer, C, r, s, lam, tol=DEFAULT_TOL, max_iter=200):
    """Damped Newton iteration on the reduced dual system, raw arrays.

    The dual objective <mu, b> - lam * f*((A^T mu - c)/lam) is concave and
    smooth on its domain; steps are backtracked both to stay inside the
    conjugate domain and to satisfy an Armijo increase. Costs are shifted by
    a constant when the conjugate domain requires strictly negative duals,
    which leaves the plan unchanged on fixed marginals.

    Returns (pi_flat, mu, iterations, residual).
    """
    C = np.asarray(C, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    if not 0.0 < lam < np.inf:
        raise ValueError("regularization strength must be finite and positive")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not np.isfinite(C).all():
        raise ValueError("cost matrix must be finite")
    if (r <= 0).any() or (s <= 0).any():
        raise ReductionRequiredError("marginals must be strictly positive; reduce the support first")
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
        w = 1.0 / rg.hess_diag(reg, pi)
        M = _reduced_gram(w.reshape(n1, n2)) / lam
        try:
            chol = cho_factor(M)
        except np.linalg.LinAlgError as err:
            raise NumericalError(f"reduced dual system is numerically singular: {err}") from err
        d = cho_solve(chol, -F)
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
    if (rw.size, sw.size) != C.shape:
        raise ValueError(f"marginal sizes {rw.size} and {sw.size} do not match "
                         f"the {C.shape[0]} x {C.shape[1]} cost matrix")
    rows = np.flatnonzero(rw > 0)
    cols = np.flatnonzero(sw > 0)
    C_red = C[np.ix_(rows, cols)]
    r_red = Prob.from_weights(rw[rows], normalize=True)
    s_red = Prob.from_weights(sw[cols], normalize=True)
    if init is not None:
        f0, g0 = init
        init = (np.asarray(f0)[rows], np.asarray(g0)[cols])
    potentials = None
    if reg is None or reg.kind == "entropy":
        P, f, g, it, res = sinkhorn_matrix(C_red, r_red.weights, s_red.weights, lam,
                                           tol=tol, max_iter=max_iter, init=init)
        used = rg.entropy()
        f_full = np.zeros(rw.size)
        g_full = np.zeros(sw.size)
        f_full[rows] = f
        g_full[cols] = g
        potentials = (f_full, g_full)
    else:
        P_flat, _, it, res = newton_matrix(reg, C_red, r_red.weights, s_red.weights,
                                           lam, tol=tol, max_iter=min(max_iter, 500))
        P = P_flat.reshape(rows.size, cols.size)
        used = reg
    plan = TransportPlan(entries=P.ravel(), r=r_red, s=s_red, lam=float(lam),
                         reg=used, p=float(p), iterations=it, residual=res)
    return ReducedSolution(plan=plan, cost=C_red, row_support=rows, col_support=cols,
                           n_rows_full=rw.size, n_cols_full=sw.size,
                           potentials=potentials)


# ---------------------------------------------------------------------------
# Exact baseline on tiny instances

_BASELINE_MAX_POINTS = 6


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


def _find_support_cycle(P):
    """Node sequence of one cycle in the bipartite support graph, or None."""
    n1, n2 = P.shape
    dsu = _DisjointSet(n1 + n2)
    adj: dict[int, list[int]] = {}
    for i in range(n1):
        for j in range(n2):
            if P[i, j] <= 0:
                continue
            a, b = i, n1 + j
            if dsu.union(a, b):
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
            else:
                # (a, b) closes a cycle; recover the forest path a -> b
                prev = {a: None}
                queue = [a]
                while queue:
                    node = queue.pop(0)
                    if node == b:
                        break
                    for nxt in adj.get(node, ()):
                        if nxt not in prev:
                            prev[nxt] = node
                            queue.append(nxt)
                path = [b]
                while path[-1] != a:
                    path.append(prev[path[-1]])
                return path  # b ... a; closing edge (a, b) completes the cycle
    return None


def _cancel_cycles(P, tol):
    """Push mass around support cycles until the support graph is a forest.

    At an optimum every support cycle has zero cost, so the objective is
    unchanged; the push zeroes at least one entry per round.
    """
    P = P.copy()
    P[P < tol] = 0.0
    n1 = P.shape[0]
    while True:
        nodes = _find_support_cycle(P)
        if nodes is None:
            return P
        edges = []
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            i, j = (a, b - n1) if a < n1 else (b, a - n1)
            edges.append((i, j))
        signs = np.array([1 if t % 2 == 0 else -1 for t in range(len(edges))])
        masses = np.array([P[i, j] for (i, j) in edges])
        theta = masses[signs < 0].min()
        for sg, (i, j) in zip(signs, edges):
            P[i, j] += sg * theta
        P[P < tol] = 0.0


def _tree_potentials(edges, C, n1, n2):
    """Solve u_i + v_j = C[i, j] on a spanning tree, pinning the last column to 0."""
    u = np.full(n1, np.nan)
    v = np.full(n2, np.nan)
    adj = {}
    for (i, j) in edges:
        adj.setdefault(("r", i), []).append(("c", j))
        adj.setdefault(("c", j), []).append(("r", i))
    v[n2 - 1] = 0.0
    stack = [("c", n2 - 1)]
    visited = {("c", n2 - 1)}
    while stack:
        kind, idx = stack.pop()
        for nxt in adj.get((kind, idx), ()):
            if nxt in visited:
                continue
            visited.add(nxt)
            nk, ni = nxt
            if nk == "r":
                u[ni] = C[ni, idx] - v[idx]
            else:
                v[ni] = C[idx, ni] - u[idx]
            stack.append(nxt)
    if np.isnan(u).any() or np.isnan(v).any():
        return None
    return u, v


def exact_ot_baseline(c: CostVector, r: Prob, s: Prob) -> ExactBaseline:
    """Exact optimal transport value and all optimal dual basic solutions.

    Only tiny instances are supported; the dual vertices are enumerated by
    extending a spanning forest of an optimal plan's support with tight edges
    and keeping the feasible completions. Zero-weight atoms are dropped for
    the enumeration and their dual entries re-embedded as zeros.
    """
    N = c.n_points
    if N > _BASELINE_MAX_POINTS:
        raise ValueError(f"exact baseline supports at most {_BASELINE_MAX_POINTS} points")
    rw, sw = r.weights, s.weights
    rows = np.flatnonzero(rw > 0)
    cols = np.flatnonzero(sw > 0)
    C = c.matrix[np.ix_(rows, cols)]
    rv = rw[rows] / rw[rows].sum()
    sv = sw[cols] / sw[cols].sum()
    n1, n2 = rows.size, cols.size

    op = ConstraintOperator(n1, n2)
    res = linprog(C.ravel(), A_eq=op.materialize_reduced(),
                  b_eq=np.concatenate([rv, sv[:-1]]),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise NumericalError(f"exact transport LP failed: {res.message}")
    value = float(res.fun)
    scale = max(1.0, float(np.abs(C).max()))
    P = _cancel_cycles(res.x.reshape(n1, n2), tol=1e-11 * scale)

    support = [(i, j) for i in range(n1) for j in range(n2) if P[i, j] > 0]
    dsu = _DisjointSet(n1 + n2)
    for (i, j) in support:
        dsu.union(i, n1 + j)
    comp = {}
    for node in range(n1 + n2):
        comp.setdefault(dsu.find(node), len(comp))
    k = len(comp)
    comp_of = [comp[dsu.find(node)] for node in range(n1 + n2)]

    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(n1):
        for j in range(n2):
            ca, cb = comp_of[i], comp_of[n1 + j]
            if ca != cb:
                key = (min(ca, cb), max(ca, cb))
                groups.setdefault(key, []).append((i, j))

    feas_tol = 1e-8 * scale
    vertices = {}

    def consider(edges):
        pots = _tree_potentials(edges, C, n1, n2)
        if pots is None:
            return
        u, v = pots
        if (u[:, None] + v[None, :] - C).max() > feas_tol:
            return
        u_full = np.zeros(N)
        v_full = np.zeros(N)
        u_full[rows] = u
        v_full[cols] = v
        key = tuple(np.round(np.concatenate([u_full, v_full]), 9))
        vertices.setdefault(key, np.concatenate([u_full, v_full]))

    if k == 1:
        consider(support)
    else:
        abstract = sorted(groups)
        for subset in itertools.combinations(abstract, k - 1):
            dsu2 = _DisjointSet(k)
            if all(dsu2.union(a, b) for (a, b) in subset):
                for combo in itertools.product(*(groups[e] for e in subset)):
                    consider(support + list(combo))
    if not vertices:
        raise NumericalError("no feasible dual vertex found")
    return ExactBaseline(value=value,
                         dual_vertices=np.array(list(vertices.values())))


def ot_limit_sample(c: CostVector, r: Prob, dual_vertices, M: int, seed: int) -> np.ndarray:
    """Draws from the non-regularized transport distance limit law.

    Each draw is max over optimal dual vertices of <G, u> raised to 1/p, where
    u is the row-potential part of a vertex and G is the multinomial Gaussian
    of r. Intended for the one-sample case with both marginals equal to r.
    """
    vertices = np.asarray(dual_vertices, dtype=float)
    if vertices.ndim == 1:
        vertices = vertices[None, :]
    if vertices.size == 0:
        raise ValueError("dual vertex set must be nonempty")
    M = int(M)
    if M < 1:
        raise ValueError("need at least one draw")
    N = r.dim
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
