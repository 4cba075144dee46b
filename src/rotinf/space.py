"""Ground spaces, cost vectors, simplex vectors, and the marginal constraint operator.

Transport plans over an N-point ground space are stored as flat vectors of
length N*N in row-major order: entry ``i*N + j`` is the mass moved from point
``i`` to point ``j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import readonly_array

SIMPLEX_ATOL = 1e-12

METRICS = ("euclidean", "sqeuclidean")


@dataclass(frozen=True)
class GroundSpace:
    """Finite collection of support points in a common Euclidean ambient space."""

    points: np.ndarray  # (N, dim)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("ground space needs at least one point with a common dimension")
        object.__setattr__(self, "points", readonly_array(pts))

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def build_grid_space(L: int, extent: float = 1.0) -> GroundSpace:
    """Equidistant L x L grid over [0, extent]^2, corners included.

    Points are ordered row-major: point ``i*L + j`` sits at
    ``(i*h, j*h)`` with spacing ``h = extent / (L - 1)``. ``L = 1`` degenerates
    to the single point at the origin.
    """
    L = int(L)
    if L < 1:
        raise ValueError("grid side length must be at least 1")
    if extent <= 0:
        raise ValueError("extent must be positive")
    if L == 1:
        return GroundSpace(np.zeros((1, 2)))
    axis = np.linspace(0.0, float(extent), L)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    return GroundSpace(np.column_stack([xs.ravel(), ys.ravel()]))


def check_power(p):
    """Refuse a cost power that is not finite and at least 1."""
    if not 1.0 <= p < np.inf:  # also refuses NaN
        raise ValueError(f"cost power p must be finite and at least 1, got {p!r}")


@dataclass(frozen=True)
class CostVector:
    """Row-major vector of pairwise transport costs d(x_i, x_j)**p.

    ``c_max`` is the largest ground distance (before raising to the power p).
    """

    entries: np.ndarray  # (N*N,)
    p: float
    c_max: float

    def __post_init__(self):
        check_power(self.p)
        e = np.asarray(self.entries, dtype=float).ravel()
        n = math.isqrt(e.size)
        if n * n != e.size:
            raise ValueError("cost vector length must be a perfect square")
        if not ((e >= 0) & (e < np.inf)).all():  # also refuses NaN
            raise ValueError("cost entries must be finite and nonnegative")
        object.__setattr__(self, "entries", readonly_array(e))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "c_max", float(self.c_max))

    @property
    def n_points(self) -> int:
        return math.isqrt(self.entries.size)

    @property
    def matrix(self) -> np.ndarray:
        n = self.n_points
        return self.entries.reshape(n, n)


def cost_from_metric(space: GroundSpace, p: float = 1.0, metric="euclidean") -> CostVector:
    """Cost vector with entries d(x_i, x_j)**p for a ground metric d.

    Parameters
    ----------
    space : GroundSpace
    p : float
        Power applied to the ground distance, p >= 1.
    metric : str or array_like
        Either "euclidean", "sqeuclidean", or a custom nonnegative ground
        distance table of shape (N, N) (or flat of length N*N). Custom
        tables are not required to be symmetric or zero on the diagonal.
    """
    check_power(p)  # before d ** p, which a negative p turns into a division by zero
    n = space.n_points
    if isinstance(metric, str):
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
        from scipy.spatial.distance import cdist

        d = cdist(space.points, space.points, metric=metric)
    else:
        d = np.asarray(metric, dtype=float)
        if d.ndim == 1:
            if d.size != n * n:
                raise ValueError("custom cost table has wrong length")
            d = d.reshape(n, n)
        if d.shape != (n, n):
            raise ValueError("custom cost table has wrong shape")
        if (d < 0).any():
            raise ValueError("custom cost table must be nonnegative")
    return CostVector(entries=(d ** p).ravel(), p=p, c_max=float(d.max()))


def cost_quantile(c: CostVector, q: float) -> float:
    """Empirical q-quantile of all N*N cost entries (linear interpolation)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile level must lie in [0, 1]")
    return float(np.quantile(c.entries, q))


@dataclass(frozen=True)
class Prob:
    """Probability vector on a finite ground space.

    ``n`` optionally records the sampling denominator when the vector is an
    empirical or resampled distribution.
    """

    weights: np.ndarray
    n: int | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.size < 1:
            raise ValueError("probability vector must be nonempty")
        if (w < 0).any():
            raise ValueError("probability weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= SIMPLEX_ATOL:  # a NaN sum fails too
            raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {SIMPLEX_ATOL}")
        object.__setattr__(self, "weights", readonly_array(w))

    @classmethod
    def from_weights(cls, weights, normalize: bool = False, n: int | None = None) -> "Prob":
        w = np.asarray(weights, dtype=float).ravel()
        if normalize:
            total = w.sum()
            if total <= 0:
                raise ValueError("cannot normalize nonpositive total mass")
            w = w / total
        return cls(w, n=n)

    @property
    def dim(self) -> int:
        return self.weights.size

    def support(self) -> np.ndarray:
        """Indices of strictly positive weights."""
        return np.flatnonzero(self.weights > 0)


def empirical_distribution(sample, n_points: int) -> Prob:
    """Empirical distribution of a sample of 0-based point indices."""
    sample = np.asarray(sample, dtype=int).ravel()
    if sample.size == 0:
        raise ValueError("sample must be nonempty")
    if (sample < 0).any() or (sample >= n_points).any():
        raise ValueError(f"sample indices must lie in [0, {n_points - 1}]")
    counts = np.bincount(sample, minlength=n_points)
    return Prob.from_weights(counts / sample.size, normalize=True, n=sample.size)


@dataclass(frozen=True)
class ConstraintOperator:
    """Marginal-sum operator A of the transport polytope and its reduced form.

    ``apply`` maps a flat plan to its row sums followed by its column sums.
    The reduced operator drops the last column-sum constraint, which is
    redundant on the simplex and makes the remaining rows linearly
    independent. The operator acts implicitly; ``materialize*`` builds the
    dense matrix for tests and for the exact baseline's tiny linear program.
    """

    n_rows: int
    n_cols: int | None = None

    def __post_init__(self):
        if self.n_cols is None:
            object.__setattr__(self, "n_cols", self.n_rows)
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("operator dimensions must be positive")

    @property
    def n_constraints_reduced(self) -> int:
        return self.n_rows + self.n_cols - 1

    def _as_matrix(self, pi) -> np.ndarray:
        return np.asarray(pi, dtype=float).reshape(self.n_rows, self.n_cols)

    def apply(self, pi) -> np.ndarray:
        P = self._as_matrix(pi)
        return np.concatenate([P.sum(axis=1), P.sum(axis=0)])

    def apply_reduced(self, pi) -> np.ndarray:
        P = self._as_matrix(pi)
        return np.concatenate([P.sum(axis=1), P.sum(axis=0)[:-1]])

    def apply_transpose_reduced(self, mu) -> np.ndarray:
        """A_red^T mu; a matrix mu is mapped column by column."""
        mu = np.asarray(mu, dtype=float)
        if mu.shape[:1] != (self.n_constraints_reduced,):
            raise ValueError("multiplier vector has wrong length")
        a = mu[: self.n_rows]
        b = np.concatenate([mu[self.n_rows :], np.zeros((1,) + mu.shape[1:])])
        return (a[:, None] + b[None, :]).reshape((-1,) + mu.shape[1:])

    def materialize(self) -> np.ndarray:
        """Dense A, shape (n_rows + n_cols, n_rows * n_cols); tests only."""
        top = np.kron(np.eye(self.n_rows), np.ones((1, self.n_cols)))
        bottom = np.kron(np.ones((1, self.n_rows)), np.eye(self.n_cols))
        return np.vstack([top, bottom])

    def materialize_reduced(self) -> np.ndarray:
        """Dense reduced operator, shape (n_rows + n_cols - 1, n_rows * n_cols)."""
        return self.materialize()[:-1]
