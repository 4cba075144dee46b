"""The exact baseline against a brute-force enumeration of every dual basis."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from rotinf import CostVector, GroundSpace, NumericalError, Prob, build_grid_space
from rotinf import cost_from_metric, exact_ot_baseline
from rotinf.space import ConstraintOperator


def brute_force_vertices(C, r, s):
    """Optimal value and every optimal dual vertex (u, v) with v[-1] = 0.

    Every (n1 + n2 - 1)-edge subset whose reduced constraint columns are
    nonsingular fixes one potential vector; the optimal vertices are the
    feasible ones of largest dual value.
    """
    n1, n2 = C.shape
    m = n1 + n2 - 1
    A = ConstraintOperator(n1, n2).materialize_reduced()
    subsets = np.array(list(itertools.combinations(range(n1 * n2), m)))
    M = A.T[subsets]  # one m x m system per subset
    # A is totally unimodular, so a basis has determinant +-1 and a non-basis 0
    basis = np.abs(np.linalg.det(M)) > 0.5
    uv = np.linalg.solve(M[basis], C.ravel()[subsets[basis]][..., None])[..., 0]
    U, V = uv[:, :n1], np.hstack([uv[:, n1:], np.zeros((uv.shape[0], 1))])
    feasible = (U[:, :, None] + V[:, None, :] - C).max(axis=(1, 2)) <= 1e-9
    U, V = U[feasible], V[feasible]
    values = U @ r + V @ s
    best = values.max()
    optimal = np.hstack([U, V])[values >= best - 1e-9]
    return best, np.unique(np.round(optimal, 9), axis=0)


def embedded(vertices, rows, cols, N):
    """Reduced (u, v) rows re-embedded into 2N coordinates, zeros off the support."""
    out = np.zeros((len(vertices), 2 * N))
    out[:, rows] = vertices[:, : rows.size]
    out[:, N + cols] = vertices[:, rows.size :]
    return out


line2 = cost_from_metric(GroundSpace([[0.0], [1.0]]), p=1.0)
line3 = cost_from_metric(GroundSpace([[0.0], [1.0], [2.5]]), p=1.0)
grid = {p: cost_from_metric(build_grid_space(2), p=p) for p in (1.0, 2.0)}

CASES = {
    "2x2 r=s": (line2, [0.5, 0.5], [0.5, 0.5]),
    "2x2 r!=s": (line2, [0.7, 0.3], [0.5, 0.5]),
    "2x3 zero atom": (line3, [0.5, 0.0, 0.5], [0.25, 0.25, 0.5]),
    "3x3 r=s": (line3, [0.3, 0.4, 0.3], [0.3, 0.4, 0.3]),
    "3x3 r!=s": (line3, [0.5, 0.25, 0.25], [0.25, 0.25, 0.5]),
    "grid p=1 r=s": (grid[1.0], [0.25] * 4, [0.25] * 4),
    "grid p=1 r!=s": (grid[1.0], [0.5, 0.0, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]),
    "grid p=1 r!=s full": (grid[1.0], [0.4, 0.1, 0.3, 0.2], [0.1, 0.4, 0.2, 0.3]),
    "grid p=2 r=s": (grid[2.0], [0.4, 0.1, 0.3, 0.2], [0.4, 0.1, 0.3, 0.2]),
    "grid p=2 r!=s": (grid[2.0], [0.5, 0.25, 0.125, 0.125], [0.125, 0.125, 0.25, 0.5]),
}


@pytest.mark.parametrize("case", list(CASES))
def test_dual_vertices_are_complete(case):
    c, rw, sw = CASES[case]
    rw, sw = np.array(rw), np.array(sw)
    rows, cols = np.flatnonzero(rw > 0), np.flatnonzero(sw > 0)
    C = c.matrix[np.ix_(rows, cols)]
    best, oracle = brute_force_vertices(C, rw[rows], sw[cols])
    oracle = embedded(oracle, rows, cols, c.n_points)

    base = exact_ot_baseline(c, Prob(rw), Prob(sw))
    assert abs(base.value - best) < 1e-12
    assert len(base.dual_vertices) == len(oracle)
    for vertex in oracle:
        assert np.abs(base.dual_vertices - vertex).max(axis=1).min() < 1e-9


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_six_point_dual_vertices_are_complete(p):
    # with r = s on 6 points the optimal plan is the diagonal, a forest of 6
    # components completed by 41,472 spanning trees, more than one stack holds.
    # The optimal duals are v = -u with u in {u_i - u_j <= C_ij, u_last = 0}; the
    # vertices of that polytope are the feasible solutions of every set of 5
    # independent tight constraints
    c = cost_from_metric(GroundSpace(np.random.default_rng(9).uniform(0.0, 1.0, (6, 2))), p=p)
    C = c.matrix
    pairs = [(i, j) for i in range(6) for j in range(6) if i != j]
    G = np.zeros((len(pairs), 6))
    for row, (i, j) in zip(G, pairs):
        row[i], row[j] = 1.0, -1.0
    G, h = G[:, :5], np.array([C[i, j] for i, j in pairs])
    subsets = np.array(list(itertools.combinations(range(len(pairs)), 5)))
    M = G[subsets]
    basis = np.abs(np.linalg.det(M)) > 0.5  # G is totally unimodular
    U = np.linalg.solve(M[basis], h[subsets[basis]][..., None])[..., 0]
    U = np.unique(np.round(U[(U @ G.T - h).max(axis=1) <= 1e-9], 9), axis=0)
    oracle = np.hstack([U, np.zeros((len(U), 1)), -U, np.zeros((len(U), 1))])

    base = exact_ot_baseline(c, Prob(np.full(6, 1 / 6)), Prob(np.full(6, 1 / 6)))
    assert abs(base.value) < 1e-12
    assert len(base.dual_vertices) == len(oracle)
    for vertex in oracle:
        assert np.abs(base.dual_vertices - vertex).max(axis=1).min() < 1e-9


def test_cyclic_plan_support_is_refused(monkeypatch):
    # on an all-zero cost the uniform 2 x 2 plan is optimal but not basic:
    # its support is the 4-cycle r0-s0-r1-s1
    def uniform_plan(c, **kwargs):
        return SimpleNamespace(success=True, fun=0.0, x=np.full(4, 0.25), message="")

    # the baseline imports linprog from scipy.optimize when it is called
    monkeypatch.setattr(scipy.optimize, "linprog", uniform_plan)
    c = CostVector(entries=np.zeros(4), p=1.0, c_max=0.0)
    half = Prob([0.5, 0.5])
    with pytest.raises(NumericalError, match="support has a cycle"):
        exact_ot_baseline(c, half, half)
