"""Structural invariants over generated instances: the Gram factor against the
dense oracle, A grad_phi = I, PSD covariances, cost-shift invariance, and
batched replicate solves against looped ones."""

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rotinf.regularizers as rg
import rotinf.solver as sv
from rotinf import (ConvergenceError, NumericalError, plan_covariance, plan_gradient,
                    solve_reduced)
from rotinf._util import rng_for
from rotinf.inference import _replicates
from rotinf.solver import GramFactor, _reduced_gram
from rotinf.space import ConstraintOperator

ALL_KINDS = [rg.entropy(), rg.burg(), rg.fermi_dirac(),
             rg.beta_potential(0.5), rg.lp_quasi(0.5)]

positive = st.floats(min_value=1e-3, max_value=1.0)


@st.composite
def gram_weights(draw):
    """Positive weights of shape 1 x k, k x 1 or k x k, and a right-hand side."""
    k = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(1, k), (k, 1), (k, k)]))
    W = draw(arrays(float, shape, elements=positive))
    m = shape[0] + shape[1] - 1
    ncols = draw(st.sampled_from([None, 1, 3]))
    B = draw(arrays(float, (m,) if ncols is None else (m, ncols),
                    elements=st.floats(-1.0, 1.0)))
    return W, B


@st.composite
def instances(draw, max_points=4):
    """Cost matrix in [0, 1] with strictly positive marginals, and lam."""
    n1 = draw(st.integers(2, max_points))
    n2 = draw(st.integers(2, max_points))
    C = draw(arrays(float, (n1, n2), elements=st.floats(0.0, 1.0)))
    r = draw(arrays(float, n1, elements=st.floats(0.05, 1.0)))
    s = draw(arrays(float, n2, elements=st.floats(0.05, 1.0)))
    lam = draw(st.floats(0.3, 2.0))
    return C, r / r.sum(), s / s.sum(), lam


def solved(reg, C, r, s, lam, tol=1e-11):
    try:
        return solve_reduced(C, r, s, lam, reg=reg, p=1.0, tol=tol)
    except (ConvergenceError, NumericalError):
        reject()


@given(gram_weights())
def test_gram_factor_backward_error(case):
    W, B = case
    M = _reduced_gram(W)
    X = GramFactor(W).solve(B)
    assert X.shape == B.shape
    resid = np.linalg.norm(M @ X - B)
    assert resid <= 1e-10 * np.linalg.norm(M, 2) * np.linalg.norm(X)


@pytest.mark.parametrize("reg", ALL_KINDS, ids=str)
@given(case=instances())
def test_constraint_times_gradient_is_identity(reg, case):
    C, r, s, lam = case
    plan = solved(reg, C, r, s, lam).plan
    grad = plan_gradient(reg, plan).grad_phi
    A = ConstraintOperator(plan.n_rows, plan.n_cols).materialize_reduced()
    assert np.abs(A @ grad - np.eye(A.shape[0])).max() <= 1e-8


@pytest.mark.parametrize("reg", [rg.entropy(), rg.burg()], ids=str)
@given(case=instances(), delta=st.floats(0.05, 0.95))
def test_covariances_are_psd(reg, case, delta):
    C, r, s, lam = case
    plan = solved(reg, C, r, s, lam).plan
    for mode, d in (("one_sample", None), ("two_sample", delta)):
        sigma = plan_covariance(reg, plan, mode=mode, delta=d).sigma_plan
        assert np.abs(sigma - sigma.T).max() <= 1e-12 * np.abs(sigma).max()
        eig = np.linalg.eigvalsh(sigma)
        assert eig.min() >= -1e-10 * max(eig.max(), 1e-300)


@pytest.mark.parametrize("reg", ALL_KINDS, ids=str)
@given(case=instances(), shift=st.floats(0.0, 5.0))
def test_cost_shift_leaves_plan_unchanged(reg, case, shift):
    C, r, s, lam = case
    base = solved(reg, C, r, s, lam).plan.entries
    moved = solved(reg, C + shift, r, s, lam).plan.entries
    assert np.abs(base - moved).max() <= 1e-8


@st.composite
def replicate_loops(draw):
    """A warm-started resampling loop: small n leaves zero-mass atoms on either side,
    small lam forces absorption hand-offs and a low max_iter fails some replicates."""
    C, r, s, _ = draw(instances(max_points=5))
    lam = draw(st.sampled_from([1.0, 0.1, 0.01, 0.002]))
    return dict(C=C, r=r, s=s, lam=lam, n=draw(st.integers(2, 12)),
                count=draw(st.integers(2, 8)), seed=draw(st.integers(0, 2 ** 16)),
                resample_s=draw(st.booleans()), max_iter=draw(st.sampled_from([5, 20, 100, 500])))


def replicate_record(sol):
    return np.array([sol.divergence(), sol.plan.iterations, sol.plan.entries.sum()])


def looped_solves(C, R, S, lam, warm, max_iter):
    out = []
    for rw, sw in zip(R, S):
        try:
            out.append(solve_reduced(C, rw, sw, lam, p=1.0, max_iter=max_iter, init=warm))
        except ConvergenceError as err:
            out.append(err)
    return out


def assert_same_solves(batched, looped):
    assert len(batched) == len(looped)
    for a, b in zip(batched, looped):
        assert type(a) is type(b)
        if isinstance(b, ConvergenceError):
            assert (str(a), a.iterations) == (str(b), b.iterations)
            continue
        assert a.plan.iterations == b.plan.iterations
        assert (a.row_support == b.row_support).all() and (a.col_support == b.col_support).all()
        assert np.allclose(a.plan.entries, b.plan.entries, rtol=1e-12, atol=1e-15)
        for x, y in zip(a.potentials, b.potentials):
            assert np.allclose(x, y, rtol=1e-12, atol=1e-14)


@given(case=replicate_loops())
def test_batched_replicates_match_looped_solves(case):
    C, r, s, lam, n = case["C"], case["r"], case["s"], case["lam"], case["n"]
    try:
        warm = solve_reduced(C, r, s, lam, p=1.0, max_iter=20_000).potentials
    except ConvergenceError:
        reject()
    R = np.empty((case["count"], r.size))
    S = np.empty((case["count"], s.size))
    for k in range(case["count"]):
        rng = rng_for(case["seed"], k)
        R[k] = rng.multinomial(n, r) / n
        S[k] = rng.multinomial(n, s) / n if case["resample_s"] else s
    looped = looped_solves(C, R, S, lam, warm, case["max_iter"])
    assert_same_solves(list(sv.solve_replicates(C, R, S, lam, 1.0, warm,
                                                max_iter=case["max_iter"])), looped)
    looped = np.array([np.full(3, np.nan) if isinstance(sol, ConvergenceError)
                       else replicate_record(sol) for sol in looped])
    batched = _replicates(C, r, s, n, lam, 1.0, warm, replicate_record, case["count"],
                          case["seed"], resample_s=case["resample_s"], tol=1e-9,
                          max_iter=case["max_iter"], max_failure_rate=1.0)
    ok = ~np.isnan(looped[:, 0])
    # with every replicate failed the engine cannot know the statistic's shape
    assert (np.isnan(batched.reshape(case["count"], -1)[:, 0]) == ~ok).all()
    if not ok.any():
        return
    assert (batched[ok, 1] == looped[ok, 1]).all()
    for col in (0, 2):
        assert np.allclose(batched[ok, col], looped[ok, col], rtol=1e-12, atol=0.0)


def test_absorption_handoff_matches_looped_solves(monkeypatch):
    # at lam = 0.001 the first three replicates, far from the warm start, push
    # their scalings past e^200; in the last one every kernel entry underflows
    # to zero, so its first update cannot be formed. Each leaves the batch for
    # the scalar solver, with and without enough budget left to converge.
    C = 1.0 - np.eye(4)
    quarter = np.full(4, 0.25)
    warm = solve_reduced(C, quarter, quarter, 0.001, p=1.0).potentials
    R = np.array([[0.97, 0.01, 0.01, 0.01], [0.01, 0.97, 0.01, 0.01],
                  [0.01, 0.01, 0.97, 0.01], quarter, [0.5, 0.5, 0.0, 0.0]])
    S = np.array([[0.01, 0.01, 0.97, 0.01], [0.97, 0.01, 0.01, 0.01],
                  [0.01, 0.97, 0.01, 0.01], quarter, [0.0, 0.0, 0.5, 0.5]])
    real = sv.sinkhorn_matrix
    for max_iter in (sv.DEFAULT_MAX_ITER, 60):
        handoffs = []

        def counted(*args, **kwargs):
            handoffs.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(sv, "sinkhorn_matrix", counted)
        batched = list(sv.solve_replicates(C, R, S, 0.001, 1.0, warm, max_iter=max_iter))
        assert len(handoffs) == 4
        monkeypatch.setattr(sv, "sinkhorn_matrix", real)
        looped = looped_solves(C, R, S, 0.001, warm, max_iter)
        assert_same_solves(batched, looped)
    assert [isinstance(sol, ConvergenceError) for sol in looped] == [True] * 3 + [False] * 2


def test_single_atom_replicates_keep_the_scalar_path():
    rng = np.random.default_rng(4)
    C = rng.uniform(0.0, 1.0, (4, 4))
    r = rng.dirichlet(np.ones(4))
    s = rng.dirichlet(np.ones(4))
    warm = solve_reduced(C, r, s, 0.2, p=1.0).potentials
    R = np.array([[0.0, 1.0, 0.0, 0.0], r, [0.5, 0.0, 0.5, 0.0]])
    S = np.array([s, [0.0, 0.0, 0.0, 1.0], [0.25, 0.25, 0.5, 0.0]])
    batched = list(sv.solve_replicates(C, R, S, 0.2, 1.0, warm))
    assert [sol.plan.iterations == 0 for sol in batched] == [True, True, False]
    assert np.allclose(batched[0].plan.entries, s)
    assert_same_solves(batched, looped_solves(C, R, S, 0.2, warm, sv.DEFAULT_MAX_ITER))
