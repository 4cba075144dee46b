"""Structural invariants over generated instances: the Gram factor against the
dense oracle, A grad_phi = I, PSD covariances, marginal feasibility, cost-shift
invariance, permutation equivariance, batched replicate solves against looped
ones, stacked plug-in variances against the one-plan path, the Newton line
search's first trial against the Armijo test, and each row of a stacked Newton
against its solve alone."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rotinf.regularizers as rg
import rotinf.sensitivity as sens
import rotinf.solver as sv
from rotinf import (ConvergenceError, GroundSpace, NumericalError, Prob, TransportPlan,
                    cost_from_metric, plan_covariance, plan_gradient, solve_reduced)
from rotinf._util import rng_for
from rotinf.inference import _divergence_statistic, _replicates, _sigma2_at, _studentized
from rotinf.solver import GramFactor, _reduced_gram
from rotinf.space import ConstraintOperator

ALL_KINDS = [rg.entropy(), rg.burg(), rg.fermi_dirac(),
             rg.beta_potential(0.5), rg.lp_quasi(0.5)]

positive = st.floats(min_value=1e-3, max_value=1.0)


@st.composite
def gram_weights(draw):
    """A stack of positive weights (B, n1, n2), each slice zero off its own support
    of rows and columns, and right-hand sides zero off each slice's support rows
    and free columns: one vector or three columns per slice."""
    B, n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = np.array([draw(arrays(bool, n1).filter(np.any)) for _ in range(B)])
    cols = np.array([draw(arrays(bool, n2).filter(np.any)) for _ in range(B)])
    W = draw(arrays(float, (B, n1, n2), elements=positive)) * rows[:, :, None] * cols[:, None, :]
    free = GramFactor.free_columns(cols.astype(float))
    k = draw(st.sampled_from([(), (3,)]))
    top = draw(arrays(float, (B, n1) + k, elements=st.floats(-1.0, 1.0)))
    bottom = draw(arrays(float, (B, n2) + k, elements=st.floats(-1.0, 1.0)))
    extra = (None,) * len(k)
    return W, rows, cols, free, top * rows[(...,) + extra], bottom * free[(...,) + extra]


def assert_backward_stable(M, X, B):
    assert X.shape == B.shape
    resid = np.linalg.norm(M @ X - B)
    assert resid <= 1e-10 * np.linalg.norm(M, 2) * np.linalg.norm(X)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
    # every factored slice of the stack, and the stack of one of each slice's
    # weights on its support, against the dense Gram matrix of that support
    W, rows, cols, free, top, bottom = case
    stack = GramFactor(W, free, ~rows)
    x, y = stack.solve_blocks(top, bottom)
    # the row and column sums handed in, as the stacked Newton hands them in
    summed = GramFactor(W, free, ~rows, sums=(W.sum(axis=2), W.sum(axis=1)))
    assert same_bits(summed.factored, stack.factored)
    assert all(same_bits(a, b) for a, b in zip(summed.solve_blocks(top, bottom), (x, y)))
    for b in range(len(W)):
        ri, ci = np.flatnonzero(rows[b]), np.flatnonzero(cols[b])
        Wb = W[b][np.ix_(ri, ci)]
        M = _reduced_gram(Wb)
        rhs = np.concatenate([top[b, ri], bottom[b, ci[:-1]]])
        assert_backward_stable(M, GramFactor(Wb).solve(rhs), rhs)
        assert (y[b, ~free[b]] == 0).all()
        if not stack.factored[b]:
            assert (x[b] == 0).all()
            continue
        assert (x[b, ~rows[b]] == 0).all()
        assert_backward_stable(M, np.concatenate([x[b, ri], y[b, ci[:-1]]]), rhs)


def test_gram_factor_floor_applies_to_stacks_only():
    # the entries between the blocks {0, 1} x {0, 1} and {2} x {2} are 1e-13,
    # as where a plan's kernel has nearly underflowed: the smallest squared
    # Schur pivot is 4e-13, below a stack's floor of 1e-10 times the largest
    # row mass 0.4, while the stack of one of the same weights still solves
    W = np.array([[0.2, 0.1, 1e-13], [0.1, 0.2, 1e-13], [1e-13, 1e-13, 0.4]])
    stack = GramFactor(W[None], np.array([[True, True, False]]), np.zeros((1, 3), bool))
    assert not stack.factored[0]
    assert (stack.solve_blocks(np.ones((1, 3)), np.ones((1, 3)))[0] == 0).all()
    rhs = np.arange(1.0, 6.0)
    assert_backward_stable(_reduced_gram(W), GramFactor(W).solve(rhs), rhs)


def test_gram_factor_without_cholesky_factor_raises():
    # the anti-diagonal plan's Schur complement is singular
    with pytest.raises(NumericalError, match="singular"):
        GramFactor(np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_gram_factor_of_an_empty_stack():
    W = np.zeros((0, 3, 4))
    gram = GramFactor(W, np.zeros((0, 4), dtype=bool), np.zeros((0, 3), dtype=bool))
    x, y = gram.solve_blocks(np.zeros((0, 3)), np.zeros((0, 4)))
    assert gram.factored.shape == x.shape[:1] == y.shape[:1] == (0,)


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
@given(case=instances())
def test_plans_meet_their_marginals(reg, case):
    C, r, s, lam = case
    tol = 1e-11
    plan = solved(reg, C, r, s, lam, tol=tol).plan.matrix
    assert (plan > 0).all()
    # the solvers test the rows and all columns but the last, which follows
    cols = np.abs(plan.sum(axis=0) - s)
    assert max(np.abs(plan.sum(axis=1) - r).max(), cols[:-1].max()) <= tol + 1e-15
    assert cols[-1] <= sum(plan.shape) * tol


@pytest.mark.parametrize("reg", ALL_KINDS, ids=str)
@given(case=instances(), rows=st.permutations(range(4)), cols=st.permutations(range(4)))
def test_permuting_the_points_permutes_the_plan(reg, case, rows, cols):
    C, r, s, lam = case
    rows = [i for i in rows if i < len(r)]
    cols = [j for j in cols if j < len(s)]
    # both solves stop within 1e-13 of the marginals, where the plans agree to 1e-13
    base = solved(reg, C, r, s, lam, tol=1e-13).plan.matrix
    moved = solved(reg, C[np.ix_(rows, cols)], r[rows], s[cols], lam, tol=1e-13).plan.matrix
    assert np.abs(moved - base[np.ix_(rows, cols)]).max() <= 1e-12


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
    return np.array([sol.divergence(), sol.plan.entries.sum()])


def replicate_records(C):
    """A run statistic: each plan's divergence over its own support, and its mass."""
    def statistic(P, R, S):
        blocks = [np.ix_(r > 0, s > 0) for r, s in zip(R, S)]
        return np.array([[sv.divergence_matrix(C[ix], plan[ix], 1.0), plan.sum()]
                         for plan, ix in zip(P, blocks)]), {}
    return statistic


def solved_replicates(*args, **kwargs):
    """``solve_replicates`` flattened to one (plan, r, s, count, error) per replicate."""
    return [(P[b], R[b], S[b], counts[b], errors.get(b))
            for P, R, S, counts, errors in sv.solve_replicates(*args, **kwargs)
            for b in range(len(P))]


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
    for (plan, r, s, count, err), b in zip(batched, looped):
        if isinstance(b, ConvergenceError):
            assert type(err) is type(b)
            assert (str(err), err.iterations) == (str(b), b.iterations)
            assert np.isnan(plan).all()
            continue
        assert err is None
        assert count == b.plan.iterations
        # the normalized marginals sit on the same supports with the same weights
        assert (np.flatnonzero(r) == b.row_support).all()
        assert (np.flatnonzero(s) == b.col_support).all()
        assert (r[b.row_support] == b.plan.r.weights).all()
        assert (s[b.col_support] == b.plan.s.weights).all()
        assert np.allclose(plan.ravel(), b.full_entries(), rtol=1e-12, atol=1e-15)


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
    assert_same_solves(solved_replicates(C, R, S, lam, warm, max_iter=case["max_iter"]),
                       looped)
    looped = np.array([np.full(2, np.nan) if isinstance(sol, ConvergenceError)
                       else replicate_record(sol) for sol in looped])
    ok = ~np.isnan(looped[:, 0])

    def run_batched():
        return _replicates(C, r, s, n, lam, warm, replicate_records(C), case["count"],
                           case["seed"], resample_s=case["resample_s"], tol=1e-9,
                           max_iter=case["max_iter"], max_failure_rate=1.0)

    if not ok.any():
        # with every replicate failed the engine raises the first failure at any rate
        with pytest.raises(ConvergenceError, match="replicate 0:"):
            run_batched()
        return
    batched = run_batched()
    assert (np.isnan(batched[:, 0]) == ~ok).all()
    for col in (0, 1):
        assert np.allclose(batched[ok, col], looped[ok, col], rtol=1e-12, atol=0.0)


def test_absorption_handoff_matches_looped_solves(monkeypatch):
    # at lam = 0.001 the first three replicates, far from the warm start, push
    # their scalings past e^200; in the last one every kernel entry underflows
    # to zero, so its first update cannot be formed. Each leaves the batch for
    # sinkhorn_matrix, with and without enough budget left to converge.
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
        batched = solved_replicates(C, R, S, 0.001, warm, max_iter=max_iter)
        assert len(handoffs) == 4
        monkeypatch.setattr(sv, "sinkhorn_matrix", real)
        looped = looped_solves(C, R, S, 0.001, warm, max_iter)
        assert_same_solves(batched, looped)
    assert [isinstance(sol, ConvergenceError) for sol in looped] == [True] * 3 + [False] * 2


def test_batched_plans_after_newton_finishes_agree_within_tol(monkeypatch):
    # a two-sample loop of 12 replicates on 24 random points, squared-Euclidean
    # cost, at lam0 = 0.0116 and tol 1e-8: Newton finishes every replicate. The
    # stacked Newton solves on the loop's kernel, so batched and looped plans
    # need not agree to rounding (here one differs beyond 1e-12 relative), but
    # they take the same path: the same counts, and plans within tol
    rng = np.random.default_rng(11)
    N = int(rng.integers(20, 51))
    X = rng.uniform(0.0, 1.0, (N, 2))
    C = ((X[:, None] - X[None]) ** 2).sum(axis=-1)
    r, s = rng.dirichlet(np.ones(N)), rng.dirichlet(np.ones(N))
    lam = float(np.median(C)) * float(np.exp(rng.uniform(np.log(0.001), np.log(0.05))))
    tol = 1e-8
    warm = solve_reduced(C, r, s, lam, p=1.0, tol=tol).potentials
    n = int(rng.integers(20, 200))
    R = np.array([rng.multinomial(n, r) / n for _ in range(12)])
    S = np.array([rng.multinomial(n, s) / n for _ in range(12)])
    outcomes = recorded_newton(monkeypatch)
    batched = solved_replicates(C, R, S, lam, warm, tol=tol)
    assert sum(not fell_back for fell_back, _ in outcomes) == 12
    for (plan, _, _, count, err), rw, sw in zip(batched, R, S):
        looped = solve_reduced(C, rw, sw, lam, p=1.0, tol=tol, init=warm)
        assert err is None and count == looped.plan.iterations
        assert np.abs(plan.ravel() - looped.full_entries()).max() <= tol


def test_single_atom_replicates_keep_the_scalar_path():
    rng = np.random.default_rng(4)
    C = rng.uniform(0.0, 1.0, (4, 4))
    r = rng.dirichlet(np.ones(4))
    s = rng.dirichlet(np.ones(4))
    warm = solve_reduced(C, r, s, 0.2, p=1.0).potentials
    R = np.array([[0.0, 1.0, 0.0, 0.0], r, [0.5, 0.0, 0.5, 0.0]])
    S = np.array([s, [0.0, 0.0, 0.0, 1.0], [0.25, 0.25, 0.5, 0.0]])
    batched = solved_replicates(C, R, S, 0.2, warm)
    assert [count == 0 for _, _, _, count, _ in batched] == [True, True, False]
    assert np.allclose(batched[0][0][1], s)
    assert_same_solves(batched, looped_solves(C, R, S, 0.2, warm, sv.DEFAULT_MAX_ITER))


def recorded_newton(monkeypatch):
    """Patch in a recorder of (fell back, steps taken) for every Newton row."""
    outcomes = []
    real = sv._newton_stack

    def recorded(K, U, V, *args):
        U_new, V_new, taken, ok = real(K, U, V, *args)
        outcomes.extend(zip((~ok).tolist(), taken.tolist()))
        return U_new, V_new, taken, ok

    monkeypatch.setattr(sv, "_newton_stack", recorded)
    return outcomes


def test_failed_newton_falls_back_to_sinkhorn(monkeypatch):
    # at lam = 0.002 the cross entries of the first two plans have underflowed
    # below 1e-190 when they stall, so their Grams are singular: each Newton
    # fails at its first step, Sinkhorn resumes where it stalled and the next
    # Newton comes a window twice as long later. Sinkhorn finishes them, or
    # fails the second at the lower max_iter. The last replicate's Newton
    # succeeds. Batched and looped solves take the same path.
    C = 1.0 - np.eye(3)
    third = np.full(3, 1.0 / 3.0)
    warm = solve_reduced(C, third, third, 0.002, p=1.0).potentials
    R = np.array([[0.0, 0.1, 0.9], [0.2, 0.3, 0.5], [0.0, 0.1, 0.9]])
    S = np.array([[0.0, 0.9, 0.1], [0.3, 0.3, 0.4], [0.3, 0.1, 0.6]])
    outcomes = recorded_newton(monkeypatch)
    for max_iter, failures in ((sv.DEFAULT_MAX_ITER, 9), (300, 7)):
        batched = solved_replicates(C, R, S, 0.002, warm, max_iter=max_iter)
        in_batch = sorted(outcomes)
        outcomes.clear()
        looped = looped_solves(C, R, S, 0.002, warm, max_iter)
        assert in_batch == sorted(outcomes) == [(False, 16)] + [(True, 1)] * failures
        outcomes.clear()
        assert_same_solves(batched, looped)
    assert [count for _, _, _, count, _ in batched[::2]] == [122, 36]
    assert isinstance(batched[1][4], ConvergenceError) and batched[1][4].iterations == 300
    # the first replicate's windows are 10, 20 and 40 iterations: it stalls at
    # iteration 10, and its Newtons, one step each, end at 11, 32 and 73
    attempts = []
    for max_iter in (10, 11, 31, 32, 72, 73):
        looped_solves(C, R[:1], S[:1], 0.002, warm, max_iter)
        attempts.append(len(outcomes))
        outcomes.clear()
    assert attempts == [0, 1, 1, 2, 2, 3]
    # the last replicate stalls at iteration 20 and needs 16 Newton steps; with
    # fewer left its Newton falls back too, and the solve fails at max_iter
    # with the residual it stalled at
    at_stall, cut_short = ([err for *_, err in solved_replicates(C, R[[2, 2]], S[[2, 2]], 0.002,
                                                                 warm, max_iter=max_iter)]
                           for max_iter in (20, 35))
    assert cut_short[0].iterations == 35
    assert cut_short[0].residual == at_stall[0].residual == at_stall[1].residual


def test_newton_failing_midway_falls_back_to_where_it_stalled(monkeypatch):
    # at lam = 0.02 these Newtons fail at their first step, then, a window twice
    # as long later, move for three steps and fail at the fourth; the third
    # Newton, another window later, succeeds
    C = 1.0 - np.eye(3)
    third = np.full(3, 1.0 / 3.0)
    warm = solve_reduced(C, third, third, 0.02, p=1.0).potentials
    R = np.array([[0.1, 0.4, 0.5], [0.4, 0.5, 0.1]])
    S = np.array([[0.2, 0.3, 0.5], [0.3, 0.5, 0.2]])
    outcomes = recorded_newton(monkeypatch)
    batched = solved_replicates(C, R, S, 0.02, warm)
    assert outcomes == [(True, 1), (True, 1), (True, 4), (True, 4), (False, 5), (False, 5)]
    assert [count for _, _, _, count, _ in batched] == [130, 130]
    assert_same_solves(batched, looped_solves(C, R, S, 0.02, warm, sv.DEFAULT_MAX_ITER))


def random_points(rng, N, p, factor):
    """N random points in the unit square, their cost |x - y|^p, Dirichlet
    marginals and lam = factor times the median cost."""
    X = rng.uniform(0.0, 1.0, (N, 2))
    C = cost_from_metric(GroundSpace(X), p=p).matrix
    r, s = rng.dirichlet(np.ones(N)), rng.dirichlet(np.ones(N))
    return C, r, s, float(np.median(C)) * factor


def first_stall(C, r, s, lam):
    """The scalings (K, U, V, R, S) that a solve to tol 1e-8 hands its first
    Newton, a stack of one, or None if it does not stall within 200 iterations."""
    stalls = []
    real = sv._newton_stack

    def recorded(K, U, V, R, S, *args):
        stalls.append((K, U.copy(), V.copy(), R.copy(), S.copy()))
        return real(K, U, V, R, S, *args)

    with mock.patch.object(sv, "_newton_stack", recorded):
        try:
            sv.sinkhorn_matrix(C, r, s, lam, tol=1e-8, max_iter=200)
        except ConvergenceError:
            pass
    return stalls[0] if stalls else None


@st.composite
def stalled_stacks(draw):
    """The scalings (K, U, V, R, S, lam) of a single small-lam solve of 4 to 30
    random points where it first stalls, as a stack of one, or as a stack of
    resampled marginal pairs on the same scalings, zero off their supports."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    N, p = draw(st.integers(4, 30)), draw(st.sampled_from([1.0, 2.0]))
    C, r, s, lam = random_points(rng, N, p, draw(st.floats(0.002, 0.05)))
    stall = first_stall(C, r, s, lam)
    if stall is None:
        reject()
    K, U, V, R, S = stall
    if draw(st.booleans()):
        n = draw(st.integers(2, 60))
        R = np.array([rng.multinomial(n, r) / n for _ in range(6)])
        S = np.array([rng.multinomial(n, s) / n for _ in range(6)])
        U, V = np.where(R > 0, U, 0.0), np.where(S > 0, V, 0.0)
    return K, U, V, R, S, lam


def armijo_passes(K, u, v, x, z, r, s, free, lam, t):
    """The Newton line search's test of a trial of length t on one row, evaluated
    afresh: an Armijo increase of the dual <log u, r> + <log v, s> - lam sum(P)."""
    P = u[:, None] * K * v[None]
    mass = P.sum()
    linear = np.where(r > 0, r * np.log(u), 0.0).sum() + np.where(s > 0, s * np.log(v), 0.0).sum()
    rounding = 1e-14 * max(1.0, lam * abs(linear - mass))
    F_row, F_col = P.sum(axis=1) - r, np.where(free, P.sum(axis=0) - s, 0.0)
    slope = -lam * ((F_row * x).sum() + (F_col * z).sum())
    rise = lam * ((r * x).sum() + (s * z).sum())
    ut, vt = u * np.exp(t * x), v * np.exp(t * z)
    gain = t * rise - lam * ((ut[:, None] * K * vt[None]).sum() - mass)
    return bool((np.isfinite(ut) & ((ut > 0) | (r <= 0))).all()
                and (np.isfinite(vt) & ((vt > 0) | (s <= 0))).all()
                and gain >= 1e-4 * t * slope - rounding)


@given(case=stalled_stacks())
def test_line_search_starts_below_only_failing_trials(case):
    # the Newton line search halves from t = 1 until a trial passes; it starts
    # at _first_trial's power of two instead. Every power of two above that
    # start fails, and a row started below 1e-14 ends its first step unmoved
    K, U, V, R, S, lam = case
    P = U[:, :, None] * K * V[:, None, :]
    free, off_row = GramFactor.free_columns(S), R <= 0
    gram = GramFactor(P, free, off_row)
    F_row, F_col = P.sum(axis=2) - R, np.where(free, P.sum(axis=1) - S, 0.0)
    X, Z = gram.solve_blocks(-F_row, -F_col)
    with np.errstate(all="ignore"):
        slope = -lam * ((F_row * X).sum(axis=1) + (F_col * Z).sum(axis=1))
        rise = lam * ((R * X).sum(axis=1) + (S * Z).sum(axis=1))
        linear = (np.where(off_row, 0.0, R * np.log(U)).sum(axis=1)
                  + np.where(S > 0, S * np.log(V), 0.0).sum(axis=1))
        mass = P.sum(axis=(1, 2))
        cap = (np.maximum(rise, 0.0) + lam * mass
               + 1e-14 * np.maximum(1.0, lam * np.abs(linear - mass))
               + 1e-4 * np.maximum(-slope, 0.0))
        start = sv._first_trial(P, X, Z, cap, lam)
        for b in np.flatnonzero(gram.factored):
            t = 1.0
            while t > start[b]:
                assert not armijo_passes(K, U[b], V[b], X[b], Z[b], R[b], S[b], free[b], lam, t)
                t *= 0.5
    _, _, taken, ok = sv._newton_stack(K, U, V, R, S, lam, 1e-8, 2)
    ended = gram.factored & (start < 1e-14) & (taken > 0)
    assert (taken[ended] == 1).all() and not ok[ended].any()


@given(case=stalled_stacks(), order=st.permutations(range(6)))
def test_stacked_newton_rows_match_their_solves_alone(case, order):
    # a row's path depends on its own state alone: in a permuted stack, whose
    # rows leave at different steps or all at once, each row returns the bits
    # it returns as a stack of one, and the stack's inputs are left as they were
    K, U, V, R, S, lam = case
    order = [b for b in order if b < len(U)]
    inputs = [a[order] for a in (U, V, R, S)]
    held = [a.copy() for a in inputs]
    stack = sv._newton_stack(K, *inputs, lam, 1e-8, sv._NEWTON_STEPS)
    assert all(same_bits(a, b) for a, b in zip(inputs, held))
    for k, b in enumerate(order):
        alone = sv._newton_stack(K, U[b:b + 1], V[b:b + 1], R[b:b + 1], S[b:b + 1], lam, 1e-8,
                                 sv._NEWTON_STEPS)
        assert all(same_bits(out[k:k + 1], one) for out, one in zip(stack, alone))


@pytest.mark.parametrize("seed, passes", [(3, True), (0, False)])
def test_stacked_newton_leaves_its_inputs_as_they_were(seed, passes):
    # three copies of the first stall on 8 random points at 0.01 times the
    # median cost: no row meets tol before its first step or starts its line
    # search below t = 1, so the stack is not compacted before it. Every
    # trial passes there (seed 3), and the step takes the trials as the new
    # state, or every trial fails (seed 0), and the step writes its accepted
    # trials into a copy of the state; either way U, V, R and S stay as they were
    C, r, s, lam = random_points(np.random.default_rng(seed), 8, 1.0, 0.01)
    K, *stall = first_stall(C, r, s, lam)
    U, V, R, S = (np.repeat(a, 3, axis=0) for a in stall)
    P = U[:, :, None] * K * V[:, None, :]
    free = GramFactor.free_columns(S)
    F_row, F_col = P.sum(axis=2) - R, np.where(free, P.sum(axis=1) - S, 0.0)
    X, Z = GramFactor(P, free, R <= 0).solve_blocks(-F_row, -F_col)
    col = S / P.sum(axis=1)
    assert (np.abs((P * col[:, None, :]).sum(axis=2) - R).max(axis=1) > 1e-8).all()
    assert (X.max(axis=1) + Z.max(axis=1) <= 10).all()
    assert all(armijo_passes(K, U[b], V[b], X[b], Z[b], R[b], S[b], free[b], lam, 1.0) == passes
               for b in range(3))
    held = [a.copy() for a in (U, V, R, S)]
    _, _, taken, ok = sv._newton_stack(K, U, V, R, S, lam, 1e-8, sv._NEWTON_STEPS)
    assert ok.all() and (taken == 3).all()
    assert all(same_bits(a, b) for a, b in zip((U, V, R, S), held))


@st.composite
def studentized_loops(draw):
    """A resampling loop on 2 to 16 points with p in {1, 2}, in one-sample mode or
    in two-sample mode with both sides resampled."""
    N = draw(st.integers(2, 16))
    points = draw(arrays(float, (N, 2), elements=st.floats(0.0, 1.0)))
    p = draw(st.sampled_from([1.0, 2.0]))
    r, s = (draw(arrays(float, N, elements=st.floats(0.05, 1.0))) for _ in range(2))
    delta = draw(st.one_of(st.none(), st.floats(0.05, 0.95)))
    return dict(C=cost_from_metric(GroundSpace(points), p=p).matrix, r=r / r.sum(),
                s=s / s.sum(), p=p, delta=delta, lam=draw(st.floats(0.1, 1.0)),
                n=draw(st.integers(2, 30)), count=draw(st.integers(1, 8)),
                seed=draw(st.integers(0, 2 ** 16)),
                atom=(draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))))


def singular_plan(N):
    """An anti-diagonal plan on points 0 and 1 of N, with its marginals; its reduced
    Gram is singular."""
    P, half = np.zeros((N, N)), np.zeros(N)
    P[0, 1] = P[1, 0] = half[0] = half[1] = 0.5
    return P, half, half


def outcome(fn):
    try:
        return fn()
    except (ConvergenceError, NumericalError) as err:
        return err


@given(case=studentized_loops())
def test_stacked_variances_match_the_one_plan_path(case):
    C, r, s, p, lam, n, delta = (case[k] for k in ("C", "r", "s", "p", "lam", "n", "delta"))
    mode = "one_sample" if delta is None else "two_sample"
    try:
        base = solve_reduced(C, r, s, lam, p=p)
    except ConvergenceError:
        reject()
    R = np.empty((case["count"], r.size))
    S = np.empty((case["count"], s.size))
    for k in range(case["count"]):
        rng = rng_for(case["seed"], k)
        R[k] = rng.multinomial(n, r) / n
        S[k] = rng.multinomial(n, s) / n if delta is not None else s
    solved = [(plan, r_, s_) for plan, r_, s_, _, err
              in solved_replicates(C, R, S, lam, base.potentials) if err is None]
    # one atom on each side leaves a variance of exactly zero (or, at p = 2 on
    # one point, a fractional root at zero cost); the last plan's Gram is singular
    i, j = case["atom"]
    ri, sj = np.eye(len(C))[i], np.eye(len(C))[j]
    atom = solve_reduced(C, ri, sj, lam, p=p)
    solved += [(atom.full_entries().reshape(C.shape), ri, sj), singular_plan(len(C))]
    P, R, S = (np.array(x) for x in zip(*solved))
    rate = np.sqrt(n / 2.0) if delta is not None else np.sqrt(n)
    w0 = base.divergence()
    values, errors = _divergence_statistic(C, base, rate, mode, delta)(P, R, S)
    assert len(values) == len(P)
    for b, sigma2 in enumerate(sens.divergence_variances(C, P, R, S, p, mode=mode, delta=delta)):
        rows, cols = np.flatnonzero(R[b]), np.flatnonzero(S[b])
        cost = C[np.ix_(rows, cols)]
        plan = TransportPlan(entries=P[b][np.ix_(rows, cols)], r=Prob(R[b][rows]),
                             s=Prob(S[b][cols]), lam=lam, reg=rg.entropy(), p=p,
                             iterations=0, residual=0.0)
        want = outcome(lambda: _sigma2_at(plan, cost, mode, delta))
        value = errors.get(b, values[b])
        assert np.isnan(sigma2) == isinstance(want, Exception)
        if isinstance(want, Exception):
            assert (type(value), str(value)) == (type(want), str(want))
            continue
        # both paths round the quadratic form's terms, of the size of the
        # squared gradient; where they cancel, that rounding is all that is left
        gamma = sens.divergence_gradient(cost.ravel(), plan, p)
        floor = 1e-14 * np.abs(gamma).max() ** 2
        assert abs(sigma2 - want) <= 1e-12 * want + floor
        raw = rate * (sv.divergence_matrix(cost, plan.matrix, p) - w0)
        want_value = outcome(lambda: _studentized(raw, want, gamma))
        if isinstance(want_value, Exception):
            assert (type(value), str(value)) == (type(want_value), str(want_value))
        else:
            slack = floor / want if want > 0.0 else 0.0
            assert abs(value - want_value) <= abs(want_value) * (1e-12 + slack)
    assert isinstance(errors[len(P) - 1], NumericalError) and "singular" in str(errors[len(P) - 1])
