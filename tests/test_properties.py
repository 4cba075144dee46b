"""Structural invariants over generated instances: the Gram factor against the
dense oracle, A grad_phi = I, PSD covariances and cost-shift invariance."""

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rotinf.regularizers as rg
from rotinf import (ConvergenceError, NumericalError, plan_covariance, plan_gradient,
                    solve_reduced)
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
