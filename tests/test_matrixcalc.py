import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrature import integrate_matrix

from kolmo import AccuracyError, mat_exp, sqrt_spd
from kolmo.matrixcalc import (TENSOR_BUDGET, dot_rows, matvec_rows, reduce_columns, tensor_rule,
                              vecmat_rows)
from kolmo.errors import DomainError


def left_sum(terms):
    """Python floats added left to right from the first term: the order of
    matrixcalc's row sums below 8 terms."""
    acc = terms[0]
    for term in terms[1:]:
        acc += term
    return acc


def left_matvec(M, x):
    """M @ x of one matrix and one vector, each entry a left_sum."""
    return np.array([left_sum([float(a) * float(b) for a, b in zip(row, x)]) for row in M])


def left_dot(x, y):
    return left_sum([float(a) * float(b) for a, b in zip(x, y)])


def test_mat_exp_nilpotent_closed_form():
    # B^2 = 0 so exp(sB) = I + sB exactly
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    for s in (-3.0, 0.0, 0.7, 12.5):
        assert np.abs(mat_exp(s * B) - (np.eye(2) + s * B)).max() == 0.0


def test_mat_exp_symmetric_eig_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        S = rng.standard_normal((4, 4))
        S = (S + S.T) / 2.0
        w, V = np.linalg.eigh(S)
        oracle = (V * np.exp(w)) @ V.T
        assert np.abs(mat_exp(S) - oracle).max() < 1e-12 * np.exp(np.abs(w).max())


def test_mat_exp_series_oracle_small_norm():
    rng = np.random.default_rng(7)
    M = 0.01 * rng.standard_normal((3, 3))
    term = np.eye(3)
    acc = np.eye(3)
    for k in range(1, 20):
        term = term @ M / k
        acc = acc + term
    assert np.abs(mat_exp(M) - acc).max() < 1e-14


def test_mat_exp_inverse_pair():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((3, 3))
    assert np.abs(mat_exp(M) @ mat_exp(-M) - np.eye(3)).max() < 1e-12


def test_mat_exp_overflow_raises():
    with pytest.raises(AccuracyError):
        mat_exp(np.array([[1e4]]))


def test_mat_exp_rejects_bad_input():
    with pytest.raises(DomainError):
        mat_exp(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        mat_exp(np.array([[np.nan]]))


def test_sqrt_spd_squares_back():
    rng = np.random.default_rng(5)
    for _ in range(10):
        X = rng.standard_normal((4, 4))
        A = X @ X.T + 0.1 * np.eye(4)
        S = sqrt_spd(A)
        assert np.abs(S - S.T).max() < 1e-12
        assert np.abs(S @ S - A).max() < 1e-10


def test_sqrt_spd_rejects_nonsymmetric_and_indefinite():
    with pytest.raises(DomainError, match="not symmetric"):
        sqrt_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DomainError, match="not positive definite"):
        sqrt_spd(np.diag([1.0, -1.0]))
    # one bad slice of a stack is refused as well
    for bad, match in ((np.array([[1.0, 2.0], [0.0, 1.0]]), "not symmetric"),
                       (np.diag([1.0, -1.0]), "not positive definite")):
        with pytest.raises(DomainError, match=match):
            sqrt_spd(np.stack([np.eye(2), bad, np.eye(2)]))
    with pytest.raises(DomainError):
        sqrt_spd(np.ones((2, 2, 2, 2)))


def test_sqrt_spd_stack_rounds_as_its_slices():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 5):
        X = rng.standard_normal((40, n, n)) * np.exp(rng.uniform(-8.0, 4.0, (40, 1, 1)))
        A = X @ np.swapaxes(X, -1, -2) + 1e-3 * np.eye(n)
        A = (A + np.swapaxes(A, -1, -2)) / 2.0
        S = sqrt_spd(A)
        assert S.shape == A.shape
        assert all(np.array_equal(S[k], sqrt_spd(A[k])) for k in range(len(A)))


def test_dot_rows_on_strided_blocks_rounds_as_one_dot_per_row():
    # a strided block (the real part of a complex array, a column slice)
    # must round as fresh vectors do: each row is the fixed-order dot of
    # its own copies, left to right below 8 terms and numpy's pairwise
    # sum from 8 on, whatever the caller passed
    rng = np.random.default_rng(7)
    for n in (3, 17, 64, 301):
        X = (rng.standard_normal((12, n)) + 1j * rng.standard_normal((12, n))).real
        Y = rng.standard_normal((12, n + 2))[:, 1:-1]
        for x, y in ((X, Y), (X, Y[0]), (Y, X)):
            rows = dot_rows(x, y)
            y_rows = np.broadcast_to(y, x.shape)
            want = [left_dot(x[k], y_rows[k]) if n < 8 else np.add.reduce(x[k].copy() * y_rows[k])
                    for k in range(len(x))]
            assert np.array_equal(rows, want), n


def strided(rng, shape):
    """Entries over ten binades of both signs, as the real part of a
    complex array: a view that is not C-contiguous."""
    Z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (Z * np.exp(rng.uniform(-5.0, 5.0, shape))).real


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 17, 144]), st.integers(0, 2**32 - 1))
def test_row_products_round_per_row_and_agree_with_blas(n, seed):
    # matvec_rows, vecmat_rows and dot_rows: each row equals its own K = 1
    # call and the call on contiguous copies; BLAS, the second route, sums
    # in another order, within n eps times the sum of the terms' moduli
    rng = np.random.default_rng(seed)
    K, eps = 5, np.finfo(float).eps
    X, Y, A = strided(rng, (K, n)), strided(rng, (K, n)), strided(rng, (K, n, n))
    M, y = strided(rng, (n, n)), strided(rng, (n,))  # shared by every row
    calls = [(matvec_rows, M, X, M @ X[..., None], np.abs(M) @ np.abs(X)[..., None]),
             (matvec_rows, A, X, A @ X[..., None], np.abs(A) @ np.abs(X)[..., None]),
             (vecmat_rows, X, M, X[:, None] @ M, np.abs(X)[:, None] @ np.abs(M)),
             (vecmat_rows, X, A, X[:, None] @ A, np.abs(X)[:, None] @ np.abs(A)),
             (dot_rows, X, Y, X[:, None] @ Y[..., None], np.abs(X)[:, None] @ np.abs(Y)[..., None]),
             (dot_rows, X, y, X @ y, np.abs(X) @ np.abs(y))]
    for f, a, b, blas, scale in calls:
        got = f(a, b)
        assert np.array_equal(got, f(a.copy(), b.copy())), (f.__name__, n)
        for k in range(K):
            one = f(*(v if v is M or v is y else v[k:k + 1] for v in (a, b)))
            assert np.array_equal(got[k], one[0]), (f.__name__, n, k)
        assert (np.abs(got - blas.reshape(got.shape)) <= n * eps * scale.reshape(got.shape)).all()


def mixed_block(rng, n):
    """A (600, n) block of both signs across 60 binades, with signed
    zeros, and NaN in some rows."""
    P = rng.choice([-1.0, 1.0], (600, n)) * np.exp(rng.uniform(-20.0, 20.0, (600, n)))
    P[rng.random((600, n)) < 0.05] = 0.0
    P[rng.random((600, n)) < 0.05] = -0.0
    P[rng.choice(600, 12, replace=False), rng.integers(n)] = np.nan
    return P


def sweep(ufunc, P, start=None):
    """The column sweep ufunc(... ufunc(ufunc(start, P0), P1) ..., P_n-1),
    or without a start ufunc(... ufunc(P0, P1) ..., P_n-1)."""
    out = P[:, 0].copy() if start is None else ufunc(start, P[:, 0])
    for j in range(1, P.shape[1]):
        out = ufunc(out, P[:, j])
    return out


def test_short_reductions_run_left_to_right():
    # reduce_columns replaces numpy's reductions over fewer than 8 columns
    # with column sweeps from column 0; numpy sums them left to right from
    # +0.0, which differs only on an all -0.0 row, and a max is exact in
    # any order.  A numpy that reorders them fails here, not in the
    # report bytes.
    rng = np.random.default_rng(8)
    for n in range(1, 8):
        P = mixed_block(rng, n)
        for ufunc, start in ((np.add, 0.0), (np.maximum, -np.inf)):
            for got, want in ((ufunc.reduce(P, axis=-1), sweep(ufunc, P, start)),
                              (reduce_columns(ufunc, P), sweep(ufunc, P))):
                assert np.array_equal(got, want, equal_nan=True), (ufunc, n)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (ufunc, n)
        assert np.array_equal(P.max(axis=-1), sweep(np.maximum, P, -np.inf), equal_nan=True)


def test_long_sums_run_pairwise():
    # from 8 columns on numpy sums pairwise, which a sweep does not
    # reproduce: reduce_columns keeps the reduction there
    rng = np.random.default_rng(9)
    for n in (8, 9):
        P = mixed_block(rng, n)
        got = reduce_columns(np.add, P)
        assert np.array_equal(got, np.add.reduce(P, axis=-1), equal_nan=True)
        assert not np.array_equal(got, sweep(np.add, P, 0.0), equal_nan=True), n


def test_integrate_matrix_polynomial_exact():
    # int_0^2 [[s, s^3]] ds = [[2, 4]]
    val = integrate_matrix(lambda s: np.array([[s, s**3]]), 2.0)
    assert np.abs(val - np.array([[2.0, 4.0]])).max() < 1e-12


def test_integrate_matrix_exponential():
    val = integrate_matrix(lambda s: np.array([[np.exp(s)]]), 1.0)
    assert abs(val[0, 0] - (np.e - 1.0)) < 1e-12


def test_integrate_matrix_domain_and_kink():
    with pytest.raises(DomainError):
        integrate_matrix(lambda s: np.eye(1), 0.0)
    # kink off the panel grid defeats the panel-doubling check
    with pytest.raises(AccuracyError):
        integrate_matrix(lambda s: np.array([[abs(s - 0.37)]]), 1.0)


def test_tensor_rule_budget():
    side = np.arange(1024.0), np.ones(1024)
    pts, w = tensor_rule([side, side])  # 2^20 points: at the budget
    assert pts.shape == (TENSOR_BUDGET, 2) and w.sum() == TENSOR_BUDGET
    with pytest.raises(DomainError, match="budget"):
        tensor_rule([side, side, (np.zeros(2), np.ones(2))])
