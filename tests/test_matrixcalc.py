import numpy as np
import pytest

from quadrature import integrate_matrix

from kolmo import AccuracyError, mat_exp, sqrt_spd
from kolmo.matrixcalc import TENSOR_BUDGET, dot_rows, tensor_rule
from kolmo.errors import DomainError


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
    # takes another matmul loop than a contiguous one; each row must still
    # be one x @ y of fresh vectors, whatever the caller passed
    rng = np.random.default_rng(7)
    for n in (3, 17, 64, 301):
        X = (rng.standard_normal((12, n)) + 1j * rng.standard_normal((12, n))).real
        Y = rng.standard_normal((12, n + 2))[:, 1:-1]
        for x, y in ((X, Y), (X, Y[0]), (Y, X)):
            rows = dot_rows(x, y)
            y_rows = np.broadcast_to(y, x.shape)
            assert all(rows[k] == x[k].copy() @ y_rows[k].copy() for k in range(len(x)))


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
