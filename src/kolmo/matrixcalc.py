"""Dense linear algebra and quadrature helpers at small fixed dimension.

Everything here operates on plain numpy arrays.  Dimensions are tiny
(N <= ~10), so the implementations favour determinism and accuracy over
speed: the matrix exponential uses scipy's scaling-and-squaring Pade
core, square roots go through a full symmetric eigendecomposition, and
the quadrature is a fixed-order composite Gauss-Legendre rule with a
panel-doubling self-check.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from .errors import (
    AccuracyError,
    DefinitenessError,
    DimensionError,
    DomainError,
    SymmetryError,
)

SYMMETRY_TOL = 1e-12
GAUSS_ORDER = 10
DEFAULT_PANELS = 8
REFINE_TOL = 1e-10
# Most points a tensor grid may have: kernel_mass's fine grid in two
# dimensions has 128^2 = 16,384, and a grid held whole in memory at
# 2^20 points of N = 4 floats takes 32 MB.
TENSOR_BUDGET = 2**20


@dataclass(frozen=True)
class SpdReport:
    """Outcome of a positive-definiteness check."""

    min_eigenvalue: float
    is_spd: bool
    tolerance: float


def _as_square(M, stacked=False):
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or (M.ndim > 2 and not stacked) or M.shape[-2] != M.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise DomainError("matrix has non-finite entries")
    return M


def mat_exp(M):
    """Matrix exponential exp(M) of a small dense square matrix, or of
    each matrix of a (..., n, n) stack in one scipy call.  scipy runs the
    same code on every slice, so each slice is bit-identical to its own
    call."""
    M = _as_square(M, stacked=True)
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm(M)
    if not np.isfinite(out).all():
        raise AccuracyError("overflow in matrix exponential")
    return out


def sqrt_spd(A):
    """Symmetric positive square root S of an SPD matrix, S @ S = A."""
    A = _as_square(A)
    if not np.allclose(A, A.T, atol=SYMMETRY_TOL, rtol=0.0):
        raise SymmetryError("matrix is not symmetric")
    w, V = np.linalg.eigh(A)
    if w.min() <= 0.0:
        raise DefinitenessError(f"matrix is not positive definite (min eig {w.min():g})")
    return (V * np.sqrt(w)) @ V.T


def spd_min_eigen(S, tol=1e-10):
    """Smallest eigenvalue of a symmetric matrix with an SPD verdict."""
    S = _as_square(S)
    if not np.allclose(S, S.T, atol=SYMMETRY_TOL, rtol=0.0):
        raise SymmetryError("matrix is not symmetric beyond 1e-12")
    w_min = float(np.linalg.eigvalsh(S)[0])
    return SpdReport(min_eigenvalue=w_min, is_spd=w_min > tol, tolerance=tol)


def matvec_rows(M, X):
    """Row-wise M @ x for a (K, n) block X and an (n, n) matrix or a
    (K, n, n) stack M.  numpy makes one BLAS gemv per row, the call that
    a single M @ x makes, so each row is bit-identical to it."""
    return np.matmul(M, X[..., None])[..., 0]


def vecmat_rows(X, M):
    """Row-wise x @ M for a (K, n) block X and a (K, n, n) stack M: one gemv per row."""
    return np.matmul(X[..., None, :], M)[..., 0, :]


def dot_rows(X, Y):
    """Row-wise x @ y of two (K, n) blocks (or one (n,) vector), one BLAS
    dot per row as in a single x @ y."""
    return np.matmul(X[..., None, :], Y[..., :, None])[..., 0, 0]


def gauss_panels(lo, hi, panels, order=GAUSS_ORDER):
    """Composite Gauss-Legendre rule on [lo, hi]: points and weights of
    ``panels`` equal panels with ``order`` nodes each."""
    nodes, weights = leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    pts = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return pts, wts


def tensor_rule(rules):
    """Tensor product of 1-d rules [(points, weights), ...]: the (n, d)
    points in C order and their weights, multiplied left to right.
    A grid of more than TENSOR_BUDGET points is refused before it is
    built (DomainError)."""
    size = math.prod(len(pts) for pts, _ in rules)
    if size > TENSOR_BUDGET:
        raise DomainError(
            f"tensor grid of {size} points exceeds the budget of "
            f"{TENSOR_BUDGET}; use fewer nodes per axis"
        )
    grids = np.meshgrid(*(pts for pts, _ in rules), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(())
    for _, wts in rules:
        w = np.multiply.outer(w, wts)
    return pts, w.ravel()


def _quad_matrix(M, t, panels):
    pts, wts = gauss_panels(0.0, t, panels)
    acc = None
    for s, w in zip(pts, wts):
        val = w * np.asarray(M(s), dtype=float)
        acc = val if acc is None else acc + val
    return acc


def integrate_matrix(M, t, panels=DEFAULT_PANELS, check=True):
    """Entry-wise integral of the matrix-valued map M over [0, t].

    Composite Gauss-Legendre of fixed order per panel.  With ``check``
    the panel count is doubled once and the two results must agree to
    1e-10 (relative to the larger entry scale), otherwise AccuracyError.
    """
    if t <= 0.0:
        raise DomainError(f"integration endpoint must be positive, got {t}")
    coarse = _quad_matrix(M, t, panels)
    if not check:
        return coarse
    fine = _quad_matrix(M, t, 2 * panels)
    scale = max(1.0, float(np.abs(fine).max()))
    if np.abs(fine - coarse).max() > REFINE_TOL * scale:
        raise AccuracyError(
            "panel doubling changed the integral by more than 1e-10; "
            "integrand may be non-smooth"
        )
    return fine
