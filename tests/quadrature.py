"""Entry-wise integrals of matrix-valued maps, the tests' independent
route to C(t) = int_0^t E(s) A~ E(s)^T ds.  No command-line path uses it."""

import numpy as np

from kolmo.errors import AccuracyError, DomainError
from kolmo.matrixcalc import gauss_panels

GAUSS_ORDER = 10
PANELS = 8
REFINE_TOL = 1e-10


def _quad_matrix(M, t, panels):
    pts, wts = gauss_panels(0.0, t, panels, GAUSS_ORDER)
    acc = None
    for s, w in zip(pts, wts):
        val = w * np.asarray(M(s), dtype=float)
        acc = val if acc is None else acc + val
    return acc


def integrate_matrix(M, t):
    """Entry-wise integral of the matrix-valued map M over [0, t].

    Composite Gauss-Legendre of fixed order on PANELS panels; the
    panel count is doubled once and the two results must agree to 1e-10
    (relative to the larger entry scale), otherwise AccuracyError.
    """
    if t <= 0.0:
        raise DomainError(f"integration endpoint must be positive, got {t}")
    coarse = _quad_matrix(M, t, PANELS)
    fine = _quad_matrix(M, t, 2 * PANELS)
    scale = max(1.0, float(np.abs(fine).max()))
    if np.abs(fine - coarse).max() > REFINE_TOL * scale:
        raise AccuracyError(
            "panel doubling changed the integral by more than 1e-10; "
            "integrand may be non-smooth"
        )
    return fine
