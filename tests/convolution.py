"""The kernel convolution u = -int Gamma f, the tests' representation
formula: the Gauss-Hermite slices of verify._slice_integrals, with f
read on the rows of the slice grid.  No command-line path uses it."""

import functools

import numpy as np

from kolmo.errors import AccuracyError, DomainError
from kolmo.group import finite_rows
from kolmo.matrixcalc import gauss_legendre
from kolmo.verify import _slice_integrals


def convolve_solution(spec, f, z, t_lo, nodes_t=16, nodes_x=24, check=True):
    """u(z) = -int Gamma(z, zeta) f(zeta) d zeta over times in [t_lo, t)
    at the one row z = (x, t), for f mapping a (K, N+1) row block to its
    K values.

    The spatial integral is de-singularized by the substitution
    w = x - E(dt) xi, which turns the kernel into a plain Gaussian
    weight; the remaining time integrand is continuous up to tau = t.
    A grid-doubling self-check (to 1e-4 relative) guards the result.
    """
    z = finite_rows(z)
    t, N = float(z[0, -1]), spec.N
    if t <= t_lo:
        raise DomainError("evaluation time must exceed the support onset")

    def psi(X, tau):  # f on the rows (xi, tau) of an (..., S, N, G) grid
        X = np.swapaxes(X, -1, -2)  # node-major: one (xi) row per node
        rows = np.concatenate([X, np.broadcast_to(tau[:, None, None], X.shape[:-1] + (1,))], -1)
        return f(finite_rows(rows.reshape(-1, N + 1))).reshape(X.shape[:-1])

    def run(nt, nx):
        nodes, wts = gauss_legendre(nt)
        half = (t - t_lo) / 2.0
        tau = (t + t_lo) / 2.0 + half * nodes
        inner = _slice_integrals(spec, psi, np.broadcast_to(z, (nt, N + 1)), tau, (), None, nx)
        # the terms in node order: np.sum pairs them, which rounds differently
        return -functools.reduce(np.add, wts * half * inner[:, 0], 0.0)

    coarse = run(nodes_t, nodes_x)
    if not check:
        return coarse
    fine = run(2 * nodes_t, nodes_x + 8)
    if abs(fine - coarse) > 1e-4 * max(1.0, abs(fine)):
        raise AccuracyError("convolution quadrature did not converge")
    return fine
