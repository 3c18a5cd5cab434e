"""The explicit fundamental solution of a degenerate Kolmogorov operator.

Gamma(z, zeta) = Gamma(x - E(t-tau) xi, t - tau) with the Gaussian form

    Gamma(x, t) = (4 pi)^{-N/2} / sqrt(det C(t))
                  * exp(-<C(t)^{-1} x, x>/4 - t tr B),   t > 0,

and zero for t <= 0.  C(t) is the covariance integral of the flow.

kernel_jet_rows evaluates Gamma and its derivatives in z on a row block,
with E(dt) and C(dt) factorised once per distinct time step by stacked
calls and nothing cached; each row rounds exactly as its own K = 1 call
does.  C(dt) must be positive definite (Hormander's condition): a
Gershgorin bound formed from its entries certifies that, and eigvalsh
runs only on the rows the bound cannot clear (_checked_C).  gamma,
gamma_grad and gamma_hess_m are its K = 1 calls on Points, kept for the
benchmark's closed-form check.  Every derivative formula is
cross-checked against finite differences in the test suite.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, HypoellipticityError
from .group import embedded_A, finite_rows
from .matrixcalc import ROW_CHUNK, dot_rows, gauss_panels, matvec_rows, tensor_rule, vecmat_rows

Covariance = namedtuple("Covariance", "C")
# Gamma at K rows with its (K, N) gradient in z, its (K, N, N) spatial
# Hessian (L uses the m x m corner) and Y Gamma = <B x, grad> - d_t Gamma
KernelJet = namedtuple("KernelJet", "gamma grad hess Y")


@dataclass
class KernelContext:
    """The operator spec of the K = 1 kernel calls."""

    spec: object


def _gershgorin(C):
    """The Gershgorin certificate of a (K, n, n) stack C: g per slice and the
    mask of slices it clears.  With d = diag C and r_ij = |C_ij| / sqrt(d_i d_j),
    lambda_min(C) >= g min d for g = 2 - max_i sum_j r_ij - 4 n eps, a slack
    for the rounding of r and its row sums in any order.  eigvalsh's
    eigenvalues lie within p(n) eps ||C||_2 of the exact ones (LAPACK Users'
    Guide, 3rd ed., section 4.7) and ||C||_2 <= tr C once g > 0, so with
    p(n) <= 2^10 n a slice with g min d > 2^10 n eps tr C + 2e-300 is cleared;
    a zero d (C(t) underflowed to 0) makes g nan, not cleared.  d is laid out
    (n, K) and r (n, n, K), contiguous, so each operation runs over the K rows."""
    n, eps = C.shape[-1], np.finfo(float).eps
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = np.diagonal(C, axis1=1, axis2=2).T.copy()
        s = np.sqrt(d)
        r = np.abs(C).transpose(1, 2, 0).copy()
        r /= s[:, None] * s[None, :]
        g = 2.0 - np.add.reduce(r, axis=1).max(0) - 4 * n * eps
        return g, (g > 0) & (g * d.min(0) > 2**10 * n * eps * d.sum(0) + 2e-300)


def _checked_C(spec, t):
    """C(t) and log det C(t) for a (K,) array of times > 0, each slice
    bit-identical to its own K = 1 call.  DomainError if C(t) overflows
    (spec.C), HypoellipticityError if it is numerically singular: a
    determinant sign <= 0 or an eigvalsh minimum <= 1e-300.  This is
    the one positive-definiteness verdict on C(t), Hormander's condition:
    the kernel acts on it and the check verb reports it.  eigvalsh runs
    only on the rows that _gershgorin does not clear.
    """
    C = spec.C(t)
    # a zero pivot in slogdet is log(0): sign 0, which the test below rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sign, logdet = np.linalg.slogdet(C)
    bad = sign <= 0
    rest = ~(_gershgorin(C)[1] | bad)
    if rest.any():
        bad[rest] = np.linalg.eigvalsh(C[rest])[:, 0] <= 1e-300
    if bad.any():
        raise HypoellipticityError(f"C({t[bad][0]}) is numerically singular")
    return C, logdet


def covariance(ctx, t):
    """C(t) for one time t > 0, checked as _checked_C checks it."""
    if not t > 0.0:
        raise DomainError(f"covariance needs t > 0, got {t}")
    return Covariance(C=_checked_C(ctx.spec, np.array([float(t)]))[0][0])


def kernel_jet_rows(spec, Z, P, derivatives=True):
    """Gamma(z, zeta) for the rows z of the (K, N+1) block Z and the poles
    zeta of P, which has K rows or one row paired with every row of Z.

    Returns a KernelJet; with ``derivatives=False`` only the (K,) values,
    zero on and below the pole time (the derivatives need t > tau on
    every row: DomainError).  The exponent is a math.exp per row, since
    numpy's exp rounds differently on some inputs; AccuracyError if it
    overflows.
    """
    Z, P = finite_rows(Z), finite_rows(P)
    if len(Z) > ROW_CHUNK:
        parts = [kernel_jet_rows(spec, Z[k:k + ROW_CHUNK], P[k:k + ROW_CHUNK] if len(P) > 1
                                 else P, derivatives) for k in range(0, len(Z), ROW_CHUNK)]
        return KernelJet(*map(np.concatenate, zip(*parts))) if derivatives else np.concatenate(parts)
    dt = Z[:, -1] - P[:, -1]
    live = dt > 0.0
    if derivatives and not live.all():
        raise DomainError(f"kernel derivative needs t - tau > 0, got {dt[~live][0]}")
    g = np.zeros(len(Z))
    X, Xi, dt = Z[live, :-1], (P[live] if len(P) > 1 else P)[:, :-1], dt[live]
    times, at = np.unique(dt, return_inverse=True)
    C, logdet = _checked_C(spec, times)
    E, Cinv, logdet = spec.E(times)[at], np.linalg.inv(C)[at], logdet[at]
    EXi = matvec_rows(E, Xi)
    W = X - EXi
    quad = dot_rows(vecmat_rows(W, Cinv), W)
    log_pref = -0.5 * spec.N * math.log(4.0 * math.pi) - 0.5 * logdet
    arg = log_pref - 0.25 * quad - dt * np.trace(spec.B)
    try:
        g[live] = [math.exp(v) for v in arg.tolist()]
    except OverflowError:  # a certified C(dt) so small that Gamma passes DBL_MAX
        raise AccuracyError(f"Gamma overflows at a time step {dt[np.argmax(arg)]}") from None
    if not derivatives:
        return g

    CW = matvec_rows(Cinv, W)
    grad = -0.5 * CW * g[:, None]
    hess = (0.25 * (CW[:, :, None] * CW[:, None, :]) - 0.5 * Cinv) * g[:, None, None]
    # d_t Gamma from C'(dt) = E A~ E^T and w' = B E xi; a 2-d trace per row
    Cprime = np.matmul(np.matmul(E, embedded_A(spec)), np.swapaxes(E, -1, -2))
    tr = np.trace(np.matmul(Cinv, Cprime), axis1=-2, axis2=-1)
    dlog_dt = (-0.5 * tr - 0.5 * dot_rows(CW, matvec_rows(spec.B, EXi))
               + 0.25 * dot_rows(vecmat_rows(CW, Cprime), CW) - float(np.trace(spec.B)))
    Y = dot_rows(matvec_rows(spec.B, X), grad) - dlog_dt * g
    return KernelJet(gamma=g, grad=grad, hess=hess, Y=Y)


def gamma(ctx, z, zeta):
    """Kernel value Gamma(z, zeta); zero on and below the pole time."""
    return float(kernel_jet_rows(ctx.spec, z.row(), zeta.row(), derivatives=False)[0])


def gamma_grad(ctx, z, zeta):
    """Full spatial gradient of Gamma in z: -C^{-1} w Gamma / 2."""
    return kernel_jet_rows(ctx.spec, z.row(), zeta.row()).grad[0]


def gamma_hess_m(ctx, z, zeta):
    """Top-left m x m block of the spatial Hessian."""
    return kernel_jet_rows(ctx.spec, z.row(), zeta.row()).hess[0, :ctx.spec.m, :ctx.spec.m]


def kernel_mass(spec, t):
    """Quadrature of x -> Gamma(x, t); must equal exp(-t tr B).

    Integrates over a box of +-8 standard deviations of the underlying
    Gaussian (mass outside < 1e-8), one row block per pass of 32, then 64
    nodes per panel, which must agree to 1e-6 relative.  The weighted
    values are summed by math.fsum, exactly rounded: a BLAS dot over the
    16,384 nodes of the fine pass groups its terms by the thread count.
    """
    if not t > 0.0:
        raise DomainError(f"mass check needs t > 0, got {t}")
    half_widths = 8.0 * np.sqrt(np.diag(2.0 * _checked_C(spec, np.array([float(t)]))[0][0]))

    def run(n):
        # two composite Gauss-Legendre panels per axis of the box
        pts, w = tensor_rule([gauss_panels(-h, h, 2, n) for h in half_widths])
        Z = np.column_stack([pts, np.full(len(pts), t)])
        vals = kernel_jet_rows(spec, Z, np.zeros((1, spec.N + 1)), derivatives=False)
        return math.fsum(vals * w)

    coarse, fine = run(32), run(64)
    if not abs(fine - coarse) <= 1e-6 * max(1.0, abs(fine)):
        raise AccuracyError("kernel mass quadrature did not converge")
    return fine
