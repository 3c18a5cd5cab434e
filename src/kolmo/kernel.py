"""The explicit fundamental solution of a degenerate Kolmogorov operator.

Gamma(z, zeta) = Gamma(x - E(t-tau) xi, t - tau) with the Gaussian form

    Gamma(x, t) = (4 pi)^{-N/2} / sqrt(det C(t))
                  * exp(-<C(t)^{-1} x, x>/4 - t tr B),   t > 0,

and zero for t <= 0.  C(t) is the covariance integral of the flow.

kernel_jet_rows evaluates Gamma and its derivatives in z on a row block;
each row rounds exactly as its own K = 1 call does, and every
matrix-vector and dot product is one of matrixcalc's fixed-order row
sums.  A principal drift (B = B_0) needs only its record of C(1)
(spec.homogeneous) and the dilations (C(dt) = D C(1) D); any other drift
has E(dt) and C(dt) factorised once per distinct time step.  C(dt) must
be positive definite (Hormander's condition): _checked_C's verdict, whose
determinant sign and Gershgorin bound a principal drift reads from its
record and the diagonal of C(dt), also in the kernel, and any other
drift from its rows; where that bound cannot clear a row, eigvalsh
decides.  gamma, gamma_grad and gamma_hess_m are its K = 1 calls on
Points, kept for the benchmark's closed-form check.  Every derivative
formula is cross-checked against finite differences in the test suite.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, HypoellipticityError
from .group import embedded_A, finite_rows
from .matrixcalc import (ROW_CHUNK, _clears, _gershgorin, dot_rows, gauss_panels, matvec_rows,
                         tensor_rule, vecmat_rows)

Covariance = namedtuple("Covariance", "C")
# Gamma at K rows with its (K, N) gradient in z, its (K, N, N) spatial
# Hessian (L uses the m x m corner) and Y Gamma = <B x, grad> - d_t Gamma
KernelJet = namedtuple("KernelJet", "gamma grad hess Y")


@dataclass
class KernelContext:
    """The operator spec of the K = 1 kernel calls."""

    spec: object


def _checked_C(spec, t, C=None, diag=None):
    """C(t) (given C, the caller's spec.C(t)) and log det C(t) for a (K,)
    array of times > 0, each slice bit-identical to its own K = 1 call.
    DomainError if C(t) overflows, HypoellipticityError if it is
    numerically singular: Hormander's condition, which check reports and
    the kernel acts on: a row needs a determinant sign > 0 and
    _clears(g, diag), or else an eigvalsh minimum of its C(t) > 1e-300.
    A principal drift reads the sign and g from its record of C(1), diag
    (the finite contiguous (N, K) diagonal of C(t) as spec.C forms it)
    from the caller or C, and gives log det None (its kernel forms it);
    any other drift reads all three from the rows of C(t)."""
    unit = spec.homogeneous()
    if unit is None or diag is None:
        C = spec.C(t) if C is None else C
    # a zero pivot in slogdet is log(0): sign 0, which the test below rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if unit is None:
            sign, logdet = np.linalg.slogdet(C)
            g, diag = _gershgorin(C)
        else:
            sign, logdet, g = unit.sign, None, unit.g
            diag = np.diagonal(C, axis1=1, axis2=2).T.copy() if diag is None else diag
        cleared = _clears(g, diag)
    if (sign > 0).all() and cleared.all():  # the usual case, with no mask to form
        return C, logdet
    bad = (sign <= 0) & np.ones(len(t), dtype=bool)  # a row each, also for the record's sign
    rest = ~(cleared | bad)
    if rest.any():
        rows = spec.C(t[rest]) if C is None else C[rest]
        bad[rest] = np.linalg.eigvalsh(rows)[:, 0] <= 1e-300
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

    A principal drift forms no per-row C, inverse or determinant: from
    E(1) and C(1)^-1 of spec.homogeneous, with D = D(sqrt dt),
    u = D^-1 x - E(1) D^-1 xi, v1 = C(1)^-1 u, <u, v1> is
    <C^-1 w, w>, C^-1 w = D^-1 v1 and C^-1 = C(1)^-1 / (d_i d_j); from
    C'_ij = (alpha_i + alpha_j) C_ij / (2 dt), tr(C^-1 C') = Q / dt and
    <C^-1 w, C' C^-1 w> = sum_i alpha_i v1_i u_i / dt.  Any other drift
    factorises E(dt) and C(dt) once per distinct time step.
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
    unit = spec.homogeneous()
    if unit is None:
        times, at = np.unique(dt, return_inverse=True)
        C, logdet = _checked_C(spec, times)
        E, Cinv, logdet = spec.E(times)[at], np.linalg.inv(C)[at], logdet[at]
        EXi = matvec_rows(E, Xi)
        W = X - EXi
        quad = dot_rows(vecmat_rows(W, Cinv), W)
    else:
        p = spec.level_powers(dt)
        # diag C(dt) as spec.C forms it, laid out (N, K) for _clears
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            diag = ((p * p) * dt[:, None] * np.diagonal(unit.C1)).T.copy()
        if not np.isfinite(diag).all():
            raise DomainError(f"C(t) is not finite for a time step up to {np.max(dt)}")
        _checked_C(spec, dt, diag=diag)
        logt = np.fromiter(map(math.log, dt.tolist()), float, len(dt))
        logdet = unit.logdet + spec.exponents().Q * logt  # log det C(1) + Q log dt
        d = np.sqrt(dt)[:, None] * p
        Eta = matvec_rows(unit.E1, Xi / d)  # E(dt) xi = D Eta
        U = X / d - Eta
        V1 = matvec_rows(unit.inv, U)
        quad = dot_rows(U, V1)
    log_pref = -0.5 * spec.N * math.log(4.0 * math.pi) - 0.5 * logdet
    arg = log_pref - 0.25 * quad - dt * np.trace(spec.B)
    try:
        g[live] = [math.exp(v) for v in arg.tolist()]
    except OverflowError:  # a certified C(dt) so small that Gamma passes DBL_MAX
        raise AccuracyError(f"Gamma overflows at a time step {dt[np.argmax(arg)]}") from None
    if not derivatives:
        return g

    if unit is None:
        CW = matvec_rows(Cinv, W)
    else:
        CW, Cinv = V1 / d, unit.inv / d[:, :, None] / d[:, None, :]
    grad = -0.5 * CW * g[:, None]
    hess = (0.25 * (CW[:, :, None] * CW[:, None, :]) - 0.5 * Cinv) * g[:, None, None]
    # d_t log Gamma from C'(dt) and w' = B E(dt) xi
    if unit is None:  # C'(dt) = E A~ E^T; a 2-d trace per row
        Cprime = np.matmul(np.matmul(E, embedded_A(spec)), np.swapaxes(E, -1, -2))
        tr = np.trace(np.matmul(Cinv, Cprime), axis1=-2, axis2=-1)
        flow = dot_rows(CW, matvec_rows(spec.B, EXi))
        spread = dot_rows(vecmat_rows(CW, Cprime), CW)
    else:  # D^-1 B D = B / dt for B = B_0
        exps = spec.exponents()
        tr, flow = exps.Q / dt, dot_rows(V1, matvec_rows(spec.B, Eta)) / dt
        spread = dot_rows(np.asarray(exps.alpha, dtype=float) * V1, U) / dt
    dlog_dt = -0.5 * tr - 0.5 * flow + 0.25 * spread - float(np.trace(spec.B))
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
