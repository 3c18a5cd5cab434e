"""The explicit fundamental solution of a degenerate Kolmogorov operator.

Gamma(z, zeta) = Gamma(x - E(t-tau) xi, t - tau) with the Gaussian form

    Gamma(x, t) = (4 pi)^{-N/2} / sqrt(det C(t))
                  * exp(-<C(t)^{-1} x, x>/4 - t tr B),   t > 0,

and zero for t <= 0.  C(t) is the covariance integral of the flow.

kernel_jet_rows evaluates Gamma and its derivatives in z on a row block;
each row rounds exactly as its own K = 1 call does.  A principal drift
(B = B_0) needs only C(1), factorised once per spec, and the dilations
(C(dt) = D C(1) D); any other drift has E(dt) and C(dt) factorised once
per distinct time step.  C(dt) must be positive definite (Hormander's
condition): a Gershgorin bound, of C(dt) (_checked_C) or for the kernel
of a principal drift of C(1) (_checked_unit), certifies that, and
eigvalsh runs only on the rows it cannot clear.  gamma,
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
from .matrixcalc import (ROW_CHUNK, dot_fixed, dot_rows, gauss_panels, matvec_fixed, matvec_rows,
                         tensor_rule, vecmat_rows)

Covariance = namedtuple("Covariance", "C")
# Gamma at K rows with its (K, N) gradient in z, its (K, N, N) spatial
# Hessian (L uses the m x m corner) and Y Gamma = <B x, grad> - d_t Gamma
KernelJet = namedtuple("KernelJet", "gamma grad hess Y")
# C(1)^-1, log det C(1), the sign of det C(1) and its Gershgorin bound g,
# less a slack (_unit_factor)
UnitFactor = namedtuple("UnitFactor", "inv logdet sign g")


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
    p(n) <= 2^10 n a slice with g min d > 2^10 n eps tr C + 2e-300 is cleared
    (_clears); a zero d (C(t) underflowed to 0) makes g nan, not cleared.  d is
    laid out (n, K) and r (n, n, K), contiguous, so each operation runs over
    the K rows."""
    n, eps = C.shape[-1], np.finfo(float).eps
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = np.diagonal(C, axis1=1, axis2=2).T.copy()
        s = np.sqrt(d)
        r = np.abs(C).transpose(1, 2, 0).copy()
        r /= s[:, None] * s[None, :]
        g = 2.0 - np.add.reduce(r, axis=1).max(0) - 4 * n * eps
        return g, _clears(g, d)


def _clears(g, d):
    """Slices that g clears, d their (n, K) diagonals: g min d > 2^10 n eps tr C
    + 2e-300 (under the caller's errstate, as the sum may overflow)."""
    return (g > 0) & (g * d.min(0) > 2**10 * len(d) * np.finfo(float).eps * d.sum(0) + 2e-300)


def _verdict(t, sign, cleared, rows_C):
    """HypoellipticityError unless each row has a determinant sign > 0 and
    is cleared, or its C(t) (rows_C of the mask) an eigvalsh minimum > 1e-300."""
    bad = sign <= 0
    rest = ~(cleared | bad)
    if rest.any():
        bad[rest] = np.linalg.eigvalsh(rows_C(rest))[:, 0] <= 1e-300
    if bad.any():
        raise HypoellipticityError(f"C({t[bad][0]}) is numerically singular")


def _checked_C(spec, t):
    """C(t) and log det C(t) for a (K,) array of times > 0, each slice
    bit-identical to its own K = 1 call.  DomainError if C(t) overflows
    (spec.C), HypoellipticityError if it is numerically singular: a
    determinant sign <= 0 or an eigvalsh minimum <= 1e-300.  This is
    the positive-definiteness verdict on C(t), Hormander's condition:
    the check verb reports it and the kernel acts on it, the kernel of a
    principal drift as _checked_unit reads the same rule from C(1).
    eigvalsh runs only on the rows that _gershgorin does not clear.
    """
    C = spec.C(t)
    # a zero pivot in slogdet is log(0): sign 0, which the test below rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sign, logdet = np.linalg.slogdet(C)
    _verdict(t, sign, _gershgorin(C)[1], lambda rows: C[rows])
    return C, logdet


def _unit_factor(spec):
    """The UnitFactor of a principal drift's C(1) (spec.homogeneous), made on
    the spec's first kernel call.  g is _gershgorin's bound for C(1) less
    (2 kappa + 3) eps: C(t)'s entries carry at most 2 kappa + 1 roundings
    (spec.C), so a correlation row sum below 2 moves by less than
    (2 kappa + 2) eps, and one eps covers subnormal entries."""
    if "factor" not in spec._exps:
        C1 = spec.homogeneous().C1
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            sign, logdet = np.linalg.slogdet(C1)
            inv = np.linalg.inv(C1) if sign > 0 else None
        g = _gershgorin(C1[None])[0][0] - (2 * spec.kappa + 3) * np.finfo(float).eps
        spec._exps["factor"] = UnitFactor(inv, logdet, sign, g)
    return spec._exps["factor"]


def _checked_unit(spec, t, p, factor):
    """_checked_C's verdict on a principal drift's C(t) = D C(1) D, read
    from the sign of det C(1), its bound g (factor) and diag C(t) as
    spec.C forms it from p = spec.level_powers(t); eigvalsh forms C(t)
    only on the rows g cannot clear.  Returns log det C(t) =
    log det C(1) + Q log t (math.log)."""
    pt = p.T  # (N, K), so each operation runs over the K rows
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        dd = (pt * pt) * t
        diag = dd * np.diagonal(spec.homogeneous().C1)[:, None]
        cleared = _clears(factor.g, diag) & (dd.min(0) >= np.finfo(float).tiny)
    if not np.isfinite(diag).all():
        raise DomainError(f"C(t) is not finite for a time step up to {np.max(t)}")
    _verdict(t, np.full(len(t), factor.sign), cleared, lambda rows: spec.C(t[rows]))
    logt = np.fromiter(map(math.log, t.tolist()), float, len(t))
    return factor.logdet + spec.exponents().Q * logt


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

    A principal drift forms no per-row C, inverse or determinant: with
    D = D(sqrt dt), u = D^-1 x - E(1) D^-1 xi, v1 = C(1)^-1 u, <u, v1> is
    <C^-1 w, w>, C^-1 w = D^-1 v1 and C^-1 = C(1)^-1 / (d_i d_j); from
    C'_ij = (alpha_i + alpha_j) C_ij / (2 dt), tr(C^-1 C') = Q / dt and
    <C^-1 w, C' C^-1 w> = sum_i alpha_i v1_i u_i / dt.  Its sums run in a
    fixed order (matvec_fixed).  Any other drift factorises E(dt) and C(dt)
    once per distinct time step.
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
    dot, matvec = (dot_rows, matvec_rows) if unit is None else (dot_fixed, matvec_fixed)
    if unit is None:
        times, at = np.unique(dt, return_inverse=True)
        C, logdet = _checked_C(spec, times)
        E, Cinv, logdet = spec.E(times)[at], np.linalg.inv(C)[at], logdet[at]
        EXi = matvec_rows(E, Xi)
        W = X - EXi
        quad = dot_rows(vecmat_rows(W, Cinv), W)
    else:
        p, factor = spec.level_powers(dt), _unit_factor(spec)
        logdet = _checked_unit(spec, dt, p, factor)
        d = np.sqrt(dt)[:, None] * p
        Eta = matvec_fixed(unit.E1, Xi / d)  # E(dt) xi = D Eta
        U = X / d - Eta
        V1 = matvec_fixed(factor.inv, U)
        quad = dot_fixed(U, V1)
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
        CW, Cinv = V1 / d, factor.inv / d[:, :, None] / d[:, None, :]
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
        tr, flow = exps.Q / dt, dot_fixed(V1, matvec_fixed(spec.B, Eta)) / dt
        spread = dot_fixed(np.asarray(exps.alpha, dtype=float) * V1, U) / dt
    dlog_dt = -0.5 * tr - 0.5 * flow + 0.25 * spread - float(np.trace(spec.B))
    Y = dot(matvec(spec.B, X), grad) - dlog_dt * g
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
