"""The explicit fundamental solution of a degenerate Kolmogorov operator.

Gamma(z, zeta) = Gamma(x - E(t-tau) xi, t - tau) with the Gaussian form

    Gamma(x, t) = (4 pi)^{-N/2} / sqrt(det C(t))
                  * exp(-<C(t)^{-1} x, x>/4 - t tr B),   t > 0,

and zero for t <= 0.  C(t) is the covariance integral of the flow.  The
derivative formulas below come from differentiating the closed form;
every one of them is cross-checked against finite differences in the
test suite before anything downstream relies on it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AccuracyError,
    ApplicabilityError,
    DomainError,
    HypoellipticityError,
    SupportError,
)
from .group import (Point, as_points, compose, dilate, embedded_A, inverse, knorm,
                    origin, sample_ball)
from .matrixcalc import gauss_panels, tensor_rule

TIME_QUANTUM = 1e-12


@dataclass(frozen=True)
class Covariance:
    """C(t) together with its inverse and log-determinant."""

    t: float
    C: np.ndarray
    Cinv: np.ndarray
    logdet: float


@dataclass
class KernelContext:
    """An operator spec plus a covariance cache keyed by quantized time."""

    spec: object
    _cache: dict = field(default_factory=dict, repr=False)


def covariance(ctx, t):
    """Covariance C(t) with its inverse and log-determinant, cached.

    The matrix is ``spec.C(t)``; a miss also checks that it is
    numerically nonsingular, which the Hormander condition guarantees.
    """
    if not (t > 0.0 and math.isfinite(t / TIME_QUANTUM)):
        raise DomainError(f"covariance needs t > 0 in the cache's range, got {t}")
    key = round(t / TIME_QUANTUM)
    hit = ctx._cache.get(key)
    if hit is not None:
        return hit
    C = ctx.spec.C(t)
    sign, logdet = np.linalg.slogdet(C)
    if sign <= 0 or np.linalg.eigvalsh(C)[0] <= 1e-300:
        raise HypoellipticityError(f"C({t}) is numerically singular")
    cov = Covariance(t=t, C=C, Cinv=np.linalg.inv(C), logdet=float(logdet))
    ctx._cache[key] = cov
    return cov


def _centered(ctx, z, zeta):
    """(w, dt) with w = x - E(dt) xi; requires dt > 0."""
    dt = z.t - zeta.t
    if dt <= 0.0:
        raise SupportError(f"kernel derivative needs t - tau > 0, got {dt}")
    w = z.x - ctx.spec.E(dt) @ zeta.x
    return w, dt


def gamma(ctx, z, zeta=None):
    """Kernel value Gamma(z, zeta); zero on and below the pole time."""
    spec = ctx.spec
    if zeta is None:
        zeta = origin(spec.N)
    dt = z.t - zeta.t
    if dt <= 0.0:
        return 0.0
    w = z.x - spec.E(dt) @ zeta.x
    cov = covariance(ctx, dt)
    quad = float(w @ cov.Cinv @ w)
    log_pref = -0.5 * spec.N * math.log(4.0 * math.pi) - 0.5 * cov.logdet
    return math.exp(log_pref - 0.25 * quad - dt * np.trace(spec.B))


def gamma_grad(ctx, z, zeta):
    """Full spatial gradient of Gamma in z: -C^{-1} w Gamma / 2."""
    w, dt = _centered(ctx, z, zeta)
    cov = covariance(ctx, dt)
    return -0.5 * (cov.Cinv @ w) * gamma(ctx, z, zeta)


def gamma_hess(ctx, z, zeta):
    """Full N x N spatial Hessian of Gamma in z."""
    w, dt = _centered(ctx, z, zeta)
    cov = covariance(ctx, dt)
    g = gamma(ctx, z, zeta)
    cw = cov.Cinv @ w
    return (0.25 * np.outer(cw, cw) - 0.5 * cov.Cinv) * g


def gamma_hess_m(ctx, z, zeta):
    """Top-left m x m block of the spatial Hessian."""
    m = ctx.spec.m
    return gamma_hess(ctx, z, zeta)[:m, :m]


def gamma_Y(ctx, z, zeta):
    """Lie derivative Y Gamma = <B x, grad> - d_t Gamma, analytically.

    Uses C'(dt) = E(dt) A~ E(dt)^T and w' = B E(dt) xi for the time
    derivative of the closed form.
    """
    spec = ctx.spec
    w, dt = _centered(ctx, z, zeta)
    cov = covariance(ctx, dt)
    g = gamma(ctx, z, zeta)
    E = spec.E(dt)
    Cprime = E @ embedded_A(spec) @ E.T
    wprime = spec.B @ (E @ zeta.x)
    cw = cov.Cinv @ w
    dlog_dt = (
        -0.5 * float(np.trace(cov.Cinv @ Cprime))
        - 0.5 * float(cw @ wprime)
        + 0.25 * float(cw @ Cprime @ cw)
        - float(np.trace(spec.B))
    )
    grad = -0.5 * cw * g
    return float(spec.B @ z.x @ grad) - dlog_dt * g


def check_kernel_pde(ctx, z, zeta):
    """Residual of L Gamma = sum a_ij d2 Gamma + Y Gamma; should vanish."""
    H = gamma_hess_m(ctx, z, zeta)
    return float(np.sum(ctx.spec.A * H)) + gamma_Y(ctx, z, zeta)


def check_homogeneity(ctx, z, r):
    """Ratio Gamma(delta_r z) r^Q / Gamma(z); equals 1 for B = B_0."""
    spec = ctx.spec
    if not spec.is_dilation_invariant():
        raise ApplicabilityError("homogeneity holds only for B = B_0 drifts")
    exps = spec.exponents()
    g = gamma(ctx, z)
    if g == 0.0:
        raise DomainError("homogeneity check needs t > 0")
    return gamma(ctx, dilate(r, z, exps)) * r**exps.Q / g


def kernel_mass(ctx, t, nodes_per_dim=32, tol=1e-6):
    """Quadrature of x -> Gamma(x, t); must equal exp(-t tr B).

    Integrates over a box of +-8 standard deviations of the underlying
    Gaussian (mass outside < 1e-8) and doubles the node count once as a
    self-check.  The weighted values are summed by math.fsum, exactly
    rounded: a BLAS dot over the 16,384 nodes of the fine pass groups
    its terms by the thread count, which moved the last digits.
    """
    if t <= 0.0:
        raise DomainError("mass check needs t > 0")
    cov = covariance(ctx, t)
    sigma = np.sqrt(np.diag(2.0 * cov.C))
    half_widths = 8.0 * sigma

    def run(n):
        # two composite Gauss-Legendre panels per axis of the box
        pts, w = tensor_rule([gauss_panels(-h, h, 2, n) for h in half_widths])
        vals = np.array([gamma(ctx, Point(p, t)) for p in pts])
        return math.fsum(vals * w)

    coarse, fine = run(nodes_per_dim), run(2 * nodes_per_dim)
    if abs(fine - coarse) > tol * max(1.0, abs(fine)):
        raise AccuracyError("kernel mass quadrature did not converge")
    return fine


def check_bounds(ctx, samples=10_000, R0=1.0, seed=0):
    """Fitted constants of the kernel decay bounds by Monte-Carlo sup.

    Returns a dict mapping each bound name to the empirical supremum of
    the corresponding product value * d_K^power over sampled pairs in
    the box Q_{R0}.
    """
    spec = ctx.spec
    exps = spec.exponents()
    Q = exps.Q
    rng = np.random.default_rng(seed)
    pts = as_points(sample_ball(spec, R0, 2 * samples, rng))
    out = {"gamma": 0.0, "grad_m": 0.0, "hess_m": 0.0, "Y": 0.0}
    for j in range(spec.m, spec.N):
        out[f"grad_alpha{exps.alpha[j]}"] = 0.0
    for i in range(samples):
        z, zeta = pts[2 * i], pts[2 * i + 1]
        if z.t - zeta.t <= 1e-6:
            continue
        d = knorm(compose(inverse(zeta, spec), z, spec), exps)
        if d < 1e-6:
            continue
        g = gamma(ctx, z, zeta)
        grad = gamma_grad(ctx, z, zeta)
        H = gamma_hess_m(ctx, z, zeta)
        Yg = gamma_Y(ctx, z, zeta)
        out["gamma"] = max(out["gamma"], g * d**Q)
        out["grad_m"] = max(out["grad_m"], np.abs(grad[: spec.m]).max() * d ** (Q + 1))
        out["hess_m"] = max(out["hess_m"], np.abs(H).max() * d ** (Q + 2))
        out["Y"] = max(out["Y"], abs(Yg) * d ** (Q + 2))
        for j in range(spec.m, spec.N):
            a = exps.alpha[j]
            out[f"grad_alpha{a}"] = max(
                out[f"grad_alpha{a}"], abs(grad[j]) * d ** (Q + a)
            )
    return out


def annulus_sup(ctx, R, samples=2000, seed=0):
    """Sup of Gamma over z in Q_{R/2}, zeta in Q_R minus Q_{3R/4}."""
    spec = ctx.spec
    exps = spec.exponents()
    rng = np.random.default_rng(seed)
    zs = as_points(sample_ball(spec, R / 2.0, samples, rng))
    best = 0.0
    kept = 0
    for zeta in as_points(sample_ball(spec, R, 8 * samples, rng)):
        if knorm(zeta, exps) < 0.75 * R:
            continue
        kept += 1
        z = zs[kept % len(zs)]
        if z.t > zeta.t:
            best = max(best, gamma(ctx, z, zeta))
        if kept >= samples:
            break
    return best
