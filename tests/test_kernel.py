import math

import numpy as np
import pytest

from kolmo import (
    KernelContext,
    Point,
    check_bounds,
    check_homogeneity,
    check_kernel_pde,
    covariance,
    gamma,
    gamma_Y,
    gamma_grad,
    gamma_hess,
    heat_spec,
    hormander_check,
    integrate_matrix,
    kernel_mass,
    origin,
)
from kolmo.errors import ApplicabilityError, DomainError, SupportError
from kolmo.group import embedded_A
from kolmo.kernel import annulus_sup


def test_kolmogorov_covariance_closed_form(kctx):
    # C(t) = [[t, t^2/2], [t^2/2, t^3/3]]
    for t in (0.3, 1.0, 2.5):
        C = covariance(kctx, t).C
        want = np.array([[t, t * t / 2.0], [t * t / 2.0, t**3 / 3.0]])
        assert np.abs(C - want).max() < 1e-10


def test_covariance_matches_quadrature(kctx, kinetic, drifted, kappa2):
    # the one-exponential form against the defining integral, through both
    # of its users: the kernel's covariance and the Hormander test
    for spec in (kctx.spec, kinetic, drifted, kappa2, heat_spec(2)):
        ctx = KernelContext(spec)
        At = embedded_A(spec)
        for t in (0.2, 1.0, 3.0):
            ref = integrate_matrix(lambda s: spec.E(s) @ At @ spec.E(s).T, t)
            assert np.abs(covariance(ctx, t).C - ref).max() < 1e-10
            ref_min = np.linalg.eigvalsh(ref)[0]
            assert abs(hormander_check(spec, t).min_eigenvalue - ref_min) < 1e-10


def test_covariance_needs_positive_time(kctx):
    with pytest.raises(DomainError):
        covariance(kctx, 0.0)


def test_gamma_origin_value(kctx):
    # (4 pi)^{-1} / sqrt(det [[1,1/2],[1/2,1/3]]) = sqrt(3) / (2 pi)
    z = Point([0.0, 0.0], 1.0)
    assert abs(gamma(kctx, z) - math.sqrt(3.0) / (2.0 * math.pi)) < 1e-10


def test_gamma_vanishes_at_and_below_pole_time(kctx):
    assert gamma(kctx, Point([0.3, 0.1], 0.0)) == 0.0
    assert gamma(kctx, Point([0.3, 0.1], -1.0)) == 0.0
    with pytest.raises(SupportError):
        gamma_grad(kctx, Point([0.3, 0.1], 0.0), origin(2))


def test_gamma_derivatives_match_fd(kctx):
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(20):
        z = Point(rng.uniform(-1, 1, size=2), rng.uniform(0.3, 2.0))
        p = Point(rng.uniform(-1, 1, size=2), rng.uniform(-0.5, 0.0))
        g = gamma(ctx := kctx, z, p)
        grad = gamma_grad(ctx, z, p)
        H = gamma_hess(ctx, z, p)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            up = gamma(ctx, Point(z.x + e, z.t), p)
            dn = gamma(ctx, Point(z.x - e, z.t), p)
            assert abs((up - dn) / (2 * h) - grad[i]) < 1e-7 * max(1.0, g)
            assert abs((up - 2 * g + dn) / h**2 - H[i, i]) < 1e-4 * max(1.0, g)
        # Y via flow difference
        s = 1e-6
        E = ctx.spec.E(-s)
        fwd = gamma(ctx, Point(E @ z.x, z.t - s), p)
        E = ctx.spec.E(s)
        bwd = gamma(ctx, Point(E @ z.x, z.t + s), p)
        assert abs((fwd - bwd) / (2 * s) - gamma_Y(ctx, z, p)) < 1e-6 * max(1.0, g)


def test_kernel_pde_residual_relative(kctx, drifted):
    rng = np.random.default_rng(1)
    for spec in (kctx.spec, drifted):
        ctx = KernelContext(spec)
        for _ in range(50):
            z = Point(rng.uniform(-1.5, 1.5, size=2), rng.uniform(0.2, 2.0))
            p = Point(rng.uniform(-1, 1, size=2), rng.uniform(-0.5, 0.0))
            scale = max(abs(gamma_Y(ctx, z, p)), 1e-300)
            assert abs(check_kernel_pde(ctx, z, p)) <= 1e-6 * max(1.0, scale)


def test_kernel_mass(kctx, drifted):
    # tr B = 0: unit mass; tr B = 1: mass e^{-t}
    assert abs(kernel_mass(kctx, 0.7) - 1.0) < 1e-5
    ctx = KernelContext(drifted)
    assert abs(kernel_mass(ctx, 1.0) - math.exp(-1.0)) < 1e-5


def test_homogeneity_principal_only(kctx, drifted):
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = Point(rng.uniform(-1, 1, size=2), rng.uniform(0.2, 1.5))
        r = float(np.exp(rng.uniform(-0.7, 0.7)))
        assert abs(check_homogeneity(kctx, z, r) - 1.0) < 1e-10
    with pytest.raises(ApplicabilityError):
        check_homogeneity(KernelContext(drifted), Point([0.0, 0.0], 1.0), 0.5)


def test_chapman_kolmogorov_heat_1d(heat):
    # semigroup identity, closed-form 1d heat kernel as the oracle
    ctx = KernelContext(heat)
    x, t = 0.4, 1.0
    sigma_mid = 0.6
    ys = np.linspace(-12.0, 12.0, 3001)
    vals = np.array([
        gamma(ctx, Point([x - 0.0], 0.0), Point([y], -sigma_mid))
        * gamma(ctx, Point([y], -sigma_mid), Point([0.0], -t))
        for y in ys
    ])
    lhs = np.trapezoid(vals, ys)
    rhs = gamma(ctx, Point([x], 0.0), Point([0.0], -t))
    assert abs(lhs - rhs) < 1e-8 * rhs


def test_bounds_constants_finite(kctx):
    out = check_bounds(kctx, samples=500)
    assert set(out) >= {"gamma", "grad_m", "hess_m", "Y"}
    assert all(np.isfinite(v) and v >= 0.0 for v in out.values())
    assert out["gamma"] > 0.0


def test_annulus_sup_finite(kctx):
    v = annulus_sup(kctx, 0.5, samples=300)
    assert np.isfinite(v) and v >= 0.0
