"""Top-level acceptance checks, one test per criterion.

Each test prints a single pass/fail line; the heavier quadrature-based
checks (semigroup identity, singular-integral scalings) stay well under
their time budgets at these settings.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from kolmo import (
    C2Bundle,
    ManufacturedProblem,
    ModulusTable,
    Point,
    compose_rows,
    connect,
    covariance,
    dilate_rows,
    gamma,
    counterexample_certificate,
    inverse_rows,
    kdist_rows,
    kernel_jet_rows,
    kernel_mass,
    kolmogorov_spec,
    make_spec,
    manufacture,
    quadratic_bundle,
    remainder_profile,
    schauder_functional,
    table_from_function,
    taylor2,
    verify_apriori,
    verify_invariance,
    verify_plan,
    verify_schauder,
    verify_singular_bounds,
)
from kolmo.errors import StructureError
from kolmo.matrixcalc import mat_exp
from kolmo.modulus import DEFAULT_RADII
from kolmo.verify import _FAMILIES

from test_kernel import homogeneity_ratio, pde_residual
from test_modulus import power_table
from test_schauder_oracle import holder_closed_form


def _report(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _rand_point(rng, N, scale=1.5):
    """A random (1, N+1) row block."""
    return np.append(rng.uniform(-scale, scale, size=N), rng.uniform(-scale, scale))[None]


def test_criterion_01_structure(kspec, kctx):
    exps = kspec.exponents()
    ok = exps.alpha == (1, 3) and exps.Q == 4
    C = covariance(kctx, 1.0).C
    want = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    ok = ok and np.abs(C - want).max() < 1e-10
    try:
        make_spec(np.eye(1), np.zeros((2, 2)), (1, 1))
        ok = False
    except StructureError as err:
        ok = ok and "level 1" in str(err)
    _report(1, "structure and rank test", ok)


def test_criterion_02_group_laws(kspec, kappa2, drifted):
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        z, zeta, w = (_rand_point(rng, drifted.N) for _ in range(3))
        lhs = compose_rows(compose_rows(z, zeta, drifted), w, drifted)
        rhs = compose_rows(z, compose_rows(zeta, w, drifted), drifted)
        worst = max(worst, np.abs(lhs - rhs).max())
        ze = compose_rows(z, np.zeros((1, drifted.N + 1)), drifted)
        worst = max(worst, np.abs(ze - z).max())
        zi = compose_rows(z, inverse_rows(z, drifted), drifted)
        worst = max(worst, np.abs(zi).max())
    ok = worst < 1e-11

    worst_d = 0.0
    for spec in (kspec, kappa2):
        exps = spec.exponents()
        for _ in range(500):
            z, zeta = _rand_point(rng, spec.N), _rand_point(rng, spec.N)
            r = float(np.exp(rng.uniform(-1.5, 1.5)))
            lhs = dilate_rows(r, compose_rows(z, zeta, spec), exps)
            rhs = compose_rows(dilate_rows(r, z, exps), dilate_rows(r, zeta, exps), spec)
            worst_d = max(worst_d, np.abs(lhs - rhs).max())
    ok = ok and worst_d < 1e-11

    exps = drifted.exponents()
    z = np.ones((1, 3))
    lhs = dilate_rows(0.5, compose_rows(z, z, drifted), exps)
    rhs = compose_rows(dilate_rows(0.5, z, exps), dilate_rows(0.5, z, exps), drifted)
    ok = ok and np.abs(lhs - rhs)[0, :-1].max() >= 1e-3

    worst_k = 0.0
    for _ in range(500):
        z, zeta, g = (_rand_point(rng, kspec.N, 1.0) for _ in range(3))
        d0 = kdist_rows(z, zeta, kspec)[0]
        d1 = kdist_rows(compose_rows(g, z, kspec), compose_rows(g, zeta, kspec), kspec)[0]
        worst_k = max(worst_k, abs(d0 - d1))
    ok = ok and worst_k < 1e-12
    _report(2, "group laws", ok)


def _chapman_kolmogorov_error(ctx, z, zeta, sigma, nodes=30, panels=2):
    """Relative semigroup defect on a composite Gauss-Legendre grid."""
    spec = ctx.spec
    dt2, dt1 = sigma - zeta.t, z.t - sigma
    c2 = spec.E(dt2) @ zeta.x
    s2 = np.sqrt(np.diag(2.0 * covariance(ctx, dt2).C))
    Einv = mat_exp(dt1 * spec.B)
    c1 = Einv @ z.x
    s1 = np.sqrt(np.diag(Einv @ (2.0 * covariance(ctx, dt1).C) @ Einv.T))
    lo = np.minimum(c1 - 8.0 * s1, c2 - 8.0 * s2)
    hi = np.maximum(c1 + 8.0 * s1, c2 + 8.0 * s2)
    base_x, base_w = leggauss(nodes)
    pts1d, wts1d = [], []
    for d in range(spec.N):
        edges = np.linspace(lo[d], hi[d], panels + 1)
        half = np.diff(edges) / 2.0
        mids = (edges[:-1] + edges[1:]) / 2.0
        pts1d.append((mids[:, None] + half[:, None] * base_x[None, :]).ravel())
        wts1d.append((half[:, None] * base_w[None, :]).ravel())
    # the midpoints as one row block at time sigma, in C order
    mids = np.stack([*np.meshgrid(*pts1d, indexing="ij"),
                     np.full((len(pts1d[0]), len(pts1d[1])), sigma)], -1).reshape(-1, 3)
    w = np.multiply.outer(wts1d[0], wts1d[1]).ravel()
    total = float(np.sum(
        w * kernel_jet_rows(spec, np.repeat(z.row(), len(mids), 0), mids, False)
        * kernel_jet_rows(spec, mids, zeta.row(), False)))
    ref = gamma(ctx, z, zeta)
    return abs(total - ref) / ref


def test_criterion_03_kernel(kctx, drifted):
    rng = np.random.default_rng(11)
    ok = True
    for spec in (kctx.spec, drifted):
        rows = [(np.append(rng.uniform(-1.5, 1.5, size=2), rng.uniform(0.2, 2.0)),
                 np.append(rng.uniform(-1, 1, size=2), rng.uniform(-0.5, 0.0)))
                for _ in range(50)]
        residual, Y = pde_residual(spec, *map(np.array, zip(*rows)))
        ok = ok and bool((np.abs(residual) <= 1e-6 * np.maximum(1.0, np.abs(Y))).all())

    ok = ok and abs(gamma(kctx, Point([0.0, 0.0], 1.0), Point([0.0, 0.0], 0.0))
                    - math.sqrt(3.0) / (2.0 * math.pi)) < 1e-10
    ok = ok and abs(kernel_mass(kctx.spec, 0.7) - 1.0) < 1e-5
    ok = ok and abs(kernel_mass(drifted, 1.0)
                    - math.exp(-1.0)) < 1e-5
    for _ in range(10):
        z = np.append(rng.uniform(-1, 1, size=2), rng.uniform(0.2, 1.5))[None]
        r = float(np.exp(rng.uniform(-0.7, 0.7)))
        ok = ok and abs(homogeneity_ratio(kctx.spec, z, r) - 1.0) < 1e-10

    for z, zeta, sigma in [
        (Point([0.3, -0.2], 1.0), Point([0.1, 0.05], 0.0), 0.5),
        (Point([-0.5, 0.4], 0.8), Point([0.2, -0.3], -0.4), 0.1),
    ]:
        ok = ok and _chapman_kolmogorov_error(kctx, z, zeta, sigma) < 1e-4
    _report(3, "kernel identities", ok)


def test_criterion_04_planner(kinetic, drifted, kspec, kappa2):
    # closed-form nilpotent case: s0 = -x, s1 = (-t x - y)^{1/3}
    plan = connect(np.ones(3), np.zeros(3), kinetic)
    ok = plan.achieved_error <= 1e-12
    ok = ok and abs(plan.segments[1].s - (-1.0)) < 1e-14
    ok = ok and abs(plan.segments[2].s + 2.0 ** (1.0 / 3.0)) < 1e-12
    ok = ok and verify_plan(plan, kinetic)["endpoint_error"] <= 1e-12

    # generic drift: bisection against an independent root finder
    plan = connect(np.array([0.0, 2.0, 0.0]), np.zeros(3), drifted)
    s = plan.segments[0].s
    ok = ok and abs(s * (1.0 - math.exp(-s * s)) + 2.0) <= 1e-10
    oracle = brentq(lambda u: u * (1.0 - math.exp(-u * u)) + 2.0, -3.0, -1.0,
                    xtol=1e-13)
    ok = ok and abs(s - oracle) < 1e-6 and abs(s + 2.0326) < 1e-3
    ok = ok and plan.achieved_error <= 1e-9

    rng = np.random.default_rng(12)
    worst = 0.0
    for spec in (kspec, kappa2):
        for _ in range(500):
            z = _rand_point(rng, spec.N, 2.0)[0]
            zeta = _rand_point(rng, spec.N, 2.0)[0]
            worst = max(worst, connect(z, zeta, spec).achieved_error)
    ok = ok and worst <= 1e-12
    _report(4, "flow planner", ok)


def test_criterion_05_taylor(kspec, kappa2, drifted):
    rng = np.random.default_rng(13)
    ok = True
    rhos = [2.0**-k for k in range(3, 10)]
    for spec in (kspec, kappa2):
        z = np.append(np.full(spec.N, 0.05), 0.02)[None]
        direction = np.append(rng.uniform(0.4, 1.0, size=spec.N), 0.8)[None]
        for fam in ("gaussian", "gaussian2"):
            prof = remainder_profile(_FAMILIES[fam](spec), z, direction, rhos, spec)
            ratios = [r for _, r in prof]
            ok = ok and all(a >= 1.5 * b for a, b in zip(ratios, ratios[1:]))

        # intrinsic degree <= 2 polynomials have zero remainder
        bundle = quadratic_bundle(spec, c0=0.4, a=0.6 * np.ones(spec.m),
                                  H=1.1 * np.eye(spec.m), bt=-0.2)
        for _ in range(100):
            za = _rand_point(rng, spec.N)
            zb = _rand_point(rng, spec.N)
            ok = ok and abs(bundle.u(zb) - taylor2(bundle, za, zb, spec))[0] < 1e-13

    # euclidean vs group discrepancy is O(||.||^2) on a generic drift
    exps = drifted.exponents()
    bundle = _FAMILIES["gaussian2"](drifted)
    z = np.array([[0.4, 0.2, 0.1]])
    zeta = compose_rows(z, dilate_rows(rhos, np.repeat([[0.5, 0.7, 0.9]], len(rhos), axis=0),
                                       exps), drifted)
    consts = np.abs(taylor2(bundle, z, zeta, drifted, form="euclidean")
                    - taylor2(bundle, z, zeta, drifted, form="group")) / np.square(rhos)
    ok = ok and math.isfinite(max(consts)) and max(consts) <= 8.0 * min(consts)
    _report(5, "intrinsic Taylor remainder", ok)


def test_criterion_06_dini():
    table = table_from_function(math.sqrt)
    ok = abs(schauder_functional(table, 0.25) - 1.5) <= 0.015

    for a in (0.25, 0.5, 0.75):
        ptab = power_table(a)
        for k in range(1, 11):
            d = 2.0**-k
            ok = ok and holder_closed_form(1.0, a, d) >= schauder_functional(ptab, d)

    cert = counterexample_certificate(seed=0, pair_samples=4000)
    ok = ok and len(cert["decade_growth"]) == 4
    ok = ok and cert["min_growth"] >= 0.2
    f_diag, m_diag = cert["f_diagonal"], cert["mixed_diagonal"]
    ok = ok and all(a > b for a, b in zip(f_diag, f_diag[1:]))
    ok = ok and all(a < b for a, b in zip(m_diag, m_diag[1:]))
    _report(6, "Dini machinery and counterexample", ok)


def test_criterion_07_interior_estimates(kspec):
    rep = verify_apriori(kspec, R_list=(1.0, 0.5, 0.25), poles=20, samples=60)
    ok = rep.verdict and math.isfinite(rep.fitted_constant)
    per = rep.details["per_group"]
    for g in ("grad_alpha1", "grad_alpha3", "second", "Y"):
        vals = [per[R][g] for R in per]
        ok = ok and max(vals) <= 4.0 * min(vals)
    _report(7, "interior derivative estimates", ok)


def test_criterion_08_singular_scalings(kspec):
    ok = True
    for kind, expected in (("const", 1.0), ("g1", 2.0), ("g2", 4.0)):
        rep = verify_singular_bounds(kspec, kind)
        ok = ok and rep.verdict
        for step in rep.ratios:
            ok = ok and expected / 1.5 <= step <= expected * 1.5
    _report(8, "singular integral scalings", ok)


def _scaled_problem(prob, c):
    u = prob.u
    bundle = C2Bundle(
        u=lambda z: c * u.u(z),
        grad_m=lambda z: c * np.asarray(u.grad_m(z)),
        hess_Yu=lambda z: tuple(c * np.asarray(v) for v in u.hess_Yu(z)),
    )
    return ManufacturedProblem(u=bundle, f=lambda z: c * prob.f(z),
                               spec=prob.spec, family_id=prob.family_id)


def test_criterion_09_schauder(kspec):
    ok = True
    for fam in ("gaussian", "gaussian2"):
        prob = manufacture(fam, kspec)
        rep0, rep1 = (verify_schauder(prob, pair_samples=600, seed=s) for s in (0, 1))
        ok = ok and rep0.verdict and rep1.verdict
        lo, hi = sorted([rep0.fitted_constant, rep1.fitted_constant])
        ok = ok and hi <= 2.0 * lo  # seed stability

        scaled = verify_schauder(_scaled_problem(prob, 10.0), pair_samples=600, seed=0)
        ok = ok and abs(scaled.fitted_constant - rep0.fitted_constant) \
            <= 1e-10 * rep0.fitted_constant

        # omega_a = 0 reduces the variable-coefficient path to the constant
        # one: the constant A as a coefficient field with a vanishing modulus
        frozen = dataclasses.replace(prob, varcoeff=lambda Z: kspec.A,
                                     omega_a=ModulusTable(DEFAULT_RADII, 0.0 * DEFAULT_RADII))
        var = verify_schauder(frozen, pair_samples=600, seed=0)
        ok = ok and var.name == "schauder-var" and rep0.name == "schauder-const"
        ok = ok and abs(var.fitted_constant - rep0.fitted_constant) <= 1e-10
    _report(9, "Schauder fitted constants", ok)


def test_criterion_10_invariance(kspec, drifted):
    rep = verify_invariance(kspec, samples=40)
    ok = rep.verdict and rep.details["dilation_checked"]
    ok = ok and rep.scaling["left"] <= 1e-5 and rep.scaling["dilation"] <= 1e-5
    # L is dilation-covariant only for B = B_0: a generic drift checks left invariance alone
    generic = verify_invariance(drifted, samples=5)
    ok = ok and generic.verdict and not generic.details["dilation_checked"]
    _report(10, "invariance identities", ok)
