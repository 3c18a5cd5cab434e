import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from kolmo import (
    KernelContext,
    ManufacturedProblem,
    ModulusTable,
    Point,
    apply_L_fd,
    harmonic_family,
    heat_spec,
    kernel_jet_rows,
    knorm_rows,
    manufacture,
    sample_ball,
    verify_apriori,
    verify_invariance,
    verify_mean_value,
    verify_schauder,
    verify_singular_bounds,
)
from kolmo import verify
from kolmo.errors import (
    AccuracyError,
    DomainError,
    EllipticityError,
    ManufactureError,
)
from kolmo.kernel import covariance
from kolmo.matrixcalc import sqrt_spd, tensor_rule
from kolmo.modulus import DEFAULT_RADII
from kolmo.verify import (
    _FAMILIES,
    FD_STEP,
    _hermite_grid,
    _singular_psi,
    _slice_integrals,
    _stable,
)

from convolution import convolve_solution


# Test-only helpers: the cutoff and finite-difference sups of its
# derivatives, which no command-line path uses.


def cutoff_eta(R, Z, exps):
    """Cutoff eta_R at the rows of Z: 1 inside knorm <= 3R/4, 0 beyond
    knorm >= R, a C^2 quintic ramp between."""
    if not 0.0 < R <= 1.0:
        raise DomainError(f"cutoff radius must lie in (0, 1], got {R}")
    s = np.clip((knorm_rows(Z, exps) - 0.75 * R) / (0.25 * R), 0.0, 1.0)
    return 1.0 - np.float_power(s, 3.0) * (10.0 - 15.0 * s + 6.0 * s * s)


def cutoff_gradient_report(spec, R_list=(1.0, 0.5, 0.25), samples=400, seed=0):
    """FD sup of |d_i eta_R| and second differences across an R sweep.

    Returns per-R tables of sup|d_i eta| * R^{alpha_i} and the pure
    second-difference sup * R^2; the fitted constants should be stable.
    """
    exps = spec.exponents()
    rng = np.random.default_rng(seed)
    N, K = spec.N, samples
    out = {}
    for R in R_list:
        Z = sample_ball(spec, R, samples, rng)
        h = np.array([1e-5 * R**a for a in exps.alpha])
        e = np.zeros((N, N + 1))
        e[:, :N] = np.diag(h)
        eta = cutoff_eta(R, np.vstack([Z] + [Z + ei for ei in e] + [Z - ei for ei in e]),
                         exps).reshape(2 * N + 1, K)
        mid, up, dn = eta[0], eta[1:N + 1], eta[N + 1:]
        first = (np.abs(up - dn) / (2 * h[:, None])).max(axis=1, initial=0.0)
        second = np.abs(up - 2 * mid + dn)[:spec.m] / h[:spec.m, None] ** 2
        out[R] = {
            "first_scaled": [first[i] * R ** exps.alpha[i] for i in range(N)],
            "second_scaled": float(second.max(initial=0.0)) * R**2,
        }
    return out


def test_apply_L_fd_on_monomial(kspec):
    # L x1^2 = 2 a11 = 2 for the kinetic operator (drift term vanishes)
    val = apply_L_fd(kspec, lambda Z: Z[:, 0] ** 2, np.array([[0.3, 0.2, 0.1]]))
    assert val.shape == (1,) and abs(val[0] - 2.0) < 1e-8


def test_apply_L_fd_holds_its_step_halving_to_the_tolerance():
    # u = c x^4 at the origin of the heat operator: the second difference
    # is 2 c h^2 at step h and c h^2 / 2 at h/2, and the extrapolation is
    # about 0, so the steps differ by 1.5 c h^2 against the tolerance 1e-3 * 1
    heat, Z = heat_spec(1), np.zeros((1, 2))
    at_tol = 1e-3 / (1.5 * FD_STEP**2)
    quartic = lambda c: (lambda W: c * W[:, 0] ** 4)
    assert abs(apply_L_fd(heat, quartic(at_tol * (1.0 - 1e-6)), Z)[0]) < 1e-9
    with pytest.raises(AccuracyError, match="did not converge under halving"):
        apply_L_fd(heat, quartic(at_tol * (1.0 + 1e-6)), Z)


def test_stable_scaling_allows_a_factor_of_four():
    # the a priori check's stability test: the largest group value over
    # the radii is at most STABLE_FACTOR = 4 times the smallest
    assert _stable({1.0: 1.0, 0.5: 4.0, 0.25: 2.0})
    assert not _stable({1.0: 1.0, 0.5: math.nextafter(4.0, math.inf)})
    assert _stable({1.0: 0.0, 0.5: 3.0}) and _stable({})


def test_apply_L_fd_kills_kernel(kspec):
    # the stencils of both steps in one kernel_jet_rows call
    p = np.array([[0.1, -0.2, -1.0]])
    z = np.array([[0.3, 0.4, 0.2]])
    val = apply_L_fd(kspec, lambda W: kernel_jet_rows(kspec, W, p,
                                                          derivatives=False), z)
    assert abs(val[0]) < 1e-6


def test_apply_L_fd_on_an_empty_block(kspec, drifted):
    # no rows give no values, as kernel_jet_rows gives on an empty block
    # (the stencil's reshape raised a bare ValueError)
    Z, p = np.empty((0, 3)), np.array([[0.1, -0.2, -1.0]])
    kernel_u = lambda W: kernel_jet_rows(kspec, W, p, derivatives=False)
    problem = manufacture("gaussian", drifted, "sin1")
    assert kernel_u(Z).shape == (0,)
    for spec, u, varcoeff in ((kspec, kernel_u, None), (drifted, lambda W: W[:, 0] ** 2, None),
                              (drifted, problem.u.u, problem.varcoeff)):
        val = apply_L_fd(spec, u, Z, varcoeff=varcoeff)
        assert val.shape == (0,) and val.dtype == float


def test_manufacture_families(kspec, drifted):
    for spec in (kspec, drifted):
        for fam in sorted(_FAMILIES):
            prob = manufacture(fam, spec)
            assert prob.details["fd_validation_worst"] < 1e-6
    with pytest.raises(DomainError):
        manufacture("nope", kspec)


def test_manufacture_varcoeff(kspec):
    prob = manufacture("gaussian", kspec, varcoeff_id="sin1")
    assert prob.varcoeff is not None and prob.omega_a is not None
    z = np.array([[0.5, 0.0, 0.0]])
    assert abs(prob.varcoeff(z)[0, 0, 0] - (1.0 + 0.25 * math.sin(0.5))) < 1e-14
    with pytest.raises(DomainError):
        manufacture("gaussian", kspec, varcoeff_id="sin9")


def test_cutoff_profile(kspec):
    exps = kspec.exponents()
    # the origin, inside 3R/4, beyond R, and on the ramp
    eta = cutoff_eta(0.5, np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0],
                                    [0.6, 0.0, 0.0], [0.45, 0.0, 0.0]]), exps)
    assert eta[0] == 1.0 and eta[1] == 1.0 and eta[2] == 0.0
    assert 0.0 < eta[3] < 1.0
    with pytest.raises(DomainError):
        cutoff_eta(2.0, np.zeros((1, 3)), exps)


def test_cutoff_gradient_scaling_stable(kspec):
    out = cutoff_gradient_report(kspec, samples=150)
    for i in range(kspec.N):
        vals = [out[R]["first_scaled"][i] for R in out]
        assert max(vals) <= 4.0 * min(vals)


def test_harmonic_family_poles_below_cylinder(kspec):
    rng = np.random.default_rng(0)
    for R in (1.0, 0.25):
        P = harmonic_family(kspec, R, 10, rng)
        assert P.shape == (10, 3)
        assert ((-3.0 * R * R <= P[:, -1]) & (P[:, -1] <= -2.0 * R * R)).all()


def test_convolution_duhamel_time_only(heat):
    # f = f(tau) only: u(z) = -int_{t_lo}^{t} f, since the mass is 1
    z = np.array([[0.2, 0.5]])
    val = convolve_solution(heat, lambda Z: np.cos(Z[:, -1]), z, t_lo=-0.5)
    assert abs(val - (-(math.sin(0.5) - math.sin(-0.5)))) < 1e-9


def test_convolution_reconstructs_manufactured(kspec):
    # narrow-in-time solution: u(., t_lo) ~ 1e-19, so u = -Gamma * f
    prob = manufacture("gaussian-narrow", kspec)
    z = np.zeros((1, 3))
    val = convolve_solution(kspec, prob.f, z, t_lo=-1.0)
    assert abs(val - prob.u.u(z)[0]) < 1e-5


def test_verify_apriori(kspec):
    rep = verify_apriori(kspec, poles=8, samples=25)
    assert rep.verdict and math.isfinite(rep.fitted_constant)
    for cell in rep.details["per_group"].values():
        assert set(cell) == {"grad_alpha1", "grad_alpha3", "second", "Y"}


def test_verify_mean_value(kspec):
    rep = verify_mean_value(kspec, poles=8, samples=40)
    assert rep.verdict and 0.0 < rep.fitted_constant < 10.0


def test_verify_singular_bounds_const(kspec, monkeypatch):
    monkeypatch.setattr(verify, "SINGULAR_SAMPLES", 3)
    rep = verify_singular_bounds(kspec, "const")
    assert rep.verdict
    assert rep.details["expected_dyadic_step"] == 1.0
    with pytest.raises(DomainError):
        verify_singular_bounds(kspec, "g3")


def _psi_at_point(kind, R, exps):
    """The scalar psi: the scale-R bump times g at one Point."""
    def psi(zeta):
        v = zeta.t / R**2
        q = v * v
        for xi, a in zip(zeta.x, exps.alpha):
            v = xi / R**a
            q += v * v
        x0 = float(zeta.x[0])
        return math.exp(-q) * {"const": 1.0, "g1": x0, "g2": x0 * x0}[kind]
    return psi


def _d2_slice_by_points(ctx, kind, R, z, tau, i, j, h, nodes_x):
    """One slice of _slice_integrals the per-Point way: the Hermite grid rebuilt for the
    slice, then one Point and one scalar bump * g per node and offset.  Returns
    the centre integral and d2_ij."""
    spec = ctx.spec
    dt = z.t - tau
    S = sqrt_spd(2.0 * covariance(ctx, dt).C)
    Y, W = tensor_rule([hermgauss(nodes_x)] * spec.N)
    M = spec.E(-dt)
    pts = (z.x[None, :] - (math.sqrt(2.0) * (Y @ S.T))) @ M.T
    psi = _psi_at_point(kind, R, spec.exponents())

    def vals(offset):
        return np.array([psi(Point(p + offset, tau)) for p in pts])

    di, dj = h * M[:, i], h * M[:, j]
    centre = vals(np.zeros(spec.N))
    if i == j:
        dd = (vals(di) - 2.0 * centre + vals(-di)) / h**2
    else:
        dd = (
            vals(di + dj) - vals(di - dj) - vals(-di + dj) + vals(-di - dj)
        ) / (4.0 * h**2)
    norm = math.pi ** (spec.N / 2.0)
    return float(centre @ W) / norm, float(dd @ W) / norm


@pytest.mark.parametrize("which", ["kolmogorov", "drifted", "heat2"])
def test_d2_slice_matches_per_point_route(which, kspec, drifted):
    spec = {"kolmogorov": kspec, "drifted": drifted, "heat2": heat_spec(2)}[which]
    ctx = KernelContext(spec)
    exps = spec.exponents()
    R, h = 0.5, 1e-3
    z = Point(0.1 * np.arange(1, spec.N + 1), 0.1)
    X = np.random.default_rng(0).uniform(-R, R, (3000, spec.N))
    for kind in ("const", "g1", "g2"):
        psi = _singular_psi(kind, R, exps)
        one = _psi_at_point(kind, R, exps)
        assert np.array_equal(psi(X.T, -0.1), [one(Point(x, -0.1)) for x in X])
        # both slices and every (i, j) in one call
        taus = [z.t - 0.2, z.t - 1e-3]
        pairs = [(i, j) for i in range(spec.m) for j in range(i, spec.m)]
        got = _slice_integrals(spec, psi, np.repeat(z.row(), 2, axis=0), np.array(taus),
                               pairs, h, 12)
        for s, tau in enumerate(taus):
            for p, (i, j) in enumerate(pairs, 1):
                centre, d2 = _d2_slice_by_points(ctx, kind, R, z, tau, i, j, h, 12)
                assert got[s, 0] == centre, (kind, tau)
                assert got[s, p] == d2, (kind, tau, i, j)


def test_d2_slice_rejects_non_finite_grid(kspec):
    psi = _singular_psi("g1", 0.5, kspec.exponents())
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="grid"):
        _slice_integrals(kspec, psi, np.array([[0.1, 0.2, 0.1]]), np.array([0.0]),
                         [(0, 0)], math.inf, 12)


def test_hermite_grid_is_cached_and_read_only():
    Y, W = _hermite_grid(12, 2)
    assert _hermite_grid(12, 2)[0] is Y
    assert Y.shape == (144, 2) and W.shape == (144,)
    with pytest.raises(ValueError):
        Y[0, 0] = 1.0
    with pytest.raises(ValueError):
        W[0] = 1.0


def test_schauder_const_report(kspec):
    prob = manufacture("gaussian", kspec)
    rep = verify_schauder(prob, pair_samples=400)
    assert rep.verdict and math.isfinite(rep.fitted_constant)
    assert rep.samples > 100
    assert "ratio" in rep.to_json_dict()["ratios_csv"]


def test_schauder_var_matches_const_without_coefficients(kspec):
    prob = manufacture("gaussian2", kspec)
    a = verify_schauder(prob, pair_samples=300)
    assert a.name == "schauder-const"
    # the constant A as a coefficient field with a vanishing modulus
    frozen = dataclasses.replace(prob, varcoeff=lambda Z: kspec.A,
                                 omega_a=ModulusTable(DEFAULT_RADII, 0.0 * DEFAULT_RADII))
    b = verify_schauder(frozen, pair_samples=300)
    assert b.name == "schauder-var"
    assert abs(a.fitted_constant - b.fitted_constant) <= 1e-10


def test_schauder_var_with_coefficients(kspec):
    prob = manufacture("gaussian", kspec, varcoeff_id="sin1x2")
    rep = verify_schauder(prob, pair_samples=300)
    assert rep.name == "schauder-var"
    assert rep.verdict and rep.details["eta_sup"] > 0.0


def test_ellipticity_loss_detected(kspec):
    prob = manufacture("gaussian", kspec)
    bad = ManufacturedProblem(
        u=prob.u, f=prob.f, spec=prob.spec,
        varcoeff=lambda z: np.array([[-1.0]]),
        omega_a=prob.omega_a, family_id=prob.family_id,
    )
    with pytest.raises(EllipticityError):
        verify_schauder(bad, pair_samples=300)


def test_invariance_principal(kspec):
    rep = verify_invariance(kspec, samples=15)
    assert rep.verdict
    assert rep.details["dilation_checked"]
    assert rep.scaling["left"] < 1e-5 and rep.scaling["dilation"] < 1e-5


def test_invariance_generic_drift(drifted):
    rep = verify_invariance(drifted, samples=15)
    assert rep.verdict and not rep.details["dilation_checked"]
    assert rep.scaling["dilation"] == 0.0


def test_invariance_tolerance_decides_the_verdict(kspec, monkeypatch):
    # the left-invariance side shifted to just inside and just outside
    # INVARIANCE_TOL, pinned at 1e-5; the real discrepancy on kspec is
    # below 1e-6
    real = verify.apply_L_fd
    for delta, verdict in ((1e-5 - 1e-6, True), (1e-5 + 1e-6, False)):
        calls = []

        def shifted(spec, u, Z, varcoeff=None):
            calls.append(u)
            return real(spec, u, Z, varcoeff) + (delta if len(calls) == 1 else 0.0)

        monkeypatch.setattr(verify, "apply_L_fd", shifted)
        rep = verify_invariance(kspec, samples=15)
        assert abs(rep.scaling["left"] - delta) < 1e-6
        assert rep.verdict == verdict and rep.scaling["dilation"] < 1e-6


def test_a_nan_fails_the_fd_and_manufacture_checks(kspec, monkeypatch):
    # u is NaN at the stencil point Z + h e_1 alone: the unhalved
    # quotient is NaN, which no tolerance test may pass
    u = lambda W: np.where(W[:, 0] > 0.1 + 0.75 * FD_STEP, np.nan, W[:, 0] ** 2)
    with pytest.raises(AccuracyError):
        apply_L_fd(kspec, u, [[0.1, 0.2, 0.3]])
    # finite u, and a right-hand side f = L u that is NaN on one row
    bundle = _FAMILIES["gaussian"](kspec)

    def hess_Yu(Z):
        H, Yu = bundle.hess_Yu(Z)
        Yu[0] = np.nan
        return H, Yu

    nan_f = dataclasses.replace(bundle, hess_Yu=hess_Yu)
    monkeypatch.setitem(_FAMILIES, "nan-f", lambda spec: nan_f)
    with pytest.raises(ManufactureError):
        manufacture("nan-f", kspec)
