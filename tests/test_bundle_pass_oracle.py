"""The one-pass Schauder route against the per-block route it replaced.

The oracle routes below call the bundle once per row block, as kolmo
did before C2Bundle.hess_Yu: the Hessian and Yu each come from their
own evaluation of u (here one hess_Yu call for each, taking one half),
the check calls the bundle once per block, empirical_modulus calls f on the z and
on the zeta rows apart, and the FD operator calls u once per Richardson
step.  Every field and closure is row-wise, so stacking the blocks into
one call must move no value: every EstimateReport field and every
apply_L_fd value is == the oracle's, and a report that raises in the
oracle raises the same type with the same message.

The second oracle, verify_schauder_two_pass_oracle, is the check as it
stood before its one evaluation pass: empirical_modulus calls f and
kdist_rows on its pairs apart from the report's blocks, kdist_rows runs
again on the interior pairs, each coefficient table has its own
schauder_functional_rows call and the Dini value comes from the full
dini_integral.  The one pass must equal it in the same way.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmo import (
    AccuracyError,
    DomainError,
    EllipticityError,
    ManufactureError,
    ManufacturedProblem,
    apply_L_fd,
    dini_integral,
    empirical_modulus,
    kdist_rows,
    manufacture,
    sample_ball,
    table_from_function,
    verify_schauder,
)
from kolmo.group import finite_rows
from kolmo.modulus import DEFAULT_RADII, ModulusTable, _scaled_pairs, pair_omega
from kolmo.modulus import schauder_functional_rows
from kolmo.taylor import RICHARDSON_TOL, C2Bundle, flow_Y_rows
from kolmo.verify import FD_STEP, _FAMILIES, EstimateReport, _check_ellipticity, _coeff_field

from test_rows import BLOCKS, admissible_spec, random_rows

FAMILIES = sorted(_FAMILIES)
VARCOEFFS = (None, "sin1", "sin1x2")
CLI_ERRSTATE = dict(over="raise", divide="raise", invalid="raise")
SPECS = st.builds(admissible_spec, st.sampled_from(BLOCKS),
                  st.integers(0, 2**32 - 1), st.booleans())


# ---------------------------------------------------------------------------
# The per-block routes.


def richardson_oracle(once, h, message):
    if h <= 0.0:
        raise DomainError("step must be positive")
    d1, d2 = once(h), once(h / 2.0)
    extrap = (4.0 * d2 - d1) / 3.0
    if (np.abs(d2 - d1) > RICHARDSON_TOL * np.maximum(1.0, np.abs(extrap))).any():
        raise AccuracyError(message)
    return extrap


def L_fd_once_oracle(spec, u, Z, h, varcoeff):
    m = spec.m
    A = spec.A if varcoeff is None else varcoeff(Z)
    e = h * np.eye(spec.N + 1)
    stencil = [Z]
    for i in range(m):
        stencil += [Z + e[i], Z - e[i]]
        for j in range(i + 1, m):
            stencil += [Z + e[i] + e[j], Z + e[i] - e[j], Z - e[i] + e[j], Z - e[i] - e[j]]
    stencil += [flow_Y_rows(h, Z, spec), flow_Y_rows(-h, Z, spec)]
    vals = iter(u(np.concatenate(stencil)).reshape(-1, len(Z)))
    u0 = next(vals)
    acc = 0.0
    for i in range(m):
        plus, minus = next(vals), next(vals)
        acc += A[..., i, i] * (plus - 2.0 * u0 + minus) / h**2
        for j in range(i + 1, m):
            pp, pm, mp, mm = (next(vals) for _ in range(4))
            acc += 2.0 * A[..., i, j] * ((pp - pm - mp + mm) / (4.0 * h**2))
    fwd, bwd = next(vals), next(vals)
    return acc + (fwd - bwd) / (2.0 * h)


def apply_L_fd_oracle(spec, u, Z, varcoeff=None):
    Z = finite_rows(Z)
    return richardson_oracle(lambda step: L_fd_once_oracle(spec, u, Z, step, varcoeff),
                             FD_STEP, "operator differencing did not converge under halving")


def manufacture_oracle(family_id, spec, varcoeff_id=None, seed=0):
    bundle = _FAMILIES[family_id](spec)
    a_field, omega_a = _coeff_field(varcoeff_id, spec)

    def f(Z):
        A = spec.A if a_field is None else a_field(Z)
        return np.sum(A * bundle.hess_Yu(Z)[0], axis=(1, 2)) + bundle.hess_Yu(Z)[1]

    Z = sample_ball(spec, 1.0, 30, np.random.default_rng(seed))
    worst = float(np.abs(apply_L_fd_oracle(spec, bundle.u, Z, varcoeff=a_field)
                         - f(Z)).max(initial=0.0))
    if worst > 1e-6:
        raise ManufactureError(f"analytic f disagrees with the FD operator by {worst:g}")
    return ManufacturedProblem(
        u=bundle, f=f, spec=spec, varcoeff=a_field, omega_a=omega_a,
        family_id=family_id, details={"fd_validation_worst": worst},
    )


def empirical_modulus_oracle(f, spec, radius=1.0, pair_samples=4000, seed=0):
    if radius <= 0.0:
        raise DomainError("domain radius must be positive")
    if pair_samples < 1000:
        raise DomainError("need at least 1000 pair samples")
    rng = np.random.default_rng(seed)
    pairs = _scaled_pairs(spec, radius, pair_samples, rng, DEFAULT_RADII[0])
    Z, W = pairs[:, 0], pairs[:, 1]
    jumps = np.abs(f(Z) - f(W))
    return ModulusTable(DEFAULT_RADII, pair_omega(kdist_rows(Z, W, spec), jumps, DEFAULT_RADII))


def second_derivative_values_oracle(problem, Z):
    H = problem.u.hess_Yu(Z)[0]
    i, j = np.triu_indices(H.shape[-1])
    return np.column_stack([H[:, i, j], problem.u.hess_Yu(Z)[1]])


def verify_schauder_oracle(problem, pair_samples=1000, seed=0):
    """The per-block check, returning its report's fields as a dict."""
    name = "schauder-var" if problem.varcoeff is not None else "schauder-const"
    spec = problem.spec
    rng = np.random.default_rng(seed)
    omega_f = empirical_modulus_oracle(problem.f, spec, radius=1.0,
                                       pair_samples=max(1000, pair_samples),
                                       seed=seed + 1)
    sup_u = np.abs(problem.u.u(sample_ball(spec, 1.0, 800, rng))).max()
    sup_f = np.abs(problem.f(sample_ball(spec, 1.0, 800, rng))).max()
    interior = sample_ball(spec, 0.25, pair_samples * 2, rng)
    _check_ellipticity(problem, interior[:200])
    eta_sup = 0.0
    if problem.omega_a is not None:
        eta_sup = np.abs(second_derivative_values_oracle(
            problem, sample_ball(spec, 1.0, 400, rng))[:, :-1]).max()
    origin_row = np.zeros((1, spec.N + 1))
    lhs0 = np.abs(second_derivative_values_oracle(problem, origin_row)).max()
    dini_f = dini_integral(omega_f).value
    rhs0 = sup_u + abs(problem.f(origin_row)[0]) + dini_f
    point_ratio = lhs0 / rhs0 if rhs0 > 0.0 else 0.0
    Z, W = interior[0::2], interior[1::2]
    dists = kdist_rows(Z, W, spec)
    lhs = np.abs(second_derivative_values_oracle(problem, Z)
                 - second_derivative_values_oracle(problem, W)).max(axis=1)
    keep = ~((dists < omega_f.radii[0]) | (dists >= 1.0))
    d = dists[keep]
    rhs = d * sup_u + d * sup_f + schauder_functional_rows(omega_f, d)
    if problem.omega_a is not None:
        rhs = rhs + schauder_functional_rows(problem.omega_a, d) * eta_sup
    live = rhs > 0.0
    ratios = (lhs[keep][live] / rhs[live]).tolist()
    fitted = max(ratios + [point_ratio]) if (ratios or point_ratio) else 0.0
    return {
        "name": name, "seed": seed, "samples": len(ratios), "fitted_constant": fitted,
        "scaling": {"point": point_ratio, "pairs": max(ratios) if ratios else 0.0},
        "ratios": ratios, "verdict": math.isfinite(fitted),
        "details": {"sup_u": sup_u, "sup_f": sup_f, "dini_f": dini_f,
                    "eta_sup": eta_sup, "family": problem.family_id},
    }


def verify_schauder_two_pass_oracle(problem, pair_samples=1000, seed=0):
    """The route before the one pass: empirical_modulus, two kdist_rows
    calls, one functional call per table and the full dini_integral."""
    name = "schauder-var" if problem.varcoeff is not None else "schauder-const"
    spec = problem.spec
    rng = np.random.default_rng(seed)
    omega_f = empirical_modulus(problem.f, spec, radius=1.0,
                                pair_samples=max(1000, pair_samples),
                                seed=seed + 1)
    u_rows, f_rows = (sample_ball(spec, 1.0, 800, rng) for _ in range(2))
    interior = sample_ball(spec, 0.25, pair_samples * 2, rng)
    eta_rows = (np.empty((0, spec.N + 1)) if problem.omega_a is None
                else sample_ball(spec, 1.0, 400, rng))
    origin_row = np.zeros((1, spec.N + 1))
    sup_u = np.abs(problem.u.u(u_rows)).max()
    f_vals = problem.f(np.concatenate([f_rows, origin_row]))
    sup_f = np.abs(f_vals[:-1]).max()
    _check_ellipticity(problem, interior[:200])
    Z, W = interior[0::2], interior[1::2]
    H, Yu = problem.u.hess_Yu(np.concatenate([eta_rows, origin_row, Z, W]))
    i, j = np.triu_indices(H.shape[-1])
    eta, at_0, at_Z, at_W = np.split(np.column_stack([H[:, i, j], Yu]),
                                     np.cumsum([len(eta_rows), 1, len(Z)]))
    eta_sup = 0.0 if problem.omega_a is None else np.abs(eta[:, :-1]).max()

    # pointwise bound at the origin
    lhs0 = np.abs(at_0).max()
    dini_f = dini_integral(omega_f).value
    rhs0 = sup_u + abs(f_vals[-1]) + dini_f
    point_ratio = lhs0 / rhs0 if rhs0 > 0.0 else 0.0

    dists = kdist_rows(Z, W, spec)
    lhs = np.abs(at_Z - at_W).max(axis=1)
    # a NaN distance is kept, so that the functional rejects it
    keep = ~((dists < omega_f.radii[0]) | (dists >= 1.0))
    d = dists[keep]
    rhs = d * sup_u + d * sup_f + schauder_functional_rows(omega_f, d)
    if problem.omega_a is not None:
        rhs = rhs + schauder_functional_rows(problem.omega_a, d) * eta_sup
    live = rhs > 0.0
    ratios = (lhs[keep][live] / rhs[live]).tolist()
    fitted = max(ratios + [point_ratio]) if (ratios or point_ratio) else 0.0
    return EstimateReport(
        name=name,
        seed=seed,
        samples=len(ratios),
        fitted_constant=fitted,
        scaling={"point": point_ratio, "pairs": max(ratios) if ratios else 0.0},
        ratios=ratios,
        verdict=math.isfinite(fitted),
        details={
            "sup_u": sup_u,
            "sup_f": sup_f,
            "dini_f": dini_f,
            "eta_sup": eta_sup,
            "family": problem.family_id,
        },
    )


# ---------------------------------------------------------------------------
# One pass == per block.


def outcome(call):
    """("ok", value) or ("raised", type, message), under the command
    line's raising error state."""
    try:
        with np.errstate(**CLI_ERRSTATE):
            return ("ok", call())
    except Exception as err:  # the oracle's error is the expectation
        return ("raised", type(err), str(err))


def report_fields(report):
    return {key: getattr(report, key) for key in (
        "name", "seed", "samples", "fitted_constant", "scaling", "ratios",
        "verdict", "details")}


def oracle_outcomes(problem, oracle_problem, pairs, seed):
    """The per-block route's outcome and that of the two-pass route."""
    return (outcome(lambda: verify_schauder_oracle(oracle_problem, pairs, seed)),
            outcome(lambda: report_fields(verify_schauder_two_pass_oracle(problem, pairs, seed))))


def assert_same_report(problem, oracle_problem, pairs, seed):
    got = outcome(lambda: report_fields(verify_schauder(problem, pairs, seed)))
    for want in oracle_outcomes(problem, oracle_problem, pairs, seed):
        assert got[0] == want[0], (got, want)
        if got[0] == "raised":
            assert got == want
            continue
        for key in want[1]:
            assert got[1][key] == want[1][key], key
            assert type(got[1][key]) is type(want[1][key]), key
        for part in ("scaling", "details"):
            for key in want[1][part]:
                assert type(got[1][part][key]) is type(want[1][part][key]), (part, key)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(SPECS, st.sampled_from(FAMILIES), st.sampled_from(VARCOEFFS),
       st.integers(0, 2**16), st.sampled_from([1, 40, 300]))
def test_the_report_equals_the_per_block_route(spec, family, varcoeff, seed, pairs):
    made = outcome(lambda: manufacture(family, spec, varcoeff_id=varcoeff, seed=seed))
    oracle = outcome(lambda: manufacture_oracle(family, spec, varcoeff_id=varcoeff, seed=seed))
    assert made[0] == oracle[0]
    if made[0] == "raised":
        assert made == oracle
        return
    problem, oracle_problem = made[1], oracle[1]
    assert problem.details == oracle_problem.details
    assert_same_report(problem, oracle_problem, pairs, seed)


def test_coefficient_tables_equal_the_scalar_route(kspec):
    # the table of each family, once tabulated by one scalar call per radius
    for varcoeff, amp in (("sin1", 0.25), ("sin1x2", 0.5)):
        want = table_from_function(lambda r: amp * min(2.0, r))
        assert _coeff_field(varcoeff, kspec)[1].omega.tolist() == want.omega.tolist()


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(SPECS, st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1))
def test_apply_L_fd_equals_one_call_per_step(spec, family, seed):
    rng = np.random.default_rng(seed)
    Z = 0.5 * random_rows(spec, rng)
    u = _FAMILIES[family](spec).u
    for varcoeff in VARCOEFFS:
        a_field = _coeff_field(varcoeff, spec)[0]
        want = outcome(lambda: apply_L_fd_oracle(spec, u, Z, varcoeff=a_field))
        got = outcome(lambda: apply_L_fd(spec, u, Z, varcoeff=a_field))
        if want[0] == "ok":
            assert got[0] == "ok" and got[1].tolist() == want[1].tolist()
        else:
            assert got == want


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(SPECS, st.integers(0, 2**32 - 1))
def test_empirical_modulus_equals_two_calls(spec, seed):
    exps = spec.exponents()
    for f in (lambda Z: np.sin(3.0 * Z[:, 0]) * Z[:, -1],
              lambda Z: np.abs(Z[:, -2]) ** (1.0 / exps.alpha[-1])):
        got = empirical_modulus(f, spec, radius=0.7, pair_samples=1000, seed=seed)
        want = empirical_modulus_oracle(f, spec, radius=0.7, pair_samples=1000, seed=seed)
        assert got.omega.tolist() == want.omega.tolist()


def test_a_failing_richardson_check_is_the_same_error(kspec):
    # u = |x_1| differenced across its kink: 2/h at step h, 4/h at h/2
    Z = np.array([[0.0, 0.1, 0.2], [0.3, 0.0, 0.1]])
    kink = lambda W: np.abs(W[:, 0])
    want = outcome(lambda: apply_L_fd_oracle(kspec, kink, Z))
    assert want[0] == "raised" and want[1] is AccuracyError
    assert outcome(lambda: apply_L_fd(kspec, kink, Z)) == want


def raising_bundle(bundle):
    """The bundle with every second-order field raising: a call of any of
    them in the bundle pass would surface as this error."""
    def refuse(Z):
        raise RuntimeError("second-order field called")
    return C2Bundle(u=bundle.u, grad_m=bundle.grad_m, hess_Yu=refuse)


@pytest.mark.parametrize("family", ["gaussian", "quadratic"])
def test_lost_ellipticity_comes_before_the_bundle_pass(kspec, family):
    # as in the per-block route, the ellipticity check runs before any
    # second-order value is asked for, so its error is the report's
    prob = manufacture(family, kspec)
    bad = ManufacturedProblem(
        u=raising_bundle(prob.u), f=prob.f, spec=prob.spec,
        varcoeff=lambda z: np.array([[-1.0]]),
        omega_a=prob.omega_a, family_id=prob.family_id,
    )
    want = outcome(lambda: verify_schauder_oracle(bad, 300))
    assert want[0] == "raised" and want[1] is EllipticityError
    assert oracle_outcomes(bad, bad, 300, 0) == (want, want)
    assert outcome(lambda: verify_schauder(bad, 300)) == want


def test_an_unusable_problem_raises_as_the_per_block_route(kspec):
    # an f that overflows: the same FloatingPointError, from the same op
    prob = manufacture("gaussian", kspec)
    bad = ManufacturedProblem(u=prob.u, f=lambda Z: 1e300 * prob.f(Z) * 1e300,
                              spec=kspec, family_id="gaussian")
    want = outcome(lambda: verify_schauder_oracle(bad, 300))
    assert want[0] == "raised" and want[1] is FloatingPointError
    assert oracle_outcomes(bad, bad, 300, 0) == (want, want)
    assert outcome(lambda: verify_schauder(bad, 300)) == want
