import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from kolmo import (
    Point,
    connect,
    endpoint_error,
    flow_X,
    flow_Y,
    gamma_traj,
    gaussian_bundle,
    quadratic_bundle,
    remainder_profile,
    taylor2,
    verify_plan,
)
from kolmo import taylor
from kolmo.errors import DomainError, KolmoError, NonConvergenceError, PlanIntegrityError
from kolmo.group import OperatorSpec, compose_rows, dilate_rows, finite_rows, sample_ball
from kolmo.taylor import PathSegment, traj_increment_rows
from kolmo.verify import apply_L_fd

from test_rows import PROPERTY, coordinate_bundle, lie_derivative_fd, specs


def validate_bundle(bundle, spec, Z):
    """FD cross-check (step 1e-5) of a bundle's derivatives at the rows of Z.

    Returns the worst relative mismatch of grad_m and Yu; raises
    AccuracyError when the drift difference fails its Richardson check.
    """
    Z = finite_rows(Z)
    m, h = spec.m, 1e-5
    e = h * np.eye(spec.N + 1)[:m]
    scale = np.maximum(1.0, np.abs(bundle.u(Z)))
    plus, minus = bundle.u(np.vstack([Z + ei for ei in e] + [Z - ei for ei in e])
                           ).reshape(2, m, len(Z))
    fd = (plus - minus) / (2 * h)
    worst = np.abs(fd - bundle.grad_m(Z).T) / scale
    fd_Y = lie_derivative_fd(bundle.u, Z, spec)
    return float(max(worst.max(initial=0.0),
                     (np.abs(fd_Y - bundle.hess_Yu(Z)[1]) / scale).max(initial=0.0)))


def test_flows_closed_forms(kinetic):
    moved = flow_X([1.0, 0.0], -0.5, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(moved, [0.5, 2.0, 3.0])
    # exp(sB) = I + sB for the nilpotent kinetic drift
    arc = flow_Y(2.0, Point([1.0, 2.0], 3.0), kinetic)
    assert np.abs(arc.x - np.array([1.0, 4.0])).max() < 1e-14
    assert arc.t == 1.0


def test_gamma_traj_level1_closed_forms(kinetic, drifted):
    # nilpotent drift: gamma^(1) moves the second level by exactly s^3
    for s in (0.7, -1.3):
        end, trace = gamma_traj(1, np.array([1.0, 0.0]), s, np.array([0.0, 5.0, 0.0]),
                                kinetic)
        assert len(trace) == 4
        assert np.abs(end[:-1] - np.array([0.0, 5.0 + s**3])).max() < 1e-12
        assert end[-1] == 0.0
    # generic drift: displacement s(1 - e^{-s^2}) in both coordinates
    for s in (0.9, -1.1):
        end, _ = gamma_traj(1, np.array([1.0, 0.0]), s, np.array([0.0, 4.0, 0.0]),
                            drifted)
        d = s * (1.0 - np.exp(-s * s))
        assert np.abs(end[:-1] - np.array([d, 4.0 + d])).max() < 1e-12


def test_traj_increment_matches_execution(kinetic, drifted, kappa2):
    rng = np.random.default_rng(0)
    for spec in (kinetic, drifted, kappa2):
        for _ in range(20):
            n = int(rng.integers(0, spec.kappa + 1))
            v = np.zeros(spec.N)
            v[: spec.m] = rng.standard_normal(spec.m)
            s = rng.uniform(-1.2, 1.2)
            z = np.append(rng.uniform(-1, 1, size=spec.N), rng.uniform(-1, 1))
            end, _ = gamma_traj(n, v, s, z, spec)
            assert np.abs((end - z)[:-1] - traj_increment_rows(n, v, [s], spec)[0]).max() < 1e-12
            assert abs(end[-1] - z[-1]) < 1e-14


def recursive_traj_increment(n, v, s, spec):
    """traj_increment_rows at one s in its doubly recursive form, 2^(n+1) - 1 calls."""
    v = np.asarray(v, dtype=float)
    if n == 0:
        return s * v
    d = recursive_traj_increment(n - 1, v, s, spec)
    return d + spec.E(s * s) @ recursive_traj_increment(n - 1, v, -s, spec)


def _outcome(f):
    """f's value, or the type of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            return f()
    except KolmoError as err:
        return type(err)


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1))
def test_traj_increment_equals_the_recursion(spec, seed):
    # every row of a stacked call == the recursion at its own s, on every
    # level, for both signs and |s| from 1e-4 to 9, and at |s| = 40, where
    # E(s^2) of most non-principal specs overflows: then its K = 1 call
    # raises the recursion's error, and so does a stacked call holding it
    rng = np.random.default_rng(seed)
    for n in range(spec.kappa + 1):
        v = np.zeros(spec.N)
        v[: spec.m] = rng.standard_normal(spec.m)
        s = rng.choice([-1.0, 1.0], 8) * 10.0 ** rng.uniform(-4.0, np.log10(9.0), 8)
        s[:3] = [-9.0, 1e-4, 40.0]
        want = [_outcome(lambda: recursive_traj_increment(n, v, x, spec)) for x in s]
        fails = [isinstance(w, type) for w in want]
        for x, w, fail in zip(s, want, fails):
            got = _outcome(lambda: traj_increment_rows(n, v, [x], spec)[0])
            assert got is w if fail else np.array_equal(got, w, equal_nan=True)
        ok = ~np.array(fails)
        rows = _outcome(lambda: traj_increment_rows(n, v, s[ok], spec))
        assert np.array_equal(rows, [w for w, fail in zip(want, fails) if not fail],
                              equal_nan=True)
        if any(fails):
            stacked = _outcome(lambda: traj_increment_rows(n, v, s, spec))
            assert stacked is next(w for w, fail in zip(want, fails) if fail)


def test_traj_increment_preserves_lower_levels(kappa2):
    # principal drift: gamma^(n) leaves levels below n untouched
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 3))
        v = np.zeros(3)
        v[0] = rng.standard_normal()
        s = rng.uniform(-1.5, 1.5)
        d = traj_increment_rows(n, v, [s], kappa2)[0]
        assert np.abs(d[:n]).max() < 1e-12 * max(1.0, np.abs(d).max())
        # and moves level n by exactly s^{2n+1} B^n v
        want = s ** (2 * n + 1) * (np.linalg.matrix_power(kappa2.B, n) @ v)
        assert abs(d[n] - want[n]) < 1e-12 * max(1.0, abs(want[n]))


def test_connect_example_nilpotent(kinetic):
    # closed form: s0 = -x, s1 = (-t x - y)^{1/3}
    plan = connect(np.ones(3), np.zeros(3), kinetic)
    assert plan.achieved_error <= 1e-12
    kinds = [seg.kind for seg in plan.segments]
    assert kinds == ["Y", "X", "X", "Y", "X", "Y"]
    assert abs(plan.segments[0].s - 1.0) < 1e-14  # time match
    assert abs(plan.segments[1].s - (-1.0)) < 1e-14  # s0 = -x
    s1 = plan.segments[2].s
    assert abs(s1 + 2.0 ** (1.0 / 3.0)) < 1e-12  # s1 = (-2)^{1/3}
    check = verify_plan(plan, kinetic)
    assert check["ok"] and check["endpoint_error"] <= 1e-12


def test_connect_example_generic_drift(drifted):
    # level equation s (1 - e^{-s^2}) = -2, bisection against brentq
    plan = connect(np.array([0.0, 2.0, 0.0]), np.zeros(3), drifted)
    assert plan.achieved_error <= 1e-9
    s = plan.segments[0].s
    assert abs(s * (1.0 - np.exp(-s * s)) + 2.0) <= 1e-10
    oracle = brentq(lambda u: u * (1.0 - np.exp(-u * u)) + 2.0, -3.0, -1.0,
                    xtol=1e-13)
    assert abs(s - oracle) < 1e-9
    assert verify_plan(plan, drifted)["ok"]


def test_connect_random_principal(kspec, kappa2):
    rng = np.random.default_rng(2)
    for spec in (kspec, kappa2):
        for _ in range(100):
            z = np.append(rng.uniform(-2, 2, size=spec.N), rng.uniform(-2, 2))
            zeta = np.append(rng.uniform(-2, 2, size=spec.N), rng.uniform(-2, 2))
            plan = connect(z, zeta, spec)
            assert plan.achieved_error <= 1e-12
            assert verify_plan(plan, spec)["ok"]


def test_connect_random_generic(drifted):
    rng = np.random.default_rng(3)
    for _ in range(30):
        z = np.append(rng.uniform(-1.5, 1.5, size=2), rng.uniform(-1.5, 1.5))
        zeta = np.append(rng.uniform(-1.5, 1.5, size=2), rng.uniform(-1.5, 1.5))
        plan = connect(z, zeta, drifted)
        assert plan.achieved_error <= 1e-9


def test_connect_evaluates_the_bisection_in_stacked_subtrees(drifted, monkeypatch):
    # one E(t) call per bisection step made 47-50 calls per connect on the
    # planner benchmark's pairs 0-19; one per subtree of 4 steps makes 17
    calls = []
    E = OperatorSpec.E

    def counted(self, tau):
        calls.append(tau)
        return E(self, tau)

    monkeypatch.setattr(OperatorSpec, "E", counted)
    pair = np.random.default_rng(0).uniform(-1.0, 1.0, 6)
    plan = connect(pair[:3], pair[3:], drifted)
    assert plan.achieved_error <= 1e-9
    assert len(calls) <= 24


def test_connect_trivial_and_nonconvergence(kspec, drifted, monkeypatch):
    z = np.array([0.4, -0.2, 0.1])
    assert connect(z, z, kspec).segments == []
    monkeypatch.setattr(taylor, "MAX_ITERS", 2)
    with pytest.raises(NonConvergenceError) as err:
        connect(np.array([0.0, 2.0, 0.0]), np.zeros(3), drifted, tol=0.0)
    assert err.value.plan is not None


def test_verify_plan_detects_tampering(kspec):
    plan = connect(np.ones(3), np.zeros(3), kspec)
    seg = plan.segments[1]
    plan.segments[1] = PathSegment(kind=seg.kind, v=seg.v, s=seg.s + 0.1,
                                   start=seg.start, end=seg.end)
    with pytest.raises(PlanIntegrityError):
        verify_plan(plan, kspec)


def test_verify_plan_is_ok_within_tol_of_the_target_and_not_beyond(kspec):
    # a plan whose target lies delta past its last segment end, with
    # achieved_error 0: ok holds to tol = 1e-9 and no further
    plan = connect(np.ones(3), np.zeros(3), kspec)
    end = plan.segments[-1].end
    plan.achieved_error = 0.0
    for delta, ok in ((1.01e-9, False), (0.99e-9, True)):
        plan.target = end + np.array([delta, 0.0, 0.0])
        check = verify_plan(plan, kspec, tol=1e-9)
        assert check["endpoint_error"] == pytest.approx(delta, rel=1e-6)
        assert check["ok"] is ok


def test_bundle_derivatives_fd(kspec, drifted):
    rng = np.random.default_rng(4)
    for spec in (kspec, drifted):
        pts = sample_ball(spec, 1.0, 15, rng)
        for bundle in (
            quadratic_bundle(spec, c0=0.3, a=[0.5], H=[[1.2]], bt=-0.7),
            coordinate_bundle(spec, 1),
            gaussian_bundle(spec, center_x=[0.1, -0.2], width_x=0.9,
                            width_t=0.6, amplitude=1.3),
        ):
            assert validate_bundle(bundle, spec, pts) < 1e-6


def test_lie_derivative_fd(kspec):
    bundle = gaussian_bundle(kspec, width_t=0.5)
    z = np.array([[0.3, -0.4, 0.2]])
    assert abs(lie_derivative_fd(bundle.u, z, kspec) - bundle.hess_Yu(z)[1])[0] < 1e-8
    with pytest.raises(DomainError):
        lie_derivative_fd(bundle.u, z, kspec, h=0.0)


def test_fd_stencil_rejects_an_overflowing_flow(drifted):
    # exp(hB) x overflows in its first coordinate: x1 * e^h > max float
    Z = np.array([[0.1, 0.2, 0.0], [1.79768e308, 0.0, 0.0]])
    with np.errstate(over="ignore"):
        for fd in (lambda u: lie_derivative_fd(u, Z, drifted),
                   lambda u: apply_L_fd(drifted, u, Z)):
            with pytest.raises(DomainError):
                fd(lambda W: np.ones(len(W)))


def test_taylor_exact_on_quadratics(kspec, kappa2):
    # intrinsic degree <= 2: constants, first-level linears/quadratics, t
    rng = np.random.default_rng(5)
    for spec in (kspec, kappa2):
        bundle = quadratic_bundle(spec, c0=1.0, a=0.7 * np.ones(spec.m),
                                  H=1.5 * np.eye(spec.m), bt=-0.3)
        for _ in range(50):
            z = np.append(rng.uniform(-1, 1, size=spec.N), rng.uniform(-1, 1))[None]
            zeta = np.append(rng.uniform(-1, 1, size=spec.N), rng.uniform(-1, 1))[None]
            rem = bundle.u(zeta) - taylor2(bundle, z, zeta, spec)
            assert abs(rem[0]) < 1e-13


def test_taylor_forms_coincide_when_top_row_vanishes(kspec):
    bundle = gaussian_bundle(kspec)
    z = np.array([[0.2, 0.1, -0.1]])
    zeta = np.array([[-0.3, 0.4, 0.2]])
    a = taylor2(bundle, z, zeta, kspec, form="group")
    b = taylor2(bundle, z, zeta, kspec, form="euclidean")
    assert a == b
    with pytest.raises(DomainError):
        taylor2(bundle, z, zeta, kspec, form="weird")


def test_remainder_second_order_decay(kspec):
    bundle = gaussian_bundle(kspec, center_x=[0.3, -0.1], width_x=0.8,
                             width_t=0.5)
    z = np.array([[0.1, 0.05, 0.02]])
    direction = np.array([[0.8, -0.6, 0.7]])
    rhos = [2.0**-k for k in range(3, 10)]
    prof = remainder_profile(bundle, z, direction, rhos, kspec)
    ratios = [r for _, r in prof]
    for a, b in zip(ratios, ratios[1:]):
        assert a >= 1.5 * b  # remainder / rho^2 keeps shrinking


def test_euclidean_vs_group_discrepancy_quadratic(drifted):
    # the two forms differ by O(||.||^2) when the top block row is nonzero
    exps = drifted.exponents()
    bundle = gaussian_bundle(drifted, center_x=[0.2, 0.3], width_x=0.9)
    z = np.array([[0.4, 0.2, 0.1]])
    rhos = 2.0 ** -np.arange(3, 9)
    zeta = compose_rows(z, dilate_rows(rhos, np.repeat([[0.5, 0.7, 0.9]], 6, axis=0),
                                       exps), drifted)
    consts = np.abs(taylor2(bundle, z, zeta, drifted, form="euclidean")
                    - taylor2(bundle, z, zeta, drifted, form="group")) / rhos**2
    assert max(consts) < 50.0
    assert max(consts) < 4.0 * min(consts)


def test_endpoint_error_metric():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.0, 2.5, 3.25])
    assert endpoint_error(a, b) == 0.5
