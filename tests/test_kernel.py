import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest

from kolmo import (
    KernelContext,
    Point,
    covariance,
    dilate_rows,
    gamma,
    gamma_grad,
    heat_spec,
    kdist_rows,
    kernel_jet_rows,
    kernel_mass,
    knorm_rows,
    kolmogorov_spec,
    make_spec,
    sample_ball,
)
from kolmo import kernel, load_spec
from kolmo.cli import run
from kolmo.errors import (
    AccuracyError,
    DomainError,
    HypoellipticityError,
    KolmoError,
)
from kolmo.group import embedded_A

from quadrature import integrate_matrix
from test_cli import KOLMO
from test_report_bytes import kinetic_m2_spec
from test_homogeneous import assert_jets_close
from test_rows import BLOCKS, admissible_spec

ORIGIN = Point([0.0, 0.0], 0.0)


# Test-only helpers: Monte-Carlo sups of the kernel bounds, which no
# command-line path uses.


def check_bounds(ctx, samples=10_000, R0=1.0, seed=0):
    """Fitted constants of the kernel decay bounds by Monte-Carlo sup.

    Returns a dict mapping each bound name to the empirical supremum of
    the corresponding product value * d_K^power (libm pow) over sampled
    pairs in the box Q_{R0}, pairs closer than 1e-6 in time or distance
    left out.
    """
    spec = ctx.spec
    exps = spec.exponents()
    Q, m = exps.Q, spec.m
    pts = sample_ball(spec, R0, 2 * samples, np.random.default_rng(seed))
    later = pts[0::2, -1] - pts[1::2, -1] > 1e-6
    Z, P = pts[0::2][later], pts[1::2][later]
    d = kdist_rows(Z, P, spec)
    apart = d >= 1e-6
    jet, d = kernel_jet_rows(spec, Z[apart], P[apart]), d[apart].tolist()
    grad = np.abs(jet.grad)
    terms = [("gamma", jet.gamma, Q), ("grad_m", grad[:, :m].max(axis=1), Q + 1),
             ("hess_m", np.abs(jet.hess[:, :m, :m]).max(axis=(1, 2)), Q + 2),
             ("Y", np.abs(jet.Y), Q + 2)]
    terms += [(f"grad_alpha{exps.alpha[j]}", grad[:, j], Q + exps.alpha[j])
              for j in range(m, spec.N)]
    out = {}
    for key, vals, power in terms:
        out[key] = max([out.get(key, 0.0)]
                       + [v * r**power for v, r in zip(vals.tolist(), d)])
    return out


def annulus_sup(ctx, R, samples=2000, seed=0):
    """Sup of Gamma over z in Q_{R/2}, zeta in Q_R minus Q_{3R/4}: the
    first ``samples`` poles of the annulus, the k-th paired with point
    (k + 1) mod samples of the inner ball."""
    spec = ctx.spec
    rng = np.random.default_rng(seed)
    zs = sample_ball(spec, R / 2.0, samples, rng)
    poles = sample_ball(spec, R, 8 * samples, rng)
    poles = poles[~(knorm_rows(poles, spec.exponents()) < 0.75 * R)][:samples]
    Z = zs[np.arange(1, len(poles) + 1) % len(zs)]
    return max([0.0] + kernel_jet_rows(spec, Z, poles, derivatives=False).tolist())


def test_kolmogorov_covariance_closed_form(kctx):
    # C(t) = [[t, t^2/2], [t^2/2, t^3/3]]
    for t in (0.3, 1.0, 2.5):
        C = covariance(kctx, t).C
        want = np.array([[t, t * t / 2.0], [t * t / 2.0, t**3 / 3.0]])
        assert np.abs(C - want).max() < 1e-10


def test_covariance_matches_quadrature(kctx, kinetic, drifted, kappa2):
    # the one-exponential form against the defining integral, through the
    # kernel's covariance and the smallest eigenvalue that check reports
    for spec in (kctx.spec, kinetic, drifted, kappa2, heat_spec(2)):
        ctx = KernelContext(spec)
        At = embedded_A(spec)
        for t in (0.2, 1.0, 3.0):
            ref = integrate_matrix(lambda s: spec.E(s) @ At @ spec.E(s).T, t)
            assert np.abs(covariance(ctx, t).C - ref).max() < 1e-10
            ref_min = np.linalg.eigvalsh(ref)[0]
            assert abs(np.linalg.eigvalsh(spec.C(t))[0] - ref_min) < 1e-10


def test_covariance_needs_positive_time(kctx):
    with pytest.raises(DomainError):
        covariance(kctx, 0.0)


def test_gamma_past_the_largest_double_is_an_accuracy_error():
    # C(1e-290) = 2e-290 I passes the positive-definiteness test, but
    # Gamma = (8 pi 1e-290)^{-3/2} is past DBL_MAX: math.exp raised an
    # OverflowError (exit 1 with a traceback on the command line)
    Z, P = np.array([[0.0, 0.0, 0.0, 1e-290]]), np.zeros((1, 4))
    for derivatives in (False, True):
        with pytest.raises(AccuracyError, match="Gamma overflows at a time step 1e-290"):
            kernel_jet_rows(heat_spec(3), Z, P, derivatives)


def test_gamma_does_not_depend_on_call_history():
    # a cache keyed by round(t / 1e-12) once returned the first C(t) stored
    # under a nearby time: 2.494e25 for 1.680e24 at dt = 4e-13 after
    # dt = 1e-13, and the t = 0.7 value at t = 0.7 + 3e-13
    spec = kolmogorov_spec(1)
    ctx = KernelContext(spec)
    for t in (1e-13, 4e-13, 0.7, 0.7 + 3e-13):
        z = Point([0.0, 0.0], t)
        assert gamma(ctx, z, ORIGIN) == gamma(KernelContext(spec), z, ORIGIN)
    assert gamma(ctx, Point([0.0, 0.0], 4e-13), ORIGIN) < 2e24


def test_kernel_jet_rows_in_chunks(drifted, monkeypatch):
    # a long block is factorised ROW_CHUNK rows at a time, to the same bytes;
    # with the poles a time unit later, some rows lie below their pole
    rng = np.random.default_rng(4)
    Z = np.column_stack([rng.uniform(-1, 1, (40, 2)), rng.uniform(0.2, 1.5, 40)])
    P = np.column_stack([rng.uniform(-1, 1, (40, 2)), rng.uniform(-0.5, 0.0, 40)])
    whole = [kernel_jet_rows(drifted, Z, poles) for poles in (P, P[:1])]
    values = kernel_jet_rows(drifted, Z, P + [0, 0, 1.0], derivatives=False)
    monkeypatch.setattr(kernel, "ROW_CHUNK", 7)
    for jet, poles in zip(whole, (P, P[:1])):
        for got, want in zip(kernel_jet_rows(drifted, Z, poles), jet):
            assert np.array_equal(got, want)
    assert np.array_equal(
        kernel_jet_rows(drifted, Z, P + [0, 0, 1.0], derivatives=False), values)


def _scalar_jet(spec, z, zeta):
    """Gamma, gradient, Hessian and Y Gamma of one pair the per-Point way,
    with 2-d numpy products, a 2-d factorisation of C and math.exp."""
    dt = z.t - zeta.t
    E = spec.E(dt)
    C = spec.C(dt)
    Cinv, logdet = np.linalg.inv(C), np.linalg.slogdet(C)[1]
    w = z.x - E @ zeta.x
    log_pref = -0.5 * spec.N * math.log(4.0 * math.pi) - 0.5 * logdet
    g = math.exp(log_pref - 0.25 * float(w @ Cinv @ w) - dt * np.trace(spec.B))
    cw = Cinv @ w
    Cprime = E @ embedded_A(spec) @ E.T
    dlog_dt = (-0.5 * float(np.trace(Cinv @ Cprime))
               - 0.5 * float(cw @ (spec.B @ (E @ zeta.x)))
               + 0.25 * float(cw @ Cprime @ cw) - float(np.trace(spec.B)))
    grad = -0.5 * cw * g
    hess = (0.25 * np.outer(cw, cw) - 0.5 * Cinv) * g
    return g, grad, hess, float(spec.B @ z.x @ grad) - dlog_dt * g


def test_kernel_jet_rows_round_as_the_scalar_route(kspec, drifted, kappa2, heat):
    # on a non-principal drift the row block keeps the per-Point arithmetic
    # bit for bit (math.exp, gemv for C^{-1} w and for w C^{-1}, 2-d
    # traces), so reports do not move; a principal drift takes the
    # homogeneous route, within test_homogeneous's tolerances of it
    m2 = make_spec(np.eye(2), np.block([[np.zeros((2, 2)), np.zeros((2, 2))],
                                        [-np.eye(2), np.zeros((2, 2))]]), (2, 2))
    rng = np.random.default_rng(9)
    for spec in (kspec, drifted, kappa2, heat, m2):
        Z = np.column_stack([rng.uniform(-1, 1, (60, spec.N)), rng.uniform(0.1, 1.5, 60)])
        P = np.column_stack([rng.uniform(-1, 1, (60, spec.N)), rng.uniform(-1, 0.0, 60)])
        jet = kernel_jet_rows(spec, Z, P)
        want = [_scalar_jet(spec, Point(z[:-1], z[-1]), Point(zeta[:-1], zeta[-1]))
                for z, zeta in zip(Z, P)]
        want = [np.array(field) for field in zip(*want)]
        if spec.homogeneous() is None:
            assert all(np.array_equal(got, value) for got, value in zip(jet, want))
        else:
            assert_jets_close(spec, Z, P, jet, want)


def test_gamma_origin_value(kctx):
    # (4 pi)^{-1} / sqrt(det [[1,1/2],[1/2,1/3]]) = sqrt(3) / (2 pi)
    z = Point([0.0, 0.0], 1.0)
    assert abs(gamma(kctx, z, ORIGIN) - math.sqrt(3.0) / (2.0 * math.pi)) < 1e-10


def test_gamma_vanishes_at_and_below_pole_time(kctx):
    assert gamma(kctx, Point([0.3, 0.1], 0.0), ORIGIN) == 0.0
    assert gamma(kctx, Point([0.3, 0.1], -1.0), ORIGIN) == 0.0
    with pytest.raises(DomainError, match="needs t - tau > 0"):
        gamma_grad(kctx, Point([0.3, 0.1], 0.0), ORIGIN)


def test_gamma_derivatives_match_fd(kctx):
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(20):
        z = Point(rng.uniform(-1, 1, size=2), rng.uniform(0.3, 2.0))
        p = Point(rng.uniform(-1, 1, size=2), rng.uniform(-0.5, 0.0))
        g = gamma(ctx := kctx, z, p)
        jet = kernel_jet_rows(ctx.spec, z.row(), p.row())
        grad, H = jet.grad[0], jet.hess[0]
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
        assert abs((fwd - bwd) / (2 * s) - jet.Y[0]) < 1e-6 * max(1.0, g)


def pde_residual(spec, Z, P):
    """L Gamma = sum a_ij d2 Gamma + Y Gamma at the rows of Z over the
    poles P, and Y Gamma, from one jet."""
    jet, m = kernel_jet_rows(spec, Z, P), spec.m
    return np.sum(spec.A * jet.hess[:, :m, :m], axis=(1, 2)) + jet.Y, jet.Y


def test_kernel_pde_residual_relative(kctx, drifted):
    rng = np.random.default_rng(1)
    for spec in (kctx.spec, drifted):
        rows = [(np.append(rng.uniform(-1.5, 1.5, size=2), rng.uniform(0.2, 2.0)),
                 np.append(rng.uniform(-1, 1, size=2), rng.uniform(-0.5, 0.0)))
                for _ in range(50)]
        residual, Y = pde_residual(spec, *map(np.array, zip(*rows)))
        scale = np.maximum(np.abs(Y), 1e-300)
        assert (np.abs(residual) <= 1e-6 * np.maximum(1.0, scale)).all()


def test_kernel_mass(kctx, drifted):
    # tr B = 0: unit mass; tr B = 1: mass e^{-t}
    assert abs(kernel_mass(kctx.spec, 0.7) - 1.0) < 1e-5
    assert abs(kernel_mass(drifted, 1.0) - math.exp(-1.0)) < 1e-5


def homogeneity_ratio(spec, z, r):
    """Gamma(delta_r z) r^Q / Gamma(z) with the pole at the origin; 1 for
    B = B_0.  Both values are rows of one block."""
    exps = spec.exponents()
    g, g_r = kernel_jet_rows(spec, np.vstack([z, dilate_rows(r, z, exps)]),
                             np.zeros((1, spec.N + 1)), derivatives=False)
    return float(g_r * r**exps.Q / g)


def test_homogeneity_principal_only(kspec, drifted):
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = np.append(rng.uniform(-1, 1, size=2), rng.uniform(0.2, 1.5))[None]
        r = float(np.exp(rng.uniform(-0.7, 0.7)))
        assert abs(homogeneity_ratio(kspec, z, r) - 1.0) < 1e-10
    # a drift beyond B_0 breaks the scaling law
    assert abs(homogeneity_ratio(drifted, np.array([[0.0, 0.0, 1.0]]), 0.5) - 1.0) > 0.1


def test_chapman_kolmogorov_heat_1d(heat):
    # semigroup identity, closed-form 1d heat kernel as the oracle
    ctx = KernelContext(heat)
    x, t = 0.4, 1.0
    sigma_mid = 0.6
    ys = np.linspace(-12.0, 12.0, 3001)
    mids = np.column_stack([ys, np.full(len(ys), -sigma_mid)])
    vals = (kernel_jet_rows(heat, np.repeat([[x, 0.0]], len(ys), 0), mids, False)
            * kernel_jet_rows(heat, mids, [[0.0, -t]], False))
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


def _checked_C_by_eigvalsh(spec, t):
    """The check before the certificate: eigvalsh on every row."""
    C = spec.C(t)
    with np.errstate(divide="ignore"):  # a zero pivot is sign 0
        sign, logdet = np.linalg.slogdet(C)
    bad = (sign <= 0) | (np.linalg.eigvalsh(C)[:, 0] <= 1e-300)
    if bad.any():
        raise HypoellipticityError(f"C({t[bad][0]}) is numerically singular")
    return C, logdet


def _outcome(check, spec, t):
    """The error type and message, or the bytes of C and log det C, of
    one check under the command line's floating-point policy."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            C, logdet = check(spec, t)
    except KolmoError as err:
        return type(err), str(err)
    return C.tobytes(), logdet.tobytes()


def test_checked_C_verdicts_match_the_eigvalsh_check():
    # the entrywise certificate only skips eigvalsh on rows it could not
    # flag, so every verdict, message, C and log det stays the same, one
    # row at a time and stacked, down to times where C(t) is singular
    times = 10.0 ** np.arange(-150, 3)
    eigenvalue_only = 0  # rows flagged with a positive determinant sign
    for blocks in BLOCKS:
        for principal in (True, False):
            for seed in (0, 1):
                spec = admissible_spec(blocks, seed, principal)
                assert (_outcome(kernel._checked_C, spec, times)
                        == _outcome(_checked_C_by_eigvalsh, spec, times))
                for t in times:
                    one = _outcome(kernel._checked_C, spec, np.array([t]))
                    assert one == _outcome(_checked_C_by_eigvalsh, spec, np.array([t]))
                    if one[0] is HypoellipticityError:
                        eigenvalue_only += np.linalg.slogdet(spec.C(np.array([t])))[0][0] > 0
    assert eigenvalue_only > 0


def _gershgorin_by_slices(C):
    """The certificate before the (n, n, K) layout: g and the cleared mask
    from reductions of the (K, n, n) stack along its axes of length n."""
    n, eps = C.shape[-1], np.finfo(float).eps
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = np.diagonal(C, axis1=1, axis2=2)
        s = np.sqrt(d)
        g = 2.0 - (np.abs(C) / (s[:, :, None] * s[:, None, :])).sum(-1).max(-1) - 4 * n * eps
        return g, (g > 0) & (g * d.min(-1) > 2**10 * n * eps * d.sum(-1) + 2e-300)


def test_gershgorin_over_rows_matches_the_sliced_certificate():
    # n < 8: every length-n sum ran in order before too, so g and the
    # cleared mask are ==; from n = 8 on they summed pairwise, so g may
    # move in its last bits (it does on (4, 4) and (2, 2, 2, 2)), and the
    # mask and the verdict hold: on the chains with N = 8-12, which no
    # row clears, and on the heat operators, whose every row clears.
    # K = 0, K = 1 and stacked blocks, down to times where C(t) is singular
    times = 10.0 ** np.arange(-150.0, 3.0)
    specs = [admissible_spec(blocks, seed, principal) for blocks in BLOCKS
             for principal in (True, False) for seed in (0, 1)]
    specs += [kolmogorov_spec(2), load_spec(kinetic_m2_spec())]
    for spec in specs:
        assert spec.N < 8
        for t in (times, times[:0], times[-1:], times[:1]):
            C = spec.C(t)
            want, got = _gershgorin_by_slices(C), kernel._gershgorin(C)
            assert np.array_equal(got[0], want[0], equal_nan=True)
            assert np.array_equal(got[1], want[1])
    # the chains: N one-dimensional levels, A = [[1]], ones on the subdiagonal of B
    wide = [make_spec(np.eye(1), np.diag(np.ones(N - 1), -1), (1,) * N) for N in range(8, 13)]
    wide += [heat_spec(N) for N in range(8, 13)]
    wide += [admissible_spec(blocks, 0, principal) for blocks in ((4, 4), (2, 2, 2, 2))
             for principal in (True, False)]
    for spec in wide:
        for t in (np.array([1e-3, 1.0, 10.0]), np.array([1.0]), np.empty(0)):
            C = spec.C(t)
            assert np.array_equal(kernel._gershgorin(C)[1], _gershgorin_by_slices(C)[1])
            assert (_outcome(kernel._checked_C, spec, t)
                     == _outcome(_checked_C_by_eigvalsh, spec, t))


def test_workload_reports_call_no_eigvalsh_in_checked_C(tmp_path, monkeypatch):
    # every covariance row of the apriori and singular benchmark reports
    # is cleared from its entries; the spy counts eigvalsh in _checked_C's
    # verdict
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        if sys._getframe(1).f_code is kernel._verdict.__code__:
            calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    m2 = tmp_path / "kinetic_m2.json"
    m2.write_text(json.dumps(kinetic_m2_spec()))
    for seed in range(3):
        for argv in (["verify", "apriori", "--spec", str(m2), "--poles", "4",
                      "--samples", "20"],
                     ["verify", "singular-g1", "--spec", KOLMO, "--R-list", "0.5,0.25"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv + ["--seed", str(seed)]) == 0
    assert calls == []
    # C(1e-7) of the Kolmogorov operator has min d / max d = 1e-14 / 3:
    # it falls back, and the spy sees it
    kernel._checked_C(load_spec(KOLMO), np.array([1e-7, 1.0]))
    assert calls == [1]
