"""The homogeneous route of a principal drift against the block route it
replaced, kept here as the oracle: C(t) from the full block exponential,
and per row its inverse, slogdet and C'(t) = E A~ E^T as stacked matmuls.

C(t) = D C(1) D with D = diag(t^(alpha_i / 2)) holds exactly for B = B_0,
so the two routes differ by rounding only.  Both solve with C(t), whose
correlation matrix is that of C(1) at every t, so each field is held to
a tolerance relative to kappa eps, kappa the 2-norm condition number of
C(1)'s correlation matrix (TOLERANCES).  The verdict of _checked_C is
that of the block route, except where the block route's own eigvalsh
minimum lies within LAPACK's error bound, and it is the kernel's: both
read it from the spec's record of C(1).  A principal kernel call forms
no per-row exponential, inverse or determinant, and a principal
_checked_C call no determinant: the kernel alone forms log det C(t).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import SPEC_DIR
from test_exp import assert_C_close, full_square_C, principal_specs
from test_rows import BLOCKS, PROPERTY, admissible_spec

from kolmo import (DomainError, HypoellipticityError, KolmoError, group, kernel_jet_rows,
                   load_spec, make_spec, matrixcalc)
from kolmo.group import embedded_A
from kolmo.kernel import _checked_C
from kolmo.matrixcalc import _clears, _gershgorin, dot_rows, matvec_rows, vecmat_rows

EPS = np.finfo(float).eps
# per field, the largest difference between the routes in units of
# kappa eps (1 + <C^-1 w, w>), each against the field's own scale:
# |Gamma|; the largest gradient entry; Gamma (max v_i^2 / 4 +
# max |C^-1_ij| / 2), the sizes of the Hessian's two terms; and
# |Y Gamma| + Gamma Q / dt, the size of its trace term.  Over 20 seeds of
# the 14 principal BLOCKS at dt = 1, 1e-2 and 1e-4, 40 rows each, without
# the factor (1 + <C^-1 w, w>), the largest were 11.5, 168, 10 and 4.2
TOLERANCES = {"gamma": 64, "grad": 1024, "hess": 64, "Y": 64}
def block_route_jet(spec, Z, P):
    """kernel_jet_rows before the homogeneous route: C(dt) from the full
    block exponential, inv, slogdet and C' = E A~ E^T per row."""
    dt = Z[:, -1] - P[:, -1]
    C, E = full_square_C(spec, dt), spec.E(dt)
    Cinv, logdet = np.linalg.inv(C), np.linalg.slogdet(C)[1]
    X, EXi = Z[:, :-1], matvec_rows(E, P[:, :-1])
    W = X - EXi
    arg = (-0.5 * spec.N * math.log(4.0 * math.pi) - 0.5 * logdet
           - 0.25 * dot_rows(vecmat_rows(W, Cinv), W) - dt * np.trace(spec.B))
    g = np.array([math.exp(v) for v in arg.tolist()])
    CW = matvec_rows(Cinv, W)
    Cprime = np.matmul(np.matmul(E, embedded_A(spec)), np.swapaxes(E, -1, -2))
    dlog_dt = (-0.5 * np.trace(np.matmul(Cinv, Cprime), axis1=-2, axis2=-1)
               - 0.5 * dot_rows(CW, matvec_rows(spec.B, EXi))
               + 0.25 * dot_rows(vecmat_rows(CW, Cprime), CW) - float(np.trace(spec.B)))
    grad = -0.5 * CW * g[:, None]
    hess = (0.25 * (CW[:, :, None] * CW[:, None, :]) - 0.5 * Cinv) * g[:, None, None]
    return g, grad, hess, dot_rows(matvec_rows(spec.B, X), grad) - dlog_dt * g


def correlation_condition(spec):
    """kappa: the 2-norm condition number of C(1)'s correlation matrix."""
    C1 = full_square_C(spec, np.array([1.0]))[0]
    s = 1.0 / np.sqrt(np.diag(C1))
    return float(np.linalg.cond(C1 * s[:, None] * s[None, :]))


def assert_jets_close(spec, Z, P, got, want):
    """got within TOLERANCES of want, row by row, each scale times
    1 + <C^-1 w, w>, which multiplies the error of log Gamma; C^-1 w =
    -2 grad / Gamma and C^-1 = v v^T / 2 - 2 hess / Gamma come from want.
    Where want's Gamma is below the normal range, got's must be too."""
    g, grad, hess, Y = (np.asarray(f) for f in want)
    normal = g >= np.finfo(float).tiny
    assert (got[0][~normal] < np.finfo(float).tiny).all()
    got = [np.asarray(f)[normal] for f in got]
    g, grad, hess, Y, Z, P = (a[normal] for a in (g, grad, hess, Y, Z, P))
    dt, W = Z[:, -1] - P[:, -1], Z[:, :-1] - matvec_rows(spec.E(Z[:, -1] - P[:, -1]), P[:, :-1])
    v = -2.0 * grad / g[:, None]
    Cinv = 0.5 * v[:, :, None] * v[:, None, :] - 2.0 * hess / g[:, None, None]
    unit = correlation_condition(spec) * EPS * (1.0 + np.abs((v * W).sum(1)))
    scales = {"gamma": g, "grad": np.abs(grad).max(1),
              "hess": g * (0.25 * (v * v).max(1) + 0.5 * np.abs(Cinv).max((1, 2))),
              "Y": np.abs(Y) + g * spec.exponents().Q / dt}
    for name, a, b in zip(("gamma", "grad", "hess", "Y"), got, (g, grad, hess, Y)):
        gap = np.abs(a - b).reshape(len(g), -1).max(1)
        assert (gap <= TOLERANCES[name] * unit * scales[name]).all(), name


def core_rows(spec, dt, K, rng):
    """K poles with x in D(sqrt dt) times the unit box, at times in
    [-1, 0], and a point dt above each with w = x - E(dt) xi = D L y for
    y ~ N(0, I) and C(1) = L L^T: rows in the Gaussian's core, at the
    scale where x and E(dt) xi do not cancel."""
    N = spec.N
    d = math.sqrt(dt) * spec.level_powers(dt)
    P = np.column_stack([d * rng.uniform(-1.0, 1.0, (K, N)), rng.uniform(-1.0, 0.0, K)])
    L = np.linalg.cholesky(full_square_C(spec, np.array([1.0]))[0])
    W = d * (rng.standard_normal((K, N)) @ L.T)
    X = matvec_rows(spec.E(np.full(K, dt)), P[:, :-1]) + W
    return np.column_stack([X, P[:, -1] + dt]), P


@PROPERTY
@given(principal_specs, st.integers(0, 2**32 - 1))
def test_homogeneous_kernel_matches_the_block_route(spec, seed):
    rng = np.random.default_rng(seed)
    for dt in (1.0, 1e-2, 1e-4):
        Z, P = core_rows(spec, dt, 12, rng)
        assert_jets_close(spec, Z, P, kernel_jet_rows(spec, Z, P), block_route_jet(spec, Z, P))
        ts = np.array([dt, -dt, 8.0 * dt])
        assert_C_close(spec.C(ts), full_square_C(spec, ts))


def block_route_verdict(spec, t):
    """_checked_C's verdict by the block route, with the bound eigvalsh's
    minimum must clear for that verdict to be decided: 'ok', the error
    class, or ('undecided', verdict) where |lambda_min| is within
    2^10 n eps tr C of 0 (_gershgorin's reading of LAPACK's bound)."""
    try:
        C = full_square_C(spec, np.array([t]))
    except KolmoError:  # exp(t M) overflows
        return DomainError
    if not np.isfinite(C).all():
        return DomainError
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sign = np.linalg.slogdet(C)[0][0]
        cleared = _clears(*_gershgorin(C))[0]
    if sign <= 0:
        return HypoellipticityError
    if cleared:
        return "ok"
    lam = np.linalg.eigvalsh(C)[0, 0]
    verdict = "ok" if lam > 1e-300 else HypoellipticityError
    if abs(lam) <= 2**10 * spec.N * EPS * np.trace(C[0]):
        return ("undecided", verdict)
    return verdict


def checked_verdict(spec, t):
    """The verdict of _checked_C under the command line's floating-point policy."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _checked_C(spec, np.array([t]))
    except (HypoellipticityError, DomainError) as err:
        return type(err)
    return "ok"


def test_checked_C_keeps_the_block_route_verdict():
    # at t = 10^k, k = -200 .. 100: the shipped specs agree everywhere; on
    # the chains of N = 6 .. 12 levels every verdict agrees but those the
    # block route left to eigvalsh noise (5 of 2,107 rows, all at t >= 100,
    # where C(t) spans 40 to 85 decades)
    times = 10.0 ** np.arange(-200.0, 101.0)
    shipped = [load_spec(SPEC_DIR / f"{name}.json")
               for name in ("heat1d", "kinetic", "kolmogorov", "kinetic_drifted")]
    chains = [make_spec(np.eye(1), np.diag(np.ones(N - 1), -1), (1,) * N) for N in range(6, 13)]
    undecided = 0
    for spec, chain in [(spec, False) for spec in shipped] + [(spec, True) for spec in chains]:
        for t in times:
            want, got = block_route_verdict(spec, t), checked_verdict(spec, t)
            if isinstance(want, tuple) and got != want[1]:
                assert chain and t >= 100.0, (spec.blocks, t)
                undecided += 1
            elif not isinstance(want, tuple):
                assert got == want, (spec.blocks, t)
    assert undecided <= 5


@pytest.mark.parametrize("blocks", BLOCKS)
def test_kernel_log_det_is_the_scaled_log_det_of_C1(blocks):
    # the kernel's log det C(t) = log det C(1) + Q log t, read off Gamma
    # at x = xi = 0 (tr B = 0), where Gamma = (4 pi)^(-N/2) det C(t)^(-1/2),
    # against slogdet of the block route's C(t) within 64 (kappa N + |log
    # det|) eps
    spec = admissible_spec(blocks, 0, True)
    times = np.array([1e-4, 1e-2, 0.5, 1.0, 3.0])
    Z = np.column_stack([np.zeros((len(times), spec.N)), times])
    gamma = kernel_jet_rows(spec, Z, np.zeros((1, spec.N + 1)), derivatives=False)
    logdet = -2.0 * np.log(gamma) - spec.N * math.log(4.0 * math.pi)
    want = np.linalg.slogdet(full_square_C(spec, times))[1]
    tol = 64 * EPS * (correlation_condition(spec) * spec.N + np.abs(want))
    assert (np.abs(logdet - want) <= tol).all()


def test_a_principal_kernel_call_forms_no_per_row_factorisation(monkeypatch):
    # after the first call has made C(1) and its factors, a principal-drift
    # call sums no exponential series and inverts or factorises no stack
    spec = load_spec({"A": np.eye(2).tolist(), "blocks": [2, 2],
                      "B": np.block([[np.zeros((2, 2)), np.zeros((2, 2))],
                                     [-np.eye(2), np.zeros((2, 2))]]).tolist()})
    rng = np.random.default_rng(0)
    Z, P = core_rows(spec, 0.1, 50, rng)
    kernel_jet_rows(spec, Z[:1], P[:1])
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(group, "exp_rows", spy("exp_rows", group.exp_rows))
    monkeypatch.setattr(matrixcalc, "exp_rows", spy("exp_rows", matrixcalc.exp_rows))
    for name in ("inv", "slogdet", "eigvalsh", "det", "cholesky"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    kernel_jet_rows(spec, Z, P)
    kernel_jet_rows(spec, Z, P[:1], derivatives=False)
    assert calls == []


def kernel_verdict(spec, t):
    """The verdict of kernel_jet_rows at the pole, at time t above it, under
    the command line's floating-point policy: an AccuracyError or overflow
    after the verdict, as where Gamma passes the largest double, is 'ok'."""
    Z = np.append(np.zeros(spec.N), t)[None]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            kernel_jet_rows(spec, Z, np.zeros((1, spec.N + 1)))
    except (HypoellipticityError, DomainError) as err:
        return type(err)
    except (KolmoError, FloatingPointError):
        pass
    return "ok"


@PROPERTY
@given(principal_specs, st.integers(-200, 100), st.integers(1, 10))
def test_checked_C_gives_the_kernel_verdict(spec, k, step):
    # one reading of the rule: check's _checked_C and the kernel at the
    # pole agree at every time of a decade ladder, singular or not
    for t in 10.0 ** np.arange(k, 101, step):
        assert checked_verdict(spec, t) == kernel_verdict(spec, t), (spec.blocks, t)


def test_a_principal_checked_C_call_forms_no_determinant(monkeypatch):
    # once the spec's record of C(1) is made, _checked_C on a principal
    # drift calls no slogdet, and eigvalsh only on the rows whose
    # diagonal C(1)'s bound cannot clear: on the Kolmogorov operator,
    # C(t) at t = 1e-7 and 1e-9 spans 14 and 18 decades
    spec = load_spec(SPEC_DIR / "kolmogorov.json")
    spec.homogeneous()
    calls = []

    def spy(name, fn):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.array(a)))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in ("slogdet", "eigvalsh", "det", "inv"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    times = np.array([1e-7, 1.0, 1e-9, 0.5])
    C = _checked_C(spec, times)[0]
    assert [name for name, _ in calls] == ["eigvalsh"]
    assert np.array_equal(calls[0][1], C[[0, 2]])
