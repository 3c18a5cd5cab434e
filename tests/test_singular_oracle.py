"""The singular-bounds quadrature and the kernel convolution against the
per-slice route they replaced: one Gauss-Hermite slice at a time, its
covariance, square root and E(-dt) made alone, and the bump's jet (its
value and closed-form d_i^T H d_j) summed node by node in Python floats
(squares v * v, math.exp).  The block route must give exactly (==) the
same values over generated admissible specs, also when its chunks hold
only a few slices, and factorise each block once.  The central-difference
stencil that the jet replaced stays here as a second route: its error
against the jet falls as h^2.  The bump squares by multiplication, not
libm pow: exactly on ties where the two differ, with no float_power call
in a report, and the reports of the pow-rounded jet stay a tolerance
oracle for the verdicts."""

import functools
import math
import operator
import platform
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from kolmo import KernelContext, load_spec, sample_ball, verify_singular_bounds
from kolmo import verify
from kolmo.cli import run
from kolmo.kernel import covariance
from kolmo.matrixcalc import exp_nonpositive, sqrt_spd
from kolmo.verify import _FAMILIES, _hermite_grid, _singular_psi, _slice_integrals

from convolution import convolve_solution
from test_rows import admissible_spec

PROPERTY = settings(derandomize=True, database=None, max_examples=12,
                    deadline=None)
# a chunk bound of None keeps ROW_CHUNK; a small one cuts every block
# into chunks of one or a few slices
CHUNKS = st.one_of(st.none(), st.integers(1, 3000))
SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"


def node_jet(kind, R, exps, di=None, dj=None):
    """_singular_psi's jet at one node (x, t), in Python floats: the scale-R
    bump times g and, given the directions di and dj, d_i^T H d_j, each
    sum in _singular_psi's order (squares v * v, math.exp)."""
    scales = [R**a for a in exps.alpha]
    total = lambda terms: functools.reduce(operator.add, terms)
    if di is not None:
        ci, cj = ([2.0 * d / s for d, s in zip(dn, scales)] for dn in (di, dj))
        cij = total([c * d / s for c, d, s in zip(ci, dj, scales)])

    def jet(x, t):
        v = float(t) / R**2
        q = v * v
        U = []
        for xi, s in zip(x, scales):
            v = xi / s
            U.append(v)
            q += v * v
        bump, x0 = math.exp(-q), x[0]
        g = {"const": 1.0, "g1": x0, "g2": x0 * x0}[kind]
        value = bump if kind == "const" else bump * g
        if di is None:
            return value
        ai, aj = (total([c * u for c, u in zip(cn, U)]) for cn in (ci, cj))
        if kind == "const":
            h = ai * aj - cij
        elif kind == "g1":
            h = g * (ai * aj - cij) - ai * dj[0] - aj * di[0]
        else:
            h = (g * (ai * aj - cij) - ai * (2.0 * x0 * dj[0]) - aj * (2.0 * x0 * di[0])
                 + 2.0 * di[0] * dj[0])
        return value, bump * h

    return jet


def hermite_slice(ctx, z, tau, nodes_x):
    spec = ctx.spec
    dt = z[0, -1] - tau
    S = sqrt_spd(2.0 * covariance(ctx, dt).C)
    Y, W = _hermite_grid(nodes_x, spec.N)
    M = spec.E(-dt)
    pts = (z[:, :-1] - (math.sqrt(2.0) * (Y @ S.T))) @ M.T
    return pts, W, M


def d2_slice(ctx, kind, R, z, tau, i, j, nodes_x):
    spec = ctx.spec
    pts, W, M = hermite_slice(ctx, z, tau, nodes_x)
    jet = node_jet(kind, R, spec.exponents(), M[:, i].tolist(), M[:, j].tolist())
    dd = np.array([jet(x, tau)[1] for x in pts.tolist()])
    return float(np.add.reduce(dd * W)) / math.pi ** (spec.N / 2.0)  # as dot_rows sums


def d2_convolved(ctx, kind, R, z, i, j, t_lo, nodes_t=12, nodes_x=12):
    t = float(z[0, -1])
    smax = math.sqrt(t - t_lo)
    nodes, wts = leggauss(nodes_t)
    total = 0.0
    for s, w in zip(nodes, wts):
        sigma = 0.5 * smax * (s + 1.0)
        tau = t - sigma * sigma
        total += w * 0.5 * smax * 2.0 * sigma * d2_slice(ctx, kind, R, z, tau, i, j, nodes_x)
    return total


def singular_scaling(ctx, kind, R_list, samples, seed):
    """verify_singular_bounds' scaling, one point, (i, j) and slice at a time."""
    spec = ctx.spec
    rng = np.random.default_rng(seed)
    scaling = {}
    for R in R_list:
        worst = 0.0
        Z = sample_ball(spec, R / 2.0, samples, rng)
        early = Z[:, -1] <= -(R * R) * 0.9
        Z[early, -1] = np.abs(Z[early, -1])
        for k in range(len(Z)):
            for i in range(spec.m):
                for j in range(i, spec.m):
                    d2 = d2_convolved(ctx, kind, R, Z[k:k + 1], i, j, t_lo=-(R * R) * 1.0001)
                    worst = max(worst, abs(d2))
        scaling[R] = worst
    return scaling


def convolved(ctx, f, z, t_lo, nt, nx):
    """convolve_solution without its doubling check, one slice at a time."""
    t = float(z[0, -1])
    nodes, wts = leggauss(nt)
    half, mid = (t - t_lo) / 2.0, (t + t_lo) / 2.0
    total = 0.0
    for s, w in zip(nodes, wts):
        tau = mid + half * s
        pts, W, _ = hermite_slice(ctx, z, tau, nx)
        vals = f(np.column_stack([pts, np.full(len(pts), tau)]))
        total += w * half * (float(np.add.reduce(vals * W)) / math.pi ** (ctx.spec.N / 2.0))
    return -total


def chunk_bound(mp, rows):
    """ROW_CHUNK set to ``rows``, unless it is None."""
    if rows is not None:
        mp.setattr(verify, "ROW_CHUNK", rows)


# N <= 2: the route has 12^N Gauss-Hermite nodes per slice
@PROPERTY
@given(st.sampled_from([(1,), (1, 1), (2,)]), st.integers(0, 2**32 - 1),
       st.booleans(), st.integers(0, 2**16), CHUNKS)
def test_singular_scalings_match_the_slice_route(blocks, spec_seed, principal,
                                                 seed, rows):
    ctx = KernelContext(admissible_spec(blocks, spec_seed, principal))
    R_list = (0.5, 0.25)
    with pytest.MonkeyPatch.context() as mp:
        chunk_bound(mp, rows)
        mp.setattr(verify, "SINGULAR_SAMPLES", 2)
        for kind in ("const", "g1", "g2"):
            got = verify_singular_bounds(ctx.spec, kind, R_list, seed=seed)
            assert got.scaling == singular_scaling(ctx, kind, R_list, 2, seed), kind


@PROPERTY
@given(st.sampled_from([(1,), (1, 1), (2,), (1, 1, 1), (2, 1)]),
       st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 2**16), CHUNKS)
def test_convolution_matches_the_slice_route(blocks, spec_seed, principal, seed,
                                             rows):
    spec = admissible_spec(blocks, spec_seed, principal)
    ctx = KernelContext(spec)
    bundle = _FAMILIES["gaussian2"](spec)

    def f(Z):  # the manufactured f = L u, without manufacture's FD check
        return np.sum(spec.A * bundle.hess_Yu(Z)[0], axis=(1, 2)) + bundle.hess_Yu(Z)[1]

    z = sample_ball(spec, 0.5, 1, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        chunk_bound(mp, rows)
        for nt, nx in ((9, 4), (16, 6)):
            got = convolve_solution(spec, f, z, -1.0, nodes_t=nt, nodes_x=nx, check=False)
            assert got == convolved(ctx, f, z, -1.0, nt, nx), (nt, nx)


def counting(calls, name, fn):
    def spy(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return spy


@PROPERTY
@given(st.sampled_from([(1,), (1, 1), (2,)]), st.integers(0, 2**32 - 1),
       st.booleans(), CHUNKS)
def test_one_factorisation_per_block(blocks, spec_seed, principal, rows):
    # C(dt), its root and E(-dt) are made once per _slice_integrals call (one per
    # R) and once per convolve_solution pass; ROW_CHUNK chunks only the grid
    spec = admissible_spec(blocks, spec_seed, principal)
    calls = {"C": 0, "slices": 0}
    z = sample_ball(spec, 0.5, 1, np.random.default_rng(spec_seed))
    with pytest.MonkeyPatch.context() as mp:
        chunk_bound(mp, rows)
        mp.setattr(verify, "_checked_C", counting(calls, "C", verify._checked_C))
        mp.setattr(verify, "_slice_integrals",
                   counting(calls, "slices", verify._slice_integrals))
        mp.setattr(verify, "SINGULAR_SAMPLES", 2)
        verify_singular_bounds(spec, "g1", (0.5, 0.25), seed=0)
        assert calls == {"C": 2, "slices": 2}
        for nt, nx in ((9, 4), (16, 6)):
            calls["C"] = 0
            convolve_solution(spec, lambda Z: Z[:, 0], z, -1.0, nodes_t=nt,
                              nodes_x=nx, check=False)
            assert calls["C"] == 1, (nt, nx)


def stencil_slice(psi, pts, W, tau, M, i, j, h):
    """d2_ij of one slice integral by the central-difference stencil of
    step h that _slice_integrals took before the closed-form jet: psi's
    value on the points pts + offsets along d_i = M e_i, then the
    slice's dot with the weights."""
    def vals(offset):
        return psi((pts + offset).T[None], np.array([tau]), None)[0][0]

    di, dj = h * M[:, i], h * M[:, j]
    if i == j:
        dd = (vals(di) - 2.0 * vals(0.0) + vals(-di)) / h**2
    else:
        dd = (vals(di + dj) - vals(di - dj) - vals(-di + dj) + vals(-di - dj)) / (4.0 * h**2)
    return float(dd @ W) / math.pi ** (len(pts[0]) / 2.0)


# the stencil's error at h/2 must pass RESOLVED times its rounding scale
# eps sum W |psi| / (h/2)^2 for its ratio to be read; over 6 seeds of
# these blocks, principal and not, 4 slices and all kinds and pairs,
# |ratio - 4| was at most 0.0056 on the 797 of 1152 slices and pairs
# that passed, and at most 0.00023 above 100 times that floor
RESOLVED = 1000.0
RATIO_BAND = 0.01


@PROPERTY
@given(st.sampled_from([(1,), (1, 1), (2,), (2, 1)]), st.integers(0, 2**32 - 1),
       st.booleans(), st.integers(0, 2**16))
def test_the_old_stencil_converges_to_the_closed_form(blocks, spec_seed, principal, seed):
    # the central-difference stencil's error against _singular_psi's jet is
    # O(h^2): halving h divides it by 4, so the closed form is the h -> 0
    # limit of the route it replaced, cross pairs included
    spec = admissible_spec(blocks, spec_seed, principal)
    ctx, exps = KernelContext(spec), spec.exponents()
    R = 0.5
    h, eps = 2e-3 * R, np.finfo(float).eps
    z = sample_ball(spec, R / 2.0, 1, np.random.default_rng(seed))
    taus = z[0, -1] - np.array([1e-3, 0.02, 0.1, 0.3])
    pairs = [(i, j) for i in range(spec.m) for j in range(i, spec.m)]
    cells = resolved = 0
    for kind in ("const", "g1", "g2"):
        jet = _slice_integrals(spec, _singular_psi(kind, R, exps, spec.m),
                               np.repeat(z, len(taus), axis=0), taus, 12)
        psi = _singular_psi(kind, R, exps, 0)
        for s, tau in enumerate(taus.tolist()):
            pts, W, M = hermite_slice(ctx, z, tau, 12)
            values = psi(pts.T[None], np.array([tau]), None)[0][0]
            floor = (RESOLVED * eps * float(np.abs(values) @ W)
                     / math.pi ** (spec.N / 2.0) / (h / 2.0) ** 2)
            for p, (i, j) in enumerate(pairs, 1):
                err_h, err_h2 = (stencil_slice(psi, pts, W, tau, M, i, j, step) - jet[s, p]
                                 for step in (h, h / 2.0))
                cells += 1
                if abs(err_h2) >= floor:
                    resolved += 1
                    assert abs(err_h / err_h2 - 4.0) <= RATIO_BAND, (kind, tau, i, j)
    assert resolved >= cells / 3


def pow_psi(kind, R, exps, m):
    """The jet with the bump as it squared before: libm pow
    (np.float_power) in q and g, on the same (S, N, G) grid.  pow(x, 2) is
    not correctly rounded, so it can differ from the IEEE product x*x in
    the last bit.  Its Hessian contracts grad q = 2 x / s^2 and
    Hess q = diag(2 / s^2) with the directions by einsum, in another order
    than _singular_psi's sums."""
    scales = np.array([R**a for a in exps.alpha])
    hess_q = 2.0 / np.float_power(scales, 2.0)

    def psi(X, t, M):
        q = np.float_power(t / R**2, 2.0)[..., None]
        for i, s in enumerate(scales):
            q = q + np.float_power(X[..., i, :] / s, 2.0)
        bump, x0 = exp_nonpositive(-q), X[..., 0, :]
        if kind == "const":
            out = [bump]
        else:
            out = [bump * (x0 if kind == "g1" else np.float_power(x0, 2.0))]
        g, dg, hg = {"const": (1.0, 0.0, 0.0), "g1": (x0, 1.0, 0.0),
                     "g2": (np.float_power(x0, 2.0), 2.0 * x0, 2.0)}[kind]
        grad_q = hess_q[:, None] * X
        for i, j in ((i, j) for i in range(m) for j in range(i, m)):
            ai, aj = (np.einsum("sk,skg->sg", M[..., n], grad_q) for n in (i, j))
            cij = np.einsum("sk,sk,k->s", M[..., i], M[..., j], hess_q)[:, None]
            di0, dj0 = M[:, 0, i, None], M[:, 0, j, None]
            out.append(bump * (g * (ai * aj - cij) - dg * (ai * dj0 + aj * di0) + hg * di0 * dj0))
        return out

    return psi


def tie_squares(count, seed):
    """Values x in [sqrt 2, 2) whose square x*x lies exactly halfway between
    two doubles, with their neighbours: x = (2^26 + k) 2^-26 for odd k has
    a 54-bit square from 2 on.  libm pow(x, 2) breaks about half of these
    ties the other way."""
    k = 2 * np.random.default_rng(seed).integers(0, 2**25, count) + 1
    x = (2**26 + k) * 2.0**-26
    x = x[x * x >= 2.0]
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, 4.0)])


@pytest.mark.parametrize("kind", ["const", "g1", "g2"])
def test_bump_squares_by_multiplication_on_ties(kspec, kind):
    # R = 1, so every scale is 1 and each term is a plain square; one
    # coordinate (or the time) carries the values and the rest are 0, so
    # q is that one square and a pow-rounded square moves the bump
    x, exps, N = tie_squares(4000, 7), kspec.exponents(), kspec.N
    psi, old = _singular_psi(kind, 1.0, exps, 0), pow_psi(kind, 1.0, exps, 0)
    grids = []
    for i in range(N):  # one slice at t = 0, the values in coordinate i
        X = np.zeros((1, N, len(x)))
        X[0, i] = x
        grids.append((X, np.zeros(1)))
    grids.append((np.zeros((len(x), N, 1)), x))  # one slice per time
    def one(col, t):  # one node in Python floats, summed as psi sums
        q = t * t
        for v in col:
            q += v * v
        return math.exp(-q) * {"const": 1.0, "g1": col[0], "g2": col[0] * col[0]}[kind]

    moved = False
    for X, t in grids:
        got, = psi(X, t, None)
        want = [[one(col, ts) for col in Xs.T.tolist()] for Xs, ts in zip(X, t.tolist())]
        assert np.array_equal(got, want)
        moved |= bool((old(X, t, None)[0] != got).any())
    if platform.libc_ver()[0] == "glibc":  # its pow breaks some ties the other way
        assert moved


def test_singular_report_makes_no_float_power_call(monkeypatch, capsys):
    calls = []
    float_power = np.float_power
    monkeypatch.setattr(np, "float_power",
                        lambda *args, **kw: calls.append(args) or float_power(*args, **kw))
    assert run(["verify", "singular-g1", "--spec", str(SPEC_DIR / "kolmogorov.json"),
                "--R-list", "0.5,0.25"]) == 0
    capsys.readouterr()
    assert calls == []


def steps_in_band(rep):
    lo, hi = rep.details["expected_dyadic_step"] * np.array([0.5, 2.0])
    return [bool(lo <= s <= hi) for s in rep.ratios]


def close(a, b, rel=1e-10):
    return abs(a - b) <= rel * max(abs(a), abs(b))


@pytest.mark.parametrize("name", ["kolmogorov", "kinetic", "kinetic_drifted", "heat1d"])
def test_squares_by_multiplication_keep_the_pow_verdicts(name):
    # the reports of verify singular-* with the pow-rounded bump are a
    # tolerance oracle: the same verdict and step band outcomes, and every
    # float within 1e-10 relative (the worst move seen was about 6e-12 with
    # the stencil, and is 7.4e-16 with the closed-form jet)
    spec = load_spec(SPEC_DIR / f"{name}.json")
    for kind in ("const", "g1", "g2"):
        for seed in range(3):
            got = verify_singular_bounds(spec, kind, seed=seed)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "_singular_psi", pow_psi)
                want = verify_singular_bounds(spec, kind, seed=seed)
            assert got.verdict == want.verdict, (kind, seed)
            assert steps_in_band(got) == steps_in_band(want), (kind, seed)
            assert got.scaling.keys() == want.scaling.keys()
            assert all(close(got.scaling[R], want.scaling[R]) for R in got.scaling)
            assert close(got.fitted_constant, want.fitted_constant)
            assert len(got.ratios) == len(want.ratios)
            assert all(close(a, b) for a, b in zip(got.ratios, want.ratios)), (kind, seed)
