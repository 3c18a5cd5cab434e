"""The singular-bounds quadrature and the kernel convolution against the
per-slice route they replaced: one Gauss-Hermite slice at a time, its
covariance, square root and E(-dt) made alone, and the bump summed row
by row in Python floats (squares v * v, math.exp).  The block route must
give exactly (==) the same values over generated admissible specs, also
when its chunks hold only a few slices, and factorise each block once.
The bump squares by multiplication, not libm pow: exactly on ties where
the two differ, with no float_power call in a report, and the reports of
the pow-rounded bump stay a tolerance oracle for the verdicts."""

import math
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
from kolmo.verify import _FAMILIES, _hermite_grid, _singular_psi

from convolution import convolve_solution
from test_rows import admissible_spec

PROPERTY = settings(derandomize=True, database=None, max_examples=12,
                    deadline=None)
# a chunk bound of None keeps ROW_CHUNK; a small one cuts every block
# into chunks of one or a few slices
CHUNKS = st.one_of(st.none(), st.integers(1, 3000))
SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"


def dilated_bump(R, X, t, exps):
    """The scale-R Gaussian bump at the rows of X, all at time t, one
    Python float sum and one math.exp per row."""
    scales = [R**a for a in exps.alpha]
    v = float(t) / R**2
    q0 = v * v
    out = []
    for row in X.tolist():
        q = q0
        for xi, s in zip(row, scales):
            v = xi / s
            q += v * v
        out.append(math.exp(-q))
    return np.array(out)


def singular_psi(kind, R, exps):
    def g(X):
        if kind == "const":
            return np.ones(len(X))
        if kind == "g1":
            return X[:, 0]
        return np.array([x * x for x in X[:, 0].tolist()])

    return lambda X, t: dilated_bump(R, X, t, exps) * g(X)


def hermite_slice(ctx, z, tau, nodes_x):
    spec = ctx.spec
    dt = z[0, -1] - tau
    S = sqrt_spd(2.0 * covariance(ctx, dt).C)
    Y, W = _hermite_grid(nodes_x, spec.N)
    M = spec.E(-dt)
    pts = (z[:, :-1] - (math.sqrt(2.0) * (Y @ S.T))) @ M.T
    return pts, W, M


def d2_slice(ctx, psi, z, tau, i, j, h, nodes_x):
    spec = ctx.spec
    pts, W, M = hermite_slice(ctx, z, tau, nodes_x)
    di, dj = h * M[:, i], h * M[:, j]

    def vals(offset):
        return psi(pts + offset, tau)

    if i == j:
        dd = (vals(di) - 2.0 * vals(np.zeros(spec.N)) + vals(-di)) / h**2
    else:
        dd = (vals(di + dj) - vals(di - dj) - vals(-di + dj) + vals(-di - dj)) / (4.0 * h**2)
    return float(dd @ W) / math.pi ** (spec.N / 2.0)


def d2_convolved(ctx, psi, z, i, j, t_lo, h, nodes_t=12, nodes_x=12):
    t = float(z[0, -1])
    smax = math.sqrt(t - t_lo)
    nodes, wts = leggauss(nodes_t)
    total = 0.0
    for s, w in zip(nodes, wts):
        sigma = 0.5 * smax * (s + 1.0)
        tau = t - sigma * sigma
        total += w * 0.5 * smax * 2.0 * sigma * d2_slice(ctx, psi, z, tau, i, j, h, nodes_x)
    return total


def singular_scaling(ctx, kind, R_list, samples, seed, fd_rel=2e-3):
    """verify_singular_bounds' scaling, one point, (i, j) and slice at a time."""
    spec = ctx.spec
    rng = np.random.default_rng(seed)
    scaling = {}
    for R in R_list:
        psi = singular_psi(kind, R, spec.exponents())
        worst = 0.0
        Z = sample_ball(spec, R / 2.0, samples, rng)
        early = Z[:, -1] <= -(R * R) * 0.9
        Z[early, -1] = np.abs(Z[early, -1])
        for k in range(len(Z)):
            for i in range(spec.m):
                for j in range(i, spec.m):
                    d2 = d2_convolved(ctx, psi, Z[k:k + 1], i, j,
                                      t_lo=-(R * R) * 1.0001, h=fd_rel * R)
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
        total += w * half * (float(vals @ W) / math.pi ** (ctx.spec.N / 2.0))
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


def pow_psi(kind, R, exps):
    """The bump as it squared before: libm pow (np.float_power), on the
    same (..., S, N, G) grid.  pow(x, 2) is not correctly rounded, so it
    can differ from the IEEE product x*x in the last bit."""
    scales = [R**a for a in exps.alpha]

    def psi(X, t):
        q = np.float_power(t / R**2, 2.0)[..., None]
        for i, s in enumerate(scales):
            q = q + np.float_power(X[..., i, :] / s, 2.0)
        bump = exp_nonpositive(-q)
        if kind == "const":
            return bump
        return bump * (X[..., 0, :] if kind == "g1" else np.float_power(X[..., 0, :], 2.0))

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
    psi, old = _singular_psi(kind, 1.0, exps), pow_psi(kind, 1.0, exps)
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
        got = psi(X, t)
        want = [[one(col, ts) for col in Xs.T.tolist()] for Xs, ts in zip(X, t.tolist())]
        assert np.array_equal(got, want)
        moved |= bool((old(X, t) != got).any())
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
    # float within 1e-10 relative (the worst move seen was about 6e-12)
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
