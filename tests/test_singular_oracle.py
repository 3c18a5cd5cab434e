"""The singular-bounds quadrature and the kernel convolution against the
per-slice route they replaced: one Gauss-Hermite slice at a time, its
covariance, square root and E(-dt) made alone, and the bump summed row
by row in Python floats (libm pow, math.exp).  The block route must give
exactly (==) the same values over generated admissible specs, also when
its chunks hold only a few slices, and factorise each block once."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from kolmo import KernelContext, convolve_solution, sample_ball, verify_singular_bounds
from kolmo import verify
from kolmo.kernel import covariance
from kolmo.matrixcalc import sqrt_spd
from kolmo.verify import _FAMILIES, _hermite_grid

from test_rows import admissible_spec

PROPERTY = settings(derandomize=True, database=None, max_examples=12,
                    deadline=None)
# a chunk bound of None keeps QUAD_ROWS; a small one cuts every block
# into chunks of one or a few slices
CHUNKS = st.one_of(st.none(), st.integers(1, 3000))


def dilated_bump(R, X, t, exps):
    """The scale-R Gaussian bump at the rows of X, all at time t, one
    Python float sum and one math.exp per row."""
    scales = [R**a for a in exps.alpha]
    q0 = (float(t) / R**2) ** 2
    out = []
    for row in X.tolist():
        q = q0
        for xi, s in zip(row, scales):
            q += (xi / s) ** 2
        out.append(math.exp(-q))
    return np.array(out)


def singular_psi(kind, R, exps):
    def g(X):
        if kind == "const":
            return np.ones(len(X))
        if kind == "g1":
            return X[:, 0]
        return np.array([x**2 for x in X[:, 0].tolist()])

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
    """QUAD_ROWS set to ``rows``, unless it is None."""
    if rows is not None:
        mp.setattr(verify, "QUAD_ROWS", rows)


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
        for kind in ("const", "g1", "g2"):
            got = verify_singular_bounds(ctx.spec, kind, R_list, samples=2, seed=seed)
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
        return np.sum(spec.A * bundle.hess_m(Z), axis=(1, 2)) + bundle.Yu(Z)

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
    # R) and once per convolve_solution pass; QUAD_ROWS chunks only the grid
    spec = admissible_spec(blocks, spec_seed, principal)
    calls = {"C": 0, "slices": 0}
    z = sample_ball(spec, 0.5, 1, np.random.default_rng(spec_seed))
    with pytest.MonkeyPatch.context() as mp:
        chunk_bound(mp, rows)
        mp.setattr(verify, "_checked_C", counting(calls, "C", verify._checked_C))
        mp.setattr(verify, "_slice_integrals",
                   counting(calls, "slices", verify._slice_integrals))
        verify_singular_bounds(spec, "g1", (0.5, 0.25), samples=2, seed=0)
        assert calls == {"C": 2, "slices": 2}
        for nt, nx in ((9, 4), (16, 6)):
            calls["C"] = 0
            convolve_solution(spec, lambda Z: Z[:, 0], z, -1.0, nodes_t=nt,
                              nodes_x=nx, check=False)
            assert calls["C"] == 1, (nt, nx)
