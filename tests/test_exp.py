"""E(t) and C(t) from the powers of their generators (matrixcalc.exp_rows)
against independent routes, over the generated admissible specs of
test_rows, principal and not: scipy's expm slice by slice, the finite
series in exact rational arithmetic, the semigroup law, quadrature of
the covariance integral and the dilation identity of C."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm
from quadrature import integrate_matrix
from test_rows import BLOCKS, K, PROPERTY, admissible_spec

from kolmo import AccuracyError, kernel_jet_rows, kolmogorov_spec
from kolmo import matrixcalc
from kolmo.group import block_generator, embedded_A
from kolmo.matrixcalc import TAYLOR_DEGREE, exp_rows, exp_table

EPS = np.finfo(float).eps
# |t| <= 8 takes the non-principal drifts through up to 6 squarings.  Next
# to scipy, on the largest entry of a slice: E and exp(t M) agree to within
# 2.6e-12 on 80 x 14 x 2 generated specs at 23 times each, C = G E^T to
# within 4.7e-11 of max|G| max|E|, where scipy's own C is off by up to 4e-5
# (against 50-digit mpmath) on the worst of them; ours by 8e-11
EXPM_RTOL = 1e-10
C_RTOL = 1e-9
# a principal drift's D C(1) D against the block route's C(t), as
# |C_ij - C_ij'| / sqrt(C_ii C_jj) on entries above tiny / eps: at most
# 11.4 eps over 10 seeds of the 14 principal BLOCKS at 303 times, 200 in
# [-8, 8] and 10^k for k = -150 .. 2
C_TOL = 32 * EPS

specs = st.builds(admissible_spec, st.sampled_from(BLOCKS),
                  st.integers(0, 2**32 - 1), st.booleans())
principal_specs = st.builds(admissible_spec, st.sampled_from(BLOCKS),
                            st.integers(0, 2**32 - 1), st.just(True))


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1))
def test_E_and_C_match_scipy_slice_by_slice(spec, seed):
    N = spec.N
    ts = np.random.default_rng(seed).uniform(-8.0, 8.0, K)
    E, C, M = spec.E(ts), spec.C(ts), block_generator(spec)
    for k, t in enumerate(ts):
        ref = expm(-t * spec.B)
        assert np.abs(E[k] - ref).max() <= EXPM_RTOL * np.abs(ref).max()
        Phi = expm(t * M)
        G, Et = Phi[:N, N:], Phi[:N, :N]
        ref = G @ Et.T
        ref = (ref + ref.T) / 2.0
        scale = np.abs(G).max() * np.abs(Et).max()
        assert np.abs(C[k] - ref).max() <= C_RTOL * scale


def exact_series(B, t):
    """exp(-t B) for a nilpotent B as the finite series in Fractions, from
    the float entries of B and t, rounded once; and the entrywise sum of
    the absolute terms."""
    n = len(B)
    Bq = [[Fraction(v) for v in row] for row in B.tolist()]
    term = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    acc = [row[:] for row in term]
    size = [[abs(v) for v in row] for row in term]
    for k in range(1, n + 1):
        term = [[sum(term[i][l] * Bq[l][j] for l in range(n)) * Fraction(-t) / k
                 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                acc[i][j] += term[i][j]
                size[i][j] += abs(term[i][j])
    return np.array(acc, dtype=float), np.array(size, dtype=float)


@PROPERTY
@given(principal_specs, st.integers(0, 2**32 - 1))
def test_principal_E_is_the_finite_series(spec, seed):
    for t in np.random.default_rng(seed).uniform(-8.0, 8.0, 5):
        want, size = exact_series(spec.B, float(t))
        # the table's powers, the running products of t and the sum round
        # a few times per term: a bound relative to the absolute terms
        assert (np.abs(spec.E(t) - want) <= 4 * spec.N * EPS * size).all()
    assert spec._exps["E"].norm == 0 and spec._exps["E"].shift == 0


def test_kolmogorov_E_is_exact():
    spec = kolmogorov_spec()
    ts = np.random.default_rng(0).uniform(-2.0, 2.0, 10_000)
    E, I = spec.E(ts), np.eye(2)
    assert all(np.array_equal(E[k], I - t * spec.B) for k, t in enumerate(ts))


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1))
def test_E_semigroup(spec, seed):
    for s, t in np.random.default_rng(seed).uniform(-4.0, 4.0, (5, 2)):
        Es, Et = spec.E(s), spec.E(t)
        scale = np.abs(Es).max() * np.abs(Et).max()
        assert np.abs(Es @ Et - spec.E(s + t)).max() <= 1e-12 * scale


@PROPERTY
@given(specs, st.floats(0.1, 2.0))
def test_C_three_ways(spec, t):
    # OperatorSpec.C against Gauss-Legendre quadrature of E(s) A~ E(s)^T
    # with E from scipy
    At = embedded_A(spec)
    ref = integrate_matrix(lambda s: expm(-s * spec.B) @ At @ expm(-s * spec.B).T, t)
    assert np.abs(spec.C(t) - ref).max() <= 1e-10 * np.abs(ref).max()
    if not spec.is_dilation_invariant():
        return
    # C(r^2 t) = D_r C(t) D_r for B = B_0, D_r = diag(r^alpha_i)
    for r in (0.5, 0.3, 2.0):
        D = np.diag(float(r) ** np.asarray(spec.exponents().alpha, dtype=float))
        want = D @ spec.C(t) @ D
        assert np.abs(spec.C(r * r * t) - want).max() <= 1e-12 * np.abs(want).max()


def nilpotent(table):
    """exp_table's mark of a nilpotent generator: no scaling."""
    return table.norm == 0 and table.shift == 0


def test_exp_table_finds_nilpotent_generators():
    spec = kolmogorov_spec(2)
    assert nilpotent(exp_table(-spec.B)) and len(exp_table(-spec.B).powers) == 2
    assert nilpotent(exp_table(block_generator(spec)))
    assert exp_table(np.zeros((3, 3))).powers.shape == (1, 3, 3)
    drifted = exp_table(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert not nilpotent(drifted) and len(drifted.powers) == TAYLOR_DEGREE + 1


def nilpotent_exp_rows(table, t):
    """exp_rows as it was before its nilpotent branch was folded into the
    scaled one, kept verbatim as the oracle: a nilpotent table took
    u_k = t_k and s_k = 0 without frexp or ldexp."""
    t = np.asarray(t, dtype=float)
    u = t.reshape(-1)
    P = table.powers
    step = max(1, matrixcalc.SERIES_BUDGET // P.nbytes)  # P.nbytes > one row's series terms
    if len(u) > step:
        return np.concatenate([nilpotent_exp_rows(table, u[k:k + step])
                               for k in range(0, len(u), step)]).reshape(t.shape + P[0].shape)
    s = np.zeros(len(u), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        if not nilpotent(table):  # an infinite |t_k| ||M||_1 leaves u_k infinite
            s = np.maximum(np.frexp(u * table.norm)[1], 0)
            u = np.ldexp(u, table.shift - s)
        c = u[:, None].repeat(len(P) - 1, axis=1)
        np.multiply.accumulate(c, axis=1, out=c)
        F = np.add.reduce(c[:, :, None, None] * P[1:], axis=1)
        top = s.max(initial=0)
        every = s.min() if top else 0  # the squarings that every row takes, unselected
        for j in range(top):
            G = np.matmul(F, F) + 2.0 * F
            F = G if j < every else np.where((s > j)[:, None, None], G, F)
        F += P[0]
    if not np.isfinite(F).all():
        raise AccuracyError("overflow in matrix exponential")
    return F.reshape(t.shape + P[0].shape)


def exp_bits(route, table, t):
    """The bytes of route(table, t), or the AccuracyError it raises."""
    try:
        return route(table, t).tobytes()
    except AccuracyError as err:
        return str(err)


def test_nilpotent_tables_sum_as_their_removed_branch():
    # every nilpotent table: -B and the block generator of each principal
    # admissible spec, the Kolmogorov operators and B = 0, at the edge
    # times one at a time (+-inf and nan raise where a power is non-zero)
    # and in one block, and at random times one by one, in one block and
    # with the edge times mixed in
    tables = [exp_table(np.zeros((n, n))) for n in (1, 2, 3)]
    for spec in [admissible_spec(blocks, seed, True) for blocks in BLOCKS for seed in (0, 1)
                 ] + [kolmogorov_spec(1), kolmogorov_spec(2)]:
        tables += [exp_table(-spec.B), exp_table(block_generator(spec))]
    assert all(nilpotent(table) for table in tables)
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(0)
    raised = 0
    for table in tables:
        times = np.concatenate([rng.uniform(-8.0, 8.0, K), 10.0 ** rng.uniform(-300, 300, K)])
        for t in list(edges) + list(times[:5]) + [edges, times, np.concatenate([times, edges])]:
            want = exp_bits(nilpotent_exp_rows, table, t)
            assert exp_bits(exp_rows, table, t) == want, (table.powers.shape, t)
            raised += isinstance(want, str)
    assert raised > 0


def test_exp_rows_shapes_and_overflow(drifted):
    table = exp_table(np.array([[1.0]]))
    assert exp_rows(table, 0.5).shape == (1, 1)
    assert exp_rows(table, np.array([0.5, 1.0])).shape == (2, 1, 1)
    assert exp_rows(table, np.empty(0)).shape == (0, 1, 1)
    assert exp_rows(table, 3.0)[0, 0] == pytest.approx(math.exp(3.0), rel=1e-15)
    with pytest.raises(AccuracyError):
        exp_rows(table, np.array([1.0, 1e4]))
    generic = exp_table(-drifted.B)
    for t in (1e308, np.array([1e308]), np.array([1.0, -1e308]), np.nan):
        with warnings.catch_warnings():  # |t| ||M||_1 overflows, silently
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError):
                exp_rows(generic, t)
    with pytest.raises(AccuracyError):
        drifted.E(-1e5)


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1), st.integers(1, 3 * K))
def test_exp_rows_chunks_keep_every_bit(spec, seed, budget_rows):
    # a block of times goes in chunks of rows; any chunk size, one row
    # included, gives the same bits as one chunk
    ts = np.random.default_rng(seed).uniform(-8.0, 8.0, 3 * K)
    tables = (exp_table(-spec.B), exp_table(block_generator(spec)),
              exp_table(np.zeros((spec.N, spec.N))))  # one power, no series
    whole = [exp_rows(table, ts) for table in tables]
    with pytest.MonkeyPatch.context() as mp:
        for budget in (1, budget_rows * tables[1].powers.nbytes):
            mp.setattr(matrixcalc, "SERIES_BUDGET", budget)
            for table, want in zip(tables, whole):
                assert np.array_equal(exp_rows(table, ts), want)


def full_square_C(spec, ts):
    """C(t) by the block route: the full (K, 2N, 2N) block exponential,
    G E^T, symmetrised."""
    N = spec.N
    Phi = exp_rows(exp_table(block_generator(spec)), ts)
    C = Phi[:, :N, N:] @ np.swapaxes(Phi[:, :N, :N], -1, -2)
    return (C + np.swapaxes(C, -1, -2)) / 2.0


def assert_C_close(got, want):
    """A principal drift's C(t) against the block route's, on the entries
    whose scale is well above the subnormal range."""
    scale = np.sqrt(np.abs(np.diagonal(want, axis1=-2, axis2=-1)))
    scale = scale[..., :, None] * scale[..., None, :]
    normal = scale > np.finfo(float).tiny / EPS
    assert (np.abs(got - want)[normal] <= C_TOL * scale[normal]).all()


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1), st.integers(1, 3 * K))
def test_C_chunks_keep_every_bit(spec, seed, budget_rows):
    # OperatorSpec.C forms its block exponentials in exp_rows's chunks of
    # rows; one row at a time, any chunk size and the default budget give
    # the bits of one chunk, of each time's own K = 1 call and, on a
    # non-principal drift, of the full square's top block row.  A
    # principal drift's D C(1) D, which sums no series per time, meets
    # the square within C_TOL
    ts = np.random.default_rng(seed).uniform(-8.0, 8.0, 3 * K)
    spec.C(ts[0])  # builds the exponential table
    row_bytes, default = spec._shared["C"].powers.nbytes, matrixcalc.SERIES_BUDGET
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrixcalc, "SERIES_BUDGET", len(ts) * row_bytes)
        whole = spec.C(ts)
        if spec.homogeneous() is None:
            assert np.array_equal(whole, full_square_C(spec, ts))
        else:
            assert_C_close(whole, full_square_C(spec, ts))
        assert all(np.array_equal(spec.C(ts[k:k + 1])[0], whole[k]) for k in range(len(ts)))
        assert np.array_equal(spec.C(ts[0]), whole[0])
        for size in (1, budget_rows * row_bytes, default):
            mp.setattr(matrixcalc, "SERIES_BUDGET", size)
            assert np.array_equal(spec.C(ts), whole)


def test_C_matches_the_full_square_on_every_block_structure():
    # non-principal drifts (the square, ==) and principal ones (D C(1) D,
    # within C_TOL) on every block structure, and the Kolmogorov operators
    # (m = 2 is the apriori workload's spec), down to the times where C(t)
    # underflows, and one time at a time
    ts = np.concatenate([np.random.default_rng(0).uniform(-8.0, 8.0, K),
                         10.0 ** np.arange(-150.0, 3.0)])
    specs = [admissible_spec(blocks, seed, principal) for blocks in BLOCKS
             for principal in (True, False) for seed in (0, 1)]
    specs += [kolmogorov_spec(1), kolmogorov_spec(2)]
    homogeneous = 0
    for spec in specs:
        want, got = full_square_C(spec, ts), spec.C(ts)
        if spec.homogeneous() is None:
            assert np.array_equal(got, want)
        else:
            assert_C_close(got, want)
            homogeneous += 1
        assert all(np.array_equal(spec.C(ts[k]), got[k]) for k in (0, K, len(ts) - 1))
        assert spec._shared["C"].powers.shape[1:] == (2 * spec.N, 2 * spec.N)
    assert homogeneous == 2 * len(BLOCKS) + 2


def test_a_six_level_kernel_call_keeps_its_series_in_budget():
    # 4,096 rows of C(t) on a six-level non-principal spec: all series
    # terms at once, (4096, 18, 12, 12) floats, peaked at 90.6 MB; in
    # chunks within SERIES_BUDGET the call peaks at 9.9 MB
    spec = admissible_spec((1,) * 6, 0, False)
    rng = np.random.default_rng(0)
    Z = rng.uniform(-1.0, 1.0, (4096, spec.N + 1))
    Z[:, -1] = rng.uniform(0.1, 1.0, len(Z))
    P = np.zeros((1, spec.N + 1))
    kernel_jet_rows(spec, Z[:2], P)  # the exponential tables are built once
    tracemalloc.start()
    try:
        kernel_jet_rows(spec, Z, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
