"""Row blocks against K = 1: every group operation, the samplers, the
bundle fields, the finite-difference operators and the kernel jet give,
on a (K, N+1) block, exactly (==) what they give one point at a time,
over generated admissible specs.
Independent scalar oracles pin the rounding rules: libm pow in the
quasi-norm, the cutoff and the Gaussian bundle's time term, and libm exp
through numpy's complex exp in the singular-bounds bump.
The kernel also meets its PDE and its mass identity on those specs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmo import (
    DomainError,
    KernelContext,
    Point,
    apply_L_fd,
    compose_rows,
    connect,
    dilate_rows,
    gamma,
    gamma_grad,
    gamma_hess_m,
    gaussian_bundle,
    inverse_rows,
    kdist_rows,
    kernel_jet_rows,
    kernel_mass,
    knorm_rows,
    make_spec,
    quadratic_bundle,
    sample_ball,
    verify_plan,
)
from kolmo.errors import NonConvergenceError
from kolmo.group import finite_rows
from kolmo.matrixcalc import exp_nonpositive, matvec_rows
from kolmo.modulus import _scaled_pairs
from kolmo.taylor import C2Bundle, flow_Y_rows, richardson
from kolmo.verify import _coeff_field

# Non-increasing block sizes with m in {1, 2} and N <= 6.
BLOCKS = [
    (1,), (1, 1), (1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    (2,), (2, 1), (2, 2), (2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 1, 1, 1),
    (2, 2, 1, 1),
]
K = 23
PROPERTY = settings(derandomize=True, database=None, max_examples=30,
                    deadline=None)


def admissible_spec(blocks, seed, principal):
    """A random spec with the given blocks: SPD A, full-rank subdiagonal
    blocks, zero blocks below them and, unless ``principal``, random
    blocks on and above the diagonal (a non-principal drift)."""
    rng = np.random.default_rng(seed)
    m, N = blocks[0], sum(blocks)
    L = rng.uniform(-1.0, 1.0, (m, m))
    A = L @ L.T + 0.5 * np.eye(m)
    starts = np.cumsum((0,) + blocks)
    B = np.zeros((N, N))
    for i in range(len(blocks)):
        rows = slice(starts[i], starts[i + 1])
        for j in range(i - 1, len(blocks)):
            if j < 0 or (principal and j >= i):
                continue
            cols = slice(starts[j], starts[j + 1])
            blk = rng.uniform(-1.0, 1.0, (blocks[i], blocks[j]))
            if j == i - 1:  # full row rank: a dominant identity part
                blk[:, : blocks[i]] += 2.0 * np.eye(blocks[i])
            B[rows, cols] = blk
    return make_spec(A, B, blocks)


specs = st.builds(admissible_spec, st.sampled_from(BLOCKS),
                  st.integers(0, 2**32 - 1), st.booleans())


def random_rows(spec, rng, count=K):
    return rng.uniform(-1.0, 1.0, (count, spec.N + 1))


def points(Z):
    """The rows of a row block as Points."""
    return [Point(z[:-1], z[-1]) for z in Z]


def lie_derivative_fd(u, Z, spec, h=1e-5):
    """Central flow-difference approximation of Yu at the rows of Z, with
    a Richardson check; u is called once per step, on both flows."""
    if h <= 0.0:
        raise DomainError("step must be positive")
    Z = finite_rows(Z)

    def central(step):
        fwd, bwd = u(np.vstack([flow_Y_rows(step, Z, spec),
                                flow_Y_rows(-step, Z, spec)])).reshape(2, len(Z))
        return (fwd - bwd) / (2.0 * step)

    return richardson(central(h), central(h / 2.0),
                      "drift derivative did not converge under refinement")


def one_row_at_a_time(f, *blocks):
    """f on the one-row slices k of the blocks, its results stacked."""
    return np.concatenate([f(*(B[k:k + 1] for B in blocks)) for k in range(len(blocks[0]))])


def libm_knorm(z, alpha):
    """The quasi-norm of one row in Python floats: libm pow throughout."""
    return max([abs(z[-1]) ** 0.5]
               + [abs(x) ** (1.0 / a) for x, a in zip(z, alpha)])


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1))
def test_group_rows_match_points(spec, seed):
    # every group operation on K rows == the same call on each one-row slice
    rng = np.random.default_rng(seed)
    exps = spec.exponents()
    Z, W = random_rows(spec, rng), random_rows(spec, rng)
    r = np.exp(rng.uniform(math.log(2.0**-20), 0.0, K))
    assert np.array_equal(compose_rows(Z, W, spec), one_row_at_a_time(
        lambda z, w: compose_rows(z, w, spec), Z, W))
    assert np.array_equal(inverse_rows(Z, spec), one_row_at_a_time(
        lambda z: inverse_rows(z, spec), Z))
    assert np.array_equal(dilate_rows(r, Z, exps), one_row_at_a_time(
        lambda s, z: dilate_rows(s, z, exps), r, Z))
    assert np.array_equal(dilate_rows(0.3, Z, exps), one_row_at_a_time(
        lambda z: dilate_rows(0.3, z, exps), Z))
    assert knorm_rows(Z, exps).tolist() == one_row_at_a_time(
        lambda z: knorm_rows(z, exps), Z).tolist()
    assert knorm_rows(Z, exps).tolist() == [libm_knorm(z, exps.alpha)
                                            for z in Z.tolist()]
    assert kdist_rows(Z, W, spec).tolist() == one_row_at_a_time(
        lambda z, w: kdist_rows(z, w, spec), Z, W).tolist()
    # d(z, w) is the quasi-norm of w^{-1} o z, one K = 1 step at a time
    assert kdist_rows(Z, W, spec).tolist() == one_row_at_a_time(
        lambda z, w: knorm_rows(compose_rows(inverse_rows(w, spec), z, spec), exps),
        Z, W).tolist()


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.builds(admissible_spec, st.sampled_from([b for b in BLOCKS if len(b) <= 3]),
                 st.integers(0, 2**32 - 1), st.booleans()),
       st.integers(0, 2**32 - 1))
def test_plan_length_is_the_in_order_sum_of_segment_distances(spec, seed):
    # verify_plan's one kdist_rows call == one call per segment, summed in
    # order; at most three levels keep the generic-drift planner fast
    z, zeta = 0.5 * random_rows(spec, np.random.default_rng(seed), 2)
    try:
        plan = connect(z, zeta, spec)
    except NonConvergenceError as err:  # the plan so far still has a length
        plan = err.plan
    length = 0.0
    for seg in plan.segments:
        length += kdist_rows(seg.end[None], seg.start[None], spec)[0]
    assert plan.segments and verify_plan(plan, spec)["length"] == length


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1))
def test_sample_ball_rows_match_one_draw_at_a_time(spec, seed):
    block = sample_ball(spec, 0.7, K, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    single = [sample_ball(spec, 0.7, 1, rng)[0] for _ in range(K)]
    assert block.shape == (K, spec.N + 1)
    assert np.array_equal(block, single)


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1))
def test_scaled_pairs_rows_match_the_point_loop(spec, seed):
    exps = spec.exponents()
    r_min, radius = 2.0**-20, 0.8
    pairs = _scaled_pairs(spec, radius, K, np.random.default_rng(seed), r_min)
    # the same stream drawn and mapped one row at a time
    rng = np.random.default_rng(seed)
    base = np.exp(rng.uniform(math.log(r_min), 0.0, size=K))
    sep = np.exp(rng.uniform(math.log(r_min), 0.0, size=K))
    for k in range(K):
        raw = rng.uniform(-1.0, 1.0, size=(1, spec.N + 1))
        z = dilate_rows(base[k] * radius, raw, exps)
        raw2 = rng.uniform(-1.0, 1.0, size=(1, spec.N + 1))
        zeta = compose_rows(z, dilate_rows(sep[k] * radius, raw2, exps), spec)
        assert np.array_equal(pairs[k], np.vstack([z, zeta]))


def coordinate_bundle(spec, index):
    """u = x_index for a higher-level coordinate (index >= m)."""
    m = spec.m
    if index < m:
        return quadratic_bundle(spec, a=np.eye(spec.m)[index])

    def u(Z):
        return Z[:, index].copy()

    def grad_m(Z):
        return np.zeros((len(Z), m))

    def hess_Yu(Z):
        return np.zeros((len(Z), m, m)), matvec_rows(spec.B, Z[:, :-1])[:, index]

    return C2Bundle(u=u, grad_m=grad_m, hess_Yu=hess_Yu)


def bundles(spec, rng):
    m, N = spec.m, spec.N
    return [
        quadratic_bundle(spec, c0=rng.uniform(-1, 1), a=rng.uniform(-1, 1, m),
                         H=rng.uniform(-1, 1, (m, m)), bt=rng.uniform(-1, 1)),
        coordinate_bundle(spec, N - 1),
        gaussian_bundle(spec, center_x=rng.uniform(-0.5, 0.5, N),
                        center_t=rng.uniform(-0.5, 0.5),
                        width_x=rng.uniform(0.5, 1.5, N),
                        width_t=rng.uniform(0.2, 1.0),
                        amplitude=rng.uniform(0.5, 2.0)),
    ]


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1))
def test_bundle_rows_match_points(spec, seed):
    rng = np.random.default_rng(seed)
    Z = random_rows(spec, rng)
    for bundle in bundles(spec, rng):
        for field, fn in (("u", bundle.u), ("grad_m", bundle.grad_m),
                          ("hess_m", lambda Z: bundle.hess_Yu(Z)[0]),
                          ("Yu", lambda Z: bundle.hess_Yu(Z)[1])):
            rows = fn(Z)
            assert rows.shape[0] == K
            assert np.array_equal(rows, [fn(Z[k:k + 1])[0] for k in range(K)]), field


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1))
def test_fd_operators_rows_match_one_row_slices(spec, seed):
    # the stencil of K rows is one block; each row's values are those of
    # its own one-row call, with and without a coefficient field
    rng = np.random.default_rng(seed)
    Z = 0.5 * random_rows(spec, rng)
    sin1, _ = _coeff_field("sin1", spec)

    def one_row_slices(call):
        return np.concatenate([call(Z[k:k + 1]) for k in range(K)])

    for bundle in bundles(spec, rng):
        for call in (lambda W: apply_L_fd(spec, bundle.u, W),
                     lambda W: apply_L_fd(spec, bundle.u, W, varcoeff=sin1),
                     lambda W: lie_derivative_fd(bundle.u, W, spec)):
            rows = call(Z)
            assert rows.shape == (K,)
            assert np.array_equal(rows, one_row_slices(call))


def test_gaussian_time_term_squares_python_floats(kspec):
    # the scalar form: numpy square in x, a Python-float square in t
    # (numpy's x*x and libm pow(x, 2) differ on ~0.1% of these values)
    c, ct, wx, wt, amp = np.array([0.2, -0.1]), -0.1, 0.8, 0.7, 1.7
    bundle = gaussian_bundle(kspec, center_x=c, center_t=ct, width_x=wx,
                             width_t=wt, amplitude=amp)
    Z = random_rows(kspec, np.random.default_rng(5), 20_000)
    want = [amp * np.exp(-(np.sum(((z[:-1] - c) / wx) ** 2)
                           + ((float(z[-1]) - ct) / wt) ** 2)) for z in Z]
    assert bundle.u(Z).tolist() == want


def test_float_power_is_libm_pow():
    # the rounding rule of knorm_rows, cutoff_eta and the Gaussian bundle's
    # time term: np.float_power calls libm pow, as a Python float ** does
    # (np.power and x*x round differently)
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(0.0, 1.0, 40_000),
                        np.exp(rng.uniform(-745.0, 709.0, 40_000)),
                        np.exp(rng.uniform(-20.0, 20.0, 20_000)),
                        [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308]])
    for p in (0.5, 1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0, 2.0, 3.0):
        # a Python float ** raises OverflowError where the power overflows
        v = x[x < 1e100] if p > 1.0 else x
        for vals in (v, -v) if p > 1.0 else (v,):
            got = np.float_power(vals, p)
            want = np.array([e ** p for e in vals.tolist()])
            assert np.array_equal(got, want), (p, int((got != want).sum()))


def test_complex_exp_is_libm_exp():
    # the rounding rule of the singular-bounds bump: numpy's complex exp
    # calls libm cexp, whose real part at x + 0i is libm exp, as math.exp
    # (the real np.exp rounds differently on some arguments)
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(-800.0, 0.0, 100_000),
                        rng.uniform(-750.0, -700.0, 50_000),
                        -np.exp(rng.uniform(-40.0, 4.0, 50_000)),
                        [0.0, -0.0, -5e-324, -745.13, -745.14, -1e308]])
    with np.errstate(all="raise"):  # underflow to a subnormal or 0 is no error
        got = exp_nonpositive(x)
    want = np.array([math.exp(v) for v in x.tolist()])
    assert np.array_equal(got, want), int((got != want).sum())
    assert np.array_equal(np.signbit(got), np.signbit(want))
    for bad in (1e-300, 1.0, 710.0):
        with pytest.raises(DomainError):
            exp_nonpositive(np.array([-1.0, bad]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rows_reject_non_finite(kspec, bad):
    exps = kspec.exponents()
    Z = random_rows(kspec, np.random.default_rng(1), 4)
    Z[2, 1] = bad
    W = random_rows(kspec, np.random.default_rng(2), 4)
    for call in (lambda: compose_rows(Z, W, kspec),
                 lambda: compose_rows(W, Z, kspec),
                 lambda: inverse_rows(Z, kspec),
                 lambda: dilate_rows(0.5, Z, exps),
                 lambda: knorm_rows(Z, exps),
                 lambda: kdist_rows(Z, W, kspec),
                 lambda: kdist_rows(W, Z, kspec)):
        with np.errstate(invalid="ignore"), pytest.raises(DomainError):
            call()
    # finite rows whose image overflows are refused as well
    huge = np.array([[1e308, 1e308, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(DomainError):
        compose_rows(huge, huge, kspec)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
        dilate_rows(1e200, huge, exps)


def kernel_rows(spec, rng, count=K, one_pole=False):
    """Points Z above poles P with z - zeta at the kernel's own scale:
    t - tau in [0.5, 1.5], where C is well conditioned on every generated
    spec, and x = E(t - tau) xi + V sqrt(lambda) u with C = V lambda V^T
    and u uniform in the unit box, so Gamma stays far from underflow.
    ``one_pole`` repeats one pole on every row."""
    P = random_rows(spec, rng, 1 if one_pole else count)
    P = np.repeat(P, count // len(P), axis=0)
    dt = rng.uniform(0.5, 1.5, count)
    lam, V = np.linalg.eigh(spec.C(dt))
    u = np.sqrt(lam) * rng.uniform(-1.0, 1.0, (count, spec.N))
    Z = np.empty_like(P)
    Z[:, :-1] = matvec_rows(spec.E(dt), P[:, :-1]) + matvec_rows(V, u)
    Z[:, -1] = P[:, -1] + dt
    return Z, P


JET_FIELDS = ("gamma", "grad", "hess", "Y")


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1))
def test_kernel_jet_rows_match_one_row_at_a_time(spec, seed):
    rng = np.random.default_rng(seed)
    pole_per_row, one_pole = kernel_rows(spec, rng), kernel_rows(spec, rng, one_pole=True)
    # a pole per row, and one pole row paired with every row
    for Z, poles in (pole_per_row, (one_pole[0], one_pole[1][:1])):
        jet = kernel_jet_rows(spec, Z, poles)
        assert np.array_equal(kernel_jet_rows(spec, Z, poles, derivatives=False),
                              jet.gamma)
        for k in range(K):
            one = kernel_jet_rows(spec, Z[k:k + 1], poles[k % len(poles)][None])
            for field in JET_FIELDS:
                assert np.array_equal(getattr(jet, field)[k],
                                      getattr(one, field)[0]), field
    # the Point wrappers are K = 1 calls
    Z, P = pole_per_row
    ctx, jet, m = KernelContext(spec), kernel_jet_rows(spec, Z, P), spec.m
    for k, (z, zeta) in enumerate(zip(points(Z[:5]), points(P[:5]))):
        assert gamma(ctx, z, zeta) == jet.gamma[k]
        assert np.array_equal(gamma_grad(ctx, z, zeta), jet.grad[k])
        assert np.array_equal(gamma_hess_m(ctx, z, zeta), jet.hess[k, :m, :m])
    # Gamma vanishes on and below the pole time, whatever the other rows
    Z[::2, -1] = P[::2, -1] - np.arange(0, K, 2) / K
    values = kernel_jet_rows(spec, Z, P, derivatives=False)
    assert not values[::2].any() and np.array_equal(
        values[1::2], kernel_jet_rows(spec, Z[1::2], P[1::2], derivatives=False))


@PROPERTY
@given(specs, st.integers(0, 2**32 - 1))
def test_kernel_jet_rows_solve_the_pde(spec, seed):
    # sum a_ij d2_ij Gamma + Y Gamma = 0 row by row, relative to its terms
    Z, P = kernel_rows(spec, np.random.default_rng(seed))
    jet, m = kernel_jet_rows(spec, Z, P), spec.m
    second = np.sum(spec.A * jet.hess[:, :m, :m], axis=(1, 2))
    scale = np.maximum(np.abs(second), np.abs(jet.Y))
    assert (scale > 0.0).all()
    assert (np.abs(second + jet.Y) <= 1e-6 * scale).all()


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(st.sampled_from([(1,), (1, 1), (2,)]), st.integers(0, 2**32 - 1),
       st.booleans(), st.floats(0.1, 1.0))
def test_kernel_mass_is_exp_minus_t_trace(blocks, seed, principal, t):
    # N <= 2: the fine tensor grid of kernel_mass has 128^N points.  t <= 1:
    # later, on some non-principal drifts C(t) is so correlated (|corr| >
    # 0.97) that the axis-aligned grid does not converge (AccuracyError)
    spec = admissible_spec(blocks, seed, principal)
    mass = kernel_mass(spec, t)
    assert abs(mass / math.exp(-t * np.trace(spec.B)) - 1.0) < 1e-6
