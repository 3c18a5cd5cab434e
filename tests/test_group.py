import numpy as np
import pytest

from kolmo import (
    compose_rows,
    dilate_rows,
    inverse_rows,
    kdist_rows,
    knorm_rows,
    load_spec,
    make_spec,
    mat_exp,
    sample_ball,
    scaled_B,
)
from kolmo.errors import DomainError, EllipticityError, StructureError
from kolmo.group import BlockStructure, OperatorSpec, level_map_solve, project_level
from kolmo.kernel import _checked_C


# Test-only helpers: the scaled-drift composition and an empirical
# pseudo-triangle constant, which no command-line path uses.


def compose_r(z, zeta, spec, r):
    """Composition of (1, N+1) row blocks under the scaled drift B_r;
    agrees with o at r = 1."""
    Er = mat_exp(-zeta[0, -1] * scaled_B(spec, r))
    return np.append(zeta[0, :-1] + Er @ z[0, :-1], z[0, -1] + zeta[0, -1])[None]


def estimate_triangle_constant(spec, radius, samples=10_000, seed=0):
    """Empirical pseudo-triangle constant over sampled pairs in a ball:
    the largest ||z^{-1}|| / ||z|| and ||z o zeta|| / (||z|| + ||zeta||)."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    if samples < 100:
        raise DomainError("need at least 100 samples")
    exps = spec.exponents()
    pts = sample_ball(spec, radius, samples, np.random.default_rng(seed))
    Z, W = pts[0:samples - 1:2], pts[1::2]
    nz, nw = knorm_rows(Z, exps), knorm_rows(W, exps)
    inv = knorm_rows(inverse_rows(Z, spec), exps)[nz > 1e-12] / nz[nz > 1e-12]
    apart = nz + nw > 1e-12
    prod = knorm_rows(compose_rows(Z, W, spec), exps)[apart] / (nz + nw)[apart]
    return float(max(1.0, inv.max(initial=1.0), prod.max(initial=1.0)))


def _random_point(rng, N, scale=1.5):
    """A random (1, N+1) row block."""
    return np.append(rng.uniform(-scale, scale, size=N), rng.uniform(-scale, scale))[None]


def test_kolmogorov_exponents(kspec):
    exps = kspec.exponents()
    assert exps.alpha == (1, 3)
    assert exps.Q == 4
    assert kspec.is_dilation_invariant()


def test_rank_deficient_subdiagonal_rejected():
    # zero B_1 block cannot span the second level
    with pytest.raises(StructureError, match="level 1"):
        make_spec(np.eye(1), np.zeros((2, 2)), (1, 1))


def test_structure_rejects_below_subdiagonal_block(kappa2):
    B = np.array(kappa2.B)
    B[2, 0] = 0.5
    with pytest.raises(StructureError, match=r"\(2,0\)"):
        make_spec(np.eye(1), B, (1, 1, 1))


def test_bad_A_rejected():
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(EllipticityError):
        make_spec(np.array([[-1.0]]), B, (1, 1))
    with pytest.raises(StructureError):
        make_spec(np.eye(2), B, (1, 1))  # wrong A shape for m = 1


def test_block_sizes_must_not_increase():
    with pytest.raises(StructureError):
        make_spec(np.eye(1), np.zeros((3, 3)), (1, 2))


def test_load_spec_declared_shape_mismatch(tmp_path):
    with pytest.raises(StructureError):
        load_spec({"N": 3, "A": [[1.0]], "B": [[0.0, 0.0], [1.0, 0.0]],
                   "blocks": [1, 1]})


def test_group_axioms_random_triples(drifted):
    rng = np.random.default_rng(0)
    e = np.zeros((1, drifted.N + 1))
    worst = 0.0
    for _ in range(1000):
        z = _random_point(rng, drifted.N)
        zeta = _random_point(rng, drifted.N)
        w = _random_point(rng, drifted.N)
        lhs = compose_rows(compose_rows(z, zeta, drifted), w, drifted)
        rhs = compose_rows(z, compose_rows(zeta, w, drifted), drifted)
        worst = max(worst, np.abs(lhs - rhs).max())
        ze = compose_rows(z, e, drifted)
        ez = compose_rows(e, z, drifted)
        worst = max(worst, np.abs(ze - z).max(), np.abs(ez - z).max())
        zi = compose_rows(z, inverse_rows(z, drifted), drifted)
        worst = max(worst, np.abs(zi).max())
    assert worst < 1e-11


def test_dilation_distributes_for_principal_drift(kspec, kappa2):
    rng = np.random.default_rng(1)
    for spec in (kspec, kappa2):
        exps = spec.exponents()
        worst = 0.0
        for _ in range(500):
            z = _random_point(rng, spec.N)
            zeta = _random_point(rng, spec.N)
            r = float(np.exp(rng.uniform(-1.5, 1.5)))
            lhs = dilate_rows(r, compose_rows(z, zeta, spec), exps)
            rhs = compose_rows(dilate_rows(r, z, exps), dilate_rows(r, zeta, exps), spec)
            worst = max(worst, np.abs(lhs - rhs).max())
        assert worst < 1e-11


def test_dilation_fails_for_generic_drift(drifted):
    exps = drifted.exponents()
    z = np.ones((1, 3))
    r = 0.5
    lhs = dilate_rows(r, compose_rows(z, z, drifted), exps)
    rhs = compose_rows(dilate_rows(r, z, exps), dilate_rows(r, z, exps), drifted)
    assert np.abs(lhs - rhs)[0, :-1].max() >= 1e-3


def test_kdist_left_invariance(kspec, drifted):
    rng = np.random.default_rng(2)
    for spec in (kspec, drifted):
        worst = 0.0
        for _ in range(300):
            z = _random_point(rng, spec.N, 1.0)
            zeta = _random_point(rng, spec.N, 1.0)
            g = _random_point(rng, spec.N, 1.0)
            d0 = kdist_rows(z, zeta, spec)[0]
            d1 = kdist_rows(compose_rows(g, z, spec), compose_rows(g, zeta, spec), spec)[0]
            worst = max(worst, abs(d0 - d1))
        assert worst < 1e-12


def test_knorm_homogeneous_degree_one(kappa2):
    exps = kappa2.exponents()
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = _random_point(rng, kappa2.N)
        r = float(np.exp(rng.uniform(-2.0, 2.0)))
        assert abs(knorm_rows(dilate_rows(r, z, exps), exps)[0]
                   - r * knorm_rows(z, exps)[0]) < 1e-12


def test_dilate_rejects_nonpositive_scale(kspec):
    with pytest.raises(DomainError):
        dilate_rows(0.0, np.zeros((1, 3)), kspec.exponents())


def test_covariance_positivity_hormander(kspec, kappa2):
    # the kernel's verdict, which check reports: HypoellipticityError if not
    for spec in (kspec, kappa2):
        _checked_C(spec, np.array([1.0]))
        assert np.linalg.eigvalsh(spec.C(1.0))[0] > 0.0


def test_kolmogorov_covariance_min_eigenvalue(kspec):
    # eigenvalues of [[1, 1/2], [1/2, 1/3]] are (4 +- sqrt(13)) / 6
    assert abs(np.linalg.eigvalsh(kspec.C(1.0))[0] - (4.0 - np.sqrt(13.0)) / 6.0) < 1e-10


def test_scaled_B_endpoints(drifted):
    assert np.abs(scaled_B(drifted, 1.0) - drifted.B).max() == 0.0
    B0 = np.zeros_like(drifted.B)  # blocks (1, 1): B_0 keeps the subdiagonal block
    B0[1:, :1] = drifted.B[1:, :1]
    assert np.abs(scaled_B(drifted, 0.0) - B0).max() == 0.0
    with pytest.raises(DomainError):
        scaled_B(drifted, 1.5)


def test_compose_r_matches_compose_at_one(drifted):
    rng = np.random.default_rng(4)
    z = _random_point(rng, 2)
    zeta = _random_point(rng, 2)
    a = compose_r(z, zeta, drifted, 1.0)
    b = compose_rows(z, zeta, drifted)
    assert np.abs(a - b)[0, :-1].max() < 1e-14 and a[0, -1] == b[0, -1]


def test_level_map_solve_reaches_target(kappa2):
    rng = np.random.default_rng(5)
    for n in (1, 2):
        target = rng.standard_normal(kappa2.N)
        w = level_map_solve(kappa2, n, target)
        assert np.abs(project_level(w, 0, kappa2.blocks) - w).max() == 0.0
        reached = np.linalg.matrix_power(kappa2.B, n) @ w
        sl = kappa2.blocks.level_slice(n)
        assert np.abs(reached[sl] - target[sl]).max() < 1e-10


def test_level_map_solve_bad_level(kspec):
    with pytest.raises(DomainError):
        level_map_solve(kspec, 2, np.zeros(2))


def test_level_map_solve_refuses_an_unreachable_target():
    # built directly, so make_spec's rank test does not refuse the zero
    # subdiagonal block first: B maps nothing into level 1
    spec = OperatorSpec(A=np.eye(1), B=np.zeros((2, 2)), blocks=BlockStructure((1, 1)))
    with pytest.raises(StructureError, match="violates surjectivity"):
        level_map_solve(spec, 1, [0.0, 1.0])


def test_sample_ball_stays_in_quasi_ball(kspec):
    exps = kspec.exponents()
    rng = np.random.default_rng(6)
    Z = sample_ball(kspec, 0.5, 200, rng)
    assert Z.shape == (200, 3)
    assert knorm_rows(Z, exps).max() <= 0.5 + 1e-12


def test_triangle_constant_finite(kspec):
    c = estimate_triangle_constant(kspec, 1.0, samples=2000)
    assert 1.0 <= c < 10.0

