"""Manufactured-solution harness for the interior estimate inequalities.

The workflow: pick an analytic solution u with closed-form derivatives,
build f = L u exactly, and check the estimate inequalities as fitted-
constant ratio tests.  Harmonic test functions come for free as kernel
translates Gamma(., p) with poles below the region of interest, and
the singular-bounds check convolves a bump against the kernel by
Gauss-Hermite slices.

Every report carries the seed, the raw lhs/rhs ratio samples, and a
scaling table, so a verdict can always be re-derived from the artifact.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError, EllipticityError, ManufactureError
from .group import compose_rows, dilate_rows, finite_rows, kdist_rows, sample_ball
from .kernel import _checked_C, kernel_jet_rows
from .matrixcalc import (ROW_CHUNK, dot_rows, exp_nonpositive, gauss_legendre, reduce_columns,
                         sqrt_spd, tensor_rule)
from .modulus import (DEFAULT_RADII, ModulusTable, _pair_table, _scaled_pairs, dini_value,
                      schauder_functional_rows)
from .taylor import (C2Bundle, flow_Y_rows, gaussian_bundle, quadratic_bundle,
                     richardson)

FD_STEP = 1e-4
STABLE_FACTOR = 4.0
SINGULAR_SAMPLES = 6  # Q_{R/2} rows per radius of verify_singular_bounds
INVARIANCE_TOL = 1e-5  # largest discrepancy verify_invariance accepts on either identity


@dataclass
class ManufacturedProblem:
    """Analytic u with its exactly computed right-hand side f = L u.

    ``f`` and ``varcoeff`` take a (K, N+1) row block, as the bundle
    fields do.
    """

    u: C2Bundle
    f: object  # rows -> (K,) values
    spec: object
    varcoeff: object = None  # rows -> (K, m, m) SPD stack (or one matrix)
    omega_a: object = None  # ModulusTable of the coefficient modulus, on DEFAULT_RADII
    family_id: str = ""
    details: dict = field(default_factory=dict)


@dataclass
class EstimateReport:
    """A fitted-constant verdict for one named estimate."""

    name: str
    seed: int
    samples: int
    fitted_constant: float
    scaling: dict = field(default_factory=dict)
    ratios: list = field(default_factory=list)
    verdict: bool = False
    details: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "name": self.name,
            "seed": self.seed,
            "samples": self.samples,
            "fitted_constant": self.fitted_constant,
            "scaling": {str(k): v for k, v in self.scaling.items()},
            "verdict": bool(self.verdict),
            "details": self.details,
            "ratios_csv": "ratio\n" + "\n".join(f"{r:.12g}" for r in self.ratios),
        }


# ---------------------------------------------------------------------------
# Manufacturing and the finite-difference operator.


def _coeff_field(varcoeff_id, spec):
    """Built-in variable-coefficient families with analytic moduli."""
    if varcoeff_id is None:
        return None, None
    try:
        amp = {"sin1": 0.25, "sin1x2": 0.5}[varcoeff_id]
    except KeyError:
        raise DomainError(f"unknown coefficient family {varcoeff_id!r}") from None

    def a(Z):
        out = np.repeat(spec.A[None], len(Z), axis=0)
        out[:, 0, 0] += amp * np.sin(Z[:, 0])
        return out

    return a, ModulusTable(DEFAULT_RADII, amp * np.minimum(2.0, DEFAULT_RADII))


_FAMILIES = {
    "constant": lambda spec: quadratic_bundle(spec, c0=1.0),
    "quadratic": lambda spec: quadratic_bundle(
        spec, c0=0.5, a=0.3 * np.ones(spec.m),
        H=np.eye(spec.m) + 0.2, bt=-0.4,
    ),
    "gaussian": lambda spec: gaussian_bundle(
        spec, center_x=np.zeros(spec.N), center_t=0.0,
        width_x=1.0, width_t=0.5,
    ),
    "gaussian2": lambda spec: gaussian_bundle(
        spec, center_x=0.2 * np.arange(1, spec.N + 1), center_t=-0.1,
        width_x=0.8, width_t=0.7, amplitude=1.7,
    ),
    "gaussian-narrow": lambda spec: gaussian_bundle(
        spec, center_x=np.zeros(spec.N), center_t=0.0,
        width_x=0.6, width_t=0.15,
    ),
}


def manufacture(family_id, spec, varcoeff_id=None, seed=0):
    """Build (u, f = L u) for a named analytic family and FD-validate it
    at 30 points of the unit quasi-ball."""
    try:
        bundle = _FAMILIES[family_id](spec)
    except KeyError:
        raise DomainError(f"unknown solution family {family_id!r}") from None
    a_field, omega_a = _coeff_field(varcoeff_id, spec)

    def f(Z):
        A = spec.A if a_field is None else a_field(Z)
        H, Yu = bundle.hess_Yu(Z)
        return np.sum(A * H, axis=(1, 2)) + Yu

    Z = sample_ball(spec, 1.0, 30, np.random.default_rng(seed))
    worst = float(np.abs(apply_L_fd(spec, bundle.u, Z, varcoeff=a_field)
                         - f(Z)).max(initial=0.0))
    if not worst <= 1e-6:  # a NaN fails
        raise ManufactureError(
            f"analytic f disagrees with the FD operator by {worst:g}"
        )
    return ManufacturedProblem(
        u=bundle, f=f, spec=spec, varcoeff=a_field, omega_a=omega_a,
        family_id=family_id, details={"fd_validation_worst": worst},
    )


def _L_fd_steps(spec, u, Z, h, A):
    """The L stencil at the steps h and h/2, evaluated by one call of u,
    and the two difference quotients of sum a_ij d2_ij u + Y u.  Per step
    the points are the centre, Z +- h e_i and, for i < j, the four cross
    points, then the drift flows e^{hY} Z and e^{-hY} Z, whose four
    matrices E(-+step) are one stacked spec.E call."""
    m, steps = spec.m, (h, h / 2.0)
    E = iter(spec.E(np.array([s for step in steps for s in (-step, step)])))
    stencil = []
    for step in steps:
        e = step * np.eye(spec.N + 1)
        stencil.append(Z)
        for i in range(m):
            stencil += [Z + e[i], Z - e[i]]
            for j in range(i + 1, m):
                stencil += [Z + e[i] + e[j], Z + e[i] - e[j], Z - e[i] + e[j], Z - e[i] - e[j]]
        stencil += [flow_Y_rows(step, Z, spec, next(E)), flow_Y_rows(-step, Z, spec, next(E))]
    vals = iter(u(np.concatenate(stencil)).reshape(len(stencil), len(Z)))
    quotients = []
    for step in steps:
        u0 = next(vals)
        acc = 0.0
        for i in range(m):
            plus, minus = next(vals), next(vals)
            acc += A[..., i, i] * (plus - 2.0 * u0 + minus) / step**2
            for j in range(i + 1, m):
                pp, pm, mp, mm = (next(vals) for _ in range(4))
                acc += 2.0 * A[..., i, j] * ((pp - pm - mp + mm) / (4.0 * step**2))
        fwd, bwd = next(vals), next(vals)
        quotients.append(acc + (fwd - bwd) / (2.0 * step))
    return quotients


def apply_L_fd(spec, u, Z, varcoeff=None):
    """Finite-difference application of L = sum a_ij d2_ij + Y at the rows
    of Z, for u and varcoeff on row blocks; returns the (K,) values.

    Second central differences in the first m coordinates plus a
    central flow difference along the drift, at the step FD_STEP with one
    mandatory Richardson halving; the halved and unhalved values must agree.
    One call of u takes the S stencil points of both steps for all K rows
    as one (2S*K, N+1) block in point-major order: its row s*K + k is
    point s of row k, the S points of step FD_STEP before those of
    FD_STEP/2.  varcoeff is called once, on Z.
    """
    Z = finite_rows(Z)
    A = spec.A if varcoeff is None else varcoeff(Z)
    return richardson(*_L_fd_steps(spec, u, Z, FD_STEP, A),
                      "operator differencing did not converge under halving")


# ---------------------------------------------------------------------------
# The harmonic test family.


def harmonic_family(spec, R, count, rng):
    """Poles p of kernel translates u_p = Gamma(., p) below the cylinder,
    as a (count, N+1) row block.

    Poles sit at times in [-3R^2, -2R^2], so u_p solves L u = 0 on every
    point of Q_R (times >= -R^2) with a safety margin of R^2.
    """
    P = sample_ball(spec, R, count, rng)
    P[:, -1] = -2.0 * R * R - R * R * rng.uniform(0.0, 1.0, size=count)
    return P


# ---------------------------------------------------------------------------
# Kernel convolution (representation formula).


@functools.lru_cache(maxsize=16)
def _hermite_grid(nodes_x, N):
    """The N-fold tensor Gauss-Hermite rule with nodes_x nodes per axis,
    built once per (nodes_x, N); its arrays are read-only because every
    caller shares them."""
    Y, W = tensor_rule([hermgauss(nodes_x)] * N)
    Y.flags.writeable = False
    W.flags.writeable = False
    return Y, W


def _slice_integrals(spec, psi, Z, tau, nodes_x):
    """Gauss-Hermite slices of int Gamma(z, .) psi, one per row z = (x, t)
    of Z and time in tau, with dt = t - tau: the (S, P) integrals
    int N(w; 0, 2C(dt)) phi(M(x - w)) dw, M = exp(dt B), of the P arrays
    phi that psi returns.

    The substitution w = x - E(dt) xi turns the kernel into this plain
    Gaussian weight, and an x-derivative lands on psi (d2_ij is d_i^T H d_j
    with d_i = M e_i), so the integrand has no kernel singularity.  psi
    maps an (S, N, G) grid, coordinate-major so that each coordinate is a
    run of G nodes, the (S,) slice times and the (S, N, N) matrices M to a
    sequence of (S, G) arrays.  C(dt), its root and E(-dt) are one stacked
    call each for all slices, every slice bit-identical to its own K = 1
    call; ROW_CHUNK chunks only the grid: psi is called once per chunk of
    slices, and each array of each slice is summed against the weights
    by dot_rows (numpy's pairwise sum over the nodes).
    """
    dt = Z[:, -1] - tau
    if not (dt > 0.0).all():
        raise DomainError(f"covariance needs t > 0, got {dt[~(dt > 0.0)][0]}")
    S, M = sqrt_spd(2.0 * _checked_C(spec, dt)[0]), spec.E(-dt)
    Y, W = _hermite_grid(nodes_x, spec.N)
    step = max(1, ROW_CHUNK // len(W))
    parts = []
    for k in range(0, len(Z), step):
        part = slice(k, k + step)
        w = math.sqrt(2.0) * np.matmul(S[part], Y.T)
        X = np.matmul(M[part], Z[part, :-1, None] - w)
        if not np.isfinite(X).all():
            raise DomainError("quadrature grid has non-finite coordinates")
        parts.append(np.column_stack([dot_rows(v, W) for v in psi(X, tau[part], M[part])]))
    return np.concatenate(parts) / math.pi ** (spec.N / 2.0)


# ---------------------------------------------------------------------------
# Estimate verifications.


def _stable(scaling):
    vals = [v for v in scaling.values() if v > 0.0]
    if not vals:
        return True
    return max(vals) <= STABLE_FACTOR * min(vals)


def _harmonic_samples(spec, R, poles, samples, rng):
    """Poles P = harmonic_family(spec, R, poles, rng), then pole by pole a
    box of 4 * samples rows of Q_R and one of samples rows of Q_{R/2}, all
    dilated from one unit-box draw.  Returns P, the Q_R rows S and the
    Q_{R/2} rows Z, both stacked pole by pole; no kernel is called, so
    the draws do not depend on computed values."""
    P, exps, width = harmonic_family(spec, R, poles, rng), spec.exponents(), spec.N + 1
    U = sample_ball(spec, 1.0, poles * 5 * samples, rng).reshape(poles, 5 * samples, width)
    S = dilate_rows(R, U[:, :4 * samples].reshape(-1, width), exps)
    Z = dilate_rows(R / 2.0, U[:, 4 * samples:].reshape(-1, width), exps)
    return P, S, Z


def verify_apriori(spec, R_list=(1.0, 0.5, 0.25), poles=20, samples=60, seed=0):
    """Interior derivative bounds for harmonic u: |d_j u| <= C R^{-alpha_j} sup|u|.

    Fits the constant as the max over harmonic family members and
    sample points of the scaled ratios; second derivatives and Y use
    the R^{-2} scaling.  Radius by radius the draws are
    _harmonic_samples'; then one values call over every radius's Q_R
    boxes gives each pole's sup|u_p|, and one derivative call covers
    every Q_{R/2} box.  A dead pole (sup|u_p| = 0) is drawn and
    evaluated, then left out.
    """
    m, exps, width = spec.m, spec.exponents(), spec.N + 1
    rng = np.random.default_rng(seed)
    draws = [_harmonic_samples(spec, R, poles, samples, rng) for R in R_list]
    # radius by radius; an empty R_list gives empty (0, N+1) blocks
    P, S, Z = (np.reshape([d[i] for d in draws], (-1, width)) for i in range(3))
    sup = kernel_jet_rows(spec, S, np.repeat(P, 4 * samples, axis=0), derivatives=False
                          ).reshape(len(R_list), poles, 4 * samples).max(axis=2)
    jet = kernel_jet_rows(spec, Z, np.repeat(P, samples, axis=0))
    groups = sorted({f"grad_alpha{a}" for a in exps.alpha}) + ["second", "Y"]
    per_R = {R: {g: 0.0 for g in groups} for R in R_list}
    for i, R in enumerate(R_list):
        cell, live = per_R[R], sup[i] > 0.0
        rows = slice(i * poles * samples, (i + 1) * poles * samples)
        scaled = [(f"grad_alpha{a}", np.abs(jet.grad[rows, j]) * R**a)
                  for j, a in enumerate(exps.alpha)]
        scaled += [("second", np.abs(jet.hess[rows, :m, :m]).max(axis=(1, 2)) * R**2),
                   ("Y", np.abs(jet.Y[rows]) * R**2)]
        for key, vals in scaled:
            per_pole = (vals.reshape(poles, samples)[live] / sup[i, live, None]).max(axis=1)
            cell[key] = max([cell[key], *per_pole.tolist()])
    scaling = {R: max(per_R[R].values()) for R in R_list}
    stable = all(_stable({R: per_R[R][g] for R in R_list}) for g in groups)
    fitted = max(scaling.values()) if scaling else 0.0
    return EstimateReport(
        name="apriori-derivative-bounds", seed=seed, samples=poles * samples * len(R_list),
        fitted_constant=fitted, scaling=scaling, ratios=list(scaling.values()),
        verdict=math.isfinite(fitted) and stable,
        details={"per_group": {str(R): per_R[R] for R in R_list}})


def verify_mean_value(spec, R=0.5, poles=20, samples=120, seed=0):
    """|u(z) - u(zeta)| <= C kdist(z, zeta) sup|u| / R for harmonic u,
    with zeta the origin; pairs closer than R/100 are left out.  The draws
    are _harmonic_samples'; one values call covers every pole's block
    [S_p, zeta, Z_p], whose Q_R rows S_p give sup|u_p|.  A dead pole
    (sup|u_p| = 0) is drawn and evaluated, then left out of the ratios."""
    rng = np.random.default_rng(seed)
    P, S, Z = _harmonic_samples(spec, R, poles, samples, rng)
    width = spec.N + 1
    blocks = np.concatenate([S.reshape(poles, 4 * samples, width), np.zeros((poles, 1, width)),
                             Z.reshape(poles, samples, width)], axis=1).reshape(-1, width)
    u = kernel_jet_rows(spec, blocks, np.repeat(P, 5 * samples + 1, axis=0),
                        derivatives=False).reshape(poles, 5 * samples + 1)
    sup, u = u[:, :4 * samples].max(axis=1), u[:, 4 * samples:]
    d = kdist_rows(Z, np.zeros((1, width)), spec).reshape(poles, samples)
    live = sup > 0.0
    u, d = u[live], d[live]
    ratio = np.abs(u[:, 1:] - u[:, :1]) * R / (d * sup[live, None])
    ratios = ratio[~(d < R / 100.0)].tolist()
    fitted = max(ratios) if ratios else 0.0
    return EstimateReport(name="mean-value", seed=seed, samples=len(ratios), fitted_constant=fitted,
                          scaling={R: fitted}, ratios=ratios, verdict=math.isfinite(fitted))


def _d2_convolved(spec, psi, Z, t_lo):
    """d2_ij of int Gamma(z, .) psi over times in [t_lo, t) at every row
    z = (x, t) of Z: the (K, P - 1) integrals of the arrays that the jet
    psi returns after its value (see _slice_integrals), on 12 x 12^N nodes.

    Outer integral in sigma = sqrt(t - tau), which removes the
    square-root endpoint behaviour of the time slices; the slices of
    all rows are one block, and each row sums its terms in node order.
    """
    t = Z[:, -1]
    if not (t > t_lo).all():
        raise DomainError("evaluation time must exceed the support onset")
    smax = np.sqrt(t - t_lo)
    nodes, wts = gauss_legendre(12)
    sigma = 0.5 * smax * (nodes[:, None] + 1.0)  # slice q of row k at [q, k]
    d2 = _slice_integrals(spec, psi, np.tile(Z, (12, 1)), (t - sigma * sigma).ravel(),
                          12)[:, 1:].reshape(12, len(Z), -1)
    terms = (wts[:, None] * 0.5 * smax * 2.0 * sigma)[..., None] * d2
    # the terms in node order: np.sum pairs them, which rounds differently
    return functools.reduce(np.add, terms, 0.0)


_G_KINDS = ("const", "g1", "g2")


def _singular_psi(kind, R, exps, m):
    """The jet of psi = (scale-R bump) * g, g = 1, x_1 or x_1^2 for kind
    const, g1 or g2, at the slice times t and matrices M of an (S, N, G)
    grid (see _slice_integrals): psi, then d_i^T H d_j (d_i = M e_i) for
    i <= j < m in row order.

    The Gaussian bump exp(-q), q = (t/R^2)^2 + sum (x_k/s_k)^2 with
    s_k = R^alpha_k, is the cutoff: smooth, with every derivative scale
    set by R, so tensor quadrature converges, unlike the kinked max-norm
    cutoff.  Squares are np.square (the IEEE x*x), added in coordinate
    order to the time term, and exp(-q) is matrixcalc.exp_nonpositive
    (libm exp, as math.exp): one exp per node.  H is e^-q (((g (a_i a_j -
    c_ij) - a_i dg_j) - a_j dg_i) + hg_ij) with a_i = d_i . grad q =
    sum_k (2 d_ik / s_k) (x_k / s_k), c_ij = sum_k (2 d_ik / s_k) d_jk / s_k
    (sums in coordinate order), dg_i = d_i . grad g and
    hg_ij = d_i^T (Hess g) d_j; zero terms are left out.
    """
    scales = [R**a for a in exps.alpha]

    def psi(X, t, M):
        U = [X[..., k, :] / s for k, s in enumerate(scales)]
        q = np.square(t / R**2)[..., None]
        for u in U:
            q = q + np.square(u)
        bump, x0 = exp_nonpositive(-q), X[..., 0, :]
        g = None if kind == "const" else x0 if kind == "g1" else np.square(x0)
        gp = 1.0 if kind != "g2" else 2.0 * x0  # g'(x_1), so that dg_n = d_n0 g'
        out = [bump if g is None else bump * g]
        coef = [[2.0 * M[:, k, i] / s for k, s in enumerate(scales)] for i in range(m)]
        a = [functools.reduce(np.add, [c[:, None] * u for c, u in zip(ci, U)]) for ci in coef]
        for i, j in ((i, j) for i in range(m) for j in range(i, m)):
            cij = functools.reduce(np.add, [c * M[:, k, j] / s for k, (c, s)
                                            in enumerate(zip(coef[i], scales))])
            h = a[i] * a[j] - cij[:, None]
            if g is not None:
                h = g * h - a[i] * (M[:, 0, j, None] * gp) - a[j] * (M[:, 0, i, None] * gp)
            if kind == "g2":
                h = h + 2.0 * M[:, 0, i, None] * M[:, 0, j, None]
            out.append(bump * h)
        return out

    return psi


def verify_singular_bounds(spec, kind, R_list=(0.5, 0.25, 0.125), seed=0):
    """Second derivatives of w = int Gamma eta_R g: O(1), O(R), O(R^2).

    kind selects g = 1, <v, x> (linear in a first-level coordinate), or
    <v, x>^2; the sup of |d2 w| over SINGULAR_SAMPLES rows of Q_{R/2}
    must scale accordingly across a dyadic R sweep.  The slices of each R
    are one chunked block, and d2 w is the quadrature of the closed-form
    Hessian of the bump (_singular_psi's jet).
    """
    if kind not in _G_KINDS:
        raise DomainError(f"kind must be one of {_G_KINDS}, got {kind!r}")
    exps = spec.exponents()
    rng = np.random.default_rng(seed)
    scaling = {}
    for R in R_list:
        Z = sample_ball(spec, R / 2.0, SINGULAR_SAMPLES, rng)
        early = Z[:, -1] <= -(R * R) * 0.9
        Z[early, -1] = np.abs(Z[early, -1])
        d2 = _d2_convolved(spec, _singular_psi(kind, R, exps, spec.m), Z,
                           t_lo=-(R * R) * 1.0001)
        scaling[R] = max([0.0] + np.abs(d2).ravel().tolist())
    vals = [scaling[R] for R in R_list]
    steps = [vals[i] / vals[i + 1] if vals[i + 1] > 0 else math.inf
             for i in range(len(vals) - 1)]
    expected = {"const": 1.0, "g1": 2.0, "g2": 4.0}[kind]
    verdict = all(expected / 2.0 <= s <= expected * 2.0 for s in steps)
    return EstimateReport(
        name=f"singular-bounds-{kind}",
        seed=seed,
        samples=SINGULAR_SAMPLES * len(R_list),
        fitted_constant=max(vals),
        scaling=scaling,
        ratios=steps,
        verdict=verdict,
        details={"expected_dyadic_step": expected},
    )


def _check_ellipticity(problem, Z):
    if problem.varcoeff is None:
        return
    m = problem.spec.m
    A = np.broadcast_to(problem.varcoeff(Z), (len(Z), m, m))
    w = np.linalg.eigvalsh(A)[:, 0]
    bad = np.flatnonzero(w <= 0.0)
    if bad.size:
        k = bad[0]
        raise EllipticityError(
            f"coefficient matrix loses ellipticity at (x, t) = {Z[k].tolist()} "
            f"(min eig {w[k]:g})"
        )


def verify_schauder(problem, pair_samples=1000, seed=0):
    """Schauder ratio test for a manufactured pair.

    With a coefficient field attached the right-hand side gains the
    omega_a functional term (report "schauder-var"); without one the
    check is the constant-coefficient test ("schauder-const"), so the
    two agree identically when omega_a vanishes.

    Every row block is drawn first: the modulus pairs of f from the
    seed + 1 stream, as empirical_modulus draws them, then from the seed's
    stream 800 rows for sup|u|, 800 for sup|f|, the interior pairs and,
    with omega_a, 400 rows for the coefficient term eta.  One pass then
    evaluates each block once: f (modulus pairs, sup rows, origin),
    kdist_rows (modulus and interior pairs), u, and after the ellipticity
    check hess_Yu (eta rows, origin, both ends of each interior pair: d2_ij u
    for i <= j and Yu, one row each); one schauder_functional_rows call
    takes omega_f and omega_a, which must share its grid DEFAULT_RADII.
    """
    name = "schauder-var" if problem.varcoeff is not None else "schauder-const"
    spec, width = problem.spec, problem.spec.N + 1
    pairs = _scaled_pairs(spec, 1.0, max(1000, pair_samples), np.random.default_rng(seed + 1),
                          DEFAULT_RADII[0])
    rng = np.random.default_rng(seed)
    u_rows, f_rows = (sample_ball(spec, 1.0, 800, rng) for _ in range(2))
    interior = sample_ball(spec, 0.25, pair_samples * 2, rng)
    eta_rows = (np.empty((0, width)) if problem.omega_a is None
                else sample_ball(spec, 1.0, 400, rng))
    origin_row = np.zeros((1, width))
    Z, W = interior[0::2], interior[1::2]
    count = len(pairs)
    f_vals = problem.f(np.concatenate([pairs.reshape(-1, width), f_rows, origin_row]))
    dists = kdist_rows(np.concatenate([pairs[:, 0], Z]), np.concatenate([pairs[:, 1], W]), spec)
    omega_f = _pair_table(f_vals[:2 * count], dists[:count])
    sup_u = np.abs(problem.u.u(u_rows)).max()
    sup_f = np.abs(f_vals[2 * count:-1]).max()
    _check_ellipticity(problem, interior[:200])
    H, Yu = problem.u.hess_Yu(np.concatenate([eta_rows, origin_row, Z, W]))
    i, j = np.triu_indices(H.shape[-1])
    eta, at_0, at_Z, at_W = np.split(np.column_stack([H[:, i, j], Yu]),
                                     np.cumsum([len(eta_rows), 1, len(Z)]))
    eta_sup = 0.0 if problem.omega_a is None else np.abs(eta[:, :-1]).max()

    # pointwise bound at the origin
    lhs0 = np.abs(at_0).max()
    dini_f = dini_value(omega_f)
    rhs0 = sup_u + abs(f_vals[-1]) + dini_f
    point_ratio = lhs0 / rhs0 if rhs0 > 0.0 else 0.0

    dists = dists[count:]
    lhs = reduce_columns(np.maximum, np.abs(at_Z - at_W))
    # a NaN distance is kept, so that the functional rejects it
    keep = ~((dists < omega_f.radii[0]) | (dists >= 1.0))
    d = dists[keep]
    tables = [omega_f] if problem.omega_a is None else [omega_f, problem.omega_a]
    functionals = schauder_functional_rows(tables, d)
    rhs = d * sup_u + d * sup_f + functionals[0]
    if problem.omega_a is not None:
        rhs = rhs + functionals[1] * eta_sup
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


def verify_invariance(spec, samples=40, seed=0):
    """Left invariance of L under the group law, and dilation covariance.

    Checks apply_L_fd(u o l_zeta)(z) = apply_L_fd(u)(zeta o z) on a block
    of random samples; for principal drifts (B = B_0), the only ones
    whose L is dilation-covariant, also L(u o delta_r)(z) =
    r^2 (L u)(delta_r z).  Each identity holds within INVARIANCE_TOL.
    """
    exps = spec.exponents()
    dilation = spec.is_dilation_invariant()
    rng = np.random.default_rng(seed)
    u = _FAMILIES["gaussian2"](spec).u
    Z = sample_ball(spec, 0.8, samples, rng)
    shifts = sample_ball(spec, 0.8, samples, rng)
    # np.resize repeats the K shifts (or radii) over the stencil of each row
    shifted = lambda W: u(compose_rows(np.resize(shifts, W.shape), W, spec))
    worst_left = float(np.abs(apply_L_fd(spec, shifted, Z) - apply_L_fd(
        spec, u, compose_rows(shifts, Z, spec))).max(initial=0.0))
    worst_dil = 0.0
    if dilation:
        r = rng.uniform(0.5, 1.5, size=samples)
        scaled = lambda W: u(dilate_rows(np.resize(r, len(W)), W, exps))
        worst_dil = float(np.abs(apply_L_fd(spec, scaled, Z) - r * r * apply_L_fd(
            spec, u, dilate_rows(r, Z, exps))).max(initial=0.0))
    verdict = worst_left <= INVARIANCE_TOL and worst_dil <= INVARIANCE_TOL
    return EstimateReport(
        name="invariance",
        seed=seed,
        samples=samples,
        fitted_constant=max(worst_left, worst_dil),
        scaling={"left": worst_left, "dilation": worst_dil},
        ratios=[worst_left, worst_dil],
        verdict=verdict,
        details={"dilation_checked": dilation},
    )
