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
from .matrixcalc import (ROW_CHUNK, dot_rows, exp_nonpositive, gauss_legendre, sqrt_spd,
                         tensor_rule)
from .modulus import (
    dini_integral,
    empirical_modulus,
    schauder_functional_rows,
    table_from_function,
)
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
    omega_a: object = None  # ModulusTable for the coefficient modulus
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

    return a, table_from_function(lambda r: amp * min(2.0, r))


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
    points, then the drift flows e^{hY} Z and e^{-hY} Z."""
    m, steps = spec.m, (h, h / 2.0)
    stencil = []
    for step in steps:
        e = step * np.eye(spec.N + 1)
        stencil.append(Z)
        for i in range(m):
            stencil += [Z + e[i], Z - e[i]]
            for j in range(i + 1, m):
                stencil += [Z + e[i] + e[j], Z + e[i] - e[j], Z - e[i] + e[j], Z - e[i] - e[j]]
        stencil += [flow_Y_rows(step, Z, spec), flow_Y_rows(-step, Z, spec)]
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


def _slice_integrals(spec, psi, Z, tau, pairs, h, nodes_x):
    """Gauss-Hermite slices of int Gamma(z, .) psi, one per row z = (x, t)
    of Z and time in tau, with dt = t - tau: the (S, 1 + len(pairs))
    values of int N(w; 0, 2C(dt)) psi(M(x - w)) dw with M = exp(dt B),
    then of its d2_ij by differences of step h for the (i, j) of pairs.

    The substitution w = x - E(dt) xi turns the kernel into this plain
    Gaussian weight, and the derivative lands on psi, so the integrand
    is bounded by sup|d2 psi| with no kernel singularity.  psi maps an
    (..., S, N, G) grid, coordinate-major so that each coordinate is a
    run of G nodes, and the (S,) slice times to (..., S, G) values.
    C(dt), its root and E(-dt) are one stacked call each for all slices,
    every slice bit-identical to its own K = 1 call; ROW_CHUNK chunks
    only the grid: psi is called once per chunk of slices, on every
    stencil offset, and each slice is reduced by its own dot with the
    weights.
    """
    dt = Z[:, -1] - tau
    if not (dt > 0.0).all():
        raise DomainError(f"covariance needs t > 0, got {dt[~(dt > 0.0)][0]}")
    S, M = sqrt_spd(2.0 * _checked_C(spec, dt)[0]), spec.E(-dt)
    Y, W = _hermite_grid(nodes_x, spec.N)
    offsets = 1 + sum(2 if i == j else 4 for i, j in pairs)
    step = max(1, ROW_CHUNK // (offsets * len(W)))
    out = np.empty((len(Z), 1 + len(pairs)))
    for k in range(0, len(Z), step):
        part = slice(k, k + step)
        w = math.sqrt(2.0) * np.matmul(S[part], Y.T)
        pts = np.matmul(M[part], Z[part, :-1, None] - w)
        d = np.moveaxis(M[part], -1, 0)  # d[i] = M e_i, one row per slice
        stencil = [np.zeros_like(d[0])]
        for i, j in pairs:
            a, b = h * d[i], h * d[j]
            stencil += [a, -a] if i == j else [a + b, a - b, -a + b, -a - b]
        X = pts + np.stack(stencil)[:, :, :, None]
        if not np.isfinite(X).all():
            raise DomainError("quadrature grid has non-finite coordinates")
        vals = iter(psi(X, tau[part]))
        centre = next(vals)
        out[part, 0] = dot_rows(centre, W)
        for p, (i, j) in enumerate(pairs, 1):
            if i == j:
                dd = (next(vals) - 2.0 * centre + next(vals)) / h**2
            else:
                pp, pm, mp, mm = (next(vals) for _ in range(4))
                dd = (pp - pm - mp + mm) / (4.0 * h**2)
            out[part, p] = dot_rows(dd, W)
    return out / math.pi ** (spec.N / 2.0)


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


def _d2_convolved(spec, psi, Z, pairs, t_lo, h):
    """d2_ij of int Gamma(z, .) psi over times in [t_lo, t) at every row
    z = (x, t) of Z, for the (i, j) of pairs: the (K, len(pairs)) values,
    by differences of step h on 12 x 12^N nodes.

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
                          pairs, h, 12)[:, 1:].reshape(12, len(Z), -1)
    terms = (wts[:, None] * 0.5 * smax * 2.0 * sigma)[..., None] * d2
    # the terms in node order: np.sum pairs them, which rounds differently
    return functools.reduce(np.add, terms, 0.0)


_G_KINDS = ("const", "g1", "g2")


def _singular_psi(kind, R, exps):
    """psi = (scale-R bump) * g, where g is 1, x_1 or x_1^2 for kind const,
    g1 or g2, on an (..., S, N, G) grid whose S slices sit at the times t
    (one per slice, or one for all).

    The Gaussian bump exp(-sum (x_i/R^alpha_i)^2 - (t/R^2)^2) plays the
    cutoff role inside the quadrature: it concentrates on the quasi-ball
    of radius ~R and is smooth with all derivative scales set by R, so
    tensor quadrature converges, unlike the kinked max-norm cutoff.
    Squares are np.square, the IEEE product x*x, added in coordinate
    order to the time term of the slice, and the exponent -q <= 0 goes
    through matrixcalc.exp_nonpositive, which is libm exp as math.exp
    is: numpy's own float64 exp takes a CPU-dependent path.
    """
    scales = [R**a for a in exps.alpha]

    def psi(X, t):
        q = np.square(t / R**2)[..., None]
        for i, s in enumerate(scales):
            q = q + np.square(X[..., i, :] / s)
        bump = exp_nonpositive(-q)
        if kind == "const":
            return bump
        return bump * (X[..., 0, :] if kind == "g1" else np.square(X[..., 0, :]))

    return psi


def verify_singular_bounds(spec, kind, R_list=(0.5, 0.25, 0.125), seed=0):
    """Second derivatives of w = int Gamma eta_R g: O(1), O(R), O(R^2).

    kind selects g = 1, <v, x> (linear in a first-level coordinate), or
    <v, x>^2; the sup of |d2 w| over SINGULAR_SAMPLES rows of Q_{R/2}
    must scale accordingly across a dyadic R sweep.  The slices of each R
    are one chunked block, differenced at the step 2e-3 R.
    """
    if kind not in _G_KINDS:
        raise DomainError(f"kind must be one of {_G_KINDS}, got {kind!r}")
    exps = spec.exponents()
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(spec.m) for j in range(i, spec.m)]
    scaling = {}
    for R in R_list:
        Z = sample_ball(spec, R / 2.0, SINGULAR_SAMPLES, rng)
        early = Z[:, -1] <= -(R * R) * 0.9
        Z[early, -1] = np.abs(Z[early, -1])
        d2 = _d2_convolved(spec, _singular_psi(kind, R, exps), Z, pairs,
                           t_lo=-(R * R) * 1.0001, h=2e-3 * R)
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

    Every row block is drawn first, in the stream order: 800 rows for
    sup|u|, 800 for sup|f|, the interior pairs and, with omega_a, 400
    rows for the coefficient term eta.  Then one call of u, one of f (its
    sup rows and the origin) and, after the ellipticity check, one of
    hess_Yu on the eta rows, the origin and both ends of every pair: the
    second-order values d2_ij u (i <= j) and Yu, one row each.
    """
    name = "schauder-var" if problem.varcoeff is not None else "schauder-const"
    spec = problem.spec
    rng = np.random.default_rng(seed)
    omega_f = empirical_modulus(problem.f, spec, radius=1.0,
                                pair_samples=max(1000, pair_samples),
                                seed=seed + 1)
    u_rows, f_rows = (sample_ball(spec, 1.0, 800, rng) for _ in range(2))
    interior = sample_ball(spec, 0.25, pair_samples * 2, rng)
    eta_rows = (np.empty((0, spec.N + 1)) if problem.omega_a is None
                else sample_ball(spec, 1.0, 400, rng))
    origin_row = np.zeros((1, spec.N + 1))
    sup_u = np.abs(problem.u.u(u_rows)).max()
    f_vals = problem.f(np.concatenate([f_rows, origin_row]))
    sup_f = np.abs(f_vals[:-1]).max()
    _check_ellipticity(problem, interior[:200])
    Z, W = interior[0::2], interior[1::2]
    H, Yu = problem.u.hess_Yu(np.concatenate([eta_rows, origin_row, Z, W]))
    i, j = np.triu_indices(H.shape[-1])
    eta, at_0, at_Z, at_W = np.split(np.column_stack([H[:, i, j], Yu]),
                                     np.cumsum([len(eta_rows), 1, len(Z)]))
    eta_sup = 0.0 if problem.omega_a is None else np.abs(eta[:, :-1]).max()

    # pointwise bound at the origin
    lhs0 = np.abs(at_0).max()
    dini_f = dini_integral(omega_f).value
    rhs0 = sup_u + abs(f_vals[-1]) + dini_f
    point_ratio = lhs0 / rhs0 if rhs0 > 0.0 else 0.0

    dists = kdist_rows(Z, W, spec)
    lhs = np.abs(at_Z - at_W).max(axis=1)
    # a NaN distance is kept, so that the functional rejects it
    keep = ~((dists < omega_f.radii[0]) | (dists >= 1.0))
    d = dists[keep]
    rhs = d * sup_u + d * sup_f + schauder_functional_rows(omega_f, d)
    if problem.omega_a is not None:
        rhs = rhs + schauder_functional_rows(problem.omega_a, d) * eta_sup
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
