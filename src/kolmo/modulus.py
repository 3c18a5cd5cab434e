"""Moduli of continuity, Dini integrals, and Schauder bound functionals.

A modulus table samples omega(r) on a log-spaced grid reaching far into
the small-radius regime, where Dini behaviour lives.  The integrals
1/r and 1/r^2 against omega are evaluated by the trapezoidal rule in
log r, reported together with a power-law tail bound below the grid and
a divergence classification read off the growth of partial integrals.

Also here: the Laplacian f and the mixed derivative u_xy of the planar
counterexample u = xy |log(x^2+y^2)|^a; f is continuous but not Dini
continuous at the origin, while u_xy blows up there.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .group import compose_rows, dilate_rows, heat_spec, kdist_rows
from .matrixcalc import ROW_CHUNK

DEFAULT_RADII = 2.0 ** np.linspace(-20.0, 0.0, 64)
DEFAULT_RADII.flags.writeable = False  # every table on the default grid shares it
MONOTONE_TOL = 1e-12


@dataclass(frozen=True)
class ModulusTable:
    """omega(r) sampled on an increasing grid of radii in (0, 1]."""

    radii: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        w = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "omega", w)
        if r.ndim != 1 or r.size < 2 or w.shape != r.shape:
            raise DomainError("table needs matching 1-d radii and omega arrays")
        if r[0] <= 0.0 or r[-1] > 1.0 or np.any(np.diff(r) <= 0.0):
            raise DomainError("radii must be strictly increasing within (0, 1]")
        if np.any(~np.isfinite(w)) or np.any(w < 0.0):
            raise DomainError("omega values must be finite and nonnegative")
        if np.any(np.diff(w) < -MONOTONE_TOL * max(1.0, w.max())):
            raise DomainError("omega must be nondecreasing in r")


@dataclass(frozen=True)
class DiniReport:
    """Truncated Dini integral with a tail model and a divergence verdict."""

    value: float
    tail_bound: float
    classification: str  # "dini" | "non-dini" | "inconclusive"
    decade_growth: tuple


def table_from_function(omega):
    """Tabulate a scalar modulus function on the log grid DEFAULT_RADII."""
    return ModulusTable(radii=DEFAULT_RADII,
                        omega=np.array([omega(x) for x in DEFAULT_RADII]))


def _tail_bound(table):
    """Power-law extrapolation of int_0^{r_min} omega/r dr.

    Fits omega ~ M r^p over the smallest decade, or over the whole grid
    when it spans less; a nonpositive fitted exponent means the model
    integral diverges and the bound is inf.
    """
    r, w = table.radii, table.omega
    if w[0] == 0.0:
        return 0.0
    j = min(max(int(np.searchsorted(r, r[0] * 10.0)), 1), len(r) - 1)
    if w[j] <= 0.0:
        return 0.0
    p = math.log(w[j] / w[0]) / math.log(r[j] / r[0])
    if p <= 1e-3:
        return math.inf
    return w[0] / p


def _decade_growth(table):
    """Increments of int_eps^1 omega/r dr per decade of eps."""
    r, w = table.radii, table.omega
    growths = []
    hi = 1.0
    lo = 0.1
    while lo >= r[0] * 0.999:
        mask = (r >= lo * 0.999) & (r <= hi * 1.001)
        if mask.sum() >= 2:
            growths.append(float(np.trapezoid(w[mask], np.log(r[mask]))))
        hi, lo = lo, lo / 10.0
    return tuple(growths)


def _classify(growths, total):
    if total == 0.0:
        return "dini"
    if len(growths) < 3:
        return "inconclusive"
    ref, last = growths[-3], growths[-1]
    if ref <= 0.0:
        return "dini"
    # Power-law (Dini) tails decay geometrically per decade (ratio
    # 10^{-2 alpha} < 0.4 already at alpha = 0.2); classic divergent
    # moduli like 1/|log r| keep the ratio near 1.
    ratio = last / ref
    if ratio >= 0.6:
        return "non-dini"
    if ratio <= 0.4:
        return "dini"
    return "inconclusive"


def dini_integral(table):
    """int_{r_min}^1 omega(r)/r dr with tail bound and classification."""
    value = float(np.trapezoid(table.omega, np.log(table.radii)))  # omega/r dr in log r
    growths = _decade_growth(table)
    return DiniReport(
        value=value,
        tail_bound=_tail_bound(table),
        classification=_classify(growths, value),
        decade_growth=growths,
    )


def schauder_functional_rows(table, ds):
    """schauder_functional at every split radius of the 1-d array ``ds``.

    The near part of d is the trapezoid over the grid radii <= d, then d;
    the far part over d, then the grid radii >= d.  With the radii sorted,
    every near row is laid out as [interior terms, end term] and every far
    row as [end term, interior terms] in one (K, len(r)) array per part:
    the interior terms diff(log r) (y[1:] + y[:-1]) / 2 are formed once,
    and each d writes its end term into its own column.  The rows with the
    same term count n are one add.reduce over their n contiguous columns.
    numpy sums each row of a C-order block pairwise, as it sums one d's
    1-d array, and omega(d) is interpolated at math.log(d), so every value
    is bit-identical to its K = 1 call.
    """
    ds = np.asarray(ds, dtype=float)
    if len(ds) > ROW_CHUNK:
        return np.concatenate([schauder_functional_rows(table, ds[k:k + ROW_CHUNK])
                               for k in range(0, len(ds), ROW_CHUNK)])
    bad = ~((ds > 0.0) & (ds < 1.0))
    if bad.any():
        raise DomainError(f"split radius must lie in (0, 1), got {ds[bad][0].item()}")
    r, w = table.radii, table.omega
    L = len(r)
    order = np.argsort(ds, kind="stable")
    d = ds[order]
    w_d = np.interp([math.log(x) for x in d.tolist()], np.log(r), w)
    log_r, log_d = np.log(r), np.log(d)
    # term counts, monotone in the sorted d; 0 where the part is empty
    near_n = np.where(d > r[0], np.searchsorted(r, d, "right"), 0)
    far_n = np.where(d < r[-1], L - np.searchsorted(r, d, "left"), 0)
    sums = np.zeros((2, len(d)))
    for out, n, inv_power in ((sums[0], near_n, 1), (sums[1], far_n, 2)):
        near = inv_power == 1
        y = w * r ** (1.0 - inv_power)
        y_d = w_d * d ** (1.0 - inv_power)
        terms = np.empty((len(d), L))
        interior = slice(0, L - 1) if near else slice(1, L)
        terms[:, interior] = np.diff(log_r) * (y[1:] + y[:-1]) / 2.0
        live = np.flatnonzero(n)
        k = n[live] - 1 if near else L - n[live]  # the grid radius next to d
        dx = log_d[live] - log_r[k] if near else log_r[k] - log_d[live]
        terms[live, k] = dx * (y_d[live] + y[k]) / 2.0  # its own column
        starts = np.flatnonzero(np.diff(n, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(d)]):
            if n[lo]:
                cols = slice(0, n[lo]) if near else slice(L - n[lo], L)
                np.add.reduce(terms[lo:hi, cols], axis=1, out=out[lo:hi])
    result = np.empty(len(d))
    result[order] = sums[0] + d * sums[1]
    return result


def schauder_functional(table, d):
    """int_{r_min}^d omega/r dr + d int_d^1 omega/r^2 dr: the K = 1 call of
    schauder_functional_rows."""
    return float(schauder_functional_rows(table, [d])[0])


def _scaled_pairs(spec, radius, count, rng, r_min):
    """Pairs (z, zeta) stratified across log scales, as a (count, 2, N+1)
    block: pair k is the rows [k, 0] = z and [k, 1] = zeta.

    Both the distance of the base point from the origin and the
    separation of the pair are drawn log-uniformly, so small-radius
    behaviour near the origin (where singular moduli live) is sampled
    as densely as the bulk.  The box coordinates of all pairs are one
    (count, 2N+2) draw, the stream of count draws of z's and zeta's.
    """
    exps = spec.exponents()
    N = spec.N
    base_scales = np.exp(rng.uniform(math.log(r_min), 0.0, size=count))
    sep_scales = np.exp(rng.uniform(math.log(r_min), 0.0, size=count))
    raw = rng.uniform(-1.0, 1.0, size=(count, 2 * N + 2))
    Z = dilate_rows(base_scales * radius, raw[:, :N + 1], exps)
    step = dilate_rows(sep_scales * radius, raw[:, N + 1:], exps)
    return np.stack([Z, compose_rows(Z, step, spec)], axis=1)


def empirical_modulus(f, spec, radius=1.0, pair_samples=4000, seed=0):
    """Empirical modulus: sup |f(z) - f(zeta)| over pairs with kdist < r,
    on the grid DEFAULT_RADII.

    ``f`` maps a (K, N+1) row block to its K values, row by row: it is
    called once, on the 2K rows z_0, zeta_0, z_1, zeta_1, ... of the
    pairs.  A lower bound on the true sup-modulus, which makes any
    Schauder inequality verified against it conservative.  The result is
    monotonized by a running max before return.
    """
    if radius <= 0.0:
        raise DomainError("domain radius must be positive")
    if pair_samples < 1000:
        raise DomainError("need at least 1000 pair samples")
    rng = np.random.default_rng(seed)
    pairs = _scaled_pairs(spec, radius, pair_samples, rng, DEFAULT_RADII[0])
    vals = f(pairs.reshape(-1, spec.N + 1)).reshape(-1, 2)
    jumps = np.abs(vals[:, 0] - vals[:, 1])
    dists = kdist_rows(pairs[:, 0], pairs[:, 1], spec)
    return ModulusTable(DEFAULT_RADII, pair_omega(dists, jumps, DEFAULT_RADII))


def pair_omega(dists, jumps, radii):
    """omega(r) on the increasing grid ``radii``: the largest jump
    |f(z) - f(zeta)| over the pairs with kdist(z, zeta) < r, 0 if none.

    Sorting the pairs by distance and taking the running max of their
    jumps makes omega nondecreasing.  Pairs split into chunks give the
    elementwise max of the chunks' omegas.
    """
    order = np.argsort(dists)
    dists = np.asarray(dists, dtype=float)[order]
    # running[k] is the largest jump among the k nearest pairs
    running = np.concatenate(
        [[0.0], np.maximum.accumulate(np.asarray(jumps, dtype=float)[order])])
    return running[np.searchsorted(dists, radii)]


# ---------------------------------------------------------------------------
# The planar counterexample u = x y |log(x^2 + y^2)|^a.


def _counterexample_logs(alpha, x, y):
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"exponent must lie in (0, 1], got {alpha}")
    rho2 = x * x + y * y
    if rho2 == 0.0:
        raise DomainError("the counterexample is singular at the origin")
    if rho2 >= 1.0:
        raise DomainError("the counterexample needs x^2 + y^2 < 1")
    return rho2, abs(math.log(rho2))


def counterexample_f(alpha, x, y):
    """The Laplacian of u: continuous at 0 but not Dini continuous there."""
    rho2, L = _counterexample_logs(alpha, x, y)
    q = x * y / rho2
    return -8.0 * alpha * q * L ** (alpha - 1.0) + 4.0 * alpha * (
        alpha - 1.0
    ) * q * L ** (alpha - 2.0)


def counterexample_f_rows(alpha, Z):
    """counterexample_f at (x_1, x_2) of every row of a row block."""
    return np.array([counterexample_f(alpha, x, y)
                     for x, y in Z[:, :2].tolist()])


def counterexample_mixed(alpha, x, y):
    """The mixed derivative u_xy; grows like |log rho^2|^alpha at 0."""
    rho2, L = _counterexample_logs(alpha, x, y)
    q = x * x * y * y / rho2**2
    return (
        L**alpha
        - 2.0 * alpha * L ** (alpha - 1.0) * (1.0 - 2.0 * q)
        + 4.0 * alpha * (alpha - 1.0) * L ** (alpha - 2.0) * q
    )


def counterexample_certificate(alpha=0.5, seed=0, pair_samples=4000):
    """Non-Dini certificate for f: per-decade Dini growth over the four
    smallest decades of radii.

    Samples the empirical modulus of f on a planar heat-type geometry in
    a ball avoiding the unit-circle singularity, then reports the
    per-decade increments of the partial Dini integrals, the |f| values
    down the diagonal, and the |u_xy| values which grow without bound.
    """
    # radius 0.3: base point plus separation stay inside the unit disk
    table = empirical_modulus(lambda Z: counterexample_f_rows(alpha, Z), heat_spec(2),
                              radius=0.3, pair_samples=pair_samples, seed=seed)
    report = dini_integral(table)
    growth = report.decade_growth[-4:]
    deltas = [1e-2, 1e-4, 1e-6, 1e-8]
    return {
        "alpha": alpha,
        "decade_growth": list(growth),
        "min_growth": min(growth),
        "classification": report.classification,
        "f_diagonal": [abs(counterexample_f(alpha, d, d)) for d in deltas],
        "mixed_diagonal": [abs(counterexample_mixed(alpha, d, d)) for d in deltas],
    }
