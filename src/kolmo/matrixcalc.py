"""Dense linear algebra and quadrature helpers at small fixed dimension.

Everything here operates on plain numpy arrays.  Dimensions are tiny
(N <= ~10), so the implementations favour determinism and accuracy over
speed.  exp(t M) of a fixed generator M at a whole array of times comes
from the powers of M, made once (exp_table, exp_rows): a finite series
when M is nilpotent, otherwise a degree-18 Taylor series with scaling
and squaring.  mat_exp is scipy's expm on one matrix, the independent
route; scipy.linalg is imported on its first call, so a process that
never checks a truncated series does not load it.  Square roots go
through a full symmetric eigendecomposition, and the quadrature rules
are composite Gauss-Legendre and their tensor products.  _symmetric,
the symmetry test of sqrt_spd and of an operator's A, compares exactly
first and calls np.allclose only when that fails: C(t) comes
symmetrised, so a report's matrices pass at the cost of one
comparison.  Whether C(t) is positive definite is decided in one
place, kernel._checked_C.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, DomainError

SYMMETRY_TOL = 1e-12
# Most points a tensor grid may have: kernel_mass's fine grid in two
# dimensions has 128^2 = 16,384, and a grid held whole in memory at
# 2^20 points of N = 4 floats takes 32 MB.
TENSOR_BUDGET = 2**20
# exp(X) of a non-nilpotent generator is the degree-18 Taylor series on
# ||X||_1 < 1, where the tail is below 1/19! ~ 8e-18 of the leading term
TAYLOR_DEGREE = 18
# largest gap between an unscaled series and scipy's expm that exp_table
# accepts; the entries of exp(X) with ||X||_1 < 1 are below e
SERIES_CHECK_TOL = 1e-13
# Most bytes of series terms exp_rows holds at once: a longer block of
# times, whose (rows, d, n, n) products would exceed it, goes in chunks
SERIES_BUDGET = 2**18
ROW_CHUNK = 4096  # most rows one stacked pass lays out: kernel jets, quadrature, split radii


@dataclass(frozen=True)
class ExpTable:
    """The powers of a generator M that exp_rows sums.

    ``powers[k]`` is X^k / k! with X = M for a nilpotent M, whose series
    ends at the last non-zero power; otherwise X = M / 2^shift with
    2^shift > ||M||_1 = ``norm``, and k runs to TAYLOR_DEGREE.  A spec
    keeps the tables of -B and of the block generator of C(t), which a
    principal drift sums at t = 1 only.
    """

    powers: np.ndarray
    nilpotent: bool
    norm: float = 0.0
    shift: int = 0


def _as_square(M, stack=False):
    """M as a float square matrix, or with ``stack`` also a (K, n, n) stack."""
    M = np.asarray(M, dtype=float)
    if M.ndim not in ((2, 3) if stack else (2,)) or M.shape[-2] != M.shape[-1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise DomainError("matrix has non-finite entries")
    return M


def expm(M):
    """scipy.linalg.expm, imported on the first call: loading scipy.linalg
    takes longer than most reports."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(M)


def mat_exp(M):
    """Matrix exponential exp(M) of one small dense square matrix by
    scipy's scaling-and-squaring Pade core: the route independent of
    exp_rows."""
    M = _as_square(M)
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm(M)
    if not np.isfinite(out).all():
        raise AccuracyError("overflow in matrix exponential")
    return out


def exp_table(M):
    """The powers of M for exp_rows, made once per generator.

    M is nilpotent when one of M^1 .. M^n is exactly zero; DomainError
    if a power overflows on the way.  A truncated series is checked once
    against mat_exp, at the time 2^-shift where ||t M||_1 lies in
    [1/2, 1) and no squaring hides its truncation (AccuracyError beyond
    SERIES_CHECK_TOL).
    """
    M = _as_square(M)
    powers = [np.eye(len(M)), M]
    with np.errstate(over="ignore", invalid="ignore"):
        while powers[-1].any() and len(powers) <= len(M):
            powers.append(powers[-1] @ M)
    if not np.isfinite(powers[-1]).all():  # inf, or nan from inf * 0, stays in later powers
        raise DomainError("a power of the matrix exponential's generator is not finite")
    if not powers[-1].any():
        return ExpTable(_series_terms(powers[:-1]), nilpotent=True)
    norm = float(np.abs(M).sum(axis=0).max())
    shift = int(np.frexp(norm)[1])
    scaled = np.ldexp(M, -shift)
    powers = [np.eye(len(M)), scaled]
    while len(powers) <= TAYLOR_DEGREE:
        powers.append(powers[-1] @ scaled)
    table = ExpTable(_series_terms(powers), nilpotent=False, norm=norm, shift=shift)
    gap = np.abs(exp_rows(table, 2.0**-shift) - mat_exp(scaled)).max()
    if not gap <= SERIES_CHECK_TOL:
        raise AccuracyError(f"matrix exponential series is off by {gap:g}")
    return table


def _series_terms(powers):
    """X^k / k! for the powers X^0 .. X^d.  From k = 171 on, k! is past
    the largest double: 1/k! is then the exactly rounded quotient of the
    integers (a subnormal or 0), so a long nilpotent chain needs no
    float k!."""
    return np.array([P / math.factorial(k) if k <= 170 else P * (1 / math.factorial(k))
                     for k, P in enumerate(powers)])


def exp_rows(table, t):
    """exp(t M) for the generator M of ``table``: one matrix for a scalar
    t, or the (K, n, n) stack for a (K,) array of times.

    Row k sums F = exp(u_k X) - I = sum over j >= 1 of u_k^j X^j / j!
    element-wise, lowest power first, with u_k^j one running product;
    squares it s_k times as exp(2Y) - I = F F + 2F, one matmul per
    slice (a row with s_k <= j keeps its F at squaring j), which keeps
    the relative accuracy of the small part near I; and adds I.
    X = M / 2^shift, s_k = max(0, floor(log2(|t_k| ||M||_1)) + 1)
    so that ||u_k X||_1 < 1, and u_k = t_k 2^(shift - s_k); for a
    nilpotent M, X = M, u_k = t_k and nothing is squared.  Only t_k
    decides its row's operations, so each row rounds exactly as its own
    K = 1 call does, and a block of times whose series terms exceed
    SERIES_BUDGET bytes is taken in chunks of rows.  AccuracyError on
    overflow, also of |t_k| ||M||_1.
    """
    t = np.asarray(t, dtype=float)
    u = t.reshape(-1)
    P = table.powers
    step = max(1, SERIES_BUDGET // P.nbytes)  # P.nbytes > one row's series terms
    if len(u) > step:
        return np.concatenate([exp_rows(table, u[k:k + step]) for k in range(0, len(u), step)]
                              ).reshape(t.shape + P[0].shape)
    s = np.zeros(len(u), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        if not table.nilpotent:  # an infinite |t_k| ||M||_1 leaves u_k infinite
            s = np.maximum(np.frexp(u * table.norm)[1], 0)
            u = np.ldexp(u, table.shift - s)
        c = u[:, None].repeat(len(P) - 1, axis=1)
        np.multiply.accumulate(c, axis=1, out=c)
        F = np.add.reduce(c[:, :, None, None] * P[1:], axis=1)
        for j in range(s.max(initial=0)):
            F = np.where((s > j)[:, None, None], np.matmul(F, F) + 2.0 * F, F)
        F += P[0]
    if not np.isfinite(F).all():
        raise AccuracyError("overflow in matrix exponential")
    return F.reshape(t.shape + P[0].shape)


def _symmetric(A):
    """A (or each slice of a stack) equals its transpose within
    SYMMETRY_TOL; on finite entries, exact equality implies allclose."""
    At = np.swapaxes(A, -1, -2)
    return bool((A == At).all()) or np.allclose(A, At, atol=SYMMETRY_TOL, rtol=0.0)


def sqrt_spd(A):
    """Symmetric positive square root S of an SPD matrix, S @ S = A; for a
    (K, n, n) stack the stack of roots, each slice bit-identical to its
    own call (a stacked eigh and matmul)."""
    A = _as_square(A, stack=True)
    if not _symmetric(A):
        raise DomainError("matrix is not symmetric")
    w, V = np.linalg.eigh(A)
    if w.min() <= 0.0:
        raise DomainError(f"matrix is not positive definite (min eig {w.min():g})")
    return np.matmul(V * np.sqrt(w)[..., None, :], np.swapaxes(V, -1, -2))


def matvec_rows(M, X):
    """Row-wise M @ x for a (K, n) block X and an (n, n) matrix or a
    (K, n, n) stack M.  numpy makes one BLAS gemv per row, the call that
    a single M @ x makes, so each row is bit-identical to it."""
    return np.matmul(M, X[..., None])[..., 0]


def vecmat_rows(X, M):
    """Row-wise x @ M for a (K, n) block X and a (K, n, n) stack M: one gemv per row."""
    return np.matmul(X[..., None, :], M)[..., 0, :]


def dot_rows(X, Y):
    """Row-wise x @ y of two (K, n) blocks (or one (n,) vector), one BLAS
    dot per row as in a single x @ y of fresh vectors.  The operands are
    made C-contiguous first: on a strided block, such as the real part of
    exp_nonpositive, numpy's matmul takes another loop, which rounds
    differently."""
    X, Y = np.ascontiguousarray(X), np.ascontiguousarray(Y)
    return np.matmul(X[..., None, :], Y[..., :, None])[..., 0, 0]


def _sum_fixed(P):
    """The sum over the last axis of P, j = 0 .. n-1 in order by element-wise
    adds: IEEE operations only, so no row depends on a BLAS kernel."""
    acc = P[..., 0].copy()
    for j in range(1, P.shape[-1]):
        acc += P[..., j]
    return acc


def matvec_fixed(M, X):
    """Row-wise M @ x for an (n, n) matrix M and a (K, n) block X, by _sum_fixed."""
    return _sum_fixed(X[..., None, :] * M)


def dot_fixed(X, Y):
    """Row-wise x @ y of two (K, n) blocks, by _sum_fixed."""
    return _sum_fixed(X * Y)


def exp_nonpositive(x):
    """exp of an array of arguments <= 0, each bit-identical to math.exp.

    numpy's complex exp calls libm cexp, and glibc's cexp(x + 0i) is
    exp(x) * cos 0, so its real part is libm exp(x), which math.exp also
    calls (numpy's real np.exp rounds differently on some arguments).
    Above ~709 cexp rescales, so positive arguments are refused
    (DomainError).  An underflow to a subnormal or zero is no error.
    """
    x = np.asarray(x, dtype=float)
    if (x > 0.0).any():
        raise DomainError("exp_nonpositive needs arguments <= 0")
    with np.errstate(under="ignore"):
        return np.exp(x.astype(complex)).real


@functools.lru_cache(maxsize=32)
def gauss_legendre(n):
    """The n-node Gauss-Legendre rule on [-1, 1], built once per n; its
    arrays are read-only because every caller shares them."""
    nodes, weights = leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_panels(lo, hi, panels, order):
    """Composite Gauss-Legendre rule on [lo, hi]: points and weights of
    ``panels`` equal panels with ``order`` nodes each."""
    nodes, weights = gauss_legendre(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    pts = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return pts, wts


def tensor_rule(rules):
    """Tensor product of 1-d rules [(points, weights), ...]: the (n, d)
    points in C order and their weights, multiplied left to right.
    A grid of more than TENSOR_BUDGET points is refused before it is
    built (DomainError)."""
    size = math.prod(len(pts) for pts, _ in rules)
    if size > TENSOR_BUDGET:
        raise DomainError(
            f"tensor grid of {size} points exceeds the budget of "
            f"{TENSOR_BUDGET}; use fewer nodes per axis"
        )
    grids = np.meshgrid(*(pts for pts, _ in rules), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(())
    for _, wts in rules:
        w = np.multiply.outer(w, wts)
    return pts, w.ravel()
