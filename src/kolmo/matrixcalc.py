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
comparison.  The row products (matvec_rows, vecmat_rows, dot_rows) sum
by reduce_columns, in an order that no BLAS kernel decides.  _gershgorin
and _clears certify a stack positive definite from its entries;
kernel._checked_C decides it for C(t).
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
    """The powers of a generator M that exp_rows sums, read-only.

    ``powers[k]`` is X^k / k! with X = M / 2^shift, 2^shift > ||M||_1 =
    ``norm``, to k = TAYLOR_DEGREE; a nilpotent M has norm = shift = 0
    and ends at its last non-zero power.  Every spec of one content shares
    its C table (group._content_state); each keeps its own E table, of -B.
    """

    powers: np.ndarray
    norm: float = 0.0
    shift: int = 0

    def __post_init__(self):
        self.powers.flags.writeable = False


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
        return ExpTable(_series_terms(powers[:-1]))
    norm = float(np.abs(M).sum(axis=0).max())
    shift = int(np.frexp(norm)[1])
    scaled = np.ldexp(M, -shift)
    powers = [np.eye(len(M)), scaled]
    while len(powers) <= TAYLOR_DEGREE:
        powers.append(powers[-1] @ scaled)
    table = ExpTable(_series_terms(powers), norm=norm, shift=shift)
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
    slice (a row with s_k <= j keeps its F at squaring j, by a select
    made only once some row stops), which keeps the relative accuracy
    of the small part near I; and adds I.
    X = M / 2^shift, s_k = max(0, floor(log2(|t_k| ||M||_1)) + 1)
    so that ||u_k X||_1 < 1, and u_k = t_k 2^(shift - s_k); for a
    nilpotent M, norm = shift = 0 gives s_k = 0 and u_k = t_k, also for
    +-0, +-inf and nan (frexp's exponent is 0 there).  Only t_k
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
    with np.errstate(over="ignore", invalid="ignore"):
        # an infinite |t_k| ||M||_1 leaves u_k infinite
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


def _gershgorin(C):
    """The Gershgorin bound of a (K, n, n) stack C: g per slice and the (n, K)
    diagonals d, which _clears reads.  With r_ij = |C_ij| / sqrt(d_i d_j),
    lambda_min(C) >= g min d for g = 2 - max_i sum_j r_ij - 4 n eps, a slack
    for the rounding of r and its row sums in any order.  eigvalsh's
    eigenvalues lie within p(n) eps ||C||_2 of the exact ones (LAPACK Users'
    Guide, 3rd ed., section 4.7) and ||C||_2 <= tr C once g > 0, so with
    p(n) <= 2^10 n a slice with g min d > 2^10 n eps tr C + 2e-300 is cleared
    (_clears); a zero d (C underflowed to 0) makes g nan, not cleared.  d is
    laid out (n, K) and r (n, n, K), contiguous, so each operation runs over
    the K rows."""
    n, eps = C.shape[-1], np.finfo(float).eps
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = np.diagonal(C, axis1=1, axis2=2).T.copy()
        s = np.sqrt(d)
        r = np.abs(C).transpose(1, 2, 0).copy()
        r /= s[:, None] * s[None, :]
        return 2.0 - np.add.reduce(r, axis=1).max(0) - 4 * n * eps, d


def _clears(g, d):
    """Slices that g clears, d their (n, K) diagonals: g min d > 2^10 n eps tr C
    + 2e-300 (under the caller's errstate, as the sum may overflow)."""
    return (g > 0) & (g * d.min(0) > 2**10 * len(d) * np.finfo(float).eps * d.sum(0) + 2e-300)


def reduce_columns(ufunc, P):
    """ufunc.reduce(P, axis=-1) of a (..., n) block for np.add or np.maximum.
    Below 8 columns it sweeps column ops from a copy of column 0, without
    numpy's reduction set-up (about 20 column ops on a few thousand rows);
    numpy's own sum starts from +0.0, which differs only on an all -0.0
    row, and a max is exact in any order.  From 8 on numpy's pairwise sum
    is kept.  tests/test_matrixcalc.py pins both orders."""
    n = P.shape[-1]
    if not 0 < n < 8:
        return ufunc.reduce(P, axis=-1)
    out = P[..., 0].copy()
    for j in range(1, n):
        ufunc(out, P[..., j], out=out)
    return out


def matvec_rows(M, X):
    """Row-wise M @ x for a (K, n) block X and an (n, n) matrix or a (K, n, n)
    stack M, summed by reduce_columns: IEEE operations in a fixed order, so
    no row depends on a BLAS kernel or on the rows stacked with it."""
    return reduce_columns(np.add, X[..., None, :] * M)


def vecmat_rows(X, M):
    """Row-wise x @ M for a (K, n) block X and an (n, n) matrix or a
    (K, n, n) stack M: matvec_rows of M^T."""
    return matvec_rows(np.swapaxes(M, -1, -2), X)


def dot_rows(X, Y):
    """Row-wise x @ y of two (K, n) blocks, or of a block and one (n,)
    vector, by reduce_columns."""
    return reduce_columns(np.add, X * Y)


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
    built (DomainError).  Every caller lays one axis per coordinate of x,
    so the refusal names the dimension N = d that the spec sets."""
    counts = [len(pts) for pts, _ in rules]
    size = math.prod(counts)
    if size > TENSOR_BUDGET:
        shape = (f"{counts[0]}^{len(counts)}" if len(set(counts)) == 1
                 else " x ".join(map(str, counts)))
        raise DomainError(f"{shape} = {size} points for N = {len(counts)} exceeds "
                          f"the budget of {TENSOR_BUDGET}")
    grids = np.meshgrid(*(pts for pts, _ in rules), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(())
    for _, wts in rules:
        w = np.multiply.outer(w, wts)
    return pts, w.ravel()
