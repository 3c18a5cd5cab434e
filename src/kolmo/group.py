"""Homogeneous Lie-group calculus on R^{N+1} for degenerate Kolmogorov
operators: operator specification and validation, composition law,
anisotropic dilations, quasi-norm and quasi-distance, and the scaled
drift family.

The group law is (x,t) o (xi,tau) = (xi + E(tau) x, t + tau) with
E(tau) = exp(-tau B).  Spatial coordinate i scales as r^{alpha_i} under
the dilation delta_r and time scales as r^2, where alpha_i = 2n+1 on
block level n.

Row blocks: K points are one (K, N+1) float array, row k holding
(x_1, .., x_N, t) of point k.  compose_rows, inverse_rows, dilate_rows,
knorm_rows, kdist_rows and sample_ball are the group operations on row
blocks, and each row rounds exactly as its own K = 1 call does.  Point
is the one-point form of kernel.gamma, gamma_grad, gamma_hess_m and
taylor.flow_Y, which only the benchmark's closed-form checks call;
everything else takes row blocks.

A spec holds read-only copies of A and B.  Its validated exponents, the
exp_table of C's block generator and its Homogeneous record (None unless
the drift is principal) are made once per process for each content (A, B,
blocks) and shared by every spec of it (_content_state).  Only the table
of E stays with each spec object: on a non-nilpotent drift its series
check is the mat_exp call that perfbench's tracer test counts in every
connect report.
"""

import functools
import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    EllipticityError,
    StructureError,
    UsageError,
)
from .matrixcalc import (_gershgorin, _symmetric, exp_rows, exp_table, matvec_rows,
                         reduce_columns)

ZERO_BLOCK_TOL = 1e-14
RANK_TOL = 1e-10
# C(1) and E(1) of a principal drift, C(1)^-1, log det C(1), the sign of
# det C(1) and its Gershgorin bound g, less a slack (OperatorSpec.homogeneous)
Homogeneous = namedtuple("Homogeneous", "C1 E1 inv logdet sign g")


def _whole(value):
    """value is a number with no fractional part: not a bool, inf or nan."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and not value % 1


@dataclass(frozen=True)
class BlockStructure:
    """Partition of the N spatial coordinates into dilation levels."""

    sizes: tuple

    def __post_init__(self):
        if not self.sizes or not all(_whole(s) and s >= 1 for s in self.sizes):
            raise StructureError("block sizes must be positive integers")
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise StructureError("block sizes must be non-increasing")

    @property
    def kappa(self):
        return len(self.sizes) - 1

    @functools.cached_property
    def level(self):
        """level[i]: the dilation level of coordinate i."""
        return np.repeat(np.arange(len(self.sizes)), self.sizes)

    @property
    def N(self):
        return sum(self.sizes)

    def level_slice(self, n):
        if not 0 <= n <= self.kappa:
            raise DomainError(f"level {n} out of range 0..{self.kappa}")
        start = sum(self.sizes[:n])
        return slice(start, start + self.sizes[n])


@dataclass(frozen=True)
class Exponents:
    """Dilation exponents alpha_i and the homogeneous dimension."""

    alpha: tuple
    Q: int


@dataclass(frozen=True, eq=False)
class Point:
    """A space-time point z = (x, t) of the group."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 0:
            x = x.reshape(1)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", float(self.t))
        if not (np.isfinite(x).all() and math.isfinite(self.t)):
            raise DomainError("point has non-finite coordinates")

    def row(self):
        """The point as a (1, N+1) row block."""
        row = np.empty((1, self.x.size + 1))
        row[0, :-1] = self.x
        row[0, -1] = self.t
        return row

    @classmethod
    def from_row(cls, Z):
        """The point of a (1, N+1) row block."""
        return cls(Z[0, :-1], Z[0, -1])


def finite_rows(Z):
    """Z as a (K, N+1) float row block; DomainError on a non-finite entry,
    the check that every Point makes."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] < 2:
        raise DomainError(f"a row block needs shape (K, N+1), got {Z.shape}")
    if not np.isfinite(Z).all():
        raise DomainError("point has non-finite coordinates")
    return Z


@functools.lru_cache(maxsize=16)
def _content_state(key):
    """What every OperatorSpec of one content key = (A.shape, A bytes,
    B.shape, B bytes, block sizes) shares: its validated exponents under
    "exps", the block generator's exp_table under "C" and its Homogeneous
    record (or None) under "unit".  Each is stored once made, so an
    exception stores nothing and is raised again on the next load."""
    return {}


@dataclass(frozen=True)
class OperatorSpec:
    """The pair (A, B) with its block structure; one Kolmogorov operator."""

    A: np.ndarray
    B: np.ndarray
    blocks: BlockStructure
    # E's exp_table, made on first use and this spec's own; _content_state
    _exps: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _shared: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        A, B = (np.array(M, dtype=float) for M in (self.A, self.B))
        A.flags.writeable = B.flags.writeable = False  # the key below stays their content
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        key = (A.shape, A.tobytes(), B.shape, B.tobytes(), self.blocks.sizes)
        object.__setattr__(self, "_shared", _content_state(key))

    @property
    def N(self):
        return self.blocks.N

    @property
    def m(self):
        return self.blocks.sizes[0]

    @property
    def kappa(self):
        return self.blocks.kappa

    def exponents(self):
        """Validated dilation exponents; validates the spec's content on
        first use in the process."""
        if "exps" not in self._shared:
            self._shared["exps"] = validate_structure(self)
        return self._shared["exps"]

    def is_dilation_invariant(self):
        """True when B has only the subdiagonal blocks, exactly (B = B_0)."""
        return not self.B[_scale_powers(self.blocks) != 0].any()

    def E(self, tau):
        """Translation matrix E(tau) = exp(-tau B); an array of times gives
        the stack of their matrices, from the powers of -B made once."""
        if "E" not in self._exps:
            self._exps["E"] = exp_table(-self.B)
        return exp_rows(self._exps["E"], tau)

    def _block(self, t):
        """(C(t), E(t)) from the top block row [E(t), G(t)] of exp(t M),
        M = block_generator(self), with C = G E^T symmetrised; None if
        exp(t M) or C(t) overflows."""
        N = self.N
        if "C" not in self._shared:
            self._shared["C"] = exp_table(block_generator(self))
        try:
            Phi = exp_rows(self._shared["C"], t)
        except AccuracyError:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            C = Phi[..., :N, N:] @ np.swapaxes(Phi[..., :N, :N], -1, -2)
            C = (C + np.swapaxes(C, -1, -2)) / 2.0
        return (C, Phi[..., :N, :N]) if np.isfinite(C).all() else None

    def homogeneous(self):
        """The Homogeneous record of a principal drift (is_dilation_invariant),
        made once per process for each content from one block exponential
        at t = 1; else None.  Its arrays are read-only: every spec of the
        content shares them.
        L is then dilation-invariant (Lanconelli & Polidoro 1994): with
        D = diag(t^(alpha_i / 2)), C(t) = D C(1) D, E(t) = D E(1) D^-1 and
        log det C(t) = log det C(1) + Q log t.  C(1)^-1 is None unless
        det C(1) > 0.  g is _gershgorin's bound for C(1) less (2 kappa + 3) eps:
        C(t)'s entries carry at most 2 kappa + 1 roundings (C), so a
        correlation row sum below 2 moves by less than (2 kappa + 2) eps, and
        one eps covers subnormal entries, if each scaling t^(2 n_i + 1) of
        diag C(t) is normal.  Where one is not, its entry is below 2^-1022
        C(1)_ii < 1e-300 for C(1)_ii <= 2^25, which _clears rejects; past
        that g is -inf and clears no row."""
        if "unit" not in self._shared:
            unit = None
            if self.is_dilation_invariant():
                C1, E1 = self._block(1.0) or (None, None)
                if C1 is None:
                    raise DomainError("C(1) is not finite")
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    sign, logdet = np.linalg.slogdet(C1)
                    inv = np.linalg.inv(C1) if sign > 0 else None
                g = _gershgorin(C1[None])[0][0] - (2 * self.kappa + 3) * np.finfo(float).eps
                g = g if np.diagonal(C1).max() <= 2.0**25 else -np.inf
                unit = Homogeneous(C1, E1, inv, logdet, sign, g)
                for array in (C1, E1, inv):
                    if array is not None:
                        array.flags.writeable = False
            self._shared["unit"] = unit
        return self._shared["unit"]

    def level_powers(self, t):
        """t^n on each coordinate of level n (last axis), for a scalar or (K,)
        array t, by repeated products: no np.power or libm pow, whose last
        bit depends on the library."""
        t = np.asarray(t, dtype=float)
        table = np.ones(t.shape + (self.kappa + 1,))
        with np.errstate(over="ignore", under="ignore"):
            for n in range(1, self.kappa + 1):
                np.multiply(table[..., n - 1], t, out=table[..., n])
        return np.take(table, self.blocks.level, axis=-1)

    def C(self, t):
        """Covariance C(t) = int_0^t E(s) A~ E(s)^T ds (stacked for an array t).

        A principal drift gives D C(1) D, entry (i, j) = ((p_i p_j) t) C(1)_ij
        with p = level_powers(t): exactly symmetric, also for t < 0, and
        t^(n_i + n_j + 1) overflows where the block route's series did.  Any
        other drift reads it off one block exponential per time (_block).
        Each slice is bit-identical to its own K = 1 call; DomainError if
        C(t) overflows.
        """
        unit = self.homogeneous()
        if unit is None:
            C = (self._block(t) or (None,))[0]
        else:
            t, p = np.asarray(t, dtype=float), self.level_powers(t)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                C = ((p[..., :, None] * p[..., None, :]) * t[..., None, None]) * unit.C1
        if C is None or not np.isfinite(C).all():
            raise DomainError(f"C(t) is not finite for a time step up to {np.max(t)}")
        return C


def make_spec(A, B, blocks):
    """Assemble and validate an operator spec."""
    spec = OperatorSpec(A=A, B=B, blocks=BlockStructure(tuple(blocks)))
    spec.exponents()
    return spec


def load_spec(path_or_dict):
    """Read an operator spec from a JSON file or an already-parsed dict."""
    if isinstance(path_or_dict, dict):
        data = path_or_dict
    else:
        try:
            with open(path_or_dict) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read spec {path_or_dict}: {err}") from None
    try:
        A, B = (np.asarray(data[key], dtype=float) for key in ("A", "B"))
        blocks = tuple(data["blocks"])
    except KeyError as err:
        raise StructureError(f"spec has no {err} entry") from None
    except (TypeError, ValueError) as err:
        raise StructureError(f"malformed spec: {err}") from None
    spec = make_spec(A, B, blocks)
    for key, size, what in (("N", spec.N, "blocks sum to"), ("m", spec.m, "first block is")):
        declared = data.get(key, size)
        if not _whole(declared):
            raise StructureError(f"declared {key}={declared!r} is not a whole number")
        if declared != size:
            raise StructureError(f"declared {key}={data[key]} but {what} {size}")
    return spec


def level_exponents(blocks):
    """alpha_i = 2n+1 on level n, and Q = sum of alpha_i."""
    alpha = (2 * blocks.level + 1).tolist()
    return Exponents(alpha=tuple(alpha), Q=sum(alpha))


def validate_structure(spec):
    """Check all structural invariants of an OperatorSpec.

    Returns the dilation exponents.  Raises StructureError naming the
    offending level or block, or EllipticityError for a bad A.
    """
    blocks = spec.blocks
    N, m = blocks.N, blocks.sizes[0]
    if spec.B.shape != (N, N):
        raise StructureError(f"B must be {N}x{N}, got {spec.B.shape}")
    if spec.A.shape != (m, m):
        raise StructureError(f"A must be {m}x{m}, got {spec.A.shape}")
    if not (np.isfinite(spec.A).all() and np.isfinite(spec.B).all()):
        raise StructureError("A and B must have finite entries")
    if not _symmetric(spec.A):
        raise EllipticityError("A is not symmetric")
    if np.linalg.eigvalsh(spec.A)[0] <= 0.0:
        raise EllipticityError("A is not positive definite")

    for i in range(blocks.kappa + 1):
        for j in range(blocks.kappa + 1):
            if j >= i - 1:
                continue
            blk = spec.B[blocks.level_slice(i), blocks.level_slice(j)]
            if np.abs(blk).max() > ZERO_BLOCK_TOL:
                raise StructureError(
                    f"block ({i},{j}) below the subdiagonal must be zero, "
                    f"max entry {np.abs(blk).max():g}"
                )
    for j in range(1, blocks.kappa + 1):
        blk = spec.B[blocks.level_slice(j), blocks.level_slice(j - 1)]
        sv = np.linalg.svd(blk, compute_uv=False)
        rank = int(np.sum(sv > RANK_TOL))
        if rank < blocks.sizes[j]:
            raise StructureError(
                f"subdiagonal block at level {j} has rank {rank}, "
                f"needs {blocks.sizes[j]}"
            )
    return level_exponents(blocks)


def embedded_A(spec):
    """A embedded in the top-left m x m corner of an N x N zero matrix."""
    At = np.zeros((spec.N, spec.N))
    At[: spec.m, : spec.m] = spec.A
    return At


def block_generator(spec):
    """M = [[-B, A~], [0, B^T]]: the top block row of exp(t M) is [E(t), G(t)]
    with C(t) = G(t) E(t)^T (Van Loan, IEEE TAC 1978)."""
    N = spec.N
    M = np.zeros((2 * N, 2 * N))
    M[:N, :N], M[:N, N:], M[N:, N:] = -spec.B, embedded_A(spec), spec.B.T
    return M


def compose_rows(Z, W, spec, E=None):
    """Row-wise group product Z[k] o W[k] = (xi + E(tau) x, t + tau).

    A (1, N+1) block on either side pairs with every row of the other.
    ``E`` is the stack E(tau_k) for the times of W, when the caller has
    it already.
    """
    if E is None:
        E = spec.E(W[:, -1])
    out = np.empty((len(Z) if len(W) == 1 else len(W), Z.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # finite_rows rejects the overflow
        out[:, :-1] = W[:, :-1] + matvec_rows(E, Z[:, :-1])
        out[:, -1] = Z[:, -1] + W[:, -1]
    return finite_rows(out)


def inverse_rows(Z, spec):
    """Row-wise group inverse (x,t)^{-1} = (-E(-t) x, -t)."""
    out = np.empty(Z.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # finite_rows rejects the overflow
        out[:, :-1] = -matvec_rows(spec.E(-Z[:, -1]), Z[:, :-1])
    out[:, -1] = -Z[:, -1]
    return finite_rows(out)


def dilate_rows(r, Z, exps):
    """Row-wise dilation delta_r: x_i -> r^{alpha_i} x_i, t -> r^2 t, with
    one r for all rows or one per row."""
    r = np.asarray(r, dtype=float)
    if (r <= 0.0).any():
        raise DomainError(
            f"dilation parameter must be positive, got {float(r.min())}")
    out = np.empty(Z.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # finite_rows rejects the overflow
        scales = np.power(r[..., None], np.asarray(exps.alpha, dtype=float))
        out[:, :-1] = scales * Z[:, :-1]
        out[:, -1] = r * r * Z[:, -1]
    return finite_rows(out)


def knorm_rows(Z, exps):
    """Row-wise homogeneous quasi-norm: max of |x_i|^{1/alpha_i} and |t|^{1/2}.

    Every power is ``np.float_power``, which calls libm ``pow`` as a
    Python float ``**`` does; ``np.power`` rounds differently on some
    inputs and would move the reports.
    """
    powers = [1.0 / a for a in exps.alpha] + [0.5]
    return reduce_columns(np.maximum, np.float_power(np.abs(finite_rows(Z)), powers))


def kdist_rows(Z, W, spec):
    """Row-wise quasi-distance d_K(Z[k], W[k]) = ||W[k]^{-1} o Z[k]||_K."""
    return knorm_rows(compose_rows(inverse_rows(W, spec), Z, spec),
                      spec.exponents())


def _scale_powers(blocks):
    """2 (j - i + 1) on each entry of block (i, j): the power of r that
    scaled_B puts there, 0 on the subdiagonal (B_0) and negative below it."""
    level = blocks.level
    return 2 * (level[None, :] - level[:, None] + 1)


def scaled_B(spec, r):
    """Blockwise-scaled drift B_r; B_1 = B and B_0 is the principal part.

    Block (i, j) is scaled by r^{2(j - i + 1)}; the subdiagonal (j = i-1)
    is left untouched and every admissible block above it vanishes as
    r -> 0.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"scale parameter must lie in [0, 1], got {r}")
    power = _scale_powers(spec.blocks)
    factor = np.array([1.0] + [r**k for k in range(1, 2 * spec.kappa + 3)])
    return np.where(power < 0, 0.0, factor[np.maximum(power, 0)] * spec.B)


def project_level(x, n, blocks):
    """Zero all coordinates of x (of each row of a block) outside dilation level n."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    sl = blocks.level_slice(n)
    out[..., sl] = x[..., sl]
    return out


def level_map_solve(spec, n, target):
    """Minimum-norm w in V_0 with B^n w = target in V_n.

    The minimum-norm least-squares solution of the restricted map is
    automatically orthogonal to its kernel, which is the defining
    property of V_{0,n}.
    """
    if not 1 <= n <= spec.kappa:
        raise DomainError(f"level {n} out of range 1..{spec.kappa}")
    blocks = spec.blocks
    target = np.asarray(target, dtype=float)
    if target.shape == (spec.N,):
        target_n = target[blocks.level_slice(n)]
    elif target.shape == (blocks.sizes[n],):
        target_n = target
    else:
        raise DomainError(f"target must have {spec.N} or {blocks.sizes[n]} entries")

    Bn = np.linalg.matrix_power(spec.B, n)
    M = Bn[blocks.level_slice(n), blocks.level_slice(0)]
    w0, *_ = np.linalg.lstsq(M, target_n, rcond=None)
    if np.linalg.norm(M @ w0 - target_n) > 1e-10 * max(1.0, np.linalg.norm(target_n)):
        raise StructureError(
            f"level-{n} map could not reach the target; spec violates surjectivity"
        )
    w = np.zeros(spec.N)
    w[blocks.level_slice(0)] = w0
    return w


def sample_ball(spec, radius, count, rng):
    """Uniform samples in the quasi-ball Q_radius about the origin, as a
    (count, N+1) row block.

    The unit quasi-ball is exactly the unit box in (x, t), so sampling
    reduces to a box sample followed by a dilation.  The box is one draw
    of count * (N+1) numbers, the stream that count draws of one point
    each would give.
    """
    return dilate_rows(radius, rng.uniform(-1.0, 1.0, size=(count, spec.N + 1)),
                       spec.exponents())


def kolmogorov_spec(m=1):
    """The classical kinetic operator: Delta_v - <v, D_y> - d_t."""
    N = 2 * m
    B = np.zeros((N, N))
    B[m:, :m] = -np.eye(m)
    return make_spec(np.eye(m), B, (m, m))


def heat_spec(N=1):
    """The heat operator: B = 0, m = N."""
    return make_spec(np.eye(N), np.zeros((N, N)), (N,))
