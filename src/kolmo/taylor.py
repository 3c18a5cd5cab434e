"""Intrinsic second-order Taylor polynomial and the trajectory planner.

The planner connects two points by integral curves of the first-level
fields X_v (straight lines in the first m coordinates) and the drift Y
(whose flow is e^{sY}(x, t) = (exp(sB) x, t - s)).  Higher coordinate
levels are reached through the recursive commutator-style trajectories

    gamma^(0)_{v,s}(z)   = (x + s v, t)
    gamma^(n+1)_{v,s}(z) = e^{-s^2 Y} gamma^(n)_{v,-s} e^{s^2 Y}
                           gamma^(n)_{v,s} (z).

For a dilation-invariant drift, gamma^(n) moves level n by exactly
s^{2n+1} B^n v and leaves the lower levels untouched; for a generic
drift the planner solves the level equation by bisection and repairs
the disturbed levels in a capped fixed-point loop.  The planner takes
and records each point as one (N+1,) row (x_1, .., x_N, t).
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    KolmoError,
    NonConvergenceError,
    PlanIntegrityError,
)
from .group import (
    Point,
    compose_rows,
    dilate_rows,
    finite_rows,
    inverse_rows,
    kdist_rows,
    level_map_solve,
    project_level,
)
from .matrixcalc import (dot_rows,
                         mat_exp,  # unused here; the benchmark's tracer test reads kolmo.taylor.mat_exp
                         matvec_rows, reduce_columns, vecmat_rows)

SEGMENT_TOL = 1e-12
RICHARDSON_TOL = 1e-3  # largest step-halving change, relative to max(1, |value|)
BISECTION_DEPTH = 4  # bisection steps whose midpoints one phi call evaluates
MAX_ITERS = 50  # most correction rounds connect makes on a non-principal drift


def endpoint_error(a, b):
    """Max-abs coordinate discrepancy between two (N+1,) rows.

    Convergence of the planner is measured in plain coordinates rather
    than the quasi-distance: the 1/alpha root in the quasi-norm blows a
    machine-epsilon residual on level n up to eps^{1/(2n+1)}, which
    would make tight tolerances unreachable for any plan.
    """
    return float(np.abs(a - b).max())


@dataclass(frozen=True)
class C2Bundle:
    """A function with its first/second derivatives in the first m
    variables and its Lie derivative along the drift.

    Fields are callables on a (K, N+1) row block: u -> (K,), grad_m ->
    (K, m), and hess_Yu -> the pair of the Hessian in the first m
    variables, (K, m, m), and Yu, (K,), from one evaluation of u.  One
    point is a (1, N+1) block.  Every field is row-wise, so blocks may be
    stacked in one call.
    """

    u: object
    grad_m: object
    hess_Yu: object


@dataclass(frozen=True)
class PathSegment:
    """One closed-form flow piece: an X_v line or a drift arc, from the
    (N+1,) row start to the row end."""

    kind: str  # "X" or "Y"
    v: np.ndarray  # unit direction in V_0 for X segments, zeros for Y
    s: float
    start: np.ndarray
    end: np.ndarray


@dataclass
class PathPlan:
    """Ordered flow segments steering source to target."""

    source: np.ndarray
    target: np.ndarray
    segments: list = field(default_factory=list, init=False)
    achieved_error: float = field(default=0.0, init=False)

    def to_json_dict(self):
        return {
            "source": self.source.tolist(),
            "target": self.target.tolist(),
            "achieved_error": self.achieved_error,
            "segments": [
                {
                    "kind": seg.kind,
                    "v": seg.v.tolist(),
                    "s": seg.s,
                    "start": seg.start.tolist(),
                    "end": seg.end.tolist(),
                }
                for seg in self.segments
            ],
        }


def flow_X(v, s, z):
    """Straight-line flow of X_v from the row z = (x, t): (x + s v, t)."""
    end = z.copy()
    end[:-1] += s * np.asarray(v, dtype=float)
    return end


def flow_Y_rows(s, Z, spec, E=None):
    """The drift flow e^{sY} of every row of Z: (exp(sB) x, t - s).  ``E``
    is E(-s) = exp(sB), when the caller has it already."""
    out = np.empty(Z.shape)
    out[:, :-1] = matvec_rows(spec.E(-s) if E is None else E, Z[:, :-1])
    out[:, -1] = Z[:, -1] - s
    return finite_rows(out)


def flow_Y(s, z, spec):
    """Drift flow e^{sY}(x, t) = (exp(sB) x, t - s)."""
    return Point.from_row(flow_Y_rows(s, z.row(), spec))


def _segment(kind, v, s, start, end):
    return PathSegment(kind=kind, v=np.asarray(v, dtype=float), s=float(s), start=start, end=end)


def _append_X(segments, v, s, z):
    end = flow_X(v, s, z)
    segments.append(_segment("X", v, s, z, end))
    return end


def _append_Y(segments, s, z, spec, E=None):
    end = flow_Y_rows(s, z[None], spec, E)[0]
    segments.append(_segment("Y", np.zeros(z.size - 1), s, z, end))
    return end


def gamma_traj(n, v, s, z, spec, segments=None):
    """Recursive trajectory gamma^(n)_{v,s} from the row z; returns
    (endpoint, trace).

    Every Y arc flows by s^2 or -s^2, as (-s)(-s) = s s exactly, so the
    arcs' matrices E(-s^2) and E(s^2) come from one stacked call.  If that
    call raises, each arc makes its own, and an error is raised at the arc
    that raises it alone.
    """
    if n < 0:
        raise DomainError("trajectory level must be >= 0")
    if segments is None:
        segments = []
    try:
        E = spec.E([-(s * s), s * s]) if n else (None, None)
    except (KolmoError, FloatingPointError):  # each arc makes its own call
        E = (None, None)
    return _gamma_traj(n, v, s, z, spec, segments, E), segments


def _gamma_traj(n, v, s, z, spec, segments, E):
    """gamma_traj's recursion, with ``E`` the pair (E(-s^2), E(s^2)) or
    (None, None); returns the endpoint."""
    if n == 0:
        return _append_X(segments, v, s, z)
    cur = _gamma_traj(n - 1, v, s, z, spec, segments, E)
    cur = _append_Y(segments, s * s, cur, spec, E[0])
    cur = _gamma_traj(n - 1, v, -s, cur, spec, segments, E)
    return _append_Y(segments, -s * s, cur, spec, E[1])


def richardson(d1, d2, message):
    """(4 D(h/2) - D(h)) / 3 from the difference quotients d1 = D(h) and
    d2 = D(h/2) on rows.

    One Richardson halving: AccuracyError(message) unless the two steps
    differ by at most RICHARDSON_TOL * max(1, |extrapolation|) on every
    row, so a NaN on any row fails.
    """
    extrap = (4.0 * d2 - d1) / 3.0
    if not (np.abs(d2 - d1) <= RICHARDSON_TOL * np.maximum(1.0, np.abs(extrap))).all():
        raise AccuracyError(message)
    return extrap


def taylor2(bundle, z, Zeta, spec, form="group"):
    """Second-order intrinsic Taylor polynomial of the bundle at the one
    row z, evaluated at every row of Zeta.

    The euclidean form uses raw coordinate differences xi_i - x_i; the
    group form uses the first m components of the left-invariant
    increment z^{-1} o zeta.  Both use -Yu(z)(tau - t) for the drift
    term.  The forms coincide whenever the first block row of B is zero.
    A u, gradient, Hessian or Yu that is not finite at z is a DomainError,
    in either form.
    """
    m = spec.m
    z, Zeta = finite_rows(z), finite_rows(Zeta)
    if form == "euclidean":
        dx = (Zeta[:, :-1] - z[:, :-1])[:, :m]
    elif form == "group":
        dx = compose_rows(inverse_rows(z, spec), Zeta, spec)[:, :m]
    else:
        raise DomainError(f"unknown Taylor form {form!r}")
    dtau = Zeta[:, -1] - z[0, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        u0, g, (H, Yu) = bundle.u(z)[0], bundle.grad_m(z)[0], bundle.hess_Yu(z)
    if not all(np.isfinite(v).all() for v in (u0, g, H, Yu)):
        raise DomainError(f"u or its derivatives are not finite at {z[0].tolist()}")
    return u0 + dot_rows(dx, g) + 0.5 * dot_rows(vecmat_rows(dx, H[0]), dx) - Yu[0] * dtau


def remainder_profile(bundle, z, direction, rhos, spec, form="group"):
    """Taylor remainder at zeta(rho) = z o delta_rho(direction), at
    distance ~rho from the row z, for every rho at once.

    Returns a list of (rho, |u(zeta) - T2(zeta)| / rho^2).
    """
    Zeta = compose_rows(z, dilate_rows(rhos, np.repeat(direction, len(rhos), axis=0),
                                       spec.exponents()), spec)
    # the polynomial first: its group step rejects a point whose increments
    # overflow (DomainError) before the bundle is evaluated there
    T2 = taylor2(bundle, z, Zeta, spec, form=form)
    rem = np.abs(bundle.u(Zeta) - T2)
    return [(rho, r / rho**2) for rho, r in zip(rhos, rem.tolist())]


def _leading_sign_unit(w):
    """Unit vector with positive leading nonzero entry, plus the sign
    absorbed into the flow parameter."""
    norm = np.linalg.norm(w)
    if not (np.isfinite(norm) and norm > 0.0):
        raise NonConvergenceError(f"flow direction has norm {norm:g}")
    v = w / norm
    lead = v[np.flatnonzero(np.abs(v) > 0)[0]]
    if lead < 0:
        return -v, -1.0
    return v, 1.0


def traj_increment_rows(n, v, s, spec):
    """Displacements of gamma^(n)_{v,s} in closed form, one row per
    parameter of the 1-d array s, each rounded as its own K = 1 call.

    Independent of the base point: Delta_0(s) = s v and
    Delta_{n+1}(s) = Delta_n(s) + exp(-s^2 B) Delta_n(-s), in one pass
    over the pair (Delta_k(s), Delta_k(-s)) with one stacked E(s^2) for
    both signs.  Unlike re-executing the flows, this never forms the huge
    intermediate exp(s^2 B) x products, so it stays accurate for large
    parameters.
    """
    s = np.asarray(s, dtype=float)
    plus, minus = np.outer(s, v), np.outer(-s, v)
    if n == 0:
        return plus
    E = spec.E(s * s)
    for _ in range(n - 1):
        plus, minus = plus + matvec_rows(E, minus), minus + matvec_rows(E, plus)
    return plus + matvec_rows(E, minus)


def _midpoint_heap(lo, hi):
    """The next BISECTION_DEPTH steps' midpoints from [lo, hi] in heap order
    (children 2i + 1, 2i + 2), each 0.5 * (a + b) of the bounds it bisects."""
    bounds, mids = [(lo, hi)], []
    while len(mids) < 2**BISECTION_DEPTH - 1:
        a, b = bounds[len(mids)]
        mids.append(0.5 * (a + b))
        bounds += [(a, mids[-1]), (mids[-1], b)]
    return mids


def _solve_level_param(n, v, s_guess, need, spec):
    """Bisection in s for the level-n increment along the needed direction.

    ``need`` is the required level-n increment vector; the scalar
    equation matches its component along need/|need|, to a width of 1e-12.
    The bracket scans the bounds hi0 1.5^k from phi(0) = -target (the
    increment at s = 0 is zero), the first BISECTION_DEPTH of them from one
    phi call.  Then it evaluates stacked subtrees: one phi call on the
    midpoints of the next BISECTION_DEPTH steps, walked by the one-step
    rules, bit for bit.  A stacked call that overflows is walked one K = 1
    call at a time, so an error is raised at the bound or midpoint where
    one step at a time would.
    """
    blocks = spec.blocks
    nhat = need / np.linalg.norm(need)
    target = float(np.linalg.norm(need))

    def phi(s):
        inc = project_level(traj_increment_rows(n, v, s, spec), n, blocks)
        return (dot_rows(inc, nhat) - target).tolist()

    def bracket(hi0):
        his = [hi0]
        while len(his) < BISECTION_DEPTH:
            his.append(his[-1] * 1.5)
        try:
            fhis = phi(his)
        except (AccuracyError, FloatingPointError):  # some bound overflows
            fhis = []
        hi = hi0
        for k in range(60):
            try:
                fhi = fhis[k] if k < len(fhis) else phi([hi])[0]
            except (AccuracyError, FloatingPointError):  # the step overflows
                return None
            if -target * fhi <= 0.0:
                return 0.0, hi, -target
            hi *= 1.5
        return None

    found = bracket(s_guess) or bracket(-s_guess)
    if found is None:
        raise NonConvergenceError(f"no bracket for the level-{n} equation")
    lo, hi, flo = found
    steps = 0
    while steps < 200:
        mids = _midpoint_heap(lo, hi)
        try:
            fmids = phi(mids)
        except (AccuracyError, FloatingPointError):  # some midpoint overflows
            fmids = None
        node = 0
        while node < len(mids) and steps < 200:
            mid = mids[node]
            fmid = fmids[node] if fmids else phi([mid])[0]
            if fmid == 0.0 or abs(hi - lo) < 1e-12:
                return mid
            steps += 1
            if flo * fmid <= 0.0:
                hi, node = mid, 2 * node + 1
            else:
                lo, flo, node = mid, fmid, 2 * node + 2
    return 0.5 * (lo + hi)


def connect(z, zeta, spec, tol=1e-9):
    """Plan a concatenation of X and Y flows steering the row z to the row
    zeta.

    One Y arc matches times, one X line matches the first-level
    coordinates, then one trajectory gamma^(n) per level n = 1..kappa.
    Dilation-invariant drifts terminate exactly; otherwise a final X
    correction of the first-level residual is followed by a fixed-point
    repetition until the endpoint error drops below ``tol``, in at most
    MAX_ITERS rounds (NonConvergenceError past them).  A floating
    overflow while planning is an AccuracyError; a tolerance that is not
    finite and >= 0 is a DomainError.
    """
    if not 0.0 <= tol < np.inf:
        raise DomainError(f"tolerance must be finite and >= 0, got {tol}")
    try:
        with np.errstate(over="raise"):
            return _connect(z, zeta, spec, tol)
    except FloatingPointError as err:
        raise AccuracyError(f"overflow while planning: {err}") from None


def _connect(z, zeta, spec, tol):
    blocks = spec.blocks
    plan = PathPlan(source=z, target=zeta)
    if np.array_equal(z, zeta):
        return plan
    segments = plan.segments
    invariant = spec.is_dilation_invariant()

    cur = z
    if cur[-1] != zeta[-1]:
        cur = _append_Y(segments, cur[-1] - zeta[-1], cur, spec)
    cur = _match_level0(segments, cur, zeta, blocks)

    err = endpoint_error(cur, zeta)
    iters = 0
    while err > tol:
        if iters >= MAX_ITERS:
            plan.achieved_error = err
            raise NonConvergenceError(
                f"correction loop hit the cap with error {err:g}", plan=plan
            )
        iters += 1
        for n in range(1, blocks.kappa + 1):
            need = project_level(zeta[:-1] - cur[:-1], n, blocks)
            if np.linalg.norm(need) <= SEGMENT_TOL:
                continue
            w = level_map_solve(spec, n, need)
            v, sign = _leading_sign_unit(w)
            s = sign * np.linalg.norm(w) ** (1.0 / (2 * n + 1))
            if not invariant:
                s = _solve_level_param(n, v, s, need, spec)
            cur, _ = gamma_traj(n, v, s, cur, spec, segments)
        cur = _match_level0(segments, cur, zeta, blocks)
        err = endpoint_error(cur, zeta)
        if invariant:
            break
    plan.achieved_error = err
    return plan


def _match_level0(segments, cur, zeta, blocks):
    d0 = project_level(zeta[:-1] - cur[:-1], 0, blocks)
    if np.linalg.norm(d0) <= SEGMENT_TOL:
        return cur
    v, sign = _leading_sign_unit(d0)
    return _append_X(segments, v, sign * np.linalg.norm(d0), cur)


def verify_plan(plan, spec, tol=1e-9):
    """Re-execute every segment and check chaining and the endpoint.

    Returns a dict with the endpoint error and the path length: the
    per-segment quasi-distance increments, summed in segment order.  The
    Y arcs' matrices come from one stacked E call, and the endpoint's and
    the segments' quasi-distances from one kdist_rows call.  A stacked
    call that raises is made again one call at a time, so that an error
    is raised where the segment-by-segment check raises it.
    """
    try:
        E = iter(spec.E([-seg.s for seg in plan.segments if seg.kind == "Y"]))
    except (KolmoError, FloatingPointError):  # each arc makes its own call
        E = itertools.repeat(None)
    cur = plan.source
    for k, seg in enumerate(plan.segments):
        if not np.array_equal(cur, seg.start) and kdist_rows(
                cur[None], seg.start[None], spec)[0] > SEGMENT_TOL:
            raise PlanIntegrityError(f"segment {k} does not chain from the previous end")
        if seg.kind == "X":
            end = flow_X(seg.v, seg.s, seg.start)
        elif seg.kind == "Y":
            end = flow_Y_rows(seg.s, seg.start[None], spec, next(E))[0]
        else:
            raise PlanIntegrityError(f"segment {k} has unknown kind {seg.kind!r}")
        x, t = end[:-1], end[-1]
        if np.abs(x - seg.end[:-1]).max() > SEGMENT_TOL * max(1.0, np.abs(x).max()) or abs(
                t - seg.end[-1]) > SEGMENT_TOL * max(1.0, abs(t)):
            raise PlanIntegrityError(f"segment {k} endpoint does not match its flow")
        cur = seg.end
    ends, starts = (np.reshape([getattr(seg, key) for seg in plan.segments],
                               (-1, cur.size)) for key in ("end", "start"))
    err = endpoint_error(cur, plan.target)
    try:
        d = kdist_rows(np.vstack([cur, ends]), np.vstack([plan.target, starts]), spec)
    except (KolmoError, FloatingPointError):  # the endpoint's call, then the segments'
        d = np.concatenate([kdist_rows(cur[None], plan.target[None], spec),
                            kdist_rows(ends, starts, spec)])
    return {
        "segments": len(plan.segments),
        "endpoint_error": err,
        "kdist_error": d[0],
        "length": functools.reduce(np.add, d[1:], 0.0),
        "ok": err <= max(tol, plan.achieved_error * 1.01 + 1e-15),
    }


# ---------------------------------------------------------------------------
# Analytic bundle families used across the test and verification suites.


def quadratic_bundle(spec, c0=0.0, a=None, H=None, bt=0.0):
    """u = c0 + <a, x_m> + x_m^T H x_m / 2 + bt * t, derivatives exact."""
    m = spec.m
    a = np.zeros(m) if a is None else np.asarray(a, dtype=float)
    H = np.zeros((m, m)) if H is None else np.asarray(H, dtype=float)

    def u(Z):
        xm = Z[:, :m]
        return c0 + dot_rows(a, xm) + 0.5 * dot_rows(vecmat_rows(xm, H), xm) + bt * Z[:, -1]

    def grad_m(Z):
        return a + matvec_rows(H, Z[:, :m])

    def hess_Yu(Z):
        Du = np.zeros((len(Z), spec.N))
        Du[:, :m] = grad_m(Z)
        return (np.repeat(H[None], len(Z), axis=0),
                dot_rows(matvec_rows(spec.B, Z[:, :-1]), Du) - bt)

    return C2Bundle(u=u, grad_m=grad_m, hess_Yu=hess_Yu)


def gaussian_bundle(spec, center_x=None, center_t=0.0, width_x=1.0, width_t=1.0,
                    amplitude=1.0):
    """Smooth Gaussian bump in (x, t) with hand-coded derivatives."""
    N, m = spec.N, spec.m
    c = np.zeros(N) if center_x is None else np.asarray(center_x, dtype=float)
    wx = np.broadcast_to(np.asarray(width_x, dtype=float), (N,)).copy()
    wt2 = width_t**2

    def u(Z):
        # The time term squares by libm pow (np.float_power), as the
        # scalar form ((t - c_t)/w_t) ** 2 does; numpy's array square is
        # x*x, which rounds differently.  The x term was an array square.
        # A square that overflows leaves q = inf and u = 0, the bump's limit.
        with np.errstate(over="ignore"):
            qt = np.float_power((Z[:, -1] - center_t) / width_t, 2.0)
            q = reduce_columns(np.add, ((Z[:, :-1] - c) / wx) ** 2) + qt
        return amplitude * np.exp(-q)

    def grad_full(Z, uZ):
        return -2.0 * (Z[:, :-1] - c) / wx**2 * uZ[:, None]

    def grad_m(Z):
        return grad_full(Z, u(Z))[:, :m]

    def hess_Yu(Z):
        uZ = u(Z)  # one evaluation for the Hessian, the time and the space derivatives
        d = -2.0 * (Z[:, :m] - c[:m]) / wx[:m] ** 2
        outer = d[:, :, None] * d[:, None, :]
        dudt = -2.0 * (Z[:, -1] - center_t) / wt2 * uZ
        return ((outer - np.diag(2.0 / wx[:m] ** 2)) * uZ[:, None, None],
                dot_rows(matvec_rows(spec.B, Z[:, :-1]), grad_full(Z, uZ)) - dudt)

    return C2Bundle(u=u, grad_m=grad_m, hess_Yu=hess_Yu)
