"""The stacked planner against the one-call-per-arc planner it replaced.

``gamma_traj`` takes the matrices of all its Y arcs from one stacked E
call, and ``verify_plan`` those of all Y segments from one stacked E call
and every quasi-distance from one kdist_rows call.  Here they meet
verbatim copies of the code before that change: a trajectory that makes
one E call per arc, and a plan check that flows each segment with its
own E call and makes one kdist_rows call for the endpoint and one for
the segments.  Over generated admissible specs, principal and not, at
every level, the segments and every field of the check must be equal bit
for bit; tampered plans, and arcs whose E overflows, must raise the same
exception type with the same message.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kolmo import make_spec, taylor
from kolmo.errors import AccuracyError, KolmoError, PlanIntegrityError
from kolmo.group import kdist_rows
from kolmo.taylor import (SEGMENT_TOL, PathPlan, connect, endpoint_error,
                          flow_X, flow_Y_rows, gamma_traj, verify_plan)

from test_rows import BLOCKS, PROPERTY, admissible_spec

SPECS = st.builds(admissible_spec, st.sampled_from(BLOCKS), st.integers(0, 2**32 - 1),
                  st.booleans())
CLI_POLICY = {"over": "raise", "divide": "raise", "invalid": "raise"}


def oracle_append_Y(segments, s, z, spec):
    end = flow_Y_rows(s, z[None], spec)[0]
    segments.append(taylor._segment("Y", np.zeros(z.size - 1), s, z, end))
    return end


def oracle_gamma_traj(n, v, s, z, spec, segments=None):
    """gamma_traj with one E call per Y arc."""
    if segments is None:
        segments = []
    if n == 0:
        end = taylor._append_X(segments, v, s, z)
        return end, segments
    cur, _ = oracle_gamma_traj(n - 1, v, s, z, spec, segments)
    cur = oracle_append_Y(segments, s * s, cur, spec)
    cur, _ = oracle_gamma_traj(n - 1, v, -s, cur, spec, segments)
    cur = oracle_append_Y(segments, -s * s, cur, spec)
    return cur, segments


def oracle_verify_plan(plan, spec, tol=1e-9):
    """verify_plan with one E call per Y segment and two kdist_rows calls."""
    cur = plan.source
    for k, seg in enumerate(plan.segments):
        if not np.array_equal(cur, seg.start) and kdist_rows(
                cur[None], seg.start[None], spec)[0] > SEGMENT_TOL:
            raise PlanIntegrityError(f"segment {k} does not chain from the previous end")
        if seg.kind == "X":
            end = flow_X(seg.v, seg.s, seg.start)
        elif seg.kind == "Y":
            end = flow_Y_rows(seg.s, seg.start[None], spec)[0]
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
    return {
        "segments": len(plan.segments),
        "endpoint_error": err,
        "kdist_error": kdist_rows(cur[None], plan.target[None], spec)[0],
        "length": functools.reduce(np.add, kdist_rows(ends, starts, spec), 0.0),
        "ok": err <= max(tol, plan.achieved_error * 1.01 + 1e-15),
    }


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def segment_bits(segments):
    return [(seg.kind, _bits(seg.v), _bits(seg.s), _bits(seg.start), _bits(seg.end))
            for seg in segments]


def traj_outcome(traj, *args):
    """The endpoint and segments, bit for bit, or the type and message of
    the error, under connect's error state."""
    try:
        with np.errstate(over="raise"):
            end, segments = traj(*args)
        return _bits(end), segment_bits(segments)
    except (KolmoError, FloatingPointError) as err:
        return type(err), str(err)


def check_outcome(check, plan, spec):
    """Every field of the plan check, bit for bit, or the type and message
    of the error, under the command line's floating-point policy."""
    try:
        with np.errstate(**CLI_POLICY):
            got = check(plan, spec)
        return {key: (value if key == "ok" else _bits(value)) for key, value in got.items()}
    except (KolmoError, FloatingPointError) as err:
        return type(err), str(err)


def _direction(spec, rng):
    v = np.zeros(spec.N)
    v[: spec.m] = rng.standard_normal(spec.m)
    return v / np.linalg.norm(v)


@PROPERTY
@given(SPECS, st.integers(0, 2**32 - 1))
def test_one_E_pair_per_trajectory_equals_one_call_per_arc(spec, seed):
    # every level, both signs and |s| from 1e-3 to 10, and |s| = 40, where
    # E(s^2) of most non-principal specs overflows and both raise
    rng = np.random.default_rng(seed)
    for n in range(spec.kappa + 1):
        for s in (rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 1.0),
                  rng.choice([-40.0, 40.0])):
            args = (n, _direction(spec, rng), s, rng.uniform(-1.0, 1.0, spec.N + 1), spec)
            assert traj_outcome(gamma_traj, *args) == traj_outcome(oracle_gamma_traj, *args)


def test_an_arc_that_overflows_is_raised_before_the_E_that_overflows():
    # B has the eigenvalues 1 and -2: E(-400) = e^{400 B} is finite, but the
    # first arc's flow of a coordinate of 1e140 overflows, before the second
    # arc needs E(400), which is past the largest double and makes the
    # stacked pair raise
    spec = make_spec(np.eye(1), np.array([[1.0, 0.0], [1.0, -2.0]]), (1, 1))
    args = (1, np.array([1.0, 0.0]), 20.0, np.array([1e140, 0.0, 0.0]), spec)
    with pytest.raises(AccuracyError):
        spec.E([-400.0, 400.0])
    assert traj_outcome(gamma_traj, *args) == traj_outcome(oracle_gamma_traj, *args) == (
        FloatingPointError, "overflow encountered in multiply")


def _trajectory_plan(spec, rng):
    """A time-match arc, then one trajectory per level 1..kappa, each from
    the end of the last: every level's Y arcs in one plan."""
    z = rng.uniform(-1.0, 1.0, spec.N + 1)
    plan = PathPlan(source=z, target=rng.uniform(-1.0, 1.0, spec.N + 1))
    cur = taylor._append_Y(plan.segments, z[-1] - plan.target[-1], z, spec)
    for n in range(1, spec.kappa + 1):
        cur, _ = gamma_traj(n, _direction(spec, rng), rng.uniform(-1.0, 1.0), cur, spec,
                            plan.segments)
    return plan


@PROPERTY
@given(SPECS, st.integers(0, 2**32 - 1))
def test_one_stacked_plan_check_equals_the_check_per_segment(spec, seed):
    rng = np.random.default_rng(seed)
    plans = [_trajectory_plan(spec, rng)]
    if spec.kappa <= 2:  # a generic drift's planner is slow on longer chains
        z, zeta = rng.uniform(-0.5, 0.5, (2, spec.N + 1))
        try:
            plans.append(connect(z, zeta, spec))
        except AccuracyError as err:  # a cut-off plan, if the error holds one, is checked
            plans += [err.plan] if getattr(err, "plan", None) else []
    for plan in plans:
        assert check_outcome(verify_plan, plan, spec) == check_outcome(
            oracle_verify_plan, plan, spec)


def _replace(plan, k, **changes):
    plan.segments[k] = dataclasses.replace(plan.segments[k], **changes)


def _broken_chain(plan):
    _replace(plan, 1, start=plan.segments[1].start + 1e-3)


def _unknown_kind(plan):
    _replace(plan, 2, kind="Z")


def _moved_end(plan):
    _replace(plan, 2, end=plan.segments[2].end + 1e-3)


def _overflowing_arc(plan):
    # e^{1000 B} is past the largest double on the drifted operator
    k = max(i for i, seg in enumerate(plan.segments) if seg.kind == "Y")
    _replace(plan, k, s=1000.0)


def _overflowing_arc_after_a_broken_chain(plan):
    _overflowing_arc(plan)
    _broken_chain(plan)


@pytest.mark.parametrize("tamper, error", [
    (_broken_chain, "segment 1 does not chain from the previous end"),
    (_unknown_kind, "segment 2 has unknown kind 'Z'"),
    (_moved_end, "segment 2 endpoint does not match its flow"),
    (_overflowing_arc, "overflow in matrix exponential"),
    (_overflowing_arc_after_a_broken_chain, "segment 1 does not chain from the previous end"),
])
def test_a_tampered_plan_raises_as_the_check_per_segment(drifted, tamper, error):
    outcomes = []
    for check in (verify_plan, oracle_verify_plan):
        plan = connect(np.array([0.4, -0.7, 0.1]), np.array([-0.2, 0.5, 0.9]), drifted)
        assert len(plan.segments) > 3 and plan.segments[0].kind == "Y"
        tamper(plan)
        outcomes.append(check_outcome(check, plan, drifted))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == error
