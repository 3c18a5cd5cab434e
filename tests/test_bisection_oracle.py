"""taylor._solve_level_param against the one-step-at-a-time bisection it
replaced: one K = 1 phi evaluation per midpoint, in walk order.  The
stacked-subtree solver must give the same root bits, or raise the same
exception type with the same message, over generated non-principal
specs, every level, random needs and starting guesses, under the
overflow-raising error state that connect sets.  Also here: a root whose
ulp exceeds the 1e-12 width, so that the 200-step cap ends the walk,
batches that overflow at one midpoint, on the walk or off it, and a
stacked bracket call that overflows past the bound that brackets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmo import taylor
from kolmo.errors import AccuracyError, KolmoError, NonConvergenceError
from kolmo.group import project_level
from kolmo.taylor import _solve_level_param

from test_rows import BLOCKS, admissible_spec

PROPERTY = settings(derandomize=True, database=None, max_examples=30,
                    deadline=None)
NON_PRINCIPAL = st.builds(admissible_spec, st.sampled_from([b for b in BLOCKS if len(b) > 1]),
                          st.integers(0, 2**32 - 1), st.just(False))


def sequential_solve(n, v, s_guess, need, spec):
    """The bisection one midpoint at a time, one K = 1 phi call each, made
    through the module attribute so that the tests below can patch it."""
    blocks = spec.blocks
    nhat = need / np.linalg.norm(need)
    target = float(np.linalg.norm(need))

    def phi(s):
        inc = taylor.traj_increment_rows(n, v, [s], spec)[0]
        return float(project_level(inc, n, blocks) @ nhat) - target

    def bracket(hi0):
        lo, flo = 0.0, phi(0.0)
        hi = hi0
        for _ in range(60):
            try:
                fhi = phi(hi)
            except (AccuracyError, FloatingPointError):  # the step overflows
                return None
            if flo * fhi <= 0.0:
                return lo, hi, flo, fhi
            hi *= 1.5
        return None

    found = bracket(s_guess) or bracket(-s_guess)
    if found is None:
        raise NonConvergenceError(f"no bracket for the level-{n} equation")
    lo, hi, flo, fhi = found
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = phi(mid)
        if fmid == 0.0 or abs(hi - lo) < 1e-12:
            return mid
        if flo * fmid <= 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def outcome(solve, *args):
    """The root's float64 bits, or the type and message of the error, under
    connect's error state."""
    try:
        with np.errstate(over="raise"):
            return np.float64(solve(*args)).tobytes()
    except (KolmoError, FloatingPointError) as err:
        return type(err), str(err)


@PROPERTY
@given(NON_PRINCIPAL, st.integers(0, 2**32 - 1))
def test_stacked_bisection_equals_one_step_at_a_time(spec, seed):
    rng = np.random.default_rng(seed)
    for n in range(1, spec.kappa + 1):
        v = np.zeros(spec.N)
        v[: spec.m] = rng.standard_normal(spec.m)
        v /= np.linalg.norm(v)
        need = project_level(rng.standard_normal(spec.N), n, spec.blocks)
        need *= 10.0 ** rng.uniform(-3.0, 1.0)
        s_guess = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 1.2)
        args = (n, v, s_guess, need, spec)
        assert outcome(_solve_level_param, *args) == outcome(sequential_solve, *args)


def test_the_cap_counts_steps_not_batches(drifted, monkeypatch):
    # the level-1 equation 0.7 s (1 - e^{-s^2}) = 12345.678: near its root
    # s = 17637 ulp(s) = 3.6e-12 exceeds the 1e-12 width, and no midpoint
    # gives phi = 0, so only the cap ends the walk
    args = (1, np.array([0.7, 0.0]), 1e4, np.array([0.0, 12345.678]), drifted)
    calls = []
    rows = taylor.traj_increment_rows

    def counted(n, v, s, spec):
        calls.append(len(s))
        return rows(n, v, s, spec)

    monkeypatch.setattr(taylor, "traj_increment_rows", counted)
    want = outcome(sequential_solve, *args)
    assert len(calls) == 4 + 200  # phi at 0, 1e4, 1.5e4 and 2.25e4, then one per step
    del calls[:]
    assert outcome(_solve_level_param, *args) == want
    # one stacked call on the first BISECTION_DEPTH bounds (phi(0) = -target
    # needs none), then the subtrees
    batch = 2**taylor.BISECTION_DEPTH - 1
    assert calls == [taylor.BISECTION_DEPTH] + [batch] * (200 // taylor.BISECTION_DEPTH)


@pytest.mark.parametrize("error", [AccuracyError("overflow in matrix exponential"),
                                   FloatingPointError("overflow encountered in matmul")])
def test_an_overflowing_batch_is_walked_one_midpoint_at_a_time(drifted, monkeypatch, error):
    # s (1 - e^{-s^2}) = -2, bracketed by [0, -3]: poison each midpoint of
    # the first subtree in turn, so that any batch holding it raises; off
    # the walk the root keeps its bits, on it both solvers raise there
    args = (1, np.array([1.0, 0.0]), -3.0, np.array([0.0, -2.0]), drifted)
    calls = []
    rows = taylor.traj_increment_rows

    def poisoned(n, v, s, spec):
        calls.append(list(s))
        if bad in s:
            raise error
        return rows(n, v, s, spec)

    monkeypatch.setattr(taylor, "traj_increment_rows", poisoned)
    bad = None
    root = outcome(_solve_level_param, *args)
    first_subtree = next(s for s in calls if len(s) == 2**taylor.BISECTION_DEPTH - 1)
    raised = 0
    for bad in first_subtree:
        got = outcome(_solve_level_param, *args)
        assert got == outcome(sequential_solve, *args)
        raised += got != root
        if got != root:
            assert got == (type(error), str(error))
    assert raised == taylor.BISECTION_DEPTH  # the walk visits one midpoint per level


@pytest.mark.parametrize("error", [AccuracyError("overflow in matrix exponential"),
                                   FloatingPointError("overflow encountered in matmul")])
def test_an_overflowing_bracket_call_is_scanned_one_bound_at_a_time(drifted, monkeypatch, error):
    # s (1 - e^{-s^2}) = -2 from the guess -3: the stacked call on the bounds
    # -3, -4.5, -6.75 and -10.125 overflows at its third, but the first
    # brackets the root, which keeps its bits
    args = (1, np.array([1.0, 0.0]), -3.0, np.array([0.0, -2.0]), drifted)
    root = outcome(_solve_level_param, *args)
    calls = []
    rows = taylor.traj_increment_rows

    def poisoned(n, v, s, spec):
        calls.append(list(s))
        if -6.75 in s:
            raise error
        return rows(n, v, s, spec)

    monkeypatch.setattr(taylor, "traj_increment_rows", poisoned)
    assert outcome(_solve_level_param, *args) == root == outcome(sequential_solve, *args)
    assert calls[:2] == [[-3.0, -4.5, -6.75, -10.125], [-3.0]]
