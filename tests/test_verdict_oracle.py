"""kernel._checked_C, the one verdict on C(t), against the three functions
it replaced, kept here verbatim as the oracle: _verdict, _checked_unit and
the _checked_C that called them.  The verdict and its message, and the
returned C(t) and log det, agree on the chains of N = 3 .. 20
one-dimensional levels and on generated specs, principal and not, with
C given, with a principal drift's diagonal given, and with neither.
"""

import numpy as np
from test_rows import BLOCKS, admissible_spec

from kolmo import HypoellipticityError, KolmoError, make_spec
from kolmo.kernel import _checked_C
from kolmo.matrixcalc import _clears, _gershgorin


def _verdict(t, sign, cleared, rows_C):
    """HypoellipticityError unless each row has a determinant sign > 0 and
    is cleared, or its C(t) (rows_C of the mask) an eigvalsh minimum > 1e-300."""
    bad = sign <= 0
    rest = ~(cleared | bad)
    if rest.any():
        bad[rest] = np.linalg.eigvalsh(rows_C(rest))[:, 0] <= 1e-300
    if bad.any():
        raise HypoellipticityError(f"C({t[bad][0]}) is numerically singular")


def old_checked_C(spec, t, C=None):
    """C(t) (given C, the caller's spec.C(t)) and log det C(t) for a (K,)
    array of times > 0, each slice bit-identical to its own K = 1 call.
    DomainError if C(t) overflows, HypoellipticityError if it is
    numerically singular: Hormander's condition, which check reports and
    the kernel acts on.  A principal drift reads it from C(1)
    (_checked_unit), with log det None (its kernel forms it from C(1));
    any other drift from each row's determinant sign > 0 and, on the
    rows _clears rejects, its eigvalsh minimum > 1e-300."""
    C = spec.C(t) if C is None else C
    if spec.homogeneous() is not None:
        _checked_unit(spec, t, np.diagonal(C, axis1=1, axis2=2).T.copy())
        return C, None
    # a zero pivot in slogdet is log(0): sign 0, which the test below rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sign, logdet = np.linalg.slogdet(C)
        cleared = _clears(*_gershgorin(C))
    _verdict(t, sign, cleared, lambda rows: C[rows])
    return C, logdet


def _checked_unit(spec, t, diag):
    """The verdict on a principal drift's C(t) = D C(1) D from its record
    (spec.homogeneous) and diag, the finite (N, K) diagonal of C(t) as
    spec.C forms it, contiguous: the sign of det C(1), then _clears(g, diag),
    then eigvalsh of spec.C on the rows it rejects."""
    unit = spec.homogeneous()
    with np.errstate(over="ignore", invalid="ignore"):
        cleared = _clears(unit.g, diag)
    if unit.sign <= 0 or not cleared.all():
        _verdict(t, np.full(len(t), unit.sign), cleared, lambda rows: spec.C(t[rows]))


def outcome(check, *args, **kwargs):
    """check's error class and message, or the bytes of what it returns,
    under the command line's floating-point policy."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            C, logdet = check(*args, **kwargs)
    except KolmoError as err:
        return type(err), str(err)
    return tuple(None if a is None else a.tobytes() for a in (C, logdet))


def kernel_diag(spec, t):
    """diag C(t) of a principal drift as kernel_jet_rows forms it, (N, K)."""
    p = spec.level_powers(t)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return ((p * p) * t[:, None] * np.diagonal(spec.homogeneous().C1)).T.copy()


def assert_same_verdicts(spec, t):
    """The three calls of the new _checked_C against the old functions at
    the (K,) times t."""
    want = outcome(old_checked_C, spec, t)
    assert outcome(_checked_C, spec, t) == want, (spec.blocks, t)
    try:
        C = spec.C(t)
    except KolmoError:  # C(t) overflows: no caller has a C to give
        C = None
    if C is not None:
        assert outcome(_checked_C, spec, t, C) == outcome(old_checked_C, spec, t, C)
    if spec.homogeneous() is None:
        # a diagonal is a principal drift's input; any other drift reads its rows
        assert outcome(_checked_C, spec, t, diag=np.ones((spec.N, len(t)))) == want
        return want
    diag = kernel_diag(spec, t)
    if np.isfinite(diag).all():  # the kernel refuses a non-finite one first
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            try:
                _checked_unit(spec, t, diag)
                old = "ok"
            except KolmoError as err:
                old = type(err), str(err)
        new = outcome(_checked_C, spec, t, diag=diag)
        assert (new if isinstance(new[0], type) else "ok") == old, (spec.blocks, t)
    return want


def verdicts_over(spec, times):
    """Every time alone and all of them as one stack, counting the refused."""
    refused = 0
    for t in times:
        refused += isinstance(assert_same_verdicts(spec, np.array([t]))[0], type)
    assert_same_verdicts(spec, times)
    return refused


def test_one_checked_C_keeps_the_chains_verdicts():
    # the chains of N = 3 .. 20 levels at t = 10^k, k = -200 .. 100: each
    # refuses some times (C(t) singular or not finite), the short ones clear
    # others, and the long ones fail at every time, as check reports
    times = 10.0 ** np.arange(-200.0, 101.0)
    refused = [verdicts_over(make_spec(np.eye(1), np.diag(np.ones(N - 1), -1), (1,) * N), times)
               for N in range(3, 21)]
    assert min(refused) > 0 and refused[0] < len(times) and refused[-1] == len(times)


def test_one_checked_C_keeps_the_generated_specs_verdicts():
    # every block structure, principal and not, at every tenth decade and
    # at random times, where the non-principal drifts' block route
    # overflows from about t = 10^2 on
    rng = np.random.default_rng(0)
    refused = 0
    for blocks in BLOCKS:
        for principal in (True, False):
            spec = admissible_spec(blocks, len(blocks), principal)
            times = np.concatenate([10.0 ** np.arange(-200.0, 101.0, 10.0),
                                    rng.uniform(0.0, 8.0, 8)])
            refused += verdicts_over(spec, times)
    assert refused > 0
