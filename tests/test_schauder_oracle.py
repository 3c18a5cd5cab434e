"""The batched Schauder functional against the per-d route it replaced:
one split radius at a time, its near and far grids rebuilt with
np.append/np.insert and each integrated by its own 1-d trapezoid.
schauder_functional_rows must give exactly (==) the same values on
random nondecreasing tables, default and other grids, at split radii on
grid radii, at or below r[0], in the last segment and repeated.

Also here: the closed-form Holder bound, an oracle the functional must
stay below."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmo import DomainError, ModulusTable, schauder_functional, schauder_functional_rows
from kolmo import modulus
from kolmo.modulus import DEFAULT_RADII

PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)
# None keeps ROW_CHUNK; a small bound splits the radii into many calls
SPLITS = st.one_of(st.none(), st.integers(1, 40))


def log_trapz(r, w, inv_power):
    u = np.log(r)
    return float(np.trapezoid(w * r ** (1.0 - inv_power), u))


def interp_omega(table, d):
    return float(np.interp(math.log(d), np.log(table.radii), table.omega))


def schauder_functional_oracle(table, d):
    """int_{r_min}^d omega/r dr + d int_d^1 omega/r^2 dr, one d at a time."""
    r, w = table.radii, table.omega
    if d <= r[0]:
        near = 0.0
    else:
        mask = r <= d
        rs = np.append(r[mask], d)
        ws = np.append(w[mask], interp_omega(table, d))
        near = log_trapz(rs, ws, 1)
    if d >= r[-1]:
        far = 0.0
    else:
        mask = r >= d
        rs = np.insert(r[mask], 0, d)
        ws = np.insert(w[mask], 0, interp_omega(table, d))
        far = d * log_trapz(rs, ws, 2)
    return near + far


def holder_closed_form(M, alpha, d):
    """Closed-form Schauder bound for a Holder modulus M r^alpha.

    M d^alpha / (alpha (1-alpha)) for alpha < 1 and M d |log d| in the
    borderline Lipschitz case; always dominates the numeric functional.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"exponent must lie in (0, 1], got {alpha}")
    if not 0.0 < d < 1.0:
        raise DomainError(f"split radius must lie in (0, 1), got {d}")
    if alpha == 1.0:
        return M * d * abs(math.log(d))
    return M * d**alpha / (alpha * (1.0 - alpha))


def random_table(rng, default_grid):
    """A nondecreasing table with plateaus and a zero stretch, on the
    default grid or on 2-65 log-uniform radii that may stop short of 1."""
    if default_grid:
        r = DEFAULT_RADII
    else:
        r = np.unique(np.exp(rng.uniform(math.log(1e-9), 0.0, rng.integers(2, 66))))
        if rng.random() < 0.5:
            r[-1] = 1.0
        if len(r) < 2:
            r = np.array([r[0] / 2.0, r[0]])
    return ModulusTable(r, random_omega(rng, len(r)))


def random_omega(rng, size):
    """Nondecreasing omega values with plateaus and a zero stretch."""
    steps = rng.exponential(size=size) * (rng.random(size) < 0.7)
    steps[:rng.integers(size)] = 0.0  # omega = 0 below the nearest pair
    return np.cumsum(steps) * 10.0 ** rng.uniform(-8.0, 8.0)


def split_radii(rng, r, count):
    """Split radii in (0, 1): grid radii (zero-width segments), radii at
    or below r[0], in the last segment, beyond a grid that stops short of
    1, log-uniform across the grid, and repeats of all of them."""
    lo, hi = r[0], r[-1]
    ds = np.concatenate([
        rng.choice(r, count),
        [lo, lo * rng.random(), lo * 2.0**-30],
        rng.uniform(r[-2], hi, count),
        rng.uniform(hi, 1.0, count),
        np.exp(rng.uniform(math.log(lo), 0.0, count)),
    ])
    ds = ds[(ds > 0.0) & (ds < 1.0)]
    return rng.permutation(np.concatenate([ds, rng.choice(ds, count)]))


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 40), SPLITS)
def test_rows_match_the_per_d_route(seed, default_grid, count, split):
    rng = np.random.default_rng(seed)
    table = random_table(rng, default_grid)
    ds = split_radii(rng, table.radii, count)
    want = [schauder_functional_oracle(table, d) for d in ds.tolist()]
    with pytest.MonkeyPatch.context() as mp:
        if split is not None:
            mp.setattr(modulus, "ROW_CHUNK", split)
        assert schauder_functional_rows(table, ds).tolist() == want
    assert [schauder_functional(table, d) for d in ds[:5].tolist()] == want[:5]


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 4), st.integers(1, 40), SPLITS)
def test_tables_on_one_grid_match_the_per_d_route(seed, default_grid, count, radii, split):
    # several tables share the sort, the term counts and the end-term
    # columns of one call; each row is still its table's per-d values
    rng = np.random.default_rng(seed)
    first = random_table(rng, default_grid)
    tables = [first] + [ModulusTable(first.radii, random_omega(rng, len(first.radii)))
                        for _ in range(count - 1)]
    ds = split_radii(rng, first.radii, radii)
    with pytest.MonkeyPatch.context() as mp:
        if split is not None:
            mp.setattr(modulus, "ROW_CHUNK", split)
        got = schauder_functional_rows(tables, ds)
    assert got.shape == (count, len(ds))
    for table, row in zip(tables, got):
        assert row.tolist() == [schauder_functional_oracle(table, d) for d in ds.tolist()]


def test_tables_must_share_one_grid():
    table = ModulusTable(DEFAULT_RADII, DEFAULT_RADII**0.5)
    other = ModulusTable(DEFAULT_RADII[1:], DEFAULT_RADII[1:]**0.5)
    with pytest.raises(DomainError, match="one grid"):
        schauder_functional_rows([table, other], np.array([0.25]))


def test_rows_interpolate_at_math_log():
    # np.log rounds differently from math.log on some d, most often near
    # 1; where omega leaves zero in a short last segment, omega(d) keeps
    # every bit of log d
    table = ModulusTable([0.5, 0.99, 1.0], [0.0, 0.0, 1.0])
    ds = np.random.default_rng(5).uniform(0.99, 1.0, 1000)
    want = [schauder_functional_oracle(table, d) for d in ds.tolist()]
    assert schauder_functional_rows(table, ds).tolist() == want


def test_rows_reject_a_split_radius_outside_the_unit_interval():
    table = ModulusTable(DEFAULT_RADII, DEFAULT_RADII**0.5)
    assert schauder_functional_rows(table, np.array([])).shape == (0,)
    for bad in (0.0, 1.0, -0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="split radius"):
            schauder_functional_rows(table, np.array([0.25, bad, 0.5]))


def test_row_trapezoid_sums_as_its_rows():
    # the rounding rule of schauder_functional_rows: numpy reduces each
    # row of a C-contiguous block pairwise, as it reduces a 1-d array (a
    # cumulative sum, or a block in Fortran order, rounds differently);
    # so do rows lo:hi of a block wider than n, summed over their first n
    # columns into a slice of the result, as the padded layout sums them
    rng = np.random.default_rng(12)
    for n in range(2, 66):
        y = rng.uniform(0.0, 1.0, (300, n)) * np.exp(rng.uniform(-20.0, 20.0, (300, n)))
        x = np.log(np.sort(np.exp(rng.uniform(-14.0, 0.0, (300, n))), axis=1))
        got = np.trapezoid(y, x, axis=-1)
        want = np.array([np.trapezoid(a, b) for a, b in zip(y, x)])
        assert np.array_equal(got, want), (n, int((got != want).sum()))
    for n in range(1, 66):
        wide = rng.uniform(0.0, 1.0, (300, 70)) * np.exp(rng.uniform(-20.0, 20.0, (300, 70)))
        lo, hi = sorted(rng.choice(301, 2, replace=False).tolist())
        out = np.zeros(300)
        np.add.reduce(wide[lo:hi, :n], axis=1, out=out[lo:hi])
        assert out[lo:hi].tolist() == [np.add.reduce(row[:n]) for row in wide[lo:hi]], n
