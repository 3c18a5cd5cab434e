import math

import numpy as np
import pytest

from kolmo import (
    ModulusTable,
    counterexample_certificate,
    counterexample_f,
    counterexample_mixed,
    dini_integral,
    empirical_modulus,
    kdist_rows,
    knorm_rows,
    schauder_functional,
    table_from_function,
)
from kolmo.errors import DomainError
from kolmo.modulus import (DEFAULT_RADII, _counterexample_logs, _scaled_pairs, _tail_bound,
                           pair_omega)

from test_schauder_oracle import holder_closed_form


def power_table(alpha):
    """The Holder modulus omega(r) = r^alpha."""
    if alpha <= 0.0:
        raise DomainError("exponent must be positive")
    return table_from_function(lambda r: r**alpha)


def holder_seminorm(f, spec, alpha, samples=4000):
    """Empirical sup of |f(z) - f(zeta)| / kdist(z, zeta)^alpha over pairs
    in the unit quasi-ball, seed 0; ``f`` maps a row block to its values."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"exponent must lie in (0, 1], got {alpha}")
    if samples < 100:
        raise DomainError("need at least 100 samples")
    pairs = _scaled_pairs(spec, 1.0, samples, np.random.default_rng(0), 2.0**-20)
    Z, W = pairs[:, 0], pairs[:, 1]
    best = 0.0
    for d, jump in zip(kdist_rows(Z, W, spec).tolist(),
                       np.abs(f(Z) - f(W)).tolist()):
        if d > 0.0:
            best = max(best, jump / d**alpha)
    return best


def counterexample_u(alpha, x, y):
    """u(x, y) = x y |log(x^2+y^2)|^alpha; bounded and continuous."""
    rho2, L = _counterexample_logs(alpha, x, y)
    return x * y * L**alpha


def test_table_validation():
    r = np.array([0.1, 0.5, 1.0])
    ModulusTable(radii=r, omega=np.array([0.0, 0.2, 0.3]))
    with pytest.raises(DomainError):
        ModulusTable(radii=r[::-1], omega=np.zeros(3))
    with pytest.raises(DomainError):
        ModulusTable(radii=r, omega=np.array([0.3, 0.2, 0.1]))  # decreasing
    with pytest.raises(DomainError):
        ModulusTable(radii=r, omega=np.array([-0.1, 0.2, 0.3]))
    with pytest.raises(DomainError):
        ModulusTable(radii=np.array([0.5, 2.0]), omega=np.zeros(2))


def test_dini_integral_power_modulus():
    # int_{r0}^1 r^{a-1} dr = (1 - r0^a) / a, classified convergent
    for a in (0.25, 0.5, 1.0):
        rep = dini_integral(power_table(a))
        r0 = DEFAULT_RADII[0]
        assert abs(rep.value - (1.0 - r0**a) / a) < 5e-3
        assert rep.classification == "dini"
        assert rep.tail_bound < math.inf
        assert abs(rep.tail_bound - r0**a / a) < 1e-2 * rep.tail_bound


def test_tail_bound_needs_an_exponent_above_the_floor():
    # omega = r^p over the smallest decade: p above 1e-3 gives the finite
    # model integral r0^p / p, p below it is read as divergent (inf)
    r0 = DEFAULT_RADII[0]
    for p in (1e-3 * (1.0 + 1e-6), 2e-3):
        assert _tail_bound(power_table(p)) == pytest.approx(r0**p / p, rel=1e-9)
    for p in (1e-3 * (1.0 - 1e-6), 1e-6):
        assert _tail_bound(power_table(p)) == math.inf


def test_dini_integral_on_a_table_shorter_than_a_decade():
    # the tail fit read omega one decade above r_min, past the end of this
    # grid (IndexError); it now fits the whole grid: omega = 0.2 r, p = 1
    rep = dini_integral(ModulusTable(radii=[0.5, 1.0], omega=[0.1, 0.2]))
    assert rep.tail_bound == 0.1
    assert rep.value == pytest.approx(0.15 * math.log(2.0))
    assert rep.classification == "inconclusive" and rep.decade_growth == ()


def test_default_radii_are_shared_read_only():
    # every table on the default grid holds DEFAULT_RADII itself
    grid = DEFAULT_RADII.copy()
    with pytest.raises(ValueError):
        power_table(0.5).radii[0] = 5e-7
    assert np.array_equal(DEFAULT_RADII, grid)
    assert table_from_function(lambda r: r).radii[0] == grid[0]


def test_dini_integral_log_modulus_diverges():
    # omega = 1 / |log r| gains log(10)-ish per decade forever
    table = table_from_function(lambda r: 1.0 / max(1.0, abs(math.log(r))))
    rep = dini_integral(table)
    assert rep.classification == "non-dini"
    assert min(rep.decade_growth[-3:]) > 0.1
    # each decade keeps contributing a sizable share of the previous one
    assert rep.decade_growth[-1] > 0.6 * rep.decade_growth[-3]


def test_schauder_functional_sqrt_oracle():
    # omega = sqrt(r), d = 1/4: 2 sqrt(d) + (2 sqrt(d) - 2d) = 1.5
    table = table_from_function(math.sqrt)
    assert abs(schauder_functional(table, 0.25) - 1.5) < 0.015
    with pytest.raises(DomainError):
        schauder_functional(table, 1.5)


def test_holder_closed_form_dominates():
    for a in (0.25, 0.5, 0.75):
        table = power_table(a)
        for k in range(1, 11):
            d = 2.0**-k
            assert holder_closed_form(1.0, a, d) >= schauder_functional(table, d)


def test_holder_closed_form_lipschitz_case():
    assert abs(holder_closed_form(2.0, 1.0, 0.1) - 0.2 * abs(math.log(0.1))) < 1e-12
    with pytest.raises(DomainError):
        holder_closed_form(1.0, 1.5, 0.1)


def test_empirical_modulus_of_quasi_norm(kspec):
    # knorm is quasi-Lipschitz: omega(r) <= c r with a moderate constant
    exps = kspec.exponents()
    table = empirical_modulus(lambda Z: knorm_rows(Z, exps), kspec,
                              pair_samples=2000, seed=0)
    rep = dini_integral(table)
    assert rep.classification == "dini"
    mask = table.radii > 2.0**-15
    assert np.all(table.omega[mask] <= 4.0 * table.radii[mask])


def test_empirical_modulus_is_monotone_table(kspec):
    table = empirical_modulus(lambda Z: Z[:, 0] ** 2, kspec, pair_samples=1000,
                              seed=1)
    assert np.all(np.diff(table.omega) >= 0.0)


def test_modulus_from_pairs_hand_table():
    # omega(r) is the largest jump over pairs strictly closer than r
    radii = np.array([0.05, 0.1, 0.2, 0.4, 1.0])
    table = ModulusTable(radii, pair_omega([0.5, 0.1, 0.3], [3.0, 1.0, 2.0], radii))
    assert table.omega.tolist() == [0.0, 0.0, 1.0, 2.0, 3.0]
    # a larger jump at a smaller distance dominates the farther pairs
    radii = np.array([0.2, 1.0])
    table = ModulusTable(radii, pair_omega([0.1, 0.3], [5.0, 2.0], radii))
    assert table.omega.tolist() == [5.0, 5.0]
    radii = np.array([0.5, 1.0])
    empty = ModulusTable(radii, pair_omega([], [], radii))
    assert empty.omega.tolist() == [0.0, 0.0]


def test_holder_seminorm_power_function(kspec):
    exps = kspec.exponents()
    v = holder_seminorm(lambda Z: knorm_rows(Z, exps) ** 0.5, kspec, 0.5,
                        samples=2000)
    assert 0.5 < v < 5.0


def test_counterexample_closed_forms_vs_fd():
    rng = np.random.default_rng(2)
    a = 0.5
    h = 1e-5
    for _ in range(20):
        x, y = rng.uniform(0.05, 0.4, size=2)
        lap = (
            counterexample_u(a, x + h, y) + counterexample_u(a, x - h, y)
            + counterexample_u(a, x, y + h) + counterexample_u(a, x, y - h)
            - 4.0 * counterexample_u(a, x, y)
        ) / h**2
        assert abs(lap - counterexample_f(a, x, y)) < 1e-4
        mixed = (
            counterexample_u(a, x + h, y + h) - counterexample_u(a, x + h, y - h)
            - counterexample_u(a, x - h, y + h) + counterexample_u(a, x - h, y - h)
        ) / (4.0 * h * h)
        assert abs(mixed - counterexample_mixed(a, x, y)) < 1e-5


def test_counterexample_domain_errors():
    with pytest.raises(DomainError):
        counterexample_u(0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        counterexample_f(0.5, 0.8, 0.8)  # outside the unit disk
    with pytest.raises(DomainError):
        counterexample_u(2.0, 0.1, 0.1)


def test_counterexample_certificate():
    cert = counterexample_certificate(pair_samples=2000, seed=0)
    assert cert["classification"] == "non-dini"
    assert cert["min_growth"] >= 0.2
    f_diag, mixed_diag = cert["f_diagonal"], cert["mixed_diagonal"]
    assert all(a > b for a, b in zip(f_diag, f_diag[1:]))
    assert all(a < b for a, b in zip(mixed_diag, mixed_diag[1:]))
