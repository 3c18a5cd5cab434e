"""verify_apriori and verify_mean_value against the per-pole loops they
replaced: for each pole, one kernel call on its box of Q_R for sup|u_p|
and one on its box of Q_{R/2}, its ratios folded into the result by
Python max.  The batched verifiers must give exactly (==) the same
EstimateReport over generated admissible specs, seeds and small pole and
sample counts.

The loops drew a pole's Q_{R/2} box only when its sup was positive; the
batched verifiers draw both boxes of every pole and leave a dead pole
(sup = 0) out only when they reduce, so the stream does not depend on
computed values.  The loops here draw that box before the skip.  On the
shipped specs no pole is dead and both draw orders agree; on some
generated six-level specs whole radii are dead, and the property covers
them.  The dead-pole tests also move poles far away by hand.  Also here:
the memory guards of an apriori report and the kernel calls each report
makes.
"""

import contextlib
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmo import (EstimateReport, heat_spec, kernel_jet_rows, kdist_rows, load_spec,
                   sample_ball, verify)
from kolmo.cli import run
from kolmo.verify import (_harmonic_samples, _stable, harmonic_family, verify_apriori,
                          verify_mean_value)

from test_report_bytes import kinetic_m2_spec
from test_rows import BLOCKS, admissible_spec

PROPERTY = settings(derandomize=True, database=None, max_examples=20,
                    deadline=None)
SPECS = st.builds(admissible_spec, st.sampled_from(BLOCKS),
                  st.integers(0, 2**32 - 1), st.booleans())
SEEDS = st.integers(0, 2**32 - 1)


def apriori_oracle(spec, R_list, poles, samples, seed):
    m, exps = spec.m, spec.exponents()
    rng = np.random.default_rng(seed)
    groups = sorted({f"grad_alpha{exps.alpha[j]}" for j in range(spec.N)})
    groups += ["second", "Y"]
    per_R = {R: {g: 0.0 for g in groups} for R in R_list}
    for R in R_list:
        cell = per_R[R]
        for p in harmonic_family(spec, R, poles, rng):
            sup_u = float(kernel_jet_rows(spec, sample_ball(spec, R, 4 * samples, rng),
                                          p[None], derivatives=False).max())
            Z = sample_ball(spec, R / 2.0, samples, rng)
            if sup_u <= 0.0:
                continue
            jet = kernel_jet_rows(spec, Z, p[None])
            scaled = [(f"grad_alpha{a}", np.abs(jet.grad[:, j]) * R**a)
                      for j, a in enumerate(exps.alpha)]
            scaled += [("second", np.abs(jet.hess[:, :m, :m]).max(axis=(1, 2)) * R**2),
                       ("Y", np.abs(jet.Y) * R**2)]
            for key, vals in scaled:
                cell[key] = max(cell[key], float((vals / sup_u).max()))
    scaling = {R: max(per_R[R].values()) for R in R_list}
    fitted = max(scaling.values()) if scaling else 0.0
    return EstimateReport(
        name="apriori-derivative-bounds", seed=seed,
        samples=poles * samples * len(R_list), fitted_constant=fitted,
        scaling=scaling, ratios=list(scaling.values()),
        verdict=math.isfinite(fitted) and all(
            _stable({R: per_R[R][g] for R in R_list}) for g in groups),
        details={"per_group": {str(R): per_R[R] for R in R_list}})


def mean_value_oracle(spec, R, poles, samples, seed):
    rng = np.random.default_rng(seed)
    ratios = []
    center = np.zeros((1, spec.N + 1))
    for p in harmonic_family(spec, R, poles, rng):
        sup_u = float(kernel_jet_rows(spec, sample_ball(spec, R, 4 * samples, rng),
                                      p[None], derivatives=False).max())
        Z = sample_ball(spec, R / 2.0, samples, rng)
        if sup_u <= 0.0:
            continue
        u = kernel_jet_rows(spec, np.vstack([center, Z]), p[None],
                            derivatives=False)
        d = kdist_rows(Z, center, spec)
        ratio = np.abs(u[1:] - u[0]) * R / (d * sup_u)
        ratios += ratio[~(d < R / 100.0)].tolist()
    fitted = max(ratios) if ratios else 0.0
    return EstimateReport(
        name="mean-value", seed=seed, samples=len(ratios), fitted_constant=fitted,
        scaling={R: fitted}, ratios=ratios, verdict=math.isfinite(fitted))


@PROPERTY
@given(SPECS, SEEDS, st.integers(1, 4), st.integers(1, 9),
       st.sampled_from([(1.0, 0.5, 0.25), (0.5,), (0.25, 1.0, 0.125)]))
def test_apriori_equals_the_per_pole_loop(spec, seed, poles, samples, R_list):
    assert (verify_apriori(spec, R_list, poles, samples, seed)
            == apriori_oracle(spec, R_list, poles, samples, seed))


@PROPERTY
@given(SPECS, SEEDS, st.integers(1, 4), st.integers(1, 30),
       st.sampled_from([0.5, 1.0, 0.125]))
def test_mean_value_equals_the_per_pole_loop(spec, seed, poles, samples, R):
    assert (verify_mean_value(spec, R, poles, samples, seed)
            == mean_value_oracle(spec, R, poles, samples, seed))


def test_no_poles_give_an_empty_report(kspec):
    for report in (verify_apriori(kspec, poles=0), verify_mean_value(kspec, poles=0)):
        assert report.fitted_constant == 0.0 and report.verdict


def _far_poles(monkeypatch, dead):
    """Moves the poles that ``dead(R, k)`` names 1e3 away in x_1, where
    every kernel value underflows to 0; the draws are unchanged."""
    def family(spec, R, count, rng):
        P = harmonic_family(spec, R, count, rng)
        P[[dead(R, k) for k in range(count)], 0] += 1e3
        return P
    monkeypatch.setattr(verify, "harmonic_family", family)


def test_dead_poles_leave_the_apriori_stream_alone(kspec, monkeypatch):
    # every pole at R = 1 is dead: its groups read 0, and the stream of
    # R = 0.5 is the one the live run draws
    live = verify_apriori(kspec, (1.0, 0.5), poles=3, samples=10, seed=4)
    _far_poles(monkeypatch, lambda R, k: R == 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dead = verify_apriori(kspec, (1.0, 0.5), poles=3, samples=10, seed=4)
    groups = dead.details["per_group"]
    assert set(groups["1.0"].values()) == {0.0}
    assert groups["0.5"] == live.details["per_group"]["0.5"]


def test_a_dead_pole_leaves_the_other_mean_value_ratios_alone(kspec, monkeypatch):
    live = verify_mean_value(kspec, poles=4, samples=30, seed=2)
    _far_poles(monkeypatch, lambda R, k: k == 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dead = verify_mean_value(kspec, poles=4, samples=30, seed=2)
    assert 0 < live.samples - dead.samples <= 30
    assert dead.ratios == live.ratios[live.samples - dead.samples:]


def test_mean_value_leaves_out_only_the_pairs_closer_than_R_over_100():
    # on heat1d, seed 10, three live pairs lie between R/100 and R/10 from
    # the origin: every live pair at kdist >= R/100 is a sample
    spec, R, poles, samples, seed = heat_spec(1), 0.5, 4, 40, 10
    P, S, Z = _harmonic_samples(spec, R, poles, samples, np.random.default_rng(seed))
    sup = kernel_jet_rows(spec, S, np.repeat(P, 4 * samples, axis=0), derivatives=False
                          ).reshape(poles, 4 * samples).max(axis=1)
    d = kdist_rows(Z, np.zeros((1, spec.N + 1)), spec).reshape(poles, samples)[sup > 0.0]
    assert ((R / 100.0 <= d) & (d < R / 10.0)).sum() == 3
    report = verify_mean_value(spec, R=R, poles=poles, samples=samples, seed=seed)
    assert report.samples == len(report.ratios) == (d >= R / 100.0).sum()


def test_one_apriori_report_stays_under_a_megabyte(tmp_path):
    # per-pole kernel calls peaked at 0.29 MB and one call per R at 0.78 MB;
    # the one values call over all three radii (960 rows) held the
    # (960, d, 8, 8) series terms of C(t) at once, 2.25 MB, until
    # OperatorSpec.C formed its block exponentials in row chunks of a
    # 64 KiB budget of its own: 0.77 MB.  The nilpotent generator's terms
    # are now (256, d, 4, 8) strips of its top block row, 256 rows a chunk
    # of exp_rows's SERIES_BUDGET, G E^T is formed for all 960 rows at
    # once, and the certificate copies C(t) once into its (4, 4, 960)
    # layout: 0.86 MB
    spec = tmp_path / "kinetic_m2.json"
    spec.write_text(json.dumps(kinetic_m2_spec()))
    argv = ["verify", "apriori", "--spec", str(spec), "--poles", "4", "--samples", "20"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0  # the exponential tables are built once
        tracemalloc.start()
        try:
            assert run(argv + ["--seed", "3"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1e6


def test_a_default_apriori_report_stays_under_six_megabytes():
    # 20 poles x 60 samples x 3 radii: 14,400 value rows and 3,600
    # derivative rows, in kernel_jet_rows's chunks of ROW_CHUNK rows;
    # 6.7 MB with one call per R and C(t) in one piece, 5.4 MB now
    spec = load_spec(kinetic_m2_spec())
    verify_apriori(spec, poles=1, samples=1)  # the exponential tables are built once
    tracemalloc.start()
    try:
        verify_apriori(spec, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_one_values_call_and_one_derivative_call_per_report(kspec, monkeypatch):
    # apriori: every radius's Q_R boxes in one values call, every Q_{R/2}
    # box in one derivative call; mean-value: one values call in all
    calls = []

    def spy(spec, Z, P, derivatives=True):
        calls.append((len(Z), derivatives))
        return kernel_jet_rows(spec, Z, P, derivatives)

    monkeypatch.setattr(verify, "kernel_jet_rows", spy)
    verify_apriori(kspec, (1.0, 0.5, 0.25), poles=4, samples=20, seed=1)
    assert calls == [(3 * 4 * 4 * 20, False), (3 * 4 * 20, True)]
    calls.clear()
    verify_mean_value(kspec, 0.5, poles=4, samples=20, seed=1)
    assert calls == [(4 * (5 * 20 + 1), False)]
