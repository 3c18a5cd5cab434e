"""The benchmark's own checks: its independent oracles agree with kolmo,
the tracer restores kolmo and repeats its counts, and every workload runs
a few checked reports (the smoke mode)."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for _path in (HERE.parent / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import kolmo  # noqa: E402
from kolmo import KernelContext, Point, covariance, flow_Y, kolmogorov_spec, load_spec  # noqa: E402

import bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_covariance(m):
    ctx = KernelContext(kolmogorov_spec(m))
    for t in (0.01, 0.3, 1.0, 2.5):
        want = np.kron([[t, t**2 / 2], [t**2 / 2, t**3 / 3]], np.eye(m))
        got = covariance(ctx, t).C
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_gamma_matches_kolmo(m):
    ctx = KernelContext(kolmogorov_spec(m))
    worst = workloads.worst_gamma_error(
        ctx, m, workloads.kinetic_points(np.random.default_rng(m), m, 500))
    assert worst <= workloads.GAMMA_RTOL


def test_generated_spec_is_the_kinetic_operator():
    spec = load_spec(workloads.kinetic_m2_spec())
    ref = kolmogorov_spec(2)
    assert np.array_equal(spec.A, ref.A) and np.array_equal(spec.B, ref.B)


def test_closed_form_drift_flow_matches_kolmo():
    spec = load_spec(workloads.ROOT / workloads.DRIFTED)
    B = np.asarray(spec.B)
    assert np.array_equal(B @ B, B)
    rng = np.random.default_rng(0)
    for s in np.linspace(-4.0, 4.0, 17):
        x = rng.uniform(-1.0, 1.0, size=2)
        got = flow_Y(s, Point(x, 0.3), spec)
        want = workloads.drift_flow(B, s, x)
        assert np.abs(got.x - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert got.t == 0.3 - s


def test_tracer_restores_kolmo_and_repeats_counts(monkeypatch):
    monkeypatch.chdir(workloads.ROOT)
    session = bench.setup("planner", seed=3)
    originals = (kolmo.matrixcalc.mat_exp, kolmo.taylor.mat_exp,
                 Point.__post_init__, kolmo.cli.run)
    tracer = Tracer()
    records = []
    for _ in range(2):
        tracer.install()
        try:
            session.report(1)
        finally:
            tracer.uninstall()
        records.append(tracer.take())
    assert (kolmo.matrixcalc.mat_exp, kolmo.taylor.mat_exp,
            Point.__post_init__, kolmo.cli.run) == originals
    assert records[0]["counts"] == records[1]["counts"]
    counts = records[0]["counts"]
    assert counts["taylor.connect.calls"] == 1
    assert counts["matrixcalc.mat_exp.calls"] > 0
    assert records[0]["spans"]["cli.run"]["calls"] == 1
    assert session.failed == session.wrong == 0


def test_smoke(monkeypatch):
    monkeypatch.chdir(workloads.ROOT)
    bench.smoke(reports=1)


def test_trace_leaves_out_the_check(monkeypatch):
    # the apriori check calls kolmo's gamma at its oracle points; none of
    # those calls may be counted as the report's
    monkeypatch.chdir(workloads.ROOT)
    session = bench.setup("apriori", seed=3)
    tracer = Tracer()
    _, checked = bench.traced_report(session, tracer, 1)
    monkeypatch.setattr(session.workload, "check", lambda rep, body: None)
    _, unchecked = bench.traced_report(session, tracer, 1)
    assert checked["counts"] == unchecked["counts"]
    assert session.failed == session.wrong == 0


def test_local_ratios_use_nearby_calibrations():
    # a slow phase doubles both the report and the calibrations near it;
    # a report with no calibration in its window takes the nearest one
    cals = [(float(t), 1.0) for t in range(10)] + [(float(t), 2.0) for t in range(20, 30)]
    reports = [(5.0, 3.0), (25.0, 6.0), (100.0, 3.0)]
    assert bench.local_ratios(reports, cals) == [3.0, 3.0, 1.5]
