"""Closed-loop timing of kolmo reports: one client, one process, one
report after another through ``kolmo.cli.run``.

Host speed drifts in phases of tens of seconds, so a fixed calibration
computation is interleaved with the reports and with the setup probes.
Each report's time is given in units of the median of the calibrations
run within ``CAL_WINDOW_S`` of it (``report_cal_p50`` is the median of
these); times in seconds are scaled to a reference host on which the
calibration takes ``CAL_REF_S``.
"""

import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np
from scipy.linalg import expm

import kolmo.cli

from tracer import LAYERS, Tracer
from workloads import OUT, ROOT, WORKLOADS, CheckError, make_inputs

SETUP_PROBES = 3
SETUP_CALS = 4  # calibrations before and after each setup probe
PROBE_TIMEOUT_S = 120
CAL_SHARE = 0.25  # calibration time as a share of report time in a run
CAL_REF_S = 0.035  # the calibration's median on the reference host
CAL_WINDOW_S = 2.5  # calibrations this close to a report scale its time
CAL_EXPM_CALLS = 1000
CAL_PY_STEPS = 40_000
CAL_MATRIX = np.array([[-0.5, 0.2, 0.0, 0.1],
                       [0.3, -0.4, 0.1, 0.0],
                       [0.0, 0.2, -0.3, 0.2],
                       [0.1, 0.0, 0.3, -0.6]])
# Traced reports whose counts are averaged: a fixed prefix of the inputs,
# so two traced runs with one seed give identical counts.
COUNTED_REPORTS = {"apriori": 8, "singular": 3, "schauder": 6, "planner": 40}

END_TO_END_UNITS = {"setup_s": "s", "report_s_p50": "s",
                    "report_cal_p50": "cal", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "matrixcalc.mat_exp.calls": "count",
    "matrixcalc.sqrt_spd.calls": "count",
    "matrixcalc.self_s": "s",
    "group.point.constructions": "count",
    "group.kdist.calls": "count",
    "group.compose.calls": "count",
    "group.sample_ball.points": "count",
    "group.self_s": "s",
    "kernel.evals": "count",
    "kernel.covariance.calls": "count",
    "kernel.covariance.hit_ratio": "ratio",
    "kernel.covariance.entries": "count",
    "kernel.self_s": "s",
    "taylor.connect.calls": "count",
    "taylor.plan.segments": "count",
    "taylor.traj_increment.calls": "count",
    "taylor.bundle.evals": "count",
    "taylor.self_s": "s",
    "modulus.pairs": "count",
    "modulus.schauder_functional.calls": "count",
    "modulus.self_s": "s",
    "verify.apply_L_fd.calls": "count",
    "verify.self_s": "s",
    "cli.report_bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def calibrate():
    """The fixed calibration computation; it calls nothing in kolmo.

    Small scipy ``expm`` calls with 4 x 4 matrix-vector products, then a
    pure-Python arithmetic loop: the same mix of small dense linear
    algebra and interpreter work as a kolmo report.
    """
    v = np.ones(4)
    acc = 0.0
    for k in range(CAL_EXPM_CALLS):
        v = expm((k / CAL_EXPM_CALLS) * CAL_MATRIX) @ v
        v = v / np.abs(v).max()
        acc += float(v[0])
    for k in range(CAL_PY_STEPS):
        acc += math.sqrt(k + 1.0) * (1.0 if k % 2 else -1.0)
    return acc


def run_report(argv):
    """One report; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = kolmo.cli.run(list(argv))
    return code, buf.getvalue()


class Session:
    """One workload's inputs and report checks within one run."""

    def __init__(self, name, seed):
        self.workload = WORKLOADS[name]()
        self.inputs = make_inputs(self.workload, seed)
        self.reset()

    def reset(self):
        self.attempted = self.failed = self.wrong = 0
        self.last_bytes = 0

    def run(self, i):
        """Run input i (cycling), unchecked; returns (input, exit code,
        stdout, wall time)."""
        rep = self.inputs[i % len(self.inputs)]
        t0 = time.perf_counter()
        code, out = run_report(rep.argv)
        return rep, code, out, time.perf_counter() - t0

    def check(self, rep, code, out):
        """Count and check one report.  A nonzero exit counts as failed; a
        report that exits 0 but fails its check counts as wrong and makes
        the run incorrect."""
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"{' '.join(rep.argv)}: exit {code}", file=sys.stderr)
            return
        try:
            body = out[out.index("{"):]  # the JSON report follows a summary line
            self.last_bytes = len(body.encode())
            self.workload.check(rep, json.loads(body))
        except (CheckError, KeyError, ValueError) as err:
            self.wrong += 1
            print(f"{' '.join(rep.argv)}: {err!r}", file=sys.stderr)

    def report(self, i):
        """Run and check input i; returns its wall time."""
        rep, code, out, elapsed = self.run(i)
        self.check(rep, code, out)
        return elapsed


def setup(name, seed):
    """Import is done by now; make the inputs and run one warm-up report."""
    session = Session(name, seed)
    session.report(0)
    if session.failed or session.wrong:
        raise CheckError(f"{name}: the warm-up report failed")
    session.reset()
    return session


def timed_calibration():
    t0 = time.perf_counter()
    calibrate()
    return time.perf_counter() - t0


def local_ratios(reports, cals):
    """Each report's wall time over the median of the calibrations whose
    midpoints lie within CAL_WINDOW_S of its own midpoint (the nearest
    one if none do).  Both arguments are lists of (midpoint, wall time)."""
    cal_mid = np.array([mid for mid, _ in cals])
    cal_s = np.array([dur for _, dur in cals])
    ratios = []
    for mid, dur in reports:
        gap = np.abs(cal_mid - mid)
        near = cal_s[gap <= CAL_WINDOW_S]
        if near.size == 0:
            near = cal_s[gap.argmin()]
        ratios.append(dur / float(np.median(near)))
    return ratios


def probe_setup(name, seed):
    """Wall times of fresh processes from start to the end of the warm-up
    report (import, input generation and first use), and the calibrations
    run before and after each of them."""
    probes, cals = [], []
    for _ in range(SETUP_PROBES):
        cals += [timed_calibration() for _ in range(SETUP_CALS)]
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S)
        probes.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
    cals += [timed_calibration() for _ in range(SETUP_CALS)]
    return probes, cals


def measure(name, seed, seconds):
    """Untraced run: the end-to-end metrics."""
    calibrate()  # the first call also pays for scipy's lazy set-up
    probes, setup_cals = probe_setup(name, seed)
    session = setup(name, seed)
    reports, cals = [], []  # (midpoint from the start, wall time)
    report_total = cal_total = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    i = 1
    while True:
        t0 = time.perf_counter() - start
        elapsed = session.report(i)
        reports.append((t0 + elapsed / 2, elapsed))
        report_total += elapsed
        i += 1
        while cal_total < CAL_SHARE * report_total:
            t0 = time.perf_counter() - start
            elapsed = timed_calibration()
            cals.append((t0 + elapsed / 2, elapsed))
            cal_total += elapsed
        if time.perf_counter() >= deadline:
            break
    setup_raw = statistics.median(probes)
    setup_cal = statistics.median(setup_cals)
    p50 = statistics.median(dur for _, dur in reports)
    cal_p50 = statistics.median(dur for _, dur in cals)
    report_cal = statistics.median(local_ratios(reports, cals))
    metrics = {
        "setup_s": setup_raw / setup_cal * CAL_REF_S,
        "report_s_p50": report_cal * CAL_REF_S,
        "report_cal_p50": report_cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{name}: {len(reports)} reports, {len(cals)} calibrations; "
          f"raw medians: setup {setup_raw:.4g} s (calibration {setup_cal * 1e3:.3g} ms), "
          f"report {p50:.4g} s (calibration {cal_p50 * 1e3:.3g} ms)")
    detail = {"setup_probe_s": probes, "setup_cal_s": setup_cals,
              "reports": reports, "cals": cals}
    return session, metrics, detail


def traced_report(session, tracer, i):
    """Input i with the tracer installed; returns (wall time, trace record).
    The check runs after the trace is taken, so its oracle calls into kolmo
    are not counted as the report's."""
    tracer.install()
    try:
        rep, code, out, elapsed = session.run(i)
    finally:
        tracer.uninstall()
    rec = tracer.take()
    session.check(rep, code, out)
    rec["report_bytes"] = session.last_bytes
    return elapsed, rec


def traced(name, seed, seconds):
    """Traced run: each input runs untraced, then traced; per-layer metrics."""
    session = setup(name, seed)
    tracer = Tracer()
    plain_s, traced_s, records = [], [], []
    counted = COUNTED_REPORTS[name]
    deadline = time.perf_counter() + seconds
    i = 1
    while len(records) < counted or time.perf_counter() < deadline:
        plain_s.append(session.report(i))
        elapsed, rec = traced_report(session, tracer, i)
        traced_s.append(elapsed)
        records.append(rec)
        i += 1
    head = records[:counted]
    totals = sum((Counter(rec["counts"]) for rec in head), Counter())
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        if unit == "count":
            metrics[key] = totals[key] / counted
    metrics["kernel.covariance.hit_ratio"] = (
        totals["kernel.covariance.hits"] / totals["kernel.covariance.calls"]
        if totals["kernel.covariance.calls"] else 0.0)
    metrics["cli.report_bytes"] = sum(rec["report_bytes"] for rec in head) / counted
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            rec["layer_self_s"].get(layer, 0.0) for rec in records)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(plain_s))
    trace = {"workload": name, "seed": seed, "counted_reports": counted,
             "reports": head,
             "plain_s": plain_s, "traced_s": traced_s}
    print(f"{name}: {len(traced_s)} traced and {len(plain_s)} plain reports")
    return session, metrics, trace


def result_line(session, metrics, units):
    return json.dumps({
        "correct": session.wrong == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def main(name, seed, seconds, trace):
    if trace:
        session, metrics, detail = traced(name, seed, seconds)
        units = PER_LAYER_UNITS
    else:
        session, metrics, detail = measure(name, seed, seconds)
        units = END_TO_END_UNITS
    line = result_line(session, metrics, units)
    out_dir = ROOT / OUT
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"result-{stem}.json").write_text(line + "\n")
    (out_dir / f"detail-{stem}.json").write_text(json.dumps(detail) + "\n")
    for key, value in metrics.items():
        print(f"  {key:36s} {value:.6g} {units[key]}")
    print(line)


def smoke(reports=2):
    """A few reports of each workload, untraced and traced; raises on any
    failed or wrong report."""
    for name in WORKLOADS:
        session = setup(name, seed=0)
        tracer = Tracer()
        for i in range(1, reports + 1):
            session.report(i)
            traced_report(session, tracer, i)
        if session.failed or session.wrong:
            raise CheckError(f"{name}: {session.failed} failed and "
                             f"{session.wrong} wrong reports")
        print(f"{name}: {session.attempted} reports ok")
