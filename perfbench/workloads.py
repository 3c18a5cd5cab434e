"""The four workloads: their inputs, made from a workload seed, and a
check of every report against a computation made apart from kolmo.

Each workload runs one CLI verb on one spec; only the kolmo seeds and the
points vary from report to report.  A report is an argv for
``kolmo.cli.run`` plus the data its check needs.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kolmo.group import Point, load_spec
from kolmo.kernel import KernelContext, gamma, gamma_grad, gamma_hess_m

# Paths in argv are relative to the repository root, the working directory
# of every report, so report bytes do not depend on where the checkout is.
ROOT = Path(__file__).resolve().parents[1]
OUT = Path("perfbench") / "out"
KOLMOGOROV = Path("specs") / "kolmogorov.json"
DRIFTED = Path("specs") / "kinetic_drifted.json"

# Each report takes a pool index k: the verify workloads pass it as kolmo's
# --seed, the planner makes its pair of points from default_rng(k).  Indices
# on which kolmo's own verdict fails are left out per workload (CHANGES.md
# names them): a report that fails on some inputs only would make the share
# of failed reports differ from run to run.
POOL = range(256)
ORACLE_POINTS = 4  # closed-form Gamma comparisons per apriori report
GAMMA_RTOL = 1e-10
LANDING_TOL = 1e-8
SINGULAR_STEP_BAND = (1.0, 4.0)


class CheckError(Exception):
    """A report exited 0 but its output is wrong."""


@dataclass(frozen=True)
class Report:
    argv: tuple
    data: object = None


# ---------------------------------------------------------------------------
# Independent oracles.


def kinetic_m2_spec():
    """The m = 2, N = 4 kinetic operator: A = I_2, B = [[0, 0], [-I_2, 0]]."""
    B = np.zeros((4, 4))
    B[2:, :2] = -np.eye(2)
    return {"N": 4, "m": 2, "A": np.eye(2).tolist(), "B": B.tolist(),
            "blocks": [2, 2]}


def kinetic_gamma(m, x, t, xi, tau):
    """Closed-form Gamma(z, zeta), its gradient and its top-left m x m
    Hessian block for the kinetic operator with A = I_m, B = [[0,0],[-I_m,0]].

    Here E(s) = I - sB, so w = x - E(dt) xi = (x_v - xi_v, x_y - xi_y -
    dt xi_v), and C(dt) = [[dt, dt^2/2], [dt^2/2, dt^3/3]] (x) I_m with the
    explicit inverse [[4/dt, -6/dt^2], [-6/dt^2, 12/dt^3]] (x) I_m and
    det C = (dt^4/12)^m.  tr B = 0.  No matrix exponential is formed.
    """
    dt = t - tau
    x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
    wv = x[:m] - xi[:m]
    wy = x[m:] - xi[m:] - dt * xi[:m]
    qv = 4.0 / dt * wv - 6.0 / dt**2 * wy
    qy = -6.0 / dt**2 * wv + 12.0 / dt**3 * wy
    quad = float(wv @ qv + wy @ qy)
    log_pref = -m * math.log(4.0 * math.pi) - 0.5 * m * math.log(dt**4 / 12.0)
    g = math.exp(log_pref - 0.25 * quad)
    grad = -0.5 * np.concatenate([qv, qy]) * g
    hess_m = (0.25 * np.outer(qv, qv) - 2.0 / dt * np.eye(m)) * g
    return g, grad, hess_m


def drift_flow(B, s, x):
    """exp(sB) x for a drift with B @ B = B: exp(sB) = I + (e^s - 1) B."""
    return x + math.expm1(s) * (B @ x)


def replay_plan(plan, B, source):
    """Re-execute the plan's segments from ``source`` with closed-form
    flows; returns the landing point as (x, t)."""
    x, t = np.array(source[:-1], dtype=float), float(source[-1])
    for seg in plan["segments"]:
        if seg["kind"] == "X":
            x = x + seg["s"] * np.asarray(seg["v"], dtype=float)
        elif seg["kind"] == "Y":
            x = drift_flow(B, seg["s"], x)
            t = t - seg["s"]
        else:
            raise CheckError(f"unknown segment kind {seg['kind']!r}")
    return x, t


def kinetic_points(rng, m, count):
    """(x, t, xi, tau) with x - E(dt) xi at the kernel's own scale
    (sqrt(dt) on level 0, dt^1.5 on level 1), so Gamma stays far from
    underflow and the relative comparison is meaningful."""
    points = []
    for _ in range(count):
        xi = rng.uniform(-0.5, 0.5, size=2 * m)
        tau = rng.uniform(-1.0, 0.0)
        dt = rng.uniform(0.05, 1.0)
        u = rng.uniform(-1.0, 1.0, size=2 * m)
        x = np.concatenate([xi[:m] + u[:m] * dt**0.5,
                            xi[m:] + dt * xi[:m] + u[m:] * dt**1.5])
        points.append((x, tau + dt, xi, tau))
    return points


def worst_gamma_error(ctx, m, points):
    """Largest relative disagreement of kolmo's gamma, gamma_grad and
    gamma_hess_m with the closed form over (x, t, xi, tau) points."""
    worst = 0.0
    for x, t, xi, tau in points:
        z, zeta = Point(x, t), Point(xi, tau)
        g, grad, hess = kinetic_gamma(m, x, t, xi, tau)
        pairs = ((gamma(ctx, z, zeta), g),
                 (gamma_grad(ctx, z, zeta), grad),
                 (gamma_hess_m(ctx, z, zeta), hess))
        for got, want in pairs:
            scale = float(np.abs(want).max())
            if scale == 0.0:
                raise CheckError("the closed form underflows at an oracle point")
            worst = max(worst, float(np.abs(np.asarray(got) - want).max()) / scale)
    return worst


# ---------------------------------------------------------------------------
# Workloads.


def _point_arg(p):
    # repr round-trips the float exactly; the '=' form lets a leading
    # minus sign through argparse
    return ",".join(repr(float(v)) for v in p)


class Workload:
    excluded = ()


class Apriori(Workload):
    """verify apriori on the generated m = 2, N = 4 kinetic spec."""

    name = "apriori"
    excluded = (215,)

    def __init__(self):
        (ROOT / OUT).mkdir(exist_ok=True)
        self.spec_path = OUT / "kinetic_m2.json"
        (ROOT / self.spec_path).write_text(
            json.dumps(kinetic_m2_spec(), indent=2) + "\n")
        self.spec = load_spec(ROOT / self.spec_path)

    def report(self, k, rng):
        points = kinetic_points(rng, 2, ORACLE_POINTS)
        argv = ("verify", "apriori", "--spec", str(self.spec_path),
                "--poles", "4", "--samples", "20", "--seed", str(k))
        return Report(argv, points)

    def check(self, report, body):
        res = body["results"]
        if not res["verdict"]:
            raise CheckError("apriori verdict is false")
        err = worst_gamma_error(KernelContext(self.spec), 2, report.data)
        if err > GAMMA_RTOL:
            raise CheckError(f"gamma disagrees with the closed form by {err:.3g}")


class Singular(Workload):
    """verify singular-g1 on the kinetic spec, two dyadic radii."""

    name = "singular"
    excluded = (36, 105, 221, 236)

    def report(self, k, rng):
        return Report(("verify", "singular-g1", "--spec",
                       str(KOLMOGOROV), "--R-list", "0.5,0.25",
                       "--seed", str(k)))

    def check(self, report, body):
        lines = body["results"]["ratios_csv"].split("\n")[1:]
        steps = [float(v) for v in lines]
        lo, hi = SINGULAR_STEP_BAND
        if not steps or not all(lo <= s <= hi for s in steps):
            raise CheckError(f"dyadic steps {steps} outside [{lo}, {hi}]")


class Schauder(Workload):
    """verify schauder-var with the sin1 Dini coefficient."""

    name = "schauder"

    def report(self, k, rng):
        return Report(("verify", "schauder-var", "--varcoeff", "sin1",
                       "--spec", str(KOLMOGOROV),
                       "--pairs", "300", "--seed", str(k)))

    def check(self, report, body):
        res = body["results"]
        fitted = res["fitted_constant"]
        sup_u = res["details"]["sup_u"]
        if not (math.isfinite(fitted) and fitted > 0.0):
            raise CheckError(f"fitted constant {fitted} is not finite and positive")
        if not 0.0 < sup_u <= 1.0:
            raise CheckError(f"sup_u {sup_u} outside (0, 1], the bump's range")


class Planner(Workload):
    """connect on kinetic_drifted between seeded points of the unit box."""

    name = "planner"

    def __init__(self):
        self.spec_path = DRIFTED
        self.B = np.asarray(json.loads((ROOT / DRIFTED).read_text())["B"], dtype=float)
        if not np.array_equal(self.B @ self.B, self.B):
            raise CheckError("the closed-form drift flow needs B @ B == B")

    def report(self, k, rng):
        pair = np.random.default_rng(k).uniform(-1.0, 1.0, size=6)
        p, q = pair[:3], pair[3:]
        argv = ("connect", "--spec", str(self.spec_path),
                f"--from={_point_arg(p)}", f"--to={_point_arg(q)}")
        return Report(argv, (p, q))

    def check(self, report, body):
        p, q = report.data
        x, t = replay_plan(body["results"]["plan"], self.B, p)
        miss = max(float(np.abs(x - q[:-1]).max()), abs(t - q[-1]))
        if miss > LANDING_TOL:
            raise CheckError(f"replayed plan misses the target by {miss:.3g}")


WORKLOADS = {w.name: w for w in (Apriori, Singular, Schauder, Planner)}


def make_inputs(workload, seed):
    """The reports of one run, one per pool index of the workload in an
    order drawn from the seed: the same seed gives the same reports."""
    rng = np.random.default_rng(seed)
    pool = [k for k in POOL if k not in workload.excluded]
    return [workload.report(int(k), rng) for k in rng.permutation(pool)]
