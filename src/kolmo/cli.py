"""Command-line front end.

Verbs: check, kernel, connect, taylor, modulus, verify,
demo-counterexample.  Every run writes a JSON report (stdout summary +
optional --out file) embedding the resolved configuration and the seed,
with no timestamps, so identical invocations produce identical bytes.

Exit codes: 0 pass, 2 verification criterion failed, 3 usage error,
4 numerical accuracy failure.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    HypoellipticityError,
    KolmoError,
    NonConvergenceError,
    UsageError,
)
from .group import (
    compose_rows,
    finite_rows,
    inverse_rows,
    knorm_rows,
    load_spec,
)
from .kernel import _checked_C, kernel_jet_rows, kernel_mass
from .modulus import (
    DEFAULT_RADII,
    ModulusTable,
    counterexample_certificate,
    counterexample_f_rows,
    dini_integral,
    empirical_modulus,
    pair_omega,
    schauder_functional,
)
from .taylor import connect, remainder_profile, verify_plan
from .verify import (
    _FAMILIES,
    manufacture,
    verify_apriori,
    verify_invariance,
    verify_mean_value,
    verify_schauder,
    verify_singular_bounds,
)

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_USAGE = 3
EXIT_ACCURACY = 4
MAX_COUNT = 10**7  # largest --pairs, --poles or --samples
CSV_PAIR_CHUNK = 2**16  # most pairs that modulus --input-csv measures at once
POINT_OPTIONS = ("--from", "--to", "--point", "--pole")
NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _parse_floats(text, what):
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(
            f"{what} needs comma-separated numbers, got {text!r}") from None


def _parse_point(text, N):
    """The point x1,..,xN,t as a (1, N+1) row block."""
    parts = _parse_floats(text, "a point")
    if len(parts) != N + 1:
        raise UsageError(f"point needs {N + 1} comma-separated values, got {len(parts)}")
    return finite_rows([parts])


def _require_finite(values, what):
    """AccuracyError unless every number in values is finite: a report
    that exits 0 holds finite numbers only."""
    if not np.isfinite(values).all():
        raise AccuracyError(f"{what} is not finite")


def _int_from(lo, hi=math.inf):
    def integer(text):  # argparse type: an integer in [lo, hi]
        if not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                f"needs an integer in [{lo}, {hi}], got {text}")
        return int(text)
    return integer


def _fuse_point_values(argv):
    """Write '--from -1,1,1' as '--from=-1,1,1' for the point options:
    argparse takes a separate value that starts with '-' for an option."""
    out = list(argv)
    for k in range(len(out) - 2, -1, -1):
        if out[k] in POINT_OPTIONS and NEGATIVE_VALUE.match(out[k + 1]):
            out[k:k + 2] = [f"{out[k]}={out[k + 1]}"]
    return out


def _emit(report, out_path):
    body = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(body + "\n")
        except OSError as err:
            raise UsageError(f"cannot write the report: {err}") from None
    try:
        print(body, flush=True)
    except BrokenPipeError:
        # the reader left (kolmo ... | head): drop the rest, also at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # built on the first run: parse_args keeps no state between calls
def _build_parser():
    top = _Parser(prog="kolmo", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="operator spec JSON")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--seed", type=_int_from(0), default=0)

    p = sub.add_parser("check", help="validate a spec and run the rank test")
    common(p)
    p.add_argument("--time", type=float, default=1.0)

    p = sub.add_parser("kernel", help="evaluate the fundamental solution")
    common(p)
    p.add_argument("--point", required=True, help="x1,..,xN,t")
    p.add_argument("--pole", default=None, help="x1,..,xN,t of the pole")
    p.add_argument("--mass-time", type=float, default=None,
                   help="also integrate the kernel mass at this time")

    p = sub.add_parser("connect", help="plan a flow path between two points")
    common(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("taylor", help="Taylor remainder profile along a path")
    common(p)
    p.add_argument("--family", default="gaussian", choices=sorted(_FAMILIES))
    p.add_argument("--point", default=None, help="expansion point x1,..,xN,t")
    p.add_argument("--form", default="group", choices=["group", "euclidean"])
    # rho^2 stays a normal float down to rho = 2^-511
    p.add_argument("--rho-min-exp", type=_int_from(1, 511), default=8,
                   help="smallest dyadic scale 2^-k to profile")

    p = sub.add_parser("modulus", help="modulus of continuity and Dini summary")
    common(p)
    p.add_argument("--function", default=None,
                   choices=["knorm", "sqrt-knorm", "counterexample-f"])
    p.add_argument("--input-csv", default=None,
                   help="sampled CSV x1,..,xN,t,f instead of a built-in")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--pairs", type=_int_from(1, MAX_COUNT), default=4000)
    p.add_argument("--schauder-d", type=float, default=None)

    p = sub.add_parser("verify", help="run one estimate verification")
    p.add_argument("criterion", choices=[
        "apriori", "mean-value", "singular-const", "singular-g1",
        "singular-g2", "schauder-const", "schauder-var", "invariance",
    ])
    common(p)
    p.add_argument("--family", default="gaussian", choices=sorted(_FAMILIES))
    p.add_argument("--varcoeff", default=None, choices=["sin1", "sin1x2"])
    p.add_argument("--R-list", default=None,
                   help="comma-separated radii, e.g. 1,0.5,0.25")
    p.add_argument("--pairs", type=_int_from(1, MAX_COUNT), default=500)
    p.add_argument("--poles", type=_int_from(1, MAX_COUNT), default=12)
    p.add_argument("--samples", type=_int_from(1, MAX_COUNT), default=40)

    p = sub.add_parser("demo-counterexample",
                       help="non-Dini certificate for the planar example")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--pairs", type=_int_from(1, MAX_COUNT), default=4000)
    return top


def _cmd_check(args):
    spec = load_spec(args.spec)
    exps, t = spec.exponents(), args.time
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"time must be finite and positive, got {t}")
    # Hormander's condition is C(t) > 0, decided by the kernel's own test
    try:
        C, is_spd = _checked_C(spec, np.array([t]))[0][0], True
    except HypoellipticityError:
        C, is_spd = spec.C(t), False
    ellipticity = np.linalg.eigvalsh(spec.A)
    report = {
        "alpha": list(exps.alpha),
        "Q": exps.Q,
        "blocks": list(spec.blocks.sizes),
        "dilation_invariant": spec.is_dilation_invariant(),
        "ellipticity": {"lambda": float(ellipticity[0]), "Lambda": float(ellipticity[-1])},
        "hormander": {
            "time": t,
            "min_eigenvalue": float(np.linalg.eigvalsh(C)[0]),
            "is_spd": is_spd,
        },
    }
    print(f"alpha = {tuple(exps.alpha)}, Q = {exps.Q}, "
          f"hormander {'pass' if is_spd else 'FAIL'}")
    return report, EXIT_PASS if is_spd else EXIT_FAIL


def _cmd_kernel(args):
    """Gamma at the point and, above the pole, its gradient, the residual
    of L Gamma (all from one jet row) and C(t - tau)."""
    spec = load_spec(args.spec)
    Z = _parse_point(args.point, spec.N)
    P = _parse_point(args.pole, spec.N) if args.pole else np.zeros((1, spec.N + 1))
    # Gamma vanishes on and below the pole time
    report = {"point": Z[0].tolist(), "pole": P[0].tolist(), "gamma": 0.0}
    if Z[0, -1] > P[0, -1]:
        jet, m = kernel_jet_rows(spec, Z, P), spec.m
        residual = float(np.sum(spec.A * jet.hess[0, :m, :m])) + float(jet.Y[0])
        _require_finite(np.append(jet.grad[0], [jet.gamma[0], residual]),
                        "a value or derivative of Gamma")
        report.update(gamma=float(jet.gamma[0]), grad=jet.grad[0].tolist(),
                      pde_residual=residual,
                      covariance=_checked_C(spec, Z[:, -1] - P[:, -1])[0][0].tolist())
    if args.mass_time is not None:
        mass = kernel_mass(spec, args.mass_time)
        expected = math.exp(-args.mass_time * float(np.trace(spec.B)))
        report["mass"] = {"time": args.mass_time, "value": mass,
                          "expected": expected}
    print(f"gamma = {report['gamma']:.12g}")
    return report, EXIT_PASS


def _cmd_connect(args):
    spec = load_spec(args.spec)
    z = _parse_point(args.src, spec.N)[0]
    zeta = _parse_point(args.dst, spec.N)[0]
    try:
        plan = connect(z, zeta, spec, tol=args.tol)
    except NonConvergenceError as err:
        report = {"error": str(err)}
        if err.plan is not None:
            report["plan"] = err.plan.to_json_dict()
        print(f"connect did not converge: {err}")
        return report, EXIT_ACCURACY
    check = verify_plan(plan, spec, tol=args.tol)
    report = {"plan": plan.to_json_dict(), "verification": {
        "segments": int(check["segments"]),
        "endpoint_error": float(check["endpoint_error"]),
        "kdist_error": float(check["kdist_error"]),
        "length": float(check["length"]),
        "ok": bool(check["ok"]),
    }}
    print(f"{check['segments']} segments, endpoint error "
          f"{check['endpoint_error']:.3g}")
    return report, EXIT_PASS if check["ok"] else EXIT_FAIL


def _cmd_taylor(args):
    spec = load_spec(args.spec)
    bundle = _FAMILIES[args.family](spec)
    z = (_parse_point(args.point, spec.N) if args.point
         else np.append(np.full(spec.N, 0.05), 0.02)[None])
    rng = np.random.default_rng(args.seed)
    direction = np.append(rng.uniform(-1.0, 1.0, size=spec.N), rng.uniform(-1.0, 1.0))
    rhos = [2.0**-k for k in range(1, args.rho_min_exp + 1)]
    prof = remainder_profile(bundle, z, direction[None], rhos, spec, form=args.form)
    _require_finite([ratio for _, ratio in prof], "the Taylor remainder")
    csv_lines = ["rho,remainder,ratio"]
    for rho, ratio in prof:
        csv_lines.append(f"{rho:.10g},{ratio * rho**2:.12g},{ratio:.12g}")
    report = {
        "family": args.family,
        "form": args.form,
        "point": z[0].tolist(),
        "profile_csv": "\n".join(csv_lines),
    }
    print("\n".join(csv_lines))
    return report, EXIT_PASS


def _builtin_function(name, spec, alpha):
    """The built-in function as a map from a row block to its values."""
    exps = spec.exponents()
    if name == "knorm":
        return lambda Z: knorm_rows(Z, exps)
    if name == "sqrt-knorm":
        return lambda Z: np.sqrt(knorm_rows(Z, exps))
    if name == "counterexample-f":
        if spec.N < 2:
            raise UsageError("counterexample-f needs a spec with N >= 2")
        return lambda Z: counterexample_f_rows(alpha, Z)


def _pair_chunks(n, size):
    """Index arrays (I, J) of the pairs i < j among n rows, in row-major
    order, at most max(size, n - 1) pairs at a time."""
    rows = max(1, size // n)
    for a in range(0, n - 1, rows):
        firsts = np.arange(a, min(a + rows, n - 1))
        I, J = np.nonzero(np.arange(n) > firsts[:, None])
        yield I + a, J


def _modulus_from_csv(path, spec):
    """Modulus table over all pairs i < j of CSV rows, with
    d(z_i, z_j) = ||z_j^{-1} o z_i||.

    z_j^{-1} and E(t_i) are made once per row, so n rows take 2n matrix
    exponentials; the pairs are measured in chunks of CSV_PAIR_CHUNK.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns on an empty file, refused below
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read CSV {path}: {err}") from None
    if not rows.size:
        raise UsageError(f"CSV {path} has no rows")
    if rows.shape[1] != spec.N + 2:
        raise UsageError(
            f"CSV rows need {spec.N + 2} columns (x1..xN, t, f)"
        )
    Z = finite_rows(rows[:, :-1])
    vals = rows[:, -1]
    inv, E = inverse_rows(Z, spec), spec.E(Z[:, -1])
    exps = spec.exponents()
    omega = np.zeros(len(DEFAULT_RADII))
    for I, J in _pair_chunks(len(Z), CSV_PAIR_CHUNK):
        dists = knorm_rows(compose_rows(inv[J], Z[I], spec, E=E[I]), exps)
        omega = np.maximum(
            omega, pair_omega(dists, np.abs(vals[I] - vals[J]), DEFAULT_RADII))
    return ModulusTable(DEFAULT_RADII, omega)


def _cmd_modulus(args):
    spec = load_spec(args.spec)
    if (args.function is None) == (args.input_csv is None):
        raise UsageError("pass exactly one of --function or --input-csv")
    if args.input_csv:
        table = _modulus_from_csv(args.input_csv, spec)
        source = {"input_csv": args.input_csv}
    else:
        f = _builtin_function(args.function, spec, args.alpha)
        radius = 0.3 if args.function == "counterexample-f" else 1.0
        table = empirical_modulus(f, spec, radius=radius,
                                  pair_samples=args.pairs, seed=args.seed)
        source = {"function": args.function, "alpha": args.alpha}
    rep = dini_integral(table)
    csv_lines = ["r,omega"] + [
        f"{r:.10g},{w:.12g}" for r, w in zip(table.radii, table.omega)
    ]
    report = {
        "source": source,
        "dini_value": rep.value,
        "tail_bound": rep.tail_bound,
        "classification": rep.classification,
        "decade_growth": list(rep.decade_growth),
        "omega_csv": "\n".join(csv_lines),
    }
    if args.schauder_d is not None:
        report["schauder_functional"] = {
            "d": args.schauder_d,
            "value": schauder_functional(table, args.schauder_d),
        }
    print(f"dini value {rep.value:.6g} (tail bound {rep.tail_bound:.3g}), "
          f"classification: {rep.classification}")
    return report, EXIT_PASS


def _cmd_verify(args):
    spec = load_spec(args.spec)
    R_list = (
        tuple(_parse_floats(args.R_list, "--R-list"))
        if args.R_list is not None else None
    )
    crit = args.criterion
    if crit == "apriori":
        rep = verify_apriori(spec, R_list or (1.0, 0.5, 0.25),
                             poles=args.poles, samples=args.samples,
                             seed=args.seed)
    elif crit == "mean-value":
        rep = verify_mean_value(spec, R=(R_list or (0.5,))[0],
                                poles=args.poles, samples=args.samples,
                                seed=args.seed)
    elif crit.startswith("singular-"):
        rep = verify_singular_bounds(spec, crit.split("-", 1)[1],
                                     R_list or (0.5, 0.25, 0.125),
                                     seed=args.seed)
    elif crit.startswith("schauder-"):
        problem = manufacture(args.family, spec, seed=args.seed,
                              varcoeff_id=None if crit == "schauder-const" else args.varcoeff)
        rep = verify_schauder(problem, pair_samples=args.pairs, seed=args.seed)
    else:
        rep = verify_invariance(spec, samples=args.samples, seed=args.seed)
    report = rep.to_json_dict()
    status = "pass" if rep.verdict else "FAIL"
    print(f"{rep.name}: fitted constant {rep.fitted_constant:.6g} [{status}]")
    return report, EXIT_PASS if rep.verdict else EXIT_FAIL


def _cmd_demo_counterexample(args):
    cert = counterexample_certificate(alpha=args.alpha, seed=args.seed,
                                      pair_samples=args.pairs)
    ok = (
        cert["min_growth"] >= 0.2
        and all(a > b for a, b in zip(cert["f_diagonal"],
                                      cert["f_diagonal"][1:]))
        and all(a < b for a, b in zip(cert["mixed_diagonal"],
                                      cert["mixed_diagonal"][1:]))
    )
    cert["certified_non_dini"] = ok
    print(
        "per-decade Dini growth "
        + ", ".join(f"{g:.3f}" for g in cert["decade_growth"])
        + f"; |f| on the diagonal decreasing, |u_xy| increasing: "
        + ("certified" if ok else "NOT certified")
    )
    return cert, EXIT_PASS if ok else EXIT_FAIL


_COMMANDS = {
    "check": _cmd_check,
    "kernel": _cmd_kernel,
    "connect": _cmd_connect,
    "taylor": _cmd_taylor,
    "modulus": _cmd_modulus,
    "verify": _cmd_verify,
    "demo-counterexample": _cmd_demo_counterexample,
}


def run(argv):
    """Execute one command; returns the process exit code."""
    parser = _build_parser()
    try:
        # one floating-point policy: an overflow, a division by zero or an
        # invalid operation that no layer handles is an accuracy failure
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            args = parser.parse_args(_fuse_point_values(argv))
            body, code = _COMMANDS[args.verb](args)
            report = {
                "verb": args.verb,
                "config": {
                    k: v for k, v in sorted(vars(args).items()) if k != "verb"
                },
                "seed": getattr(args, "seed", 0),
                "exit_code": code,
                "results": body,
            }
            _emit(report, getattr(args, "out", None))
        return code
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (AccuracyError, FloatingPointError) as err:
        print(f"accuracy failure: {err}", file=sys.stderr)
        return EXIT_ACCURACY
    except KolmoError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
