"""Layer timings: the median wall time of fixed-seed calls of each kolmo
layer and of each command-line verb, written to ``BENCH_<label>.json``.

    python tools/layers.py --label baseline [--smoke] [--tier1] [--out DIR]

The layers are L0 (matrix exponentials, ``OperatorSpec.C`` and
``_checked_C``), L1 (the group operations on row blocks), L2 (the
kernel), L3 (the planner), L4 (moduli) and L5 (the verifiers and the
mass quadrature).  Each runs on the Kolmogorov operator (``kolmogorov``),
the m = 2, N = 4 kinetic operator of the ``apriori`` benchmark workload
(``kinetic_m2``) and the drifted operator (``kinetic_drifted``).  The
verbs run in-process through ``kolmo.cli.run``, each from its argv to
its printed report, with their fixed costs (``load_spec``, the argument
parser and the report encoder ``_emit``) as rows of their own.

Every row is one warm-up call, then REPEATS samples; a sample
times as many calls as fill about 2 ms and records the time per call.
The samples go round all rows once per repeat, so that a burst of load
on a shared host spoils one sample of many rows, which the median drops.
The file holds the median, minimum and maximum per row in
microseconds, the machine, the Python, numpy and scipy versions, the
OpenBLAS core type, numpy's SIMD targets and the line count of
``src/kolmo``.  ``--smoke`` takes one repeat at small sizes, to check
that the script runs; ``--tier1`` also times the test suite once.
OpenBLAS runs on one thread, set before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from kolmo import cli, group, kernel, matrixcalc, modulus, taylor, verify  # noqa: E402

SAMPLE_S = 2e-3  # least time one sample spans
REPEATS = 7  # samples per row (one with --smoke)
M2 = {"N": 4, "m": 2, "A": [[1.0, 0.0], [0.0, 1.0]],
      "B": [[0.0] * 4, [0.0] * 4, [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]],
      "blocks": [2, 2]}


def _rows_in_time(spec, K, rng):
    """K points of the unit box with times in (0, 1], and K poles below them."""
    Z = rng.uniform(-1.0, 1.0, (K, spec.N + 1))
    Z[:, -1] = rng.uniform(0.05, 1.0, K)
    P = rng.uniform(-1.0, 1.0, (K, spec.N + 1))
    P[:, -1] = Z[:, -1] - rng.uniform(0.01, 1.0, K)
    return Z, P


def layer_rows(spec, small):
    """(layer, what, size, call) for every layer call on one spec."""
    rng = np.random.default_rng(0)
    K = 8 if small else 240
    ts = rng.uniform(0.01, 1.0, K)
    Z, P = _rows_in_time(spec, 4 * K, rng)
    W = rng.uniform(-1.0, 1.0, (4 * K, spec.N + 1))
    tables = matrixcalc.exp_table(-spec.B), matrixcalc.exp_table(group.block_generator(spec))
    src, dst = rng.uniform(-1.0, 1.0, (2, spec.N + 1))
    plan = taylor.connect(src, dst, spec)
    exps = spec.exponents()
    table = modulus.table_from_function(lambda r: r**0.5)
    ds = np.linspace(1e-3, 0.5, K)
    pairs = 1000 if small else 4000
    poles, samples = (1, 2) if small else (4, 20)
    R_list = (0.5,) if small else (0.5, 0.25)
    problem = verify.manufacture("gaussian", spec, varcoeff_id="sin1")
    rows = [
        ("L0", "exp_rows E", K, lambda: matrixcalc.exp_rows(tables[0], ts)),
        ("L0", "exp_rows C", K, lambda: matrixcalc.exp_rows(tables[1], ts)),
        ("L0", "OperatorSpec.C", K, lambda: spec.C(ts)),
        ("L0", "_checked_C", K, lambda: kernel._checked_C(spec, ts)),
        ("L1", "compose_rows", 4 * K, lambda: group.compose_rows(Z, W, spec)),
        ("L1", "inverse_rows", 4 * K, lambda: group.inverse_rows(W, spec)),
        ("L1", "kdist_rows", 4 * K, lambda: group.kdist_rows(Z, W, spec)),
        ("L1", "sample_ball", 4 * K,
         lambda: group.sample_ball(spec, 0.5, 4 * K, np.random.default_rng(1))),
        ("L2", "kernel_jet_rows values", 4 * K,
         lambda: kernel.kernel_jet_rows(spec, Z, P, derivatives=False)),
        ("L2", "kernel_jet_rows jets", K, lambda: kernel.kernel_jet_rows(spec, Z[:K], P[:K])),
        ("L3", "connect", 1, lambda: taylor.connect(src, dst, spec)),
        ("L3", "verify_plan", 1, lambda: taylor.verify_plan(plan, spec)),
        ("L4", "empirical_modulus", pairs,
         lambda: modulus.empirical_modulus(lambda X: group.knorm_rows(X, exps), spec,
                                           pair_samples=pairs)),
        ("L4", "schauder_functional_rows", K,
         lambda: modulus.schauder_functional_rows(table, ds)),
        ("L4", "dini_integral", 1, lambda: modulus.dini_integral(table)),
        ("L5", "verify_apriori", poles * samples,
         lambda: verify.verify_apriori(spec, R_list, poles=poles, samples=samples)),
        ("L5", "verify_mean_value", poles * samples,
         lambda: verify.verify_mean_value(spec, poles=poles, samples=samples)),
        ("L5", "verify_schauder sin1", pairs,
         lambda: verify.verify_schauder(problem, pair_samples=pairs)),
        ("L5", "verify_invariance", samples,
         lambda: verify.verify_invariance(spec, samples=samples)),
    ]
    if spec.N == 2:  # grids of n^N nodes: at N = 4 a singular-g1 call takes 1.3 s,
        # and the mass grid is past TENSOR_BUDGET
        rows += [("L5", "verify_singular_bounds g1", len(R_list),
                  lambda: verify.verify_singular_bounds(spec, "g1", R_list)),
                 ("L5", "kernel_mass", 1, lambda: kernel.kernel_mass(spec, 0.5))]
    return rows


def verb_rows(path, small, demo):
    """(layer, what, size, call) for each verb on one spec, in-process."""
    spec, N = ["--spec", str(path)], group.load_spec(path).N
    pairs = "1000" if small else "4000"

    def point(*values):
        return ",".join(str(v) for v in values[:N] + values[-1:])

    argvs = {
        "check": ["check", *spec],
        "kernel": ["kernel", *spec, "--point", point(0.3, -0.2, 0.1, 0.4, 0.7)],
        "connect": ["connect", *spec, "--from", point(0.4, -0.7, 0.2, 0.3, 0.1),
                    "--to", point(-0.2, 0.5, -0.1, 0.6, 0.9)],
        "taylor": ["taylor", *spec, "--rho-min-exp", "8" if small else "24"],
        "modulus": ["modulus", *spec, "--function", "knorm", "--pairs", pairs],
        "verify apriori": ["verify", "apriori", *spec, "--poles", "1" if small else "4",
                           "--samples", "2" if small else "20"],
        "verify schauder-var": ["verify", "schauder-var", "--varcoeff", "sin1", *spec,
                                "--pairs", "100" if small else "300"],
        "verify mean-value": ["verify", "mean-value", *spec, "--poles", "1" if small else "4",
                              "--samples", "2" if small else "40"],
        "verify invariance": ["verify", "invariance", *spec, "--samples", "2" if small else "12"],
    }
    if N == 2:
        argvs["verify singular-g1"] = ["verify", "singular-g1", *spec, "--R-list", "0.5,0.25"]
    if demo:  # the one verb that takes no spec
        argvs["demo-counterexample"] = ["demo-counterexample", "--pairs", pairs]
    rows = [("cli", f"run {verb}", 1, _quiet(argv)) for verb, argv in argvs.items()]
    # the report that run would encode for verify apriori
    args = cli._build_parser().parse_args(argvs["verify apriori"])
    with _silenced():
        body, code = cli._COMMANDS["verify"](args)
    report = {"verb": "verify", "config": {k: v for k, v in sorted(vars(args).items())
                                           if k != "verb"},
              "seed": args.seed, "exit_code": code, "results": body}
    rows += [
        ("cli", "load_spec", 1, lambda: group.load_spec(path)),
        ("cli", "parse_args", 1, lambda: cli._build_parser().parse_args(argvs["verify apriori"])),
        ("cli", "_emit apriori report", 1, _quiet_call(lambda: cli._emit(report, None))),
    ]
    return rows


@contextlib.contextmanager
def _silenced():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def _quiet_call(call):
    def run():
        with _silenced():
            call()
    return run


def _quiet(argv):
    def run():
        with _silenced():
            code = cli.run(list(argv))
        if code not in (0, 2):
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return run


def loops_for(call):
    """Calls per sample, from one warm-up call: as many as fill SAMPLE_S."""
    start = time.perf_counter()
    call()
    return max(1, int(SAMPLE_S / max(time.perf_counter() - start, 1e-9)))


def sample(call, loops):
    """Seconds per call over one sample of ``loops`` calls."""
    start = time.perf_counter()
    for _ in range(loops):
        call()
    return (time.perf_counter() - start) / loops


def _openblas_core():
    """OpenBLAS's core type, read from the library numpy loads."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _simd():
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    return {"baseline": list(__cpu_baseline__),
            "found": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}


def environment():
    src = sorted((ROOT / "src" / "kolmo").glob("*.py"))
    return {
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "processor": platform.processor(), "cpus": os.cpu_count(),
                    "openblas_core": _openblas_core(), "simd": _simd()},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--smoke", action="store_true", help="one repeat at small sizes")
    ap.add_argument("--tier1", action="store_true", help="also time the test suite once")
    ap.add_argument("--out", default=str(ROOT), help="directory of BENCH_<label>.json")
    args = ap.parse_args(argv)
    repeats = 1 if args.smoke else REPEATS
    result = {"label": args.label, **environment(), "repeats": repeats,
              "smoke": args.smoke, "rows": {}, "tier1_s": None}
    with tempfile.TemporaryDirectory() as tmp:
        m2 = Path(tmp) / "kinetic_m2.json"
        m2.write_text(json.dumps(M2))
        specs = {"kolmogorov": ROOT / "specs" / "kolmogorov.json", "kinetic_m2": m2,
                 "kinetic_drifted": ROOT / "specs" / "kinetic_drifted.json"}
        rows = []
        for name, path in specs.items():
            rows += [(f"{layer} {what} [{name}]", size, call) for layer, what, size, call
                     in layer_rows(group.load_spec(path), args.smoke)
                     + verb_rows(path, args.smoke, demo=name == "kolmogorov")]
        # repeat by repeat over every row, so that a burst of load on a
        # shared host lands in one sample of many rows, not in all of one
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            loops = [loops_for(call) for _, _, call in rows]
            times = [[] for _ in rows]
            for _ in range(repeats):
                for (_, _, call), n, out in zip(rows, loops, times):
                    out.append(sample(call, n))
        for (key, size, _), n, t in zip(rows, loops, times):
            result["rows"][key] = {"size": size, "calls": n,
                                   "median_us": round(statistics.median(t) * 1e6, 2),
                                   "min_us": round(min(t) * 1e6, 2),
                                   "max_us": round(max(t) * 1e6, 2)}
    if args.tier1:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                       cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       stdout=subprocess.DEVNULL, check=False)
        result["tier1_s"] = round(time.perf_counter() - start, 2)
    out = Path(args.out) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(out)
    return result


if __name__ == "__main__":
    main()
