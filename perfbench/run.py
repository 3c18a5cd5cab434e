"""Benchmark of kolmo: one workload per call, timed in-process.

Run from anywhere; reports run with the repository root as the working
directory:

    python3 perfbench/run.py --workload apriori --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics.
Workloads: apriori, singular, schauder, planner (see README.md).
"""

import os

# Every matrix here is at most 8 x 8; an unpinned OpenBLAS spins a second
# thread on the other core.  This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["apriori", "singular", "schauder", "planner"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run a few checked reports of each workload and exit")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up and run the warm-up report only (timed by the parent)")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv):
    args = _parse(argv)
    for needed in ("src/kolmo/__init__.py", "specs/kolmogorov.json",
                   "specs/kinetic_drifted.json"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} is missing; run from a kolmo checkout",
                  file=sys.stderr)
            return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # imports kolmo, so only after the path is set

    if args.smoke:
        bench.smoke()
    elif args.setup_probe:
        bench.setup(args.workload, args.seed)
    else:
        bench.main(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
