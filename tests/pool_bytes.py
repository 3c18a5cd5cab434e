"""One sha256 per benchmark workload over the bytes of its pool reports.

For the checkout this file sits in, runs every pool index k of each
workload of ``perfbench/workloads.py`` (all 256, the left-out ones too)
in-process through ``kolmo.cli.run``, with the argv that the workload
builds for k, and prints one line per workload: its name, the number of
reports and the sha256 over each report's exit code, stdout and stderr.
Two checkouts whose lines agree print the same bytes on every report.

Reports run from a temporary directory holding a copy of ``specs/`` and
the apriori spec ``perfbench/out/kinetic_m2.json`` as that workload
writes it, so the tool writes nothing into the checkout.  OpenBLAS runs
on one thread, as in ``perfbench/run.py``.  From any directory:

    python <checkout>/tests/pool_bytes.py [workload ...]
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import types
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from kolmo.cli import run  # noqa: E402


def argvs(workload):
    """The argv of each pool index, as the workload makes it.  Apriori is
    not instantiated (its constructor writes the spec into the checkout):
    its report method runs on a stand-in that holds only the spec path."""
    if workload is workloads.Apriori:
        this = types.SimpleNamespace(spec_path=workloads.OUT / "kinetic_m2.json")
    else:
        this = workload()
    # the stream only feeds the checks' data, never an argv
    rng = np.random.default_rng(0)
    return [workload.report(this, k, rng).argv for k in workloads.POOL]


def pool_hash(workload):
    digest = hashlib.sha256()
    lines = argvs(workload)
    for argv in lines:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
        for part in (str(code), out.getvalue(), err.getvalue()):
            digest.update(part.encode() + b"\0")
    return len(lines), digest.hexdigest()


def main(names):
    chosen = [workloads.WORKLOADS[n] for n in names or workloads.WORKLOADS]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        shutil.copytree(ROOT / "specs", Path(workdir) / "specs")
        out = Path(workdir) / workloads.OUT
        out.mkdir(parents=True)
        (out / "kinetic_m2.json").write_text(
            json.dumps(workloads.kinetic_m2_spec(), indent=2) + "\n")
        os.chdir(workdir)
        try:
            for workload in chosen:
                count, digest = pool_hash(workload)
                print(f"{workload.name} {count} {digest}", flush=True)
        finally:
            os.chdir(here)


if __name__ == "__main__":
    main(sys.argv[1:])
