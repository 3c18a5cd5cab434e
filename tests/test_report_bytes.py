"""Report bytes against a recorded fingerprint.

Runs about twenty fast command lines in-process, each from a scratch
directory holding a copy of ``specs/`` (so the spec paths in the reports
do not depend on the checkout), and compares the sha256 of each stdout
and each exit code with ``report_bytes.json``.  The floats of a report
depend on the numpy and scipy builds and the machine, so the test skips
where those differ from the recorded ones.  The same lines run once more
in a child process with OpenBLAS on its Haswell kernels: no report bit
may depend on the BLAS kernel that the CPU selects.

Record the fingerprint afresh, only when report bytes move on purpose:

    PYTHONPATH=src python tests/test_report_bytes.py

``--print`` writes the fingerprints to stdout instead of the record.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from kolmo.cli import run

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("report_bytes.json")

COMMANDS = [
    "check --spec specs/kolmogorov.json",
    "check --spec specs/kinetic_drifted.json --time 0.5",
    "check --spec specs/heat1d.json --time 2",
    "kernel --spec specs/kolmogorov.json --point 0.3,-0.2,0.7",
    "kernel --spec specs/kinetic_drifted.json --point 0.5,-0.5,1 --pole 0.1,0.2,-0.3",
    "kernel --spec specs/heat1d.json --point 0.2,0.4",
    "connect --spec specs/kinetic.json --from 1,1,1 --to 0,0,0",
    "connect --spec specs/kinetic_drifted.json --from -0.3,0.8,0.2 --to 0.6,-0.4,-0.5",
    "connect --spec specs/kolmogorov.json --from 0.4,-0.7,0.1 --to -0.2,0.5,0.9",
    "taylor --spec specs/kinetic_drifted.json --form group",
    "taylor --spec specs/kinetic_drifted.json --form euclidean --point 0.1,-0.2,0.05 --seed 3",
    "modulus --spec specs/kolmogorov.json --function knorm --pairs 1000",
    "demo-counterexample --pairs 1000",
    "verify schauder-var --varcoeff sin1 --spec specs/kolmogorov.json --pairs 300 --seed 7",
    "verify schauder-const --family quadratic --spec specs/kinetic_drifted.json --pairs 200",
    "verify invariance --spec specs/kolmogorov.json --samples 12",
    "verify invariance --spec specs/kinetic_drifted.json --samples 12 --seed 1",
    "verify apriori --spec specs/kinetic_m2.json --poles 4 --samples 20 --seed 3",
    "verify mean-value --spec specs/kolmogorov.json --poles 4 --samples 40",
    "verify singular-g1 --spec specs/kolmogorov.json --R-list 0.5,0.25 --seed 2",
    "verify singular-const --spec specs/kolmogorov.json",
    "verify singular-const --spec specs/kinetic_drifted.json --seed 1",
    "verify singular-g2 --spec specs/kolmogorov.json --seed 3",
    "verify singular-g2 --spec specs/kinetic_drifted.json --seed 0",
    "verify singular-g1 --spec specs/kinetic.json",
    "modulus --spec specs/kolmogorov.json --function knorm --pairs 1000 --schauder-d 0.25",
    "verify schauder-var --varcoeff sin1x2 --spec specs/kinetic_drifted.json --pairs 300 --seed 2",
    "kernel --spec specs/kolmogorov.json --point 0.3,-0.2,0.7 --mass-time 0.5",
    "kernel --spec specs/kinetic_drifted.json --point 0.2,0.1,-0.4 --pole 0.1,0.2,-0.3",
    "connect --spec specs/kolmogorov.json --from 0.4,-0.7,0.1 --to 0.4,-0.7,0.1",
    "connect --spec specs/kinetic_m2.json --from 0.3,-0.2,0.5,0.1,0.4 --to -0.1,0.6,-0.3,0.2,-0.2",
    "taylor --spec specs/kolmogorov.json",
    "connect --spec specs/kinetic_drifted.json"
    " --from=-0.8165705257321911,-0.5800079899765509,0.9833723920289295"
    " --to=0.45284927845559997,0.7360761912583977,-0.9010324307265669",
    "connect --spec specs/kinetic_drifted.json"
    " --from=0.2739233746429086,-0.4604265724722594,-0.9180529521276106"
    " --to=-0.9669447289429418,0.6265404784005448,0.8255111545554434",
    "connect --spec specs/kinetic_drifted.json"
    " --from=0.023643249400513433,0.9009273926518706,-0.7116807745607325"
    " --to=0.8972988942744877,-0.3763370959790291,-0.1533471020548487",
    "verify schauder-var --varcoeff sin1 --spec specs/kinetic_m2.json --pairs 300 --seed 4",
    "verify schauder-const --family gaussian2 --spec specs/kinetic.json --pairs 300 --seed 5",
    "verify singular-g2 --spec specs/heat1d.json --seed 2",
    "kernel --spec specs/kolmogorov.json --point 0,0,1e-100",
    "kernel --spec specs/kinetic_drifted.json --point 0.5,-0.5,100",
    "verify schauder-const --family constant --spec specs/heat1d.json --pairs 200",
    "verify schauder-const --family gaussian-narrow --spec specs/kolmogorov.json --pairs 300 --seed 1",
    "verify schauder-const --family gaussian2 --spec specs/kinetic_drifted.json --pairs 300 --seed 3",
    "verify invariance --spec specs/kinetic.json --samples 12 --seed 2",
    "verify apriori --spec specs/kinetic_drifted.json --poles 4 --samples 20 --seed 1",
    "verify mean-value --spec specs/kinetic_drifted.json --poles 4 --samples 40",
]


def environment():
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def kinetic_m2_spec():
    """The m = 2, N = 4 kinetic operator of the apriori benchmark workload."""
    B = np.zeros((4, 4))
    B[2:, :2] = -np.eye(2)
    return {"N": 4, "m": 2, "A": np.eye(2).tolist(), "B": B.tolist(),
            "blocks": [2, 2]}


def prepare(workdir):
    """Copy the specs (and the m = 2 one) under ``workdir``/specs."""
    specs = Path(workdir) / "specs"
    shutil.copytree(ROOT / "specs", specs)
    (specs / "kinetic_m2.json").write_text(
        json.dumps(kinetic_m2_spec(), indent=2) + "\n")


def fingerprint(line):
    """Exit code and sha256 of the stdout of one command line, run from
    the working directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(line.split())
    return {"exit_code": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def recorded():
    """The record, with the pytest skip where it was made under another build."""
    record = json.loads(RECORD.read_text())
    if record["environment"] != environment():
        pytest.skip(f"fingerprint recorded under {record['environment']}, "
                    f"running under {environment()}")
    assert [r["argv"] for r in record["reports"]] == COMMANDS
    return record


def test_reports_keep_their_bytes(tmp_path, monkeypatch):
    record = recorded()
    prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    moved = [r["argv"] for r in record["reports"]
             if fingerprint(r["argv"]) != {"exit_code": r["exit_code"],
                                           "sha256": r["sha256"]}]
    assert not moved, "report bytes moved:\n" + "\n".join(moved)


def test_reports_keep_their_bytes_on_another_blas_kernel():
    # OpenBLAS picks its kernels by CPU at load time; Haswell's run on any
    # CPU with AVX2 and FMA3, so one child process forced onto them must
    # print every recorded byte
    record = recorded()
    features = np._core._multiarray_umath.__cpu_features__
    if not (features.get("AVX2") and features.get("FMA3")):
        pytest.skip("the Haswell kernels need AVX2 and FMA3")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, __file__, "--print"], env=env, check=True,
                           capture_output=True, text=True)
    reports = json.loads(child.stdout)
    moved = [r["argv"] for r, got in zip(record["reports"], reports) if got != r]
    assert not moved, "report bytes moved under Haswell:\n" + "\n".join(moved)


def fingerprints():
    """The fingerprint of every command line, each run from a fresh copy of the specs."""
    with tempfile.TemporaryDirectory() as workdir:
        prepare(workdir)
        here = os.getcwd()
        os.chdir(workdir)
        try:
            return [{"argv": line, **fingerprint(line)} for line in COMMANDS]
        finally:
            os.chdir(here)


def main(args):
    reports = fingerprints()
    if args == ["--print"]:
        print(json.dumps(reports))
        return
    RECORD.write_text(json.dumps({"environment": environment(), "reports": reports},
                                 indent=2) + "\n")
    print(f"recorded {len(reports)} reports in {RECORD}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
