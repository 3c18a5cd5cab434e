import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from kolmo import cli, load_spec, matrixcalc
from kolmo.cli import run
from kolmo.modulus import DEFAULT_RADII, ModulusTable, pair_omega

SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"
KOLMO = str(SPEC_DIR / "kolmogorov.json")
KINETIC = str(SPEC_DIR / "kinetic.json")
DRIFTED = str(SPEC_DIR / "kinetic_drifted.json")
HEAT = str(SPEC_DIR / "heat1d.json")


def _last_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out[out.index("{"):])


def test_check_verb(capsys):
    assert run(["check", "--spec", KOLMO]) == 0
    rep = _last_json(capsys)
    assert rep["verb"] == "check"
    assert rep["results"]["alpha"] == [1, 3]
    assert rep["results"]["Q"] == 4
    assert rep["results"]["hormander"]["is_spd"]
    assert rep["exit_code"] == 0


def test_kernel_verb(capsys):
    code = run(["kernel", "--spec", KOLMO, "--point", "0,0,1",
                "--mass-time", "0.5"])
    assert code == 0
    rep = _last_json(capsys)
    assert abs(rep["results"]["gamma"] - np.sqrt(3.0) / (2.0 * np.pi)) < 1e-10
    assert abs(rep["results"]["mass"]["value"] - 1.0) < 1e-5
    assert abs(rep["results"]["pde_residual"]) < 1e-8


def test_kernel_mass_refuses_an_oversized_grid(tmp_path, capsys):
    # N = 4: the mass quadrature's coarse grid alone has 64^4 points
    spec = tmp_path / "kolmogorov_m2.json"
    spec.write_text(json.dumps({"A": np.eye(2).tolist(), "blocks": [2, 2],
                                "B": [[0, 0, 0, 0], [0, 0, 0, 0],
                                      [-1, 0, 0, 0], [0, -1, 0, 0]]}))
    assert run(["kernel", "--spec", str(spec), "--point", "0,0,0,0,1",
                "--mass-time", "0.5"]) == 3
    assert "budget" in capsys.readouterr().err


def test_singular_refuses_an_oversized_grid_by_its_dimension(tmp_path, capsys):
    # the slices' Gauss-Hermite grid has 12^N points; no option sets the
    # nodes, so the refusal names the N that the spec sets
    assert run(["verify", "singular-g1", "--spec", _chain_spec(tmp_path, 6)]) == 3
    assert capsys.readouterr().err == (
        "error: 12^6 = 2985984 points for N = 6 exceeds the budget of 1048576\n")


def test_connect_verb(capsys):
    code = run(["connect", "--spec", KINETIC, "--from", "1,1,1", "--to", "0,0,0"])
    assert code == 0
    rep = _last_json(capsys)
    check = rep["results"]["verification"]
    assert check["ok"] and check["endpoint_error"] <= 1e-12
    assert check["segments"] == 6


def test_connect_accepts_a_spaced_negative_point(tmp_path, capsys):
    spaced, fused = tmp_path / "spaced.json", tmp_path / "fused.json"
    assert run(["connect", "--spec", KINETIC, "--from", "-1,1,1",
                "--to", "0,0,0", "--out", str(spaced)]) == 0
    assert run(["connect", "--spec", KINETIC, "--from=-1,1,1",
                "--to", "0,0,0", "--out", str(fused)]) == 0
    same_out = spaced.read_text().replace(str(spaced), str(fused))
    assert same_out == fused.read_text()
    capsys.readouterr()


def test_connect_nonconvergence_exit_code():
    # zero tolerance on a generic drift cannot be met
    assert run(["connect", "--spec", DRIFTED, "--from", "0,2,0",
                "--to", "0,0,0", "--tol", "0"]) == 4


@pytest.mark.parametrize("argv", [
    # --tol inf skipped the correction loop and passed with endpoint error 1
    ["connect", "--spec", KOLMO, "--from", "0,0,0", "--to", "1,1,1", "--tol=inf"],
    ["connect", "--spec", KOLMO, "--from", "0,0,0", "--to", "1,1,1", "--tol=nan"],
    ["connect", "--spec", KOLMO, "--from", "0,0,0", "--to", "1,1,1", "--tol=-1"],
    # an empty list ran the default radii and recorded "R_list": ""
    ["verify", "apriori", "--spec", KOLMO, "--R-list", ""],
    ["verify", "singular-g1", "--spec", KOLMO, "--R-list", ""],
], ids=["tol-inf", "tol-nan", "tol-negative", "R-list-empty-apriori",
        "R-list-empty-singular"])
def test_option_outside_its_domain_is_a_usage_error(argv, capsys):
    assert run(argv) == 3
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("verb", ["apriori", "mean-value", "singular-g1"])
@pytest.mark.parametrize("radii", ["nan", "inf", "0.5,-inf", "0", "-0.5,0.25", "-0"])
def test_a_radius_outside_its_domain_names_the_option(verb, radii, capsys):
    # these said "point has non-finite coordinates", "dilation parameter
    # must be positive" or, for a leading minus, "expected one argument"
    assert run(["verify", verb, "--spec", KOLMO, "--R-list", radii]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"usage error: --R-list needs finite radii > 0, got {radii}\n"


def _cli(argv, threads="1"):
    env = dict(os.environ, PYTHONPATH=str(SPEC_DIR.parent / "src"),
               OPENBLAS_NUM_THREADS=threads)
    return subprocess.run([sys.executable, "-m", "kolmo.cli", *argv],
                          env=env, capture_output=True, timeout=120)


def test_connect_degenerate_direction_exit_code(tmp_path):
    # on this three-level drift the trial steps of the level-2 bracket
    # overflow; that is a convergence failure, not a crash, and no numpy
    # warning reaches stderr
    spec = tmp_path / "three_level.json"
    spec.write_text(json.dumps({"A": [[1.0]], "blocks": [1, 1, 1],
                                "B": [[0, 0, 0], [1, 0, 0.3], [0, -2, 0]]}))
    pair = np.random.default_rng(2).uniform(-1.0, 1.0, 8)
    p, q = (",".join(repr(float(v)) for v in half) for half in (pair[:4], pair[4:]))
    proc = _cli(["connect", "--spec", str(spec), f"--from={p}", f"--to={q}"])
    assert proc.returncode == 4
    assert proc.stdout.startswith(b"connect did not converge: no bracket")
    assert proc.stderr == b""
    # an overflow outside a trial step is the one-line accuracy failure
    proc = _cli(["connect", "--spec", DRIFTED, "--from=0,0,0", "--to=0,1e300,0"])
    assert proc.returncode == 4
    assert proc.stderr.startswith(b"accuracy failure: overflow while planning")
    assert proc.stderr.count(b"\n") == 1
    # so is a time whose scaling |t| ||M||_1 overflows
    proc = _cli(["connect", "--spec", DRIFTED, "--from=0,0,0", "--to=0,0,1e308"])
    assert proc.returncode == 4
    assert proc.stderr == b"accuracy failure: overflow in matrix exponential\n"


def test_kernel_report_leaves_scipy_linalg_unloaded():
    # scipy.linalg serves only mat_exp, the once-per-generator check of a
    # truncated series, which a principal drift never reaches; it is
    # imported on mat_exp's first call, not with the command line
    code = ("import sys, kolmo.cli\n"
            f"code = kolmo.cli.run(['kernel', '--spec', {KOLMO!r}, '--point', '0.5,-0.5,1'])\n"
            "sys.exit(code if 'scipy.linalg' not in sys.modules else 1)\n")
    env = dict(os.environ, PYTHONPATH=str(SPEC_DIR.parent / "src"),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_hot_paths_make_no_scipy_expm_call(monkeypatch, capsys):
    # on principal drifts every E(t) and C(t) comes from the powers of its
    # generator, so scipy's expm is never reached
    def refuse(M):
        raise AssertionError("scipy expm called on a hot path")

    verbs = [["verify", "apriori", "--spec"],
             ["verify", "schauder-var", "--varcoeff", "sin1", "--pairs", "300", "--spec"],
             ["kernel", "--point", "0,0,1", "--mass-time", "0.5", "--spec"],
             ["connect", "--from=-1,1,1", "--to=0,0,0", "--spec"]]
    monkeypatch.setattr(matrixcalc, "expm", refuse)
    for argv in verbs:
        assert run(argv + [KINETIC if argv[0] == "connect" else KOLMO]) == 0
    # on a non-principal drift the truncated series of each generator (-B,
    # and the block generator of C) is checked once against scipy
    calls = []
    monkeypatch.setattr(matrixcalc, "expm", lambda M: calls.append(M) or expm(M))
    for argv in verbs:
        calls.clear()
        run(argv + [DRIFTED])
        assert 1 <= len(calls) <= 2
    capsys.readouterr()


def test_taylor_verb(capsys):
    code = run(["taylor", "--spec", KOLMO, "--family", "gaussian",
                "--rho-min-exp", "6"])
    assert code == 0
    rep = _last_json(capsys)
    lines = rep["results"]["profile_csv"].splitlines()
    assert lines[0] == "rho,remainder,ratio"
    assert len(lines) == 7


def test_modulus_verb(capsys):
    code = run(["modulus", "--spec", KOLMO, "--function", "knorm",
                "--pairs", "1500", "--schauder-d", "0.25"])
    assert code == 0
    rep = _last_json(capsys)
    assert rep["results"]["classification"] == "dini"
    assert rep["results"]["schauder_functional"]["value"] > 0.0


def test_modulus_requires_one_source():
    assert run(["modulus", "--spec", KOLMO]) == 3
    assert run(["modulus", "--spec", KOLMO, "--function", "knorm",
                "--input-csv", "x.csv"]) == 3


def test_modulus_from_csv(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(40):
        x = rng.uniform(-1, 1, size=2)
        t = rng.uniform(-1, 1)
        rows.append(f"{x[0]},{x[1]},{t},{x[0] + x[1]}")
    csv = tmp_path / "samples.csv"
    csv.write_text("\n".join(rows) + "\n")
    assert run(["modulus", "--spec", KOLMO, "--input-csv", str(csv)]) == 0
    rep = _last_json(capsys)
    assert rep["results"]["source"]["input_csv"] == str(csv)


def _csv_pair_loop(data, spec, E):
    """Distances and jumps over all pairs i < j of the CSV rows, one pair
    at a time, with d(z_i, z_j) = ||z_j^{-1} o z_i|| written out from the
    matrix function E(t) = exp(-t B) and Python-float powers."""
    N, alpha = spec.N, spec.exponents().alpha
    dists, jumps = [], []
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            xi, ti, xj, tj = data[i, :N], data[i, N], data[j, :N], data[j, N]
            inv = -(E(-tj) @ xj)
            x, t = xi + E(ti) @ inv, -tj + ti
            dists.append(max([abs(t) ** 0.5] + [abs(v) ** (1.0 / a)
                                                for v, a in zip(x, alpha)]))
            jumps.append(abs(data[i, -1] - data[j, -1]))
    return dists, jumps


@pytest.mark.parametrize("spec_path", [KOLMO, DRIFTED])
def test_modulus_from_csv_matches_the_pair_loop(spec_path, tmp_path,
                                                monkeypatch):
    rng = np.random.default_rng(7)
    csv = tmp_path / "samples.csv"
    np.savetxt(csv, rng.uniform(-1.0, 1.0, (40, 4)), delimiter=",")
    data = np.loadtxt(csv, delimiter=",", ndmin=2)
    spec = load_spec(spec_path)
    # chunking and pairing, exactly: the loop of K = 1 spec.E calls
    dists, jumps = _csv_pair_loop(data, spec, spec.E)
    want = ModulusTable(DEFAULT_RADII, pair_omega(dists, jumps, DEFAULT_RADII)).omega.tolist()
    assert max(want) > 0.0
    assert cli._modulus_from_csv(csv, spec).omega.tolist() == want
    monkeypatch.setattr(cli, "CSV_PAIR_CHUNK", 7)  # one row of pairs per chunk
    assert cli._modulus_from_csv(csv, spec).omega.tolist() == want
    # the exponential, to a tolerance: the same loop from scipy's expm
    # gives distances within 1e-13 relative and the same modulus
    ref, _ = _csv_pair_loop(data, spec, lambda t: expm(-t * spec.B))
    assert np.allclose(dists, ref, rtol=1e-13, atol=0.0)
    table = ModulusTable(DEFAULT_RADII, pair_omega(ref, jumps, DEFAULT_RADII))
    assert table.omega.tolist() == want


def test_pair_chunks_cover_every_pair_once():
    for n, size in ((1, 5), (2, 1), (7, 3), (9, 100), (40, 7)):
        chunks = list(cli._pair_chunks(n, size))
        assert all(len(I) <= max(size, n - 1) for I, _ in chunks)
        pairs = [(i, j) for I, J in chunks
                 for i, j in zip(I.tolist(), J.tolist())]
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_kernel_mass_does_not_depend_on_the_thread_count():
    # a BLAS dot over the 16,384 nodes of the fine pass grouped its terms
    # by the thread count; the sum is exactly rounded now.  verify apriori
    # runs the kernel on row blocks, where a product over all rows at once
    # could round by the thread count as well; so could the matmul stacks
    # that square the exponentials of schauder-var and connect
    pair = np.random.default_rng(3).uniform(-1.0, 1.0, 6)
    p, q = (",".join(repr(float(v)) for v in half) for half in (pair[:3], pair[3:]))
    for argv in (["kernel", "--spec", KOLMO, "--point", "0,0,1", "--mass-time", "0.5"],
                 ["verify", "apriori", "--spec", KOLMO],
                 ["verify", "schauder-var", "--varcoeff", "sin1", "--spec", DRIFTED],
                 ["connect", "--spec", DRIFTED, f"--from={p}", f"--to={q}"]):
        outs = []
        for threads in ("1", "2"):
            proc = _cli(argv, threads)
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


def test_closed_stdout_keeps_the_exit_code():
    # kolmo verify mean-value ... | head -1: the reader leaves after the
    # first line, long before the 100 kB report is written
    env = dict(os.environ, PYTHONPATH=str(SPEC_DIR.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kolmo.cli", "verify", "mean-value", "--spec",
         KOLMO, "--poles", "4", "--samples", "2000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert first.startswith(b"mean-value: fitted constant")
    assert err == b""


def test_verify_verb(capsys):
    code = run(["verify", "schauder-const", "--spec", KOLMO,
                "--family", "gaussian", "--pairs", "300"])
    assert code == 0
    rep = _last_json(capsys)
    assert rep["results"]["verdict"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "schauder-var", "--spec", KOLMO, "--pairs", "200"],
    ["verify", "schauder-const", "--varcoeff", "sin1", "--spec", KOLMO],
])
def test_varcoeff_goes_with_schauder_var_only(argv, capsys):
    # schauder-var without a coefficient ran the constant test under the
    # name schauder-const, and schauder-const dropped one without a word
    assert run(argv) == 3
    assert capsys.readouterr() == (
        "", "usage error: --varcoeff is needed by schauder-var and taken by no other criterion\n")


def test_verify_invariance_verb():
    assert run(["verify", "invariance", "--spec", KOLMO, "--samples", "10"]) == 0


def test_demo_counterexample(capsys):
    assert run(["demo-counterexample", "--pairs", "2000"]) == 0
    rep = _last_json(capsys)
    assert rep["results"]["certified_non_dini"] is True


def test_usage_errors():
    assert run(["frobnicate"]) == 3
    assert run(["kernel", "--spec", KOLMO, "--point", "0,1"]) == 3  # short point
    assert run(["kernel", "--spec", KOLMO, "--point", "nan,0,1"]) == 3  # not finite
    assert run([]) == 3


BAD_INPUTS = {
    "point-not-numbers": ["kernel", "--spec", KOLMO, "--point", "a,b,c"],
    "R-list-not-numbers": ["verify", "apriori", "--spec", KOLMO,
                           "--R-list", "1,x"],
    "missing-spec": ["check", "--spec", "{tmp}/missing.json"],
    "missing-csv": ["modulus", "--spec", KOLMO, "--input-csv",
                    "{tmp}/missing.csv"],
    "spec-without-blocks": ["check", "--spec", "{tmp}/no_blocks.json"],
    "spec-not-numbers": ["check", "--spec", "{tmp}/text_A.json"],
    "time-overflow": ["kernel", "--spec", KOLMO, "--point", "0,0,1e300"],
    "negative-seed": ["taylor", "--spec", KOLMO, "--seed", "-1"],
    "zero-samples": ["verify", "mean-value", "--spec", KOLMO, "--samples", "0"],
    "huge-pairs": ["modulus", "--spec", KOLMO, "--function", "knorm",
                   "--pairs", "100000000000000000000"],
    "counterexample-on-N1": ["modulus", "--spec", HEAT, "--function",
                             "counterexample-f"],
    "csv-not-finite": ["modulus", "--spec", KOLMO, "--input-csv",
                       "{tmp}/nan.csv"],
    "unwritable-out": ["check", "--spec", KOLMO, "--out", "{tmp}/no/r.json"],
    "declared-N-text": ["check", "--spec", "{tmp}/N_text.json"],
    "declared-N-null": ["check", "--spec", "{tmp}/N_null.json"],
    "declared-m-list": ["check", "--spec", "{tmp}/m_list.json"],
    "declared-N-fraction": ["check", "--spec", "{tmp}/N_fraction.json"],
    "declared-N-digits": ["check", "--spec", "{tmp}/N_digits.json"],
    "spec-B-nan": ["kernel", "--spec", "{tmp}/B_nan.json", "--point", "0.1,0.1,1"],
    "spec-A-infinity": ["check", "--spec", "{tmp}/A_inf.json"],
    "spec-block-overflow": ["check", "--spec", "{tmp}/block_overflow.json"],
    "spec-block-fraction": ["check", "--spec", "{tmp}/block_fraction.json"],
    # a power of C(t)'s block generator overflows (B A~ B^T ~ 1e400): this
    # exited 4 with "overflow encountered in matmul"
    "spec-power-overflow": ["check", "--spec", "{tmp}/power_overflow.json"],
    "spec-power-overflow-kernel": ["kernel", "--spec", "{tmp}/power_overflow.json",
                                   "--point", "0.1,0.1,1"],
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_keeps_exit_code_contract(name, tmp_path):
    (tmp_path / "no_blocks.json").write_text(
        json.dumps({"A": [[1.0]], "B": [[0.0, 0.0], [-1.0, 0.0]]}))
    (tmp_path / "text_A.json").write_text(
        json.dumps({"A": "x", "B": [[0.0, 0.0], [-1.0, 0.0]], "blocks": [1, 1]}))
    (tmp_path / "nan.csv").write_text("0.1,0.2,0.3,1\nnan,0.1,0.2,2\n")
    # a declared N or m that is not a whole number
    for stem, key, value in (("N_text", "N", "abc"), ("N_null", "N", None),
                             ("m_list", "m", [1]), ("N_fraction", "N", 2.9),
                             ("N_digits", "N", "2")):
        (tmp_path / f"{stem}.json").write_text(
            json.dumps(dict(json.loads(Path(KOLMO).read_text()), **{key: value})))
    # a non-finite A or B, and block sizes that are not whole numbers
    for stem, a, b, size in (("B_nan", "1", "NaN", "1"), ("A_inf", "Infinity", "-1", "1"),
                             ("block_overflow", "1", "-1", "1e400"),
                             ("block_fraction", "1", "-1", "1.5"),
                             ("power_overflow", "1", "-1e200", "1")):
        (tmp_path / f"{stem}.json").write_text(
            f'{{"A": [[{a}]], "B": [[0, 0], [{b}, 0]], "blocks": [1, {size}]}}')
    argv = [a.replace("{tmp}", str(tmp_path)) for a in BAD_INPUTS[name]]
    env = dict(os.environ, PYTHONPATH=str(SPEC_DIR.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "kolmo.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 2, 3, 4)
    assert "Traceback" not in proc.stderr
    if name.startswith(("declared-", "spec-")):  # a structure error, not a truncated size
        assert proc.returncode == 3 and proc.stderr.count("\n") == 1


def test_time_step_beyond_the_covariance_range_is_a_usage_error(capsys):
    # C(1e300) overflows: a DomainError (exit 3), not the exponential's
    # AccuracyError (exit 4); so do the t^3 terms of C(1e200) and, on the
    # non-principal drift, the squarings of exp(1e5 M) and the scaling
    # |t| ||M||_1 of exp(1e308 M)
    for spec, t in ((KOLMO, "1e300"), (KOLMO, "1e200"), (DRIFTED, "1e5"),
                    (DRIFTED, "1e308")):
        assert run(["kernel", "--spec", spec, "--point", f"0,0,{t}"]) == 3
        assert capsys.readouterr().err.startswith("error: C(t) is not finite")


def test_check_time_whose_covariance_overflows_is_a_usage_error(capsys):
    # check reads C(t) through the kernel's own test: an overflow is exit 3
    for spec, t in ((KOLMO, "1e300"), (DRIFTED, "1e5")):
        assert run(["check", "--spec", spec, "--time", t]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: C(t) is not finite") and err.count("\n") == 1


def test_taylor_rho_min_exp_is_bounded(capsys):
    # rho^2 is a normal float down to rho = 2^-511; further down the ratios
    # were nan (540) or overflowed (1100), and 0 or less gave no profile
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in ("0", "512", "540", "-3"):
            assert run(["taylor", "--spec", KOLMO, f"--rho-min-exp={k}"]) == 3
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and err.count("\n") == 1
        assert run(["taylor", "--spec", KOLMO, "--rho-min-exp", "511"]) == 0
    rows = _last_json(capsys)["results"]["profile_csv"].split("\n")[1:]
    assert len(rows) == 511
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


# (argv, exit code): Gamma overflows, an accuracy failure (4); the Gaussian's
# gradient overflows at the expansion point, which taylor2 refuses as it
# refuses a u or Hessian that is not finite there (3; this exited 4 with
# "overflow encountered in multiply")
NON_FINITE_REPORTS = {
    "kernel-kolmogorov-1e308": (["kernel", "--spec", KOLMO, "--point", "1e308,0,1"], 4),
    "kernel-kolmogorov-minus-1e308": (["kernel", "--spec", KOLMO, "--point", "-1e308,0,1"], 4),
    "kernel-drifted-1e308": (["kernel", "--spec", DRIFTED, "--point", "1e308,0,1"], 4),
    "taylor-kolmogorov-1e308": (["taylor", "--spec", KOLMO, "--point", "1e308,0,0"], 3),
    "taylor-kolmogorov-minus-1e308": (["taylor", "--spec", KOLMO, "--point", "-1e308,0,0"], 3),
    "taylor-drifted-1e308": (["taylor", "--spec", DRIFTED, "--point", "1e308,0,0"], 3),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_REPORTS))
def test_a_non_finite_kernel_or_taylor_report_is_an_accuracy_failure(name, capsys):
    # these exited 0 with a nan Gamma or nan remainders; the overflow is
    # now raised as one error line of its exit code, with no numpy warning
    argv, code = NON_FINITE_REPORTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == code
    out, err = capsys.readouterr()
    first = "accuracy failure:" if code == 4 else "error: u or its derivatives are not finite"
    assert out == "" and err.startswith(first) and err.count("\n") == 1


OVERFLOWING_RADII = {
    "singular-g1": ["verify", "singular-g1", "--spec", KOLMO, "--R-list", "0.5,1e308"],
    "apriori": ["verify", "apriori", "--spec", KOLMO, "--R-list", "1e200"],
    "mean-value": ["verify", "mean-value", "--spec", KOLMO, "--R-list", "1e200"],
}
# radii whose dilation is finite but whose time steps leave the floats: C(t)
# is not finite at the criterion's largest step, 4 R^2 (apriori, mean-value)
# or 1.25 R^2 (singular-*), or R^2 is 0; each ended with a line that named
# no option ("C(t) is not finite for a time step up to 3.9e+200", "... up to
# 3534" on kinetic_drifted, "kernel derivative needs t - tau > 0, got 0.0")
STEPS_PAST_THE_FLOATS = {
    "apriori-1e100": (["verify", "apriori", "--spec", KOLMO, "--R-list", "1e100"],
                      "radius 1e+100 leaves the floats: C(t) is not finite at the "
                      "largest time step 4 R^2 = 4e+200"),
    "apriori-drifted-30": (["verify", "apriori", "--spec", DRIFTED, "--R-list", "30"],
                           "radius 30.0 leaves the floats: C(t) is not finite at the "
                           "largest time step 4 R^2 = 3600"),
    "apriori-1e-200": (["verify", "apriori", "--spec", KOLMO, "--R-list", "1e-200"],
                       "radius 1e-200 has R^2 = 0: its time steps underflow"),
    "mean-value-1e102": (["verify", "mean-value", "--spec", KOLMO, "--R-list", "1e102"],
                         "radius 1e+102 leaves the floats: C(t) is not finite at the "
                         "largest time step 4 R^2 = 4e+204"),
    "singular-g1-1e100": (["verify", "singular-g1", "--spec", KOLMO, "--R-list", "0.5,1e100"],
                          "radius 1e+100 leaves the floats: C(t) is not finite at the "
                          "largest time step 1.25 R^2 = 1.25e+200"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_RADII) + sorted(STEPS_PAST_THE_FLOATS))
def test_a_radius_whose_dilation_overflows_is_one_error_line(name, capsys):
    # R^3 (alpha = (1, 3) on kolmogorov) is not finite: the radius is refused
    # by name before any point is dilated (exit 3), with no numpy warning;
    # so is a radius whose time steps leave the floats
    if name in OVERFLOWING_RADII:
        argv = OVERFLOWING_RADII[name]
        radius = float(argv[-1].split(",")[-1])
        line = f"radius {radius!r} overflows the dilation: R^3 is not finite"
    else:
        argv, line = STEPS_PAST_THE_FLOATS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"usage error: --R-list {line}\n"


@pytest.mark.parametrize("family", ["constant", "quadratic", "gaussian"])
def test_an_overflow_that_a_layer_handles_keeps_its_exit_code(family, capsys):
    # under the command line's raising error state: z^{-1} overflows in
    # inverse_rows, which leaves it to finite_rows (exit 3), and taylor2
    # meets it before the bundle's own overflow at that point
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["taylor", "--spec", KOLMO, "--family", family,
                    "--point", "1e299,1e299,1e299"]) == 3
        assert capsys.readouterr().err == "error: point has non-finite coordinates\n"
        # the bump's squares overflow far out; exp(-inf) = 0 is its limit
        assert run(["taylor", "--spec", KOLMO, "--family", family, "--point",
                    "-2.185936850811001e+153,8.379282566533775e+153,-5.3190522057924274e+153"]
                   ) == 0
    capsys.readouterr()


def test_the_contract_lines_hold_under_warnings_as_errors(tmp_path):
    # a fresh interpreter with python -W error: the exit code and one
    # stderr line each, with no warning turned into a traceback
    env = dict(os.environ, PYTHONPATH=str(SPEC_DIR.parent / "src"),
               OPENBLAS_NUM_THREADS="1")
    heat3 = tmp_path / "heat3.json"
    heat3.write_text(json.dumps({"A": np.eye(3).tolist(), "B": np.zeros((3, 3)).tolist(),
                                 "blocks": [3]}))
    lines = [NON_FINITE_REPORTS["kernel-kolmogorov-1e308"],
             NON_FINITE_REPORTS["taylor-kolmogorov-1e308"]]
    lines += [(OVERFLOWING_RADII[name], 3) for name in sorted(OVERFLOWING_RADII)]
    lines += [(STEPS_PAST_THE_FLOATS[name][0], 3) for name in sorted(STEPS_PAST_THE_FLOATS)]
    # a singular C(t): by the eigenvalue alone (sign > 0, min eig ~ 8e-302)
    # and the zero matrix of an underflowed flow
    lines += [(["kernel", "--spec", KOLMO, "--point", "0,0,1e-100"], 3),
              (["kernel", "--spec", DRIFTED, "--point", "0.5,-0.5,100"], 3)]
    # a certified C(1e-290) whose Gamma passes the largest double (this
    # exited 1 with an OverflowError traceback)
    lines += [(["kernel", "--spec", str(heat3), "--point", "0,0,0,1e-290"], 4)]
    # an empty CSV: numpy's "Empty input file" UserWarning came first, a
    # traceback under -W error
    (tmp_path / "empty.csv").write_text("")
    lines += [(["modulus", "--spec", KOLMO, "--input-csv", str(tmp_path / "empty.csv")], 3)]
    # a quadratic u that overflows at the expansion point, in either form:
    # z^{-1} overflows (group), or u(z) is not finite (euclidean; this
    # exited 4 with "overflow encountered in matmul")
    lines += [(["taylor", "--spec", KOLMO, "--family", "quadratic", "--form", form,
                "--point", "1e299,1e299,1e299"], 3) for form in ("group", "euclidean")]
    # a Gaussian u that underflows to 0 there while its Hessian is inf * 0:
    # z^{-1} overflows (group), or the Hessian is not finite (euclidean; this
    # exited 4 with "overflow encountered in multiply")
    lines += [(["taylor", "--spec", KOLMO, "--family", "gaussian", "--form", form,
                "--point", "1e299,1e299,1e299"], 3) for form in ("group", "euclidean")]
    for argv, code in lines:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "kolmo.cli", *argv],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == b"" and proc.stderr.count(b"\n") == 1


def test_a_long_chain_spec_keeps_the_exit_code_contract(tmp_path):
    # 86 one-dimensional levels: C(t)'s block generator has size 172, so its
    # series reaches 171!, past the largest double (this exited 1 with an
    # OverflowError traceback); Hörmander's check fails numerically, as at 85
    N = 86
    B = np.diag(np.ones(N - 1), -1)
    path = tmp_path / "chain86.json"
    path.write_text(json.dumps({"N": N, "m": 1, "A": [[1.0]], "B": B.tolist(),
                                "blocks": [1] * N}))
    env = dict(os.environ, PYTHONPATH=str(SPEC_DIR.parent / "src"),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "kolmo.cli", "check",
                           "--spec", str(path)], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 2 and proc.stderr == b""
    assert b"hormander FAIL" in proc.stdout.splitlines()[0]


def _chain_spec(tmp_path, N):
    """N one-dimensional levels: A = [[1]], ones on the subdiagonal of B."""
    path = tmp_path / f"chain{N}.json"
    path.write_text(json.dumps({"A": [[1.0]], "B": np.diag(np.ones(N - 1), -1).tolist(),
                                "blocks": [1] * N}))
    return str(path)


def test_check_and_kernel_share_one_verdict_on_the_chains(tmp_path, capsys):
    # check reports the verdict the kernel acts on; its own absolute rule
    # (lambda_min > 1e-10) failed N = 6..12, where the kernel runs
    for N, time, want in [(N, "1", 0) for N in range(3, 13)] + [(20, "1", 2), (85, "0.3", 2)]:
        spec = _chain_spec(tmp_path, N)
        check = run(["check", "--spec", spec, "--time", time])
        kernel = run(["kernel", "--spec", spec, "--point", "0," * N + time])
        assert check == want and (check == 0) == (kernel == 0), N
        # a singular C(t) is exit 3, also where slogdet meets a zero pivot
        # (N = 85 at t = 0.3 was an accuracy failure, exit 4)
        assert kernel in (0, 3)
    # N = 13..16 at t = 10^k: check failed where the kernel passed the
    # verdict (chain13 at 1e-5, chain14 at 1e-6 and 1e-2, where Gamma then
    # overflows, exit 4) and passed where det C(1) < 0 failed it (chain15 at
    # 1e-9, chain16 at 1e-8), when check read the rule per row of C(t)
    moved = {(13, -5): 0, (14, -6): 0, (14, -2): 0, (15, -9): 2, (16, -8): 2}
    for N in range(13, 17):
        spec = _chain_spec(tmp_path, N)
        for k in range(-12, 4):
            check = run(["check", "--spec", spec, "--time", f"1e{k}"])
            capsys.readouterr()
            run(["kernel", "--spec", spec, "--point", "0," * N + f"1e{k}"])
            singular = "is numerically singular" in capsys.readouterr().err
            assert check in (0, 2) and (check == 2) == singular, (N, k)
            assert check == moved.get((N, k), check), (N, k)
    capsys.readouterr()


def test_check_verdict_does_not_depend_on_the_scale_of_A(tmp_path, capsys):
    # A -> 2^k A scales C(t) by exactly 2^k on a nilpotent block generator
    # (a finite series); the drifted operator's scaled series rounds
    # differently, so there only the exit code is asserted
    for path in (HEAT, KOLMO, KINETIC, DRIFTED):
        data = json.loads(Path(path).read_text())
        C1 = load_spec(data).C(1.0)
        codes = set()
        for k in (-40, -20, 0, 20):
            scaled = dict(data, A=(np.asarray(data["A"]) * 2.0**k).tolist())
            if path != DRIFTED:
                assert (load_spec(scaled).C(1.0) == 2.0**k * C1).all(), (path, k)
            spec = tmp_path / "scaled.json"
            spec.write_text(json.dumps(scaled))
            codes.add(run(["check", "--spec", str(spec)]))
        assert codes == {0}, path
    capsys.readouterr()


def test_check_time_must_be_finite_and_positive(capsys):
    # nan passed the old t <= 0 test and overflowed in C(t) (exit 4)
    for t in ("nan", "inf", "0", "-1"):
        assert run(["check", "--spec", KOLMO, f"--time={t}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: time must be finite and positive")
        assert err.count("\n") == 1


def test_report_bytes_deterministic(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["verify", "mean-value", "--spec", KOLMO, "--poles", "4",
            "--samples", "20", "--out", str(out)]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first
    capsys.readouterr()


PARSER_LINES = [
    ["check", "--spec", KOLMO, "--seed", "3"],
    ["verify", "nope", "--spec", KOLMO],
    ["connect", "--spec", KINETIC, "--from", "-0.5,1,1", "--to", "0,0,0"],
    ["modulus", "--spec", KOLMO, "--function", "knorm", "--pairs", "1000",
     "--schauder-d", "0.25"],
    ["check", "--spec", KOLMO, "--bogus", "1"],
    ["taylor", "--spec", KOLMO, "--rho-min-exp", "600"],
    ["taylor", "--spec", DRIFTED, "--form", "euclidean", "--seed", "3"],
    [],
    ["verify", "schauder-var", "--varcoeff", "sin1", "--spec", KOLMO,
     "--pairs", "50", "--seed", "1"],
    ["modulus", "--spec", KOLMO, "--function", "knorm", "--schauder-d", "1"],
    ["verify", "invariance", "--spec", KOLMO, "--samples", "12"],
    ["check", "--spec", KOLMO],
    ["taylor", "--spec", DRIFTED],
]


def test_reused_parser_leaks_no_state(capsys):
    # one parser serves every run of a process; each line must read as it
    # does with a parser of its own, whatever ran before it
    def outputs(order, fresh):
        got = {}
        for k in order:
            if fresh:
                cli._build_parser.cache_clear()
            code = run(list(PARSER_LINES[k]))
            got[k] = (code, *capsys.readouterr())
        return got

    lines = range(len(PARSER_LINES))
    alone = outputs(lines, fresh=True)
    assert {v[0] for v in alone.values()} == {0, 3}
    assert outputs(lines, fresh=False) == alone
    assert outputs(reversed(lines), fresh=False) == alone


def test_report_embeds_config(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["check", "--spec", KOLMO, "--seed", "7", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["seed"] == 7
    assert rep["config"]["spec"] == KOLMO
    assert "verb" not in rep["config"]
    capsys.readouterr()
