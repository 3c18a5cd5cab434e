"""The per-content state that every OperatorSpec of one (A, B, blocks)
shares: validated exponents, the exp_table of C's block generator and the
Homogeneous record of C(1), made once per process and keyed by content,
never by the object or the path.  The table of E stays with each spec.
"""

import json

import numpy as np
import pytest
from conftest import SPEC_DIR

from kolmo import group, load_spec, make_spec
from kolmo.cli import run

KOLMO = SPEC_DIR / "kolmogorov.json"
DRIFTED = SPEC_DIR / "kinetic_drifted.json"
KINETIC_M2 = {"N": 4, "m": 2, "A": [[1.0, 0.0], [0.0, 1.0]],
              "B": [[0.0] * 4, [0.0] * 4, [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]],
              "blocks": [2, 2]}


def _report(argv, capsys):
    code = run([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_equal_content_shares_one_record():
    data = json.loads(KOLMO.read_text())
    specs = [load_spec(KOLMO), load_spec(data),
             make_spec(np.array(data["A"]), np.array(data["B"]), data["blocks"])]
    units = [spec.homogeneous() for spec in specs]
    assert units[0] is not None and all(unit is units[0] for unit in units)
    assert all(spec.exponents() is specs[0].exponents() for spec in specs)
    assert all(spec._shared["C"] is specs[0]._shared["C"] for spec in specs)
    for spec in specs:
        spec.E(0.5)  # the table of -B stays with each spec object
    assert specs[0]._exps["E"] is not specs[1]._exps["E"] is not specs[2]._exps["E"]
    assert group._content_state.cache_info().maxsize == 16


@pytest.mark.parametrize("path", [KOLMO, DRIFTED])
def test_every_spec_of_a_content_shares_the_C_table_and_the_record(path):
    # principal or not, one C table and one record (None off B = B_0) per
    # content, whichever spec asks first and by which route; the table of
    # -B stays with each spec, and the shared powers refuse writes
    data = json.loads(path.read_text())
    group._content_state.cache_clear()
    specs = [load_spec(path), load_spec(data),
             make_spec(np.array(data["A"]), np.array(data["B"]), data["blocks"])]
    specs[1].C(np.array([0.5, 2.0]))
    records = [spec.homogeneous() for spec in reversed(specs)]
    assert all(record is records[0] for record in records)
    assert (records[0] is None) == (path == DRIFTED)
    assert all(spec._shared["C"] is specs[1]._shared["C"] for spec in specs)
    for spec in specs:
        spec.E(0.5)
    tables = [spec._exps["E"] for spec in specs]
    assert len(set(map(id, tables))) == len(specs) and list(specs[0]._exps) == ["E"]
    assert all(np.array_equal(table.powers, tables[0].powers) for table in tables)
    for powers in (specs[0]._shared["C"].powers, tables[0].powers):
        with pytest.raises(ValueError):
            powers[0, 0, 0] = 7.0


@pytest.mark.parametrize("entry", [("A", (0, 0)), ("B", (1, 0))])
def test_a_one_ulp_change_gives_another_record(entry):
    name, index = entry
    data = json.loads(KOLMO.read_text())
    moved = np.array(data[name])
    moved[index] = np.nextafter(moved[index], 0.0)
    spec, other = load_spec(data), load_spec({**data, name: moved.tolist()})
    assert other.is_dilation_invariant()
    assert other.homogeneous() is not spec.homogeneous()
    assert not np.array_equal(other.homogeneous().C1, spec.homogeneous().C1)


def test_shared_arrays_and_the_spec_matrices_refuse_writes():
    A, B = np.eye(2), np.array(KINETIC_M2["B"])
    spec = make_spec(A, B, (2, 2))
    unit = spec.homogeneous()
    for array in (spec.A, spec.B, unit.C1, unit.E1, unit.inv, spec._shared["C"].powers):
        with pytest.raises(ValueError):
            array[0, 0] = 7.0
    # the spec owns its copies: the caller's arrays stay writable, and
    # writing them moves nothing of the spec
    A[0, 0], B[2, 0] = 3.0, -2.0
    assert spec.A[0, 0] == 1.0 and spec.B[2, 0] == -1.0
    assert make_spec(np.eye(2), np.array(KINETIC_M2["B"]), (2, 2)).homogeneous() is unit


@pytest.mark.parametrize("argv", [
    ["verify", "apriori", "--spec", "{m2}", "--poles", "2", "--samples", "6"],
    ["verify", "singular-g1", "--spec", KOLMO, "--R-list", "0.5,0.25"],
    ["kernel", "--spec", DRIFTED, "--point", "0.5,-0.5,1", "--pole", "0.1,0.2,-0.3"],
    ["check", "--spec", DRIFTED, "--time", "0.5"],
])
def test_a_cold_and_a_warm_report_are_the_same_bytes(argv, tmp_path, capsys):
    m2 = tmp_path / "kinetic_m2.json"
    m2.write_text(json.dumps(KINETIC_M2))
    argv = [str(m2) if a == "{m2}" else a for a in argv]
    group._content_state.cache_clear()
    cold = _report(argv, capsys)
    warm = _report(argv, capsys)
    assert cold[0] in (0, 2) and cold[1] and cold == warm


def test_a_spec_file_rewritten_in_place_reports_its_new_content(tmp_path, capsys):
    path = tmp_path / "spec.json"
    argv = ["kernel", "--spec", path, "--point", "0.3,-0.2,0.7"]
    data = json.loads(KOLMO.read_text())
    path.write_text(json.dumps(data))
    before = _report(argv, capsys)
    path.write_text(json.dumps({**data, "A": [[2.0]]}))
    after = _report(argv, capsys)
    group._content_state.cache_clear()
    fresh = _report(argv, capsys)
    assert before[0] == after[0] == 0 and after == fresh and after[1] != before[1]


def test_a_failing_record_raises_again_on_every_load(tmp_path, capsys):
    # the block generator's powers overflow: nothing is cached, so a second
    # load meets the same error at the same call
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"A": [[1.0]], "B": [[0.0, 0.0], [-1e200, 0.0]],
                                "blocks": [1, 1]}))
    want = (3, "", "error: a power of the matrix exponential's generator is not finite\n")
    assert _report(["check", "--spec", path], capsys) == want
    assert _report(["check", "--spec", path], capsys) == want
    assert "unit" not in load_spec(path)._shared
