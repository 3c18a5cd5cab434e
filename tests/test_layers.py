"""tools/layers.py in its smoke mode (one repeat, small sizes): it runs,
and its BENCH_<label>.json holds the keys that later runs compare."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_timings_smoke_run_writes_every_key(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "layers.py"), "--label", "smoke",
                           "--smoke", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert set(bench) == {"label", "machine", "versions", "src_lines", "src_lines_by_module",
                          "repeats", "smoke", "rows", "tier1_s"}
    assert set(bench["machine"]) >= {"platform", "machine", "cpus", "openblas_core", "simd"}
    assert set(bench["versions"]) == {"python", "numpy", "scipy"}
    assert bench["src_lines"] == sum(len(p.read_text().splitlines())
                                     for p in (ROOT / "src" / "kolmo").glob("*.py"))
    modules = sorted(p.name for p in (ROOT / "src" / "kolmo").glob("*.py"))
    assert sorted(bench["src_lines_by_module"]) == modules and "group.py" in modules
    assert sum(bench["src_lines_by_module"].values()) == bench["src_lines"]
    assert bench["repeats"] == 1 and bench["smoke"] and bench["tier1_s"] is None
    rows = bench["rows"]
    for spec in ("kolmogorov", "kinetic_m2", "kinetic_drifted"):
        for layer, name in (("L0", "OperatorSpec.C"), ("L0", "_checked_C"),
                            ("L1", "compose_rows"), ("L2", "kernel_jet_rows jets"),
                            ("L3", "connect"), ("L4", "empirical_modulus"),
                            ("L5", "verify_apriori"), ("cli", "run verify apriori"),
                            ("cli", "load_spec"), ("cli", "load_spec cold"),
                            ("cli", "parse_args")):
            assert f"{layer} {name} [{spec}]" in rows
    assert {key.split()[0] for key in rows} == {"L0", "L1", "L2", "L3", "L4", "L5", "cli"}
    for row in rows.values():
        assert set(row) == {"size", "calls", "median_us", "min_us", "max_us"}
        assert 0.0 < row["min_us"] <= row["median_us"] <= row["max_us"]
