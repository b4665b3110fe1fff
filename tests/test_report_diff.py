"""tools/report_diff.py: the per-key change lines of tools/artifact_identity.sh."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)

PARENT = {
    "spectrum": {"eigenvalues": [-20.0, 1e-8, 9.0, 400.0], "lambda0_sq": 20.0,
                 "negative_count": 1, "kernel_defect": [1e-8, 2e-8]},
    "sweep": None,
    "wronskian": {"root_count": 1, "root_location": 0.0},
}


def _change():
    doc = json.loads(json.dumps(PARENT))
    doc["spectrum"]["eigenvalues"][1] = 1.5e-8
    doc["spectrum"]["eigenvalues"][3] = 400.0 + 4e-12
    doc["spectrum"]["lambda0_sq"] = 20.5
    return doc


def test_equal_reports_print_nothing():
    assert report_diff.report_diff(PARENT, json.loads(json.dumps(PARENT))) == []


def test_each_differing_key_gets_its_largest_change():
    lines = report_diff.report_diff(PARENT, _change())
    assert [line.split(":")[0] for line in lines] == ["spectrum.eigenvalues", "spectrum.lambda0_sq"]
    eig = lines[0]
    assert "2 of 4 differ" in eig
    assert "max abs 5e-09" in eig and "max rel 0.5" in eig
    assert "max abs/max|parent| 1.2e-11" in eig
    assert lines[1] == "spectrum.lambda0_sq: max abs 0.5, max rel 0.025"


def test_added_removed_and_non_numeric_keys_print_as_changed():
    change = _change()
    change["sweep"] = {"phase_samples": 8}
    del change["wronskian"]["root_count"]
    lines = report_diff.report_diff(PARENT, change)
    assert 'sweep: changed, null -> "<missing>"' in lines
    assert 'sweep.phase_samples: changed, "<missing>" -> 8' in lines
    assert 'wronskian.root_count: changed, 1 -> "<missing>"' in lines


def test_command_line_prints_the_lines_and_exits_zero(tmp_path):
    paths = []
    for name, doc in (("parent", PARENT), ("change", _change())):
        paths.append(tmp_path / f"{name}.report.json")
        paths[-1].write_text(json.dumps(doc))
    run = subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                         capture_output=True, text=True, check=False)
    assert run.returncode == 0
    assert run.stdout.splitlines() == report_diff.report_diff(PARENT, _change())
