import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfblocks
from hopfblocks import catalog, cli, harness
from hopfblocks.harness import Check, TheoremReport
from hopfblocks.hopf import HopfData


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = run(["catalog-list"], capsys)
    assert code == 0
    assert "double:S3" in out


def test_check_pass(capsys):
    code, out, _ = run(["check", "double:Z2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_invariants_json(capsys):
    code, out, _ = run(["--format", "json", "invariants", "double:Z3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 9
    assert doc["ribbon_order"]["gl_order"]["n"] == 3
    assert doc["factorizable"] is True


def test_blocks_table(capsys):
    code, out, _ = run(["blocks", "double:S3", "--genus", "1"], capsys)
    assert code == 0
    assert "dim 8" in out


def test_dehn_json_pgl_order(capsys):
    code, out, _ = run(
        ["dehn", "double:S3", "--genus", "1", "--curve", "nonsep:1", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["pgl_order"]["n"] == 6


def test_dehn_separating(capsys):
    code, out, _ = run(["dehn", "double:Z2", "--curve", "sep:1,1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["pgl_order"]["n"] == 1


def test_theorems_exit_zero(capsys):
    code, out, _ = run(["theorems", "double:Z2", "--max-genus", "2", "--window", "4"], capsys)
    assert code == 0
    assert "PASS" in out


def test_theorems_json_round_trip(capsys):
    argv = ["theorems", "double:Z2", "--max-genus", "1", "--window", "2", "--format", "json"]
    code, out1, _ = run(argv, capsys)
    assert code == 0
    doc = json.loads(out1)
    assert doc["report_version"] == 1
    code, out2, _ = run(argv, capsys)

    def strip_times(d):
        for c in d["checks"]:
            c.pop("runtime_s", None)
        return d

    # deterministic up to wall-clock timings
    assert strip_times(json.loads(out1)) == strip_times(json.loads(out2))
    # re-parsing and re-dumping is stable
    assert json.loads(json.dumps(doc)) == doc


def test_exit_usage_unknown_algebra(capsys):
    code, _, err = run(["invariants", "double:Q8"], capsys)
    assert code == 2
    assert "UNKNOWN_ALGEBRA" in err


def test_exit_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(["check", str(path)], capsys)
    assert code == 2
    assert "PARSE_ERROR" in err


def test_exit_dimension_mismatch(tmp_path, capsys):
    from hopfblocks.catalog import to_json

    doc = to_json(catalog.get("group:Z2"))
    doc["unit"] = ["1"]  # one coordinate for a 2-dimensional algebra
    path = tmp_path / "short_unit.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["check", str(path)], capsys)
    assert code == 2
    assert "DIMENSION_MISMATCH" in err


def test_exit_io_error_missing_file(tmp_path, capsys):
    code, _, err = run(["check", str(tmp_path / "no" / "such" / "file.json")], capsys)
    assert code == 2
    assert "IO_ERROR" in err


def test_exit_validation_failure(tmp_path, capsys):
    from hopfblocks.catalog import to_json

    doc = to_json(catalog.get("group:Z3"))
    doc["antipode"] = [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"]]  # identity is not the antipode here
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["invariants", str(path)], capsys)
    assert code == 3
    assert "VALIDATION_FAILED" in err


def test_check_validation_failure_exit(tmp_path, capsys):
    from hopfblocks.catalog import to_json

    doc = to_json(catalog.get("group:Z3"))
    doc["antipode"] = [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["check", str(path), "--format", "json"], capsys)
    assert code == 3
    assert json.loads(out)["passed"] is False


def test_algebra_file_validated_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "z3.json"
    catalog.save(catalog.get("double:Z3"), path)
    calls = []
    original = HopfData.validate

    def counting(self, full=None):
        calls.append(full)
        return original(self, full)

    monkeypatch.setattr(HopfData, "validate", counting)
    for argv, full in ((["invariants", str(path)], None), (["check", str(path), "--full-axioms"], True)):
        calls.clear()
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert calls == [full]


def test_cli_import_leaves_out_numpy():
    src = str(Path(hopfblocks.__file__).resolve().parent.parent)
    probe = "import sys, hopfblocks.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_exit_discrepancy(monkeypatch, capsys):
    failing = TheoremReport("X", [Check("c", "s", status="fail")])
    monkeypatch.setattr(harness, "run_all", lambda *a, **k: failing)
    code, _, _ = run(["theorems", "double:Z2"], capsys)
    assert code == 1


def test_ribbon_required_exit(capsys):
    code, _, err = run(["dehn", "double:sweedler", "--curve", "nonsep:1"], capsys)
    assert code == 2
    assert "RIBBON_REQUIRED" in err


def test_field_check_flag(capsys):
    code, _, _ = run(["--field-check", "catalog-list"], capsys)
    assert code == 0


def test_bad_curve(capsys):
    code, _, err = run(["dehn", "double:Z2", "--curve", "spiral:1"], capsys)
    assert code == 2
    assert "BAD_CURVE" in err


@pytest.mark.parametrize("spec", ["sep:x", "sep:1", "sep:1,2,3", "nonsep:x", "nonsep:1,2"])
def test_bad_curve_numbers(spec, capsys):
    code, _, err = run(["dehn", "double:Z2", "--curve", spec], capsys)
    assert code == 2
    assert "BAD_CURVE" in err


def test_hom_space_too_large_exit(capsys):
    code, _, err = run(["dehn", "double:S3", "--curve", "sep:1,2"], capsys)
    assert code == 2
    assert "HOM_SPACE_TOO_LARGE" in err
