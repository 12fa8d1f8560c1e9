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
    # a --genus equal to g' + g'' is accepted and changes nothing
    code, again, _ = run(["dehn", "double:Z2", "--curve", "sep:1,1", "--genus", "2", "--format", "json"], capsys)
    assert code == 0 and again == out


# the dehn report of each curve kind: top-level keys in table order, and the
# keys of each certificate in it
_CERTIFICATE_LINES = ["  gl_order", "    kind", "    n", "  pgl_order", "    kind", "    n",
                      "  minpoly_squarefree", "  evidence", "    minpoly", "    conjugation_minpoly"]
DEHN_CONTRACT = {
    "nonsep:1": ["report_version", "algebra", "kind", "genus", "model", "block_dim", "certificate"],
    "sep:1,1": ["report_version", "algebra", "genus", "kind", "block_dim", "certificate",
                "twist_order_left_part", "twist_order_right_part"],
    "bpair": ["report_version", "algebra", "kind", "block_dim", "acts_trivially", "certificate"],
}
_CERTIFICATES = {"certificate", "twist_order_left_part", "twist_order_right_part"}


@pytest.mark.parametrize("curve", sorted(DEHN_CONTRACT))
def test_dehn_output_contract(curve, capsys):
    keys = DEHN_CONTRACT[curve]
    code, out, _ = run(["dehn", "double:Z2", "--curve", curve, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == set(keys)
    for key in _CERTIFICATES & set(keys):
        assert set(doc[key]) == {"gl_order", "pgl_order", "minpoly_squarefree", "evidence"}
        assert set(doc[key]["evidence"]) == {"minpoly", "conjugation_minpoly"}
    code, out, _ = run(["dehn", "double:Z2", "--curve", curve, "--format", "table"], capsys)
    assert code == 0
    expected = [line for key in keys for line in [key] + (_CERTIFICATE_LINES if key in _CERTIFICATES else [])]
    assert [line.split(":")[0] for line in out.splitlines() if line] == expected


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
    path = tmp_path / "no" / "such" / "file.json"
    code, _, err = run(["check", str(path)], capsys)
    assert code == 2
    assert "IO_ERROR" in err
    for sub in SUBCOMMANDS:  # every subcommand keeps the missing-file message
        code, _, err = run([sub[0], str(path), *sub[1:]], capsys)
        assert code == 2
        assert f"error[IO_ERROR]: [Errno 2] No such file or directory: '{path}'" in err, sub


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

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(HopfData, "validate", counting)
    for argv in (["invariants", str(path)], ["check", str(path)]):
        calls.clear()
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert len(calls) == 1


def test_cli_import_leaves_out_numpy():
    src = str(Path(hopfblocks.__file__).resolve().parent.parent)
    probe = "import sys, hopfblocks.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_code_introspection():
    # dataclasses pulls in inspect, ast, dis and tokenize; comparing sys.modules
    # before and after the import ignores whatever site preloads
    src = str(Path(hopfblocks.__file__).resolve().parent.parent)
    probe = ("import sys; before = set(sys.modules); import hopfblocks.cli; "
             "print(*set(sys.modules) - before)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    added = set(out.stdout.split())
    assert "hopfblocks.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_result_classes_keep_value_semantics():
    from hopfblocks.hopf import StructureReport
    from hopfblocks.linalg import OrderCertificate, finite, infinite, unknown

    assert finite(6) == finite(6) and hash(finite(6)) == hash(finite(6))
    assert finite(6) != finite(3) and finite(6) != unknown(6) and infinite("NotSemisimple") != finite(6)
    assert len({finite(6), finite(6), unknown(6)}) == 2
    cert = OrderCertificate(finite(6), finite(3), True)
    assert cert == OrderCertificate(finite(6), finite(3), True, {})
    for obj, attr in ((finite(6), "n"), (finite(6), "kind"), (cert, "gl_order"), (cert, "evidence")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    other = OrderCertificate(finite(6), finite(3), True)
    other.evidence["minpoly"] = "x - 1"
    assert cert.evidence == {}
    for cls in (TheoremReport, StructureReport):
        a, b = cls("x"), cls("x")
        assert a.checks == [] and a.checks is not b.checks
    assert "mode" not in StructureReport("x").to_json()  # one validation path


def test_closed_stdout_exits_usage_without_traceback(tmp_path):
    src = str(Path(hopfblocks.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "hopfblocks.cli", "theorems", "double:Z2", "--max-genus", "1",
                              "--format", "json"], env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert out.returncode == 2
    assert "error[IO_ERROR]" in out.stderr
    assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr
    # both streams on the closed pipe: a report, an error message and a
    # validation failure keep their exit codes
    bad = _corrupt_file(tmp_path, "antipode", [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"]], name="group:Z3")
    for argv, code in ((["catalog-list"], 2), (["blocks", "double:Z2", "--genus", "9"], 2),
                       (["invariants", bad], 3)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run([sys.executable, "-m", "hopfblocks.cli", *argv], env=env,
                                 stdout=write_end, stderr=write_end)
        finally:
            os.close(write_end)
        assert out.returncode == code, argv


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
    # the runtime field self-test is gone (tests/test_fields.py checks the
    # field axioms); the flag is now an unknown option, a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["--field-check", "catalog-list"])
    assert exc.value.code == 2
    assert "--field-check" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--cap", "5", "catalog-list"], ["catalog-list", "--cap", "5"]],
                         ids=["before", "after"])
def test_cap_flag_is_gone(argv, capsys):
    # F_p order searches stop at one fixed bound, so there is no cap to set;
    # the flag is now an unknown option, a usage error (before the
    # subcommand, argparse reads its value as the subcommand)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "hopfblocks: error:" in capsys.readouterr().err


def test_full_axioms_flag_is_gone(capsys):
    # every algebra is validated one way, so there is no mode to force; the
    # flag is now an unknown option, a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "group:S3", "--full-axioms"])
    assert exc.value.code == 2
    assert "--full-axioms" in capsys.readouterr().err


def test_global_options_are_format_and_genus_cap():
    parser = cli.build_parser()
    options = {opt for action in parser._actions for opt in action.option_strings}
    assert options == {"-h", "--help", "--format", "--genus-cap"}


def test_bad_curve(capsys):
    code, _, err = run(["dehn", "double:Z2", "--curve", "spiral:1"], capsys)
    assert code == 2
    assert "BAD_CURVE" in err


@pytest.mark.parametrize("spec", ["sep:x", "sep:1", "sep:1,2,3", "nonsep:x", "nonsep:1,2"])
def test_bad_curve_numbers(spec, capsys):
    code, _, err = run(["dehn", "double:Z2", "--curve", spec], capsys)
    assert code == 2
    assert "BAD_CURVE" in err


def test_separating_needs_factorizable_exit(tmp_path, capsys):
    # k[Z2] with R = 1 x 1 and v = 1 is ribbon but not factorizable: its
    # Drinfeld map has rank 1, so A* and A are not identified
    h = catalog.group_algebra(catalog.cyclic_group(2))
    h.r_matrix = h.t2_unit()
    h.ribbon = dict(h.unit)
    path = tmp_path / "z2_triangular.json"
    catalog.save(h, path)
    code, _, err = run(["dehn", str(path), "--curve", "sep:1,1"], capsys)
    assert code == 2
    assert "error[BLOCKS]" in err
    assert "Traceback" not in err


def test_ribbon_without_r_matrix_reports_its_order(tmp_path, capsys):
    # v = 1 passes every ribbon axiom that needs no R-matrix; the Johnson
    # prediction needs the double braiding, so it is left out, like the
    # factorizability and Mueger-centrality entries
    path = _corrupt_file(tmp_path, "ribbon", ["1"] + ["0"] * 5, name="group:S3")
    code, out, err = run(["invariants", path, "--format", "json"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["ribbon_order"]["gl_order"] == {"kind": "finite", "n": 1}
    assert not {"johnson_annihilated_predicted", "factorizable", "end_muger_central"} & doc.keys()


def test_hom_space_too_large_exit(capsys):
    # genus 3 of D(S3): 36^3 > 6000, above the default genus cap of 2
    code, _, err = run(["dehn", "double:S3", "--curve", "sep:1,2"], capsys)
    assert code == 2
    assert "error[BLOCKS]" in err and "exceeds cap 2" in err


def test_genus_cap_admits_a_separating_twist(tmp_path, capsys):
    # the separating twist of an algebra file, above the default cap of 2
    path = tmp_path / "ds3.json"
    catalog.save(catalog.double_of_group(catalog.symmetric_group_3()), path)
    code, out, err = run(["--genus-cap", "3", "dehn", str(path), "--curve", "sep:1,2", "--format", "json"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["block_dim"] == 2948
    assert doc["certificate"]["gl_order"]["n"] == doc["certificate"]["pgl_order"]["n"] == 3


def test_genus_cap_skips_the_separating_rows(capsys):
    code, out, err = run(["--genus-cap", "1", "theorems", "double:Z2", "--format", "json"], capsys)
    assert code == 0, err
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert status["separating-twist-order(1,1)"] == status["johnson-kernel-criterion"] == "skipped"
    assert "separating-twist-order(1,2)" not in status


def test_taft_double_default_rows_and_invariants(capsys):
    # D(T_3) over Q(zeta_3), dim 81: the default genus cap is 1, so every
    # genus-2 row skips; the end's predicates are read at probe entries
    code, out, err = run(["theorems", "double:T3", "--format", "json"], capsys)
    assert code == 0, err
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    passing = ["ribbon-element-order", "nonseparating-twist-order(g=1)", "excision-consistency(g=1)",
               "torelli-criterion"]
    assert {name for name, st in status.items() if st == "pass"} == set(passing)
    skipped = {c["name"]: c["detail"] for c in json.loads(out)["checks"] if c["status"] == "skipped"}
    assert len(skipped) == 5 and len(status) == 9
    assert all("exceeds cap 1 for dim 81" in detail for detail in skipped.values())
    block = {c["name"]: c["lhs"] for c in json.loads(out)["checks"]}["nonseparating-twist-order(g=1)"]
    assert "(block dim 12)" in block
    code, out, err = run(["--format", "json", "invariants", "double:T3"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["end_muger_central"], doc["johnson_annihilated_predicted"]) == (False, False)
    assert doc["ribbon_order"]["gl_order"] == {"kind": "infinite", "reason": "NotSemisimple"}


def _corrupt_file(tmp_path, key, value, name="group:Z2"):
    """A copy of a catalog algebra's file with doc[key] = value, or with the
    whole document replaced by value when key is None."""
    from hopfblocks.catalog import to_json

    doc = value
    if key is not None:
        doc = to_json(catalog.get(name))
        doc[key] = value
    path = tmp_path / f"bad_{key}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv, corrupt, code_name",
    [
        (["check"], ("field", {"kind": "R"}), "PARSE_ERROR"),
        (["invariants"], ("field", {"kind": "R"}), "PARSE_ERROR"),
        (["check"], ("generators", [0, 7]), "DIMENSION_MISMATCH"),
        (["invariants"], ("generators", [-1]), "DIMENSION_MISMATCH"),
        (["theorems", "double:Z2", "--max-genus", "0"], None, "BAD_ARGUMENT"),
        (["theorems", "double:Z2", "--window", "-1"], None, "BAD_ARGUMENT"),
        (["check"], ("field", None), "PARSE_ERROR"),
        (["invariants"], ("field", "Q"), "PARSE_ERROR"),
        (["check"], ("flags", [1]), "PARSE_ERROR"),
        # (-1, -1) would wrap to (1, 1), the entry it replaces
        (["check"], ("mult", [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [-1, -1, 0, "1"]]),
         "DIMENSION_MISMATCH"),
        (["invariants"], ("antipode", [[0, 0, "1"], [-1, -1, "1"]]), "DIMENSION_MISMATCH"),
        (["check"], ("comult", [[0, 0, 0, "1"], [1, 1, 2, "1"]]), "DIMENSION_MISMATCH"),
        (["check"], ("r_matrix", [[0, 2, "1"]]), "DIMENSION_MISMATCH"),
        (["check"], ("generators", [1.5]), "PARSE_ERROR"),
        (["invariants"], ("generators", [True]), "PARSE_ERROR"),
        (["check"], ("dim", 4.7), "PARSE_ERROR"),
        (["invariants"], ("dim", "4"), "PARSE_ERROR"),
        (["check"], ("generators", []), "PARSE_ERROR"),
        (["check"], ("field", {"kind": "Fp", "p": 7.9}), "PARSE_ERROR"),
        (["invariants"], ("field", {"kind": "Fp", "p": "7"}), "PARSE_ERROR"),
        (["check"], ("field", {"kind": "cyclotomic", "n": 12.5}), "PARSE_ERROR"),
        (["invariants"], ("field", {"kind": "cyclotomic", "n": "12"}), "PARSE_ERROR"),
    ],
    ids=["check-field-kind", "invariants-field-kind", "check-generator-index",
         "invariants-generator-index", "theorems-max-genus-0", "theorems-window-negative",
         "check-field-null", "invariants-field-string", "check-flags-list",
         "check-mult-negative-index", "invariants-antipode-negative-index",
         "check-comult-index-too-large", "check-r-matrix-index-too-large",
         "check-generator-float", "invariants-generator-bool", "check-dim-float", "invariants-dim-string",
         "check-generators-empty", "check-field-p-float", "invariants-field-p-string",
         "check-field-n-float", "invariants-field-n-string"],
)
def test_bad_input_exits_usage_with_stable_code(argv, corrupt, code_name, tmp_path, capsys):
    if corrupt is not None:
        argv = argv + [_corrupt_file(tmp_path, *corrupt)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert f"error[{code_name}]" in err
    assert "Traceback" not in err


def test_generators_that_do_not_span_fail_validation(tmp_path, capsys):
    # k[S3] is checked and its constraint systems are built on the declared
    # generators: (12) alone spans only k[Z2], whose genus-1 block has dim 4,
    # not the 3 classes of S3
    path = _corrupt_file(tmp_path, "generators", [1], name="group:S3")
    code, out, _ = run(["check", path, "--format", "json"], capsys)
    assert code == 3
    checks = json.loads(out)["checks"]
    assert checks[0] == {"name": "generators-span", "passed": False, "witness": "closure dim 2 != 6"}
    code, _, err = run(["blocks", path, "--genus", "1"], capsys)
    assert code == 3 and "VALIDATION_FAILED" in err


def test_full_mode_reports_declared_generators_span(capsys):
    code, out, _ = run(["check", "group:S3", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert "mode" not in report  # every algebra is checked one way
    assert report["checks"][0] == {"name": "generators-span", "passed": True}


# wrong JSON types, out-of-range or non-integer indices, and lengths that
# disagree with dim, each in one field of the double:Z2 file
CORRUPTIONS = [
    (None, [1, 2]), (None, "x"),
    ("field", None), ("field", [1]), ("field", {"kind": "Fp", "p": 4}), ("field", {"kind": "cyclotomic", "n": 0}),
    ("flags", [1]), ("flags", {"simple_modules": [{"name": "m", "dim": 1, "action": [1]}]}),
    ("dim", -1), ("dim", 0), ("dim", 5), ("dim", "x"),
    ("mult", [[0, 0, 9, "1"]]), ("mult", [[0, 0, "1"]]), ("mult", [[0.5, 0, 0, "1"]]), ("mult", [[True, 0, 0, "1"]]),
    ("mult", [[0, 0, 0, "1/0"]]), ("mult", 7),
    ("comult", [[0, -1, 0, "1"]]), ("antipode", [[0, 4, "1"]]), ("r_matrix", [[0, -2, "1"]]), ("r_matrix", "x"),
    ("ribbon", ["1"]), ("ribbon", ["1"] * 9), ("ribbon", 3),
    ("unit", None), ("counit", ["x"] * 4), ("basis", 4), ("generators", [-1]), ("generators", 3),
    ("generators", [1.5]), ("generators", [True]), ("generators", []), ("dim", 4.7), ("dim", "4"),
    ("name", None), ("name", 3),
]
SUBCOMMANDS = [["check"], ["invariants"], ["blocks", "--genus", "1"], ["dehn", "--curve", "nonsep:1"],
               ["theorems", "--max-genus", "1", "--window", "1"]]


def _assert_contract(argv, code, err):
    assert code in (0, 1, 2, 3), argv
    assert code != 1 or argv[0] == "theorems", argv
    assert "Traceback" not in err, argv


@pytest.mark.parametrize("key, value", CORRUPTIONS, ids=[f"{k}={json.dumps(v)}" for k, v in CORRUPTIONS])
def test_corrupted_files_exit_usage_on_every_subcommand(key, value, tmp_path, capsys):
    path = _corrupt_file(tmp_path, key, value, name="double:Z2")
    for sub in SUBCOMMANDS:
        argv = [sub[0], path, *sub[1:]]
        code, _, err = run(argv, capsys)
        _assert_contract(argv, code, err)
        assert code == 2, (argv, err)


def test_directory_path_is_io_error_on_every_subcommand(tmp_path, capsys):
    folder = tmp_path / "algebra.json"
    folder.mkdir()
    for sub in SUBCOMMANDS:
        argv = [sub[0], str(folder), *sub[1:]]
        code, _, err = run(argv, capsys)
        _assert_contract(argv, code, err)
        assert code == 2, (argv, err)
        assert "error[IO_ERROR]" in err and str(folder) in err, argv


def test_file_that_is_not_utf8_is_parse_error_on_every_subcommand(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(catalog.to_json(catalog.get("group:Z2"))).encode("utf-16-le"))
    for sub in SUBCOMMANDS:
        argv = [sub[0], str(path), *sub[1:]]
        code, _, err = run(argv, capsys)
        _assert_contract(argv, code, err)
        assert code == 2, (argv, err)
        assert "error[PARSE_ERROR]" in err, argv


def test_unreadable_file_is_io_error_on_every_subcommand(tmp_path, monkeypatch, capsys):
    path = tmp_path / "locked.json"
    catalog.save(catalog.get("group:Z2"), path)

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    for sub in SUBCOMMANDS:
        argv = [sub[0], str(path), *sub[1:]]
        code, _, err = run(argv, capsys)
        _assert_contract(argv, code, err)
        assert code == 2, (argv, err)
        assert "error[IO_ERROR]" in err and "Permission denied" in err, argv


@pytest.fixture(scope="module")
def ds3_f7_file(tmp_path_factory):
    from hopfblocks.fields import PrimeField

    path = tmp_path_factory.mktemp("f7") / "ds3_f7.json"
    catalog.save(catalog.double_of_group(catalog.symmetric_group_3(), PrimeField(7)), path)
    return str(path)


@pytest.fixture(scope="module")
def k1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("k1") / "k1.json"
    catalog.save(catalog.group_algebra(catalog.cyclic_group(1)), path)
    return str(path)


OVER_GENUS_CAP = [
    ["dehn", "double:S3", "--curve", "sep:2,2"],
    ["--genus-cap", "1", "dehn", "double:Z2", "--curve", "sep:1,1"],
    ["blocks", "@k1", "--genus", "13"],
    ["--genus-cap", "1", "dehn", "double:Z2", "--curve", "bpair"],
]

# a --genus that the curve fixes otherwise: g' + g'' for sep, none for bpair
GENUS_MISMATCH = [
    ["dehn", "double:Z2", "--curve", "sep:1,1", "--genus", "5"],
    ["dehn", "double:Z2", "--curve", "sep:1,1", "--genus", "1"],
    ["dehn", "double:Z2", "--curve", "bpair", "--genus", "2"],
]

# a genus whose tensor power is too deep to build even under an explicit cap
TOO_DEEP = [["--genus-cap", "300", "blocks", "@k1", "--genus", "300"]]

# a genus under an explicit cap whose dim^genus ambient coordinates cannot be indexed
UNINDEXABLE = [
    ["--genus-cap", "100", "blocks", "group:Z2", "--genus", "70"],
    ["--genus-cap", "100", "blocks", "group:Z2", "--genus", "70", "--model", "center"],
    ["--genus-cap", "100", "dehn", "double:Z2", "--curve", "sep:35,35"],
]

# "@k1" is the path of the dim-1 algebra k[Z1], whose default genus cap is 12
BAD_FLAGS = [
    ["blocks", "double:Z2", "--genus", "-1"], ["blocks", "double:Z2", "--genus", "9"],
    ["blocks", "double:Z2", "--genus", "1", "--genus-cap", "-3"],
    ["theorems", "double:Z2", "--max-genus", "1", "--genus-cap", "-1"],
    ["dehn", "double:Z2", "--curve", "nonsep:1", "--genus-cap", "-1"],
    ["blocks", "double:Z2", "--genus", "1", "--model", "center", "--genus-cap", "0"],
    ["dehn", "double:Z2", "--curve", "nonsep:0"], ["dehn", "double:Z2", "--curve", "nonsep:-1"],
    ["dehn", "double:Z2", "--genus", "-2", "--curve", "nonsep:1"], ["dehn", "double:Z2", "--curve", "sep:-1,2"],
    ["dehn", "double:Z2", "--curve", "sep:0,0"], ["dehn", "group:Z2", "--curve", "bpair"],
    ["theorems", "double:Z2", "--max-genus", "1", "--genus-cap", "0"],
    *OVER_GENUS_CAP, *TOO_DEEP, *UNINDEXABLE, *GENUS_MISMATCH,
]


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=[" ".join(a) for a in BAD_FLAGS])
def test_bad_flags_never_exit_discrepancy(argv, k1_file, capsys):
    cmd = [k1_file if a == "@k1" else a for a in argv]
    code, _, err = run(cmd, capsys)
    _assert_contract(cmd, code, err)
    if argv in OVER_GENUS_CAP:
        assert code == 2 and "error[BLOCKS]" in err, cmd
    if argv in TOO_DEEP:
        assert code == 2 and "error[BLOCKS]: genus 300" in err, cmd
    if argv in UNINDEXABLE:
        assert code == 2 and "cannot be indexed" in err and "error[BLOCKS]" in err, cmd
    if argv in GENUS_MISMATCH:
        assert code == 2 and "error[BAD_ARGUMENT]" in err, cmd


def test_negative_genus_cap_is_bad_argument_on_every_subcommand(ds3_f7_file, capsys):
    for sub in SUBCOMMANDS + [["catalog-list"]]:
        argv = [sub[0], *([ds3_f7_file] if sub[0] != "catalog-list" else []), *sub[1:], "--genus-cap", "-1"]
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert "error[BAD_ARGUMENT]" in err, argv
    # genus 0 needs no cap above 0
    code, out, _ = run(["blocks", "double:Z2", "--genus", "0", "--genus-cap", "0"], capsys)
    assert code == 0 and "dim 1" in out
