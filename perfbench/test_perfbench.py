"""Tests of the benchmark itself: the tracer, the seeded inputs and the oracle.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

from hopfblocks import blocks, catalog  # noqa: E402


def test_traced_blocks_records_every_layer_it_reaches(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "layers.py"), str(spans_path), "--",
         "blocks", "double:S3", "--genus", "2", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim"] == 116
    traced = json.loads(spans_path.read_text())
    names = {s[2] for s in traced["spans"]}
    reached = {
        "cli.main",
        "catalog.resolve",
        "hopf.HopfData.validate",
        "repcat.Module.act",
        "linalg.simultaneous_kernel",
        "blocks.block_space",
    }
    assert reached <= names, reached - names
    assert names <= set(layers.SPAN_NAMES)
    assert traced["import_s"] > 0
    kernels = [s[5] for s in traced["spans"] if s[2] == "linalg.simultaneous_kernel"]
    assert {"unknowns": 36 ** 2, "kernel_dim": 116} in [
        {"unknowns": k["unknowns"], "kernel_dim": k["kernel_dim"]} for k in kernels
    ]
    m = layers.summarize([traced])
    assert m["blocks.block_space.dim_sum"] == 116
    assert m["cli.main.calls"] == 1
    # self time never exceeds the span's own duration
    for name in layers.SPAN_NAMES:
        assert 0 <= m[f"{name}.self_s"] <= m[f"{name}.total_s"] + 1e-9


def test_seed_zero_relabel_is_catalog_order():
    doc = inputs.seeded_doc("ds3_q", 0)
    assert doc == catalog.to_json(catalog.get("double:S3"))


def test_relabel_moves_every_index_field():
    doc = catalog.to_json(catalog.get("double:Z2"))
    perm = inputs.permutation(doc["dim"], 5, "test")
    assert sorted(perm) == list(range(doc["dim"])) and perm != sorted(perm)
    moved = inputs.relabel(doc, perm)
    back = inputs.relabel(moved, [perm.index(i) for i in range(len(perm))])
    assert back == doc  # the inverse permutation restores the file
    assert moved["basis"] != doc["basis"]
    h = catalog.from_json(moved)  # validates
    assert h.dim == doc["dim"]


def _dims_and_certificates(path):
    h = catalog.load(path)
    out = []
    for genus in (1, 2):
        direct = blocks.block_space(h, genus, blocks.DIRECT)
        center = blocks.block_space(h, genus, blocks.RELATIVE_CENTER)
        op = blocks.nonseparating_twist_op(direct, 1)
        cert = op.certificate
        out.append((direct.dim, center.dim, str(cert.gl_order), str(cert.pgl_order)))
    return out


def test_seed_one_matches_seed_zero(tmp_path):
    zero = inputs.write_inputs(["dz3_zeta12"], 0, tmp_path / "s0")
    one = inputs.write_inputs(["dz3_zeta12"], 1, tmp_path / "s1")
    assert Path(zero["dz3_zeta12"]).read_text() != Path(one["dz3_zeta12"]).read_text()
    expected = [(9, 9, "Finite(3)", "Finite(3)"), (81, 81, "Finite(3)", "Finite(3)")]
    assert _dims_and_certificates(zero["dz3_zeta12"]) == expected
    assert _dims_and_certificates(one["dz3_zeta12"]) == expected


def test_oracle_flags_wrong_outputs():
    op = Op(["blocks", "double:Z2", "--genus", "1"], fields={"dim": 4})
    assert op.check(0, json.dumps({"dim": 4}), "") == ([], {"dim": 4})
    assert op.check(0, json.dumps({"dim": 5}), "")[0]
    assert op.check(1, json.dumps({"dim": 4}), "")[0]
    assert op.check(0, json.dumps({"dim": 4}), "Traceback (most recent call last):\n")[0]
    assert op.check(0, "dim 4", "")[0]
    theorems = WORKLOADS["ds3-q-theorems"]["ops"][0]
    assert theorems.check(0, json.dumps({"checks": []}), "")[0]


def test_every_workload_names_its_files():
    for name, w in WORKLOADS.items():
        used = {a[1:] for op in w["ops"] for a in op.argv if a.startswith("@")}
        assert used == set(w["files"]), name
        assert set(w["files"]) <= set(inputs.ALGEBRAS)


def test_benchmark_json_lists_what_a_run_reports():
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    layer_metrics = run.per_layer([], 0.0)
    assert {(m["name"], m["unit"]) for m in doc["per_layer"]} == {
        (name, m["unit"]) for name, m in layer_metrics.items()
    }
    e2e = run.end_to_end([[run.OpResult(WORKLOADS["catalog-sweep"]["ops"][0], 1.0, 30.0, [], {}, None)]], [1.0])
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == {(name, m["unit"]) for name, m in e2e.items()}
