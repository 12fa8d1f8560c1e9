"""The benchmark's own oracle, run in process on the committed workloads.

Writes the seed-1 algebra files with ``perfbench/inputs.py``, runs every op
of every workload in ``perfbench/workloads.WORKLOADS`` through ``cli.main``
and checks each with its ``Op.check``, so a break of the output
contract fails here as well as in a benchmark run.  ``perfbench/`` is only
imported.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from hopfblocks import cli  # noqa: E402

NAMES = sorted(WORKLOADS)
OPS = [(name, i) for name in NAMES for i in range(len(WORKLOADS[name]["ops"]))]


@pytest.fixture(scope="module")
def seeded_files(tmp_path_factory):
    names = sorted({f for name in NAMES for f in WORKLOADS[name]["files"]})
    return inputs.write_inputs(names, 1, tmp_path_factory.mktemp("seed1"))


@pytest.mark.parametrize("workload, index", OPS, ids=[f"{w}-{i}" for w, i in OPS])
def test_workload_op_passes_its_oracle(workload, index, seeded_files, capsys):
    op = WORKLOADS[workload]["ops"][index]
    code = cli.main(op.command(seeded_files))
    out = capsys.readouterr()
    problems, _ = op.check(code, out.out, out.err)
    assert problems == [], (op.argv, problems)
