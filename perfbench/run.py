"""Benchmark for the ``hopfblocks`` command line.

One closed-loop client runs a workload's op list, one op at a time, each op
a fresh ``python3 -m hopfblocks.cli`` child, and checks every op's output
against the pinned expectations in ``workloads.py``.  Run from the root of
a checkout:

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 25 --trace 0

Set-up (writing and validating the seeded algebra files) runs three times
in fresh processes and reports the median.  Passes over the op list repeat
until ``--seconds`` have been measured, always at least one.  With
``--trace 1`` one more pass runs every op under ``layers.py`` and the
per-layer metrics are reported instead of the end-to-end ones.  The last
line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
OP_TIMEOUT_S = 150.0


@dataclass
class OpResult:
    op: Op
    wall_s: float
    rss_mb: float
    problems: list[str]  # empty when the op's output matched its expectation
    doc: dict | None  # parsed JSON output
    spans: dict | None  # what layers.py wrote, for a traced op

    @property
    def ok(self) -> bool:
        return not self.problems


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(cmd: list[str], out_path: Path, err_path: Path, timeout: float):
    """Run cmd to completion; (exit code, wall s, peak RSS MB, timed out).

    The child is reaped with os.wait4, whose rusage gives its own peak RSS.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = perf_counter() - t0
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, killed.is_set()


def run_op(op: Op, files: dict[str, str], work: Path, traced: bool) -> OpResult:
    argv = op.command(files)
    spans_path = work / "spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "layers.py"), str(spans_path), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "hopfblocks.cli", *argv]
    out_path, err_path = work / "op.out", work / "op.err"
    code, wall, rss, timed_out = _run_child(cmd, out_path, err_path, OP_TIMEOUT_S)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    problems, doc = op.check(code, stdout, stderr)
    if timed_out:
        problems.insert(0, f"timed out after {OP_TIMEOUT_S:.0f} s")
    spans = None
    if traced and spans_path.exists():
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
    return OpResult(op, wall, rss, problems, doc, spans)


def check_agreement(results: list[OpResult]) -> None:
    """Ops sharing an ``agree`` key (direct and center model of one block
    space) must report one dimension."""
    dims: dict[tuple, set] = {}
    for r in results:
        if r.op.agree is not None and r.doc is not None:
            dims.setdefault(r.op.agree, set()).add(r.doc.get("dim"))
    for r in results:
        if r.op.agree is not None and len(dims.get(r.op.agree, ())) > 1:
            r.problems.append(f"models disagree on {r.op.agree}: dims {sorted(map(str, dims[r.op.agree]))}")


def run_pass(ops: list[Op], files: dict[str, str], work: Path, traced: bool) -> list[OpResult]:
    results = [run_op(op, files, work, traced) for op in ops]
    check_agreement(results)
    return results


def setup(names: list[str], seed: int, work: Path) -> tuple[dict[str, str], list[float]]:
    """Write the seeded files SETUP_REPEATS times, each in a fresh process."""
    times = []
    files: dict[str, str] = {}
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "inputs.py"), "--seed", str(seed), "--out", str(work / "inputs"), *names]
        code, wall, _, timed_out = _run_child(cmd, work / "setup.out", work / "setup.err", OP_TIMEOUT_S)
        if code != 0 or timed_out:
            err = (work / "setup.err").read_text(encoding="utf-8", errors="replace")
            raise SystemExit(f"set-up failed (exit {code}):\n{err}")
        files = json.loads((work / "setup.out").read_text(encoding="utf-8").splitlines()[-1])
        times.append(wall)
    return files, times


def warm_bytecode() -> None:
    """Compile the package once, as an installed package is, so no timed
    process pays for compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "hopfblocks"), str(HERE)],
        check=True, stdout=subprocess.DEVNULL, env=_child_env(),
    )


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[list[OpResult]], setup_times: list[float]) -> dict:
    all_results = [r for p in passes for r in p]
    # failed ops stay out of the percentiles; if none succeeded the run is
    # reported incorrect and the median falls back to every op
    ok_walls = [r.wall_s for r in all_results if r.ok] or [r.wall_s for r in all_results]
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "pass_s": _metric(statistics.median(sum(r.wall_s for r in p) for p in passes), "s"),
        "op_p50_s": _metric(statistics.median(ok_walls), "s"),
        "peak_rss_mb": _metric(max(r.rss_mb for r in all_results), "MB"),
    }


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    return "ratio" if stat == "hit_ratio" else "count"


def per_layer(traced: list[OpResult], untraced_pass_s: float) -> dict:
    processes = [r.spans for r in traced if r.spans is not None]
    values = layers.summarize(processes)
    imports = [p["import_s"] for p in processes]
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    values["trace.pass_s"] = sum(r.wall_s for r in traced)
    values["trace.overhead_s"] = values["trace.pass_s"] - untraced_pass_s
    return {name: _metric(value, layer_unit(name)) for name, value in values.items()}


def report_failures(results: list[OpResult]) -> None:
    for r in results:
        if not r.ok:
            print(f"FAILED {' '.join(r.op.argv)}: {'; '.join(r.problems)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hopfblocks CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hopfblocks" / "cli.py").is_file():
        print(f"error: no hopfblocks sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        warm_bytecode()
        files, setup_times = setup(workload["files"], args.seed, work)
        passes = []
        t0 = perf_counter()
        while not passes or perf_counter() - t0 < args.seconds:
            passes.append(run_pass(workload["ops"], files, work, traced=False))
        traced = run_pass(workload["ops"], files, work, traced=True) if args.trace else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = [r for p in passes for r in p] + traced
    report_failures(measured)
    e2e = end_to_end(passes, setup_times)
    attempted = len(measured)
    failed = sum(not r.ok for r in measured)
    ok_walls = sorted(r.wall_s for p in passes for r in p if r.ok)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "op_samples": len(ok_walls),
        "fail_ratio": failed / attempted,
        **{k: v["value"] for k, v in e2e.items()},
    }
    if len(ok_walls) >= 100:
        summary["op_p90_s"] = statistics.quantiles(ok_walls, n=10)[-1]
    print(json.dumps(summary))
    metrics = per_layer(traced, e2e["pass_s"]["value"]) if args.trace else e2e
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
