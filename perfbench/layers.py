"""Per-layer spans recorded from outside the library.

The tracer wraps the public functions of each layer and runs the
``hopfblocks`` command in-process.  A module that did
``from .linalg import simultaneous_kernel`` holds its own reference to the
function, so every wrapper is installed under every name, in every
``hopfblocks.*`` module, that holds the original object; methods are
replaced on their class.

Run as a script it is a traced ``hopfblocks`` command: it times the import
of ``hopfblocks.cli``, installs the wrappers, calls ``cli.main(argv)`` and
writes the spans as JSON before exiting with the command's exit code:

    python3 perfbench/layers.py SPANS.json -- blocks double:S3 --genus 2

Spans of one process are kept in memory and written once, at exit.
``summarize`` folds the spans of any number of processes into the per-layer
metrics ``<module>.<function>.<stat>``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


class Tracer:
    """Nested spans of one process: [id, parent id, name, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, attrs=None):
        """Run fn inside a span; attrs(result, *args, **kwargs) records its
        sizes, with result None when fn raised."""
        sid = len(self.spans)
        span = [sid, self._stack[-1] if self._stack else None, name, perf_counter(), None, {}]
        self.spans.append(span)
        self._stack.append(sid)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span[4] = perf_counter()
            self._stack.pop()
            if attrs is not None:
                span[5] = attrs(result, *args, **kwargs)


# -- what each layer records beside its time ---------------------------------


def _hom_space_attrs(result, source, target):
    if source.is_regular:
        path = "regular"
    elif source.tensor_factors and source.tensor_factors[0].is_regular:
        path = "free"
    else:
        path = "generic"
    return {"path": path, "unknowns": source.dim * target.dim}


def _kernel_attrs(result, mats):
    from hopfblocks.fields import QQ

    return {
        "unknowns": mats[0].ncols,
        "rows": sum(m.nrows for m in mats),
        "nnz": sum(m.nnz() for m in mats),
        "kernel_dim": result.dim if result is not None else 0,
        "q": mats[0].field == QQ,
    }


def _minpoly_attrs(result, t):
    return {"degree": len(result) - 1 if result is not None else 0}


def _order_attrs(result, t, cap=None):
    return {"dim": t.nrows}


def _block_attrs(result, h, genus, model="direct", genus_cap=None):
    return {"key": [id(h), genus, model], "dim": result.dim if result is not None else 0}


# (module, attribute path, span name, attrs); the harness verify_* functions
# are added by ``install``
LAYERS = [
    ("hopfblocks.cli", "main", "cli.main", None),
    ("hopfblocks.catalog", "resolve", "catalog.resolve", None),
    ("hopfblocks.hopf", "HopfData.validate", "hopf.HopfData.validate", None),
    ("hopfblocks.repcat", "Module.act", "repcat.Module.act", None),
    ("hopfblocks.repcat", "hom_space", "repcat.hom_space", _hom_space_attrs),
    ("hopfblocks.linalg", "simultaneous_kernel", "linalg.simultaneous_kernel", _kernel_attrs),
    ("hopfblocks.linalg", "inverse", "linalg.inverse", None),
    ("hopfblocks.linalg", "minimal_polynomial", "linalg.minimal_polynomial", _minpoly_attrs),
    ("hopfblocks.linalg", "operator_order", "linalg.operator_order", _order_attrs),
    ("hopfblocks.blocks", "block_space", "blocks.block_space", _block_attrs),
    ("hopfblocks.blocks", "restrict_operator", "blocks.restrict_operator", None),
    ("hopfblocks.blocks", "nonseparating_twist_op", "blocks.nonseparating_twist_op", None),
    ("hopfblocks.blocks", "center_twist_op", "blocks.center_twist_op", None),
    ("hopfblocks.blocks", "separating_twist_op", "blocks.separating_twist_op", None),
    ("hopfblocks.blocks", "bounding_pair_op", "blocks.bounding_pair_op", None),
]

VERIFY = [
    "verify_prop_order",
    "verify_nonseparating",
    "verify_separating",
    "verify_excision",
    "verify_johnson",
    "verify_torelli",
    "verify_zg",
]


def _wrap(tracer: Tracer, name: str, fn, attrs):
    @functools.wraps(fn)  # keeps __name__, which run_all uses for gated rows
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)

    return traced


def _wrap_act(tracer: Tracer, fn):
    # Module.act is a cached lookup called in inner loops; only a call that
    # builds the action matrix is a span
    @functools.wraps(fn)
    def traced(self, i):
        built = getattr(self, "_action", None)
        if isinstance(built, dict) and i in built:
            return built[i]
        return tracer.call("repcat.Module.act", fn, (self, i), {})

    return traced


def _rebind(original, wrapper) -> int:
    """Point every hopfblocks.* module name bound to ``original`` at ``wrapper``."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hopfblocks" or mod_name.startswith("hopfblocks.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                count += 1
    return count


def install(tracer: Tracer) -> None:
    """Wrap every layer listed in LAYERS and VERIFY (imports hopfblocks.cli)."""
    importlib.import_module("hopfblocks.cli")
    layers = LAYERS + [("hopfblocks.harness", v, f"harness.{v}", None) for v in VERIFY]
    for mod_name, path, name, attrs in layers:
        owner = importlib.import_module(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        if name == "repcat.Module.act":
            wrapper = _wrap_act(tracer, original)
        else:
            wrapper = _wrap(tracer, name, original, attrs)
        if outer:  # a method: replacing it on the class reaches every caller
            setattr(owner, attr, wrapper)
        elif not _rebind(original, wrapper):
            raise RuntimeError(f"{mod_name}.{path} is bound nowhere")


# -- folding spans into per-layer metrics ------------------------------------

SPAN_NAMES = [name for _, _, name, _ in LAYERS] + [f"harness.{v}" for v in VERIFY]


def summarize(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the spans of several traced processes.

    ``calls`` counts spans, ``total_s`` sums durations (a span nested in a
    span of the same name is not counted twice), and ``self_s`` sums
    duration minus the time covered by direct child spans.
    """
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.total_s"] = 0.0
    out.update({
        "repcat.hom_space.path_regular": 0,
        "repcat.hom_space.path_free": 0,
        "repcat.hom_space.path_generic": 0,
        "repcat.hom_space.unknowns_max": 0,
        "linalg.simultaneous_kernel.unknowns_max": 0,
        "linalg.simultaneous_kernel.rows_sum": 0,
        "linalg.simultaneous_kernel.nnz_sum": 0,
        "linalg.simultaneous_kernel.kernel_dim_sum": 0,
        "linalg.simultaneous_kernel.q_calls": 0,
        "linalg.minimal_polynomial.degree_sum": 0,
        "linalg.operator_order.dim_max": 0,
        "blocks.block_space.distinct": 0,
        "blocks.block_space.dim_sum": 0,
    })
    for proc in processes:
        spans = proc["spans"]
        child_time = [0.0] * len(spans)
        for sid, parent, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        keys = set()
        for sid, parent, name, start, end, attrs in spans:
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[sid]
            if not _inside_same_name(spans, parent, name):
                out[f"{name}.total_s"] += dur
            if name == "repcat.hom_space":
                out[f"repcat.hom_space.path_{attrs['path']}"] += 1
                out["repcat.hom_space.unknowns_max"] = max(out["repcat.hom_space.unknowns_max"], attrs["unknowns"])
            elif name == "linalg.simultaneous_kernel":
                k = "linalg.simultaneous_kernel."
                out[k + "unknowns_max"] = max(out[k + "unknowns_max"], attrs["unknowns"])
                out[k + "rows_sum"] += attrs["rows"]
                out[k + "nnz_sum"] += attrs["nnz"]
                out[k + "kernel_dim_sum"] += attrs["kernel_dim"]
                out[k + "q_calls"] += int(attrs["q"])
            elif name == "linalg.minimal_polynomial":
                out["linalg.minimal_polynomial.degree_sum"] += attrs["degree"]
            elif name == "linalg.operator_order":
                out["linalg.operator_order.dim_max"] = max(out["linalg.operator_order.dim_max"], attrs["dim"])
            elif name == "blocks.block_space":
                keys.add(tuple(attrs["key"]))
                out["blocks.block_space.dim_sum"] += attrs["dim"]
        # block keys hold object ids, so they are only comparable within a process
        out["blocks.block_space.distinct"] += len(keys)
    calls = out["blocks.block_space.calls"]
    out["blocks.block_space.hit_ratio"] = 1 - out["blocks.block_space.distinct"] / calls if calls else 0.0
    return out


def _inside_same_name(spans: list[list], parent, name: str) -> bool:
    while parent is not None:
        if spans[parent][2] == name:
            return True
        parent = spans[parent][1]
    return False


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layers.py SPANS.json -- <hopfblocks arguments>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    t0 = perf_counter()
    cli = importlib.import_module("hopfblocks.cli")
    import_s = perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
