"""Seeded algebra files for the benchmark workloads.

Each file is a catalog construction saved in the documented algebra file
format, with its basis relabelled by a permutation drawn from the workload
seed.  Seed 0 keeps catalog order, so a seed-0 file is exactly
``catalog.to_json`` of the construction.  A relabelling changes the order in
which every layer meets rows, columns and generators, but not one
mathematical output, so the expectations in ``workloads.py`` hold for every
seed.

Run as a script it writes the files and loads each one back through
``catalog.load`` with validation on; the benchmark times that as set-up:

    python3 perfbench/inputs.py --seed 3 --out DIR ds3_q ds3_zeta3
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path


def _field(spec: str):
    from hopfblocks.fields import QQ, CyclotomicField, PrimeField

    kind, _, arg = spec.partition(":")
    if kind == "Q":
        return QQ
    if kind == "zeta":
        return CyclotomicField(int(arg))
    if kind == "F":
        return PrimeField(int(arg))
    raise ValueError(f"unknown field spec {spec!r}")


# file name -> (group of the Drinfeld double, field spec)
ALGEBRAS = {
    "ds3_q": ("S3", "Q"),
    "ds3_zeta3": ("S3", "zeta:3"),
    "ds3_f7": ("S3", "F:7"),
    "dz3_zeta12": ("Z3", "zeta:12"),
}


def build(name: str):
    """The catalog construction behind one benchmark file."""
    from hopfblocks import catalog

    group, field = ALGEBRAS[name]
    table = catalog.symmetric_group_3() if group == "S3" else catalog.cyclic_group(int(group[1:]))
    return catalog.double_of_group(table, _field(field))


def permutation(dim: int, seed: int, name: str) -> list[int]:
    """New index of each old basis index; the identity for seed 0."""
    perm = list(range(dim))
    if seed:
        random.Random(f"{name}:{seed}").shuffle(perm)
    return perm


def relabel(doc: dict, perm: list[int]) -> dict:
    """The algebra file ``doc`` with basis index i renamed to perm[i].

    Covers every index-bearing field of the format: basis labels, the unit,
    counit and ribbon vectors, the mult/comult/antipode/r_matrix tensors,
    the generators and the action keys of the shipped simple modules.
    """
    def vector(values):
        out = [None] * len(values)
        for i, v in enumerate(values):
            out[perm[i]] = v
        return out

    def tensor(entries, arity):
        moved = [[perm[i] for i in t[:arity]] + t[arity:] for t in entries]
        return sorted(moved, key=lambda t: t[:arity])

    out = dict(doc)
    for key in ("basis", "unit", "counit", "ribbon"):
        if key in doc:
            out[key] = vector(doc[key])
    out["mult"] = tensor(doc["mult"], 3)
    out["comult"] = tensor(doc["comult"], 3)
    out["antipode"] = tensor(doc["antipode"], 2)
    if "r_matrix" in doc:
        out["r_matrix"] = tensor(doc["r_matrix"], 2)
    if "generators" in doc:
        # rename each generator in place: the generating sequence stays the
        # same elements in the same order
        out["generators"] = [perm[g] for g in doc["generators"]]
    if "flags" in doc:
        flags = dict(doc["flags"])
        if "simple_modules" in flags:
            flags["simple_modules"] = [
                {**m, "action": {str(perm[int(i)]): rows for i, rows in m["action"].items()}}
                for m in flags["simple_modules"]
            ]
        out["flags"] = flags
    return out


def seeded_doc(name: str, seed: int) -> dict:
    from hopfblocks import catalog

    doc = catalog.to_json(build(name))
    return relabel(doc, permutation(doc["dim"], seed, name))


def write_inputs(names: list[str], seed: int, out_dir: Path) -> dict[str, str]:
    """Write each seeded file and load it back with validation on."""
    from hopfblocks import catalog

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        doc = seeded_doc(name, seed)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        h = catalog.load(path)  # raises ValidationFailed on a broken file
        if h.dim != doc["dim"]:
            raise SystemExit(f"{path}: loaded dim {h.dim} != {doc['dim']}")
        paths[name] = str(path)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("names", nargs="*", choices=sorted(ALGEBRAS))
    args = parser.parse_args(argv)
    print(json.dumps(write_inputs(args.names, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
