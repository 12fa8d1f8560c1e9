"""Command-line front end.

Commands: check, invariants, blocks, dehn, theorems, catalog-list.
Exit codes: 0 all checks pass, 1 discrepancy found, 2 usage/IO error,
3 validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import blocks as blk
from . import catalog, harness, repcat
from .catalog import CatalogError, ParseError, ValidationFailed
from .hopf import DimensionMismatch, HopfData, MissingRibbon
from .linalg import operator_order

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


def _error(code: str, message: str) -> None:
    try:
        print(f"error[{code}]: {message}", file=sys.stderr)
    except BrokenPipeError:
        # the reader closed stderr; point it at devnull so the exit code
        # stays the one the caller returns
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _emit(doc: dict, fmt: str, table: str | None = None) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(table if table is not None else _render_table(doc))


def _render_table(doc: dict, indent: int = 0) -> str:
    lines = []
    pad = " " * indent
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_table(value, indent + 2))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render_table(item, indent + 2))
                lines.append(pad + "  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line.strip("- "))


def _load(name: str) -> HopfData:
    h = catalog.resolve(name, validate=False)
    report = h.validate()
    if not report.passed:
        raise ValidationFailed(report)
    return h


def cmd_check(args) -> int:
    h = catalog.resolve(args.algebra, validate=False)
    report = h.validate()
    doc = report.to_json()
    _emit(doc, args.format)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_invariants(args) -> int:
    h = _load(args.algebra)
    commutative, _ = h.is_commutative()
    doc = {
        "report_version": 1,
        "algebra": h.name,
        "dim": h.dim,
        "commutative": commutative,
        "unimodular": h.is_unimodular(),
    }
    if h.r_matrix is not None:
        doc["factorizable"] = h.is_factorizable()[0]
        central = repcat.torelli_criterion(h)
        doc["end_muger_central"] = central
        doc["torelli_annihilated_predicted"] = central
    if h.ribbon is not None:
        doc["ribbon_order"] = h.ribbon_order().to_json()
        if h.r_matrix is not None:  # the double braiding needs R
            doc["johnson_annihilated_predicted"] = all(repcat.johnson_criterion(h))
    elif "ribbon_search" in h.flags:
        doc["ribbon_order"] = None
        doc["ribbon_note"] = h.flags["ribbon_search"]
    _emit(doc, args.format)
    return EXIT_OK


def cmd_blocks(args) -> int:
    h = _load(args.algebra)
    model = blk.DIRECT if args.model == "direct" else blk.RELATIVE_CENTER
    space = blk.block_space(h, args.genus, model, genus_cap=args.genus_cap)
    doc = {
        "report_version": 1,
        "algebra": h.name,
        "genus": args.genus,
        "model": args.model,
        "dim": space.dim,
        "ambient_dim": space.basis.ncols,
        "basis_support_columns": space.basis.free_cols,
    }
    _emit(doc, args.format, table=f"{h.name} genus {args.genus} ({args.model} model): dim {space.dim}")
    return EXIT_OK


def _curve_ints(params: str, count: int) -> list[int] | None:
    """The ``count`` comma-separated integers of a curve spec, or None."""
    try:
        ints = [int(p) for p in params.split(",")]
    except ValueError:
        return None
    return ints if len(ints) == count else None


def cmd_dehn(args) -> int:
    h = _load(args.algebra)
    curve = args.curve
    kind, _, params = curve.partition(":")
    if kind == "nonsep" and (handle := _curve_ints(params, 1)):
        space = blk.block_space(h, 1 if args.genus is None else args.genus, blk.DIRECT, genus_cap=args.genus_cap)
        op = blk.nonseparating_twist_op(space, handle[0])
        doc = {"report_version": 1, "algebra": h.name, **op.to_json()}
    elif kind == "sep" and (genera := _curve_ints(params, 2)):
        g1, g2 = genera
        if args.genus not in (None, g1 + g2):
            _error("BAD_ARGUMENT", f"--genus {args.genus} is not the genus {g1 + g2} of {curve}")
            return EXIT_USAGE
        sep = blk.separating_twist_op(h, g1, g2, genus_cap=args.genus_cap)
        doc = {"report_version": 1, "algebra": h.name, "genus": sep.block.genus, **sep.to_json()}
    elif curve == "bpair":
        if args.genus is not None:
            _error("BAD_ARGUMENT", "--genus does not apply to bpair")
            return EXIT_USAGE
        mat = blk.bounding_pair_op(h, genus_cap=args.genus_cap)
        cert = operator_order(mat)
        doc = {
            "report_version": 1,
            "algebra": h.name,
            "kind": "bounding-pair(regular, regular)",
            "block_dim": mat.nrows,
            "acts_trivially": mat.is_identity(),
            "certificate": cert.to_json(),
        }
    else:
        _error("BAD_CURVE", f"bad curve spec {curve!r}; expected nonsep:<i>, sep:<g'>,<g''> or bpair")
        return EXIT_USAGE
    _emit(doc, args.format)
    return EXIT_OK


def cmd_theorems(args) -> int:
    if args.max_genus < 1 or args.window < 0:
        _error("BAD_ARGUMENT", "--max-genus must be at least 1 and --window at least 0")
        return EXIT_USAGE
    h = _load(args.algebra)
    report = harness.run_all(h, max_genus=args.max_genus, window=args.window, genus_cap=args.genus_cap)
    _emit(report.to_json(), args.format, table=report.to_table())
    return EXIT_DISCREPANCY if report.has_failures else EXIT_OK


def cmd_catalog_list(args) -> int:
    entries = []
    for name in catalog.catalog_names():
        h = catalog.get(name)
        entries.append(
            {
                "name": name,
                "algebra": h.name,
                "dim": h.dim,
                "has_r_matrix": h.r_matrix is not None,
                "has_ribbon": h.ribbon is not None,
            }
        )
    rows = []
    for e in entries:
        extras = [tag for tag, key in (("R", "has_r_matrix"), ("ribbon", "has_ribbon")) if e[key]]
        rows.append(f"{e['name']:18} dim {e['dim']:3}  {'+'.join(extras)}")
    _emit({"report_version": 1, "catalog": entries}, args.format, table="\n".join(rows))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # global flags accepted both before and after the subcommand; the
    # suppressed defaults keep a subparser from clobbering earlier values
    def dft(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", choices=["json", "table"], default=dft("table"))
    parser.add_argument("--genus-cap", type=int, default=dft(None),
                        help="override the genus resource cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfblocks",
        description="Exact block spaces and certified Dehn twist orders for ribbon factorizable Hopf algebras",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, suppress=True)
        return p

    p = subparser("check", "validate an algebra and report every axiom")
    p.add_argument("algebra")
    p.set_defaults(fn=cmd_check)

    p = subparser("invariants", "structural predicates and ribbon order")
    p.add_argument("algebra")
    p.set_defaults(fn=cmd_invariants)

    p = subparser("blocks", "block space dimension and basis summary")
    p.add_argument("algebra")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--model", choices=["direct", "center"], default="direct")
    p.set_defaults(fn=cmd_blocks)

    p = subparser("dehn", "twist operator and its order certificate")
    p.add_argument("algebra")
    p.add_argument("--genus", type=int, help="genus of a nonsep block (default 1); for sep, g'+g''")
    p.add_argument("--curve", required=True, help="nonsep:<i> | sep:<g'>,<g''> | bpair")
    p.set_defaults(fn=cmd_dehn)

    p = subparser("theorems", "run the full theorem suite")
    p.add_argument("algebra")
    p.add_argument("--max-genus", type=int, default=2)
    p.add_argument("--window", type=int, default=4)
    p.set_defaults(fn=cmd_theorems)

    p = subparser("catalog-list", "list shipped algebras")
    p.set_defaults(fn=cmd_catalog_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.genus_cap is not None and args.genus_cap < 0:
        _error("BAD_ARGUMENT", "--genus-cap must be at least 0")
        return EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the interpreter's
        # final flush of what is still buffered is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _error("IO_ERROR", "stdout was closed before the report was written")
        return EXIT_USAGE
    except ValidationFailed as exc:
        _error("VALIDATION_FAILED", f"{exc}\n{json.dumps(exc.report.to_json(), indent=1, sort_keys=True)}")
        return EXIT_VALIDATION
    except ParseError as exc:
        _error("PARSE_ERROR", str(exc))
        return EXIT_USAGE
    except DimensionMismatch as exc:
        _error("DIMENSION_MISMATCH", str(exc))
        return EXIT_USAGE
    except OSError as exc:  # a missing file, a directory, no permission to read
        _error("IO_ERROR", str(exc))
        return EXIT_USAGE
    except CatalogError as exc:
        _error("UNKNOWN_ALGEBRA", str(exc))
        return EXIT_USAGE
    except MissingRibbon as exc:
        _error("RIBBON_REQUIRED", f"{exc} has no (verified) ribbon element")
        return EXIT_USAGE
    except blk.BlocksError as exc:
        _error("BLOCKS", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
