"""Command-line front end.

Commands: check, invariants, blocks, dehn, theorems, catalog-list.
Exit codes: 0 all checks pass, 1 discrepancy found, 2 usage/IO error,
3 validation failure.
"""

from __future__ import annotations

import argparse
import json
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
    print(f"error[{code}]: {message}", file=sys.stderr)


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


def _load(name: str, full_axioms: bool) -> HopfData:
    h = catalog.resolve(name, validate=False)
    report = h.validate(full=True if full_axioms else None)
    if not report.passed:
        raise ValidationFailed(report)
    return h


def cmd_check(args) -> int:
    h = catalog.resolve(args.algebra, validate=False)
    report = h.validate(full=True if args.full_axioms else None)
    doc = report.to_json()
    _emit(doc, args.format)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_invariants(args) -> int:
    h = _load(args.algebra, args.full_axioms)
    a = repcat.adjoint_module(h)
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
        central = repcat.muger_central(a)
        doc["end_muger_central"] = central
        doc["torelli_annihilated_predicted"] = central
    if h.ribbon is not None:
        cert = h.ribbon_order(cap=args.cap)
        doc["ribbon_order"] = cert.to_json()
        twist_triv = repcat.twist(a).is_identity()
        braid_triv = repcat.monodromy(a, a).is_identity()
        doc["johnson_annihilated_predicted"] = twist_triv and braid_triv
    elif "ribbon_search" in h.flags:
        doc["ribbon_order"] = None
        doc["ribbon_note"] = h.flags["ribbon_search"]
    _emit(doc, args.format)
    return EXIT_OK


def cmd_blocks(args) -> int:
    h = _load(args.algebra, args.full_axioms)
    model = blk.DIRECT if args.model == "direct" else blk.RELATIVE_CENTER
    space = blk.block_space(h, args.genus, model, genus_cap=args.genus_cap)
    doc = {
        "report_version": 1,
        "algebra": h.name,
        "genus": args.genus,
        "model": args.model,
        "dim": space.dim,
        "ambient_dim": space.ambient.dim,
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
    h = _load(args.algebra, args.full_axioms)
    curve = args.curve
    kind, _, params = curve.partition(":")
    if kind == "nonsep" and (handle := _curve_ints(params, 1)):
        space = blk.block_space(h, args.genus, blk.DIRECT, genus_cap=args.genus_cap)
        op = blk.nonseparating_twist_op(space, handle[0], cap=args.cap)
        doc = {"report_version": 1, "algebra": h.name, **op.to_json()}
    elif kind == "sep" and (genera := _curve_ints(params, 2)):
        g1, g2 = genera
        sep = blk.separating_twist_op(h, g1, g2, cap=args.cap)
        doc = {"report_version": 1, "algebra": h.name, "genus": g1 + g2, **sep.to_json()}
    elif curve == "bpair":
        reg = repcat.regular_module(h)
        hom, mat = blk.bounding_pair_op(h, reg, reg)
        cert = operator_order(mat, cap=args.cap)
        doc = {
            "report_version": 1,
            "algebra": h.name,
            "kind": "bounding-pair(regular, regular)",
            "block_dim": hom.dim,
            "acts_trivially": mat.is_identity(),
            "certificate": cert.to_json(),
        }
    else:
        _error("BAD_CURVE", f"bad curve spec {curve!r}; expected nonsep:<i>, sep:<g'>,<g''> or bpair")
        return EXIT_USAGE
    _emit(doc, args.format)
    return EXIT_OK


def cmd_theorems(args) -> int:
    h = _load(args.algebra, args.full_axioms)
    report = harness.run_all(
        h, max_genus=args.max_genus, window=args.window, cap=args.cap, genus_cap=args.genus_cap
    )
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=1, sort_keys=True))
    else:
        print(report.to_table())
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
    doc = {"report_version": 1, "catalog": entries}
    if args.format == "json":
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for e in entries:
            extras = []
            if e["has_r_matrix"]:
                extras.append("R")
            if e["has_ribbon"]:
                extras.append("ribbon")
            print(f"{e['name']:18} dim {e['dim']:3}  {'+'.join(extras)}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # global flags accepted both before and after the subcommand; the
    # suppressed defaults keep a subparser from clobbering earlier values
    d = argparse.SUPPRESS if suppress else None

    def dft(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", choices=["json", "table"], default=dft("table"))
    parser.add_argument("--full-axioms", action="store_true", default=dft(False),
                        help="force full axiom checking")
    parser.add_argument("--field-check", action="store_true", default=dft(False),
                        help="run field arithmetic self-tests first")
    parser.add_argument("--cap", type=int, default=dft(None),
                        help="iteration cap for order searches")
    parser.add_argument("--genus-cap", type=int, default=dft(None),
                        help="override the genus resource cap")
    del d


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
    p.add_argument("--genus", type=int, default=1)
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


def _field_self_test() -> None:
    import random

    from .fields import QQ, CyclotomicField, PrimeField

    rng = random.Random(0)
    for field in (QQ, CyclotomicField(3), PrimeField(7)):
        for _ in range(25):
            a, b, c = (field.random_element(rng) for _ in range(3))
            assert field.eq(field.add(a, b), field.add(b, a))
            assert field.eq(field.mul(a, field.add(b, c)), field.add(field.mul(a, b), field.mul(a, c)))
            x = field.random_element(rng, zero_ok=False)
            assert field.eq(field.mul(x, field.inv(x)), field.one)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.field_check:
            _field_self_test()
        return args.fn(args)
    except ValidationFailed as exc:
        _error("VALIDATION_FAILED", str(exc))
        print(json.dumps(exc.report.to_json(), indent=1, sort_keys=True), file=sys.stderr)
        return EXIT_VALIDATION
    except ParseError as exc:
        _error("PARSE_ERROR", str(exc))
        return EXIT_USAGE
    except DimensionMismatch as exc:
        _error("DIMENSION_MISMATCH", str(exc))
        return EXIT_USAGE
    except FileNotFoundError as exc:
        _error("IO_ERROR", str(exc))
        return EXIT_USAGE
    except CatalogError as exc:
        _error("UNKNOWN_ALGEBRA", str(exc))
        return EXIT_USAGE
    except MissingRibbon as exc:
        _error("RIBBON_REQUIRED", f"{exc} has no (verified) ribbon element")
        return EXIT_USAGE
    except harness.PreconditionError as exc:
        _error("PRECONDITION", str(exc))
        return EXIT_USAGE
    except blk.BlocksError as exc:
        _error("BLOCKS", str(exc))
        return EXIT_USAGE
    except repcat.HomSpaceTooLarge as exc:
        _error("HOM_SPACE_TOO_LARGE", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
