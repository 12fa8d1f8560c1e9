"""The benchmark's workloads: op lists with pinned expectations.

An op is one ``hopfblocks`` command line.  Its expectation pins the exit
code and the outputs that a basis relabelling cannot change: block
dimensions, GL/PGL order verdicts and the status of every theorem check,
gated and skipped ones included.  No expected value was read off a run of
the program; each names its source:

* README: the catalog table, the exit-code contract, and "PGL order 6 on
  all genus-1 and genus-2 blocks of D(k[S3]), where the genus-2 block is
  116-dimensional";
* C02..C08: the assertions of ``tests/test_acceptance.py`` (ribbon orders
  2/3/6 for D(Z2)/D(Z3)/D(S3); gating of D(H4); Johnson and Torelli
  verdicts; lattice counts);
* VERLINDE: dim block(g) = sum_i (D/d_i)^(2g-2) for a group double, with
  D^2 = dim H: D(Z2) 4/16/64, D(Z3) 9/81, D(S3) 8/116;
* BURNSIDE: for k[G] the adjoint invariants of the g-th tensor power count
  the G-orbits on G^g, (1/|G|) sum_x |C(x)|^g: k[S3] 3/11/49;
* TRIVIAL_END: C07 says a commutative double's end is a sum of trivial
  modules, so its twist is the identity and Hom(A^g', A^g'') is the whole
  matrix space, of dimension (dim H)^(g'+g'');
* RIBBON_POWER: v^n = 1 for the ribbon element (C02), so an operator built
  from the action of v has GL order dividing n, and PGL order divides GL.
  With the README/C03 theorem that the PGL order is n, GL = PGL = n.  The
  same identity holds over Q(zeta_3), Q(zeta_12) and F_7 (the structure
  constants have denominators dividing |G|, and x^6 - 1 is separable mod 7);
* GATES: ``harness.require_ribbon_factorizable``: the twist theorems need a
  ribbon element (README: D(H4) has none) and characteristic zero.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

FILE = "@"  # an argument "@name" is the path of the seeded file ``name``


@dataclass(frozen=True)
class Divides:
    """An order verdict that must be finite and divide n."""

    n: int


@dataclass
class Row:
    """One expected theorem check, matched by position in the report.

    A gated row is matched by its reason code, not its name.  ``ints``
    pins the integers of ``lhs + rhs`` in order (dims, orders, counts).
    """

    status: str
    name: str | None = None
    gate: str | None = None
    ints: list[int] | None = None


@dataclass
class Op:
    argv: list[str]
    exit_code: int = 0
    fields: dict = field(default_factory=dict)  # dotted JSON path -> value
    rows: list[Row] | None = None  # theorems report, in order
    error: str | None = None  # error code printed on stderr
    agree: tuple | None = None  # blocks ops with one key must agree on dim

    def command(self, files: dict[str, str]) -> list[str]:
        return [files[a[1:]] if a.startswith(FILE) else a for a in self.argv] + ["--format", "json"]

    def check(self, code: int, stdout: str, stderr: str) -> tuple[list[str], dict | None]:
        """Mismatches against the expectation, and the parsed JSON output."""
        problems = []
        if code != self.exit_code:
            problems.append(f"exit {code} != {self.exit_code}")
        if "Traceback (most recent call last)" in stderr:
            problems.append("traceback on stderr")
        if self.exit_code != 0:
            if self.error and f"error[{self.error}]" not in stderr:
                problems.append(f"stderr lacks error[{self.error}]")
            return problems, None
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return problems + [f"stdout is not JSON: {exc}"], None
        for path, want in self.fields.items():
            got = _dig(doc, path)
            if not _matches(got, want):
                problems.append(f"{path}: {got!r} != {want!r}")
        if self.rows is not None:
            problems += _check_rows(doc.get("checks", []), self.rows)
        return problems, doc


def _dig(doc, path: str):
    for key in path.split("."):
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _matches(got, want) -> bool:
    if isinstance(want, Divides):
        return isinstance(got, int) and got > 0 and want.n % got == 0
    return type(got) is type(want) and got == want


def _check_rows(checks: list[dict], rows: list[Row]) -> list[str]:
    if len(checks) != len(rows):
        return [f"{len(checks)} theorem checks != {len(rows)}"]
    problems = []
    for i, (c, r) in enumerate(zip(checks, rows)):
        label = r.name or f"check {i}"
        if c.get("status") != r.status:
            problems.append(f"{label}: status {c.get('status')} != {r.status}")
        if r.name is not None and c.get("name") != r.name:
            problems.append(f"check {i}: name {c.get('name')!r} != {r.name!r}")
        if r.gate is not None and not str(c.get("detail", "")).startswith(r.gate):
            problems.append(f"{label}: gate {c.get('detail')!r} is not {r.gate}")
        if r.ints is not None:
            got = [int(x) for x in re.findall(r"\d+", f"{c.get('lhs', '')} {c.get('rhs', '')}")]
            if got != r.ints:
                problems.append(f"{label}: integers {got} != {r.ints}")
    return problems


# -- expectations shared by several ops --------------------------------------


def _ribbon_double_rows(order: int, dims: list[int], sep_dims: list[int | None]) -> list[Row]:
    """A ribbon factorizable double in characteristic zero: every check passes.

    dims: block dims at genus 1, 2 (VERLINDE); sep_dims: Hom dim of each
    separating split run, or None when it has no independent source.
    The trivially-acting lattice points are the multiples of the ribbon
    order in the window (C08).
    """
    g1, g2 = dims
    rows = [
        Row("pass", "ribbon-element-order", ints=[order, order]),  # C02
        Row("pass", "nonseparating-twist-order(g=1)", ints=[order, g1, order]),  # README, C03
        Row("pass", "nonseparating-twist-order(g=2)", ints=[order, order, g2, order]),
    ]
    splits = [(1, 1), (1, 2)][: len(sep_dims)]
    for (a, b), d in zip(splits, sep_dims):
        # TRIVIAL_END: the separating twist is the identity, orders 1
        ints = None if d is None else [1, d, 1, 1, 1]
        rows.append(Row("pass", f"separating-twist-order({a},{b})", ints=ints))
    for g, d in ((1, g1), (2, g2)):
        # VERLINDE dims in both models, RIBBON_POWER certificates
        rows.append(Row("pass", f"excision-consistency(g={g})", ints=[d, order, order] * 2))
    window_multiples = len([k for k in range(-4, 5) if k % order == 0]) ** 2
    rows += [
        Row("pass", "johnson-kernel-criterion"),  # C06
        Row("pass", "torelli-criterion"),  # C07
        Row("pass", "commuting-twist-lattice(g=2, window=4)",
            ints=[window_multiples, order, window_multiples]),  # C08
    ]
    return rows


def _gated_rows(gate: str, n_excision: int = 2) -> list[Row]:
    """GATES: every twist theorem is gated; Torelli (R-matrix only) passes
    because neither D(H4) nor D(S3) is commutative (C07)."""
    gated = Row("gated", gate=gate)
    return [gated] * (3 + n_excision + 1) + [Row("pass", "torelli-criterion"), gated]


DS3_THEOREMS = _ribbon_double_rows(6, [8, 116], [None])

# ---------------------------------------------------------------------------

WORKLOADS: dict[str, dict] = {}

WORKLOADS["ds3-q-theorems"] = {
    "why": "D(S3) over Q: the kernel solve on up to 1296 unknowns is ~95% of the op, "
           "and block spaces are reused across checks",
    "files": ["ds3_q"],
    "ops": [Op(["theorems", "@ds3_q"], rows=DS3_THEOREMS)],
}

WORKLOADS["ds3-zeta3-theorems"] = {
    "why": "the same mathematics over Q(zeta_3): exact kernel path, cyclotomic arithmetic "
           "and file validation dominate",
    "files": ["ds3_zeta3"],
    "ops": [Op(["theorems", "@ds3_zeta3"], rows=DS3_THEOREMS)],
}


def _blocks(name: str, genus: int, dim: int | None) -> list[Op]:
    """Both models at one genus; dim None means only the models' agreement
    is checked (no independent dimension formula)."""
    fields = {} if dim is None else {"dim": dim}
    return [
        Op(["blocks", name, "--genus", str(genus), "--model", model], fields=fields, agree=(name, genus))
        for model in ("direct", "center")
    ]


def _cert(gl, pgl) -> dict:
    return {"certificate.gl_order.n": gl, "certificate.pgl_order.n": pgl}


WORKLOADS["catalog-sweep"] = {
    "why": "short queries on all 8 catalog algebras plus F_7 and Q(zeta_12) files: "
           "start-up, construction, validation and small solves dominate",
    "files": ["ds3_f7", "dz3_zeta12"],
    "ops": [
        # axiom reports (README: every shipped algebra validates)
        *[Op(["check", n], fields={"passed": True}) for n in ("group:Z2", "group:Z3", "sweedler", "double:sweedler")],
        # structural predicates: README table; k[S3] is non-abelian, group
        # algebras are unimodular, H4 is not (left and right integrals differ)
        Op(["invariants", "group:S3"], fields={"dim": 6, "commutative": False, "unimodular": True}),
        Op(["invariants", "double:Z2"], fields={
            "dim": 4, "commutative": True, "unimodular": True, "factorizable": True,
            "ribbon_order.gl_order.n": 2, "end_muger_central": True, "johnson_annihilated_predicted": True}),  # C02, C06, C07
        Op(["invariants", "double:S3"], fields={
            "dim": 36, "commutative": False, "unimodular": True, "factorizable": True,
            "ribbon_order.gl_order.n": 6, "end_muger_central": False, "johnson_annihilated_predicted": False}),
        # block spaces in both models at each genus cap (README: 3 for
        # dim <= 8, 2 for dim <= 36); D(S3) at genus 1 keeps ops short
        *_blocks("group:S3", 3, 49),  # BURNSIDE
        *_blocks("double:Z2", 3, 64),  # VERLINDE
        *_blocks("double:Z3", 2, 81),  # VERLINDE
        *_blocks("double:S3", 1, 8),  # VERLINDE, README
        *_blocks("double:sweedler", 2, None),
        # twist operators (README/C03, RIBBON_POWER, TRIVIAL_END)
        Op(["dehn", "double:Z2", "--curve", "nonsep:1"], fields={"block_dim": 4, **_cert(2, 2)}),
        Op(["dehn", "double:Z3", "--curve", "sep:1,1"], fields={"block_dim": 81, **_cert(1, 1)}),
        Op(["dehn", "double:Z2", "--curve", "sep:1,2"], fields={"block_dim": 64, **_cert(1, 1)}),
        Op(["dehn", "double:Z3", "--curve", "sep:1,2"], fields={"block_dim": 729, **_cert(1, 1)}),
        # bounding pair on Hom(H x A, H) = Hom_k(A, H) (free-module
        # identification): dim 36^2; the operator is f -> f Q with
        # Q = theta(H x A)(theta(H)^-1 x 1), and Q^6 = 1 (RIBBON_POWER)
        Op(["dehn", "double:S3", "--curve", "bpair"], fields={
            "block_dim": 1296, **_cert(Divides(6), Divides(6))}),
        # documented usage errors, exit 2 (README)
        Op(["dehn", "double:sweedler", "--curve", "bpair"], exit_code=2, error="RIBBON_REQUIRED"),
        Op(["blocks", "double:S3", "--genus", "3"], exit_code=2, error="BLOCKS"),
        # theorem suites
        Op(["theorems", "double:Z2"], rows=_ribbon_double_rows(2, [4, 16], [16, 64])),
        Op(["theorems", "double:sweedler"], rows=_gated_rows("RibbonRequired")),  # C03, C04, C07
        Op(["dehn", "@ds3_f7", "--genus", "2", "--curve", "nonsep:1"],
           fields={"block_dim": 116, **_cert(6, 6)}),  # VERLINDE, RIBBON_POWER
        Op(["theorems", "@ds3_f7"], rows=_gated_rows("CharacteristicZeroRequired")),
        Op(["theorems", "@dz3_zeta12"], rows=_ribbon_double_rows(3, [9, 81], [81])),
    ],
}
