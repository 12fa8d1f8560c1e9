"""Constructively specified example algebras and the on-disk algebra format.

Shipped entries: group algebras of Z/2, Z/3, S3; their Drinfeld doubles with
machine-verified ribbon elements; the 4-dimensional Sweedler algebra H4 and
its double.  Ribbon data is shipped but never trusted: every candidate must
pass the full ribbon-axiom battery before it is attached, and for doubles the
constructor searches the standard candidates (Drinfeld element and grouplike
shifts) until one verifies.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from .fields import Field, FieldError, QQ, field_from_json
from .hopf import DimensionMismatch, HopfData, Matrix, StructureReport, drinfeld_double
from .linalg import LinAlgError


class CatalogError(Exception):
    pass


class NotAGroup(CatalogError):
    pass


class NoRibbonFound(CatalogError):
    pass


class ParseError(CatalogError):
    pass


class ValidationFailed(CatalogError):
    def __init__(self, report: StructureReport):
        self.report = report
        names = ", ".join(c.name for c in report.failures())
        super().__init__(f"validation failed for {report.algebra}: {names}")


# ---------------------------------------------------------------------------
# Finite groups as multiplication tables
# ---------------------------------------------------------------------------


class GroupTable:
    """A finite group given by labels, a multiplication table, and generators."""

    def __init__(self, name: str, labels: list[str], table: list[list[int]], generators: list[int]):
        self.name = name
        self.labels = labels
        self.table = [list(row) for row in table]
        self.generators = list(generators)
        self.order = len(labels)
        self._check()
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()

    def _check(self):
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise NotAGroup("table is not square")
        for row in self.table:
            if sorted(row) != list(range(n)):
                raise NotAGroup("table rows are not permutations")
        for col in range(n):
            if sorted(self.table[r][col] for r in range(n)) != list(range(n)):
                raise NotAGroup("table columns are not permutations")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise NotAGroup(f"not associative at ({i},{j},{k})")

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(self.order)):
                return e
        raise NotAGroup("no identity element")

    def _find_inverses(self) -> list[int]:
        inv = [None] * self.order
        for i in range(self.order):
            for j in range(self.order):
                if self.table[i][j] == self.identity:
                    inv[i] = j
                    break
            if inv[i] is None:
                raise NotAGroup(f"no inverse for element {i}")
        return inv

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]


def cyclic_group(n: int) -> GroupTable:
    labels = [f"g{k}" if k else "e" for k in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = [1] if n > 1 else []
    return GroupTable(f"Z{n}", labels, table, gens)


def _perm_compose(p: tuple, q: tuple) -> tuple:
    # (p q)(x) = p(q(x))
    return tuple(p[q[i]] for i in range(len(p)))


def symmetric_group_3() -> GroupTable:
    elements = [
        (0, 1, 2),
        (1, 0, 2),
        (2, 1, 0),
        (0, 2, 1),
        (1, 2, 0),
        (2, 0, 1),
    ]
    labels = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]
    index = {p: i for i, p in enumerate(elements)}
    table = [[index[_perm_compose(p, q)] for q in elements] for p in elements]
    return GroupTable("S3", labels, table, generators=[1, 4])


# ---------------------------------------------------------------------------
# Group algebras
# ---------------------------------------------------------------------------


def group_algebra(group: GroupTable, field: Field = QQ) -> HopfData:
    """k[G]: basis = group elements, Delta(g) = g x g, S(g) = g^-1."""
    n = group.order
    F = field
    mult = [[{group.mul(i, j): F.one} for j in range(n)] for i in range(n)]
    unit = [F.one if i == group.identity else F.zero for i in range(n)]
    comult = [{(i, i): F.one} for i in range(n)]
    counit = [F.one] * n
    antipode = Matrix(F, n, n)
    for j in range(n):
        antipode.rows[group.inverse[j]][j] = F.one
    flags = {"group": group.name, "simple_modules": _group_simple_modules(group, F)}
    return HopfData(
        name=f"k[{group.name}]",
        field=F,
        dim=n,
        basis_labels=list(group.labels),
        mult=mult,
        unit=unit,
        comult=comult,
        counit=counit,
        antipode=antipode,
        generators=list(group.generators) or [group.identity],
        flags=flags,
    )


def _group_rep_from_generators(group: GroupTable, gen_mats: dict[int, list[list]]) -> dict[int, list[list]] | None:
    """Extend matrices on generators to the whole group by table composition."""
    from .linalg import Matrix as M

    reps: dict[int, M] = {group.identity: M.identity(QQ, len(next(iter(gen_mats.values()))))}
    for g, rows in gen_mats.items():
        reps[g] = M.from_dense(QQ, rows)
    changed = True
    while changed:
        changed = False
        for a in list(reps):
            for b in list(reps):
                c = group.mul(a, b)
                if c not in reps:
                    reps[c] = reps[a].mul(reps[b])
                    changed = True
    if len(reps) != group.order:
        return None
    return {g: m.to_dense() for g, m in reps.items()}


def _group_simple_modules(group: GroupTable, field: Field) -> list[dict]:
    """A few explicitly shipped simple modules (verified by tests, not trusted)."""
    if field is not QQ:
        return []
    out = [{"name": "trivial", "dim": 1, "action": {g: [[1]] for g in range(group.order)}}]
    if group.name == "Z2":
        out.append({"name": "sign", "dim": 1, "action": {0: [[1]], 1: [[-1]]}})
    if group.name == "Z3":
        rot = {1: [[0, -1], [1, -1]]}
        full = _group_rep_from_generators(group, rot)
        if full:
            out.append({"name": "rot2", "dim": 2, "action": full})
    if group.name == "S3":
        parity = [1, -1, -1, -1, 1, 1]
        out.append({"name": "sign", "dim": 1, "action": {g: [[parity[g]]] for g in range(6)}})
        std = _group_rep_from_generators(
            group, {1: [[-1, 1], [0, 1]], 4: [[0, -1], [1, -1]]}
        )
        if std:
            out.append({"name": "standard", "dim": 2, "action": std})
    return out


# ---------------------------------------------------------------------------
# Ribbon candidates and attachment
# ---------------------------------------------------------------------------


def ribbon_axioms_pass(h: HopfData, v: list) -> bool:
    """The full ribbon battery of ``HopfData.ribbon_battery`` (central,
    invertible, eps(v)=1, S(v)=v, Delta(v) = (R21 R)(v x v)); an algebra
    without an R-matrix has no ribbon element."""
    return h.r_matrix is not None and all(passed for _, passed, _ in h.ribbon_battery(v))


def _element_inverse(h: HopfData, v: list) -> list | None:
    try:
        return h.element_inverse(v)
    except LinAlgError:
        return None


def attach_verified_ribbon(h: HopfData, candidates: list[tuple[list, str]]) -> None:
    """Attach the first candidate passing the ribbon axioms; record the choice."""
    for vec, label in candidates:
        if vec is None:
            continue
        if ribbon_axioms_pass(h, vec):
            h.ribbon = [h.field.normalize(x) for x in vec]
            h.flags["ribbon_choice"] = label
            return
    raise NoRibbonFound(h.name)


# ---------------------------------------------------------------------------
# Doubles
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _group_by_name(name: str) -> GroupTable:
    if name == "Z2":
        return cyclic_group(2)
    if name == "Z3":
        return cyclic_group(3)
    if name == "S3":
        return symmetric_group_3()
    raise CatalogError(f"unknown group {name}")


def double_of_group(group: GroupTable, field: Field = QQ) -> HopfData:
    """D(k[G]) with the canonical R-matrix and a verified ribbon element."""
    h = group_algebra(group, field)
    d = drinfeld_double(h)
    F = field
    n = group.order
    u = d.drinfeld_element()
    w = d.zero_vector()
    for g in range(n):
        w[g * n + g] = F.one  # sum over g of (delta_g x g)
    candidates = [
        (u, "drinfeld_element"),
        (_element_inverse(d, u), "drinfeld_element_inverse"),
        (w, "diagonal_sum"),
        (_element_inverse(d, w), "diagonal_sum_inverse"),
    ]
    attach_verified_ribbon(d, candidates)
    d.flags["simple_modules"] = _double_group_simple_modules(group, F)
    return d


def _double_group_simple_modules(group: GroupTable, field: Field) -> list[dict]:
    if field is not QQ or group.name != "Z2":
        return []
    out = []
    n = group.order
    for x in range(n):
        for sign in (1, -1):
            action = {}
            for a in range(n):
                for b in range(n):
                    val = (1 if a == x else 0) * (sign if b == 1 else 1)
                    action[a * n + b] = [[val]]
            name = f"chi_{x}_{'-' if sign < 0 else '+'}"
            out.append({"name": name, "dim": 1, "action": action})
    return out


# ---------------------------------------------------------------------------
# Sweedler algebra and its double
# ---------------------------------------------------------------------------


def sweedler(field: Field = QQ) -> HopfData:
    """The 4-dimensional Sweedler Hopf algebra on {1, g, x, gx}.

    g^2 = 1, x^2 = 0, xg = -gx, Delta(g) = g x g, Delta(x) = x x 1 + g x x,
    S(g) = g, S(x) = -gx.
    """
    F = field
    one, g, x, gx = 0, 1, 2, 3
    mult = [[{} for _ in range(4)] for _ in range(4)]

    def put(i, j, k, c=1):
        mult[i][j][k] = F.from_int(c)

    for a in range(4):
        put(one, a, a)
        if a != one:
            put(a, one, a)
    put(g, g, one)
    put(g, x, gx)
    put(g, gx, x)
    put(x, g, gx, -1)
    # x*x = 0, x*gx = 0, gx*x = 0, gx*gx = 0 (omitted entries are zero)
    put(gx, g, x, -1)

    unit = [F.one, F.zero, F.zero, F.zero]
    comult = [
        {(one, one): F.one},
        {(g, g): F.one},
        {(x, one): F.one, (g, x): F.one},
        {(gx, g): F.one, (one, gx): F.one},
    ]
    counit = [F.one, F.one, F.zero, F.zero]
    antipode = Matrix(F, 4, 4)
    antipode.rows[one][one] = F.one
    antipode.rows[g][g] = F.one
    antipode.rows[gx][x] = F.neg(F.one)
    antipode.rows[x][gx] = F.one
    flags = {
        "simple_modules": [
            {"name": "trivial", "dim": 1, "action": {0: [[1]], 1: [[1]], 2: [[0]], 3: [[0]]}},
            {"name": "sign", "dim": 1, "action": {0: [[1]], 1: [[-1]], 2: [[0]], 3: [[0]]}},
        ]
    }
    return HopfData(
        name="H4",
        field=F,
        dim=4,
        basis_labels=["1", "g", "x", "gx"],
        mult=mult,
        unit=unit,
        comult=comult,
        counit=counit,
        antipode=antipode,
        generators=[g, x],
        flags=flags,
    )


def _sweedler_double_grouplikes(d: HopfData) -> list[list]:
    """The four grouplikes of D(H4): characters of H4 paired with 1 and g."""
    F = d.field
    n = 4
    out = []
    for chi_g in (1, -1):  # chi(1), chi(g), chi(x) = chi(gx) = 0
        chi = [F.one, F.from_int(chi_g), F.zero, F.zero]
        for grp in (0, 1):  # group part 1 or g
            vec = d.zero_vector()
            for a in range(n):
                if not F.is_zero(chi[a]):
                    vec[a * n + grp] = chi[a]
            if d.is_grouplike(vec):
                out.append(vec)
    return out


def sweedler_double(field: Field = QQ) -> HopfData:
    """D(H4): quasitriangular, factorizable, unimodular, non-semisimple.

    Any ribbon element of a quasitriangular Hopf algebra has the form
    (grouplike shift of the Drinfeld element), and the grouplikes of a tensor
    coalgebra are exactly the tensors of grouplikes, so the candidate list
    below is exhaustive.  For D(H4) every candidate fails (the antipode swaps
    the two central candidates that satisfy the coproduct axiom), so no
    ribbon element exists; the search outcome is recorded and the algebra is
    returned ribbon-free, usable for all non-ribbon checks.
    """
    d = drinfeld_double(sweedler(field))
    u = d.drinfeld_element()
    uinv = _element_inverse(d, u)
    candidates: list[tuple[list, str]] = [(u, "drinfeld_element"), (uinv, "drinfeld_element_inverse")]
    for i, ell in enumerate(_sweedler_double_grouplikes(d)):
        ell_inv = _element_inverse(d, ell)
        if ell_inv is None:
            continue
        candidates.append((d.multiply(u, ell_inv), f"u*g{i}^-1"))
        candidates.append((d.multiply(ell_inv, u), f"g{i}^-1*u"))
        candidates.append((d.multiply(uinv, ell), f"u^-1*g{i}"))
        candidates.append((d.multiply(ell, uinv), f"g{i}*u^-1"))
    try:
        attach_verified_ribbon(d, candidates)
    except NoRibbonFound:
        d.flags["ribbon_search"] = "exhausted: no grouplike shift of the Drinfeld element verifies"
    return d


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def get(name: str) -> HopfData:
    """Resolve a catalog name like ``group:S3``, ``double:Z2``, ``sweedler``."""
    if name in ("sweedler", "H4"):
        return sweedler()
    if name in ("double:sweedler", "double:H4", "D(H4)"):
        return sweedler_double()
    if name.startswith("group:"):
        return group_algebra(_group_by_name(name.split(":", 1)[1]))
    if name.startswith("double:"):
        return double_of_group(_group_by_name(name.split(":", 1)[1]))
    raise CatalogError(f"unknown catalog entry {name!r}")


def catalog_names() -> list[str]:
    return [
        "group:Z2",
        "group:Z3",
        "group:S3",
        "double:Z2",
        "double:Z3",
        "double:S3",
        "sweedler",
        "double:sweedler",
    ]


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def _coeff_to_json(field: Field, c):
    return field.format(field.normalize(c))


def _coeff_from_json(field: Field, s):
    try:
        return field.parse(s)
    except Exception as exc:
        raise ParseError(f"bad coefficient {s!r}: {exc}") from exc


def to_json(h: HopfData) -> dict:
    F = h.field
    mult = []
    for i in range(h.dim):
        for j in range(h.dim):
            for k, c in h.mult[i][j].items():
                mult.append([i, j, k, _coeff_to_json(F, c)])
    comult = []
    for i in range(h.dim):
        for (j, k), c in h.comult[i].items():
            comult.append([i, j, k, _coeff_to_json(F, c)])
    antipode = []
    for i, row in enumerate(h.antipode.rows):
        for j, c in row.items():
            antipode.append([i, j, _coeff_to_json(F, c)])
    doc = {
        "name": h.name,
        "field": F.to_json(),
        "dim": h.dim,
        "basis": h.basis_labels,
        "unit": [_coeff_to_json(F, c) for c in h.unit],
        "counit": [_coeff_to_json(F, c) for c in h.counit],
        "mult": sorted(mult, key=lambda t: t[:3]),
        "comult": sorted(comult, key=lambda t: t[:3]),
        "antipode": sorted(antipode, key=lambda t: t[:2]),
    }
    if h.r_matrix is not None:
        doc["r_matrix"] = sorted(
            [[i, j, _coeff_to_json(F, c)] for (i, j), c in h.r_matrix.items()],
            key=lambda t: t[:2],
        )
    if h.ribbon is not None:
        doc["ribbon"] = [_coeff_to_json(F, c) for c in h.ribbon]
    if h.generators is not None:
        doc["generators"] = sorted(h.generators)
    if h.flags:
        doc["flags"] = _flags_to_json(h.flags)
    return doc


def _flags_to_json(flags: dict) -> dict:
    out = {}
    for k, v in flags.items():
        if k == "simple_modules":
            out[k] = [
                {
                    "name": m["name"],
                    "dim": m["dim"],
                    "action": {str(i): rows for i, rows in m["action"].items()},
                }
                for m in v
            ]
        else:
            out[k] = v
    return out


def _flags_from_json(doc: dict) -> dict:
    out = {}
    for k, v in doc.items():
        if k == "simple_modules":
            out[k] = [
                {
                    "name": m["name"],
                    "dim": m["dim"],
                    "action": {int(i): rows for i, rows in m["action"].items()},
                }
                for m in v
            ]
        else:
            out[k] = v
    return out


def _json_int(x, what: str) -> int:
    """x itself when it is a JSON integer (not a bool, float or string), else
    ``ParseError``."""
    if type(x) is not int:
        raise ParseError(f"{what} {x!r} is not an integer")
    return x


def _tensor_entries(field: Field, dim: int, entries, arity: int) -> list[tuple[list[int], object]]:
    """The (indices, coefficient) pairs of a sparse tensor in the file format.

    Each index must be an integer in 0..dim-1, else ``DimensionMismatch``
    (as for generator indices; a negative index would otherwise wrap to the
    last row).  Zero coefficients are dropped, so every stored structure
    constant is nonzero.
    """
    out = []
    for *idx, c in entries:
        if len(idx) != arity or any(type(x) is not int for x in idx):
            raise ParseError(f"entry {[*idx, c]!r} is not {arity} integer indices and a coefficient")
        if not all(0 <= x < dim for x in idx):
            raise DimensionMismatch(f"entry {[*idx, c]!r} has an index outside 0..{dim - 1}")
        v = _coeff_from_json(field, c)
        if not field.is_zero(v):
            out.append((idx, v))
    return out


def from_json(doc: dict, validate: bool = True) -> HopfData:
    try:
        if not isinstance(doc["name"], str):
            raise ParseError(f"name {doc['name']!r} is not a string")
        field = field_from_json(doc["field"])
        dim = _json_int(doc["dim"], "dim")
        if dim != len(doc["basis"]):  # before allocating dim x dim products
            raise DimensionMismatch(f"dim {dim} but {len(doc['basis'])} basis labels")
        mult = [[{} for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), c in _tensor_entries(field, dim, doc["mult"], 3):
            mult[i][j][k] = c
        comult = [dict() for _ in range(dim)]
        for (i, j, k), c in _tensor_entries(field, dim, doc["comult"], 3):
            comult[i][(j, k)] = c
        antipode = Matrix(field, dim, dim)
        for (i, j), c in _tensor_entries(field, dim, doc["antipode"], 2):
            antipode.rows[i][j] = c
        r_matrix = None
        if "r_matrix" in doc:
            r_matrix = {(i, j): c for (i, j), c in _tensor_entries(field, dim, doc["r_matrix"], 2)}
        ribbon = None
        if "ribbon" in doc:
            ribbon = [_coeff_from_json(field, c) for c in doc["ribbon"]]
        h = HopfData(
            name=doc["name"],
            field=field,
            dim=dim,
            basis_labels=list(doc["basis"]),
            mult=mult,
            unit=[_coeff_from_json(field, c) for c in doc["unit"]],
            comult=comult,
            counit=[_coeff_from_json(field, c) for c in doc["counit"]],
            antipode=antipode,
            r_matrix=r_matrix,
            ribbon=ribbon,
            generators=[_json_int(g, "generator") for g in doc["generators"]] if "generators" in doc else None,
            flags=_flags_from_json(doc.get("flags", {})),
        )
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, FieldError) as exc:
        # a field of the wrong JSON type surfaces as one of these
        raise ParseError(f"malformed algebra file: {exc}") from exc
    if validate:
        report = h.validate()
        if not report.passed:
            raise ValidationFailed(report)
    return h


def save(h: HopfData, path: str | Path) -> None:
    doc = to_json(h)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def load(path: str | Path, validate: bool = True) -> HopfData:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return from_json(doc, validate=validate)


def resolve(name_or_path: str, validate: bool = True) -> HopfData:
    """A catalog name or a path to an algebra file.

    An argument that is no catalog name is read as a file when it exists or
    looks like a path (it has a directory part or a ``.json`` suffix), so a
    missing file raises ``FileNotFoundError``, not ``CatalogError``.
    ``validate=False`` skips the axiom check on load, for a caller that runs
    its own ``validate`` once.
    """
    try:
        return get(name_or_path)
    except CatalogError:
        path = Path(name_or_path)
        if path.exists() or len(path.parts) > 1 or path.suffix == ".json":
            return load(path, validate=validate)
        raise
