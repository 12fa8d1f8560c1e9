"""Constructively specified example algebras and the on-disk algebra format.

Shipped entries: group algebras of Z/2, Z/3, S3; their Drinfeld doubles with
machine-verified ribbon elements; the Sweedler algebra H4 = T_2 at zeta = -1
(``taft``) and its double (``taft_double``); and ``double:T3``, the
81-dimensional double D(T_3) over Q(zeta_3), non-semisimple, ribbon and
factorizable.  Every double is searched by one routine,
``_attach_double_ribbon``: the Drinfeld element u, then u^-1,
then u l^-1, l^-1 u, u^-1 l and l u^-1 for each grouplike l the constructor
supplies (the n^2 of D(T_n) in closed form, four for D(H4); none for
D(k[G])), until one passes the full ribbon-axiom battery.  Candidates are
sparse elements, like every element of a ``HopfData``.

In the file format ``unit``, ``counit`` and ``ribbon`` are dense lists of
dim coefficients and every tensor is a sorted list of index tuples with a
coefficient.  ``from_json`` turns the unit and the ribbon into sparse
elements and ``to_json`` writes them back as the same lists.  A
``simple_modules`` flag is accepted and shape-checked, and written back as
read; no module is built from it.
"""

from __future__ import annotations

import json
from math import isqrt
from pathlib import Path

from .fields import CyclotomicField, Field, FieldError, QQ, field_from_json
from .hopf import DimensionMismatch, HopfData, Matrix, StructureReport, drinfeld_double


class CatalogError(Exception):
    pass


class ParseError(CatalogError):
    pass


class ValidationFailed(CatalogError):
    def __init__(self, report: StructureReport):
        self.report = report
        names = ", ".join(c.name for c in report.failures())
        super().__init__(f"validation failed for {report.algebra}: {names}")


# ---------------------------------------------------------------------------
# Finite groups as permutations
# ---------------------------------------------------------------------------


def _perm_compose(p: tuple, q: tuple) -> tuple:
    # (p q)(x) = p(q(x))
    return tuple(p[q[i]] for i in range(len(p)))


class GroupTable:
    """A finite group given by its elements as permutations, with labels and
    generators (indices into the elements).

    Each element is an image tuple, p[x] the image of x, and the list must be
    closed under composition.  The multiplication table, the identity and
    the inverses are read off the permutations: ``table[i][j]`` is the index
    of elements[i] elements[j] (``_perm_compose``), ``identity`` the index of
    the identity permutation and ``inverse[i]`` that of the inverse of
    elements[i].  Composition of permutations is associative, so the table
    needs no audit; a list that is not closed fails at the index lookup.
    """

    def __init__(self, name: str, labels: list[str], elements: list[tuple], generators: list[int]):
        self.name = name
        self.labels = labels
        self.generators = list(generators)
        self.order = len(elements)
        index = {p: i for i, p in enumerate(elements)}
        self.table = [[index[_perm_compose(p, q)] for q in elements] for p in elements]
        points = range(len(elements[0]))
        self.identity = index[tuple(points)]
        # sorting the points by their images lists the preimage of each point
        self.inverse = [index[tuple(sorted(points, key=p.__getitem__))] for p in elements]

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]


def cyclic_group(n: int) -> GroupTable:
    """Z/n as the shifts x -> x + k mod n, k = 0..n-1."""
    labels = [f"g{k}" if k else "e" for k in range(n)]
    shifts = [tuple((x + k) % n for x in range(n)) for k in range(n)]
    gens = [1] if n > 1 else []
    return GroupTable(f"Z{n}", labels, shifts, gens)


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
    return GroupTable("S3", labels, elements, generators=[1, 4])


# ---------------------------------------------------------------------------
# Group algebras
# ---------------------------------------------------------------------------


def group_algebra(group: GroupTable, field: Field = QQ) -> HopfData:
    """k[G]: basis = group elements, Delta(g) = g x g, S(g) = g^-1."""
    n = group.order
    F = field
    mult = [[{group.mul(i, j): F.one} for j in range(n)] for i in range(n)]
    unit = {group.identity: F.one}
    comult = [{(i, i): F.one} for i in range(n)]
    counit = [F.one] * n
    antipode = Matrix(F, n, n)
    for j in range(n):
        antipode.rows[group.inverse[j]][j] = F.one
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
        flags={"group": group.name},
    )


# ---------------------------------------------------------------------------
# Doubles
# ---------------------------------------------------------------------------


def _attach_double_ribbon(d: HopfData, grouplikes=()) -> None:
    """Attach the first ribbon candidate of a double that verifies, and
    record its label as ``ribbon_choice``; when none verifies, record that in
    ``ribbon_search`` and leave the double ribbon-free.

    The candidates, in order: the Drinfeld element u, its inverse, and for
    each grouplike l the shifts u l^-1, l^-1 u, u^-1 l and l u^-1, with
    l^-1 = S(l) (S(l) l = eps(l) 1).  A candidate verifies when it passes the
    whole battery of ``HopfData.ribbon_battery``: central, invertible,
    eps(v) = 1, S(v) = v and Delta(v) = (R21 R)(v x v).
    """
    u = d.drinfeld_element()
    uinv = d.element_inverse(u)
    candidates = [(u, "drinfeld_element"), (uinv, "drinfeld_element_inverse")]
    for i, ell in enumerate(grouplikes):
        ell_inv = d.antipode_of(ell)
        candidates.append((d.product(u, ell_inv), f"u*g{i}^-1"))
        candidates.append((d.product(ell_inv, u), f"g{i}^-1*u"))
        candidates.append((d.product(uinv, ell), f"u^-1*g{i}"))
        candidates.append((d.product(ell, uinv), f"g{i}*u^-1"))
    for vec, label in candidates:
        if all(passed for _, passed, _ in d.ribbon_battery(vec)):
            d.ribbon = d.element(vec)
            d.flags["ribbon_choice"] = label
            return
    d.flags["ribbon_search"] = "exhausted: no grouplike shift of the Drinfeld element verifies"


def double_of_group(group: GroupTable, field: Field = QQ) -> HopfData:
    """D(k[G]) with the canonical R-matrix and a verified ribbon element.

    The ribbon candidates are the Drinfeld element u and u^-1, with no
    grouplike shift.  The element sum_g delta_g x g needs no candidate of its
    own: it is u^-1, as (delta_g x g^-1)(delta_h x h) = delta_{g,h} delta_g x 1.

    It declares as generators the elements delta_a x g, for a in G and g a
    generator of G (``hopf._double_generators``): 12 of the 36 basis
    elements of D(S3).
    """
    d = drinfeld_double(group_algebra(group, field))
    _attach_double_ribbon(d)
    return d


# ---------------------------------------------------------------------------
# Taft algebras, the Sweedler algebra T_2 and their doubles
# ---------------------------------------------------------------------------


def taft(n: int, field: Field, zeta) -> HopfData:
    """The Taft algebra T_n (E. Taft, PNAS 68, 1971) at a primitive n-th root
    of unity zeta: g^n = 1, x^n = 0, x g = zeta g x, Delta(g) = g x g and
    Delta(x) = x x 1 + g x x, on the basis g^i x^j at index i + n j, with
    generators [g, x].  Its structure constants:
    (g^i x^j)(g^k x^l) = zeta^(jk) g^(i+k) x^(j+l);
    Delta(g^i x^j) = sum_m [j m]_zeta g^(i+m) x^(j-m) x g^i x^m (Gaussian
    binomial); S(g^i x^j) = (-1)^j zeta^(-j(j-1)/2 - ij) g^(-i-j) x^j.
    """
    F = field
    zp = [F.one]  # zeta^k is zp[k mod n], as zeta^n = 1
    for _ in range(1, n):
        zp.append(F.mul(zp[-1], zeta))
    binom = [[F.one]]  # binom[j][m] = [j m]_zeta = [j-1 m-1] + zeta^m [j-1 m]
    for j in range(1, n):
        prev = binom[-1] + [F.zero]
        binom.append([F.add(prev[m - 1] if m else F.zero, F.mul(zp[m], prev[m])) for m in range(j + 1)])

    def idx(i, j):
        return i % n + n * j

    def label(i, j):
        word = ("g" if i == 1 else f"g{i}" if i else "") + ("x" if j == 1 else f"x{j}" if j else "")
        return word or "1"

    dim = n * n
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    comult = [{(idx(i + m, j - m), idx(i, m)): binom[j][m] for m in range(j + 1)} for j in range(n) for i in range(n)]
    antipode = Matrix(F, dim, dim)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n - j):
                    mult[idx(i, j)][idx(k, l)] = {idx(i + k, j + l): zp[j * k % n]}
            antipode.rows[idx(-i - j, j)][idx(i, j)] = F.mul(F.from_int((-1) ** j), zp[(-j * (j - 1) // 2 - i * j) % n])
    return HopfData(
        name=f"T{n}",
        field=F,
        dim=dim,
        basis_labels=[label(i, j) for j in range(n) for i in range(n)],
        mult=mult,
        unit={0: F.one},
        comult=comult,
        counit=[F.one if a < n else F.zero for a in range(dim)],
        antipode=antipode,
        generators=[1, n],
    )


def taft_double(t: HopfData) -> HopfData:
    """D(T_n) for a Taft algebra t (``taft``, under any name) with the first
    ribbon candidate that verifies.  Any ribbon element is a grouplike shift
    of the Drinfeld element, and the grouplikes of D(T_n) are the n^2
    tensors chi_k x g^l (chi_k(g) = zeta^k, chi_k(x) = 0), k-major: the
    elements sum_i zeta^(ki) e^(g^i) x g^l at index i n^2 + l, with zeta^k
    read off x g^k = zeta^k g^k x in t.  So the search is exhaustive.
    """
    n = isqrt(t.dim)
    powers = [t.mult[n][k][n + k] for k in range(n)]
    grouplikes = [{i * n * n + l: powers[k * i % n] for i in range(n)} for k in range(n) for l in range(n)]
    d = drinfeld_double(t)
    _attach_double_ribbon(d, grouplikes)
    return d


def sweedler(field: Field = QQ) -> HopfData:
    """H4, the 4-dimensional Sweedler algebra on {1, g, x, gx}: T_2 at zeta = -1."""
    h = taft(2, field, field.from_int(-1))
    h.name = "H4"
    return h


def sweedler_double(field: Field = QQ) -> HopfData:
    """D(H4): quasitriangular, factorizable, unimodular, non-semisimple.  No
    ribbon element exists: every candidate of ``taft_double``'s exhaustive
    search fails (the antipode swaps the two central candidates that satisfy
    the coproduct axiom), so D(H4) is ribbon-free with the outcome recorded."""
    return taft_double(sweedler(field))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _taft_double_3() -> HopfData:
    field = CyclotomicField(3)
    return taft_double(taft(3, field, field.parse([0, 1])))  # zeta_3, the residue of x


# Every catalog name and its builder, in ``catalog_names`` order.
CATALOG = {
    "group:Z2": lambda: group_algebra(cyclic_group(2)),
    "group:Z3": lambda: group_algebra(cyclic_group(3)),
    "group:S3": lambda: group_algebra(symmetric_group_3()),
    "double:Z2": lambda: double_of_group(cyclic_group(2)),
    "double:Z3": lambda: double_of_group(cyclic_group(3)),
    "double:S3": lambda: double_of_group(symmetric_group_3()),
    "sweedler": sweedler,
    "double:sweedler": sweedler_double,
    "double:T3": _taft_double_3,
}
_ALIASES = {"H4": "sweedler", "double:H4": "double:sweedler", "D(H4)": "double:sweedler"}


def get(name: str) -> HopfData:
    """Resolve a catalog name like ``group:S3``, ``double:Z2``, ``sweedler``,
    or an alias of the Sweedler algebra (``H4``) or its double.

    Each call builds a fresh algebra: what is computed on one (its
    ``_cache`` of blocks, twists and actions) is never shared with another
    caller.
    """
    build = CATALOG.get(_ALIASES.get(name, name))
    if build is None:
        raise CatalogError(f"unknown catalog entry {name!r}")
    return build()


def catalog_names() -> list[str]:
    return list(CATALOG)


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
    basis = range(h.dim)

    def tensor(entries) -> list[list]:
        # (indices, coefficient) pairs as the file's sorted [*indices, coefficient]
        # lists; the indices of one tensor are unique, so the coefficient never sorts
        return sorted([*idx, _coeff_to_json(F, c)] for idx, c in entries)

    doc = {
        "name": h.name,
        "field": F.to_json(),
        "dim": h.dim,
        "basis": h.basis_labels,
        "unit": _dense_to_json(F, h.dim, h.unit),
        "counit": [_coeff_to_json(F, c) for c in h.counit],
        "mult": tensor(((i, j, k), c) for i in basis for j in basis for k, c in h.mult[i][j].items()),
        "comult": tensor(((i, *jk), c) for i in basis for jk, c in h.comult[i].items()),
        "antipode": tensor(((i, j), c) for i, row in enumerate(h.antipode.rows) for j, c in row.items()),
    }
    if h.r_matrix is not None:
        doc["r_matrix"] = tensor(h.r_matrix.items())
    if h.ribbon is not None:
        doc["ribbon"] = _dense_to_json(F, h.dim, h.ribbon)
    if h.generators is not None:
        doc["generators"] = sorted(h.generators)
    if h.flags:
        doc["flags"] = dict(h.flags)
    return doc


def _dense_to_json(field: Field, dim: int, x: dict) -> list:
    """A sparse element as the file format's list of dim coefficients."""
    return [_coeff_to_json(field, x.get(i, field.zero)) for i in range(dim)]


def _element_from_json(field: Field, dim: int, values, what: str) -> dict:
    """The sparse element of a file's list of dim coefficients;
    ``DimensionMismatch`` for a list of another length."""
    coeffs = [_coeff_from_json(field, c) for c in values]
    if len(coeffs) != dim:
        raise DimensionMismatch(f"{what} length {len(coeffs)} disagrees with dim {dim}")
    return {i: c for i, c in enumerate(coeffs) if not field.is_zero(c)}


def _flags_from_json(doc: dict) -> dict:
    """The flags as read.  Each entry of the documented ``simple_modules``
    key must hold a name, a dim and an action keyed by basis index; it is
    checked for that shape and kept as read, never built into a module."""
    for m in doc.get("simple_modules", []):
        _ = (m["name"], m["dim"], [int(i) for i in m["action"].keys()])
    return dict(doc)


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
            ribbon = _element_from_json(field, dim, doc["ribbon"], "ribbon")
        generators = None
        if "generators" in doc:
            generators = [_json_int(g, "generator") for g in doc["generators"]]
            if not generators:  # every constraint system is built on them
                raise ParseError("generators is an empty list")
        h = HopfData(
            name=doc["name"],
            field=field,
            dim=dim,
            basis_labels=list(doc["basis"]),
            mult=mult,
            unit=_element_from_json(field, dim, doc["unit"], "unit"),
            comult=comult,
            counit=[_coeff_from_json(field, c) for c in doc["counit"]],
            antipode=antipode,
            r_matrix=r_matrix,
            ribbon=ribbon,
            generators=generators,
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
