import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from hopfblocks import catalog, hopf
from hopfblocks.fields import QQ, CyclotomicField, PrimeField
from hopfblocks.catalog import (
    CatalogError,
    GroupTable,
    ParseError,
    ValidationFailed,
    cyclic_group,
    double_of_group,
    from_json,
    group_algebra,
    load,
    save,
    symmetric_group_3,
    to_json,
)
from oracles import (
    dihedral_group_4,
    element_multiplicative_order,
    group_by_name,
    group_table_defect,
    searched_grouplikes,
    sweedler_by_table,
)


def test_group_tables():
    z3 = cyclic_group(3)
    assert z3.order == 3 and z3.identity == 0
    s3 = symmetric_group_3()
    assert s3.order == 6
    assert sorted(s3.inverse) == list(range(6))
    groups = [cyclic_group(n) for n in range(1, 7)] + [s3, dihedral_group_4()]
    assert [group_table_defect(g) for g in groups] == [None] * 8
    assert [g.order for g in groups] == [1, 2, 3, 4, 5, 6, 6, 8]
    with pytest.raises(KeyError):  # not closed: (1,2,0)^2 = (2,0,1) is missing
        GroupTable("bad", ["e", "r"], [(0, 1, 2), (1, 2, 0)], [1])


def test_group_table_oracle_flags_broken_tables():
    def table(rows, identity=0, inverse=(0, 1)):
        return SimpleNamespace(table=rows, order=len(rows), identity=identity, inverse=list(inverse))

    assert group_table_defect(table([[0, 0], [1, 1]])) == "a row is not a permutation"
    assert group_table_defect(table([[1, 0], [1, 0]])) == "a column is not a permutation"
    assert group_table_defect(table([[0, 1], [1, 0]], identity=1)) == "1 is not an identity"
    assert group_table_defect(table([[0, 1], [1, 0]], inverse=(0, 0))) == "0 is not an inverse of 1"
    assert group_table_defect(table([[0, 1], [1, 0], [0, 1]])) == "table is not square"
    # x * y = -x - y mod 3: a Latin square, not associative
    assert group_table_defect(table([[0, 2, 1], [2, 1, 0], [1, 0, 2]])) == "not associative at (0, 0, 1)"


def test_group_algebra_shapes():
    assert group_algebra(cyclic_group(2)).dim == 2
    assert group_algebra(cyclic_group(3)).dim == 3
    h = group_algebra(symmetric_group_3())
    assert h.dim == 6
    assert not h.is_commutative()[0]


def test_double_names_and_orders():
    expected = {"double:Z2": (4, 2), "double:Z3": (9, 3), "double:S3": (36, 6)}
    for name, (dim, order) in expected.items():
        d = catalog.get(name)
        assert d.dim == dim
        assert element_multiplicative_order(d, d.ribbon) == order


def test_shipped_ribbons_verified():
    for name in ("double:Z2", "double:Z3", "double:S3"):
        d = catalog.get(name)
        assert all(passed for _, passed, _ in d.ribbon_battery(d.ribbon))
        assert "ribbon_choice" in d.flags


def test_double_of_abelian_commutative():
    assert catalog.get("double:Z2").is_commutative()[0]
    assert catalog.get("double:Z3").is_commutative()[0]
    assert not catalog.get("double:S3").is_commutative()[0]


def test_resolve_unknown():
    with pytest.raises(CatalogError):
        catalog.resolve("double:Q8")
    with pytest.raises(CatalogError):
        catalog.get("group:Z4")


def test_sweedler_aliases():
    for alias, name in (("H4", "sweedler"), ("double:H4", "double:sweedler"), ("D(H4)", "double:sweedler")):
        assert alias not in catalog.catalog_names()
        assert catalog.to_json(catalog.get(alias)) == catalog.to_json(catalog.get(name)), alias


def test_readme_catalog_table_lists_every_name():
    # the README's catalog table: every name catalog_names() lists, in
    # order, with the dimension it builds to, and no other row
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Catalog\n", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()
            if line.startswith("| `")]
    assert [row[0] for row in rows] == [f"`{name}`" for name in catalog.catalog_names()]
    assert [int(row[2]) for row in rows] == [catalog.get(name).dim for name in catalog.catalog_names()]


# -- JSON round trips -------------------------------------------------------------


# the doubles behind the benchmark's seeded files, as built by perfbench/inputs.py
BENCH_ALGEBRAS = {
    "ds3_q": ("S3", QQ),
    "ds3_zeta3": ("S3", CyclotomicField(3)),
    "ds3_f7": ("S3", PrimeField(7)),
    "dz3_zeta12": ("Z3", CyclotomicField(12)),
}


@pytest.mark.parametrize("name", catalog.catalog_names() + list(BENCH_ALGEBRAS))
def test_save_load_round_trip(tmp_path, name):
    if name in BENCH_ALGEBRAS:
        group, field = BENCH_ALGEBRAS[name]
        h = double_of_group(symmetric_group_3() if group == "S3" else cyclic_group(3), field)
    else:
        h = catalog.get(name)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save(h, p1)
    h2 = load(p1)
    save(h2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert h2.dim == h.dim
    assert h2.validate().passed


def test_load_runs_validation(tmp_path):
    h = catalog.get("group:Z2")
    doc = to_json(h)
    # corrupt the multiplication: make it non-associative / non-unital
    doc["mult"] = [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 1, "1"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationFailed) as err:
        load(path)
    failed_names = {c.name for c in err.value.report.failures()}
    assert failed_names  # names the failing axiom(s)


def test_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load(path)
    path2 = tmp_path / "fields.json"
    path2.write_text(json.dumps({"name": "x", "field": {"kind": "Q"}, "dim": 1}))
    with pytest.raises(ParseError):
        load(path2)


def test_externally_produced_file_gate(tmp_path):
    # an arbitrary user file is accepted iff all axioms verify
    h = catalog.get("double:Z2")
    doc = to_json(h)
    path = tmp_path / "user.json"
    path.write_text(json.dumps(doc))
    loaded = load(path)
    assert loaded.validate().passed
    assert loaded.r_matrix is not None and loaded.ribbon is not None
    doc["ribbon"] = ["0"] * 4  # not invertible, not a ribbon element
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationFailed):
        load(path)


def test_from_json_rejects_bad_coefficient():
    h = catalog.get("group:Z2")
    doc = to_json(h)
    doc["unit"] = ["1", "zebra"]
    with pytest.raises(ParseError):
        from_json(doc)


def test_resolve_path(tmp_path):
    h = catalog.get("group:Z3")
    path = tmp_path / "z3.json"
    save(h, path)
    loaded = catalog.resolve(str(path))
    assert loaded.dim == 3


RIBBON_FIELDS = {"Q": QQ, "F2": PrimeField(2), "F3": PrimeField(3), "F7": PrimeField(7),
                 "Qzeta3": CyclotomicField(3)}
RIBBON_CHOICES = {"Z2": "drinfeld_element", "Z3": "drinfeld_element_inverse", "S3": "drinfeld_element_inverse"}


@pytest.mark.parametrize("field", sorted(RIBBON_FIELDS))
@pytest.mark.parametrize("group", sorted(RIBBON_CHOICES))
def test_group_double_ribbon_choice(group, field):
    table = group_by_name(group)
    d = double_of_group(table, RIBBON_FIELDS[field])
    assert d.flags["ribbon_choice"] == RIBBON_CHOICES[group]
    # sum_g delta_g x g is u^-1, so it needs no candidate of its own
    F, n = d.field, table.order
    w = {g * n + g: F.one for g in range(n)}
    assert d.sparse_eq(w, d.element_inverse(d.drinfeld_element()))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(7), CyclotomicField(3),
                                   CyclotomicField(12)], ids=str)
def test_taft_two_is_the_sweedler_algebra(field):
    # the catalog's H4, T_2 at zeta = -1, is the hand-written Sweedler algebra
    # entry for entry, and so are the doubles built on each
    table = sweedler_by_table(field)
    assert to_json(catalog.sweedler(field)) == to_json(table)
    assert to_json(hopf.drinfeld_double(catalog.sweedler(field))) == to_json(hopf.drinfeld_double(table))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_taft_algebras_validate(n):
    F = CyclotomicField(n)
    assert catalog.taft(n, F, F.zeta()).validate().passed


TAFT_DOUBLES = {"T2/Q": (2, QQ, -1), "T2/F3": (2, PrimeField(3), -1),
                "T3/Qzeta3": (3, CyclotomicField(3), None), "T3/F7": (3, PrimeField(7), 2)}


@pytest.mark.parametrize("case", sorted(TAFT_DOUBLES))
def test_taft_double_grouplikes_in_closed_form(case):
    # the n^2 grouplikes chi_k x g^l that the ribbon search of D(T_n) tries
    n, F, z = TAFT_DOUBLES[case]
    zeta = F.zeta() if z is None else F.from_int(z)
    d, grouplikes = searched_grouplikes(catalog.taft_double, catalog.taft(n, F, zeta))
    assert len(grouplikes) == n * n
    assert len({tuple(d.element(ell).items()) for ell in grouplikes}) == n * n
    for ell in grouplikes:
        assert F.eq(d.counit_of(ell), F.one)
        assert d.sparse_eq(d.comult_of(ell), d.t2_pure(ell, ell))
        assert d.sparse_eq(d.product(ell, d.antipode_of(ell)), d.unit)


def test_solver_defects_are_not_read_as_non_invertible(monkeypatch):
    # only a LinAlgError means "no inverse"; any other error is a defect
    h = double_of_group(cyclic_group(2))

    def broken(*args):
        raise TypeError("defect in the solver")

    monkeypatch.setattr(hopf, "_sequence_annihilator", broken)
    with pytest.raises(TypeError):
        all(passed for _, passed, _ in h.ribbon_battery(h.ribbon))
    with pytest.raises(TypeError):
        h.element_inverse(h.ribbon)
