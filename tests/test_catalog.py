import json

import pytest

from hopfblocks import catalog, hopf, linalg
from hopfblocks.catalog import (
    CatalogError,
    GroupTable,
    NotAGroup,
    ParseError,
    ValidationFailed,
    cyclic_group,
    double_of_group,
    from_json,
    group_algebra,
    load,
    ribbon_axioms_pass,
    save,
    symmetric_group_3,
    to_json,
)
from oracles import element_multiplicative_order


def test_group_tables():
    z3 = cyclic_group(3)
    assert z3.order == 3 and z3.identity == 0
    s3 = symmetric_group_3()
    assert s3.order == 6
    assert sorted(s3.inverse) == list(range(6))


def test_not_a_group():
    with pytest.raises(NotAGroup):
        GroupTable("bad", ["a", "b"], [[0, 0], [1, 1]], [])
    with pytest.raises(NotAGroup):
        GroupTable("bad", ["a", "b"], [[1, 0], [1, 0]], [])


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
        assert ribbon_axioms_pass(d, d.ribbon)
        assert "ribbon_choice" in d.flags


def test_double_of_abelian_commutative():
    assert catalog.get("double:Z2").is_commutative()[0]
    assert catalog.get("double:Z3").is_commutative()[0]
    assert not catalog.get("double:S3").is_commutative()[0]


def test_resolve_unknown():
    with pytest.raises(CatalogError):
        catalog.resolve("double:Q8")


# -- JSON round trips -------------------------------------------------------------


@pytest.mark.parametrize("name", ["group:S3", "double:Z2", "sweedler", "double:sweedler"])
def test_save_load_round_trip(tmp_path, name):
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


def test_solver_defects_are_not_read_as_non_invertible(monkeypatch):
    # only a LinAlgError means "no inverse"; any other error is a defect
    h = double_of_group(cyclic_group(2))

    def broken(*args):
        raise TypeError("defect in the solver")

    monkeypatch.setattr(linalg, "solve_unique", broken)
    monkeypatch.setattr(hopf, "solve_unique", broken)
    with pytest.raises(TypeError):
        ribbon_axioms_pass(h, h.ribbon)
    with pytest.raises(TypeError):
        catalog._element_inverse(h, h.ribbon)
    with pytest.raises(TypeError):
        h.element_inverse(h.ribbon)
