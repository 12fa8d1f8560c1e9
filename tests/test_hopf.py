import copy
import random

import pytest

from hopfblocks import catalog
from hopfblocks.fields import QQ, CyclotomicField, PrimeField
from hopfblocks.hopf import (
    AntipodeNotInvertible,
    Matrix,
    MissingRibbon,
    drinfeld_double,
)
from oracles import element_multiplicative_order, jacobson_radical_dim, two_sided_span_closure_dim

ALL_CATALOG = [
    "group:Z2",
    "group:Z3",
    "group:S3",
    "double:Z2",
    "double:Z3",
    "double:S3",
    "sweedler",
    "double:sweedler",
]


@pytest.mark.parametrize("name", ALL_CATALOG)
def test_catalog_validates(name):
    h = catalog.get(name)
    report = h.validate()
    assert report.passed, [c.to_json() for c in report.failures()]


def test_group_algebra_z2_axioms():
    h = catalog.get("group:Z2")
    report = h.validate()
    assert report.passed
    assert report.is_commutative


def test_broken_antipode_fails_with_witness():
    h = catalog.group_algebra(catalog.cyclic_group(2))
    h.antipode = Matrix(QQ, 2, 2)  # zero map
    report = h.validate()
    failed = {c.name: c for c in report.failures()}
    assert "antipode" in failed
    assert failed["antipode"].witness


def _fresh(name):
    # not catalog.get: that is cached and shared, and these tests corrupt it
    s3 = catalog.symmetric_group_3()
    return {
        "double:S3": lambda: catalog.double_of_group(s3),
        "group:S3": lambda: catalog.group_algebra(s3),
        "double:sweedler": catalog.sweedler_double,
    }[name]()


def _double_one_constant(h, part):
    """Double a product of the last generator with the last basis element,
    the unit, or one coproduct entry of e_1."""
    F = h.field
    if part == "mult":
        g, j = h.generating_indices()[-1], h.dim - 1
        k, c = next(iter(h.mult[g][j].items()))
        h.mult[g][j][k] = F.add(c, c)
    elif part == "unit":
        h.unit = [F.add(x, x) for x in h.unit]
    else:
        key, c = next(iter(h.comult[1].items()))
        h.comult[1][key] = F.add(c, c)
    h._cache.clear()  # drop what was derived from the intact constants


# every failing check, in report order, with its witness
BROKEN_CONSTANTS = {
    ("double:S3", "mult"): [
        ("associativity", "((123)^*.(12), (132)^*.(123), (132)^*.(132))"),
        ("bialgebra", "Delta(e^*.(123)*e^*.(132))"),
        ("antipode", "antipode axiom fails on e^*.(123)"),
        ("r-invertible", "(S x id)R is not inverse to R"),
        ("r-intertwines-coproduct", "fails on e^*.(132)"),
        ("r-hexagon-right", "(id x Delta)R != R13 R12"),
        ("ribbon-central", "v does not commute with (132)^*.(123)"),
        ("ribbon-coproduct", "Delta(v) != (R21 R)(v x v)"),
    ],
    ("double:S3", "unit"): [
        ("unitality", "unit fails on e^*.e"),
        ("bialgebra", "1"),
        ("antipode", "antipode axiom fails on e^*.e"),
        ("r-counit", "counit legs of R are not 1"),
        ("r-invertible", "(S x id)R is not inverse to R"),
    ],
    ("double:S3", "comult"): [
        ("coassociativity", "Delta fails on e^*.(12)"),
        ("counitality", "counit fails on e^*.(12)"),
        ("bialgebra", "Delta(e^*.(12)*e^*.(12))"),
        ("antipode", "antipode axiom fails on e^*.(12)"),
        ("r-hexagon-left", "(Delta x id)R != R13 R23"),
    ],
    ("group:S3", "mult"): [
        ("associativity", "((12), (23), (132))"),
        ("bialgebra", "Delta((123)*(132))"),
        ("antipode", "antipode axiom fails on (123)"),
    ],
    ("group:S3", "unit"): [
        ("unitality", "unit fails on e"),
        ("bialgebra", "1"),
        ("antipode", "antipode axiom fails on e"),
    ],
    ("group:S3", "comult"): [
        ("counitality", "counit fails on (12)"),
        ("bialgebra", "Delta((12)*(12))"),
        ("antipode", "antipode axiom fails on (12)"),
    ],
    ("double:sweedler", "mult"): [
        ("associativity", "(1^*.g, gx^*.x, gx^*.gx)"),
        ("bialgebra", "Delta(x^*.x*x^*.gx)"),
    ],
    ("double:sweedler", "unit"): [
        ("unitality", "unit fails on 1^*.1"),
        ("bialgebra", "1"),
        ("antipode", "antipode axiom fails on 1^*.1"),
        ("r-counit", "counit legs of R are not 1"),
        ("r-invertible", "(S x id)R is not inverse to R"),
    ],
    ("double:sweedler", "comult"): [
        ("coassociativity", "Delta fails on 1^*.g"),
        ("counitality", "counit fails on 1^*.g"),
        ("bialgebra", "Delta(1^*.g*1^*.g)"),
        ("antipode", "antipode axiom fails on 1^*.g"),
        ("r-intertwines-coproduct", "fails on 1^*.g"),
        ("r-hexagon-left", "(Delta x id)R != R13 R23"),
    ],
}


@pytest.mark.parametrize("name, part", sorted(BROKEN_CONSTANTS))
def test_broken_structure_constant_fails_with_witness(name, part):
    h = _fresh(name)
    assert h.validate().passed
    _double_one_constant(h, part)
    report = h.validate()
    # D(S3) (dim 36) is checked on its generators, the others on every basis triple
    assert report.mode == ("generators" if name == "double:S3" else "full")
    assert [(c.name, c.witness) for c in report.failures()] == BROKEN_CONSTANTS[name, part]


def _associative_at(h, i, j, k):
    one = h.field.one
    return h.sparse_eq(h.product(h.mult[i][j], {k: one}), h.product({i: one}, h.mult[j][k]))


def first_nonassociative_triple(h, full):
    """Oracle: the per-triple associativity loop, in the order of ``validate``."""
    for i in range(h.dim) if full else h.generating_indices():
        for j in range(h.dim):
            for k in range(h.dim):
                if not _associative_at(h, i, j, k):
                    return i, j, k
    return None


def _associativity_witness(h, full):
    check = next(c for c in h.validate(full=full).checks if c.name == "associativity")
    return check.witness


def _expected_witness(h, triple):
    return triple and "({}, {}, {})".format(*(h.basis_labels[x] for x in triple))


@pytest.mark.parametrize("F", [QQ, PrimeField(7), CyclotomicField(3)], ids=["Q", "F7", "Qzeta3"])
def test_associativity_witness_is_first_failing_triple(F):
    pristine = [catalog.group_algebra(catalog.symmetric_group_3(), F),
                catalog.double_of_group(catalog.cyclic_group(3), F)]
    rng = random.Random(29)
    failed = 0
    for _ in range(12):
        base = rng.choice(pristine)
        h = copy.deepcopy(base, {id(F): F})
        i, j, k = (rng.randrange(h.dim) for _ in range(3))
        h.mult[i][j][k] = F.add(h.mult[i][j].get(k, F.zero), F.from_int(rng.choice([1, 2, -1])))
        if F.is_zero(h.mult[i][j][k]):
            del h.mult[i][j][k]
        for full in (True, False):
            triple = first_nonassociative_triple(h, full)
            failed += triple is not None
            assert _associativity_witness(h, full) == _expected_witness(h, triple)
    assert failed >= 12  # most corruptions break associativity


def test_associativity_witness_is_least_failing_k():
    # doubling (12)*(12) = e breaks (e_i e_j) e_k = e_i (e_j e_k) first at
    # i = j = (12), where k = e and k = (12) still hold and every later k fails
    h = _fresh("group:S3")
    h.mult[1][1] = {0: QQ.from_int(2)}
    i, j, k = first_nonassociative_triple(h, True)
    failing = [x for x in range(h.dim) if not _associative_at(h, i, j, x)]
    assert (i, j) == (1, 1) and len(failing) > 1 and failing[0] == k > 0
    for full in (True, False):
        assert _associativity_witness(h, full) == "((12), (12), (13))"


def test_sweedler_axioms_pass():
    report = catalog.get("sweedler").validate()
    assert report.passed


def test_validation_modes_agree_on_catalog():
    for name in ALL_CATALOG:
        h = catalog.get(name)
        if h.generators is None:
            continue
        full = h.validate(full=True)
        gens = h.validate(full=False)
        assert full.passed == gens.passed


# -- integrals and unimodularity ---------------------------------------------


def test_group_algebra_integral_is_sum_of_group():
    h = catalog.get("group:S3")
    left, right = h.integrals()
    assert left == [QQ.one] * 6 or left == [QQ.normalize(left[0])] * 6
    assert h.is_unimodular()


def test_sweedler_not_unimodular():
    h = catalog.get("sweedler")
    left, right = h.integrals()
    assert not h.is_unimodular()
    # left integral is (1+g)x, right is x(1+g), up to scalar
    labels = h.basis_labels
    lsupport = {labels[i] for i, c in enumerate(left) if c != 0}
    rsupport = {labels[i] for i, c in enumerate(right) if c != 0}
    assert lsupport == {"x", "gx"} and rsupport == {"x", "gx"}


def test_double_of_sweedler_unimodular():
    assert catalog.get("double:sweedler").is_unimodular()


# -- factorizability -----------------------------------------------------------


def test_doubles_factorizable():
    for name in ("double:Z2", "double:Z3", "double:S3", "double:sweedler"):
        ok, witness = catalog.get(name).is_factorizable()
        assert ok, witness


def test_factorizable_verdict_is_solved_once(monkeypatch):
    # the theorem suite asks for the verdict once per gated check
    from hopfblocks import harness
    from hopfblocks.hopf import HopfData

    h = catalog.double_of_group(catalog.cyclic_group(3))
    solved = []
    original = HopfData.drinfeld_map_matrix

    def counting(self):
        solved.append(self)
        return original(self)

    monkeypatch.setattr(HopfData, "drinfeld_map_matrix", counting)
    assert not harness.run_all(h, max_genus=1).has_failures
    assert solved == [h]
    assert h.is_factorizable() == (True, None)


def test_trivial_r_not_factorizable():
    h = catalog.group_algebra(catalog.cyclic_group(2))
    h.r_matrix = h.t2_unit()  # R = 1 x 1
    report = h.validate()
    assert report.passed  # 1x1 R is a valid (triangular) quasitriangular structure
    ok, witness = h.is_factorizable()
    assert not ok
    assert "nullity" in witness


# -- ribbon elements -------------------------------------------------------------


def test_ribbon_orders_by_repeated_multiplication():
    # independent oracle: repeated multiplication in the algebra
    expected = {"double:Z2": 2, "double:Z3": 3, "double:S3": 6}
    for name, n in expected.items():
        h = catalog.get(name)
        assert element_multiplicative_order(h, h.ribbon) == n


def test_ribbon_order_certificates():
    expected = {"double:Z2": 2, "double:Z3": 3, "double:S3": 6}
    for name, n in expected.items():
        cert = catalog.get(name).ribbon_order()
        assert cert.gl_order.is_finite and cert.gl_order.n == n


def test_left_and_right_multiplication_same_certificate():
    from hopfblocks.linalg import operator_order

    for name in ("double:Z2", "double:S3"):
        h = catalog.get(name)
        lv = h.left_mult_of(h.ribbon)
        rv = h.right_mult_of(h.ribbon)
        assert lv == rv  # the ribbon element is central
        assert operator_order(lv).to_json() == operator_order(rv).to_json()


def test_ribbon_order_missing():
    with pytest.raises(MissingRibbon):
        catalog.get("group:Z2").ribbon_order()


def test_sweedler_double_has_no_ribbon():
    h = catalog.get("double:sweedler")
    assert h.ribbon is None
    assert "ribbon_search" in h.flags


# -- doubles ------------------------------------------------------------------


def test_double_z2_shape():
    d = catalog.get("double:Z2")
    assert d.dim == 4
    assert d.is_commutative()[0]
    assert d.is_factorizable()[0]


def test_double_s3_shape():
    d = catalog.get("double:S3")
    assert d.dim == 36
    assert not d.is_commutative()[0]
    assert d.is_factorizable()[0]


def test_double_sweedler_shape():
    d = catalog.get("double:sweedler")
    assert d.dim == 16
    assert not d.is_commutative()[0]
    assert d.is_factorizable()[0]
    assert jacobson_radical_dim(d) > 0  # non-semisimple


def test_group_algebras_semisimple():
    for name in ("group:Z2", "group:Z3", "group:S3"):
        assert jacobson_radical_dim(catalog.get(name)) == 0


def test_sweedler_not_semisimple():
    assert jacobson_radical_dim(catalog.get("sweedler")) > 0


def test_double_requires_invertible_antipode():
    h = catalog.group_algebra(catalog.cyclic_group(2))
    h.antipode = Matrix(QQ, 2, 2)
    with pytest.raises(AntipodeNotInvertible):
        drinfeld_double(h)


def test_antipode_squared_inner_via_grouplike_on_double():
    # (S x S)(R) = R is among the validated consequence axioms
    d = catalog.get("double:S3")
    names = {c.name for c in d.validate().checks}
    assert "r-antipode-consequence" in names


def test_generators_really_generate():
    for name in ALL_CATALOG:
        h = catalog.get(name)
        if h.generators is not None:
            assert h.span_closure_dim(h.generators) == h.dim


@pytest.mark.parametrize("name", ALL_CATALOG)
def test_span_closure_matches_two_sided_oracle(name):
    # left multiplication by the generators reaches the same subalgebra as
    # two-sided products of everything found, on the declared generators,
    # every generator subset that drops one, each single generator, and
    # (for algebras without declared generators) a few basis subsets
    h = catalog.get(name)
    gens = h.generators if h.generators is not None else list(range(1, min(h.dim, 4)))
    subsets = [gens] + [gens[:k] + gens[k + 1:] for k in range(len(gens))] + [[g] for g in gens]
    for s in subsets:
        assert h.span_closure_dim(s) == two_sided_span_closure_dim(h, s), (name, s)


def test_drinfeld_element_of_group_double():
    # u = sum over g of (delta_g x g^{-1}); its inverse is the shipped ribbon
    d = catalog.get("double:Z3")
    u = d.drinfeld_element()
    n = 3
    expected_support = {g * n + ((-g) % n) for g in range(n)}
    assert {i for i, c in enumerate(u) if c != 0} == expected_support
    assert d.multiply(u, d.ribbon) == d.unit or d.multiply(d.ribbon, u) == d.unit
