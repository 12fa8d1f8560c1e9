import random

import pytest

from hopfblocks import catalog
from hopfblocks.fields import QQ, CyclotomicField, PrimeField
from hopfblocks.linalg import Matrix, kernel, linear_combination, operator_order
from hopfblocks.repcat import (
    adjoint_module,
    braiding,
    dual_module,
    flagged_simple_modules,
    hom_space,
    is_intertwiner,
    monodromy,
    muger_central,
    regular_module,
    tensor_module,
    tensor_power,
    trivial_module,
    twist,
)
from oracles import contains_matrix, evaluation_full_rank


def test_module_actions_respect_algebra():
    for name in ("group:S3", "double:Z2", "sweedler"):
        h = catalog.get(name)
        for m in (trivial_module(h), regular_module(h), adjoint_module(h),
                  dual_module(regular_module(h))):
            assert m.action_respects_algebra(), (name, m.name)


@pytest.mark.parametrize("F", [QQ, CyclotomicField(3), PrimeField(7)], ids=["Q", "Qzeta3", "F7"])
def test_tensor_act_element_matches_basis_combination(F):
    # act_element on a tensor module goes through Delta(x); the oracle sums
    # the actions of the basis elements in the support of x
    rng = random.Random(7)
    for h in (catalog.group_algebra(catalog.symmetric_group_3(), F), catalog.sweedler(F)):
        a = adjoint_module(h)
        for m in (tensor_power(a, 2), tensor_power(a, 3), tensor_module(regular_module(h), a)):
            for _ in range(3):
                x = [F.random_element(rng) for _ in range(h.dim)]
                terms = [(c, m.act(i)) for i, c in enumerate(x) if not F.is_zero(c)]
                assert m.act_element(x) == linear_combination(F, m.dim, m.dim, terms), (h.name, m.name)


def test_tensor_with_trivial_is_identity_on_actions():
    h = catalog.get("double:Z2")
    m = regular_module(h)
    tm = tensor_module(trivial_module(h), m)
    for i in range(h.dim):
        assert tm.act(i) == m.act(i)


def test_dual_of_trivial_is_trivial():
    h = catalog.get("group:S3")
    t = trivial_module(h)
    d = dual_module(t)
    for i in range(h.dim):
        assert d.act(i) == t.act(i)


def test_regular_module_dim():
    assert regular_module(catalog.get("double:Z2")).dim == 4


def test_adjoint_trivial_for_commutative_cocommutative():
    h = catalog.get("double:Z2")
    a = adjoint_module(h)
    F = h.field
    for i in range(h.dim):
        s = a.act(i).scalar_value()
        assert s is not None and F.eq(s, h.counit[i])


@pytest.mark.parametrize(
    "name,expected",
    [("double:S3", 8), ("group:S3", 3), ("double:Z2", 4), ("double:Z3", 9)],
)
def test_invariants_of_adjoint_dimension(name, expected):
    h = catalog.get(name)
    assert hom_space(trivial_module(h), adjoint_module(h)).dim == expected


def test_hom_contains_identity():
    h = catalog.get("group:S3")
    for m in (trivial_module(h), regular_module(h), adjoint_module(h)):
        hs = hom_space(m, m)
        ident = Matrix.identity(h.field, m.dim)
        assert contains_matrix(hs, ident)


def test_hom_trivial_to_zeroth_power():
    h = catalog.get("double:Z2")
    hs = hom_space(trivial_module(h), tensor_power(adjoint_module(h), 0))
    assert hs.dim == 1


def test_hom_trivial_to_adjoint_nonzero_all_catalog():
    for name in ("group:Z2", "group:Z3", "group:S3", "double:Z2", "double:Z3",
                 "double:S3", "sweedler", "double:sweedler"):
        h = catalog.get(name)
        assert hom_space(trivial_module(h), adjoint_module(h)).dim >= 1, name


def _independent(F, vectors) -> bool:
    # the columns of the matrix built from the vectors have no kernel
    if not vectors:
        return True
    cols = Matrix.from_dense(F, [list(row) for row in zip(*vectors)])
    return not kernel(cols)


def test_hom_fast_path_matches_generic():
    # Hom(H, N) = N by f -> f(1): the solved basis has dim N and its images
    # of the unit are independent, so they span N
    h = catalog.get("sweedler")
    reg = regular_module(h)
    a = adjoint_module(h)
    hs = hom_space(reg, a)
    assert hs.dim == a.dim
    for f in hs.basis:
        assert is_intertwiner(f, reg, a)
    assert _independent(h.field, [f.apply_right(h.unit) for f in hs.basis])


def test_hom_free_fast_path_matches_generic():
    # Hom(H x W, N) = Hom_k(W, N) by restriction to 1 x W: the solved basis
    # has rank dim W * dim N and the restrictions are independent
    h = catalog.get("group:Z3")
    F = h.field
    reg = regular_module(h)
    a = adjoint_module(h)
    src = tensor_module(reg, a)
    hs = hom_space(src, reg)
    assert hs.dim == a.dim * reg.dim
    for f in hs.basis[:4]:
        assert is_intertwiner(f, src, reg)
    unit_in = Matrix.from_dense(F, [[u] for u in h.unit]).kron(Matrix.identity(F, a.dim))
    restrictions = []
    for f in hs.basis:
        g = f.mul(unit_in)
        restrictions.append([g.entry(r, c) for r in range(reg.dim) for c in range(a.dim)])
    assert _independent(F, restrictions)


def test_hom_basis_matrices_are_intertwiners():
    h = catalog.get("double:Z3")
    a = adjoint_module(h)
    hs = hom_space(a, a)
    for f in hs.basis:
        assert is_intertwiner(f, a, a)


# -- braiding / monodromy / twist ------------------------------------------------


def test_braiding_with_trivial_is_identity():
    h = catalog.get("double:S3")
    m = regular_module(h)
    assert braiding(trivial_module(h), m).is_identity()


def test_braiding_is_intertwiner():
    h = catalog.get("double:Z3")
    m, n = adjoint_module(h), regular_module(h)
    c = braiding(m, n)
    mn, nm = tensor_module(m, n), tensor_module(n, m)
    for g in h.generating_indices():
        assert c.mul(mn.act(g)) == nm.act(g).mul(c)


def test_monodromy_identity_iff_commutative():
    h2 = catalog.get("double:Z2")
    assert monodromy(adjoint_module(h2), regular_module(h2)).is_identity()
    h6 = catalog.get("double:S3")
    assert not monodromy(adjoint_module(h6), regular_module(h6)).is_identity()


def test_twist_of_trivial():
    h = catalog.get("double:Z2")
    assert twist(trivial_module(h)).is_identity()


def test_twist_regular_order_equals_ribbon_order():
    for name in ("double:Z2", "double:Z3", "double:S3"):
        h = catalog.get(name)
        cert = operator_order(twist(regular_module(h)))
        assert cert.to_json() == h.ribbon_order().to_json()


def test_dual_twist_is_transpose():
    for name in ("double:Z3", "double:S3"):
        h = catalog.get(name)
        m = regular_module(h)
        assert twist(dual_module(m)) == twist(m).transpose()


def test_muger_central_cases():
    assert muger_central(trivial_module(catalog.get("double:S3")))
    assert muger_central(adjoint_module(catalog.get("double:Z3")))
    assert not muger_central(adjoint_module(catalog.get("double:S3")))


def test_twist_naturality_small():
    h = catalog.get("double:Z3")
    a = adjoint_module(h)
    hs = hom_space(a, a)
    ta = twist(a)
    for f in hs.basis:
        assert f.mul(ta) == ta.mul(f)


# -- evaluation monomorphism (simple sources) --------------------------------------


def test_flagged_simple_modules_are_modules():
    for name in ("group:Z2", "group:Z3", "group:S3", "sweedler", "double:Z2"):
        h = catalog.get(name)
        for m in flagged_simple_modules(h):
            assert m.action_respects_algebra(), (name, m.name)


def test_evaluation_full_rank_for_simple_sources():
    for name in ("group:S3", "double:Z2", "sweedler"):
        h = catalog.get(name)
        targets = [adjoint_module(h), regular_module(h)]
        for m in flagged_simple_modules(h):
            for n in targets:
                hs = hom_space(m, n)
                assert evaluation_full_rank(hs), (name, m.name, n.name)


def test_evaluation_can_fail_for_nonsimple():
    # End(regular) of k[Z2] has dim 2 on a 2-dim module: 2*2 > 2 forces a kernel
    h = catalog.get("group:Z2")
    reg = regular_module(h)
    hs = hom_space(reg, reg)
    assert hs.dim * reg.dim > reg.dim
    assert not evaluation_full_rank(hs)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("algebra", ["group:S3", "sweedler"])
def test_hom_coordinates_of_basis_are_unit_vectors(algebra, field):
    group = catalog.symmetric_group_3()
    h = catalog.group_algebra(group, field) if algebra == "group:S3" else catalog.sweedler(field)
    reg, a = regular_module(h), adjoint_module(h)
    spaces = {
        "regular": hom_space(reg, a),
        "free": hom_space(tensor_module(reg, a), reg),
        "tensor": hom_space(a, tensor_module(a, a)),
    }
    F = h.field
    for path, hs in spaces.items():
        assert hs.dim > 1, path
        for j, f in enumerate(hs.basis):
            coords = hs.coordinates(f)
            assert coords.keys() == {j} and F.eq(coords[j], F.one), (path, j)
