import gc
import weakref

import pytest

from hopfblocks import blocks, catalog, cli, repcat
from hopfblocks.blocks import (
    BlocksError,
    DIRECT,
    GenusCapExceeded,
    HandleOutOfRange,
    MCGOperator,
    ModelRequiresPositiveGenus,
    RELATIVE_CENTER,
    block_space,
    bounding_pair_op,
    center_twist_op,
    end_twist,
    nonseparating_twist_op,
    restrict_operator,
    separating_twist_op,
)
from hopfblocks.fields import QQ, CyclotomicField, PrimeField
from hopfblocks.hopf import MissingRibbon
from hopfblocks.linalg import Matrix, operator_order
from hopfblocks.repcat import GENERIC_HOM_UNKNOWN_LIMIT, adjoint_module, hom_space, regular_module, trivial_module
from oracles import bounding_pair_by_hom, direct_block_by_transpose, matrix_power, separating_twist_by_hom


def test_genus_zero_dim_one():
    for name in ("double:Z2", "double:Z3", "double:S3", "double:sweedler"):
        assert block_space(catalog.get(name), 0).dim == 1


def test_genus_one_dims():
    assert block_space(catalog.get("double:Z2"), 1).dim == 4
    assert block_space(catalog.get("double:S3"), 1).dim == 8


def test_models_agree_on_dimension():
    for name in ("double:Z2", "double:Z3", "double:sweedler"):
        h = catalog.get(name)
        for g in (1, 2):
            assert block_space(h, g, DIRECT).dim == block_space(h, g, RELATIVE_CENTER).dim


@pytest.mark.parametrize("field", ["Q", "zeta12"])
def test_direct_block_matches_transposed_route(field):
    # the constraints built as tensor powers of the transposed adjoint action
    # give the same reduced basis as transposing each power's action
    group = catalog.symmetric_group_3() if field == "Q" else catalog.cyclic_group(3)
    h = catalog.double_of_group(group, QQ if field == "Q" else CyclotomicField(12))
    for genus in (1, 2):
        got = block_space(h, genus, DIRECT, genus_cap=2).basis
        want = direct_block_by_transpose(h, genus)
        assert got.free_cols == want.free_cols, genus
        assert got.columns == want.columns, genus


def test_genus_one_center_block_is_center():
    # Z(H): the (class, centralizer-irrep) pairs of S3, and all of commutative D(Z2)
    for name, dim in (("double:S3", 8), ("double:Z2", 4)):
        h = catalog.get(name)
        block = block_space(h, 1, RELATIVE_CENTER)
        assert block.dim == dim
        for x in block.basis.vectors:
            assert all(h.multiply(x, h.basis_vector(g)) == h.multiply(h.basis_vector(g), x)
                       for g in h.generating_indices())


def test_center_model_positive_genus():
    with pytest.raises(ModelRequiresPositiveGenus):
        block_space(catalog.get("double:Z2"), 0, RELATIVE_CENTER)


def test_handle_out_of_range():
    b = block_space(catalog.get("double:Z2"), 1)
    with pytest.raises(HandleOutOfRange):
        nonseparating_twist_op(b, 2)


def test_genus_cap():
    h = catalog.get("double:S3")
    with pytest.raises(GenusCapExceeded):
        block_space(h, 3)
    h2 = catalog.get("double:Z2")
    with pytest.raises(GenusCapExceeded):
        block_space(h2, 2, genus_cap=1)


def test_end_twist_properties():
    h = catalog.get("double:Z2")
    lv = end_twist(h)
    assert lv.mul(lv).is_identity()  # ribbon element has order 2
    h6 = catalog.get("double:S3")
    cert = operator_order(end_twist(h6))
    assert cert.gl_order.n == 6


def test_end_twist_commutes_with_all_multiplications():
    # centrality: left multiplication by the ribbon element commutes with
    # every left and right multiplication operator
    for name in ("double:Z2", "double:S3"):
        h = catalog.get(name)
        lv = end_twist(h)
        for i in range(h.dim):
            assert lv.mul(h.left_mult_matrix(i)) == h.left_mult_matrix(i).mul(lv)
            assert lv.mul(h.right_mult_matrix(i)) == h.right_mult_matrix(i).mul(lv)


def test_module_twist_of_end_is_natural():
    # naturality: the module twist on the end commutes with every
    # intertwiner of the end (the end twist L_v itself need not: it realizes
    # the twist of the dummy variable, not the twist of the end module)
    from hopfblocks.repcat import twist

    for name in ("double:Z2", "double:Z3"):
        h = catalog.get(name)
        a = adjoint_module(h)
        ta = twist(a)
        for f in hom_space(a, a).basis:
            assert ta.mul(f) == f.mul(ta)


def test_end_twist_matches_module_projection():
    # rho_M(v * x) = twist(M) rho_M(x) for the trivial and regular modules
    from hopfblocks.repcat import twist

    for name in ("double:Z2", "double:Z3"):
        h = catalog.get(name)
        for m in (trivial_module(h), regular_module(h)):
            tm = twist(m)
            for i in range(h.dim):
                vx = h.multiply(h.ribbon, h.basis_vector(i))
                assert m.act_element(vx) == tm.mul(m.act(i))


def test_nonseparating_certificates_small():
    for name, order in (("double:Z2", 2), ("double:Z3", 3)):
        h = catalog.get(name)
        for g in (1, 2):
            b = block_space(h, g)
            for handle in range(1, g + 1):
                op = nonseparating_twist_op(b, handle)
                assert isinstance(op, MCGOperator)
                assert op.certificate.pgl_order.n == order
                assert op.certificate.gl_order.n == order


def test_center_model_certificates_match():
    for name in ("double:Z2", "double:Z3"):
        h = catalog.get(name)
        for g in (1, 2):
            direct = nonseparating_twist_op(block_space(h, g), 1)
            center = center_twist_op(block_space(h, g, RELATIVE_CENTER))
            assert direct.certificate.gl_order == center.certificate.gl_order
            assert direct.certificate.pgl_order == center.certificate.pgl_order


def test_separating_z2_identity():
    sep = separating_twist_op(catalog.get("double:Z2"), 1, 1)
    assert sep.matrix.is_identity()
    assert sep.certificate.pgl_order.n == 1
    assert sep.twist_left_order.gl_order.n == 1


def test_separating_gl_order_divides_postcomposed_twist_order():
    for name in ("double:Z2", "double:Z3"):
        sep = separating_twist_op(catalog.get(name), 1, 1)
        gl = sep.certificate.gl_order
        theta = sep.twist_right_order.gl_order
        if gl.is_finite and theta.is_finite:
            assert theta.n % gl.n == 0


def test_separating_1_2_small():
    sep = separating_twist_op(catalog.get("double:Z2"), 1, 2)
    assert sep.certificate.pgl_order.n == 1


def test_bounding_pair_regular_commutative_trivial():
    h = catalog.get("double:Z2")
    assert bounding_pair_op(h).is_identity()


def test_bounding_pair_detects_noncommutativity():
    h = catalog.get("double:S3")
    op = bounding_pair_op(h)
    assert op.nrows == op.ncols == 1296
    assert not op.is_identity()
    assert operator_order(op).gl_order.n == 6
    # the identity-induced vector is fixed iff the end double-braids trivially
    from hopfblocks.repcat import monodromy

    assert not monodromy(adjoint_module(h), regular_module(h)).is_identity()


BOUNDING_PAIR_ORACLE_ALGEBRAS = {
    "double:Z2": lambda: catalog.get("double:Z2"),
    "double:Z3": lambda: catalog.get("double:Z3"),
    "D(Z3)/Q(zeta12)": lambda: catalog.double_of_group(catalog.cyclic_group(3), CyclotomicField(12)),
    "D(Z2)/F7": lambda: catalog.double_of_group(catalog.cyclic_group(2), PrimeField(7)),
}


@pytest.mark.parametrize("name", list(BOUNDING_PAIR_ORACLE_ALGEBRAS))
def test_bounding_pair_matches_hom_route(name):
    # free-module coordinates against the solved Hom(H x A, H), entrywise
    h = BOUNDING_PAIR_ORACLE_ALGEBRAS[name]()
    assert bounding_pair_op(h) == bounding_pair_by_hom(h)


def test_bounding_pair_solves_no_hom_space(monkeypatch, capsys):
    def no_hom_space(*args):
        raise AssertionError("bpair solved a hom space")

    monkeypatch.setattr(repcat, "hom_space", no_hom_space)
    assert cli.main(["dehn", "double:S3", "--curve", "bpair"]) == 0
    assert "1296" in capsys.readouterr().out


def test_bounding_pair_needs_a_central_twist():
    # a fresh D(S3) whose "ribbon" is the non-central grouplike (12), so
    # theta_H is no module map and f -> theta_H f (theta_H^-1 x id) leaves
    # the hom space
    h = catalog.double_of_group(catalog.symmetric_group_3())
    F = h.field
    h.ribbon = [F.one if label.endswith(".(12)") else F.zero for label in h.basis_labels]
    with pytest.raises(BlocksError, match="bounding pair left the hom space"):
        bounding_pair_op(h)


def test_bounding_pair_needs_a_ribbon():
    with pytest.raises(MissingRibbon):
        bounding_pair_op(catalog.get("double:sweedler"))


def test_block_dimension_positive():
    for name in ("double:Z2", "double:Z3", "double:S3", "double:sweedler"):
        h = catalog.get(name)
        for g in (0, 1, 2):
            assert block_space(h, g).dim >= 1


def test_separating_powers_match_end_twist_powers():
    # p-th power of the genus-2 separating twist is trivial iff the p-th
    # power of the end's module twist is trivial
    from hopfblocks.repcat import twist

    for name in ("double:Z2", "double:Z3", "double:S3"):
        h = catalog.get(name)
        sep = separating_twist_op(h, 1, 1)
        theta = twist(adjoint_module(h))
        order = sep.twist_left_order.gl_order.n
        for p in range(1, order + 1):
            assert matrix_power(sep.matrix, p).is_identity() == matrix_power(theta, p).is_identity(), (name, p)


def test_block_operator_certificate_consistency():
    # Finite(n) certificates are sharp: T^n = I and no proper divisor works
    h = catalog.get("double:Z3")
    op = nonseparating_twist_op(block_space(h, 1), 1)
    n = op.certificate.gl_order.n
    assert matrix_power(op.matrix, n).is_identity()
    for d in range(1, n):
        if n % d == 0:
            assert not matrix_power(op.matrix, d).is_identity()


@pytest.mark.parametrize("model", [DIRECT, RELATIVE_CENTER])
def test_restrict_operator_checks_every_basis_vector(model):
    # Op = I + E with E sending only basis vector 3 (1 at free column f, 0 at
    # every other free column) to a pivot unit vector, which no nonzero
    # vector of the block has; the images of basis vectors 0-2 stay fixed
    block = block_space(catalog.get("group:S3"), 2, model)
    basis = block.basis
    assert block.dim > 3
    f = basis.free_cols[3]
    pivot = next(c for c in range(basis.ncols) if c not in basis.free_cols)
    F = block.algebra.field
    op = Matrix.identity(F, basis.ncols)
    if block.covectors:  # image b . Op
        op.rows[f][pivot] = F.one
    else:  # image Op . b
        op.rows[pivot][f] = F.one
    assert restrict_operator(block, Matrix.identity(F, basis.ncols)).is_identity()
    with pytest.raises(BlocksError):
        restrict_operator(block, op)


def test_block_caches_do_not_pin_the_algebra():
    # a fresh construction, not the cached catalog.get entry
    h = catalog.double_of_group(catalog.cyclic_group(2))
    assert block_space(h, 1).dim == 4
    assert separating_twist_op(h, 1, 1).dim == 16
    ref = weakref.ref(h)
    del h
    gc.collect()
    assert ref() is None


def test_genus_three_double_s3():
    # the paper's non-separating theorem at genus 3: the Verlinde count
    # sum_i (D/d_i)^(2g-2) over the simple D(S3)-modules (D = 6) in both
    # models, and PGL order of a meridian twist equal to the ribbon order
    h = catalog.get("double:S3")
    simple_dims = [1, 1, 2, 2, 2, 2, 3, 3]
    verlinde = sum((6 // d) ** 4 for d in simple_dims)
    direct = block_space(h, 3, DIRECT, genus_cap=3)
    center = block_space(h, 3, RELATIVE_CENTER, genus_cap=3)
    assert direct.dim == center.dim == verlinde == 2948
    op = nonseparating_twist_op(direct, 1)
    assert op.certificate.pgl_order == h.ribbon_order().gl_order
    assert op.certificate.pgl_order.n == 6


SEPARATING_ORACLE_ALGEBRAS = {
    "double:Z2": lambda: catalog.get("double:Z2"),
    "double:Z3": lambda: catalog.get("double:Z3"),
    "double:S3": lambda: catalog.get("double:S3"),
    "D(Z3)/Q(zeta12)": lambda: catalog.double_of_group(catalog.cyclic_group(3), CyclotomicField(12)),
    "D(S3)/F7": lambda: catalog.double_of_group(catalog.symmetric_group_3(), PrimeField(7)),
}


@pytest.mark.parametrize("name", list(SEPARATING_ORACLE_ALGEBRAS))
def test_separating_block_route_matches_hom_route(name):
    # the direct-block operator is conjugate to postcomposition with the twist
    # on Hom(A^g', A^g''): same dimension, certificates (evidence included)
    # and triviality at every split that fits the guard
    h = SEPARATING_ORACLE_ALGEBRAS[name]()
    splits = [(a, b) for a, b in ((1, 1), (1, 2), (2, 1)) if h.dim ** (a + b) <= GENERIC_HOM_UNKNOWN_LIMIT]
    assert (1, 1) in splits
    for a, b in splits:
        sep = separating_twist_op(h, a, b)
        hom, mat, cert = separating_twist_by_hom(h, a, b)
        assert sep.dim == hom.dim, (a, b)
        assert sep.certificate.to_json() == cert.to_json(), (a, b)
        assert sep.matrix.is_identity() == mat.is_identity(), (a, b)


def test_theorems_builds_each_twist_operator_once(tmp_path, monkeypatch, capsys):
    # a fresh D(S3), so no operator is cached from another test
    path = tmp_path / "ds3.json"
    catalog.save(catalog.double_of_group(catalog.symmetric_group_3()), path)

    def no_hom_space(*args):
        raise AssertionError("theorems solved a hom space")

    restricted = []
    original = blocks.restrict_operator

    def counting(block, op):
        restricted.append((block.model, block.genus))
        return original(block, op)

    monkeypatch.setattr(repcat, "hom_space", no_hom_space)
    monkeypatch.setattr(blocks, "restrict_operator", counting)
    assert cli.main(["theorems", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # meridians: handle 1 at genus 1, handles 1 and 2 at genus 2; the
    # separating (1,1) twist on the genus-2 direct block; center model at 1, 2
    assert sorted(restricted) == sorted([(DIRECT, 1), (DIRECT, 2), (DIRECT, 2), (DIRECT, 2),
                                         (RELATIVE_CENTER, 1), (RELATIVE_CENTER, 2)])


def test_equal_split_certifies_its_twist_once():
    h = catalog.get("double:S3")
    sep = separating_twist_op(h, 1, 1)
    assert sep.twist_left_order is sep.twist_right_order
    assert sep.twist_left_order.gl_order.n == sep.certificate.pgl_order.n == 3
    other = separating_twist_op(catalog.get("double:Z2"), 1, 2)
    assert other.twist_left_order is not other.twist_right_order


def test_twist_operators_are_cached_per_cap():
    h = catalog.double_of_group(catalog.cyclic_group(2))
    block = block_space(h, 2)
    op = nonseparating_twist_op(block, 1)
    assert nonseparating_twist_op(block, 1) is op
    other = nonseparating_twist_op(block, 1, cap=50)
    assert other is not op
    assert nonseparating_twist_op(block, 1, cap=50) is other
    center = block_space(h, 2, RELATIVE_CENTER)
    assert center_twist_op(center) is center_twist_op(center)
    assert center_twist_op(center) is not center_twist_op(center, cap=50)
    assert h.ribbon_order() is h.ribbon_order()
    assert h.ribbon_order() is not h.ribbon_order(cap=50)
