import gc
import importlib.util
import tracemalloc
import weakref
from pathlib import Path

import pytest

from hopfblocks import blocks, catalog, cli, linalg, repcat
from hopfblocks.blocks import (
    BLOCK_UNKNOWN_LIMIT,
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
    default_genus_cap,
    end_twist,
    nonseparating_twist_op,
    restrict_operator,
    separating_twist_op,
)
from hopfblocks.fields import QQ, CyclotomicField, PrimeField
from hopfblocks.hopf import MissingRibbon
from hopfblocks.linalg import Matrix, minpoly_order, operator_order, simultaneous_kernel
from hopfblocks.repcat import adjoint_module, hom_space, regular_module, trivial_module
from oracles import (
    bounding_pair_by_hom,
    center_block_full_rows,
    center_twist_by_ribbon_action,
    dijkgraaf_witten_twist,
    direct_block_by_transpose,
    group_by_name,
    left_mult_of,
    matrix_power,
    separating_twist_by_hom,
    trace,
)


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


DIJKGRAAF_WITTEN_DIMS = {("Z2", 1): 4, ("Z2", 2): 16, ("Z2", 3): 64, ("Z3", 1): 9, ("Z3", 2): 81,
                         ("S3", 1): 8, ("S3", 2): 116, ("D4", 1): 22, ("D4", 2): 736}


@pytest.mark.parametrize("group, genus", sorted(DIJKGRAAF_WITTEN_DIMS))
def test_group_double_blocks_match_dijkgraaf_witten(group, genus):
    # the genus-g block of D(k[G]) has a basis of conjugation orbits of
    # tuples with prod [a_i, b_i] = 1, which the handle-1 meridian twist
    # permutes; over Q, equal traces of all powers make T conjugate to that
    # permutation matrix, and k up to 12 covers every twist order here
    G = group_by_name(group)
    perm = dijkgraaf_witten_twist(G, genus)
    block = block_space(catalog.double_of_group(G), genus, DIRECT)
    assert block.dim == len(perm) == DIJKGRAAF_WITTEN_DIMS[group, genus]
    if genus > 2:
        return
    t = nonseparating_twist_op(block, 1).matrix
    power, image = t, list(perm)
    for k in range(1, 13):
        assert trace(power) == sum(image[i] == i for i in range(len(perm))), k
        power, image = power.mul(t), [perm[i] for i in image]


SEPARATING_ORDERS = {"Z2": 1, "Z3": 1, "S3": 3, "D4": 1}


@pytest.mark.parametrize("group", sorted(SEPARATING_ORDERS))
def test_group_double_separating_twist_matches_dijkgraaf_witten(group):
    # the twist about c = [a_1, b_1] conjugates the first handle by c and
    # permutes the orbits; equal traces of T^k, k = 1..12, make the genus-2
    # separating(1,1) operator conjugate to that permutation matrix over Q
    G = group_by_name(group)
    perm = dijkgraaf_witten_twist(G, 2, separating=1)
    sep = separating_twist_op(catalog.double_of_group(G), 1, 1)
    assert sep.block.dim == len(perm) == DIJKGRAAF_WITTEN_DIMS[group, 2]
    assert str(sep.certificate.gl_order) == f"Finite({SEPARATING_ORDERS[group]})"
    t = sep.matrix
    power, image = t, list(perm)
    for k in range(1, 13):
        assert trace(power) == sum(image[i] == i for i in range(len(perm))), k
        power, image = power.mul(t), [perm[i] for i in image]


def _seeded_file_algebra(name: str, seed: int, out_dir: Path):
    """The algebra of the benchmark's seeded input file (a relabelled basis)."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return catalog.load(inputs.write_inputs([name], seed, out_dir)[name])


def _oracle_algebra(case: str, tmp_path):
    if case == "Q":
        return catalog.double_of_group(catalog.symmetric_group_3(), QQ)
    if case == "zeta12":
        return catalog.double_of_group(catalog.cyclic_group(3), CyclotomicField(12))
    if case == "F7":  # D(S3) over F_7 as the seed-1 benchmark file
        return _seeded_file_algebra("ds3_f7", 1, tmp_path)
    return catalog.get("double:sweedler")  # rows of three and more terms: the reducer path


ORACLE_CASES = ["Q", "zeta12", "F7", "sweedler"]


@pytest.mark.parametrize("field", ORACLE_CASES)
def test_direct_block_matches_transposed_route(field, tmp_path):
    # the constraints built as tensor powers of the transposed adjoint action
    # give the same reduced basis as transposing each power's action
    h = _oracle_algebra(field, tmp_path)
    for genus in (1, 2):
        got = block_space(h, genus, DIRECT, genus_cap=2).basis
        want = direct_block_by_transpose(h, genus)
        assert got.free_cols == want.free_cols, genus
        assert got.columns == want.columns, genus


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_center_block_matches_full_row_constraints(case, tmp_path):
    # dropping the zero constraint rows leaves the reduced basis unchanged
    h = _oracle_algebra(case, tmp_path)
    for genus in (1, 2):
        got = block_space(h, genus, RELATIVE_CENTER, genus_cap=2).basis
        want = center_block_full_rows(h, genus)
        assert got.free_cols == want.free_cols, genus
        assert got.columns == want.columns, genus


def test_block_constraints_have_no_zero_rows(monkeypatch):
    seen = []

    def record(mats):
        seen.append(mats)
        return simultaneous_kernel(mats)

    monkeypatch.setattr(blocks, "simultaneous_kernel", record)
    h = catalog.get("double:S3")
    for genus in (1, 2):
        for model in (DIRECT, RELATIVE_CENTER):
            seen.clear()
            block_space(h, genus, model)
            (mats,) = seen
            assert len(mats) == len(h.generating_indices())
            for m in mats:
                assert m.ncols == h.dim ** genus, (genus, model)
                assert m.nrows == len(m.rows) and all(m.rows), (genus, model)
            # the full-height constraints had zero rows to drop
            assert sum(m.nrows for m in mats) < len(mats) * h.dim ** genus, (genus, model)


def test_block_constraints_force_each_zero_once(monkeypatch):
    """A one-term row c x_k says x_k = 0; the kernel is handed one such row
    per column across all generators of a block, not one per generator."""
    seen = []

    def record(mats):
        seen.append(mats)
        return simultaneous_kernel(mats)

    monkeypatch.setattr(blocks, "simultaneous_kernel", record)
    h = catalog.get("double:S3")
    for model in (DIRECT, RELATIVE_CENTER):
        seen.clear()
        block_space(h, 2, model)
        (mats,) = seen
        forced = [k for m in mats for row in m.rows if len(row) == 1 for k in row]
        assert forced and len(forced) == len(set(forced)), model
        assert sum(m.nrows for m in mats) == 1685, model


def test_direct_block_keeps_no_top_power_action():
    h = catalog.get("double:S3")
    block_space(h, 2)
    power_t = repcat.tensor_power(blocks._transposed_adjoint(h), 2)
    assert power_t._action == {}
    assert blocks._transposed_adjoint(h)._action  # the genus-1 actions stay kept


def test_genus_two_blocks_memory_after_genus_one():
    # the genus-2 blocks of D(S3) keep no 1296-row action once solved, and
    # hold only nonzero constraint rows while solving (bytes traced by Python)
    mb = 1e6
    for model, retained_bound in ((DIRECT, 0.5), (RELATIVE_CENTER, None)):
        h = catalog.get("double:S3")
        block_space(h, 1, model)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            block = block_space(h, 2, model)
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.dim == 116
        assert (peak - base) / mb < 2.5, (model, (peak - base) / mb)
        if retained_bound is not None:
            assert (current - base) / mb < retained_bound, (model, (current - base) / mb)


def test_genus_one_center_block_is_center():
    # Z(H): the (class, centralizer-irrep) pairs of S3, and all of commutative D(Z2)
    for name, dim in (("double:S3", 8), ("double:Z2", 4)):
        h = catalog.get(name)
        block = block_space(h, 1, RELATIVE_CENTER)
        assert block.dim == dim
        for x in block.basis.columns:
            assert all(h.product(x, {g: h.field.one}) == h.product({g: h.field.one}, x)
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
    # the separating twist obeys the same cap, even once it is cached
    separating_twist_op(h2, 1, 1)
    with pytest.raises(GenusCapExceeded):
        separating_twist_op(h2, 1, 1, genus_cap=1)
    with pytest.raises(GenusCapExceeded):
        separating_twist_op(h, 1, 2)


def test_default_genus_cap_is_the_largest_genus_within_the_limit():
    # the largest g with max(dim, 2)^g <= 6000; dim 1 counts as 2
    expected = {1: 12, 2: 12, 4: 6, 6: 4, 8: 4, 9: 3, 16: 3, 36: 2, 64: 2}
    assert {dim: default_genus_cap(dim) for dim in expected} == expected
    assert BLOCK_UNKNOWN_LIMIT == 6000


def test_end_twist_properties():
    h = catalog.get("double:Z2")
    lv = end_twist(h)
    assert lv.mul(lv).is_identity()  # ribbon element has order 2
    h6 = catalog.get("double:S3")
    cert = operator_order(end_twist(h6))
    assert cert.gl_order.n == 6


def test_end_twist_is_the_regular_twist():
    # one matrix of L_v: the end twist is the twist kept on the regular module
    h = catalog.double_of_group(catalog.cyclic_group(3))
    assert end_twist(h) is repcat.twist(regular_module(h))
    assert end_twist(h) == left_mult_of(h, h.ribbon)


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
                vx = h.product(h.ribbon, {i: h.field.one})
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


CENTER_TWIST_CASES = {  # algebra, highest genus checked
    "D(Z2)": (lambda: catalog.get("double:Z2"), 2),
    "D(Z3)": (lambda: catalog.get("double:Z3"), 2),
    "D(S3)": (lambda: catalog.get("double:S3"), 2),
    "D(S3)/F7": (lambda: catalog.double_of_group(catalog.symmetric_group_3(), PrimeField(7)), 2),
    "D(Z3)/Qzeta12": (lambda: catalog.double_of_group(catalog.cyclic_group(3), CyclotomicField(12)), 2),
    "D(T3)/F7": (lambda: catalog.taft_double(catalog.taft(3, PrimeField(7), 2)), 2),
    "D(T3)/Qzeta3": (lambda: catalog.get("double:T3"), 1),
}


@pytest.mark.parametrize("case", sorted(CENTER_TWIST_CASES))
def test_center_twist_equals_ribbon_action(case):
    # L_v x I and the ribbon action rho(v) on G x A^(g-1) agree on the
    # relative-center block, entry for entry
    build, max_genus = CENTER_TWIST_CASES[case]
    h = build()
    for g in range(1, max_genus + 1):
        block = block_space(h, g, RELATIVE_CENTER, genus_cap=2)
        assert center_twist_op(block).matrix == center_twist_by_ribbon_action(block), g


def test_center_twist_builds_no_kronecker_sum_over_the_ribbon_coproduct(monkeypatch):
    # the genus-2 center twist of D(S3) is one Kronecker product L_v x I;
    # rho(v) on G x A would be a sum of len(Delta(v)) = 36 of them
    h = catalog.get("double:S3")
    block = block_space(h, 2, RELATIVE_CENTER)
    assert len(h.comult_of(h.ribbon)) == 36
    real = linalg.kron_sum
    term_counts = []

    def recording(field, nrows, ncols, terms):
        terms = list(terms)
        term_counts.append(len(terms))
        return real(field, nrows, ncols, terms)

    for module in (linalg, repcat, blocks):
        monkeypatch.setattr(module, "kron_sum", recording)
    op = center_twist_op(block)
    assert term_counts == [1]
    assert op.certificate.pgl_order.n == 6


def test_separating_z2_identity():
    sep = separating_twist_op(catalog.get("double:Z2"), 1, 1)
    assert sep.matrix.is_identity()
    assert sep.certificate.pgl_order.n == 1
    assert sep.end_orders[0].gl_order.n == 1


def test_separating_gl_order_divides_postcomposed_twist_order():
    for name in ("double:Z2", "double:Z3"):
        sep = separating_twist_op(catalog.get(name), 1, 1)
        gl = sep.certificate.gl_order
        theta = sep.end_orders[1].gl_order
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
    from oracles import monodromy

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
    # theta_H is no module map and f -> theta_H f (theta_H^-1 x id) would
    # leave the hom space; end_twist's centrality post-check refuses it
    h = catalog.double_of_group(catalog.symmetric_group_3())
    F = h.field
    h.ribbon = {i: F.one for i, label in enumerate(h.basis_labels) if label.endswith(".(12)")}
    with pytest.raises(BlocksError, match="the ribbon element is not central"):
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
        order = sep.end_orders[0].gl_order.n
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
    if block.model == DIRECT:  # covectors: image b . Op
        op.rows[f][pivot] = F.one
    else:  # image Op . b
        op.rows[pivot][f] = F.one
    assert restrict_operator(block, Matrix.identity(F, basis.ncols)).is_identity()
    with pytest.raises(BlocksError):
        restrict_operator(block, op)


def test_block_caches_do_not_pin_the_algebra():
    h = catalog.get("double:Z2")
    assert block_space(h, 1).dim == 4
    assert separating_twist_op(h, 1, 1).block.dim == 16
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
    # and triviality at every split within the default genus cap
    h = SEPARATING_ORACLE_ALGEBRAS[name]()
    splits = [(a, b) for a, b in ((1, 1), (1, 2), (2, 1)) if h.dim ** (a + b) <= BLOCK_UNKNOWN_LIMIT]
    assert (1, 1) in splits
    for a, b in splits:
        sep = separating_twist_op(h, a, b)
        hom, mat, cert = separating_twist_by_hom(h, a, b)
        assert sep.block.dim == hom.dim, (a, b)
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


def test_equal_split_certifies_its_twist_once(monkeypatch):
    # fresh doubles, so no earlier test has read an end order on them; the
    # end orders are read at probe entries (repcat.power_twist_order), one
    # minimal polynomial per end power, and only the block operator is a
    # certified matrix
    read, certified = [], []

    def counting_minpoly(field, m):
        read.append(m)
        return minpoly_order(field, m)

    def counting_operator(t):
        certified.append(t)
        return operator_order(t)

    monkeypatch.setattr(repcat, "minpoly_order", counting_minpoly)
    monkeypatch.setattr(blocks, "operator_order", counting_operator)
    h = catalog.double_of_group(catalog.symmetric_group_3())
    sep = separating_twist_op(h, 1, 1)
    assert len(read) == 1 and len(certified) == 1 and certified[0] is sep.matrix
    assert sep.end_orders[0] is sep.end_orders[1] is repcat.power_twist_order(h, 1)
    assert sep.end_orders[0].gl_order.n == sep.certificate.pgl_order.n == 3
    read.clear()
    certified.clear()
    h2 = catalog.double_of_group(catalog.cyclic_group(2))
    other = separating_twist_op(h2, 1, 2)
    assert len(read) == 2 and len(certified) == 1 and certified[0] is other.matrix
    assert other.end_orders[0] is not other.end_orders[1]


def test_twist_operators_are_cached():
    h = catalog.double_of_group(catalog.cyclic_group(2))
    block = block_space(h, 2)
    op = nonseparating_twist_op(block, 1)
    assert nonseparating_twist_op(block, 1) is op
    assert nonseparating_twist_op(block, 2) is not op
    center = block_space(h, 2, RELATIVE_CENTER)
    assert center_twist_op(center) is center_twist_op(center)
    assert separating_twist_op(h, 1, 1) is separating_twist_op(h, 1, 1)
    assert h.ribbon_order() is h.ribbon_order()
    assert {"ribbon_order", ("nonseparating", 2, 1), ("center_twist", 2), ("separating", 1, 1)} <= set(h._cache)
