"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with:  pytest tests/test_acceptance.py -v -s
All comparisons are exact (zero tolerance); runtime limits are asserted where
the criteria state them.
"""

import time

import pytest

from hopfblocks import blocks, catalog, harness, repcat
from hopfblocks.fields import CyclotomicField, QQ
from hopfblocks.harness import PreconditionError
from hopfblocks.linalg import Matrix, operator_order, tensor_product
from oracles import element_multiplicative_order

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
RIBBON_DOUBLES = ["double:Z2", "double:Z3", "double:S3"]
FACTORIZABLE = RIBBON_DOUBLES + ["double:sweedler"]


class _criterion:
    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.label}: {status} ({time.time() - self.t0:.1f}s)")
        return False


def test_c01_axiom_suite():
    with _criterion("C1 axiom suite on all catalog algebras"):
        t0 = time.time()
        for name in ALL_CATALOG:
            h = catalog.get(name)
            report = h.validate()
            assert report.passed, (name, [c.to_json() for c in report.failures()])
            # declared optional structures were exercised
            names = {c.name for c in report.checks}
            if h.r_matrix is not None:
                assert "r-hexagon-left" in names and "r-hexagon-right" in names
            if h.ribbon is not None:
                assert "ribbon-coproduct" in names
        assert time.time() - t0 < 60.0


def test_c02_ribbon_element_order():
    with _criterion("C2 ribbon order = twist order on the regular module"):
        expected = {"double:Z2": 2, "double:Z3": 3, "double:S3": 6}
        for name, n in expected.items():
            h = catalog.get(name)
            # independent oracle first: repeated multiplication in the algebra
            oracle = element_multiplicative_order(h, h.ribbon)
            assert oracle == n, (name, oracle)
            ribbon_cert = h.ribbon_order()
            twist_cert = operator_order(repcat.twist(repcat.regular_module(h)))
            assert ribbon_cert.gl_order.is_finite and ribbon_cert.gl_order.n == n
            assert twist_cert.gl_order.n == n
            assert twist_cert.pgl_order.n == ribbon_cert.pgl_order.n


def test_c03_nonseparating_twist_orders():
    with _criterion("C3 non-separating twist PGL order = ribbon order"):
        t0 = time.time()
        plan = {"double:Z2": 3, "double:Z3": 3, "double:S3": 2}
        for name, gmax in plan.items():
            h = catalog.get(name)
            ribbon = h.ribbon_order().gl_order
            for g in range(1, gmax + 1):
                space = blocks.block_space(h, g, genus_cap=gmax)
                for handle in range(1, g + 1):
                    op = blocks.nonseparating_twist_op(space, handle)
                    assert op.certificate.pgl_order.kind == ribbon.kind
                    assert op.certificate.pgl_order.n == ribbon.n, (name, g, handle)
        # D(H4): machine-certified to admit no ribbon element (exhaustive
        # grouplike-shift search), so the twist hypothesis is vacuous; the
        # harness must gate rather than fabricate an operator.
        ds = catalog.get("double:sweedler")
        assert ds.ribbon is None and "ribbon_search" in ds.flags
        with pytest.raises(PreconditionError):
            harness.verify_nonseparating(ds, 1)
        assert time.time() - t0 < 600.0  # genus-2 D(S3) runtime target


def test_c04_separating_twist_orders():
    with _criterion("C4 separating twist PGL order = min of end-power twist orders"):
        for name in RIBBON_DOUBLES:
            h = catalog.get(name)
            sep = blocks.separating_twist_op(h, 1, 1)
            lhs = sep.certificate.pgl_order
            a, b = sep.twist_left_order.gl_order, sep.twist_right_order.gl_order
            rhs = a if (a.is_finite and (not b.is_finite or a.n <= b.n)) else b
            assert lhs.kind == rhs.kind and lhs.n == rhs.n, (name, str(lhs), str(rhs))
        # split (1,2) where dim <= 8
        h = catalog.get("double:Z2")
        sep = blocks.separating_twist_op(h, 1, 2)
        mins = min(sep.twist_left_order.gl_order.n, sep.twist_right_order.gl_order.n)
        assert sep.certificate.pgl_order.n == mins
        # D(H4) has no ribbon element: the separating operator is gated
        with pytest.raises(PreconditionError):
            harness.verify_separating(catalog.get("double:sweedler"), 1, 1)


def test_c05_excision_consistency():
    with _criterion("C5 direct and relative-center models agree"):
        for name in FACTORIZABLE:
            h = catalog.get(name)
            for g in (1, 2):
                d = blocks.block_space(h, g, blocks.DIRECT)
                c = blocks.block_space(h, g, blocks.RELATIVE_CENTER)
                assert d.dim == c.dim, (name, g, d.dim, c.dim)
                if h.ribbon is not None:
                    od = blocks.nonseparating_twist_op(d, 1)
                    oc = blocks.center_twist_op(c)
                    assert od.certificate.gl_order == oc.certificate.gl_order, (name, g)
                    assert od.certificate.pgl_order == oc.certificate.pgl_order, (name, g)


def test_c06_johnson_criterion():
    with _criterion("C6 Johnson-kernel criterion on D(Z2) and D(S3)"):
        h2 = catalog.get("double:Z2")
        a2 = repcat.adjoint_module(h2)
        assert repcat.twist(a2).is_identity()
        assert repcat.monodromy(a2, a2).is_identity()
        assert blocks.separating_twist_op(h2, 1, 1).matrix.is_identity()
        h6 = catalog.get("double:S3")
        a6 = repcat.adjoint_module(h6)
        assert not (repcat.twist(a6).is_identity() and repcat.monodromy(a6, a6).is_identity())
        assert not blocks.separating_twist_op(h6, 1, 1).matrix.is_identity()


def test_c07_torelli_criterion():
    with _criterion("C7 end transparent iff commutative (all R-matrix entries)"):
        expect = {
            "double:Z2": True,
            "double:Z3": True,
            "double:S3": False,
            "double:sweedler": False,
        }
        for name, should in expect.items():
            h = catalog.get(name)
            central = repcat.muger_central(repcat.adjoint_module(h))
            commutative = h.is_commutative()[0]
            assert central == commutative == should, name


def test_c08_commuting_twist_lattice():
    with _criterion("C8 lattice kernel is exactly the ribbon-order multiples"):
        check = harness.verify_zg(catalog.get("double:Z2"), 2, 4)
        assert check.passed, check.to_json()
        assert "25" in check.lhs  # |2Z^2 cap [-4,4]^2| = 25
        check = harness.verify_zg(catalog.get("double:S3"), 2, 6)
        assert check.passed, check.to_json()
        assert "9" in check.lhs  # |6Z^2 cap [-6,6]^2| = 9


def test_c09_property_suites():
    with _criterion("C9 property suites (standalone in tests/test_properties.py)"):
        # compact re-run of each suite's core assertion
        for name in RIBBON_DOUBLES:
            h = catalog.get(name)
            triv = repcat.trivial_module(h)
            a = repcat.adjoint_module(h)
            lhs = repcat.twist(repcat.tensor_module(a, a))
            rhs = repcat.monodromy(a, a).mul(tensor_product(repcat.twist(a), repcat.twist(a)))
            assert lhs == rhs  # balancing law
            ta = repcat.twist(a)
            for f in repcat.hom_space(triv, a).basis:
                assert f.mul(repcat.twist(triv)) == ta.mul(f)  # naturality
            d1 = repcat.hom_space(triv, a).dim
            d2 = repcat.hom_space(triv, repcat.tensor_power(a, 2)).dim
            assert d2 >= d1 * d1  # invariant-dimension inequality
        q = repcat.monodromy(repcat.adjoint_module(catalog.get("double:Z3")),
                             repcat.regular_module(catalog.get("double:Z3")))
        h3 = catalog.get("double:Z3")
        mn = repcat.tensor_module(repcat.adjoint_module(h3), repcat.regular_module(h3))
        for g in h3.generating_indices():
            assert q.mul(mn.act(g)) == mn.act(g).mul(q)  # monodromy intertwines
        assert QQ.eq(QQ.add(QQ.inv(2), QQ.inv(3)), QQ.div(5, 6))  # field laws spot


def test_c10_order_certification_units():
    with _criterion("C10 order-certification unit tests"):
        unipotent = operator_order(Matrix.from_dense(QQ, [[1, 1], [0, 1]]))
        assert unipotent.gl_order.kind == "infinite"
        assert unipotent.gl_order.reason == "NotSemisimple"

        companion = operator_order(Matrix.from_dense(QQ, [[0, 2], [1, 0]]))
        assert companion.gl_order.kind == "infinite"
        assert companion.gl_order.reason == "RootNotUnity"

        F = CyclotomicField(12)
        z = F.zeta()
        mixed = operator_order(Matrix.diagonal(F, [F.pow(z, 4), F.pow(z, 3)]))
        assert mixed.gl_order.is_finite and mixed.gl_order.n == 12

        F3 = CyclotomicField(3)
        scalar = operator_order(Matrix.diagonal(F3, [F3.zeta(), F3.zeta()]))
        assert scalar.gl_order.n == 3 and scalar.pgl_order.n == 1

        diag = operator_order(Matrix.diagonal(QQ, [1, -1]))
        assert diag.gl_order.n == 2 and diag.pgl_order.n == 2
