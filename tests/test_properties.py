"""Property suites runnable by themselves:

    pytest tests/test_properties.py

Covers the balancing law, twist naturality, the monodromy intertwiner
property, the invariant-dimension product inequality, and the field
arithmetic laws, on every catalog algebra to which each property applies.
"""

import random

import pytest

from hopfblocks import catalog
from hopfblocks.fields import QQ, CyclotomicField, PrimeField
from hopfblocks.linalg import tensor_product
from hopfblocks.repcat import (
    adjoint_module,
    hom_space,
    regular_module,
    tensor_module,
    tensor_power,
    trivial_module,
    twist,
)
from oracles import monodromy, muger_central

RIBBON_ALGEBRAS = ["double:Z2", "double:Z3", "double:S3"]
R_MATRIX_ALGEBRAS = RIBBON_ALGEBRAS + ["double:sweedler"]
ALL_ALGEBRAS = ["group:Z2", "group:Z3", "group:S3", "sweedler"] + R_MATRIX_ALGEBRAS


def _sample_modules(h):
    return {
        "trivial": trivial_module(h),
        "regular": regular_module(h),
        "end": adjoint_module(h),
    }


@pytest.mark.parametrize("name", RIBBON_ALGEBRAS)
def test_balancing_law(name):
    # twist(M x N) = monodromy(M, N) . (twist(M) x twist(N))
    h = catalog.get(name)
    mods = _sample_modules(h)
    for nm, m in mods.items():
        for nn, n in mods.items():
            lhs = twist(tensor_module(m, n))
            rhs = monodromy(m, n).mul(tensor_product(twist(m), twist(n)))
            assert lhs == rhs, (name, nm, nn)


@pytest.mark.parametrize("name", RIBBON_ALGEBRAS)
def test_twist_naturality(name):
    # F . twist(M) = twist(N) . F for every F in Hom(M, N)
    h = catalog.get(name)
    mods = _sample_modules(h)
    pairs = [("trivial", "end"), ("end", "end"), ("regular", "end"), ("regular", "regular")]
    for nm, nn in pairs:
        m, n = mods[nm], mods[nn]
        tm, tn = twist(m), twist(n)
        for f in hom_space(m, n).basis:
            assert f.mul(tm) == tn.mul(f), (name, nm, nn)


@pytest.mark.parametrize("name", R_MATRIX_ALGEBRAS)
def test_monodromy_is_intertwiner(name):
    h = catalog.get(name)
    mods = _sample_modules(h)
    for nm, m in mods.items():
        for nn, n in mods.items():
            if m.dim * n.dim > 400:
                continue
            q = monodromy(m, n)
            mn = tensor_module(m, n)
            for g in h.generating_indices():
                assert q.mul(mn.act(g)) == mn.act(g).mul(q), (name, nm, nn)


def test_monodromy_is_intertwiner_large_sample():
    h = catalog.get("double:S3")
    m = adjoint_module(h)
    n = regular_module(h)
    q = monodromy(m, n)
    mn = tensor_module(m, n)
    for g in h.generating_indices()[:4]:
        assert q.mul(mn.act(g)) == mn.act(g).mul(q)


@pytest.mark.parametrize("name", R_MATRIX_ALGEBRAS)
def test_invariant_dimension_product_inequality(name):
    # dim Hom(I, end^(x2)) >= (dim Hom(I, end))^2
    h = catalog.get(name)
    triv = trivial_module(h)
    a = adjoint_module(h)
    d1 = hom_space(triv, a).dim
    d2 = hom_space(triv, tensor_power(a, 2)).dim
    assert d2 >= d1 * d1, (name, d1, d2)


@pytest.mark.parametrize(
    "field",
    [QQ, CyclotomicField(3), CyclotomicField(12), PrimeField(5)],
    ids=lambda f: str(f.to_json()),
)
def test_field_laws(field):
    rng = random.Random(987654321)
    for _ in range(40):
        a, b, c = (field.random_element(rng) for _ in range(3))
        assert field.eq(field.add(a, b), field.add(b, a))
        assert field.eq(field.mul(a, b), field.mul(b, a))
        assert field.eq(field.mul(field.mul(a, b), c), field.mul(a, field.mul(b, c)))
        assert field.eq(field.mul(a, field.add(b, c)),
                        field.add(field.mul(a, b), field.mul(a, c)))
        x = field.random_element(rng, zero_ok=False)
        assert field.eq(field.mul(field.inv(x), x), field.one)


def test_mueger_nondegeneracy_witness():
    # factorizable algebras: the transparency of the end detects commutativity
    for name in R_MATRIX_ALGEBRAS:
        h = catalog.get(name)
        assert h.is_factorizable()[0]
        assert muger_central(adjoint_module(h)) == h.is_commutative()[0]
