import random
from fractions import Fraction

import pytest

from hopfblocks.fields import (
    QQ,
    CyclotomicField,
    DivisionByZero,
    PrimeField,
    euler_phi,
    field_from_json,
)
from hopfblocks.polys import cyclotomic_polynomial
from oracles import cyclotomic_inv, cyclotomic_reduce_list, cyclotomic_reduction_table


def test_rational_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.normalize(Fraction(4, 2)) == 2
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(DivisionByZero):
        QQ.inv(0)


def test_rational_eq_matches_normalized_compare():
    # QQ.eq is plain ==, which compares int and Fraction by value
    values = [0, 1, -2, 3, Fraction(0), Fraction(2, 1), Fraction(-2, 1), Fraction(1, 2), Fraction(3, 1), Fraction(6, 2)]
    for a in values:
        for b in values:
            assert QQ.eq(a, b) == (QQ.normalize(a) == QQ.normalize(b)), (a, b)


def test_cyclotomic_phi3_relation():
    F = CyclotomicField(3)
    z = F.zeta()
    total = F.add(F.add(F.mul(z, z), z), F.one)
    assert F.is_zero(total)


def test_cyclotomic_zeta_power_n_is_one():
    for n in (3, 4, 5, 6, 12):
        F = CyclotomicField(n)
        assert F.eq(F.pow(F.zeta(), n), F.one)
        for k in range(1, n):
            assert not F.eq(F.pow(F.zeta(), k), F.one) or euler_phi(n) == 1


def test_prime_field_inverse():
    F = PrimeField(5)
    assert F.inv(2) == 3
    for p in (2, 3, 7, 11):
        Fp = PrimeField(p)
        for x in range(1, p):
            assert Fp.mul(x, Fp.inv(x)) == Fp.one


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


CYCLOTOMIC_INDICES = [1, 2, 3, 4, 5, 7, 8, 9, 12, 15]


def assert_same_raw(got, expected):
    # the same raw value: a tuple of Fraction equal entry by entry
    assert type(got) is tuple and all(type(x) is Fraction for x in got)
    assert got == expected


@pytest.mark.parametrize("n", CYCLOTOMIC_INDICES)
def test_cyclotomic_inverse_matches_extended_euclid_oracle(n):
    F = CyclotomicField(n)
    rng = random.Random(n)
    values = [F.one, F.zeta(), F.from_int(-3), F.from_fraction(Fraction(2, 7))]
    values += [F.random_element(rng, zero_ok=False) for _ in range(30)]
    for a in values:
        assert_same_raw(F.inv(a), cyclotomic_inv(F, a))


@pytest.mark.parametrize("n", CYCLOTOMIC_INDICES)
def test_cyclotomic_parse_of_long_lists_matches_reduction_oracle(n):
    F = CyclotomicField(n)
    rng = random.Random(100 + n)
    # lengths up to 2 phi - 1 fold through the table, longer ones were divided
    for length in range(F.phi + 1, 3 * F.phi + 3):
        coeffs = [rng.choice([rng.randint(-9, 9), f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"])
                  for _ in range(length)]
        expected = cyclotomic_reduce_list(F, [Fraction(str(c)) for c in coeffs])
        assert_same_raw(F.parse(coeffs), expected)


@pytest.mark.parametrize("n", CYCLOTOMIC_INDICES)
def test_cyclotomic_reduction_table_matches_shift_and_fold_oracle(n):
    F = CyclotomicField(n)
    # the table holds the rows x^d, ..., x^(2d-2) that products of residues
    # read; the oracle's loop also builds x^(2d-1), which none reads
    assert F._reduction == cyclotomic_reduction_table(F)[:F.phi - 1]
    assert len(F._reduction) == F.phi - 1


FIELDS = [QQ, CyclotomicField(3), CyclotomicField(12), PrimeField(7)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.to_json()))
def test_field_axioms_random(field):
    rng = random.Random(20240811)
    for _ in range(60):
        a = field.random_element(rng)
        b = field.random_element(rng)
        c = field.random_element(rng)
        assert field.eq(field.add(a, b), field.add(b, a))
        assert field.eq(field.mul(a, b), field.mul(b, a))
        assert field.eq(field.add(field.add(a, b), c), field.add(a, field.add(b, c)))
        assert field.eq(field.mul(field.mul(a, b), c), field.mul(a, field.mul(b, c)))
        assert field.eq(field.mul(a, field.add(b, c)), field.add(field.mul(a, b), field.mul(a, c)))
        x = field.random_element(rng, zero_ok=False)
        assert field.eq(field.mul(field.inv(x), x), field.one)
        assert field.eq(field.normalize(field.normalize(a)), field.normalize(a))


def test_field_json_roundtrip():
    for f in FIELDS:
        assert field_from_json(f.to_json()) == f


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
