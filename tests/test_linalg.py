import itertools
import random
from fractions import Fraction

import pytest

from hopfblocks.fields import QQ, CyclotomicField, PrimeField
from hopfblocks.linalg import (
    LinAlgError,
    Matrix,
    NotInvertible,
    _unity_candidates,
    conjugation_operator,
    inverse,
    kernel,
    kron_sum,
    minimal_polynomial,
    operator_order,
    simultaneous_kernel,
    solve_unique,
    tensor_product,
)
from hopfblocks import polys as P


def mat(data, field=QQ):
    return Matrix.from_dense(field, data)


def rand_matrix(rng, field, n, m):
    return Matrix.from_dense(field, [[field.random_element(rng) for _ in range(m)] for _ in range(n)])


# -- kernels -----------------------------------------------------------------


def test_kernel_identity_empty():
    assert kernel(Matrix.identity(QQ, 3)) == []


def test_kernel_zero_matrix():
    vecs = kernel(Matrix.zeros(QQ, 2, 3))
    assert len(vecs) == 3


def test_kernel_rank_one():
    vecs = kernel(mat([[1, 1], [2, 2]]))
    assert len(vecs) == 1
    v = vecs[0]
    assert QQ.eq(v[0], QQ.neg(v[1])) or QQ.eq(v[1], QQ.neg(v[0]))


def test_kernel_rank_plus_nullity():
    rng = random.Random(7)
    for _ in range(15):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, QQ, n, m)
        k = len(kernel(a))
        at = a.transpose()
        rank = m - k
        rank_t = n - len(kernel(at))
        assert rank == rank_t
        for v in kernel(a):
            assert all(QQ.is_zero(x) for x in a.apply_right(v))


def test_kernel_cyclotomic():
    F = CyclotomicField(3)
    z = F.zeta()
    a = Matrix.from_dense(F, [[F.one, z], [F.neg(z), F.mul(F.neg(z), z)]])
    vecs = kernel(a)
    assert len(vecs) == 1
    assert all(F.is_zero(x) for x in a.apply_right(vecs[0]))


def test_kernel_prime_field():
    F = PrimeField(5)
    a = Matrix.from_dense(F, [[1, 2], [3, 6 % 5]])
    vecs = kernel(a)
    assert len(vecs) == 1


def test_simultaneous_kernel_matches_stacked():
    rng = random.Random(11)
    for _ in range(10):
        m = rng.randint(2, 5)
        mats = [rand_matrix(rng, QQ, rng.randint(1, 4), m) for _ in range(3)]
        joint = simultaneous_kernel(mats)
        for v in joint.vectors:
            for a in mats:
                assert all(QQ.is_zero(x) for x in a.apply_right(v))
        stacked_rows = [row for a in mats for row in a.to_dense()]
        stacked = Matrix.from_dense(QQ, stacked_rows) if stacked_rows else Matrix.zeros(QQ, 0, m)
        assert joint.dim == len(kernel(stacked))


def test_kernel_large_sparse_cycle():
    # circulant-style integer matrix with known kernel dimension
    n = 60
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        row[(i + 1) % n] = -1
        rows.append(row)
    vecs = kernel(mat(rows))
    assert len(vecs) == 1
    assert all(QQ.eq(x, vecs[0][0]) for x in vecs[0])


def test_kernel_reduced_form_is_field_independent():
    # one integer system; free_cols are the non-pivot columns of its RREF
    # (pivot = least column of each row) over every field where the rank agrees
    rng = random.Random(5)
    system = [[[rng.randint(-3, 3) for _ in range(9)] for _ in range(3)] for _ in range(2)]
    ref = simultaneous_kernel([mat(rows) for rows in system])
    assert 0 < ref.dim < 9
    for F in (CyclotomicField(3), PrimeField(2**31 - 1)):
        ker = simultaneous_kernel([Matrix.from_dense(F, [[F.from_int(x) for x in row] for row in rows]) for rows in system])
        assert ker.free_cols == ref.free_cols
        for v, w in zip(ker.vectors, ref.vectors, strict=True):
            assert all(F.eq(x, F.from_fraction(Fraction(y))) for x, y in zip(v, w, strict=True))


def test_unity_candidates_match_phi_oracle():
    # oracle: a plain phi sieve over [1, 2 b^2 + 1], which holds every k with
    # phi(k) <= b because phi(k) >= sqrt(k / 2)
    top = 200
    limit = 2 * top * top + 2
    phi = list(range(limit))
    for p in range(2, limit):
        if phi[p] == p:
            for k in range(p, limit, p):
                phi[k] -= phi[k] // p
    for b in range(top + 1):
        assert _unity_candidates(b) == [k for k in range(1, 2 * b * b + 2) if phi[k] <= b], b


def test_unity_candidates_keep_search_limit():
    with pytest.raises(LinAlgError):
        _unity_candidates(6000)


FIELDS = pytest.mark.parametrize("F", [QQ, CyclotomicField(3), PrimeField(7)], ids=["Q", "Qzeta3", "F7"])


def lift(F, data):
    return Matrix.from_dense(F, [[F.from_int(x) for x in row] for row in data])


def same_vector(F, xs, ys):
    return all(F.eq(x, y) for x, y in zip(xs, ys, strict=True))


@FIELDS
def test_solve_unique(F):
    x = solve_unique(lift(F, [[2, 0], [1, 1]]), [F.from_int(4), F.from_int(3)])
    assert same_vector(F, x, [F.from_int(2), F.one])
    rng = random.Random(2)
    solved = 0
    for n in range(1, 6):
        a = rand_matrix(rng, F, n + 2, n)
        if kernel(a):
            continue
        want = [F.random_element(rng) for _ in range(n)]
        assert same_vector(F, solve_unique(a, a.apply_right(want)), want)
        solved += 1
    assert solved >= 3
    with pytest.raises(LinAlgError):  # inconsistent, though A has full column rank
        solve_unique(lift(F, [[1, 0], [0, 1], [1, 1]]), [F.one, F.one, F.zero])
    with pytest.raises(LinAlgError):  # underdetermined
        solve_unique(lift(F, [[1, 1], [2, 2]]), [F.one, F.from_int(2)])


@FIELDS
def test_inverse(F):
    a = lift(F, [[1, 2], [3, 5]])
    assert a.mul(inverse(a)).is_identity()
    with pytest.raises(NotInvertible):
        inverse(lift(F, [[1, 1], [1, 1]]))
    rng = random.Random(13)
    inverted = 0
    for n in range(1, 7):
        a = rand_matrix(rng, F, n, n)
        if kernel(a):
            continue
        b = inverse(a)
        assert a.mul(b).is_identity() and b.mul(a).is_identity()
        inverted += 1
    assert inverted >= 4
    for n in range(3, 7):
        dense = rand_matrix(rng, F, n, n).to_dense()
        dense[-1] = [F.add(x, y) for x, y in zip(dense[0], dense[1])]  # singular over every field
        with pytest.raises(NotInvertible):
            inverse(Matrix.from_dense(F, dense))


# -- tensor products -----------------------------------------------------------


def test_tensor_identity():
    assert tensor_product(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)).is_identity()


def test_tensor_unit():
    a = mat([[1, 2], [3, 4]])
    assert tensor_product(a, Matrix.identity(QQ, 1)) == a


def test_tensor_diagonal():
    a = Matrix.diagonal(QQ, [2, 3])
    b = Matrix.diagonal(QQ, [5, 7])
    assert tensor_product(a, b) == Matrix.diagonal(QQ, [10, 14, 15, 21])


def test_tensor_mixed_product_law():
    rng = random.Random(3)
    for _ in range(5):
        a = rand_matrix(rng, QQ, 2, 3)
        c = rand_matrix(rng, QQ, 3, 2)
        b = rand_matrix(rng, QQ, 2, 2)
        d = rand_matrix(rng, QQ, 2, 2)
        lhs = tensor_product(a, b).mul(tensor_product(c, d))
        rhs = tensor_product(a.mul(c), b.mul(d))
        assert lhs == rhs


def kron_sum_oracle(F, terms):
    """Entrywise: (A⊗B)[3i + k][2j + l] = A[i][j] B[k][l] for 2x3 A and 3x2 B."""
    dense = [[F.zero] * 6 for _ in range(6)]
    for c, a, b in terms:
        ad, bd = a.to_dense(), b.to_dense()
        for i, j, k, l in itertools.product(range(2), range(3), range(3), range(2)):
            term = F.mul(c, F.mul(ad[i][j], bd[k][l]))
            dense[3 * i + k][2 * j + l] = F.add(dense[3 * i + k][2 * j + l], term)
    return Matrix.from_dense(F, dense)


@FIELDS
def test_kron_sum_matches_entrywise_oracle(F):
    rng = random.Random(11)
    terms = [
        (F.random_element(rng, zero_ok=False), rand_matrix(rng, F, 2, 3), rand_matrix(rng, F, 3, 2))
        for _ in range(4)
    ]
    # cancels the first term except in the blocks of row 0 of its right factor
    c0, a0, b0 = terms[0]
    b1 = Matrix(F, 3, 2, [{0: F.one}] + [dict(row) for row in b0.rows[1:]])
    partial = [(c0, a0, b0), (F.neg(c0), a0, b1)]
    for case in (terms, terms + partial[1:], partial):
        expected = kron_sum_oracle(F, case)
        got = kron_sum(F, 6, 6, case)
        assert got == expected
        assert got.nnz() == expected.nnz()
    assert kron_sum(F, 6, 6, partial).nnz() < 36
    assert kron_sum(F, 6, 6, [(c0, a0, b0), (F.neg(c0), a0, b0)]).nnz() == 0


# -- minimal polynomials -------------------------------------------------------


def test_minpoly_identity():
    m = minimal_polynomial(Matrix.identity(QQ, 4))
    assert m == [-1, 1]


def test_minpoly_nilpotent_jordan():
    m = minimal_polynomial(mat([[0, 1], [0, 0]]))
    assert m == [0, 0, 1]


def test_minpoly_diag():
    m = minimal_polynomial(Matrix.diagonal(QQ, [1, -1]))
    assert m == [-1, 0, 1]


def test_minpoly_annihilates():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        t = rand_matrix(rng, QQ, n, n)
        m = minimal_polynomial(t)
        acc = Matrix.zeros(QQ, n, n)
        power = Matrix.identity(QQ, n)
        for c in m:
            acc = acc.add(power.scale(c))
            power = power.mul(t)
        assert acc.is_zero_matrix()


def power_dependence_oracle(t):
    """Least k at which vec(I), vec(T), ..., vec(T^k) are dependent; the
    monic dependence, low degree first."""
    F, n = t.field, t.nrows
    powers = [Matrix.identity(F, n)]
    while True:
        cols = [[p.entry(i, j) for i in range(n) for j in range(n)] for p in powers]
        ker = simultaneous_kernel([Matrix.from_dense(F, [list(r) for r in zip(*cols)])])
        if ker.dim:
            v = ker.vectors[0]
            return [F.mul(F.inv(v[-1]), x) for x in v]
        powers.append(powers[-1].mul(t))


@FIELDS
def test_minpoly_matches_power_dependence_oracle(F):
    rng = random.Random(23)
    samples = [
        lift(F, [[2, 1, 0], [0, 2, 0], [0, 0, 2]]),  # not diagonalizable: (x - 2)^2
        lift(F, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 3]]),  # x^3 (x - 3)
        Matrix.diagonal(F, [F.one, F.one, F.neg(F.one)]),
        *(rand_matrix(rng, F, n, n) for n in (1, 3, 4, 5)),
    ]
    for t in samples:
        assert same_vector(F, minimal_polynomial(t), power_dependence_oracle(t))


# -- operator orders -----------------------------------------------------------


def test_order_diag_pm1():
    cert = operator_order(Matrix.diagonal(QQ, [1, -1]))
    assert cert.gl_order.is_finite and cert.gl_order.n == 2
    assert cert.pgl_order.is_finite and cert.pgl_order.n == 2


def test_order_scalar_root_of_unity():
    F = CyclotomicField(3)
    cert = operator_order(Matrix.diagonal(F, [F.zeta(), F.zeta()]))
    assert cert.gl_order.n == 3
    assert cert.pgl_order.n == 1


def test_order_unipotent_infinite():
    cert = operator_order(mat([[1, 1], [0, 1]]))
    assert cert.gl_order.kind == "infinite"
    assert cert.gl_order.reason == "NotSemisimple"
    assert cert.pgl_order.kind == "infinite"
    assert not cert.minpoly_squarefree


def test_order_companion_sqrt2():
    cert = operator_order(mat([[0, 2], [1, 0]]))  # companion of x^2 - 2
    assert cert.gl_order.kind == "infinite"
    assert cert.gl_order.reason == "RootNotUnity"
    assert cert.pgl_order.is_finite and cert.pgl_order.n == 2


def test_order_mixed_cyclotomic():
    F = CyclotomicField(12)
    z12 = F.zeta()
    z3 = F.pow(z12, 4)
    z4 = F.pow(z12, 3)
    cert = operator_order(Matrix.diagonal(F, [z3, z4]))
    assert cert.gl_order.n == 12


def test_order_not_invertible():
    with pytest.raises(NotInvertible):
        operator_order(mat([[1, 0], [0, 0]]))


def test_order_prime_field_iteration():
    F = PrimeField(7)
    cert = operator_order(Matrix.diagonal(F, [3, 3]), cap=100)
    assert cert.gl_order.n == 6  # 3 has order 6 mod 7
    assert cert.pgl_order.n == 1


def test_order_prime_field_cap():
    F = PrimeField(7)
    cert = operator_order(Matrix.diagonal(F, [3, 5]), cap=2)
    assert cert.gl_order.kind == "unknown" and cert.gl_order.cap == 2


def test_pgl_equals_gl_of_conjugation_operator():
    rng = random.Random(17)
    samples = [
        mat([[0, 2], [1, 0]]),
        Matrix.diagonal(QQ, [1, -1]),
        Matrix.diagonal(QQ, [2, 2]),
        mat([[0, -1], [1, 0]]),
        mat([[Fraction(1, 2), 0], [0, 2]]),
    ]
    for t in samples:
        cert = operator_order(t)
        conj = conjugation_operator(t)
        conj_cert = operator_order(conj)
        assert cert.pgl_order == conj_cert.gl_order


def test_pgl_divides_gl_when_both_finite():
    F = CyclotomicField(12)
    z = F.zeta()
    for diag in ([z, F.one], [F.pow(z, 2), F.pow(z, 6)], [F.pow(z, 3), F.pow(z, 3)]):
        cert = operator_order(Matrix.diagonal(F, diag))
        if cert.gl_order.is_finite and cert.pgl_order.is_finite:
            assert cert.gl_order.n % cert.pgl_order.n == 0


def test_finite_order_certificate_is_sharp():
    samples = [Matrix.diagonal(QQ, [1, -1]), mat([[0, -1], [1, 0]]), mat([[0, -1], [1, -1]])]
    for t in samples:
        cert = operator_order(t)
        n = cert.gl_order.n
        assert t.power(n).is_identity()
        for d in range(1, n):
            if n % d == 0:
                assert not t.power(d).is_identity()


def test_poly_helpers():
    f = [QQ.from_int(-1), QQ.from_int(0), QQ.from_int(1)]  # x^2 - 1
    g = [QQ.from_int(-1), QQ.from_int(1)]  # x - 1
    q, r = P.pdivmod(QQ, f, g)
    assert r == [] and q == [1, 1]
    assert P.pgcd(QQ, f, g) == [-1, 1]
    assert P.is_squarefree(QQ, f)
    assert not P.is_squarefree(QQ, P.pmul(QQ, g, g))
