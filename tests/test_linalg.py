import itertools
import random
from fractions import Fraction

import pytest

from hopfblocks.fields import QQ, CyclotomicField, PrimeField
from hopfblocks.linalg import (
    LinAlgError,
    Matrix,
    NotInvertible,
    _RowReducer,
    _unity_candidates,
    finite,
    inverse,
    kernel,
    kron_sum,
    linear_combination,
    minimal_polynomial,
    operator_order,
    simultaneous_kernel,
    solve_unique,
    tensor_product,
)
from hopfblocks import linalg
from hopfblocks import polys as P
from oracles import (
    in_span,
    is_zero_matrix,
    matrix_power,
    minimal_polynomial_by_evaluation,
    order_by_matrix_powers,
)


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


def test_kernel_combination_reads_sparse_coordinates():
    # reduced form: a combination's entries at the free columns are its coordinates
    rng = random.Random(11)
    for _ in range(10):
        a = rand_matrix(rng, QQ, 3, 7)
        ker = simultaneous_kernel([a])
        coords = {i: QQ.from_int(rng.randint(1, 5)) for i in rng.sample(range(ker.dim), 2)}
        vec = ker.combination(coords)
        assert {i: vec[c] for i, c in enumerate(ker.free_cols) if c in vec} == coords
        dense = [vec.get(j, QQ.zero) for j in range(ker.ncols)]
        assert all(QQ.is_zero(x) for x in a.apply_right(dense))
        assert in_span(ker, dense)
        pivot = next(j for j in range(ker.ncols) if j not in ker.free_cols)
        dense[pivot] = QQ.add(dense[pivot], QQ.one)
        assert not in_span(ker, dense)
    assert ker.combination({}) == {}


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


def reducer_kernel(F, n, mats):
    """Oracle: the kernel basis read straight off ``_RowReducer``'s pivot rows."""
    red = _RowReducer(F)
    for m in mats:
        for row in m.rows:
            red.add(row)
    free = [c for c in range(n) if c not in red.pivots]
    columns = {f: {f: F.one} for f in free}
    for p, prow in red.pivots.items():
        for j, c in prow.items():
            if j != p:
                columns[j][p] = F.neg(c)
    return free, [columns[f] for f in free]


@FIELDS
def test_row_reducer_column_index_matches_pivots(F):
    """After every add, ``column_rows`` is the index rebuilt from ``pivots``
    and the pivot rows keep the reduced row echelon form."""
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 14)
        red = _RowReducer(F)
        for _ in range(rng.randint(1, n + 4)):
            support = rng.sample(range(n), rng.randint(1, min(5, n)))
            red.add({j: F.random_element(rng) for j in support})
            rebuilt: dict = {}
            for p, prow in red.pivots.items():
                assert min(prow) == p and F.eq(prow[p], F.one)
                assert all(j == p or j not in red.pivots for j in prow)
                for j in prow:
                    if j != p:
                        rebuilt.setdefault(j, set()).add(p)
            assert {j: rows for j, rows in red.column_rows.items() if rows} == rebuilt


def random_two_term_system(F, rng, n):
    """Stacked rows of at most two nonzeros over n columns: links consistent
    with a hidden solution p, links that most likely close inconsistent
    cycles, one-term rows, repeated rows, explicit zero entries, and a few
    columns no row touches."""
    p = [F.random_element(rng, zero_ok=False) for _ in range(n)]
    touched = rng.sample(range(n), n - 3)
    rows = []
    for _ in range(rng.randint(n // 2, n + 5)):
        kind = rng.random()
        i, j = rng.sample(touched, 2)
        a = F.random_element(rng, zero_ok=False)
        if kind < 0.08:
            rows.append({i: a})
        elif kind < 0.16:
            rows.append({i: a, j: F.zero})
        elif kind < 0.25:
            rows.append({i: a, j: F.random_element(rng, zero_ok=False)})
        else:
            rows.append({i: a, j: F.neg(F.div(F.mul(a, p[i]), p[j]))})
        if rng.random() < 0.1:
            c = F.random_element(rng, zero_ok=False)
            rows.append({k: F.mul(c, v) for k, v in rows[-1].items()})
        if rng.random() < 0.05:
            rows.append({})
    rng.shuffle(rows)
    cut = rng.randint(0, len(rows))
    return [Matrix(F, cut, n, rows[:cut]), Matrix(F, len(rows) - cut, n, rows[cut:])]


@FIELDS
def test_two_term_kernel_matches_reducer(F):
    rng = random.Random(11)
    n = 24
    systems = [random_two_term_system(F, rng, n) for _ in range(40)]
    three_term = random_two_term_system(F, rng, n)
    three_term[0].rows.append({0: F.one, 5: F.one, 9: F.neg(F.one)})
    three_term[0].nrows += 1
    linked = 0
    for mats in systems + [three_term]:
        ker = simultaneous_kernel(mats)
        free, columns = reducer_kernel(F, n, mats)
        assert ker.free_cols == free
        for col, ref in zip(ker.columns, columns, strict=True):
            assert set(col) == set(ref)
            assert all(F.eq(col[j], ref[j]) for j in ref)
        linked += sum(len(col) > 1 for col in ker.columns)
    assert linked > 0


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
    zero_term = [(F.zero, a0, b0)]  # adds nothing, not even zero entries
    doubled = [(c0, a0, b0), (c0, a0, b0)]  # every product meets another, none cancel
    for case in (terms, terms + partial[1:], partial, zero_term, zero_term + terms[1:2], doubled):
        expected = kron_sum_oracle(F, case)
        got = kron_sum(F, 6, 6, case)
        assert got == expected
        assert got.nnz() == expected.nnz()
    assert kron_sum(F, 6, 6, partial).nnz() < 36
    assert kron_sum(F, 6, 6, [(c0, a0, b0), (F.neg(c0), a0, b0)]).nnz() == 0


@FIELDS
def test_linear_combination_matches_entrywise_oracle(F):
    rng = random.Random(13)
    terms = [(F.random_element(rng, zero_ok=False), rand_matrix(rng, F, 3, 4)) for _ in range(4)]
    c0, m0 = terms[0]
    # cancels the first term except in row 0
    m1 = Matrix(F, 3, 4, [{}] + [dict(row) for row in m0.rows[1:]])
    for case in (terms, terms + [(F.neg(c0), m1)], [(c0, m0), (F.neg(c0), m0)]):
        dense = [[F.zero] * 4 for _ in range(3)]
        for c, m in case:
            for i, j in itertools.product(range(3), range(4)):
                dense[i][j] = F.add(dense[i][j], F.mul(c, m.entry(i, j)))
        expected = Matrix.from_dense(F, dense)
        got = linear_combination(F, 3, 4, case)
        assert got == expected
        assert got.nnz() == expected.nnz()
    assert linear_combination(F, 3, 4, [(c0, m0), (F.neg(c0), m0)]).nnz() == 0


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
        assert is_zero_matrix(acc)


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


def scaled_permutation(rng, F, n):
    """c P for a signed permutation matrix P of random cycles of length at
    most 6, c = zeta over Q(zeta3) and 2 otherwise: the minimal polynomial
    stays of small degree however large n is."""
    c = F.zeta() if F.kind == "cyclotomic" else F.from_int(2)
    order = list(range(n))
    rng.shuffle(order)
    perm = [0] * n
    at = 0
    while at < n:
        cycle = order[at:at + rng.randint(1, 6)]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
        at += len(cycle)
    return Matrix(F, n, n, [{perm[i]: rng.choice((c, F.neg(c)))} for i in range(n)])


def block_diagonal(F, blocks):
    n = sum(b.nrows for b in blocks)
    out = Matrix(F, n, n)
    at = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            out.rows[at + i] = {at + j: v for j, v in row.items()}
        at += b.nrows
    return out


def jordan_block(F, eigenvalue, size):
    return lift(F, [[eigenvalue if i == j else int(j == i + 1) for j in range(size)] for i in range(size)])


def rand_sparse_matrix(rng, F, n, density):
    return Matrix(F, n, n, [{j: F.random_element(rng, zero_ok=False) for j in range(n) if rng.random() < density}
                            for _ in range(n)])


def eigenvector_first(F):
    """Row 0 is an eigenvector (annihilator x - 2), so the row-by-row
    certificate must extend its annihilator twice to reach degree 5."""
    return block_diagonal(F, [lift(F, [[2]]), lift(F, [[3, 1], [0, 5]]), lift(F, [[0, 1], [-1, 0]])])


def minpoly_cases(F):
    rng = random.Random(29)
    return [
        *(scaled_permutation(rng, F, n) for n in (3, 12, 60, 200)),
        eigenvector_first(F),
        block_diagonal(F, [lift(F, [[1]]), scaled_permutation(rng, F, 7), lift(F, [[1]])]),
        # not squarefree
        block_diagonal(F, [jordan_block(F, 2, 3), jordan_block(F, 2, 2), jordan_block(F, -1, 1)]),
        jordan_block(F, 0, 4),
        block_diagonal(F, [jordan_block(F, 1, 2), jordan_block(F, 3, 3)]),
        # scalars, 0 x 0 and 1 x 1
        Matrix.diagonal(F, [F.from_int(3)] * 5),
        Matrix.zeros(F, 4, 4),
        Matrix(F, 0, 0),
        lift(F, [[4]]),
        lift(F, [[0]]),
        *(rand_sparse_matrix(rng, F, n, 0.15) for n in (8, 12, 16)),
        *(rand_matrix(rng, F, n, n) for n in (2, 4, 6)),
    ]


@FIELDS
def test_minpoly_matches_full_evaluation_oracle(F):
    for t in minpoly_cases(F):
        assert same_vector(F, minimal_polynomial(t), minimal_polynomial_by_evaluation(t)), t


@FIELDS
def test_minpoly_extends_past_row_zero(F):
    t = eigenvector_first(F)
    row_zero = linalg._sequence_annihilator(F, t.nrows, linalg._row_orbit(F, {0: F.one}, t.rows))
    assert same_vector(F, row_zero, [F.from_int(-2), F.one])
    assert P.pdeg(minimal_polynomial(t)) == 5


@FIELDS
def test_minpoly_forms_no_matrix_product(F, monkeypatch):
    cases = minpoly_cases(F)
    wants = [minimal_polynomial(t) for t in cases]

    def forbidden(self, other):
        raise AssertionError("minimal_polynomial multiplied two matrices")

    for name in ("mul", "__mul__", "__matmul__"):
        monkeypatch.setattr(Matrix, name, forbidden)
    for t, want in zip(cases, wants):
        assert same_vector(F, minimal_polynomial(t), want)


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


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_order_rejects_cap_below_one(F):
    t = Matrix.diagonal(F, [3, 5])
    for cap in (0, -1):
        with pytest.raises(ValueError):
            operator_order(t, cap=cap)
    assert operator_order(t, cap=1).gl_order.kind == ("unknown" if F.kind == "Fp" else "infinite")


@FIELDS
def test_order_of_empty_operator(F):
    cert = operator_order(Matrix.zeros(F, 0, 0))
    assert cert.gl_order == finite(1) and cert.pgl_order == finite(1)


def test_fp_orders_match_matrix_powers():
    rng = random.Random(41)
    for _ in range(60):
        F = PrimeField(rng.choice((2, 3, 5, 7, 11)))
        n = rng.randint(1, 6)
        if rng.random() < 0.3:
            t = Matrix.diagonal(F, [F.random_element(rng, zero_ok=False)] * n)
        else:
            t = rand_matrix(rng, F, n, n)
            while F.is_zero(minimal_polynomial(t)[0]):
                t = rand_matrix(rng, F, n, n)
        for cap in (1, 2, 5, 10000):
            cert = operator_order(t, cap=cap)
            assert (cert.gl_order, cert.pgl_order) == order_by_matrix_powers(t, cap), (t.to_dense(), cap)


def conjugation_operator(t: Matrix) -> Matrix:
    """Oracle: the operator X -> T X T^(-1) on the full matrix space
    (row-major vec), whose GL order is the PGL order of T."""
    return t.kron(inverse(t).transpose())


def test_pgl_equals_gl_of_conjugation_operator():
    rng = random.Random(17)
    z3 = CyclotomicField(3)
    z12 = CyclotomicField(12)
    samples = [
        mat([[0, 2], [1, 0]]),
        Matrix.diagonal(QQ, [1, -1]),
        Matrix.diagonal(QQ, [2, 2]),
        mat([[0, -1], [1, 0]]),
        mat([[Fraction(1, 2), 0], [0, 2]]),
        Matrix.diagonal(z3, [z3.zeta(), z3.pow(z3.zeta(), 2)]),
        Matrix.from_dense(z3, [[z3.zero, z3.zeta()], [z3.one, z3.zero]]),  # companion of x^2 - zeta3
        Matrix.diagonal(z12, [z12.pow(z12.zeta(), 4), z12.pow(z12.zeta(), 3)]),
        Matrix.diagonal(z12, [z12.zeta(), z12.one, z12.pow(z12.zeta(), 6)]),
    ]
    for t in samples:
        cert = operator_order(t)
        conj = conjugation_operator(t)
        conj_cert = operator_order(conj)
        assert cert.pgl_order == conj_cert.gl_order
        assert cert.evidence["conjugation_minpoly"] == conj_cert.evidence["minpoly"]


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
        assert matrix_power(t, n).is_identity()
        for d in range(1, n):
            if n % d == 0:
                assert not matrix_power(t, d).is_identity()


def test_poly_helpers():
    f = [QQ.from_int(-1), QQ.from_int(0), QQ.from_int(1)]  # x^2 - 1
    g = [QQ.from_int(-1), QQ.from_int(1)]  # x - 1
    q, r = P.pdivmod(QQ, f, g)
    assert r == [] and q == [1, 1]
    assert P.pgcd(QQ, f, g) == [-1, 1]
    assert P.is_squarefree(QQ, f)
    assert not P.is_squarefree(QQ, P.pmul(QQ, g, g))
