"""Independent oracles that the tests compare the library against.

They compute the same quantities as the library by a different route, so
they live here rather than in ``hopfblocks``, which never calls them.  So
do the predicates that only the tests ask of library objects (``in_span``,
``is_zero_matrix``), and the dense views of matrices, vectors and kernels
that only the tests build (``from_dense``, ``kernel``): the library holds
every matrix row, kernel vector and algebra element sparse.
"""

from fractions import Fraction


# ---------------------------------------------------------------------------
# Dense views that only the tests use
# ---------------------------------------------------------------------------


def from_dense(field, data):
    """The matrix with the given dense rows."""
    from hopfblocks.linalg import LinAlgError, Matrix

    nrows = len(data)
    ncols = len(data[0]) if nrows else 0
    m = Matrix(field, nrows, ncols)
    for i, row in enumerate(data):
        if len(row) != ncols:
            raise LinAlgError("ragged rows")
        for j, v in enumerate(row):
            if not field.is_zero(v):
                m.rows[i][j] = v
    return m


def to_dense(m) -> list[list]:
    z = m.field.zero
    return [[row.get(j, z) for j in range(m.ncols)] for row in m.rows]


def field_pow(F, a, k: int):
    """a^k in the field F, by binary powering; a negative k inverts a first."""
    if k < 0:
        a, k = F.inv(a), -k
    result = F.one
    while k:
        if k & 1:
            result = F.mul(result, a)
        a = F.mul(a, a)
        k >>= 1
    return result


def diagonal(field, entries):
    """The square matrix with the given diagonal."""
    from hopfblocks.linalg import Matrix

    entries = list(entries)
    m = Matrix(field, len(entries), len(entries))
    for i, v in enumerate(entries):
        if not field.is_zero(v):
            m.rows[i][i] = v
    return m


def entry(m, i: int, j: int):
    return m.rows[i].get(j, m.field.zero)


def apply_right(m, vec: list) -> list:
    """The matrix times a dense column vector."""
    F = m.field
    out = []
    for row in m.rows:
        acc = F.zero
        for j, a in row.items():
            x = vec[j]
            if not F.is_zero(x):
                acc = F.add(acc, F.mul(a, x))
        out.append(acc)
    return out


def kernel_vectors(ker) -> list[list]:
    """A ``KernelBasis`` as dense vectors."""
    out = []
    for col in ker.columns:
        vec = [ker.field.zero] * ker.ncols
        for j, v in col.items():
            vec[j] = v
        out.append(vec)
    return out


def kernel(a) -> list[list]:
    """Dense basis of the right null space {v : A v = 0}."""
    from hopfblocks.linalg import simultaneous_kernel

    return kernel_vectors(simultaneous_kernel([a]))


def sparse(field, x: list) -> dict:
    """The sparse element (index -> nonzero coefficient) of a dense vector."""
    return {i: v for i, v in enumerate(x) if not field.is_zero(v)}


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def in_span(ker, vec: list) -> bool:
    """The dense vector vec lies in the span of the kernel basis: it equals
    the combination of the basis read off its free-column coordinates."""
    F = ker.field
    recon = ker.combination({i: vec[c] for i, c in enumerate(ker.free_cols) if not F.is_zero(vec[c])})
    return all(F.eq(recon.get(j, F.zero), x) for j, x in enumerate(vec))


def is_zero_matrix(m) -> bool:
    F = m.field
    return all(all(F.is_zero(v) for v in row.values()) for row in m.rows)


def trace(m):
    F = m.field
    return F.sum(m.rows[i].get(i, F.zero) for i in range(min(m.nrows, m.ncols)))


def jacobson_radical_dim(h) -> int:
    """Nullity of the trace form of the regular representation (char 0).

    The semisimplicity oracle: positive exactly for non-semisimple algebras.
    """
    from hopfblocks.linalg import Matrix, simultaneous_kernel

    F = h.field
    gram = Matrix(F, h.dim, h.dim)
    lms = [h.left_mult_matrix(i) for i in range(h.dim)]
    for i in range(h.dim):
        for j in range(h.dim):
            t = trace(lms[i].mul(lms[j]))
            if not F.is_zero(t):
                gram.rows[i][j] = t
    return simultaneous_kernel([gram]).dim


def element_multiplicative_order(h, x: dict, cap: int = 512) -> int | None:
    """Order of x by repeated multiplication; None if the cap is reached.

    The oracle for the ribbon order, which the library certifies through
    ``operator_order`` instead.
    """
    power = x
    for k in range(1, cap + 1):
        if h.sparse_eq(power, h.unit):
            return k
        power = h.product(power, x)
    return None


def order_by_matrix_powers(t, cap: int):
    """GL and PGL orders of t over F_p by multiplying out T, T^2, ... up to cap.

    The oracle for ``linalg._order_by_iteration``, which reads both orders
    off the residues x^k mod minpoly(T) instead.
    """
    from hopfblocks.linalg import Matrix, finite, unknown

    ident = Matrix.identity(t.field, t.nrows)
    power = t
    gl = None
    pgl = None
    for k in range(1, cap + 1):
        if pgl is None and scalar_value(power) is not None:
            pgl = finite(k)
        if power == ident:
            gl = finite(k)
            break
        power = power.mul(t)
    if gl is None:
        gl = unknown(cap)
    if pgl is None:
        pgl = unknown(cap) if gl.kind == "unknown" else gl
    return gl, pgl


def contains_matrix(hom, f) -> bool:
    """f lies in the span of the hom space's basis."""
    return hom.combination(hom.coordinates(f)) == f


def evaluation_full_rank(hom) -> bool:
    """The assembled evaluation Hom(M,N) x M -> N has rank dim Hom * dim M."""
    from hopfblocks.linalg import simultaneous_kernel

    F = hom.source.algebra.field
    cols = []
    for f in hom.basis:
        dense = to_dense(f)
        for c in range(hom.source.dim):
            cols.append([dense[r][c] for r in range(hom.target.dim)])
    if not cols:
        return True
    mat = from_dense(F, [[cols[j][r] for j in range(len(cols))] for r in range(hom.target.dim)])
    return simultaneous_kernel([mat]).dim == 0


def separating_twist_by_hom(h, genus_left: int, genus_right: int):
    """The separating twist as postcomposition with the twist of the right
    end power on Hom(A^(g'), A^(g'')), one basis map at a time.

    The oracle for ``blocks.separating_twist_op``, which restricts
    I x theta to the genus-(g' + g'') direct block instead.  Returns the hom
    space, the operator's matrix and its order certificate.
    """
    from hopfblocks.linalg import Matrix, operator_order
    from hopfblocks.repcat import adjoint_module, hom_space, tensor_power, twist

    a = adjoint_module(h)
    hom = hom_space(tensor_power(a, genus_left), tensor_power(a, genus_right))
    theta = twist(hom.target)
    out = Matrix(h.field, hom.dim, hom.dim)
    for j, f in enumerate(hom.basis):
        image = theta.mul(f)
        coords = hom.coordinates(image)
        assert hom.combination(coords) == image, "the twist left the hom space"
        for k, c in coords.items():
            out.rows[k][j] = c
    return hom, out, operator_order(out)


def bounding_pair_by_hom(h):
    """The bounding pair f -> theta_H . f . (theta_H^-1 x id) on the solved
    hom space Hom(H x A, H), one basis map at a time.

    The oracle for ``blocks.bounding_pair_op``, which never solves the hom
    space.  Every image must re-expand in the basis.  The matrix is then
    moved to that function's free-module coordinates C = f(1 x -), entry
    y * dim A + t: with P and Q the coordinates of the basis maps and of
    their images, the operator is Q P^-1.
    """
    from hopfblocks.linalg import Matrix, inverse, tensor_product
    from hopfblocks.repcat import adjoint_module, hom_space, regular_module, tensor_module, twist

    F = h.field
    reg = regular_module(h)
    a = adjoint_module(h)
    hom = hom_space(tensor_module(reg, a), reg)
    n = reg.dim * a.dim
    assert hom.dim == n, "Hom(H x A, H) is not free of rank dim A"
    theta = twist(reg)
    pre = tensor_product(inverse(theta), Matrix.identity(F, a.dim))
    unit = h.unit
    p, q = Matrix(F, n, n), Matrix(F, n, n)
    for j, f in enumerate(hom.basis):
        image = theta.mul(f).mul(pre)
        assert hom.combination(hom.coordinates(image)) == image, "the bounding pair left the hom space"
        for coords, g in ((p, f), (q, image)):
            # (g applied to 1 x e_t)[y] = sum_x unit[x] g[y][x * dim A + t]
            for y, row in enumerate(g.rows):
                for col, v in row.items():
                    x, t = divmod(col, a.dim)
                    if x in unit:
                        r = y * a.dim + t
                        coords.rows[r][j] = F.add(coords.rows[r].get(j, F.zero), F.mul(unit[x], v))
    for coords in (p, q):
        coords.rows = [{j: v for j, v in row.items() if not F.is_zero(v)} for row in coords.rows]
    return q.mul(inverse(p))


def matrix_power(t, k: int):
    """T^k for k >= 1 by repeated multiplication."""
    power = t
    for _ in range(k - 1):
        power = power.mul(t)
    return power


def _dense_sequence_annihilator(field, vec_iter) -> list:
    """Monic polynomial of least degree annihilating the stream v, Tv, T^2 v, ...

    ``vec_iter`` yields the successive vectors; term j is consumed only until
    the first linear dependence appears.  Row j fed to the reducer is
    (w_j | e_j), so the columns from n on of a reduced row record which
    combination of w_0..w_j it is; the first row with no column below n is
    the dependence.
    """
    from hopfblocks.linalg import LinAlgError, _RowReducer

    F = field
    red = _RowReducer(F)
    for j, w in enumerate(vec_iter):
        n = len(w)
        row = dict(enumerate(w))
        row[n + j] = F.one
        reduced = red.add(row)
        if min(reduced) >= n:
            inv = F.inv(reduced[n + j])
            return [F.mul(inv, reduced.get(n + t, F.zero)) for t in range(j + 1)]
    raise LinAlgError("annihilator stream exhausted without dependence")


def _krylov_stream(t, v: list):
    w = list(v)
    while True:
        yield w
        w = apply_right(t, w)


def _evaluate_poly_at_matrix(m: list, t):
    from hopfblocks.linalg import Matrix, linear_combination

    F = t.field
    ident = Matrix.identity(F, t.nrows)
    acc = linear_combination(F, t.nrows, t.nrows, [(m[-1], ident)])
    for c in reversed(m[:-1]):
        acc = linear_combination(F, t.nrows, t.nrows, [(F.one, t.mul(acc)), (c, ident)])
    return acc


def minimal_polynomial_by_evaluation(t) -> list:
    """Monic minimal polynomial of a square matrix, low degree first.

    Starts from the annihilator of one generic vector and repeatedly replaces
    m by its minimal multiple annihilating a witness column of m(T); each
    extension stays a divisor of the true minimal polynomial, and the loop
    ends exactly when m(T) = 0.

    The full-evaluation oracle for ``linalg.minimal_polynomial``, which
    certifies m(T) = 0 one sparse row at a time and never forms m(T).
    """
    from hopfblocks import polys as P
    from hopfblocks.linalg import LinAlgError

    if not t.is_square():
        raise LinAlgError("minimal polynomial of non-square matrix")
    F = t.field
    n = t.nrows
    if n == 0:
        return [F.one]
    w0 = [F.one] * n
    m = _dense_sequence_annihilator(F, _krylov_stream(t, w0))
    while True:
        residue = _evaluate_poly_at_matrix(m, t)
        witness = None
        for i, row in enumerate(residue.rows):
            for j, v in row.items():
                if not F.is_zero(v):
                    witness = j
                    break
            if witness is not None:
                break
        if witness is None:
            return m
        col = [residue.rows[i].get(witness, F.zero) for i in range(n)]
        q = _dense_sequence_annihilator(F, _krylov_stream(t, col))
        m = P.pmul(F, m, q)


def solve_unique(a, b: list) -> list:
    """The unique x with A x = b; raises if no solution or not unique.

    The reference for ``HopfData.element_inverse``, which reads an inverse
    off the element's minimal polynomial in H, and for ``_solve_antipode``.
    """
    from hopfblocks.linalg import LinAlgError, _RowReducer

    F, n = a.field, a.ncols
    if len(b) != a.nrows:
        raise LinAlgError("right-hand side length does not match the rows")
    red = _RowReducer(F)
    for row, v in zip(a.rows, b):
        red.add({**row, n: F.neg(v)})
    # [A | -b] has a unique kernel vector (x | 1) iff every column of A is a
    # pivot column and the column of -b is not
    if n in red.pivots or any(c not in red.pivots for c in range(n)):
        raise LinAlgError("system has no unique solution")
    return [F.neg(red.pivots[c].get(n, F.zero)) for c in range(n)]


def left_mult_of(h, x: dict):
    """L_x, the matrix of left multiplication by the element x of h."""
    from hopfblocks.linalg import linear_combination

    terms = [(c, h.left_mult_matrix(i)) for i, c in x.items()]
    return linear_combination(h.field, h.dim, h.dim, terms)


def two_sided_span_closure_dim(h, indices: list[int]) -> int:
    """Dimension of the unital subalgebra generated by the given basis
    elements, closing the span under products on both sides with every
    element found so far.

    The oracle for ``HopfData.span_closure_dim``, which closes span{1}
    under left multiplication by the generators only.
    """
    from hopfblocks.linalg import _RowReducer

    red = _RowReducer(h.field)
    unit = h.unit
    red.add(unit)
    frontier = []
    for i in indices:
        v = {i: h.field.one}
        if red.add(v):
            frontier.append(v)
    basis = [unit] + frontier
    while frontier:
        new_frontier = []
        for x in list(basis):
            for y in frontier:
                for prod in (h.product(x, y), h.product(y, x)):
                    if red.add(prod):
                        new_frontier.append(prod)
        basis.extend(new_frontier)
        frontier = new_frontier
    return len(red.pivots)


def double_generators_with_dual_units(h) -> list[int]:
    """{e^a x 1 : a} and {e^a x g : g a generator of H}, indices of D(H).

    The larger generating set of the double: it adds the dual idempotents
    e^a x 1, which ``hopf._double_generators`` leaves out.  The unit of H
    must be a basis element.
    """
    n = h.dim
    (unit_idx,) = h.unit
    gens = {a * n + unit_idx for a in range(n)}
    gens.update(a * n + g for g in h.generating_indices() for a in range(n))
    return sorted(gens)


def _solve_antipode(F, dim, mult, comult, counit, unit):
    """Solve m(S x id)Delta = unit . counit for the antipode matrix.

    The reference for ``drinfeld_double``, which builds the antipode from its
    formula instead.  The solution is unique when it exists (a one-sided
    convolution inverse of the identity is two-sided), so a unique-solution
    linear solve is safe.
    """
    from hopfblocks.linalg import Matrix

    rows = Matrix(F, dim * dim, dim * dim)
    rhs = [F.zero] * (dim * dim)
    for x in range(dim):
        for (alpha, beta), c in comult[x].items():
            # contributes c * S[q, alpha] * mult[q][beta][w] to equation (x, w)
            for q in range(dim):
                for w, m in mult[q][beta].items():
                    col = q * dim + alpha
                    row = rows.rows[x * dim + w]
                    val = F.add(row.get(col, F.zero), F.mul(c, m))
                    if F.is_zero(val):
                        row.pop(col, None)
                    else:
                        row[col] = val
        eps_x = counit[x]
        for w, u in unit.items():
            rhs[x * dim + w] = F.mul(eps_x, u)
    sol = solve_unique(rows, rhs)
    s = Matrix(F, dim, dim)
    for q in range(dim):
        for alpha in range(dim):
            v = sol[q * dim + alpha]
            if not F.is_zero(v):
                s.rows[q][alpha] = v
    return s


def double_mult_by_definition(h) -> list[list[dict]]:
    """The product table of D(H) on the basis e^a x e_b (index a n + b),
    one coefficient at a time.

    The coefficient of e^s x e_y in (e^a x e_b)(e^c x e_d) is
    sum [s_1 = a] u e^c(S^-1(e_r) e_{s_2} e_p) w e^y(e_q e_d), over
    Delta(e_s) = sum u e_{s_1} x e_{s_2} and
    Delta^2(e_b) = sum w e_p x e_q x e_r.  The reference for
    ``drinfeld_double``, which reads the product off one cross-relation
    table; here each S^-1(e_r) is solved for on its own.
    """
    from itertools import product

    F, n = h.field, h.dim
    add, mul = F.add, F.mul
    s_inv = [sparse(F, solve_unique(h.antipode, [F.one if i == r else F.zero for i in range(n)]))
             for r in range(n)]
    delta2 = []
    for b in range(n):
        terms: dict = {}
        for (i, r), c in h.comult[b].items():
            for (p, q), c2 in h.comult[i].items():
                terms[p, q, r] = add(terms.get((p, q, r), F.zero), mul(c, c2))
        delta2.append(terms)
    dressed: dict = {}  # (r, s_2, p) -> S^-1(e_r) e_{s_2} e_p

    def functional(c, r, s2, p):
        if (r, s2, p) not in dressed:
            dressed[r, s2, p] = h.product(h.product(s_inv[r], {s2: F.one}), {p: F.one})
        return dressed[r, s2, p].get(c, F.zero)

    table = [[{} for _ in range(n * n)] for _ in range(n * n)]
    for a, b, c, d in product(range(n), repeat=4):
        entry = table[a * n + b][c * n + d]
        for s in range(n):
            for (s1, s2), u in h.comult[s].items():
                if s1 != a:
                    continue
                for (p, q, r), w in delta2[b].items():
                    uwf = mul(mul(u, w), functional(c, r, s2, p))
                    for y, m in h.mult[q][d].items():
                        entry[s * n + y] = add(entry.get(s * n + y, F.zero), mul(uwf, m))
    return [[{k: v for k, v in e.items() if not F.is_zero(v)} for e in row] for row in table]


def full_basis_associativity_witness(h) -> str | None:
    """The first triple (e_i, e_j, e_k) with (e_i e_j) e_k != e_i (e_j e_k),
    as labels, with e_i over the whole basis; None when there is none.

    The reference for ``HopfData.validate``, which lets e_i run over the
    generators: the same row loop, once run for every e_i.
    """
    F, n, mult, labels = h.field, h.dim, h.mult, h.basis_labels
    add, mul = F.add, F.mul
    row_of = [[(k * n + t, c) for k, mk in enumerate(mult[m]) for t, c in mk.items()] for m in range(n)]
    for i in range(n):
        mult_i = mult[i]
        for j in range(n):
            lhs: dict = {}
            for m, a in mult_i[j].items():
                for key, b in row_of[m]:
                    p = mul(a, b)
                    lhs[key] = add(lhs[key], p) if key in lhs else p
            rhs: dict = {}
            for k, jk in enumerate(mult[j]):
                for m, a in jk.items():
                    for t, b in mult_i[m].items():
                        key, p = k * n + t, mul(a, b)
                        rhs[key] = add(rhs[key], p) if key in rhs else p
            bad = [key for key in lhs.keys() | rhs.keys()
                   if not F.eq(lhs.get(key, F.zero), rhs.get(key, F.zero))]
            if bad:
                return f"({labels[i]}, {labels[j]}, {labels[min(bad) // n]})"
    return None


def full_basis_bialgebra_witness(h) -> str | None:
    """The first failure of Delta(1) = 1 x 1, eps(1) = 1, or of
    Delta(e_i e_j) = Delta(e_i) Delta(e_j) and eps(e_i e_j) = eps(e_i) eps(e_j)
    with e_i over the whole basis, in the witness format of ``validate``;
    None when there is none.  The reference for the generator loop of
    ``HopfData.validate``."""
    F, labels = h.field, h.basis_labels
    if not h.sparse_eq(h.comult_of(h.unit), h.t2_unit()):
        return "1"
    if not F.eq(h.counit_of(h.unit), F.one):
        return "1 (counit)"
    for i in range(h.dim):
        for j in range(h.dim):
            prod = h.mult[i][j]
            if not h.sparse_eq(h.comult_of(prod), h.t2_mult(h.comult[i], h.comult[j])):
                return f"Delta({labels[i]}*{labels[j]})"
            if not F.eq(h.counit_of(prod), F.mul(h.counit[i], h.counit[j])):
                return f"eps({labels[i]}*{labels[j]})"
    return None


def direct_block_by_transpose(h, genus: int):
    """The kernel basis of the genus-g direct block, from the transpose of
    each generator's action on the tensor power of the adjoint module.

    The oracle for ``blocks._direct_block``, which builds the transposed
    actions directly as tensor powers of the transposed adjoint action.
    """
    from hopfblocks.linalg import simultaneous_kernel
    from hopfblocks.repcat import adjoint_module, tensor_power

    F = h.field
    power = tensor_power(adjoint_module(h), genus)
    mats = []
    for g in h.generating_indices():
        diff = power.act(g).transpose()
        eps = h.counit[g]
        for i, row in enumerate(diff.rows):
            d = F.sub(row.get(i, F.zero), eps)
            if F.is_zero(d):
                row.pop(i, None)
            else:
                row[i] = d
        mats.append(diff)
    return simultaneous_kernel(mats)


def center_block_full_rows(h, genus: int):
    """The kernel basis of the genus-g relative-center block, from the
    full-height constraint matrices, zero rows included.

    The oracle for ``blocks._center_block``, which hands the kernel only the
    nonzero constraint rows; a zero row adds nothing to the row space, so the
    reduced basis must be the same.
    """
    from hopfblocks.linalg import Matrix, kron_sum, simultaneous_kernel
    from hopfblocks.repcat import adjoint_module, regular_module, tensor_module, tensor_power

    F = h.field
    rest = tensor_power(adjoint_module(h), genus - 1)
    ambient = tensor_module(regular_module(h), rest)
    ident_rest = Matrix.identity(F, rest.dim)
    # x with (R(g) x I) x = rho_ambient(g) x, each constraint one kron_sum
    mats = [
        kron_sum(F, ambient.dim, ambient.dim,
                 [(F.one, h.right_mult_matrix(g), ident_rest)]
                 + [(F.neg(c), h.left_mult_matrix(a), rest.act(b)) for (a, b), c in h.comult[g].items()])
        for g in h.generating_indices()
    ]
    return simultaneous_kernel(mats)


def center_twist_by_ribbon_action(block):
    """The meridian twist on a relative-center block as the ribbon action
    rho(v) on G x A^(g-1), one Kronecker sum over Delta(v), restricted to the
    block.

    The oracle for ``blocks.center_twist_op``, which restricts L_v x I.
    """
    from hopfblocks.blocks import restrict_operator
    from hopfblocks.repcat import adjoint_module, regular_module, tensor_module, tensor_power

    h = block.algebra
    ambient = tensor_module(regular_module(h), tensor_power(adjoint_module(h), block.genus - 1))
    return restrict_operator(block, ambient.act_element(h.ribbon))


# ---------------------------------------------------------------------------
# Modules and maps that only the tests build: the dual module, the simple
# modules of some catalog algebras, the braiding, and the check that an
# action respects the algebra.
# ---------------------------------------------------------------------------


def action_respects_algebra(m) -> bool:
    """rho(g) rho(e_j) = rho(g e_j) on the generating set, and rho(1) = I."""
    h = m.algebra
    one = h.field.one
    if not m.act_element(h.unit).is_identity():
        return False
    for g in h.generating_indices():
        rg = m.act(g)
        for j in range(h.dim):
            if rg.mul(m.act(j)) != m.act_element(h.product({g: one}, {j: one})):
                return False
    return True


def dual_module(m):
    from hopfblocks.repcat import Module

    h = m.algebra

    def build(i):
        return m.act_element(h.antipode_of({i: h.field.one})).transpose()

    return Module(h, m.dim, f"dual({m.name})", build)


def monodromy(m, n):
    """The double braiding c_{N,M} c_{M,N} as the action of R21 R on M x N;
    the braiding c_{M,N} is the flip composed with the action of R.

    The matrix reference for ``repcat.johnson_criterion`` and
    ``repcat.torelli_criterion``, which read probe entries instead.
    """
    from hopfblocks.hopf import MissingRMatrix
    from hopfblocks.repcat import _action_of_tensor_element, _same_algebra

    h = _same_algebra(m, n)
    if h.r_matrix is None:
        raise MissingRMatrix(h.name)
    return _action_of_tensor_element(m, n, h.monodromy_element())


def muger_central(m) -> bool:
    """Trivial double braiding with the regular module (a projective generator)."""
    from hopfblocks.repcat import regular_module

    h = m.algebra
    return monodromy(m, regular_module(h)).is_identity()


def scalar_value(m):
    """The scalar c if the matrix m equals c*I, else None."""
    if m.nrows != m.ncols or m.nrows == 0:
        return None
    F = m.field
    c = m.rows[0].get(0, F.zero)
    for i, row in enumerate(m.rows):
        for j, v in row.items():
            if j != i and not F.is_zero(v):
                return None
        if not F.eq(row.get(i, F.zero), c):
            return None
    return c


def braiding(m, n):
    """c_{M,N}: M x N -> N x M, the flip composed with the R-matrix action.

    The oracle for ``monodromy``, the action of R21 R, which must equal
    c_{N,M} c_{M,N}.
    """
    from hopfblocks.linalg import Matrix, kron_sum

    h = m.algebra
    F = h.field
    r_action = kron_sum(F, m.dim * n.dim, m.dim * n.dim,
                        [(c, m.act(i), n.act(j)) for (i, j), c in h.r_matrix.items()])
    flip = Matrix(F, m.dim * n.dim, m.dim * n.dim)  # e_i x f_j -> f_j x e_i
    for i in range(m.dim):
        for j in range(n.dim):
            flip.rows[j * m.dim + i][i * n.dim + j] = F.one
    return flip.mul(r_action)


def _group_action(group, gens: dict[int, list[list]]) -> dict:
    """Rational matrices on generators, extended to every group element
    through the group table."""
    from hopfblocks.fields import QQ
    from hopfblocks.linalg import Matrix

    reps = {g: from_dense(QQ, rows) for g, rows in gens.items()}
    reps[group.identity] = Matrix.identity(QQ, len(next(iter(gens.values()))))
    grown = True
    while grown:
        grown = False
        for a in list(reps):
            for b in list(reps):
                c = group.mul(a, b)
                if c not in reps:
                    reps[c] = reps[a].mul(reps[b])
                    grown = True
    assert len(reps) == group.order, "generator matrices do not close up"
    return reps


def _characters(h, values: dict[str, list[int]]) -> list:
    """One-dimensional modules, each given by its value on every basis element."""
    from hopfblocks.fields import QQ
    from hopfblocks.repcat import Module

    return [Module(h, 1, name, lambda i, vals=vals: from_dense(QQ, [[vals[i]]])) for name, vals in values.items()]


def simple_modules(h) -> list:
    """Simple modules of the rational catalog algebras: characters and the
    two-dimensional simple modules of k[Z3] and k[S3], each as an action
    table (the tests check that each one is a module)."""
    from hopfblocks import catalog
    from hopfblocks.repcat import Module

    if h.name == "k[Z2]":
        return _characters(h, {"trivial": [1, 1], "sign": [1, -1]})
    if h.name == "k[Z3]":
        rot = _group_action(catalog.cyclic_group(3), {1: [[0, -1], [1, -1]]})
        return _characters(h, {"trivial": [1] * 3}) + [Module(h, 2, "rot2", rot.__getitem__)]
    if h.name == "k[S3]":
        std = _group_action(catalog.symmetric_group_3(), {1: [[-1, 1], [0, 1]], 4: [[0, -1], [1, -1]]})
        return (_characters(h, {"trivial": [1] * 6, "sign": [1, -1, -1, -1, 1, 1]})
                + [Module(h, 2, "standard", std.__getitem__)])
    if h.name == "H4":  # basis 1, g, x, gx; x acts by zero
        return _characters(h, {"trivial": [1, 1, 0, 0], "sign": [1, -1, 0, 0]})
    if h.name == "D(k[Z2])":  # basis e^a . b at index 2a + b: chi picks a = x and sends b = 1 to the sign
        return _characters(h, {f"chi_{x}_{'-' if sign < 0 else '+'}": [(a == x) * (sign if b else 1)
                                                                        for a in range(2) for b in range(2)]
                               for x in range(2) for sign in (1, -1)})
    raise KeyError(h.name)


# ---------------------------------------------------------------------------
# Finite groups: D4, the group axioms of a table, and the Dijkgraaf-Witten
# count of the block spaces of D(k[G])
# ---------------------------------------------------------------------------


def dihedral_group_4():
    """D4 in S4, closed from the rotation (1,2,3,0) and the reflection (0,3,2,1)."""
    from hopfblocks.catalog import GroupTable, _perm_compose

    gens = [(1, 2, 3, 0), (0, 3, 2, 1)]
    elements = [(0, 1, 2, 3)]
    for p in elements:
        for q in gens:
            r = _perm_compose(p, q)
            if r not in elements:
                elements.append(r)
    return GroupTable("D4", [str(p) for p in elements], elements, [elements.index(g) for g in gens])


def group_by_name(name: str):
    """Z2, Z3 or S3 from the catalog's constructors, or D4."""
    from hopfblocks.catalog import cyclic_group, symmetric_group_3

    if name == "D4":
        return dihedral_group_4()
    return symmetric_group_3() if name == "S3" else cyclic_group(int(name[1:]))


def group_table_defect(group) -> str | None:
    """The first group axiom that ``group.table`` breaks, or None.

    The table is square, each row and column is a permutation of the
    indices, it is associative on all n^3 triples, ``group.identity`` is a
    two-sided identity and ``group.inverse[i]`` a two-sided inverse of i.
    """
    t, n = group.table, group.order
    indices = list(range(n))
    if len(t) != n or any(len(row) != n for row in t):
        return "table is not square"
    if any(sorted(row) != indices for row in t):
        return "a row is not a permutation"
    if any(sorted(t[i][j] for i in indices) != indices for j in indices):
        return "a column is not a permutation"
    for i in indices:
        for j in indices:
            for k in indices:
                if t[t[i][j]][k] != t[i][t[j][k]]:
                    return f"not associative at ({i}, {j}, {k})"
    e = group.identity
    if any(t[e][j] != j or t[j][e] != j for j in indices):
        return f"{e} is not an identity"
    for i in indices:
        if t[i][group.inverse[i]] != e or t[group.inverse[i]][i] != e:
            return f"{group.inverse[i]} is not an inverse of {i}"
    return None


def dijkgraaf_witten_twist(group, genus: int, separating: int = 0) -> list[int]:
    """The handle-1 meridian twist of the genus-g block of D(k[G]), or the
    twist about the curve that separates the first ``separating`` handles,
    as a permutation of the block's basis (Dijkgraaf-Witten, Commun. Math.
    Phys. 129, 1990).

    The basis is indexed by the orbits of simultaneous conjugation on the
    tuples (a_1, b_1, ..., a_g, b_g) with prod [a_i, b_i] = 1, where
    [a, b] = a b a^-1 b^-1, so the block dimension is the length of the
    result.  The meridian twist sends the orbit of a tuple to that of the
    tuple with b_1 replaced by b_1 a_1 ([a, b a] = [a, b], so the relation
    holds).  The separating twist about c = prod_{i <= g'} [a_i, b_i]
    conjugates a_i and b_i by c for i <= g' (which fixes c, the product of
    their commutators, so the relation holds).  Entry i is the index of the
    image of orbit i.
    """
    from itertools import product

    mul, inv, e = group.mul, group.inverse, group.identity
    orbit_of: dict[tuple, int] = {}
    reps = []
    for t in product(range(group.order), repeat=2 * genus):
        c = e
        for a, b in zip(t[::2], t[1::2]):
            c = mul(c, mul(mul(a, b), mul(inv[a], inv[b])))
        if c != e or t in orbit_of:
            continue
        for x in range(group.order):
            orbit_of[tuple(mul(mul(x, y), inv[x]) for y in t)] = len(reps)
        reps.append(t)
    if not separating:
        return [orbit_of[(t[0], mul(t[1], t[0])) + t[2:]] for t in reps]
    images = []
    for t in reps:
        c = e
        for a, b in zip(t[:2 * separating:2], t[1:2 * separating:2]):
            c = mul(c, mul(mul(a, b), mul(inv[a], inv[b])))
        images.append(orbit_of[tuple(mul(mul(c, y), inv[c]) for y in t[:2 * separating]) + t[2 * separating:]])
    return images


# ---------------------------------------------------------------------------
# The Sweedler algebra by its hand-written tables, a reference for the
# catalog's T_2, and the grouplikes a catalog double hands its ribbon search
# ---------------------------------------------------------------------------


def sweedler_by_table(field):
    """The 4-dimensional Sweedler Hopf algebra on {1, g, x, gx}, entry by entry.

    g^2 = 1, x^2 = 0, xg = -gx, Delta(g) = g x g, Delta(x) = x x 1 + g x x,
    S(g) = g, S(x) = -gx.
    """
    from hopfblocks.hopf import HopfData
    from hopfblocks.linalg import Matrix

    F = field
    one, g, x, gx = 0, 1, 2, 3
    mult = [[{} for _ in range(4)] for _ in range(4)]

    def put(i, j, k, c=1):
        mult[i][j][k] = F.from_int(c)

    for a in range(4):
        put(one, a, a)
        if a != one:
            put(a, one, a)
    put(g, g, one)
    put(g, x, gx)
    put(g, gx, x)
    put(x, g, gx, -1)
    # x*x = 0, x*gx = 0, gx*x = 0, gx*gx = 0 (omitted entries are zero)
    put(gx, g, x, -1)

    unit = {one: F.one}
    comult = [
        {(one, one): F.one},
        {(g, g): F.one},
        {(x, one): F.one, (g, x): F.one},
        {(gx, g): F.one, (one, gx): F.one},
    ]
    counit = [F.one, F.one, F.zero, F.zero]
    antipode = Matrix(F, 4, 4)
    antipode.rows[one][one] = F.one
    antipode.rows[g][g] = F.one
    antipode.rows[gx][x] = F.neg(F.one)
    antipode.rows[x][gx] = F.one
    return HopfData(
        name="H4",
        field=F,
        dim=4,
        basis_labels=["1", "g", "x", "gx"],
        mult=mult,
        unit=unit,
        comult=comult,
        counit=counit,
        antipode=antipode,
        generators=[g, x],
    )


def searched_grouplikes(build, *args):
    """build(*args), a catalog double builder, and the grouplikes it hands
    to ``catalog._attach_double_ribbon``, in order."""
    import pytest

    from hopfblocks import catalog

    seen = []
    attach = catalog._attach_double_ribbon

    def spy(d, grouplikes=()):
        seen.extend(grouplikes)
        attach(d, grouplikes)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(catalog, "_attach_double_ribbon", spy)
        return build(*args), seen


# ---------------------------------------------------------------------------
# Q(zeta_n) arithmetic on private Fraction-list polynomial helpers: the
# reduction table, the reduction of long coefficient lists and the inverse
# as ``CyclotomicField`` computed them before it used ``polys``.
# ---------------------------------------------------------------------------


def cyclotomic_reduction_table(F) -> list:
    """x^(d+j) mod Phi_n for j = 0, ..., d - 1, by shift and fold."""
    d = F.phi
    # reduction[j] = x^(d+j) mod Phi_n, enough for degree-(2d-2) products
    reduction: list[tuple[Fraction, ...]] = []
    prev = [-c for c in F.modulus[:d]]  # x^d mod Phi_n (monic modulus)
    reduction.append(tuple(prev))
    for _ in range(1, d):
        shifted = [Fraction(0)] + prev[:-1]
        top = prev[-1]
        row = [shifted[i] + top * reduction[0][i] for i in range(d)]
        reduction.append(tuple(row))
        prev = row
    return reduction


def cyclotomic_reduce_list(F, coeffs: list[Fraction]):
    """The residue of a coefficient list modulo Phi_n, as a raw value of F."""
    d = F.phi
    work = [Fraction(x) for x in coeffs]
    if len(work) > 2 * d - 1:
        _, work = _frac_poly_divmod(work, list(F.modulus))
    out = list(work[:d]) + [Fraction(0)] * max(0, d - len(work))
    reduction = cyclotomic_reduction_table(F)
    for j in range(d, len(work)):
        c = work[j]
        if c:
            row = reduction[j - d]
            for i in range(d):
                out[i] += c * row[i]
    return tuple(out)


def cyclotomic_inv(F, a):
    """The inverse of a nonzero raw value of F, by extended Euclid in Q[x]."""
    # extended Euclid in Q[x]: s*a + t*Phi_n = gcd = const
    r0 = list(F.modulus)
    r1 = [Fraction(x) for x in a]
    while r1 and r1[-1] == 0:
        r1.pop()
    s0: list[Fraction] = []
    s1 = [Fraction(1)]
    while len(r1) > 1:
        q, r = _frac_poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))
        if not r1:
            raise ArithmeticError("element not invertible modulo Phi_n")
    c = r1[0]
    inv_coeffs = [x / c for x in s1]
    inv_coeffs += [Fraction(0)] * (F.phi - len(inv_coeffs))
    return cyclotomic_reduce_list(F, inv_coeffs)


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dn = len(den)
    if dn == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - dn + 1)
    lead = den[-1]
    for i in range(len(num) - dn, -1, -1):
        c = num[i + dn - 1] / lead
        q[i] = c
        if c:
            for j in range(dn):
                num[i + j] -= c * den[j]
    while num and num[-1] == 0:
        num.pop()
    return q, num


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    while out and out[-1] == 0:
        out.pop()
    return out
