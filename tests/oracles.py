"""Independent oracles that the tests compare the library against.

They compute the same quantities as the library by a different route, so
they live here rather than in ``hopfblocks``, which never calls them.  So
do the predicates that only the tests ask of library objects (``in_span``,
``is_zero_matrix``).
"""

from fractions import Fraction


def is_unit_vector(h, x: list) -> bool:
    F = h.field
    return all(F.eq(a, b) for a, b in zip(x, h.unit, strict=True))


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


def element_multiplicative_order(h, x: list, cap: int = 512) -> int | None:
    """Order of x by repeated multiplication; None if the cap is reached.

    The oracle for the ribbon order, which the library certifies through
    ``operator_order`` instead.
    """
    power = x
    for k in range(1, cap + 1):
        if is_unit_vector(h, power):
            return k
        power = h.multiply(power, x)
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
        if pgl is None and power.scalar_value() is not None:
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
    from hopfblocks.linalg import Matrix, simultaneous_kernel

    F = hom.source.algebra.field
    cols = []
    for f in hom.basis:
        dense = f.to_dense()
        for c in range(hom.source.dim):
            cols.append([dense[r][c] for r in range(hom.target.dim)])
    if not cols:
        return True
    mat = Matrix.from_dense(F, [[cols[j][r] for j in range(len(cols))] for r in range(hom.target.dim)])
    return simultaneous_kernel([mat]).dim == 0


def separating_twist_by_hom(h, genus_left: int, genus_right: int, cap: int | None = None):
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
    return hom, out, operator_order(out, cap=cap)


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
    unit = h.sparse(h.unit)
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
        w = t.apply_right(w)


def _evaluate_poly_at_matrix(m: list, t):
    from hopfblocks.linalg import Matrix

    F = t.field
    ident = Matrix.identity(F, t.nrows)
    acc = ident.scale(m[-1])
    for c in reversed(m[:-1]):
        acc = t.mul(acc)
        if not F.is_zero(c):
            acc = acc.add(ident.scale(c))
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


def two_sided_span_closure_dim(h, indices: list[int]) -> int:
    """Dimension of the unital subalgebra generated by the given basis
    elements, closing the span under products on both sides with every
    element found so far.

    The oracle for ``HopfData.span_closure_dim``, which closes span{1}
    under left multiplication by the generators only.
    """
    from hopfblocks.linalg import _RowReducer

    red = _RowReducer(h.field)
    unit = h.sparse(h.unit)
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


# ---------------------------------------------------------------------------
# Modules that only the tests build: the dual module and the simple modules
# a catalog algebra's ``simple_modules`` flag lists, and the check that an
# action respects the algebra.
# ---------------------------------------------------------------------------


def action_respects_algebra(m) -> bool:
    """rho(g) rho(e_j) = rho(g e_j) on the generating set, and rho(1) = I."""
    h = m.algebra
    if not m.act_element(h.unit).is_identity():
        return False
    for g in h.generating_indices():
        rg = m.act(g)
        for j in range(h.dim):
            prod_vec = h.multiply(h.basis_vector(g), h.basis_vector(j))
            if rg.mul(m.act(j)) != m.act_element(prod_vec):
                return False
    return True


def dual_module(m):
    from hopfblocks.repcat import Module

    h = m.algebra

    def build(i):
        s_ei = h.antipode_of(h.basis_vector(i))
        return m.act_element(s_ei).transpose()

    return Module(h, m.dim, f"dual({m.name})", build)


def module_from_action_table(h, name: str, dim: int, table: dict[int, list[list]]):
    from hopfblocks.linalg import Matrix
    from hopfblocks.repcat import Module

    F = h.field

    def build(i):
        rows = table[i]
        return Matrix.from_dense(F, [[F.parse(v) if not isinstance(v, (int,)) else F.from_int(v) for v in row] for row in rows])

    return Module(h, dim, name, build)


def flagged_simple_modules(h) -> list:
    out = []
    for entry in h.flags.get("simple_modules", []):
        out.append(module_from_action_table(h, entry["name"], entry["dim"], entry["action"]))
    return out


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
