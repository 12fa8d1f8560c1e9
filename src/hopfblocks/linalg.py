"""Dense-API sparse-storage exact matrices, kernels, minimal polynomials, and
certified operator orders in GL and PGL.

Every elimination in this module -- kernels, inverses, unique solves, the
annihilators behind minimal polynomials, and subalgebra spans -- is read off
the reduced row echelon form of its system: the pivot is the least column of
its row, the row is 1 there and 0 in every other pivot column.  That form is
unique for a given row space, so results are exact by construction and need
no certificate.  One exact sparse row reducer, ``_RowReducer``, builds it
(over Q each new row is first cleared of denominators and content to keep
entries small).

A kernel basis (``KernelBasis``) comes from one of two routes, chosen by row
length.  When every row of the stacked system has at most two nonzeros --
the block constraints of group doubles are monomial -- a weighted union-find
solves it in near-linear time (``_two_term_kernel``); any other system goes
whole to the reducer.  Both routes give the same reduced basis, stored as
sparse columns, one dict per basis vector; consumers push those columns
through their operators and read coordinates at the free columns, so no
dense vector of the ambient length is built on the way.  ``vectors``
densifies on demand for small kernels and tests.

A minimal polynomial is certified one row at a time on sparse row vectors
(``minimal_polynomial``): row j of m(T) is e_j m(T) by Horner, one
vector-times-matrix product per step, and a nonzero row extends m by the
annihilator of that row.  No matrix product and no m(T) is formed, and
every row is checked, so the certificate is complete.

Order certification reads everything off m = minpoly(T) through one
residue sequence, x^k mod m (``polys.power_residues``); no power of T and no
conjugation operator on the full matrix space is built.  Over F_p, T^k is
the scalar c exactly when x^k mod m is the constant c, so both orders come
from walking the residues up to the cap.  In characteristic 0 the PGL order
is the GL order of the conjugation operator X -> T X T^(-1), whose minimal
polynomial is that of x/y in F[x,y]/(m(x), m(y)) (the matrix space is a
faithful module over that commutative algebra); its powers are the
rank-one grids (x^k mod m) (y^(-k) mod m).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .fields import Field, FieldMismatch, QQ, is_prime
from . import polys as P


class LinAlgError(Exception):
    pass


class NotInvertible(LinAlgError):
    pass


class Matrix:
    """Immutable-by-convention matrix over an exact field.

    Rows are stored as ``dict`` of column -> nonzero raw field value; dense
    accessors fill in zeros.  All arithmetic goes through the field object.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, nrows: int, ncols: int, rows: list[dict] | None = None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [{} for _ in range(nrows)]

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @classmethod
    def from_dense(cls, field: Field, data) -> "Matrix":
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        m = cls(field, nrows, ncols)
        for i, row in enumerate(data):
            if len(row) != ncols:
                raise LinAlgError("ragged rows")
            for j, v in enumerate(row):
                if not field.is_zero(v):
                    m.rows[i][j] = v
        return m

    @classmethod
    def diagonal(cls, field: Field, entries) -> "Matrix":
        entries = list(entries)
        m = cls(field, len(entries), len(entries))
        for i, v in enumerate(entries):
            if not field.is_zero(v):
                m.rows[i][i] = v
        return m

    # -- accessors ----------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.rows[i].get(j, self.field.zero)

    def to_dense(self) -> list[list]:
        z = self.field.zero
        return [[row.get(j, z) for j in range(self.ncols)] for row in self.rows]

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols) or self.field != other.field:
            return False
        F = self.field
        for ra, rb in zip(self.rows, other.rows):
            for j in set(ra) | set(rb):
                if not F.eq(ra.get(j, F.zero), rb.get(j, F.zero)):
                    return False
        return True

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.kind}, nnz={self.nnz()})"

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def add(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch in add")
        F = self.field
        out = Matrix(F, self.nrows, self.ncols)
        for i in range(self.nrows):
            row = dict(self.rows[i])
            for j, v in other.rows[i].items():
                s = F.add(row.get(j, F.zero), v)
                if F.is_zero(s):
                    row.pop(j, None)
                else:
                    row[j] = s
            out.rows[i] = row
        return out

    def sub(self, other: "Matrix") -> "Matrix":
        F = self.field
        return linear_combination(F, self.nrows, self.ncols, [(F.one, self), (F.neg(F.one), other)])

    def scale(self, c) -> "Matrix":
        F = self.field
        out = Matrix(F, self.nrows, self.ncols)
        if F.is_zero(c):
            return out
        for i, row in enumerate(self.rows):
            out.rows[i] = {j: F.mul(c, v) for j, v in row.items()}
        return out

    def mul(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.ncols != other.nrows:
            raise LinAlgError("shape mismatch in mul")
        F = self.field
        return Matrix(F, self.nrows, other.ncols, [_times_matrix(F, row, other.rows) for row in self.rows])

    __matmul__ = mul
    __mul__ = mul
    __add__ = add
    __sub__ = sub

    def transpose(self) -> "Matrix":
        out = Matrix(self.field, self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out.rows[j][i] = v
        return out

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, left factor major: (A⊗B)(v⊗w) = Av ⊗ Bw."""
        F = self.field
        return kron_sum(F, self.nrows * other.nrows, self.ncols * other.ncols, [(F.one, self, other)])

    def apply_right(self, vec: list) -> list:
        """Matrix times column vector."""
        F = self.field
        out = []
        for row in self.rows:
            acc = F.zero
            for j, a in row.items():
                x = vec[j]
                if not F.is_zero(x):
                    acc = F.add(acc, F.mul(a, x))
            out.append(acc)
        return out

    def is_identity(self) -> bool:
        if not self.is_square():
            return False
        F = self.field
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                if j != i and not F.is_zero(v):
                    return False
            if not F.eq(row.get(i, F.zero), F.one):
                return False
        return True

    def scalar_value(self):
        """The scalar c if this matrix equals c*I, else None."""
        if not self.is_square() or self.nrows == 0:
            return None
        F = self.field
        c = self.rows[0].get(0, F.zero)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                if j != i and not F.is_zero(v):
                    return None
            if not F.eq(row.get(i, F.zero), c):
                return None
        return c


def tensor_product(a: Matrix, b: Matrix) -> Matrix:
    return a.kron(b)


def kron_sum(field: Field, nrows: int, ncols: int, terms) -> Matrix:
    """The nrows x ncols matrix sum of c * (A ⊗ B) over the (c, A, B) terms.

    Every product accumulates straight into the output rows; no Kronecker
    matrix, scaled copy or partial sum is built.  Terms with a zero
    coefficient are skipped, and matrix rows hold nonzero values only, so
    every single product is nonzero and an entry can cancel only where two
    products meet.  Only rows where products met are filtered for zeros.
    """
    add, mul, is_zero = field.add, field.mul, field.is_zero
    rows: list[dict] = [{} for _ in range(nrows)]
    dirty: set[int] = set()
    for c, a, b in terms:
        if a.field != field or b.field != field:
            raise FieldMismatch("matrices over different fields")
        bn, bm = b.nrows, b.ncols
        if (a.nrows * bn, a.ncols * bm) != (nrows, ncols):
            raise LinAlgError("shape mismatch in kron_sum")
        if is_zero(c):
            continue
        brows = [(bi, brow) for bi, brow in enumerate(b.rows) if brow]
        for i, arow in enumerate(a.rows):
            if not arow:
                continue
            scaled = [(j * bm, mul(c, v)) for j, v in arow.items()]
            for bi, brow in brows:
                r = i * bn + bi
                target = rows[r]
                grown = len(target) + len(scaled) * len(brow)
                for jb, ca in scaled:
                    for bj, v in brow.items():
                        col = jb + bj
                        p = mul(ca, v)
                        target[col] = add(target[col], p) if col in target else p
                if len(target) != grown:  # two products met in this row
                    dirty.add(r)
    for r in dirty:
        rows[r] = {j: v for j, v in rows[r].items() if not is_zero(v)}
    return Matrix(field, nrows, ncols, rows)


def linear_combination(field: Field, nrows: int, ncols: int, terms) -> Matrix:
    """The nrows x ncols matrix sum of c * M over the (c, M) terms.

    Like ``kron_sum``, every term accumulates straight into the output rows
    and entries that cancel are dropped once at the end.
    """
    add, mul, is_zero = field.add, field.mul, field.is_zero
    rows: list[dict] = [{} for _ in range(nrows)]
    for c, m in terms:
        if m.field != field:
            raise FieldMismatch("matrices over different fields")
        if (m.nrows, m.ncols) != (nrows, ncols):
            raise LinAlgError("shape mismatch in linear_combination")
        for target, row in zip(rows, m.rows):
            for j, v in row.items():
                p = mul(c, v)
                target[j] = add(target[j], p) if j in target else p
    return Matrix(field, nrows, ncols, [{j: v for j, v in row.items() if not is_zero(v)} for row in rows])


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class KernelBasis:
    """Kernel basis in reduced form, stored as sparse columns.

    ``columns[i]`` is the i-th basis vector as a dict (coordinate -> nonzero
    value): 1 at ``free_cols[i]``, 0 at every other free column, and minus the
    pivot rows' entries in that free column at the pivot columns.  No dense
    vector is built.  Systems whose rows have at most two nonzeros reach this
    basis by a weighted union-find, all others by ``_RowReducer``; the reduced
    form is unique, so both routes give the same columns.

    ``free_cols`` are the non-pivot columns of the reduced row echelon form of
    the stacked system, where each pivot is the least column of its row.  The
    form is unique, so the same system gives the same ``free_cols`` and
    vectors over every field in which it has the same rank; ``blocks --format
    json`` publishes ``free_cols`` as ``basis_support_columns``.  A vector v
    in the span has coordinates v[free_cols[i]].
    """

    __slots__ = ("field", "columns", "free_cols", "ncols")

    def __init__(self, field: Field, columns: list[dict], free_cols: list[int], ncols: int):
        self.field = field
        self.columns = columns
        self.free_cols = free_cols
        self.ncols = ncols

    @property
    def dim(self) -> int:
        return len(self.columns)

    @property
    def vectors(self) -> list[list]:
        """The basis as dense vectors, for small kernels and tests."""
        out = []
        for col in self.columns:
            vec = [self.field.zero] * self.ncols
            for j, v in col.items():
                vec[j] = v
            out.append(vec)
        return out

    def combination(self, coords: dict) -> dict:
        """The sparse vector sum_i coords[i] * columns[i], for sparse
        coordinates (basis index -> value)."""
        return _times_matrix(self.field, coords, self.columns)


def kernel(a: Matrix) -> list[list]:
    """Basis of the right null space {v : A v = 0}."""
    return simultaneous_kernel([a]).vectors


def simultaneous_kernel(mats: list[Matrix]) -> KernelBasis:
    """Basis of the intersection of the kernels of the given matrices.

    When every row of the stacked system has at most two nonzeros the kernel
    is solved by ``_two_term_kernel``; otherwise the whole system goes to
    ``_RowReducer``.  Both give the same reduced basis.
    """
    if not mats:
        raise LinAlgError("simultaneous_kernel of no matrices")
    F = mats[0].field
    n = mats[0].ncols
    for m in mats:
        if m.field != F or m.ncols != n:
            raise FieldMismatch("incompatible matrices in simultaneous_kernel")
    basis = _two_term_kernel(F, n, mats)
    return basis if basis is not None else _reduced_kernel(F, n, mats)


def _two_term_kernel(field: Field, n: int, mats: list[Matrix]) -> KernelBasis | None:
    """The reduced kernel basis when every row has at most two nonzeros, else None.

    A weighted union-find with path compression and union by size (Tarjan,
    J. ACM 22, 1975): each column c has a parent and a ratio with
    x_c = ratio_c * x_parent.  A two-term row a x_i + b x_j = 0 merges the
    components of i and j, or, when they already share a root, forces that
    component to zero unless the cycle it closes is consistent; a one-term
    row forces its component to zero, and a merge with a zero component is
    zero.  Every live component spans one kernel vector, normalised at its
    largest column t to x_c = w_c / w_t.  The largest column is the
    component's one free column of the reduced row echelon form (each pivot
    the least column of its row), so the basis is the one ``_RowReducer``
    gives.
    """
    F = field
    one, add, mul, div, neg, is_zero = F.one, F.add, F.mul, F.div, F.neg, F.is_zero
    parent = list(range(n))
    ratio = [one] * n
    size = [1] * n
    dead = [False] * n

    def find(c: int) -> tuple[int, object]:
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        w = one
        for node in reversed(path):
            w = mul(ratio[node], w)
            ratio[node] = w
            parent[node] = c
        return c, (ratio[path[0]] if path else one)

    for m in mats:
        for row in m.rows:
            if not row:
                continue
            t = [(j, v) for j, v in row.items() if not is_zero(v)]
            if len(t) > 2:
                return None
            if len(t) < 2:
                if t:
                    dead[find(t[0][0])[0]] = True
                continue
            (i, a), (j, b) = t
            ri, wi = find(i)
            rj, wj = find(j)
            ai, bj = mul(a, wi), mul(b, wj)  # the row reads ai x_ri + bj x_rj = 0
            if ri == rj:
                if not is_zero(add(ai, bj)):
                    dead[ri] = True
                continue
            if size[ri] < size[rj]:
                ri, rj, ai, bj = rj, ri, bj, ai
            parent[rj] = ri
            ratio[rj] = neg(div(ai, bj))
            size[ri] += size[rj]
            dead[ri] = dead[ri] or dead[rj]

    members: dict[int, list] = {}
    for c in range(n):
        r, w = find(c)
        if not dead[r]:
            members.setdefault(r, []).append((c, w))
    columns = {}
    for comp in members.values():
        top, wt = comp[-1]
        columns[top] = {c: div(w, wt) for c, w in comp[:-1]}
        columns[top][top] = one
    free = sorted(columns)
    return KernelBasis(F, [columns[f] for f in free], free, n)


def _reduced_kernel(field: Field, n: int, mats: list[Matrix]) -> KernelBasis:
    """The kernel basis read off the pivot rows of ``_RowReducer``."""
    F = field
    red = _RowReducer(F)
    for m in mats:
        for row in m.rows:
            red.add(row)
    free = [c for c in range(n) if c not in red.pivots]
    columns = [{f: F.one} for f in free]
    column_of = dict(zip(free, columns))
    for col, prow in red.pivots.items():
        for j, c in prow.items():
            if j != col:
                column_of[j][col] = F.neg(c)
    return KernelBasis(F, columns, free, n)


def _primitive_row(field: Field, row: dict) -> dict:
    """Over Q, divide a sparse row by its content to keep entries small."""
    if field is not QQ or not row:
        return row
    denom = 1
    for v in row.values():
        if isinstance(v, Fraction):
            denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = {j: int(v * denom) if isinstance(v, Fraction) else v * denom for j, v in row.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


class _RowReducer:
    """Sparse reduced row echelon form, grown one row at a time.

    ``pivots`` maps each pivot column to its row (column -> nonzero value).
    Invariant: the pivot is the least column of its row, the row is 1 there
    and 0 in every other pivot column.  Rows are sparse dicts over ``field``;
    over Q a new row is made primitive before it is normalised.

    ``column_rows`` maps each non-pivot column to the pivot columns whose
    rows are nonzero there, so a new pivot finds the rows it must be cleared
    from without scanning every pivot row.
    """

    def __init__(self, field: Field):
        self.field = field
        self.pivots: dict[int, dict] = {}
        self.column_rows: dict[int, set[int]] = {}

    def reduce(self, row: dict) -> dict:
        """The row minus its multiples of pivot rows: 0 in every pivot column.

        A pivot row is 0 in every other pivot column, so subtracting it
        creates no pivot entry; one pass over the row's own pivot columns
        suffices.
        """
        F = self.field
        zero, sub, mul, is_zero = F.zero, F.sub, F.mul, F.is_zero
        pivots = self.pivots
        out = {j: v for j, v in row.items() if not is_zero(v)}
        for col in [j for j in out if j in pivots]:
            c = out[col]
            for j, v in pivots[col].items():
                d = sub(out.get(j, zero), mul(c, v))
                if is_zero(d):
                    out.pop(j, None)
                else:
                    out[j] = d
        return out

    def add(self, row: dict) -> dict:
        """Reduce the row and keep it as a pivot row unless it is dependent.

        Returns the reduced row before normalisation, or ``{}`` when the row
        lies in the span of the pivot rows.
        """
        F = self.field
        zero, sub, mul, is_zero = F.zero, F.sub, F.mul, F.is_zero
        reduced = self.reduce(row)
        if not reduced:
            return reduced
        new = _primitive_row(F, reduced)
        lead = min(new)
        inv = F.inv(new[lead])
        new = {j: mul(inv, v) for j, v in new.items()}
        column_rows = self.column_rows
        rows_at_lead = column_rows.pop(lead, ())
        for j in new:
            if j != lead:
                column_rows.setdefault(j, set()).add(lead)
        # clear the new pivot column from every pivot row that is nonzero there
        for p in rows_at_lead:
            prow = self.pivots[p]
            c = prow.pop(lead)  # new is 1 at lead, so prow - c * new is 0 there
            for j, v in new.items():
                if j == lead:
                    continue
                if j in prow:
                    d = sub(prow[j], mul(c, v))
                    if is_zero(d):
                        del prow[j]
                        column_rows[j].discard(p)
                    else:
                        prow[j] = d
                else:
                    prow[j] = sub(zero, mul(c, v))
                    column_rows[j].add(p)
        self.pivots[lead] = new
        return reduced


def solve_unique(a: Matrix, b: list) -> list:
    """The unique x with A x = b; raises if no solution or not unique."""
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


def inverse(a: Matrix) -> Matrix:
    """A^-1 read off the reduced form [I | A^-1] of [A | I]."""
    if not a.is_square():
        raise NotInvertible("non-square matrix")
    F, n = a.field, a.nrows
    red = _RowReducer(F)
    for i, row in enumerate(a.rows):
        red.add({**row, n + i: F.one})
    if any(c not in red.pivots for c in range(n)):
        raise NotInvertible("singular matrix")
    rows = [{j - n: v for j, v in red.pivots[c].items() if j >= n} for c in range(n)]
    return Matrix(F, n, n, rows)


# ---------------------------------------------------------------------------
# Minimal polynomials
# ---------------------------------------------------------------------------


def _sequence_annihilator(field: Field, n: int, vecs) -> list:
    """Monic polynomial of least degree annihilating the stream w, wT, wT^2, ...
    of some operator T.

    ``vecs`` yields the successive vectors as sparse dicts with keys below
    ``n``; term j is consumed only until the first linear dependence
    appears.  Row j fed to the reducer is (w_j | e_j), so the columns from n
    on of a reduced row record which combination of w_0..w_j it is; the
    first row with no column below n is the dependence.
    """
    F = field
    red = _RowReducer(F)
    for j, w in enumerate(vecs):
        reduced = red.add({**w, n + j: F.one})
        if min(reduced) >= n:
            inv = F.inv(reduced[n + j])
            return [F.mul(inv, reduced.get(n + t, F.zero)) for t in range(j + 1)]
    raise LinAlgError("annihilator stream exhausted without dependence")


def _times_matrix(field: Field, vec: dict, rows: list[dict], out: dict | None = None) -> dict:
    """out + vec T, sparse, for the matrix T with the given rows; out is
    consumed."""
    add, mul = field.add, field.mul
    out = {} if out is None else out
    for k, a in vec.items():
        for j, b in rows[k].items():
            p = mul(a, b)
            out[j] = add(out[j], p) if j in out else p
    return {j: v for j, v in out.items() if not field.is_zero(v)}


def _row_orbit(field: Field, r: dict, rows: list[dict]):
    """The stream r, rT, rT^2, ... for the matrix T with the given rows."""
    while True:
        yield r
        r = _times_matrix(field, r, rows)


def minimal_polynomial(t: Matrix) -> list:
    """Monic minimal polynomial of a square matrix, low degree first.

    Certified one row at a time, on sparse row vectors; m(T) is never
    formed.  Starting from m = 1, row j of m(T), r = e_j m(T), is computed
    by Horner on e_j, one vector-times-matrix product per step.  When r is
    nonzero, m becomes m q, q the annihilator of r under x -> x T.  m
    divides the true minimal polynomial m_T throughout, and so does each
    extension, since r (m_T / m)(T) = e_j m_T(T) = 0.  Once every row of
    m(T) is zero, m = m_T; the loop stops early when deg m = n, by
    Cayley-Hamilton.
    """
    if not t.is_square():
        raise LinAlgError("minimal polynomial of non-square matrix")
    F = t.field
    n, rows = t.nrows, t.rows
    m = [F.one]
    for j in range(n):
        if P.pdeg(m) == n:
            break
        r = {j: F.one}
        for c in reversed(m[:-1]):
            r = _times_matrix(F, r, rows, {j: c})
        if r:
            m = P.pmul(F, m, _sequence_annihilator(F, n, _row_orbit(F, r, rows)))
    return m


# ---------------------------------------------------------------------------
# Orders in GL and PGL
# ---------------------------------------------------------------------------


class OrderVerdict(namedtuple("OrderVerdict", "kind n reason cap", defaults=(None, None, None))):
    """An order in GL or PGL, immutable and equal by value.

    ``kind`` is "finite" (order ``n``), "infinite" (``reason``
    NotSemisimple or RootNotUnity) or "unknown" (no order up to ``cap``).
    """

    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __str__(self):
        if self.kind == "finite":
            return f"Finite({self.n})"
        if self.kind == "infinite":
            return f"Infinite({self.reason})"
        return f"Unknown(cap={self.cap})"

    def to_json(self):
        out = {"kind": self.kind}
        if self.n is not None:
            out["n"] = self.n
        if self.reason is not None:
            out["reason"] = self.reason
        if self.cap is not None:
            out["cap"] = self.cap
        return out


def finite(n: int) -> OrderVerdict:
    return OrderVerdict("finite", n=n)


def infinite(reason: str) -> OrderVerdict:
    return OrderVerdict("infinite", reason=reason)


def unknown(cap: int) -> OrderVerdict:
    return OrderVerdict("unknown", cap=cap)


class OrderCertificate(namedtuple("OrderCertificate", "gl_order pgl_order minpoly_squarefree evidence")):
    """GL and PGL orders of one operator; immutable, since certificates are
    shared through the algebra's cache.  ``evidence`` defaults to a fresh
    dict."""

    __slots__ = ()

    def __new__(cls, gl_order: OrderVerdict, pgl_order: OrderVerdict, minpoly_squarefree: bool,
                evidence: dict | None = None):
        return super().__new__(cls, gl_order, pgl_order, minpoly_squarefree, {} if evidence is None else evidence)

    def to_json(self):
        return {
            "gl_order": self.gl_order.to_json(),
            "pgl_order": self.pgl_order.to_json(),
            "minpoly_squarefree": self.minpoly_squarefree,
            "evidence": self.evidence,
        }

    def __str__(self):
        return f"gl={self.gl_order}, pgl={self.pgl_order}"


_UNITY_SEARCH_LIMIT = 50_000_000


def _unity_candidates(bound: int) -> list[int]:
    """All k >= 1 with euler_phi(k) <= bound, in increasing order.

    phi is multiplicative with phi(p^e) = p^(e-1) (p - 1), so every such k is
    a product of prime powers with p - 1 <= bound; a depth-first walk over
    those primes that stops once phi exceeds bound lists each k exactly once.
    """
    limit = 2 * bound * bound + 2  # phi(k) >= sqrt(k/2) puts every k below this
    if limit > _UNITY_SEARCH_LIMIT:
        raise LinAlgError(f"root-of-unity search bound {limit} too large")
    primes = [p for p in range(2, bound + 2) if is_prime(p)]
    found = []

    def walk(start: int, k: int, phi: int) -> None:
        found.append(k)
        for i in range(start, len(primes)):
            p = primes[i]
            pk, phi_pk = k * p, phi * (p - 1)
            if phi_pk > bound:
                break
            while phi_pk <= bound:
                walk(i + 1, pk, phi_pk)
                pk, phi_pk = pk * p, phi_pk * p

    if bound >= 1:
        walk(0, 1, 1)
    return sorted(found)


def _unity_order(field: Field, m: list) -> OrderVerdict:
    """Order of a root x of the squarefree polynomial m, if all roots are
    roots of unity; Infinite(RootNotUnity) otherwise.

    Any root that is a primitive k-th root of unity satisfies
    phi(k) <= deg(m) * [field : Q], which bounds the search exactly.
    """
    deg = P.pdeg(m)
    if deg == 0:
        return finite(1)
    bound = deg * max(field.rational_degree(), 1)
    rem = P.pmonic(field, m)
    order = 1
    for k in _unity_candidates(bound):
        if P.pdeg(rem) == 0:
            break
        g = P.pgcd(field, rem, P.cyclotomic_over(field, k))
        if P.pdeg(g) >= 1:
            order = order * k // gcd(order, k)
            rem = P.pexactdiv(field, rem, g)
    if P.pdeg(rem) > 0:
        return infinite("RootNotUnity")
    return finite(order)


def _ratio_minimal_polynomial(field: Field, m: list) -> list:
    """Minimal polynomial of x * y^(-1) in F[x,y]/(m(x), m(y)) for monic m.

    This equals the minimal polynomial of the conjugation operator
    X -> T X T^(-1) on the full matrix space when m = minpoly(T): that space
    is a faithful module over the algebra, so element and operator share
    their minimal polynomial.  The k-th power is the rank-one grid
    (x^k mod m) (y^(-k) mod m) on the basis x^i y^j.
    """
    d = P.pdeg(m)
    if d <= 1:
        return [field.neg(field.one), field.one]  # scalar operator: x - 1
    grids = ({i * d + k: field.mul(a, b) for i, a in enumerate(xs) if not field.is_zero(a)
              for k, b in enumerate(ys) if not field.is_zero(b)}
             for xs, ys in zip(P.power_residues(field, m), P.power_residues(field, m, step=-1)))
    return _sequence_annihilator(field, d * d, grids)


def _order_by_iteration(field: Field, m: list, cap: int) -> tuple[OrderVerdict, OrderVerdict]:
    """GL and PGL orders up to ``cap`` of an operator with monic minimal
    polynomial m.

    x^k mod m has degree below deg m, so T^k = c I exactly when that residue
    is the constant c, and T^k = I exactly when the constant is 1.
    """
    F = field
    if P.pdeg(m) == 0:  # the 0 x 0 operator is the identity
        return finite(1), finite(1)
    pgl = None
    residues = P.power_residues(F, m)
    next(residues)
    for k, r in zip(range(1, cap + 1), residues):
        if all(F.is_zero(c) for c in r[1:]):
            if pgl is None:
                pgl = finite(k)
            if F.eq(r[0], F.one):
                return finite(k), pgl
    return unknown(cap), pgl or unknown(cap)


DEFAULT_FP_ORDER_CAP = 10_000


def operator_order(t: Matrix, cap: int | None = None) -> OrderCertificate:
    """Certified order of an invertible operator in GL and PGL.

    Characteristic zero: the verdict comes from the minimal polynomial m.
    If m is not squarefree the operator is not semisimple and no positive
    power is the identity (or a scalar), hence Infinite(NotSemisimple).
    Otherwise all candidate orders k satisfy phi(k) <= deg * [F:Q]; stripping
    cyclotomic factors off m decides finiteness and yields the exact order.
    The PGL verdict applies the same procedure to the minimal polynomial of
    the conjugation operator (computed in F[x,y]/(m,m), see module docs).

    Over F_p both orders are read off the residues x^k mod m for k up to
    ``cap``; past it the verdict is Unknown(cap).
    Raises ValueError for a cap below 1.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    F = t.field
    m = minimal_polynomial(t)
    if F.is_zero(m[0]):
        raise NotInvertible("operator is singular (minimal polynomial has root 0)")
    evidence = {"minpoly": _format_poly_list(F, m)}
    if F.kind == "Fp":
        gl, pgl = _order_by_iteration(F, m, cap or DEFAULT_FP_ORDER_CAP)
        sf = P.is_squarefree(F, m)
        return OrderCertificate(gl, pgl, sf, evidence)
    sf = P.is_squarefree(F, m)
    if not sf:
        v = infinite("NotSemisimple")
        evidence["reason"] = "minimal polynomial shares a root with its derivative"
        return OrderCertificate(v, v, False, evidence)
    gl = _unity_order(F, m)
    ratio = _ratio_minimal_polynomial(F, m)
    evidence["conjugation_minpoly"] = _format_poly_list(F, ratio)
    pgl = _unity_order(F, ratio)
    return OrderCertificate(gl, pgl, True, evidence)


def _format_poly_list(field: Field, m: list) -> list:
    return [field.format(c) for c in m]
