"""Dense-API sparse-storage exact matrices, kernels, minimal polynomials, and
certified operator orders in GL and PGL.

Every elimination in this module -- kernels, inverses, unique solves, the
annihilators behind minimal polynomials, and subalgebra spans -- goes through
one exact sparse row reducer, ``_RowReducer``.  It keeps its rows in reduced
row echelon form keyed by pivot column: the pivot is the least column of its
row, the row is 1 there and 0 in every other pivot column (over Q each new row
is first cleared of denominators and content to keep entries small).  That
form is unique for a given row space, so results are exact by construction
and need no certificate.

Order certification never materializes the conjugation operator on the full
matrix space: the GL procedure only consumes the conjugation operator's
minimal polynomial, which is computed as the minimal polynomial of x/y in
F[x,y]/(m(x), m(y)) where m is the minimal polynomial of the operator (the
matrix space is a faithful module over that commutative algebra).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
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
        return self.add(other.scale(self.field.neg(self.field.one)))

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
        add, mul, is_zero = F.add, F.mul, F.is_zero
        out = Matrix(F, self.nrows, other.ncols)
        orows = other.rows
        for i, row in enumerate(self.rows):
            acc: dict = {}
            for k, a in row.items():
                for j, b in orows[k].items():
                    prod = mul(a, b)
                    if j in acc:
                        acc[j] = add(acc[j], prod)
                    else:
                        acc[j] = prod
            out.rows[i] = {j: v for j, v in acc.items() if not is_zero(v)}
        return out

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

    def apply_left(self, vec: list) -> list:
        """Row vector times matrix."""
        F = self.field
        out = [F.zero] * self.ncols
        for i, x in enumerate(vec):
            if F.is_zero(x):
                continue
            for j, a in self.rows[i].items():
                out[j] = F.add(out[j], F.mul(x, a))
        return out

    def power(self, k: int) -> "Matrix":
        if not self.is_square():
            raise LinAlgError("power of a non-square matrix")
        if k < 0:
            return inverse(self).power(-k)
        result = Matrix.identity(self.field, self.nrows)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base) if k > 1 else base
            k >>= 1
        return result

    def trace(self):
        F = self.field
        return F.sum(self.rows[i].get(i, F.zero) for i in range(min(self.nrows, self.ncols)))

    def is_zero_matrix(self) -> bool:
        F = self.field
        return all(all(F.is_zero(v) for v in row.values()) for row in self.rows)

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

    Every product accumulates straight into the output rows, and entries that
    cancel are dropped once at the end; no Kronecker matrix, scaled copy or
    partial sum is built.
    """
    add, mul, is_zero = field.add, field.mul, field.is_zero
    rows: list[dict] = [{} for _ in range(nrows)]
    for c, a, b in terms:
        if a.field != field or b.field != field:
            raise FieldMismatch("matrices over different fields")
        bn, bm = b.nrows, b.ncols
        if (a.nrows * bn, a.ncols * bm) != (nrows, ncols):
            raise LinAlgError("shape mismatch in kron_sum")
        brows = [(bi, brow) for bi, brow in enumerate(b.rows) if brow]
        for i, arow in enumerate(a.rows):
            if not arow:
                continue
            scaled = [(j * bm, mul(c, v)) for j, v in arow.items()]
            for bi, brow in brows:
                target = rows[i * bn + bi]
                for jb, ca in scaled:
                    for bj, v in brow.items():
                        col = jb + bj
                        p = mul(ca, v)
                        target[col] = add(target[col], p) if col in target else p
    return Matrix(field, nrows, ncols, [{j: v for j, v in row.items() if not is_zero(v)} for row in rows])


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


@dataclass
class KernelBasis:
    """Kernel basis in reduced form: vectors[i][free_cols[j]] = delta_ij.

    ``free_cols`` are the non-pivot columns of the reduced row echelon form of
    the stacked system, where each pivot is the least column of its row.  The
    form is unique, so the same system gives the same ``free_cols`` and
    vectors over every field in which it has the same rank; ``blocks --format
    json`` publishes ``free_cols`` as ``basis_support_columns``.
    """

    vectors: list[list]
    free_cols: list[int]
    ncols: int

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def coordinates_of(self, vec: list) -> list:
        """Coordinates of vec in this basis, assuming vec lies in the span."""
        return [vec[c] for c in self.free_cols]

    def in_span(self, field: Field, vec: list) -> bool:
        coords = self.coordinates_of(vec)
        recon = [field.zero] * self.ncols
        for c, bvec in zip(coords, self.vectors):
            if field.is_zero(c):
                continue
            for j, x in enumerate(bvec):
                if not field.is_zero(x):
                    recon[j] = field.add(recon[j], field.mul(c, x))
        return all(field.eq(a, b) for a, b in zip(recon, vec))


def kernel(a: Matrix) -> list[list]:
    """Basis of the right null space {v : A v = 0}."""
    return simultaneous_kernel([a]).vectors


def simultaneous_kernel(mats: list[Matrix]) -> KernelBasis:
    """Basis of the intersection of the kernels of the given matrices."""
    if not mats:
        raise LinAlgError("simultaneous_kernel of no matrices")
    F = mats[0].field
    n = mats[0].ncols
    for m in mats:
        if m.field != F or m.ncols != n:
            raise FieldMismatch("incompatible matrices in simultaneous_kernel")
    red = _RowReducer(F)
    for m in mats:
        for row in m.rows:
            red.add(row)
    free = [c for c in range(n) if c not in red.pivots]
    position = {f: i for i, f in enumerate(free)}
    vectors = [[F.zero] * n for _ in free]
    for i, f in enumerate(free):
        vectors[i][f] = F.one
    for col, prow in red.pivots.items():
        for j, c in prow.items():
            if j != col:
                vectors[position[j]][col] = F.neg(c)
    return KernelBasis(vectors, free, n)


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
    """

    def __init__(self, field: Field):
        self.field = field
        self.pivots: dict[int, dict] = {}

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
        reduced = self.reduce(row)
        if not reduced:
            return reduced
        new = _primitive_row(F, reduced)
        lead = min(new)
        inv = F.inv(new[lead])
        new = {j: F.mul(inv, v) for j, v in new.items()}
        for prow in self.pivots.values():
            c = prow.get(lead)
            if c is None:
                continue
            for j, v in new.items():
                d = F.sub(prow.get(j, F.zero), F.mul(c, v))
                if F.is_zero(d):
                    prow.pop(j, None)
                else:
                    prow[j] = d
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


def _sequence_annihilator(field: Field, vec_iter) -> list:
    """Monic polynomial of least degree annihilating the stream v, Tv, T^2 v, ...

    ``vec_iter`` yields the successive vectors; term j is consumed only until
    the first linear dependence appears.  Row j fed to the reducer is
    (w_j | e_j), so the columns from n on of a reduced row record which
    combination of w_0..w_j it is; the first row with no column below n is
    the dependence.
    """
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


def _krylov_stream(t: Matrix, v: list):
    w = list(v)
    while True:
        yield w
        w = t.apply_right(w)


def _evaluate_poly_at_matrix(m: list, t: Matrix) -> Matrix:
    F = t.field
    ident = Matrix.identity(F, t.nrows)
    acc = ident.scale(m[-1])
    for c in reversed(m[:-1]):
        acc = t.mul(acc)
        if not F.is_zero(c):
            acc = acc.add(ident.scale(c))
    return acc


def minimal_polynomial(t: Matrix) -> list:
    """Monic minimal polynomial of a square matrix, low degree first.

    Starts from the annihilator of one generic vector and repeatedly replaces
    m by its minimal multiple annihilating a witness column of m(T); each
    extension stays a divisor of the true minimal polynomial, and the loop
    ends exactly when m(T) = 0.
    """
    if not t.is_square():
        raise LinAlgError("minimal polynomial of non-square matrix")
    F = t.field
    n = t.nrows
    if n == 0:
        return [F.one]
    w0 = [F.one] * n
    m = _sequence_annihilator(F, _krylov_stream(t, w0))
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
        q = _sequence_annihilator(F, _krylov_stream(t, col))
        m = P.pmul(F, m, q)


# ---------------------------------------------------------------------------
# Orders in GL and PGL
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderVerdict:
    kind: str  # "finite" | "infinite" | "unknown"
    n: int | None = None
    reason: str | None = None  # NotSemisimple | RootNotUnity for infinite
    cap: int | None = None

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


@dataclass(frozen=True)
class OrderCertificate:
    gl_order: OrderVerdict
    pgl_order: OrderVerdict
    minpoly_squarefree: bool
    evidence: dict = dc_field(default_factory=dict)

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


class _QuotientPair:
    """The commutative algebra F[x,y]/(m(x), m(y)), elements as d x d coefficient grids."""

    def __init__(self, field: Field, m: list):
        self.field = field
        self.m = m
        self.d = P.pdeg(m)
        d, F = self.d, field
        red = []
        prev = [F.neg(c) for c in m[:d]]  # x^d mod m
        red.append(list(prev))
        for _ in range(1, d):
            shifted = [F.zero] + prev[:-1]
            top = prev[-1]
            row = [F.add(shifted[i], F.mul(top, red[0][i])) for i in range(d)]
            red.append(row)
            prev = row
        self.red = red

    def one(self):
        F, d = self.field, self.d
        g = [[F.zero] * d for _ in range(d)]
        g[0][0] = F.one
        return g

    def _reduce_axis(self, grid, axis: int):
        F, d = self.field, self.d
        size = len(grid) if axis == 0 else len(grid[0])
        if size <= d:
            return grid
        if axis == 0:
            for i in range(len(grid) - 1, d - 1, -1):
                row = grid[i]
                for t, x in enumerate(row):
                    if not F.is_zero(x):
                        rr = self.red[i - d]
                        for s in range(d):
                            if not F.is_zero(rr[s]):
                                grid[s][t] = F.add(grid[s][t], F.mul(x, rr[s]))
                grid[i] = None
            return [r for r in grid if r is not None]
        for row in grid:
            for j in range(len(row) - 1, d - 1, -1):
                x = row[j]
                if not F.is_zero(x):
                    rr = self.red[j - d]
                    for s in range(d):
                        if not F.is_zero(rr[s]):
                            row[s] = F.add(row[s], F.mul(x, rr[s]))
        return [row[:d] for row in grid]

    def mul(self, a, b):
        F, d = self.field, self.d
        out = [[F.zero] * (2 * d - 1) for _ in range(2 * d - 1)]
        for i, arow in enumerate(a):
            for j, av in enumerate(arow):
                if F.is_zero(av):
                    continue
                for k, brow in enumerate(b):
                    for l, bv in enumerate(brow):
                        if not F.is_zero(bv):
                            out[i + k][j + l] = F.add(out[i + k][j + l], F.mul(av, bv))
        out = self._reduce_axis(out, 0)
        out = self._reduce_axis(out, 1)
        return out

    def flatten(self, g):
        return [g[i][j] for i in range(self.d) for j in range(self.d)]


def _poly_invmod(field: Field, a: list, mod: list) -> list:
    """Inverse of a modulo mod in F[x] (requires gcd(a, mod) constant)."""
    r0, r1 = P.pmonic(field, mod), P.ptrim(field, a)
    s0: list = []
    s1 = [field.one]
    while P.pdeg(r1) > 0:
        q, r = P.pdivmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, P.psub(field, s0, P.pmul(field, q, s1))
        if not r1:
            raise LinAlgError("element not invertible in quotient")
    c = field.inv(r1[0])
    inv = P.pscale(field, s1, c)
    _, inv = P.pdivmod(field, inv, P.pmonic(field, mod))
    return inv


def _ratio_minimal_polynomial(field: Field, m: list) -> list:
    """Minimal polynomial of x * y^(-1) in F[x,y]/(m(x), m(y)).

    This equals the minimal polynomial of the conjugation operator
    X -> T X T^(-1) on the full matrix space when m = minpoly(T): that space
    is a faithful module over the algebra, so element and operator share
    their minimal polynomial.
    """
    d = P.pdeg(m)
    if d <= 1:
        return [field.neg(field.one), field.one]  # scalar operator: x - 1
    C = _QuotientPair(field, P.pmonic(field, m))
    y_poly = [field.zero, field.one]
    yinv = _poly_invmod(field, y_poly, m)
    u = [[field.zero] * d for _ in range(d)]
    for j, c in enumerate(yinv):
        if not field.is_zero(c) and j < d:
            u[1][j] = c  # x^1 * (y-inverse coefficients)
    def stream():
        w = C.one()
        while True:
            yield C.flatten(w)
            w = C.mul(w, u)
    return _sequence_annihilator(field, stream())


def _order_by_iteration(t: Matrix, cap: int) -> tuple[OrderVerdict, OrderVerdict]:
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

    Over F_p both orders are found by direct iteration up to ``cap``.
    """
    F = t.field
    m = minimal_polynomial(t)
    if F.is_zero(m[0]):
        raise NotInvertible("operator is singular (minimal polynomial has root 0)")
    evidence = {"minpoly": _format_poly_list(F, m)}
    if F.kind == "Fp":
        gl, pgl = _order_by_iteration(t, cap or DEFAULT_FP_ORDER_CAP)
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


def conjugation_operator(t: Matrix) -> Matrix:
    """The operator X -> T X T^(-1) on the full matrix space (row-major vec)."""
    return t.kron(inverse(t).transpose())
