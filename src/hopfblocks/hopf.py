"""Finite-dimensional Hopf algebras given by structure constants.

``HopfData`` stores the basis-indexed tensors (multiplication, unit,
comultiplication, counit, antipode, optional R-matrix, optional ribbon
element) over an exact field, and provides full axiom verification,
structural predicates, and the Drinfeld double construction.

Elements are dense coordinate lists in the public API; internally, products
and the axiom checks work on sparse elements (basis index -> coefficient)
read straight from the structure constants, so ``validate`` checks every
axiom as an identity between sparse combinations of ``mult``, ``comult``,
``counit``, ``unit`` and the antipode columns.

Conventions (fixed once, used everywhere):

* twist of a module M is the action of the ribbon element v: theta_M = rho_M(v);
* braiding on modules is tau composed with the R-action, so the double
  braiding (monodromy) is the action of R21 * R;
* consequently the ribbon element satisfies  Delta(v) = (R21 R) (v x v),
  the direction that makes theta_{M x N} = monodromy . (theta_M x theta_N).
"""

from __future__ import annotations

from .fields import Field
from .linalg import (
    LinAlgError,
    Matrix,
    NotInvertible,
    OrderCertificate,
    _RowReducer,
    inverse,
    linear_combination,
    operator_order,
    simultaneous_kernel,
    solve_unique,
)


class HopfError(Exception):
    pass


class DimensionMismatch(HopfError):
    pass


class MissingRMatrix(HopfError):
    pass


class MissingRibbon(HopfError):
    pass


class AntipodeNotInvertible(HopfError):
    pass


class IntegralSpaceNotOneDimensional(HopfError):
    pass


class AxiomCheck:
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: str | None = None):
        self.name = name
        self.passed = passed
        self.witness = witness

    def to_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness:
            out["witness"] = self.witness
        return out


class StructureReport:
    __slots__ = ("algebra", "checks", "is_commutative", "commutative_witness", "is_unimodular",
                 "is_factorizable", "mode")

    def __init__(self, algebra: str, checks: list[AxiomCheck] | None = None, is_commutative: bool | None = None,
                 commutative_witness: str | None = None, is_unimodular: bool | None = None,
                 is_factorizable: bool | None = None, mode: str = "full"):
        self.algebra = algebra
        self.checks = [] if checks is None else checks
        self.is_commutative = is_commutative
        self.commutative_witness = commutative_witness
        self.is_unimodular = is_unimodular
        self.is_factorizable = is_factorizable
        self.mode = mode

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {
            "algebra": self.algebra,
            "passed": self.passed,
            "mode": self.mode,
            "checks": [c.to_json() for c in self.checks],
            "is_commutative": self.is_commutative,
            "commutative_witness": self.commutative_witness,
            "is_unimodular": self.is_unimodular,
            "is_factorizable": self.is_factorizable,
        }


FULL_AXIOM_DIM_LIMIT = 30


class HopfData:
    """Structure constants of a finite-dimensional Hopf algebra.

    mult[i][j] is the sparse vector of e_i * e_j; comult[i] maps (j, k) to the
    coefficient of e_j x e_k in Delta(e_i); the antipode is a matrix acting on
    coordinate columns.  r_matrix and ribbon are optional.
    """

    def __init__(
        self,
        name: str,
        field: Field,
        dim: int,
        basis_labels: list[str],
        mult: list[list[dict]],
        unit: list,
        comult: list[dict],
        counit: list,
        antipode: Matrix,
        r_matrix: dict | None = None,
        ribbon: list | None = None,
        generators: list[int] | None = None,
        flags: dict | None = None,
    ):
        if len(basis_labels) != dim or len(unit) != dim or len(counit) != dim:
            raise DimensionMismatch("basis/unit/counit length disagrees with dim")
        if len(mult) != dim or any(len(row) != dim for row in mult):
            raise DimensionMismatch("mult tensor must be dim x dim")
        if len(comult) != dim:
            raise DimensionMismatch("comult tensor must have dim entries")
        if antipode.nrows != dim or antipode.ncols != dim:
            raise DimensionMismatch("antipode must be dim x dim")
        if ribbon is not None and len(ribbon) != dim:
            raise DimensionMismatch("ribbon length disagrees with dim")
        if generators is not None and any(not 0 <= g < dim for g in generators):
            raise DimensionMismatch("generator indices must lie in 0..dim-1")
        self.name = name
        self.field = field
        self.dim = dim
        self.basis_labels = list(basis_labels)
        self.mult = mult
        self.unit = [field.normalize(v) for v in unit]
        self.comult = comult
        self.counit = [field.normalize(v) for v in counit]
        self.antipode = antipode
        self.r_matrix = r_matrix
        self.ribbon = [field.normalize(v) for v in ribbon] if ribbon is not None else None
        self.generators = list(generators) if generators is not None else None
        self.flags = dict(flags) if flags else {}
        self._cache: dict = {}

    # -- element arithmetic --------------------------------------------------

    def zero_vector(self) -> list:
        return [self.field.zero] * self.dim

    def basis_vector(self, i: int) -> list:
        v = self.zero_vector()
        v[i] = self.field.one
        return v

    def sparse(self, x: list) -> dict:
        """The sparse element (basis index -> nonzero coefficient) of a vector."""
        F = self.field
        return {i: v for i, v in enumerate(x) if not F.is_zero(v)}

    def product(self, x: dict, y: dict) -> dict:
        """x * y for sparse elements, the library's one product routine."""
        F = self.field
        add, mul = F.add, F.mul
        out: dict = {}
        for i, a in x.items():
            mult_i = self.mult[i]
            for j, b in y.items():
                c = mul(a, b)
                for k, m in mult_i[j].items():
                    p = mul(c, m)
                    out[k] = add(out[k], p) if k in out else p
        return {k: v for k, v in out.items() if not F.is_zero(v)}

    def sparse_eq(self, x: dict, y: dict) -> bool:
        """Equality of sparse elements or tensors; a missing key is zero."""
        F = self.field
        return all(F.eq(x.get(k, F.zero), y.get(k, F.zero)) for k in x.keys() | y.keys())

    def multiply(self, x: list, y: list) -> list:
        """x * y for dense coordinate vectors, through ``product``."""
        out = self.zero_vector()
        for k, v in self.product(self.sparse(x), self.sparse(y)).items():
            out[k] = v
        return out

    def counit_of(self, x: dict):
        """eps(x) for a sparse element."""
        F = self.field
        return F.sum(F.mul(c, self.counit[i]) for i, c in x.items())

    def comult_of(self, x: dict) -> dict:
        """Delta(x) for a sparse element, as a sparse tensor keyed by index pairs."""
        F = self.field
        add, mul = F.add, F.mul
        out: dict = {}
        for i, xv in x.items():
            for jk, c in self.comult[i].items():
                p = mul(xv, c)
                out[jk] = add(out[jk], p) if jk in out else p
        return {k: v for k, v in out.items() if not F.is_zero(v)}

    def antipode_of(self, x: list) -> list:
        return self.antipode.apply_right(x)

    # -- tensor-square / cube elements ---------------------------------------

    def t2_mult(self, t: dict, s: dict) -> dict:
        """Product in H x H of sparse tensors keyed by basis-index pairs."""
        F = self.field
        add, mul = F.add, F.mul
        mult = self.mult
        out: dict = {}
        for (i, j), c1 in t.items():
            mult_i, mult_j = mult[i], mult[j]
            for (k, l), c2 in s.items():
                left, right = mult_i[k], mult_j[l]
                if not (left and right):
                    continue
                c = mul(c1, c2)
                for a, ma in left.items():
                    ca = mul(c, ma)
                    for b, mb in right.items():
                        p = mul(ca, mb)
                        key = (a, b)
                        out[key] = add(out[key], p) if key in out else p
        return {k: v for k, v in out.items() if not F.is_zero(v)}

    def t2_flip(self, t: dict) -> dict:
        return {(j, i): c for (i, j), c in t.items()}

    def t2_from_vectors(self, x: list, y: list) -> dict:
        F = self.field
        out = {}
        for i, a in enumerate(x):
            if F.is_zero(a):
                continue
            for j, b in enumerate(y):
                if not F.is_zero(b):
                    out[(i, j)] = F.mul(a, b)
        return out

    def t2_unit(self) -> dict:
        return self.t2_from_vectors(self.unit, self.unit)

    def t2_apply_leg(self, t: dict, leg: int, matrix: Matrix) -> dict:
        """Apply a linear map to one tensor leg (0 or 1)."""
        F = self.field
        add, mul = F.add, F.mul
        cols = matrix.transpose().rows  # cols[src] = {k: matrix[k][src]}
        out: dict = {}
        for (i, j), c in t.items():
            for k, m in cols[i if leg == 0 else j].items():
                key = (k, j) if leg == 0 else (i, k)
                p = mul(c, m)
                out[key] = add(out[key], p) if key in out else p
        return {k: v for k, v in out.items() if not F.is_zero(v)}

    def monodromy_element(self) -> dict:
        """R21 * R, the double-braiding element of H x H."""
        if self.r_matrix is None:
            raise MissingRMatrix(self.name)
        if "monodromy_element" not in self._cache:
            r21 = self.t2_flip(self.r_matrix)
            self._cache["monodromy_element"] = self.t2_mult(r21, self.r_matrix)
        return self._cache["monodromy_element"]

    # -- action matrices -------------------------------------------------------

    def left_mult_matrix(self, i: int) -> Matrix:
        key = ("lmul", i)
        if key not in self._cache:
            m = Matrix(self.field, self.dim, self.dim)
            for j in range(self.dim):
                for k, c in self.mult[i][j].items():
                    m.rows[k][j] = c
            self._cache[key] = m
        return self._cache[key]

    def right_mult_matrix(self, i: int) -> Matrix:
        key = ("rmul", i)
        if key not in self._cache:
            m = Matrix(self.field, self.dim, self.dim)
            for j in range(self.dim):
                for k, c in self.mult[j][i].items():
                    m.rows[k][j] = c
            self._cache[key] = m
        return self._cache[key]

    def left_mult_of(self, x: list) -> Matrix:
        F = self.field
        terms = [(c, self.left_mult_matrix(i)) for i, c in enumerate(x) if not F.is_zero(c)]
        return linear_combination(F, self.dim, self.dim, terms)

    def right_mult_of(self, x: list) -> Matrix:
        F = self.field
        terms = [(c, self.right_mult_matrix(i)) for i, c in enumerate(x) if not F.is_zero(c)]
        return linear_combination(F, self.dim, self.dim, terms)

    def generating_indices(self) -> list[int]:
        return self.generators if self.generators is not None else list(range(self.dim))

    # -- predicates ------------------------------------------------------------

    def is_commutative(self) -> tuple[bool, str | None]:
        F = self.field
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                a, b = self.mult[i][j], self.mult[j][i]
                for k in set(a) | set(b):
                    if not F.eq(a.get(k, F.zero), b.get(k, F.zero)):
                        li, lj = self.basis_labels[i], self.basis_labels[j]
                        return False, f"{li}*{lj} != {lj}*{li}"
        return True, None

    def integrals(self) -> tuple[list, list]:
        """Bases (single vectors) of the left and right integral spaces."""
        if "integrals" in self._cache:
            return self._cache["integrals"]
        F = self.field
        gens = self.generating_indices()
        left_mats, right_mats = [], []
        for i in gens:
            eps = self.counit[i]
            scaled_id = Matrix.identity(F, self.dim).scale(eps)
            left_mats.append(self.left_mult_matrix(i).sub(scaled_id))
            right_mats.append(self.right_mult_matrix(i).sub(scaled_id))
        left = simultaneous_kernel(left_mats).vectors
        right = simultaneous_kernel(right_mats).vectors
        if len(left) != 1 or len(right) != 1:
            raise IntegralSpaceNotOneDimensional(
                f"{self.name}: left dim {len(left)}, right dim {len(right)}"
            )
        self._cache["integrals"] = (left[0], right[0])
        return self._cache["integrals"]

    def is_unimodular(self) -> bool:
        left, right = self.integrals()
        F = self.field
        # both are single nonzero vectors; compare up to scalar
        i0 = next(i for i, v in enumerate(left) if not F.is_zero(v))
        if F.is_zero(right[i0]):
            return False
        ratio = F.div(right[i0], left[i0])
        return all(F.eq(F.mul(ratio, a), b) for a, b in zip(left, right))

    def drinfeld_map_matrix(self) -> Matrix:
        """The map H* -> H, f -> (f x id)(R21 R), as a dim x dim matrix."""
        if self.r_matrix is None:
            raise MissingRMatrix(self.name)
        q = self.monodromy_element()
        m = Matrix(self.field, self.dim, self.dim)
        for (j, b), c in q.items():
            m.rows[b][j] = self.field.add(m.rows[b].get(j, self.field.zero), c)
        return m

    def is_factorizable(self) -> tuple[bool, str | None]:
        """Whether the Drinfeld map is invertible, with a witness if not;
        the verdict is kept on the algebra."""
        if "factorizable" not in self._cache:
            nullity = simultaneous_kernel([self.drinfeld_map_matrix()]).dim
            self._cache["factorizable"] = (nullity == 0, f"Drinfeld map has nullity {nullity}" if nullity else None)
        return self._cache["factorizable"]

    def ribbon_order(self, cap: int | None = None) -> OrderCertificate:
        """Order of left multiplication by the ribbon element, kept per cap."""
        if self.ribbon is None:
            raise MissingRibbon(self.name)
        key = ("ribbon_order", cap)
        if key not in self._cache:
            self._cache[key] = operator_order(self.left_mult_of(self.ribbon), cap=cap)
        return self._cache[key]

    def span_closure_dim(self, indices: list[int]) -> int:
        """Dimension of the unital subalgebra generated by the given basis elements.

        That subalgebra is the span of the words in the generators, and the
        word s_1 s_2 ... s_k is s_1 (s_2 (... (s_k 1))), so it is the least
        subspace holding 1 and closed under y -> s y for each generator s:
        left multiplications by the generators suffice.
        """
        red = _RowReducer(self.field)
        unit = self.sparse(self.unit)
        red.add(unit)
        gens = [{i: self.field.one} for i in indices]
        frontier = [unit]
        while frontier:
            new_frontier = []
            for y in frontier:
                for s in gens:
                    prod = self.product(s, y)
                    if red.add(prod):
                        new_frontier.append(prod)
            frontier = new_frontier
        return len(red.pivots)

    # -- validation --------------------------------------------------------------

    def validate(self, full: bool | None = None) -> StructureReport:
        """Check every axiom on the structure constants; nothing is sampled.

        Linear axioms are checked on every basis element, associativity on
        every triple (e_i, e_j, e_k) and the bialgebra axiom on every pair
        (e_i, e_j).  In generator mode (``full=False``, the default for an
        algebra of dim at least ``FULL_AXIOM_DIM_LIMIT`` with generators) e_i
        runs over the generators.  Declared generators must span the
        algebra in either mode, since every constraint system is built on
        them (``generating_indices``).

        Associativity is checked one structure-constant row at a time: for
        each (i, j), both sides of (e_i e_j) e_k = e_i (e_j e_k) are built for
        every k at once and compared once.  The triples are the same, in the
        same order, and on a mismatch the witness is the least failing k:
        the triple a per-triple loop would report first.
        """
        F = self.field
        add, mul = F.add, F.mul
        if full is None:
            full = self.dim < FULL_AXIOM_DIM_LIMIT or self.generators is None
        report = StructureReport(algebra=self.name, mode="full" if full else "generators")
        checks = report.checks

        def record(name, passed, witness=None):
            checks.append(AxiomCheck(name, passed, witness if not passed else None))

        labels = self.basis_labels
        gens = self.generating_indices()
        if self.generators is not None:
            closure = self.span_closure_dim(gens)
            record("generators-span", closure == self.dim, f"closure dim {closure} != {self.dim}")

        # every identity below is checked on sparse elements built from the
        # structure constants; e[i] is the basis element e_i.  Sums compared
        # only through sparse_eq keep their zeros: a missing key reads as zero.
        e = [{i: F.one} for i in range(self.dim)]
        unit = self.sparse(self.unit)

        # unitality
        bad = None
        for i in range(self.dim):
            if not (self.sparse_eq(self.product(unit, e[i]), e[i])
                    and self.sparse_eq(self.product(e[i], unit), e[i])):
                bad = labels[i]
                break
        record("unitality", bad is None, bad and f"unit fails on {bad}")

        # associativity, keyed by k * n + t for the coefficient of e_t:
        # (e_i e_j) e_k = sum_m mult[i][j][m] mult[m][k]  and
        # e_i (e_j e_k) = sum_m mult[j][k][m] mult[i][m], for every k at once
        n, mult = self.dim, self.mult
        row_of = [[(k * n + t, c) for k, mk in enumerate(mult[m]) for t, c in mk.items()]
                  for m in range(n)]
        bad = None
        first = range(self.dim) if full else gens
        for i in first:
            mult_i = mult[i]
            for j in range(n):
                lhs: dict = {}
                for m, a in mult_i[j].items():
                    for key, b in row_of[m]:
                        p = mul(a, b)
                        lhs[key] = add(lhs[key], p) if key in lhs else p
                rhs: dict = {}
                for k, jk in enumerate(mult[j]):
                    base = k * n
                    for m, a in jk.items():
                        for t, b in mult_i[m].items():
                            key = base + t
                            p = mul(a, b)
                            rhs[key] = add(rhs[key], p) if key in rhs else p
                if not self.sparse_eq(lhs, rhs):
                    zero = F.zero
                    k = min(key for key in lhs.keys() | rhs.keys()
                            if not F.eq(lhs.get(key, zero), rhs.get(key, zero))) // n
                    bad = (labels[i], labels[j], labels[k])
                    break
            if bad:
                break
        record("associativity", bad is None, bad and f"({bad[0]}, {bad[1]}, {bad[2]})")

        # coassociativity and counitality (linear: all basis elements)
        bad = None
        for i in range(self.dim):
            left: dict = {}
            right: dict = {}
            for (j, k), c in self.comult[i].items():
                for (p, q), d in self.comult[j].items():
                    key, v = (p, q, k), mul(c, d)
                    left[key] = add(left[key], v) if key in left else v
                for (p, q), d in self.comult[k].items():
                    key, v = (j, p, q), mul(c, d)
                    right[key] = add(right[key], v) if key in right else v
            if not self.sparse_eq(left, right):
                bad = labels[i]
                break
        record("coassociativity", bad is None, bad and f"Delta fails on {bad}")

        bad = None
        for i in range(self.dim):
            left, right = {}, {}
            for (j, k), c in self.comult[i].items():
                v = mul(c, self.counit[j])
                left[k] = add(left[k], v) if k in left else v
                v = mul(c, self.counit[k])
                right[j] = add(right[j], v) if j in right else v
            if not (self.sparse_eq(left, e[i]) and self.sparse_eq(right, e[i])):
                bad = labels[i]
                break
        record("counitality", bad is None, bad and f"counit fails on {bad}")

        # bialgebra: Delta and counit are algebra maps
        bad = None
        if not self.sparse_eq(self.comult_of(unit), self.t2_unit()):
            bad = "1"
        if bad is None and not F.eq(self.counit_of(unit), F.one):
            bad = "1 (counit)"
        if bad is None:
            for i in first:
                for j in range(self.dim):
                    prod = self.mult[i][j]
                    lhs = self.comult_of(prod)
                    rhs = self.t2_mult(self.comult[i], self.comult[j])
                    if not self.sparse_eq(lhs, rhs):
                        bad = f"Delta({labels[i]}*{labels[j]})"
                        break
                    if not F.eq(self.counit_of(prod), mul(self.counit[i], self.counit[j])):
                        bad = f"eps({labels[i]}*{labels[j]})"
                        break
                if bad:
                    break
        record("bialgebra", bad is None, bad)

        # antipode axioms (linear: all basis elements); s_col[j] = S(e_j)
        bad = None
        s_col = self.antipode.transpose().rows
        for i in range(self.dim):
            left, right = {}, {}
            for (j, k), c in self.comult[i].items():
                for t, v in self.product(s_col[j], e[k]).items():
                    v = mul(c, v)
                    left[t] = add(left[t], v) if t in left else v
                for t, v in self.product(e[j], s_col[k]).items():
                    v = mul(c, v)
                    right[t] = add(right[t], v) if t in right else v
            target = {t: mul(self.counit[i], u) for t, u in unit.items()}
            if not (self.sparse_eq(left, target) and self.sparse_eq(right, target)):
                bad = labels[i]
                break
        record("antipode", bad is None, bad and f"antipode axiom fails on {bad}")

        if self.r_matrix is not None:
            self._validate_quasitriangular(record)
        if self.ribbon is not None:
            self._validate_ribbon(record)

        report.is_commutative, report.commutative_witness = self.is_commutative()
        try:
            report.is_unimodular = self.is_unimodular()
        except (IntegralSpaceNotOneDimensional, HopfError):
            report.is_unimodular = None
        if self.r_matrix is not None:
            report.is_factorizable = self.is_factorizable()[0]
        return report

    def _validate_quasitriangular(self, record):
        F = self.field
        add, mul = F.add, F.mul
        r = self.r_matrix

        # (eps x id)R = 1 = (id x eps)R
        left, right = {}, {}
        for (i, j), c in r.items():
            v = mul(c, self.counit[i])
            left[j] = add(left[j], v) if j in left else v
            v = mul(c, self.counit[j])
            right[i] = add(right[i], v) if i in right else v
        unit = self.sparse(self.unit)
        record("r-counit", self.sparse_eq(left, unit) and self.sparse_eq(right, unit),
               "counit legs of R are not 1")

        # invertibility: (S x id)R is the two-sided inverse of R
        sr = self.t2_apply_leg(r, 0, self.antipode)
        inv_ok = self.sparse_eq(self.t2_mult(r, sr), self.t2_unit()) and self.sparse_eq(
            self.t2_mult(sr, r), self.t2_unit()
        )
        record("r-invertible", inv_ok, "(S x id)R is not inverse to R")

        # intertwining: Delta^op(x) R = R Delta(x) on all basis elements
        bad = None
        for i in range(self.dim):
            d = self.comult[i]
            dop = self.t2_flip(d)
            if not self.sparse_eq(self.t2_mult(dop, r), self.t2_mult(r, d)):
                bad = self.basis_labels[i]
                break
        record("r-intertwines-coproduct", bad is None, bad and f"fails on {bad}")

        # hexagons: (Delta x id)R = R13 R23 and (id x Delta)R = R13 R12
        lhs: dict = {}
        for (i, j), c in r.items():
            for (p, q), d in self.comult[i].items():
                key, v = (p, q, j), mul(c, d)
                lhs[key] = add(lhs[key], v) if key in lhs else v
        rhs: dict = {}
        for (a, b), c in r.items():
            for (a2, b2), c2 in r.items():
                cc = mul(c, c2)
                for t, m in self.mult[b][b2].items():
                    key, v = (a, a2, t), mul(cc, m)
                    rhs[key] = add(rhs[key], v) if key in rhs else v
        record("r-hexagon-left", self.sparse_eq(lhs, rhs), "(Delta x id)R != R13 R23")

        lhs = {}
        for (i, j), c in r.items():
            for (p, q), d in self.comult[j].items():
                key, v = (i, p, q), mul(c, d)
                lhs[key] = add(lhs[key], v) if key in lhs else v
        rhs = {}
        for (a, b), c in r.items():  # R13
            for (a2, b2), c2 in r.items():  # R12
                cc = mul(c, c2)
                for t, m in self.mult[a][a2].items():
                    key, v = (t, b2, b), mul(cc, m)
                    rhs[key] = add(rhs[key], v) if key in rhs else v
        record("r-hexagon-right", self.sparse_eq(lhs, rhs), "(id x Delta)R != R13 R12")

        # consequence: (S x S)R = R
        ssr = self.t2_apply_leg(self.t2_apply_leg(r, 0, self.antipode), 1, self.antipode)
        record("r-antipode-consequence", self.sparse_eq(ssr, r), "(S x S)R != R")

    def _validate_ribbon(self, record):
        for name, passed, witness in self.ribbon_battery(self.ribbon):
            record(name, passed, witness)

    def ribbon_battery(self, v: list):
        """The ribbon axioms for a candidate v, lazily, as (name, passed, witness).

        In order: v is central, invertible, eps(v) = 1, S(v) = v and, when
        the algebra has an R-matrix, Delta(v) = (R21 R)(v x v).  Nothing
        after a failed invertibility check is yielded.
        """
        F = self.field
        vs = self.sparse(v)

        bad = None
        for i in range(self.dim):
            e = {i: F.one}
            if not self.sparse_eq(self.product(vs, e), self.product(e, vs)):
                bad = self.basis_labels[i]
                break
        yield "ribbon-central", bad is None, bad and f"v does not commute with {bad}"

        try:
            self.element_inverse(v)
        except LinAlgError:
            yield "ribbon-invertible", False, "no multiplicative inverse"
            return
        yield "ribbon-invertible", True, None

        yield "ribbon-counit", F.eq(self.counit_of(vs), F.one), "eps(v) != 1"
        yield "ribbon-antipode", self.antipode_of(v) == v, "S(v) != v"

        if self.r_matrix is not None:
            q = self.monodromy_element()
            lhs = self.comult_of(vs)
            rhs = self.t2_mult(q, self.t2_from_vectors(v, v))
            yield "ribbon-coproduct", self.sparse_eq(lhs, rhs), "Delta(v) != (R21 R)(v x v)"

    def element_inverse(self, x: list) -> list:
        """The inverse of x, from x y = 1; a ``LinAlgError`` when x has none."""
        return solve_unique(self.left_mult_of(x), self.unit)

    def drinfeld_element(self) -> list:
        """u = sum S(b_i) a_i for R = sum a_i x b_i."""
        if self.r_matrix is None:
            raise MissingRMatrix(self.name)
        F = self.field
        out = self.zero_vector()
        for (i, j), c in self.r_matrix.items():
            term = self.multiply(self.antipode_of(self.basis_vector(j)), self.basis_vector(i))
            for t, x in enumerate(term):
                out[t] = F.add(out[t], F.mul(c, x))
        return out

    def is_grouplike(self, x: list) -> bool:
        F = self.field
        xs = self.sparse(x)
        if not F.eq(self.counit_of(xs), F.one):
            return False
        return self.sparse_eq(self.comult_of(xs), self.t2_from_vectors(x, x))


# ---------------------------------------------------------------------------
# Drinfeld double
# ---------------------------------------------------------------------------


def drinfeld_double(h: HopfData) -> HopfData:
    """The Drinfeld double D(H) on basis H* x H with the canonical R-matrix.

    The dual-side multiplication is plain convolution and the dual-side
    coproduct is reversed; both choices are forced by requiring the canonical
    R = sum_i (eps x e_i) x (e^i x 1) to satisfy the quasitriangularity
    axioms (checked by validate() on every constructed double).  The antipode
    is obtained by solving the (unique) antipode axiom linear system rather
    than transcribing a formula.
    """
    F = h.field
    n = h.dim
    try:
        s_inv = inverse(h.antipode)
    except NotInvertible as exc:
        raise AntipodeNotInvertible(h.name) from exc

    dim = n * n

    def idx(a: int, b: int) -> int:
        return a * n + b

    labels = [f"{h.basis_labels[a]}^*.{h.basis_labels[b]}" for a in range(n) for b in range(n)]

    # Delta^2(e_b) as (p, q, r) -> coeff, using (Delta x id)Delta
    d2: list[dict] = []
    for b in range(n):
        acc: dict = {}
        for (x, r), c in h.comult[b].items():
            for (p, q), d in h.comult[x].items():
                key = (p, q, r)
                s = F.add(acc.get(key, F.zero), F.mul(c, d))
                if F.is_zero(s):
                    acc.pop(key, None)
                else:
                    acc[key] = s
        d2.append(acc)

    # reverse index of the coproduct: (a, t) -> {s: coeff}, i.e. e^a * e^t in H*
    dual_mult: dict = {}
    for s in range(n):
        for (a, t), c in h.comult[s].items():
            dual_mult.setdefault((a, t), {})[s] = c

    # reverse index of the product: a -> [(j, k, coeff)] with e_j e_k ∋ e_a
    mult_rev: list[list] = [[] for _ in range(n)]
    for j in range(n):
        for k in range(n):
            for a, c in h.mult[j][k].items():
                mult_rev[a].append((j, k, c))

    # dressed functionals: for used (p, r), dress[(p, r)][c] = [(t, coeff)]
    # where e_p ⇀ e^c ↼ S^{-1}(e_r) = sum_t coeff * e^t,
    # coeff = e^c( S^{-1}(e_r) * e_t * e_p )
    used_pr = {(p, r) for acc in d2 for (p, _q, r) in acc}
    dress: dict = {}
    for (p, r) in used_pr:
        sinv_r = [s_inv.entry(i, r) for i in range(n)]
        table: list[dict] = [dict() for _ in range(n)]  # index c -> {t: coeff}
        ep = h.basis_vector(p)
        for t in range(n):
            w = h.multiply(h.multiply(sinv_r, h.basis_vector(t)), ep)
            for c, val in enumerate(w):
                if not F.is_zero(val):
                    table[c][t] = val
        dress[(p, r)] = table

    mult: list[list[dict]] = [[{} for _ in range(dim)] for _ in range(dim)]
    for b in range(n):
        for (p, q, r), c_d2 in d2[b].items():
            table = dress[(p, r)]
            for c in range(n):
                tmap = table[c]
                if not tmap:
                    continue
                for d in range(n):
                    hpart = h.mult[q][d]
                    if not hpart:
                        continue
                    for t, c_t in tmap.items():
                        for a in range(n):
                            fpart = dual_mult.get((a, t))
                            if not fpart:
                                continue
                            coeff_base = F.mul(c_d2, c_t)
                            row = mult[idx(a, b)][idx(c, d)]
                            for s, c_s in fpart.items():
                                for y, c_y in hpart.items():
                                    key = idx(s, y)
                                    val = F.mul(F.mul(coeff_base, c_s), c_y)
                                    prev = row.get(key, F.zero)
                                    tot = F.add(prev, val)
                                    if F.is_zero(tot):
                                        row.pop(key, None)
                                    else:
                                        row[key] = tot

    # coproduct with reversed dual side:
    # Delta(e^a x e_b) = sum m_{jk}^a d_b^{pq} (e^k x e_p) x (e^j x e_q)
    comult: list[dict] = [dict() for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            acc = comult[idx(a, b)]
            for (j, k, c_m) in mult_rev[a]:
                for (p, q), c_d in h.comult[b].items():
                    key = (idx(k, p), idx(j, q))
                    s = F.add(acc.get(key, F.zero), F.mul(c_m, c_d))
                    if F.is_zero(s):
                        acc.pop(key, None)
                    else:
                        acc[key] = s

    counit = [F.mul(h.unit[a], h.counit[b]) for a in range(n) for b in range(n)]
    unit = [F.mul(h.counit[a], h.unit[b]) for a in range(n) for b in range(n)]

    # canonical R = sum_i (eps x e_i) x (e^i x 1)
    r_matrix: dict = {}
    for i in range(n):
        for a in range(n):
            ca = h.counit[a]
            if F.is_zero(ca):
                continue
            for b in range(n):
                ub = h.unit[b]
                if F.is_zero(ub):
                    continue
                key = (idx(a, i), idx(i, b))
                s = F.add(r_matrix.get(key, F.zero), F.mul(ca, ub))
                if F.is_zero(s):
                    r_matrix.pop(key, None)
                else:
                    r_matrix[key] = s

    antipode = _solve_antipode(F, dim, mult, comult, counit, unit)

    generators = _double_generators(h, idx)

    double = HopfData(
        name=f"D({h.name})",
        field=F,
        dim=dim,
        basis_labels=labels,
        mult=mult,
        unit=unit,
        comult=comult,
        counit=counit,
        antipode=antipode,
        r_matrix=r_matrix,
        generators=generators,
        flags={"double_of": h.name},
    )
    if generators is not None and double.span_closure_dim(generators) != dim:
        double.generators = None
    return double


def _double_generators(h: HopfData, idx) -> list[int] | None:
    n = h.dim
    unit_idx = None
    F = h.field
    nz = [(j, v) for j, v in enumerate(h.unit) if not F.is_zero(v)]
    if len(nz) == 1 and F.eq(nz[0][1], F.one):
        unit_idx = nz[0][0]
    if unit_idx is None:
        return None
    gens = [idx(a, unit_idx) for a in range(n)]
    for g in h.generating_indices():
        gens.extend(idx(a, g) for a in range(n))
    return sorted(set(gens))


def _solve_antipode(F, dim, mult, comult, counit, unit) -> Matrix:
    """Solve m(S x id)Delta = unit . counit for the antipode matrix.

    The solution is unique when it exists (a one-sided convolution inverse of
    the identity is two-sided), so a unique-solution linear solve is safe.
    """
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
        for w in range(dim):
            rhs[x * dim + w] = F.mul(eps_x, unit[w])
    sol = solve_unique(rows, rhs)
    s = Matrix(F, dim, dim)
    for q in range(dim):
        for alpha in range(dim):
            v = sol[q * dim + alpha]
            if not F.is_zero(v):
                s.rows[q][alpha] = v
    return s
