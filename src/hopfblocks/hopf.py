"""Finite-dimensional Hopf algebras given by structure constants.

``HopfData`` stores the basis-indexed tensors (multiplication, unit,
comultiplication, counit, antipode, optional R-matrix, optional ribbon
element) over an exact field, and provides complete axiom verification,
structural predicates, and the Drinfeld double construction.

An element of H is sparse everywhere: a dict from basis index to nonzero
coefficient.  The unit, the ribbon element, the integrals, the Drinfeld
element and every argument or result of an element method have that form,
and so do the rows of ``mult``.  Tensors in H x H are dicts keyed by index
pairs.  The counit is the one dense vector: a functional, indexed by basis.
``validate`` checks every axiom as an identity between sparse combinations
of ``mult``, ``comult``, ``counit``, ``unit`` and the antipode columns
S(e_j), which the algebra keeps once (``antipode_columns``).  The counit,
the antipode and the coproduct act on one leg of a tensor through one
routine, ``apply_leg``.  An element's minimal polynomial is read off its
powers 1, x, x^2, ... in H (``element_minpoly``); the order of the ribbon
element and the inverse of any element are both read off it, so no matrix
of H is built or solved for either.

Conventions (fixed once, used everywhere):

* twist of a module M is the action of the ribbon element v: theta_M = rho_M(v);
* braiding on modules is tau composed with the R-action, so the double
  braiding (monodromy) is the action of R21 * R;
* consequently the ribbon element satisfies  Delta(v) = (R21 R) (v x v),
  the direction that makes theta_{M x N} = monodromy . (theta_M x theta_N).
"""

from __future__ import annotations

from itertools import accumulate, repeat

from .fields import Field
from .linalg import (
    LinAlgError,
    Matrix,
    NotInvertible,
    OrderCertificate,
    _RowReducer,
    _sequence_annihilator,
    _times_matrix,
    inverse,
    linear_combination,
    minpoly_order,
    simultaneous_kernel,
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
                 "is_factorizable")

    def __init__(self, algebra: str, checks: list[AxiomCheck] | None = None, is_commutative: bool | None = None,
                 commutative_witness: str | None = None, is_unimodular: bool | None = None,
                 is_factorizable: bool | None = None):
        self.algebra = algebra
        self.checks = [] if checks is None else checks
        self.is_commutative = is_commutative
        self.commutative_witness = commutative_witness
        self.is_unimodular = is_unimodular
        self.is_factorizable = is_factorizable

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {
            "algebra": self.algebra,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "is_commutative": self.is_commutative,
            "commutative_witness": self.commutative_witness,
            "is_unimodular": self.is_unimodular,
            "is_factorizable": self.is_factorizable,
        }


class HopfData:
    """Structure constants of a finite-dimensional Hopf algebra.

    mult[i][j] is the sparse element e_i * e_j; comult[i] maps (j, k) to the
    coefficient of e_j x e_k in Delta(e_i); the antipode is a matrix acting on
    coordinate columns.  unit and ribbon are sparse elements, the counit a
    dense list.  r_matrix and ribbon are optional.
    """

    def __init__(
        self,
        name: str,
        field: Field,
        dim: int,
        basis_labels: list[str],
        mult: list[list[dict]],
        unit: dict,
        comult: list[dict],
        counit: list,
        antipode: Matrix,
        r_matrix: dict | None = None,
        ribbon: dict | None = None,
        generators: list[int] | None = None,
        flags: dict | None = None,
    ):
        if len(basis_labels) != dim or len(counit) != dim:
            raise DimensionMismatch("basis/counit length disagrees with dim")
        if len(mult) != dim or any(len(row) != dim for row in mult):
            raise DimensionMismatch("mult tensor must be dim x dim")
        if len(comult) != dim:
            raise DimensionMismatch("comult tensor must have dim entries")
        if antipode.nrows != dim or antipode.ncols != dim:
            raise DimensionMismatch("antipode must be dim x dim")
        if generators is not None and any(not 0 <= g < dim for g in generators):
            raise DimensionMismatch("generator indices must lie in 0..dim-1")
        self.name = name
        self.field = field
        self.dim = dim
        self.basis_labels = list(basis_labels)
        self.mult = mult
        self.unit = self.element(unit)
        self.comult = comult
        self.counit = [field.normalize(v) for v in counit]
        self.antipode = antipode
        self.r_matrix = r_matrix
        self.ribbon = self.element(ribbon) if ribbon is not None else None
        self.generators = list(generators) if generators is not None else None
        self.flags = dict(flags) if flags else {}
        self._cache: dict = {}

    # -- element arithmetic --------------------------------------------------

    def element(self, x: dict) -> dict:
        """x with its zero coefficients dropped and the rest normalized, in
        index order; ``DimensionMismatch`` for an index outside 0..dim-1."""
        if any(not 0 <= i < self.dim for i in x):
            raise DimensionMismatch("element indices must lie in 0..dim-1")
        F = self.field
        return {i: F.normalize(x[i]) for i in sorted(x) if not F.is_zero(x[i])}

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

    def counit_of(self, x: dict):
        """eps(x) for a sparse element."""
        F = self.field
        return F.sum(F.mul(c, self.counit[i]) for i, c in x.items())

    def comult_of(self, x: dict) -> dict:
        """Delta(x) for a sparse element, as a sparse tensor keyed by index pairs."""
        return _times_matrix(self.field, x, self.comult)

    def antipode_columns(self) -> list[dict]:
        """S(e_j) for every j: the rows of the antipode's transpose, kept on
        the algebra."""
        if "antipode_columns" not in self._cache:
            self._cache["antipode_columns"] = self.antipode.transpose().rows
        return self._cache["antipode_columns"]

    def antipode_of(self, x: dict) -> dict:
        return _times_matrix(self.field, x, self.antipode_columns())

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

    def t2_pure(self, x: dict, y: dict) -> dict:
        """x x y in H x H for sparse elements."""
        mul = self.field.mul
        return {(i, j): mul(a, b) for i, a in x.items() for j, b in y.items()}

    def t2_unit(self) -> dict:
        return self.t2_pure(self.unit, self.unit)

    def apply_leg(self, t: dict, leg: int, images: list[dict]) -> dict:
        """(id x ... x f x ... x id)(t): the linear map f: e_i -> images[i]
        on one leg of a sparse tensor keyed by index tuples.

        Each images[i] is sparse and keyed by the tuple that replaces the
        leg's index: () for a scalar (the counit), (k,) for an element (the
        antipode), (p, q) for a tensor (the coproduct, ``comult`` itself).
        """
        F = self.field
        add, mul = F.add, F.mul
        out: dict = {}
        for key, c in t.items():
            head, tail = key[:leg], key[leg + 1:]
            for img, m in images[key[leg]].items():
                k = head + img + tail
                p = mul(c, m)
                out[k] = add(out[k], p) if k in out else p
        return {k: v for k, v in out.items() if not F.is_zero(v)}

    def leg_images(self) -> tuple[list[dict], list[dict]]:
        """The counit and the antipode as ``apply_leg`` images."""
        F = self.field
        eps = [{(): c} if not F.is_zero(c) else {} for c in self.counit]
        s = [{(k,): c for k, c in col.items()} for col in self.antipode_columns()]
        return eps, s

    def t2_multiply(self, t: dict) -> dict:
        """m(t) in H for a sparse tensor t of H x H."""
        mult = self.mult
        return _times_matrix(self.field, t, {(i, j): mult[i][j] for i, j in t})

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

    def right_mult_of(self, x: dict) -> Matrix:
        terms = [(c, self.right_mult_matrix(i)) for i, c in x.items()]
        return linear_combination(self.field, self.dim, self.dim, terms)

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

    def integrals(self) -> tuple[dict, dict]:
        """Bases (single sparse elements) of the left and right integral
        spaces."""
        if "integrals" in self._cache:
            return self._cache["integrals"]
        F = self.field
        n, ident = self.dim, Matrix.identity(F, self.dim)

        def shifted(mats):  # M_i - eps(e_i) I for each generator e_i
            return [linear_combination(F, n, n, [(F.one, mats(i)), (F.neg(self.counit[i]), ident)])
                    for i in self.generating_indices()]

        left = simultaneous_kernel(shifted(self.left_mult_matrix)).columns
        right = simultaneous_kernel(shifted(self.right_mult_matrix)).columns
        if len(left) != 1 or len(right) != 1:
            raise IntegralSpaceNotOneDimensional(
                f"{self.name}: left dim {len(left)}, right dim {len(right)}"
            )
        self._cache["integrals"] = (self.element(left[0]), self.element(right[0]))
        return self._cache["integrals"]

    def is_unimodular(self) -> bool:
        left, right = self.integrals()
        F = self.field
        # both are single nonzero elements; compare up to scalar
        i0 = next(iter(left))
        if i0 not in right:
            return False
        ratio = F.div(right[i0], left[i0])
        return self.sparse_eq({i: F.mul(ratio, a) for i, a in left.items()}, right)

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

    def element_minpoly(self, x: dict) -> list:
        """Monic minimal polynomial of x in H, low degree first.

        Read off the powers 1, x, x^2, ... in H, with no matrix built; the
        regular representation is faithful, so this is also the minimal
        polynomial of left multiplication by x.
        """
        powers = accumulate(repeat(x), self.product, initial=self.unit)
        return _sequence_annihilator(self.field, self.dim, powers)

    def ribbon_order(self) -> OrderCertificate:
        """Order of the ribbon element v, kept on the algebra, from its
        minimal polynomial in H (``element_minpoly``), independently of any
        twist matrix."""
        if self.ribbon is None:
            raise MissingRibbon(self.name)
        if "ribbon_order" not in self._cache:
            self._cache["ribbon_order"] = minpoly_order(self.field, self.element_minpoly(self.ribbon))
        return self._cache["ribbon_order"]

    def span_closure_dim(self, indices: list[int]) -> int:
        """Dimension of the unital subalgebra generated by the given basis elements.

        That subalgebra is the span of the words in the generators, and the
        word s_1 s_2 ... s_k is s_1 (s_2 (... (s_k 1))), so it is the least
        subspace holding 1 and closed under y -> s y for each generator s:
        left multiplications by the generators suffice.
        """
        red = _RowReducer(self.field)
        red.add(self.unit)
        gens = [{i: self.field.one} for i in indices]
        frontier = [self.unit]
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

    def _first_failing(self, holds) -> str | None:
        """The label of the first basis element e_i with ``holds(i)`` false,
        or None: the witness of every axiom checked on each basis element."""
        return next((self.basis_labels[i] for i in range(self.dim) if not holds(i)), None)

    def validate(self) -> StructureReport:
        """Check every axiom on the structure constants; nothing is sampled.

        Linear axioms are checked on every basis element.  Associativity is
        checked on the triples (e_i, e_j, e_k) and the bialgebra axiom on the
        pairs (e_i, e_j) with e_i a generator (``generating_indices``: every
        basis element when the algebra declares none).  That is complete
        once ``generators-span`` holds: the a with (ax)y = a(xy) for all x, y
        include 1 and, with a, every g a for a generator g, as
        ((ga)x)y = g((ax)y) = g(a(xy)) = (ga)(xy); so they span the algebra.
        With associativity, the same closure makes Delta and eps
        multiplicative.  Every constraint system is built on the same
        generators.

        Associativity is checked one structure-constant row at a time: for
        each (i, j), both sides of (e_i e_j) e_k = e_i (e_j e_k) are built for
        every k at once and compared once.  The triples are the same, in the
        same order, and on a mismatch the witness is the least failing k:
        the triple a per-triple loop would report first.
        """
        F = self.field
        add, mul = F.add, F.mul
        report = StructureReport(algebra=self.name)
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
        unit = self.unit

        # unitality
        bad = self._first_failing(lambda i: self.sparse_eq(self.product(unit, e[i]), e[i])
                                  and self.sparse_eq(self.product(e[i], unit), e[i]))
        record("unitality", bad is None, bad and f"unit fails on {bad}")

        # associativity, keyed by k * n + t for the coefficient of e_t:
        # (e_i e_j) e_k = sum_m mult[i][j][m] mult[m][k]  and
        # e_i (e_j e_k) = sum_m mult[j][k][m] mult[i][m], for every k at once
        n, mult = self.dim, self.mult
        row_of = [[(k * n + t, c) for k, mk in enumerate(mult[m]) for t, c in mk.items()]
                  for m in range(n)]
        bad = None
        for i in gens:
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
        comult, leg = self.comult, self.apply_leg
        eps_img, s_img = self.leg_images()
        bad = self._first_failing(lambda i: self.sparse_eq(leg(comult[i], 0, comult), leg(comult[i], 1, comult)))
        record("coassociativity", bad is None, bad and f"Delta fails on {bad}")

        bad = self._first_failing(lambda i: all(self.sparse_eq(leg(comult[i], side, eps_img), {(i,): F.one})
                                                for side in (0, 1)))
        record("counitality", bad is None, bad and f"counit fails on {bad}")

        # bialgebra: Delta and counit are algebra maps
        bad = None
        if not self.sparse_eq(self.comult_of(unit), self.t2_unit()):
            bad = "1"
        if bad is None and not F.eq(self.counit_of(unit), F.one):
            bad = "1 (counit)"
        if bad is None:
            for i in gens:
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

        # antipode axioms (linear: all basis elements): m(S x id)Delta and
        # m(id x S)Delta are eps(e_i) 1
        def antipodal(i):
            target = {t: mul(self.counit[i], u) for t, u in unit.items()}
            return all(self.sparse_eq(self.t2_multiply(leg(comult[i], side, s_img)), target) for side in (0, 1))

        bad = self._first_failing(antipodal)
        record("antipode", bad is None, bad and f"antipode axiom fails on {bad}")

        if self.r_matrix is not None:
            self._validate_quasitriangular(record, eps_img, s_img)
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

    def _validate_quasitriangular(self, record, eps_img: list[dict], s_img: list[dict]):
        F = self.field
        add, mul = F.add, F.mul
        r, leg, comult = self.r_matrix, self.apply_leg, self.comult

        # (eps x id)R = 1 = (id x eps)R
        unit = {(i,): c for i, c in self.unit.items()}
        record("r-counit", self.sparse_eq(leg(r, 0, eps_img), unit) and self.sparse_eq(leg(r, 1, eps_img), unit),
               "counit legs of R are not 1")

        # invertibility: (S x id)R is the two-sided inverse of R
        sr = leg(r, 0, s_img)
        inv_ok = self.sparse_eq(self.t2_mult(r, sr), self.t2_unit()) and self.sparse_eq(
            self.t2_mult(sr, r), self.t2_unit()
        )
        record("r-invertible", inv_ok, "(S x id)R is not inverse to R")

        # intertwining: Delta^op(x) R = R Delta(x) on all basis elements
        bad = self._first_failing(lambda i: self.sparse_eq(self.t2_mult(self.t2_flip(comult[i]), r),
                                                           self.t2_mult(r, comult[i])))
        record("r-intertwines-coproduct", bad is None, bad and f"fails on {bad}")

        # hexagons: (Delta x id)R = R13 R23 and (id x Delta)R = R13 R12
        lhs = leg(r, 0, comult)
        rhs: dict = {}
        for (a, b), c in r.items():
            for (a2, b2), c2 in r.items():
                cc = mul(c, c2)
                for t, m in self.mult[b][b2].items():
                    key, v = (a, a2, t), mul(cc, m)
                    rhs[key] = add(rhs[key], v) if key in rhs else v
        record("r-hexagon-left", self.sparse_eq(lhs, rhs), "(Delta x id)R != R13 R23")

        lhs = leg(r, 1, comult)
        rhs = {}
        for (a, b), c in r.items():  # R13
            for (a2, b2), c2 in r.items():  # R12
                cc = mul(c, c2)
                for t, m in self.mult[a][a2].items():
                    key, v = (t, b2, b), mul(cc, m)
                    rhs[key] = add(rhs[key], v) if key in rhs else v
        record("r-hexagon-right", self.sparse_eq(lhs, rhs), "(id x Delta)R != R13 R12")

        # consequence: (S x S)R = R
        ssr = leg(sr, 1, s_img)
        record("r-antipode-consequence", self.sparse_eq(ssr, r), "(S x S)R != R")

    def _validate_ribbon(self, record):
        for name, passed, witness in self.ribbon_battery(self.ribbon):
            record(name, passed, witness)

    def ribbon_battery(self, v: dict):
        """The ribbon axioms for a candidate v, lazily, as (name, passed, witness).

        In order: v is central, invertible, eps(v) = 1, S(v) = v and, when
        the algebra has an R-matrix, Delta(v) = (R21 R)(v x v).  Nothing
        after a failed invertibility check is yielded.
        """
        F = self.field
        bad = self._first_failing(lambda i: self.sparse_eq(self.product(v, {i: F.one}), self.product({i: F.one}, v)))
        yield "ribbon-central", bad is None, bad and f"v does not commute with {bad}"

        try:
            self.element_inverse(v)
        except LinAlgError:
            yield "ribbon-invertible", False, "no multiplicative inverse"
            return
        yield "ribbon-invertible", True, None

        yield "ribbon-counit", F.eq(self.counit_of(v), F.one), "eps(v) != 1"
        yield "ribbon-antipode", self.sparse_eq(self.antipode_of(v), v), "S(v) != v"

        if self.r_matrix is not None:
            q = self.monodromy_element()
            lhs = self.comult_of(v)
            rhs = self.t2_mult(q, self.t2_pure(v, v))
            yield "ribbon-coproduct", self.sparse_eq(lhs, rhs), "Delta(v) != (R21 R)(v x v)"

    def element_inverse(self, x: dict) -> dict:
        """The inverse of x, read off its minimal polynomial m in H.

        m(x) = m_0 + m_1 x + ... + x^d = 0 gives
        x^-1 = -m_0^-1 (m_1 + m_2 x + ... + x^(d-1)), evaluated by Horner on x.
        ``NotInvertible`` when m_0 = 0: then x is a zero divisor.
        """
        F = self.field
        m = self.element_minpoly(x)
        if F.is_zero(m[0]):
            raise NotInvertible(f"{self.name}: element is a zero divisor (minimal polynomial has root 0)")
        y = self.unit
        for c in reversed(m[1:-1]):
            y = self.product(y, x)
            for i, e in self.unit.items():
                y[i] = F.add(y.get(i, F.zero), F.mul(c, e))
        s = F.neg(F.inv(m[0]))
        return self.element({i: F.mul(s, c) for i, c in y.items()})

    def drinfeld_element(self) -> dict:
        """u = sum S(b_i) a_i for R = sum a_i x b_i."""
        if self.r_matrix is None:
            raise MissingRMatrix(self.name)
        s_img = self.leg_images()[1]
        return self.element(self.t2_multiply(self.apply_leg(self.t2_flip(self.r_matrix), 0, s_img)))


# ---------------------------------------------------------------------------
# Drinfeld double
# ---------------------------------------------------------------------------


def drinfeld_double(h: HopfData) -> HopfData:
    """The Drinfeld double D(H) on basis H* x H with the canonical R-matrix.

    The dual-side multiplication is plain convolution and the dual-side
    coproduct is reversed; both choices are forced by requiring the canonical
    R = sum_i (eps x e_i) x (e^i x 1) to satisfy the quasitriangularity
    axioms (checked by validate() on every constructed double).

    The product is read off one table, the cross relation
    (eps x b)(f x 1) = sum (b_1 ⇀ f ↼ S^-1(b_3)) x b_2, kept for every pair
    of basis elements b = e_b, f = e^c:
    (e^a x e_b)(e^c x e_d) = (e^a x 1) (eps x e_b)(e^c x 1) (eps x e_d),
    with e^a e^t from the coproduct of H and e_q e_d from its product.

    The antipode is its formula (Kassel, Quantum Groups, ch. IX): f x a is
    (f x 1)(eps x a), and the antipode of the dual side H*^cop is
    f -> f o S^-1, so S(e^a x e_b) = (eps x S(e_b)) (e^a o S^-1 x 1), a
    product in the double itself.  It is certified where every antipode is:
    ``validate`` checks m(S x id)Delta = m(id x S)Delta = eta eps on every
    basis element, and the CLI validates every algebra before it runs.

    The declared generators are ``_double_generators`` when their
    ``span_closure_dim`` is dim D(H), else None (every basis element).
    Every constraint system on the double is built on them, one matrix per
    generator.
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

    # cross[b][c] = (eps x e_b)(e^c x 1), keyed (t, q) for the coefficient of
    # e^t x e_q, over Delta^2(e_b) = sum w e_p x e_q x e_r;
    # e_p ⇀ e^c ↼ S^{-1}(e_r) = sum_t e^c(S^{-1}(e_r) e_t e_p) e^t
    sinv_col = s_inv.transpose().rows  # sinv_col[r] = S^{-1}(e_r)
    add, mul = F.add, F.mul
    cross: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for b in range(n):
        for (p, q, r), w in h.apply_leg(h.comult[b], 0, h.comult).items():
            for t in range(n):
                for c, val in h.product(sinv_col[r], h.mult[t][p]).items():
                    row, key, v = cross[b][c], (t, q), mul(w, val)
                    row[key] = add(row[key], v) if key in row else v

    def product(a: int, b: int, c: int, d: int) -> dict:
        # (e^a x e_b)(e^c x e_d) = (e^a x 1) cross[b][c] (eps x e_d)
        out: dict = {}
        for (t, q), w in cross[b][c].items():
            for s, c_s in dual_mult.get((a, t), {}).items():
                ws = mul(w, c_s)
                for y, c_y in h.mult[q][d].items():
                    key, v = idx(s, y), mul(ws, c_y)
                    out[key] = add(out[key], v) if key in out else v
        return {k: v for k, v in out.items() if not F.is_zero(v)}

    mult = [[product(a, b, c, d) for c in range(n) for d in range(n)] for a in range(n) for b in range(n)]

    # coproduct with reversed dual side:
    # Delta(e^a x e_b) = sum m_{jk}^a d_b^{pq} (e^k x e_p) x (e^j x e_q);
    # (j, k, p, q) -> (k n + p, j n + q) is injective, so no two terms meet
    comult = [{(idx(k, p), idx(j, q)): mul(c_m, c_d)
               for (j, k, c_m) in mult_rev[a] for (p, q), c_d in h.comult[b].items()}
              for a in range(n) for b in range(n)]

    counit = [mul(h.unit.get(a, F.zero), h.counit[b]) for a in range(n) for b in range(n)]
    unit = {idx(a, b): mul(h.counit[a], u) for a in range(n) for b, u in h.unit.items()}

    # canonical R = sum_i (eps x e_i) x (e^i x 1); the keys are distinct
    r_matrix = {(idx(a, i), idx(i, b)): mul(h.counit[a], ub)
                for i in range(n) for a in range(n) if not F.is_zero(h.counit[a])
                for b, ub in h.unit.items()}

    double = HopfData(
        name=f"D({h.name})",
        field=F,
        dim=dim,
        basis_labels=labels,
        mult=mult,
        unit=unit,
        comult=comult,
        counit=counit,
        antipode=Matrix(F, dim, dim),  # replaced below, once the product exists
        r_matrix=r_matrix,
        flags={"double_of": h.name},
    )
    # S(e^a x e_b) = (eps x S(e_b)) (e^a o S^-1 x 1); e^a o S^-1 is row a of S^-1
    eps_times = [{idx(c, t): mul(ec, st) for c, ec in enumerate(h.counit) if not F.is_zero(ec)
                  for t, st in col.items()} for col in h.antipode_columns()]
    times_one = [{idx(c, u): mul(fc, uu) for c, fc in s_inv.rows[a].items() for u, uu in h.unit.items()}
                 for a in range(n)]
    columns = [double.product(eps_times[b], times_one[a]) for a in range(n) for b in range(n)]
    double.antipode = Matrix(F, dim, dim, columns).transpose()
    gens = _double_generators(h, idx)
    double.generators = gens if double.span_closure_dim(gens) == dim else None
    return double


def _double_generators(h: HopfData, idx) -> list[int]:
    """{e^a x g : e^a in the dual basis, g a generator of H}, sorted indices.

    It spans D(k[G]): there eps = sum_a e^a, so sum_a e^a x g = eps x g is g
    itself, g^-1 is a word in the generators of the finite group, and
    (e^a x g)(eps x g^-1) = e^a x 1; every basis element is
    e^a x b = (e^a x 1)(eps x b).  For other H that argument does not
    apply, so ``drinfeld_double`` certifies the set with
    ``span_closure_dim`` and declares no generators when it does not span.
    """
    return sorted({idx(a, g) for g in h.generating_indices() for a in range(h.dim)})
