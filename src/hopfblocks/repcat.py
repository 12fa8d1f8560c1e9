"""The module category of a Hopf algebra: module constructions, intertwiner
spaces, the twist from the ribbon data, and the paper's Johnson-kernel and
Torelli criteria on the end.

Intertwiner spaces are solved one way only: as the stacked kernel of the
intertwining constraints over the algebra's generating set, on the
row-major entries of a map.  The basis is the sparse ``KernelBasis``, and
a map's coordinates are its entries at the free columns.  No command
solves a hom space: block spaces and twist operators live in ``blocks``,
which also owns the one size limit (the genus cap), and ``hom_space`` is
the independent route that the test oracles use.

The adjoint and regular modules are kept on the algebra, and a module keeps
its tensor powers and its twist, so their action matrices are built once
per algebra.  A tensor module acts by an element x through Delta(x), one
Kronecker sum, without building the action of every basis element in the
support of x.

Every order or triviality test on a power A^(xk) of the end, or on A x H,
reads pi, y -> (entries of rho_A(y) at the probes), and builds no matrix
there.  The probes are the pivot columns of the flattened rho_A(e_i), so pi
is injective on im rho_A; H acts faithfully on itself and needs no probe.
"""

from __future__ import annotations

from itertools import accumulate, repeat

from .hopf import HopfData, MissingRibbon
from .linalg import (
    KernelBasis,
    Matrix,
    OrderCertificate,
    _RowReducer,
    _sequence_annihilator,
    kron_sum,
    linear_combination,
    minpoly_order,
    simultaneous_kernel,
)


class RepcatError(Exception):
    pass


class AlgebraMismatch(RepcatError):
    pass


class Module:
    """A finite-dimensional left module given by one action matrix per basis index.

    Action matrices are built on first use and kept, and so are the module's
    tensor powers (``tensor_power``) and its twist (``twist``).
    """

    def __init__(self, algebra: HopfData, dim: int, name: str, action_builder, *,
                 is_regular: bool = False, tensor_factors: tuple | None = None):
        self.algebra = algebra
        self.dim = dim
        self.name = name
        self._builder = action_builder
        self._action: dict[int, Matrix] = {}
        self.is_regular = is_regular
        self.tensor_factors = tensor_factors
        self._powers: list[Module] = [self]  # _powers[k - 1] is the k-th tensor power
        self._twist: Matrix | None = None

    def act(self, i: int) -> Matrix:
        if i not in self._action:
            self._action[i] = self._builder(i)
        return self._action[i]

    def act_element(self, x: dict) -> Matrix:
        """rho(x) for a sparse element x; on M x N, sum c rho_M(a) x rho_N(b)
        over the terms c a x b of Delta(x)."""
        h = self.algebra
        if self.tensor_factors:
            return _action_of_tensor_element(*self.tensor_factors, h.comult_of(x))
        terms = [(c, self.act(i)) for i, c in x.items()]
        return linear_combination(h.field, self.dim, self.dim, terms)

    def __repr__(self):
        return f"Module({self.name}, dim={self.dim} over {self.algebra.name})"


def _same_algebra(*modules: Module):
    h = modules[0].algebra
    for m in modules[1:]:
        if m.algebra is not h:
            raise AlgebraMismatch(f"{m.name} is not over {h.name}")
    return h


def trivial_module(h: HopfData) -> Module:
    F = h.field

    def build(i):
        m = Matrix(F, 1, 1)
        if not F.is_zero(h.counit[i]):
            m.rows[0][0] = h.counit[i]
        return m

    return Module(h, 1, "trivial", build)


def regular_module(h: HopfData) -> Module:
    """The algebra on itself by left multiplication; one instance per
    algebra, kept in ``HopfData._cache``."""
    if "regular" not in h._cache:
        h._cache["regular"] = Module(h, h.dim, "regular", h.left_mult_matrix, is_regular=True)
    return h._cache["regular"]


def tensor_module(m: Module, n: Module) -> Module:
    h = _same_algebra(m, n)

    def build(i):
        return _action_of_tensor_element(m, n, h.comult[i])

    return Module(h, m.dim * n.dim, f"({m.name}@{n.name})", build, tensor_factors=(m, n))


def adjoint_module(h: HopfData) -> Module:
    """The algebra on itself with a.x = sum a1 x S(a2): the canonical end.

    One instance per algebra, kept in ``HopfData._cache``, so each adjoint
    action matrix (and each matrix of its tensor powers) is built once.
    """
    if "adjoint" in h._cache:
        return h._cache["adjoint"]
    F = h.field
    s_col = h.antipode_columns()
    right_s: dict[int, Matrix] = {}

    def right_antipode(b: int) -> Matrix:
        if b not in right_s:
            right_s[b] = h.right_mult_of(s_col[b])
        return right_s[b]

    def build(i):
        terms = [(c, h.left_mult_matrix(a).mul(right_antipode(b))) for (a, b), c in h.comult[i].items()]
        return linear_combination(F, h.dim, h.dim, terms)

    h._cache["adjoint"] = Module(h, h.dim, "adjoint", build)
    return h._cache["adjoint"]


def tensor_power(m: Module, g: int) -> Module:
    """Left-associated g-th tensor power; power 0 is the trivial module.

    Powers are kept on m, and power k is built on power k - 1, so every
    power shares the action matrices of the lower ones.
    """
    if g == 0:
        return trivial_module(m.algebra)
    powers = m._powers
    while len(powers) < g:
        powers.append(tensor_module(powers[-1], m))
    return powers[g - 1]


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------


class HomSpace:
    """A basis of the space of intertwiners source -> target.

    The basis is the ``KernelBasis`` of the intertwining constraints on the
    row-major entries of a map (unknown r * source.dim + c is the entry
    (r, c)); a map's coordinates are its entries at the free columns.
    """

    def __init__(self, source: Module, target: Module, kernel: KernelBasis):
        F = source.algebra.field
        self.source = source
        self.target = target
        self.kernel = kernel
        self.basis = []
        for col in kernel.columns:
            f = Matrix(F, target.dim, source.dim)
            for idx, v in col.items():
                r, c = divmod(idx, source.dim)
                f.rows[r][c] = v
            self.basis.append(f)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, f: Matrix) -> dict:
        """Coordinates of an intertwiner f in this basis, sparse (basis index
        -> nonzero value); f must lie in the span."""
        n = self.source.dim
        return self.kernel.coordinates({r * n + c: v for r, row in enumerate(f.rows) for c, v in row.items()})

    def combination(self, coords: dict) -> Matrix:
        """The map sum_k coords[k] * basis[k]."""
        terms = [(c, self.basis[k]) for k, c in coords.items()]
        return linear_combination(self.source.algebra.field, self.target.dim, self.source.dim, terms)

    def __repr__(self):
        return f"HomSpace({self.source.name} -> {self.target.name}, dim={self.dim})"


def is_intertwiner(f: Matrix, source: Module, target: Module) -> bool:
    h = source.algebra
    for g in h.generating_indices():
        if f.mul(source.act(g)) != target.act(g).mul(f):
            return False
    return True


def hom_space(source: Module, target: Module) -> HomSpace:
    """Hom_H(source, target) as the kernel of f rho_S(g) = rho_T(g) f over the
    generators g, on source.dim * target.dim unknowns.  No size limit is
    applied here: the callers are test oracles on small modules."""
    h = _same_algebra(source, target)
    F = h.field
    unknowns = source.dim * target.dim
    ident_s = Matrix.identity(F, source.dim)
    ident_t = Matrix.identity(F, target.dim)
    minus = F.neg(F.one)
    mats = [
        kron_sum(F, unknowns, unknowns,
                 [(F.one, target.act(g), ident_s), (minus, ident_t, source.act(g).transpose())])
        for g in h.generating_indices()
    ]
    return HomSpace(source, target, simultaneous_kernel(mats))


# ---------------------------------------------------------------------------
# The twist, and predicates on powers of the end read at the probes
# ---------------------------------------------------------------------------


def _action_of_tensor_element(m: Module, n: Module, t: dict) -> Matrix:
    """(rho_M x rho_N)(t) for a sparse element t of H x H."""
    terms = [(c, m.act(i), n.act(j)) for (i, j), c in t.items()]
    return kron_sum(m.algebra.field, m.dim * n.dim, m.dim * n.dim, terms)


def twist(m: Module) -> Matrix:
    """The ribbon twist on M: the action of the ribbon element, kept on M."""
    h = m.algebra
    if h.ribbon is None:
        raise MissingRibbon(h.name)
    if m._twist is None:
        m._twist = m.act_element(h.ribbon)
    return m._twist


def _probes(h: HopfData) -> list[dict]:
    """pi(e_i), keyed (s,), for every basis index i, kept in ``HopfData._cache``;
    a reduced row is 1 at its own pivot and 0 at the others: pi is injective on im rho_A."""
    if "probes" not in h._cache:
        flat = [{r * h.dim + c: v for r, row in enumerate(adjoint_module(h).act(i).rows) for c, v in row.items()}
                for i in range(h.dim)]
        red = _RowReducer(h.field)
        for row in flat:
            red.add(row)
        h._cache["probes"] = [{(s,): row[p] for s, p in enumerate(sorted(red.pivots)) if p in row} for row in flat]
    return h._cache["probes"]


def _on_probes(h: HopfData, t: dict, legs) -> dict:
    """pi on each of the given legs of the sparse tensor t, id on the rest."""
    for leg in legs:
        t = h.apply_leg(t, leg, _probes(h))
    return t


def power_image(h: HopfData, y: dict, k: int) -> dict:
    """pi^(xk)(Delta^(k) y), its entry at probes s_1..s_k keyed sum s_l dim^(k-l)
    (s < rank rho_A <= dim H); eps(y) at key 0 for k = 0."""
    if k == 0:
        return {0: h.counit_of(y)}
    t = {(i,): c for i, c in y.items()}
    for leg in range(k - 1):  # split the last leg and probe the new one before it
        t = _on_probes(h, h.apply_leg(t, leg, h.comult), [leg])
    t = _on_probes(h, t, [k - 1])
    return {sum(s * h.dim ** (k - 1 - l) for l, s in enumerate(key)): c for key, c in t.items()}


def power_twist_order(h: HopfData, k: int) -> OrderCertificate:
    """Order of the twist on A^(xk), kept in ``HopfData._cache``: its minimal
    polynomial is the first dependence among the images of 1, v, v^2, ..."""
    if h.ribbon is None:
        raise MissingRibbon(h.name)
    if ("twist_order", k) not in h._cache:
        images = (power_image(h, y, k) for y in accumulate(repeat(h.ribbon), h.product, initial=h.unit))
        h._cache["twist_order", k] = minpoly_order(h.field, _sequence_annihilator(h.field, h.dim ** k, images))
    return h._cache["twist_order", k]


def johnson_criterion(h: HopfData) -> tuple[bool, bool]:
    """The two sides of the paper's Johnson-kernel criterion: whether the
    end's twist and the end's self double braiding are trivial.  Separating
    twists act trivially iff both are."""
    return (power_twist_order(h, 1).gl_order.n == 1,
            h.sparse_eq(_on_probes(h, h.monodromy_element(), (0, 1)), _on_probes(h, h.t2_unit(), (0, 1))))


def torelli_criterion(h: HopfData) -> bool:
    """The paper's Torelli criterion: whether the end is transparent (in the
    Mueger center)."""
    return h.sparse_eq(_on_probes(h, h.monodromy_element(), (0,)), _on_probes(h, h.t2_unit(), (0,)))
