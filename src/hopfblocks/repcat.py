"""The module category of a Hopf algebra: module constructions, intertwiner
spaces, braiding and twist from the quasitriangular/ribbon data, and Mueger
centrality.

Intertwiner spaces are solved one way only: as the stacked kernel of the
intertwining constraints over the algebra's generating set, on the
row-major entries of a map.  The basis is the sparse ``KernelBasis``, and
a map's coordinates are its entries at the free columns.  No command
solves a hom space: block spaces and twist operators live in ``blocks``,
and ``hom_space`` is the independent route that the test oracles use.

The adjoint and regular modules are kept on the algebra, and a module keeps
its tensor powers and its twist, so their action matrices are built once
per algebra.  A tensor module acts by an element x through Delta(x), one
Kronecker sum, without building the action of every basis element in the
support of x.
"""

from __future__ import annotations

from .fields import Field
from .hopf import HopfData, MissingRMatrix, MissingRibbon
from .linalg import (
    KernelBasis,
    Matrix,
    kron_sum,
    linear_combination,
    simultaneous_kernel,
)


class RepcatError(Exception):
    pass


class AlgebraMismatch(RepcatError):
    pass


class HomSpaceTooLarge(RepcatError):
    pass


GENERIC_HOM_UNKNOWN_LIMIT = 6000


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

    def act_element(self, x: list) -> Matrix:
        """rho(x); on M x N, sum c rho_M(a) x rho_N(b) over the terms c a x b
        of Delta(x)."""
        h = self.algebra
        F = h.field
        if self.tensor_factors:
            return _action_of_tensor_element(*self.tensor_factors, h.comult_of(h.sparse(x)))
        terms = [(c, self.act(i)) for i, c in enumerate(x) if not F.is_zero(c)]
        return linear_combination(F, self.dim, self.dim, terms)

    def action_respects_algebra(self) -> bool:
        """rho(g) rho(e_j) = rho(g e_j) on the generating set, and rho(1) = I."""
        h = self.algebra
        if not self.act_element(h.unit).is_identity():
            return False
        for g in h.generating_indices():
            rg = self.act(g)
            for j in range(h.dim):
                prod_vec = h.multiply(h.basis_vector(g), h.basis_vector(j))
                if rg.mul(self.act(j)) != self.act_element(prod_vec):
                    return False
        return True

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


def dual_module(m: Module) -> Module:
    h = m.algebra

    def build(i):
        s_ei = h.antipode_of(h.basis_vector(i))
        return m.act_element(s_ei).transpose()

    return Module(h, m.dim, f"dual({m.name})", build)


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
    right_s: dict[int, Matrix] = {}

    def right_antipode(b: int) -> Matrix:
        if b not in right_s:
            right_s[b] = h.right_mult_of(h.antipode_of(h.basis_vector(b)))
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


def module_from_action_table(h: HopfData, name: str, dim: int, table: dict[int, list[list]]) -> Module:
    F = h.field

    def build(i):
        rows = table[i]
        return Matrix.from_dense(F, [[F.parse(v) if not isinstance(v, (int,)) else F.from_int(v) for v in row] for row in rows])

    return Module(h, dim, name, build)


def flagged_simple_modules(h: HopfData) -> list[Module]:
    out = []
    for entry in h.flags.get("simple_modules", []):
        out.append(module_from_action_table(h, entry["name"], entry["dim"], entry["action"]))
    return out


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
        self._free_entries = [divmod(idx, source.dim) for idx in kernel.free_cols]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, f: Matrix) -> dict:
        """Coordinates of an intertwiner f in this basis, sparse (basis index
        -> nonzero value); f must lie in the span."""
        F = self.source.algebra.field
        out = {}
        for k, (r, c) in enumerate(self._free_entries):
            v = f.rows[r].get(c)
            if v is not None and not F.is_zero(v):
                out[k] = v
        return out

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
    generators g; raises ``HomSpaceTooLarge`` above
    ``GENERIC_HOM_UNKNOWN_LIMIT`` unknowns."""
    h = _same_algebra(source, target)
    F = h.field
    unknowns = source.dim * target.dim
    if unknowns > GENERIC_HOM_UNKNOWN_LIMIT:
        raise HomSpaceTooLarge(f"{unknowns} unknowns for Hom({source.name}, {target.name})")
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
# Braiding, twist, Mueger center
# ---------------------------------------------------------------------------


def _flip_matrix(F: Field, m: int, n: int) -> Matrix:
    """The map M x N -> N x M sending e_i x f_j to f_j x e_i."""
    out = Matrix(F, m * n, m * n)
    for i in range(m):
        for j in range(n):
            out.rows[j * m + i][i * n + j] = F.one
    return out


def _action_of_tensor_element(m: Module, n: Module, t: dict) -> Matrix:
    """(rho_M x rho_N)(t) for a sparse element t of H x H."""
    terms = [(c, m.act(i), n.act(j)) for (i, j), c in t.items()]
    return kron_sum(m.algebra.field, m.dim * n.dim, m.dim * n.dim, terms)


def braiding(m: Module, n: Module) -> Matrix:
    """c_{M,N}: M x N -> N x M, the flip composed with the R-matrix action."""
    h = _same_algebra(m, n)
    if h.r_matrix is None:
        raise MissingRMatrix(h.name)
    r_action = _action_of_tensor_element(m, n, h.r_matrix)
    return _flip_matrix(h.field, m.dim, n.dim).mul(r_action)


def monodromy(m: Module, n: Module) -> Matrix:
    """The double braiding c_{N,M} c_{M,N} as the action of R21 R on M x N."""
    h = _same_algebra(m, n)
    if h.r_matrix is None:
        raise MissingRMatrix(h.name)
    return _action_of_tensor_element(m, n, h.monodromy_element())


def twist(m: Module) -> Matrix:
    """The ribbon twist on M: the action of the ribbon element, kept on M."""
    h = m.algebra
    if h.ribbon is None:
        raise MissingRibbon(h.name)
    if m._twist is None:
        m._twist = m.act_element(h.ribbon)
    return m._twist


def muger_central(m: Module) -> bool:
    """Trivial double braiding with the regular module (a projective generator)."""
    h = m.algebra
    return monodromy(m, regular_module(h)).is_identity()
