"""The module category of a Hopf algebra: module constructions, intertwiner
spaces, braiding and twist from the quasitriangular/ribbon data, Mueger
centrality, and relative centers of bimodules.

Intertwiner spaces are solved as stacked kernels over the algebra's
generating set.  Two free-module fast paths avoid huge dense systems: maps
out of the regular module are classified by the image of the unit, and maps
out of (regular x W) by the free-module untwisting h x w -> h1 x S(h2)w.
Fast-path bases are post-checked to intertwine on the generating set.
"""

from __future__ import annotations

from .fields import Field
from .hopf import HopfData, MissingRMatrix, MissingRibbon
from .linalg import KernelBasis, Matrix, kron_sum, simultaneous_kernel, tensor_product


class RepcatError(Exception):
    pass


class AlgebraMismatch(RepcatError):
    pass


class ActionsDoNotCommute(RepcatError):
    pass


class HomSpaceTooLarge(RepcatError):
    pass


GENERIC_HOM_UNKNOWN_LIMIT = 6000


class Module:
    """A finite-dimensional left module given by one action matrix per basis index."""

    def __init__(self, algebra: HopfData, dim: int, name: str, action_builder, *,
                 is_regular: bool = False, tensor_factors: tuple | None = None):
        self.algebra = algebra
        self.dim = dim
        self.name = name
        self._builder = action_builder
        self._action: dict[int, Matrix] = {}
        self.is_regular = is_regular
        self.tensor_factors = tensor_factors

    def act(self, i: int) -> Matrix:
        if i not in self._action:
            self._action[i] = self._builder(i)
        return self._action[i]

    def act_element(self, x: list) -> Matrix:
        F = self.algebra.field
        out = Matrix(F, self.dim, self.dim)
        for i, c in enumerate(x):
            if not F.is_zero(c):
                out = out.add(self.act(i).scale(c))
        return out

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
    return Module(h, h.dim, "regular", h.left_mult_matrix, is_regular=True)


def dual_module(m: Module) -> Module:
    h = m.algebra

    def build(i):
        s_ei = h.antipode_of(h.basis_vector(i))
        return m.act_element(s_ei).transpose()

    return Module(h, m.dim, f"dual({m.name})", build)


def tensor_module(m: Module, n: Module) -> Module:
    h = _same_algebra(m, n)
    F = h.field

    def build(i):
        terms = [(c, m.act(a), n.act(b)) for (a, b), c in h.comult[i].items()]
        return kron_sum(F, m.dim * n.dim, m.dim * n.dim, terms)

    return Module(h, m.dim * n.dim, f"({m.name}@{n.name})", build, tensor_factors=(m, n))


def adjoint_module(h: HopfData) -> Module:
    """The algebra on itself with a.x = sum a1 x S(a2): the canonical end."""
    F = h.field
    right_s: dict[int, Matrix] = {}

    def build(i):
        out = Matrix(F, h.dim, h.dim)
        for (a, b), c in h.comult[i].items():
            if b not in right_s:
                right_s[b] = h.right_mult_of(h.antipode_of(h.basis_vector(b)))
            out = out.add(h.left_mult_matrix(a).mul(right_s[b]).scale(c))
        return out

    return Module(h, h.dim, "adjoint", build)


def tensor_power(m: Module, g: int) -> Module:
    """Left-associated g-th tensor power; power 0 is the trivial module."""
    if g == 0:
        return trivial_module(m.algebra)
    out = m
    for _ in range(g - 1):
        out = tensor_module(out, m)
    return out


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
    """A basis of the space of intertwiners source -> target."""

    def __init__(self, source: Module, target: Module, basis: list[Matrix],
                 kernel: KernelBasis | None, coords_fn):
        self.source = source
        self.target = target
        self.basis = basis
        self.kernel = kernel
        self._coords_fn = coords_fn

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, f: Matrix) -> list:
        """Coordinates of an intertwiner f in this basis (f must lie in the span)."""
        return self._coords_fn(f)

    def contains_matrix(self, f: Matrix) -> bool:
        F = self.source.algebra.field
        coords = self.coordinates(f)
        acc = Matrix(F, self.target.dim, self.source.dim)
        for c, b in zip(coords, self.basis):
            if not F.is_zero(c):
                acc = acc.add(b.scale(c))
        return acc == f

    def __repr__(self):
        return f"HomSpace({self.source.name} -> {self.target.name}, dim={self.dim})"


def is_intertwiner(f: Matrix, source: Module, target: Module) -> bool:
    h = source.algebra
    for g in h.generating_indices():
        if f.mul(source.act(g)) != target.act(g).mul(f):
            return False
    return True


def hom_space(source: Module, target: Module) -> HomSpace:
    h = _same_algebra(source, target)
    if source.is_regular:
        return _hom_from_regular(source, target)
    if source.tensor_factors and source.tensor_factors[0].is_regular:
        return _hom_from_free(source, target)
    return _hom_generic(source, target)


def _hom_generic(source: Module, target: Module) -> HomSpace:
    h = source.algebra
    F = h.field
    unknowns = source.dim * target.dim
    if unknowns > GENERIC_HOM_UNKNOWN_LIMIT:
        raise HomSpaceTooLarge(
            f"{unknowns} unknowns for Hom({source.name}, {target.name}); "
            "no free-module fast path applies"
        )
    mats = []
    ident_s = Matrix.identity(F, source.dim)
    ident_t = Matrix.identity(F, target.dim)
    for g in h.generating_indices():
        lhs = tensor_product(target.act(g), ident_s)
        rhs = tensor_product(ident_t, source.act(g).transpose())
        mats.append(lhs.sub(rhs))
    ker = simultaneous_kernel(mats)
    basis = []
    for vec in ker.vectors:
        f = Matrix(F, target.dim, source.dim)
        for r in range(target.dim):
            for c in range(source.dim):
                v = vec[r * source.dim + c]
                if not F.is_zero(v):
                    f.rows[r][c] = v
        basis.append(f)

    def coords(f: Matrix) -> list:
        vec = [F.zero] * (target.dim * source.dim)
        for r, row in enumerate(f.rows):
            for c, v in row.items():
                vec[r * source.dim + c] = v
        return [vec[j] for j in ker.free_cols]

    return HomSpace(source, target, basis, ker, coords)


def _hom_from_regular(source: Module, target: Module) -> HomSpace:
    """Hom(H, N) = N via F -> F(1): basis F_n with columns rho_N(e_h) n."""
    h = source.algebra
    F = h.field
    basis = []
    act_cols = [target.act(j) for j in range(h.dim)]
    for nidx in range(target.dim):
        f = Matrix(F, target.dim, source.dim)
        for col in range(h.dim):
            colvec = act_cols[col]
            for r in range(target.dim):
                v = colvec.rows[r].get(nidx)
                if v is not None and not F.is_zero(v):
                    f.rows[r][col] = v
        basis.append(f)
    unit = h.unit

    def coords(f: Matrix) -> list:
        return f.apply_right(unit)

    space = HomSpace(source, target, basis, None, coords)
    _post_check_fast_basis(space)
    return space


def _hom_from_free(source: Module, target: Module) -> HomSpace:
    """Hom(H x W, Y) with diagonal action on the source, via the untwisting
    h x w -> h1 x S(h2) w: basis F_{y,t}(h x w) = w*_t(S(h2) w) rho_Y(h1) y."""
    h = source.algebra
    F = h.field
    reg, w_mod = source.tensor_factors
    wd = w_mod.dim
    s_act: dict[int, Matrix] = {}
    basis = []
    for y in range(target.dim):
        for t in range(wd):
            f = Matrix(F, target.dim, source.dim)
            for hidx in range(h.dim):
                for (h1, h2), c in h.comult[hidx].items():
                    if h2 not in s_act:
                        s_act[h2] = w_mod.act_element(h.antipode_of(h.basis_vector(h2)))
                    srow = s_act[h2].rows[t]
                    if not srow:
                        continue
                    ycol = target.act(h1)
                    for r in range(target.dim):
                        a = ycol.rows[r].get(y)
                        if a is None or F.is_zero(a):
                            continue
                        ca = F.mul(c, a)
                        for widx, sv in srow.items():
                            col = hidx * wd + widx
                            val = F.add(f.rows[r].get(col, F.zero), F.mul(ca, sv))
                            if F.is_zero(val):
                                f.rows[r].pop(col, None)
                            else:
                                f.rows[r][col] = val
            basis.append(f)
    unit = h.unit

    def coords(f: Matrix) -> list:
        # c_{y,t} = (f applied to 1 x e_t)[y]: Delta(1) = 1 x 1 makes the
        # untwisting act trivially at the unit
        images = []
        for t in range(wd):
            vec = [F.zero] * source.dim
            for hidx, uv in enumerate(unit):
                if not F.is_zero(uv):
                    vec[hidx * wd + t] = uv
            images.append(f.apply_right(vec))
        return [images[t][y] for y in range(target.dim) for t in range(wd)]

    space = HomSpace(source, target, basis, None, coords)
    _post_check_fast_basis(space)
    return space


def _post_check_fast_basis(space: HomSpace, sample: int = 2) -> None:
    for f in space.basis[:sample] + space.basis[-sample:]:
        if not is_intertwiner(f, space.source, space.target):
            raise RepcatError(
                f"fast-path basis for Hom({space.source.name}, {space.target.name}) "
                "failed the intertwiner post-check"
            )


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
    """The ribbon twist on M: the action of the ribbon element."""
    h = m.algebra
    if h.ribbon is None:
        raise MissingRibbon(h.name)
    return m.act_element(h.ribbon)


def muger_central(m: Module) -> bool:
    """Trivial double braiding with the regular module (a projective generator)."""
    h = m.algebra
    return monodromy(m, regular_module(h)).is_identity()


def evaluation_full_rank(hom: HomSpace) -> bool:
    """The assembled evaluation Hom(M,N) x M -> N has rank dim Hom * dim M."""
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


# ---------------------------------------------------------------------------
# Bimodules and relative centers
# ---------------------------------------------------------------------------


class Bimodule:
    """Commuting left/right actions of an algebra presented by generators."""

    def __init__(self, field: Field, dim: int, left: dict, right: dict, name: str = "bimodule"):
        if set(left) != set(right):
            raise ActionsDoNotCommute("left/right generator keys differ")
        self.field = field
        self.dim = dim
        self.left = left
        self.right = right
        self.name = name
        for key in left:
            for key2 in left:
                if left[key].mul(right[key2]) != right[key2].mul(left[key]):
                    raise ActionsDoNotCommute(f"left[{key}] does not commute with right[{key2}]")

    def relative_center(self) -> KernelBasis:
        mats = [self.left[k].sub(self.right[k]) for k in self.left]
        return simultaneous_kernel(mats)


def relative_center(b: Bimodule) -> list[list]:
    return b.relative_center().vectors
