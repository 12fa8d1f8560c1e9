"""Block spaces for genus-g handlebodies (equivalently, by restriction, the
closed surfaces bounding them) and the Dehn twist / bounding pair operators
acting on them.

Two models are provided and cross-checked:

* direct: covectors on the g-th tensor power of the canonical end that
  intertwine into the trivial module;
* relative center: the center of Hom(G, G x A^(g-1)) relative B = End(G),
  realized on G x A^(g-1) through the free-module identification
  Hom(G, N) = N, F -> F(1), with G the regular module.  It is the kernel of
  R(g) x I - rho(g) over the generators g, one construction for every genus
  (A^0 is the trivial module, so genus 1 gives the center of H).

Block spaces of the closed surfaces bounding the handlebodies agree with
these by restriction, for twists supported in the handlebody, so
``block_space`` serves both.

The twist about the i-th handle meridian acts in the direct model by
precomposition with (left multiplication by the ribbon element) in slot i;
in the relative-center model by the ribbon action on the ambient module.
The separating twist that splits g = g' + g'' acts on the genus-g direct
block by precomposition with I x theta on A^(g') x A^(g''): the block is
Hom(A^(g') x A^(g''), k) = Hom(A^(g'), (A^(g''))*), and for factorizable H
the Drinfeld map identifies A* with A, so this is postcomposition with the
twist on Hom(A^(g'), A^(g'')), up to conjugation.  The bounding pair acts
on Hom(H x A, H) = Hom_k(A, H) (free-module coordinates f -> f(1 x -)),
where it is one Kronecker sum over Delta(v^-1); no hom space is solved.

A block's basis is the sparse ``KernelBasis`` of its invariance constraints.
``restrict_operator`` pushes each sparse basis column through the ambient
operator and certifies the result completely: every image must equal the
re-expansion of its coordinates in the basis (B.R = Op.B).  The bounding
pair is certified by its condition: the twist of H intertwines on every
generator.
Block spaces, the end twist and every twist operator are built once and
cached on the algebra (``HopfData._cache``), never in module globals.
"""

from __future__ import annotations

from .hopf import HopfData, MissingRibbon
from .linalg import (
    KernelBasis,
    Matrix,
    OrderCertificate,
    kron_sum,
    operator_order,
    simultaneous_kernel,
    tensor_product,
    _times_matrix,
)
from .repcat import (
    GENERIC_HOM_UNKNOWN_LIMIT,
    HomSpaceTooLarge,
    Module,
    adjoint_module,
    is_intertwiner,
    regular_module,
    tensor_module,
    tensor_power,
    twist,
)


class BlocksError(Exception):
    pass


class ModelRequiresPositiveGenus(BlocksError):
    pass


class HandleOutOfRange(BlocksError):
    pass


class GenusCapExceeded(BlocksError):
    pass


DIRECT = "direct"
RELATIVE_CENTER = "center"


def default_genus_cap(h: HopfData) -> int:
    if h.dim <= 8:
        return 3
    if h.dim <= 36:
        return 2
    return 1


class BlockSpace:
    __slots__ = ("algebra", "genus", "model", "basis", "ambient", "covectors")

    def __init__(self, algebra: HopfData, genus: int, model: str, basis: KernelBasis, ambient: Module,
                 covectors: bool):
        self.algebra = algebra
        self.genus = genus
        self.model = model
        self.basis = basis
        self.ambient = ambient
        self.covectors = covectors  # True for the direct model (basis elements pair with the ambient)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def __repr__(self):
        return (
            f"BlockSpace({self.algebra.name}, genus={self.genus}, model={self.model}, "
            f"dim={self.dim})"
        )


def block_space(h: HopfData, genus: int, model: str = DIRECT, genus_cap: int | None = None) -> BlockSpace:
    """The block space of the genus-g handlebody, in the chosen model.

    Block spaces are cached on the algebra (``HopfData._cache``), so they
    live exactly as long as it does.
    """
    if genus < 0:
        raise BlocksError("genus must be non-negative")
    if model not in (DIRECT, RELATIVE_CENTER):
        raise BlocksError(f"unknown model {model!r}")
    if model == RELATIVE_CENTER and genus < 1:
        raise ModelRequiresPositiveGenus("the relative-center model needs genus >= 1")
    cap = genus_cap if genus_cap is not None else default_genus_cap(h)
    if genus > cap:
        raise GenusCapExceeded(f"genus {genus} exceeds cap {cap} for dim {h.dim}")
    key = ("block", genus, model)
    if key not in h._cache:
        if model == DIRECT:
            h._cache[key] = _direct_block(h, genus)
        else:
            h._cache[key] = _center_block(h, genus)
    return h._cache[key]


def _transposed_adjoint(h: HopfData) -> Module:
    """g -> rho_A(g)^T on the canonical end A, kept in ``HopfData._cache``.

    Not a module (transposing reverses products), but its tensor powers
    are built from the coproduct like a module's, and
    (X x Y)^T = X^T x Y^T makes their matrices rho(g)^T on A^(g): each is
    one Kronecker sum, and no power is transposed after the fact.
    """
    if "adjoint_transposed" not in h._cache:
        a = adjoint_module(h)
        h._cache["adjoint_transposed"] = Module(h, h.dim, "adjoint^T", lambda i: a.act(i).transpose())
    return h._cache["adjoint_transposed"]


def _direct_block(h: HopfData, genus: int) -> BlockSpace:
    F = h.field
    power_t = tensor_power(_transposed_adjoint(h), genus)
    mats = []
    for g in h.generating_indices():
        # covectors f with f . rho(g) = eps(g) f: the rows of rho(g)^T - eps(g) I
        diff = power_t.act(g)
        eps = h.counit[g]
        if not F.is_zero(eps):
            rows = [dict(row) for row in diff.rows]  # the action is kept on power_t
            for i, row in enumerate(rows):
                d = F.sub(row.get(i, F.zero), eps)
                if F.is_zero(d):
                    del row[i]
                else:
                    row[i] = d
            diff = Matrix(F, diff.nrows, diff.ncols, rows)
        mats.append(diff)
    basis = simultaneous_kernel(mats)
    return BlockSpace(h, genus, DIRECT, basis, tensor_power(adjoint_module(h), genus), covectors=True)


def _center_block(h: HopfData, genus: int) -> BlockSpace:
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
    basis = simultaneous_kernel(mats)
    return BlockSpace(h, genus, RELATIVE_CENTER, basis, ambient, covectors=False)


def restrict_operator(block: BlockSpace, ambient_op: Matrix) -> Matrix:
    """Matrix of an ambient operator restricted to the block subspace.

    Each sparse basis column b_j is pushed through the operator: through its
    rows for the covector (direct) model, b_j . Op, and through the rows of
    its transpose for the vector (center) model, Op . b_j.  The kernel basis
    is in reduced form, so the coordinates R[k][j] of an image are its
    entries at the free columns.  Every image is then compared exactly with
    its re-expansion sum_k R[k][j] b_k: the complete identity B.R = Op.B,
    which fails exactly when the operator moves some basis vector out of the
    block.
    """
    h = block.algebra
    F = h.field
    basis = block.basis
    rows = (ambient_op if block.covectors else ambient_op.transpose()).rows
    free_index = {c: k for k, c in enumerate(basis.free_cols)}
    out = Matrix(F, basis.dim, basis.dim)
    for j, col in enumerate(basis.columns):
        img = _times_matrix(F, col, rows)
        coords = {free_index[t]: v for t, v in img.items() if t in free_index}
        for k, v in coords.items():
            out.rows[k][j] = v
        if not h.sparse_eq(basis.combination(coords), img):
            raise BlocksError("restricted operator left the block subspace")
    return out


def end_twist(h: HopfData) -> Matrix:
    """Left multiplication by the ribbon element on the canonical end.

    This is the twist that a meridian Dehn twist induces on the end variable;
    centrality of the ribbon element makes it an intertwiner of the adjoint
    action (post-checked once per algebra, which then keeps the matrix), and
    it satisfies rho_M(v * x) = twist(M) rho_M(x) for every module M,
    matching the end projections.
    """
    if h.ribbon is None:
        raise MissingRibbon(h.name)
    if "end_twist" not in h._cache:
        lv = h.left_mult_of(h.ribbon)
        ad = adjoint_module(h)
        for g in h.generating_indices():
            if lv.mul(ad.act(g)) != ad.act(g).mul(lv):
                raise BlocksError("end twist failed the adjoint intertwiner post-check")
        h._cache["end_twist"] = lv
    return h._cache["end_twist"]


class MCGOperator:
    __slots__ = ("kind", "block", "matrix", "certificate")

    def __init__(self, kind: str, block: BlockSpace, matrix: Matrix, certificate: OrderCertificate):
        self.kind = kind
        self.block = block
        self.matrix = matrix
        self.certificate = certificate

    def to_json(self):
        return {
            "kind": self.kind,
            "genus": self.block.genus,
            "model": self.block.model,
            "block_dim": self.block.dim,
            "certificate": self.certificate.to_json(),
        }


def nonseparating_twist_op(block: BlockSpace, handle: int, cap: int | None = None) -> MCGOperator:
    """Twist about the meridian of the given handle (1-based) on a direct-model
    block; cached on the algebra per (genus, handle, cap)."""
    h = block.algebra
    g = block.genus
    if block.model != DIRECT:
        raise BlocksError("nonseparating_twist_op expects a direct-model block")
    if not (1 <= handle <= g):
        raise HandleOutOfRange(f"handle {handle} not in 1..{g}")
    key = ("nonseparating", g, handle, cap)
    if key not in h._cache:
        lv = end_twist(h)
        F = h.field
        op = None
        for i in range(1, g + 1):
            piece = lv if i == handle else Matrix.identity(F, h.dim)
            op = piece if op is None else tensor_product(op, piece)
        mat = restrict_operator(block, op)
        h._cache[key] = MCGOperator(f"nonseparating(handle={handle})", block, mat, operator_order(mat, cap=cap))
    return h._cache[key]


def center_twist_op(block: BlockSpace, cap: int | None = None) -> MCGOperator:
    """The meridian twist on a relative-center block: the ribbon action on the
    ambient module restricted to the center (precomposition with the twist of
    the generator under Hom(G, N) = N).  Cached on the algebra per (genus, cap)."""
    h = block.algebra
    if block.model != RELATIVE_CENTER:
        raise BlocksError("center_twist_op expects a relative-center block")
    key = ("center_twist", block.genus, cap)
    if key not in h._cache:
        mat = restrict_operator(block, twist(block.ambient))
        h._cache[key] = MCGOperator("nonseparating(center-model)", block, mat, operator_order(mat, cap=cap))
    return h._cache[key]


class SeparatingTwist:
    __slots__ = ("genus_left", "genus_right", "block", "matrix", "certificate", "twist_left_order",
                 "twist_right_order")

    def __init__(self, genus_left: int, genus_right: int, block: BlockSpace, matrix: Matrix,
                 certificate: OrderCertificate, twist_left_order: OrderCertificate,
                 twist_right_order: OrderCertificate):
        self.genus_left = genus_left
        self.genus_right = genus_right
        self.block = block
        self.matrix = matrix
        self.certificate = certificate
        self.twist_left_order = twist_left_order
        self.twist_right_order = twist_right_order

    @property
    def dim(self) -> int:
        return self.block.dim

    def to_json(self):
        return {
            "kind": f"separating({self.genus_left},{self.genus_right})",
            "block_dim": self.dim,
            "certificate": self.certificate.to_json(),
            "twist_order_left_part": self.twist_left_order.to_json(),
            "twist_order_right_part": self.twist_right_order.to_json(),
        }


def separating_twist_op(h: HopfData, genus_left: int, genus_right: int,
                        cap: int | None = None) -> SeparatingTwist:
    """Twist about the standard separating meridian splitting handles
    {1..g'} from {g'+1..g}, g = g' + g''.

    It is I x theta on A^(g') x A^(g''), restricted to the genus-g direct
    block (taken with genus cap g).  That block is Hom(A^(g'), (A^(g''))*),
    and the Drinfeld map of a factorizable algebra identifies A* with A, so
    the operator is conjugate to postcomposition with the twist on
    Hom(A^(g'), A^(g'')): dimension and certificates are those of that
    operator.  Raises ``HomSpaceTooLarge`` when dim^g exceeds
    ``GENERIC_HOM_UNKNOWN_LIMIT``, ``MissingRibbon`` without a ribbon
    element, and ``BlocksError`` when the algebra is not factorizable.

    The result is cached on the algebra.
    """
    key = ("separating", genus_left, genus_right, cap)
    if key in h._cache:
        return h._cache[key]
    if genus_left < 1 or genus_right < 1:
        raise BlocksError("separating split requires both genera >= 1")
    a = adjoint_module(h)
    left = tensor_power(a, genus_left)
    right = tensor_power(a, genus_right)
    unknowns = left.dim * right.dim
    if unknowns > GENERIC_HOM_UNKNOWN_LIMIT:
        raise HomSpaceTooLarge(f"{unknowns} unknowns for Hom({left.name}, {right.name})")
    if h.ribbon is None:
        raise MissingRibbon(h.name)
    if h.r_matrix is None or not h.is_factorizable()[0]:
        raise BlocksError(f"{h.name} is not factorizable: separating twists need A* = A through the Drinfeld map")
    genus = genus_left + genus_right
    block = block_space(h, genus, DIRECT, genus_cap=genus)
    theta_left = twist(left)
    theta_right = twist(right)
    mat = restrict_operator(block, tensor_product(Matrix.identity(h.field, left.dim), theta_right))
    left_order = operator_order(theta_left, cap=cap)
    # for g' = g'' both are the one twist kept on the power: certify it once
    right_order = left_order if theta_right is theta_left else operator_order(theta_right, cap=cap)
    result = SeparatingTwist(genus_left, genus_right, block, mat, operator_order(mat, cap=cap),
                             left_order, right_order)
    h._cache[key] = result
    return result


def bounding_pair_op(h: HopfData) -> Matrix:
    """The bounding-pair action f -> theta_H . f . (theta_H^-1 x id) on
    Hom(H x A, H), H the regular module and A the canonical end.

    The matrix is taken in the free-module coordinates
    Hom(H x A, H) = Hom_k(A, H), f -> C = f(1 x -), row-major (index
    y * dim A + t).  An intertwiner satisfies
    f(x x w) = sum rho(x1) f(1 x S(x2) w), so the operator sends C to
    theta_H . sum c L_a C rho_A(S(b)) over the terms c a x b of
    Delta(v^-1): one Kronecker sum.  It maps intertwiners to intertwiners
    exactly when theta_H is one, which is checked on every generator.
    """
    if h.ribbon is None:
        raise MissingRibbon(h.name)
    reg = regular_module(h)
    theta = twist(reg)
    if not is_intertwiner(theta, reg, reg):
        raise BlocksError("bounding pair left the hom space")
    a = adjoint_module(h)
    v_inv = h.sparse(h.element_inverse(h.ribbon))
    terms = [
        (c, theta.mul(reg.act(x1)), a.act_element(h.antipode_of(h.basis_vector(x2))).transpose())
        for (x1, x2), c in h.comult_of(v_inv).items()
    ]
    n = h.dim * a.dim
    return kron_sum(h.field, n, n, terms)
