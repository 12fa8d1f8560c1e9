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

Every meridian twist is built from one matrix, ``end_twist``'s L_v (left
multiplication by the ribbon element, certified central).  The direct model
precomposes with L_v in slot i.  The relative-center model precomposes with
theta_G, R_v x I on G x A^(g-1): a block vector x has rho(a) x = (R_a x I) x
for every a (on the generators by definition, and every rho(a) commutes with
R_b x I), so on the block R_v x I = rho(v), and v central makes it L_v x I.
The separating twist that splits g = g' + g'' acts on the genus-g direct
block by precomposition with I x theta on A^(g') x A^(g''): the block is
Hom(A^(g') x A^(g''), k) = Hom(A^(g'), (A^(g''))*), and for factorizable H
the Drinfeld map identifies A* with A, so this is postcomposition with the
twist on Hom(A^(g'), A^(g'')), up to conjugation.  Every meridian and
separating twist is one slot embedding I x X x I (``_slot_op``), built
without identity factors of size 1.

Every twist operator takes one path, ``_twist_op``: its ambient operator is
restricted to the block, certified, cached on the algebra and returned as
one record, ``MCGOperator``.  A separating twist's record also carries
``end_orders``, the certificates of the twists on its two end powers.
The bounding pair acts on Hom(H x A, H) = Hom_k(A, H)
(free-module coordinates f -> f(1 x -)), where it is one Kronecker sum over
Delta(v^-1); no hom space is solved.

A block is its basis: the sparse ``KernelBasis`` of its invariance
constraints on the dim^g ambient coordinates, with no ambient module kept.
The kernel is handed only their nonzero rows: a zero row adds nothing to the
row space, and at genus 2 most of the dim^g rows are zero.  It is handed
each forced zero once: matrix rows hold nonzero values only, so a one-term
row c x_k says x_k = 0, and a later one-term row on the same column, from
any generator of the same block, says nothing more and is dropped.  For
D(S3) at genus 2 that cuts each system from 4,115 rows to 1,685.  The direct
block builds each generator's action on the top tensor power A^(g) with
``Module.act_element``, uses it and drops it; only the lower powers keep
their actions.
``restrict_operator`` pushes each sparse basis column through the ambient
operator and certifies the result completely: every image must equal the
re-expansion of its coordinates in the basis (B.R = Op.B).  The bounding
pair is certified by its condition: theta_H is a module map, which is the
centrality that ``end_twist`` checks.
Block spaces, the end twist and every twist operator are built once and
cached on the algebra (``HopfData._cache``), never in module globals.

One genus cap bounds every block, the separating twist's included: by
default the largest g with max(dim, 2)^g <= ``BLOCK_UNKNOWN_LIMIT``, or the
caller's ``genus_cap``.  ``block_space`` and ``separating_twist_op`` make
the same check, and ``bounding_pair_op`` makes it at genus 2.
"""

from __future__ import annotations

import sys

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
    Module,
    adjoint_module,
    is_intertwiner,
    power_twist_order,
    regular_module,
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


# Largest dim^g (the ambient size of a genus-g block) the default genus cap allows.
BLOCK_UNKNOWN_LIMIT = 6000


def default_genus_cap(dim: int) -> int:
    """The largest g with max(dim, 2)^g <= ``BLOCK_UNKNOWN_LIMIT``.

    The base is at least 2, so a dim-1 algebra (dim^g = 1) gets a finite cap.
    """
    base = max(dim, 2)
    g = 0
    while base ** (g + 1) <= BLOCK_UNKNOWN_LIMIT:
        g += 1
    return g


def _check_genus_cap(h: HopfData, genus: int, genus_cap: int | None) -> None:
    """Raise ``GenusCapExceeded`` when genus is above genus_cap (when None,
    ``default_genus_cap(h.dim)``) or its dim^genus coordinates cannot be indexed."""
    cap = genus_cap if genus_cap is not None else default_genus_cap(h.dim)
    if genus > cap:
        raise GenusCapExceeded(f"genus {genus} exceeds cap {cap} for dim {h.dim}")
    if h.dim ** min(genus, 64) > sys.maxsize:  # dim^64 > sys.maxsize for every dim >= 2
        raise GenusCapExceeded(f"genus {genus}: {h.dim}^{genus} ambient coordinates cannot be indexed")


class BlockSpace:
    __slots__ = ("algebra", "genus", "model", "basis")

    def __init__(self, algebra: HopfData, genus: int, model: str, basis: KernelBasis):
        self.algebra = algebra
        self.genus = genus
        self.model = model
        self.basis = basis

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

    Raises ``GenusCapExceeded`` when genus is above genus_cap (by default
    ``default_genus_cap``), and ``BlocksError`` when the genus is too deep
    to build at all.  Block spaces are cached on the algebra
    (``HopfData._cache``), so they live exactly as long as it does.
    """
    if genus < 0:
        raise BlocksError("genus must be non-negative")
    if model not in (DIRECT, RELATIVE_CENTER):
        raise BlocksError(f"unknown model {model!r}")
    if model == RELATIVE_CENTER and genus < 1:
        raise ModelRequiresPositiveGenus("the relative-center model needs genus >= 1")
    _check_genus_cap(h, genus, genus_cap)
    key = ("block", genus, model)
    if key not in h._cache:
        build = _direct_block if model == DIRECT else _center_block
        try:
            h._cache[key] = build(h, genus)
        except RecursionError as exc:  # each tensor power's action is built on the one below
            raise BlocksError(f"genus {genus} is too deep: the tensor power A^(x{genus}) "
                              "exceeds the interpreter's recursion limit") from exc
    return h._cache[key]


def _transposed_adjoint(h: HopfData) -> Module:
    """g -> rho_A(g)^T on the canonical end A, kept in ``HopfData._cache``.

    Not a module (transposing reverses products), but its tensor powers
    are built from the coproduct like a module's, and
    (X x Y)^T = X^T x Y^T makes their matrices rho(g)^T on A^(g): each is
    one Kronecker sum, and no power is transposed after the fact.  The
    direct block reads the top power through ``Module.act_element``, which
    keeps no action matrix on it.
    """
    if "adjoint_transposed" not in h._cache:
        a = adjoint_module(h)
        h._cache["adjoint_transposed"] = Module(h, h.dim, "adjoint^T", lambda i: a.act(i).transpose())
    return h._cache["adjoint_transposed"]


def _direct_block(h: HopfData, genus: int) -> BlockSpace:
    F = h.field
    power_t = tensor_power(_transposed_adjoint(h), genus)
    forced = bytearray(power_t.dim)
    mats = []
    for g in h.generating_indices():
        # covectors f with f . rho(g) = eps(g) f: the rows of rho(g)^T - eps(g) I
        rows = power_t.act_element({g: F.one}).rows  # fresh: not kept on power_t
        eps = h.counit[g]
        if not F.is_zero(eps):
            for i, row in enumerate(rows):
                d = F.sub(row.get(i, F.zero), eps)
                if F.is_zero(d):
                    del row[i]
                else:
                    row[i] = d
        mats.append(_nonzero_rows(Matrix(F, power_t.dim, power_t.dim, rows), forced))
        del rows  # the next generator's action is built without this one alive
    return BlockSpace(h, genus, DIRECT, simultaneous_kernel(mats))


def _center_block(h: HopfData, genus: int) -> BlockSpace:
    F = h.field
    rest = tensor_power(adjoint_module(h), genus - 1)
    n = h.dim * rest.dim
    ident_rest = Matrix.identity(F, rest.dim)
    forced = bytearray(n)
    # x in G x A^(g-1) with (R(g) x I) x = rho(g) x, each constraint one kron_sum
    mats = [
        _nonzero_rows(kron_sum(F, n, n,
                               [(F.one, h.right_mult_matrix(g), ident_rest)]
                               + [(F.neg(c), h.left_mult_matrix(a), rest.act(b))
                                  for (a, b), c in h.comult[g].items()]), forced)
        for g in h.generating_indices()
    ]
    return BlockSpace(h, genus, RELATIVE_CENTER, simultaneous_kernel(mats))


def _nonzero_rows(m: Matrix, forced: bytearray) -> Matrix:
    """The constraint matrix of m's rows that can add to the row space.

    A zero row adds nothing, so it is dropped.  Matrix rows hold nonzero
    values only, so a one-term row c x_k says x_k = 0; ``forced`` marks each
    column an earlier one-term row of the same block build (any generator)
    forced to zero, and a one-term row on a marked column is dropped too.
    The kernel is the same.
    """
    kept = []
    for row in m.rows:
        if len(row) == 1:
            (k,) = row
            if forced[k]:
                continue
            forced[k] = 1
        if row:
            kept.append(row)
    return Matrix(m.field, len(kept), m.ncols, kept)


def restrict_operator(block: BlockSpace, ambient_op: Matrix) -> Matrix:
    """Matrix of an ambient operator restricted to the block subspace.

    Each sparse basis column b_j is pushed through the operator: through its
    rows for the covector (direct) model, b_j . Op, and through the rows of
    its transpose for the vector (center) model, Op . b_j.  The kernel basis
    is in reduced form, so the coordinates R[k][j] of an image are its
    entries at the free columns (``KernelBasis.coordinates``).  Every image
    is then compared exactly with its re-expansion sum_k R[k][j] b_k: the
    complete identity B.R = Op.B, which fails exactly when the operator
    moves some basis vector out of the block.
    """
    h = block.algebra
    F = h.field
    basis = block.basis
    rows = (ambient_op if block.model == DIRECT else ambient_op.transpose()).rows
    out = Matrix(F, basis.dim, basis.dim)
    for j, col in enumerate(basis.columns):
        img = _times_matrix(F, col, rows)
        coords = basis.coordinates(img)
        for k, v in coords.items():
            out.rows[k][j] = v
        if not h.sparse_eq(basis.combination(coords), img):
            raise BlocksError("restricted operator left the block subspace")
    return out


def end_twist(h: HopfData) -> Matrix:
    """L_v, left multiplication by the ribbon element: the twist of the
    regular module, and the one place L_v is built and certified.

    Every meridian twist is built from it (a slot of A^(g) in the direct
    model, the G slot in the relative-center model), and so is the bounding
    pair's theta_H.  Its one post-check, once per algebra, is that v is
    central: L_v L_g = L_g L_v for every generator g.  That is what the
    center model (R_v = L_v) and the bounding pair (theta_H a module map)
    rest on, and it makes L_v an intertwiner of the adjoint action too.
    """
    if h.ribbon is None:
        raise MissingRibbon(h.name)
    if "end_twist" not in h._cache:
        reg = regular_module(h)
        lv = twist(reg)
        if not is_intertwiner(lv, reg, reg):
            raise BlocksError("end twist failed the post-check: the ribbon element is not central")
        h._cache["end_twist"] = lv
    return h._cache["end_twist"]


class MCGOperator:
    """A twist operator restricted to a block, with its order certificate.

    ``end_orders`` is None for a meridian twist, and for a separating twist
    the pair of certificates of the twists on the two end powers.
    """

    __slots__ = ("kind", "block", "matrix", "certificate", "end_orders")

    def __init__(self, kind: str, block: BlockSpace, matrix: Matrix, certificate: OrderCertificate,
                 end_orders: tuple[OrderCertificate, OrderCertificate] | None = None):
        self.kind = kind
        self.block = block
        self.matrix = matrix
        self.certificate = certificate
        self.end_orders = end_orders

    def to_json(self):
        cert = self.certificate.to_json()
        if self.end_orders is None:
            return {"kind": self.kind, "genus": self.block.genus, "model": self.block.model,
                    "block_dim": self.block.dim, "certificate": cert}
        left, right = self.end_orders
        return {"kind": self.kind, "block_dim": self.block.dim, "certificate": cert,
                "twist_order_left_part": left.to_json(), "twist_order_right_part": right.to_json()}


def _twist_op(block: BlockSpace, key: tuple, kind: str, ambient_op, end_orders=None) -> MCGOperator:
    """The twist ``kind`` on a block: ambient_op() restricted to the block and
    certified, with end_orders the end-power certificates of a separating
    twist.  Built once and cached on the algebra under key."""
    cache = block.algebra._cache
    if key not in cache:
        mat = restrict_operator(block, ambient_op())
        cache[key] = MCGOperator(kind, block, mat, operator_order(mat), end_orders)
    return cache[key]


def _slot_op(h: HopfData, x: Matrix, before: int, after: int) -> Matrix:
    """I x X x I on A^(before) x B x A^(after), with no identity factor of
    size 1 (an empty side is left out)."""
    F = h.field
    if after:
        x = tensor_product(x, Matrix.identity(F, h.dim ** after))
    if before:
        x = tensor_product(Matrix.identity(F, h.dim ** before), x)
    return x


def nonseparating_twist_op(block: BlockSpace, handle: int) -> MCGOperator:
    """Twist about the meridian of the given handle (1-based) on a direct-model
    block: the end twist in that slot; cached on the algebra per
    (genus, handle)."""
    g = block.genus
    if block.model != DIRECT:
        raise BlocksError("nonseparating_twist_op expects a direct-model block")
    if not (1 <= handle <= g):
        raise HandleOutOfRange(f"handle {handle} not in 1..{g}")
    h = block.algebra
    return _twist_op(block, ("nonseparating", g, handle), f"nonseparating(handle={handle})",
                     lambda: _slot_op(h, end_twist(h), handle - 1, g - handle))


def center_twist_op(block: BlockSpace) -> MCGOperator:
    """The meridian twist on a relative-center block: precomposition with the
    twist theta_G of the generator under Hom(G, N) = N, that is R_v x I on
    G x A^(g-1), which on the block is L_v x I (see the module docstring):
    ``end_twist`` on the G slot, restricted to the block.  Cached on the
    algebra per genus."""
    if block.model != RELATIVE_CENTER:
        raise BlocksError("center_twist_op expects a relative-center block")
    h = block.algebra
    return _twist_op(block, ("center_twist", block.genus), "nonseparating(center-model)",
                     lambda: _slot_op(h, end_twist(h), 0, block.genus - 1))


def separating_twist_op(h: HopfData, genus_left: int, genus_right: int,
                        genus_cap: int | None = None) -> MCGOperator:
    """Twist about the standard separating meridian splitting handles
    {1..g'} from {g'+1..g}, g = g' + g''.

    It is I x theta on A^(g') x A^(g''), restricted to the genus-g direct
    block.  That block is Hom(A^(g'), (A^(g''))*), and the Drinfeld map of
    a factorizable algebra identifies A* with A, so the operator is
    conjugate to postcomposition with the twist on Hom(A^(g'), A^(g'')):
    dimension and certificates are those of that operator.  Raises
    ``GenusCapExceeded`` when g is above genus_cap (the same check as
    ``block_space``, made first), ``MissingRibbon`` without a ribbon
    element, and ``BlocksError`` when the algebra is not factorizable.

    The result is cached on the algebra; its ``end_orders`` are the twist
    orders on A^(g') and A^(g'') (``repcat.power_twist_order``).
    """
    genus = genus_left + genus_right
    _check_genus_cap(h, genus, genus_cap)
    if genus_left < 1 or genus_right < 1:
        raise BlocksError("separating split requires both genera >= 1")
    if h.ribbon is None:
        raise MissingRibbon(h.name)
    if h.r_matrix is None or not h.is_factorizable()[0]:
        raise BlocksError(f"{h.name} is not factorizable: separating twists need A* = A through the Drinfeld map")
    return _twist_op(block_space(h, genus, DIRECT, genus_cap=genus_cap),
                     ("separating", genus_left, genus_right), f"separating({genus_left},{genus_right})",
                     lambda: _slot_op(h, twist(tensor_power(adjoint_module(h), genus_right)), genus_left, 0),
                     (power_twist_order(h, genus_left), power_twist_order(h, genus_right)))


def bounding_pair_op(h: HopfData, genus_cap: int | None = None) -> Matrix:
    """The bounding-pair action f -> theta_H . f . (theta_H^-1 x id) on
    Hom(H x A, H), H the regular module and A the canonical end.

    The matrix is taken in the free-module coordinates
    Hom(H x A, H) = Hom_k(A, H), f -> C = f(1 x -), row-major (index
    y * dim A + t).  An intertwiner satisfies
    f(x x w) = sum rho(x1) f(1 x S(x2) w), so the operator sends C to
    theta_H . sum c L_a C rho_A(S(b)) over the terms c a x b of
    Delta(v^-1): one Kronecker sum.  It maps intertwiners to intertwiners
    exactly when theta_H = L_v is one, that is when v is central, which
    ``end_twist`` certifies (``MissingRibbon`` without a ribbon element).
    Its dim H * dim A coordinates are those of a genus-2 ambient, so it
    first makes ``block_space``'s check at genus 2 (``GenusCapExceeded``).
    """
    _check_genus_cap(h, 2, genus_cap)
    theta = end_twist(h)
    reg = regular_module(h)
    a = adjoint_module(h)
    s_col = h.antipode_columns()
    terms = [
        (c, theta.mul(reg.act(x1)), a.act_element(s_col[x2]).transpose())
        for (x1, x2), c in h.comult_of(h.element_inverse(h.ribbon)).items()
    ]
    n = h.dim * a.dim
    return kron_sum(h.field, n, n, terms)
