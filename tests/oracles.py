"""Independent oracles that the tests compare the library against.

They compute the same quantities as the library by a different route, so
they live here rather than in ``hopfblocks``, which never calls them.
"""


def is_unit_vector(h, x: list) -> bool:
    F = h.field
    return all(F.eq(a, b) for a, b in zip(x, h.unit, strict=True))


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
