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
