"""Dense univariate polynomial arithmetic over an exact field: the one home
of polynomial algorithms in the package.

Polynomials are lists of raw field values, low degree first, with no trailing
zeros (the zero polynomial is the empty list).  Besides the ring operations
this module owns division with remainder, gcds, the extended Euclidean
inverse modulo m (``pinvmod``), the residue sequence x^k mod m
(``power_residues``) and the integer cyclotomic polynomials Phi_n
(``cyclotomic_polynomial``).  ``fields`` builds Q(zeta_n) on these; this
module reaches a field only through the object it is given, so it imports
nothing from ``fields`` at run time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .fields import Field


def ptrim(field: Field, coeffs) -> list:
    out = list(coeffs)
    while out and field.is_zero(out[-1]):
        out.pop()
    return out


def pdeg(coeffs) -> int:
    return len(coeffs) - 1


def psub(field: Field, a, b) -> list:
    out = [field.zero] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = field.add(out[i], x)
    for i, x in enumerate(b):
        out[i] = field.sub(out[i], x)
    return ptrim(field, out)


def pscale(field: Field, a, c) -> list:
    if field.is_zero(c):
        return []
    return [field.mul(x, c) for x in a]


def pmul(field: Field, a, b) -> list:
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not field.is_zero(x):
            for j, y in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(x, y))
    return ptrim(field, out)


def pdivmod(field: Field, num, den) -> tuple[list, list]:
    den = ptrim(field, den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    dn = len(den)
    q = [field.zero] * max(0, len(num) - dn + 1)
    lead_inv = field.inv(den[-1])
    for i in range(len(num) - dn, -1, -1):
        c = field.mul(num[i + dn - 1], lead_inv)
        q[i] = c
        if not field.is_zero(c):
            for j in range(dn):
                num[i + j] = field.sub(num[i + j], field.mul(c, den[j]))
    return ptrim(field, q), ptrim(field, num)


def pmonic(field: Field, a) -> list:
    a = ptrim(field, a)
    if not a:
        return a
    return pscale(field, a, field.inv(a[-1]))


def pgcd(field: Field, a, b) -> list:
    a, b = ptrim(field, a), ptrim(field, b)
    while b:
        _, r = pdivmod(field, a, b)
        a, b = b, r
    return pmonic(field, a)


def pinvmod(field: Field, a, m) -> list:
    """The inverse of a modulo m, of degree below deg m, by the extended
    Euclidean algorithm.  Raises ArithmeticError when gcd(a, m) != 1."""
    r0, r1 = ptrim(field, m), pdivmod(field, a, m)[1]
    s0, s1 = [], [field.one]  # s_i a = r_i (mod m) throughout
    while len(r1) > 1:
        q, r = pdivmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(field, s0, pmul(field, q, s1))
    if not r1:
        raise ArithmeticError("polynomial not invertible modulo m")
    return pscale(field, s1, field.inv(r1[0]))


def pderiv(field: Field, a) -> list:
    out = [field.mul(field.from_int(i), a[i]) for i in range(1, len(a))]
    return ptrim(field, out)


def pexactdiv(field: Field, num, den) -> list:
    q, r = pdivmod(field, num, den)
    if r:
        raise ArithmeticError("polynomial division not exact")
    return q


def is_squarefree(field: Field, a) -> bool:
    return pdeg(pgcd(field, a, pderiv(field, a))) == 0


def power_residues(field: Field, m, step: int = 1):
    """x^(step * k) mod m for k = 0, 1, 2, ..., as length-deg(m) coefficient lists.

    m is monic of degree d >= 1 with m(0) != 0, so x is a unit modulo m.  Each
    step is a shift by one place; the coefficient leaving the range folds back
    through x^d = -(m_0 + ... + m_(d-1) x^(d-1)) upwards, or through
    x^(-1) = -(m_1 + ... + m_d x^(d-1)) / m_0 downwards.
    """
    F = field
    d = pdeg(m)
    if step == 1:
        fold = m[:d]
    else:
        c = F.inv(m[0])
        fold = [F.mul(c, v) for v in m[1:]]
    r = [F.one] + [F.zero] * (d - 1)
    while True:
        yield r
        if step == 1:
            out, r = r[-1], [F.zero] + r[:-1]
        else:
            out, r = r[0], r[1:] + [F.zero]
        if not F.is_zero(out):
            r = [F.sub(a, F.mul(out, v)) for a, v in zip(r, fold)]


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial over Z."""
    if n not in _CYCLOTOMIC_CACHE:
        # (x^n - 1) divided by the monic Phi_d for the proper divisors d of n
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                poly = _int_exactdiv_monic(poly, cyclotomic_polynomial(d))
        _CYCLOTOMIC_CACHE[n] = tuple(poly)
    return _CYCLOTOMIC_CACHE[n]


def _int_exactdiv_monic(num: list[int], den) -> list[int]:
    """num / den for integer polynomials, den monic and dividing num."""
    num = list(num)
    dn = len(den)
    q = [0] * (len(num) - dn + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = num[i + dn - 1]
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("polynomial division not exact")
    return q


def cyclotomic_over(field: Field, k: int) -> list:
    return [field.from_int(c) for c in cyclotomic_polynomial(k)]
