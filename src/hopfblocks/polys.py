"""Dense univariate polynomial arithmetic over an exact field.

Polynomials are lists of raw field values, low degree first, with no trailing
zeros (the zero polynomial is the empty list).
"""

from __future__ import annotations

from .fields import Field, cyclotomic_polynomial


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


def cyclotomic_over(field: Field, k: int) -> list:
    return [field.from_int(c) for c in cyclotomic_polynomial(k)]
