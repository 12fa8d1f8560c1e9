"""Exact scalar arithmetic over Q, cyclotomic fields Q(zeta_n), and prime fields F_p.

A field is an object exposing raw-value operations (``add``, ``mul``, ...).
Raw values are plain Python data so that hot loops pay no wrapper cost:

* rationals: ``int`` or ``fractions.Fraction`` (``int`` preferred when exact),
* Q(zeta_n): a tuple of ``Fraction`` of length ``euler_phi(n)``, the residue
  modulo the n-th cyclotomic polynomial,
* F_p: an ``int`` in ``[0, p)``.

Equality of raw values is plain ``==`` after ``normalize``; every nonzero value
has an exact inverse.  No floating point anywhere.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class FieldError(Exception):
    pass


class DivisionByZero(FieldError):
    pass


class FieldMismatch(FieldError):
    pass


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % p == 0:
            return False
        p += 2
    return True


def _int_poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials; the quotient must be integral."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c, r = divmod(num[i + len(den) - 1], den[-1])
        if r != 0:
            raise ArithmeticError("non-exact integer polynomial division")
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial over Z."""
    if n in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[n]
    # (x^n - 1) divided by the product of Phi_d for proper divisors d of n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _int_poly_divmod(poly, list(cyclotomic_polynomial(d)))
            assert not rem
    result = tuple(poly)
    _CYCLOTOMIC_CACHE[n] = result
    return result


class Field:
    """Base class; concrete fields fill in the raw-value operations."""

    kind = "abstract"

    def eq(self, a, b) -> bool:
        return self.normalize(a) == self.normalize(b)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_fraction(self, fr: Fraction):
        raise NotImplementedError

    def from_int(self, k: int):
        return self.from_fraction(Fraction(k))

    def sum(self, values):
        total = self.zero
        for v in values:
            total = self.add(total, v)
        return total

    def pow(self, a, k: int):
        if k < 0:
            a, k = self.inv(a), -k
        result = self.one
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    # degree of the field over Q; 0 marks positive characteristic
    def rational_degree(self) -> int:
        return 0

    def __eq__(self, other):
        return isinstance(other, Field) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(tuple(sorted(self.to_json().items())))

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_json()})"


class RationalField(Field):
    kind = "Q"

    def __init__(self):
        self.zero = 0
        self.one = 1
        self.add = operator.add
        self.sub = operator.sub
        self.mul = operator.mul
        self.neg = operator.neg

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0

    @staticmethod
    def normalize(a):
        if isinstance(a, Fraction) and a.denominator == 1:
            return a.numerator
        return a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self.normalize(Fraction(1, 1) / a)

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero")
        return self.normalize(Fraction(a) / b)

    def from_fraction(self, fr: Fraction):
        return self.normalize(fr)

    def from_int(self, k: int):
        return k

    def rational_degree(self) -> int:
        return 1

    def parse(self, s):
        if isinstance(s, int):
            return s
        return self.normalize(Fraction(str(s)))

    def format(self, a) -> str:
        a = self.normalize(a)
        return str(a)

    def random_element(self, rng, zero_ok: bool = True):
        while True:
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if zero_ok or x != 0:
                return self.normalize(x)

    def to_json(self) -> dict:
        return {"kind": "Q"}


class PrimeField(Field):
    kind = "Fp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def normalize(self, a):
        return a % self.p

    def from_fraction(self, fr: Fraction):
        den = fr.denominator % self.p
        if den == 0:
            raise DivisionByZero(f"denominator divisible by {self.p}")
        return fr.numerator * pow(den, -1, self.p) % self.p

    def from_int(self, k: int):
        return k % self.p

    def parse(self, s):
        return self.from_fraction(Fraction(str(s)))

    def format(self, a) -> str:
        return str(a % self.p)

    def random_element(self, rng, zero_ok: bool = True):
        lo = 0 if zero_ok else 1
        return rng.randint(lo, self.p - 1)

    def to_json(self) -> dict:
        return {"kind": "Fp", "p": self.p}


class CyclotomicField(Field):
    """Q(zeta_n): residues modulo Phi_n, coefficient tuples of length phi(n).

    Products are reduced eagerly so representatives stay at degree < phi(n);
    inverses come from the extended Euclidean algorithm against Phi_n.
    """

    kind = "cyclotomic"

    def __init__(self, n: int):
        if n < 1:
            raise FieldError("cyclotomic index must be >= 1")
        self.n = n
        self.phi = euler_phi(n)
        self.modulus = tuple(Fraction(c) for c in cyclotomic_polynomial(n))
        d = self.phi
        self.zero = (Fraction(0),) * d
        self.one = (Fraction(1),) + (Fraction(0),) * (d - 1)
        # reduction[j] = x^(d+j) mod Phi_n, enough for degree-(2d-2) products
        reduction: list[tuple[Fraction, ...]] = []
        prev = [-c for c in self.modulus[:d]]  # x^d mod Phi_n (monic modulus)
        reduction.append(tuple(prev))
        for _ in range(1, d):
            shifted = [Fraction(0)] + prev[:-1]
            top = prev[-1]
            row = [shifted[i] + top * reduction[0][i] for i in range(d)]
            reduction.append(tuple(row))
            prev = row
        self._reduction = reduction

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        d = self.phi
        conv = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = conv[:d]
        for j in range(d, 2 * d - 1):
            c = conv[j]
            if c:
                row = self._reduction[j - d]
                for i in range(d):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        # extended Euclid in Q[x]: s*a + t*Phi_n = gcd = const
        r0 = list(self.modulus)
        r1 = [Fraction(x) for x in a]
        while r1 and r1[-1] == 0:
            r1.pop()
        s0: list[Fraction] = []
        s1 = [Fraction(1)]
        while len(r1) > 1:
            q, r = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))
            if not r1:
                raise FieldError("element not invertible modulo Phi_n")
        c = r1[0]
        inv_coeffs = [x / c for x in s1]
        inv_coeffs += [Fraction(0)] * (self.phi - len(inv_coeffs))
        return self._reduce_list(inv_coeffs)

    def _reduce_list(self, coeffs: list[Fraction]):
        d = self.phi
        work = [Fraction(x) for x in coeffs]
        if len(work) > 2 * d - 1:
            _, work = _frac_poly_divmod(work, list(self.modulus))
        out = list(work[:d]) + [Fraction(0)] * max(0, d - len(work))
        for j in range(d, len(work)):
            c = work[j]
            if c:
                row = self._reduction[j - d]
                for i in range(d):
                    out[i] += c * row[i]
        return tuple(out)

    def is_zero(self, a) -> bool:
        return not any(a)

    def normalize(self, a):
        return tuple(Fraction(x) for x in a)

    def from_fraction(self, fr: Fraction):
        return (Fraction(fr),) + (Fraction(0),) * (self.phi - 1)

    def zeta(self):
        """The distinguished primitive n-th root of unity."""
        if self.phi == 1:
            # zeta_1 = 1, zeta_2 = -1
            return self.from_int(1 if self.n == 1 else -1)
        return (Fraction(0), Fraction(1)) + (Fraction(0),) * (self.phi - 2)

    def rational_degree(self) -> int:
        return self.phi

    def parse(self, s):
        if isinstance(s, (list, tuple)):
            coeffs = [Fraction(str(c)) for c in s]
            if len(coeffs) > self.phi:
                return self._reduce_list(coeffs)
            coeffs += [Fraction(0)] * (self.phi - len(coeffs))
            return tuple(coeffs)
        return self.from_fraction(Fraction(str(s)))

    def format(self, a) -> list[str]:
        return [str(x) for x in a]

    def random_element(self, rng, zero_ok: bool = True):
        while True:
            x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(self.phi))
            if zero_ok or not self.is_zero(x):
                return x

    def to_json(self) -> dict:
        return {"kind": "cyclotomic", "n": self.n}


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dn = len(den)
    if dn == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - dn + 1)
    lead = den[-1]
    for i in range(len(num) - dn, -1, -1):
        c = num[i + dn - 1] / lead
        q[i] = c
        if c:
            for j in range(dn):
                num[i + j] -= c * den[j]
    while num and num[-1] == 0:
        num.pop()
    return q, num


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    while out and out[-1] == 0:
        out.pop()
    return out


QQ = RationalField()


def field_from_json(spec: dict) -> Field:
    kind = spec.get("kind")
    if kind == "Q":
        return QQ
    if kind == "cyclotomic":
        return CyclotomicField(int(spec["n"]))
    if kind == "Fp":
        return PrimeField(int(spec["p"]))
    raise FieldError(f"unknown field kind {kind!r}")
