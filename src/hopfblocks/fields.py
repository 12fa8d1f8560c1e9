"""Exact scalar arithmetic over Q, cyclotomic fields Q(zeta_n), and prime fields F_p.

A field is an object exposing raw-value operations (``add``, ``mul``, ...).
Raw values are plain Python data so that hot loops pay no wrapper cost:

* rationals: ``int`` or ``fractions.Fraction`` (``int`` preferred when exact),
* Q(zeta_n): a tuple of ``Fraction`` of length ``euler_phi(n)``, the residue
  modulo the n-th cyclotomic polynomial,
* F_p: an ``int`` in ``[0, p)``.

Equality of raw values is plain ``==`` after ``normalize``; every nonzero value
has an exact inverse.  No floating point anywhere.

A field keeps only its representation.  The polynomial algorithms behind
Q(zeta_n) -- Phi_n itself, division with remainder, the extended Euclidean
inverse and the residues x^k mod Phi_n that fold products back -- come from
``polys``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import islice

from .polys import cyclotomic_polynomial, pdivmod, pinvmod, power_residues


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
        self.eq = operator.eq  # == compares int and Fraction by value

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

    Products are reduced eagerly so representatives stay at degree < phi(n),
    through a table of x^(d+j) mod Phi_n; inverses are ``polys.pinvmod``
    against Phi_n over Q.
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
        # _reduction[j] = x^(d+j) mod Phi_n, enough for degree-(2d-2) products
        residues = power_residues(QQ, self.modulus)
        self._reduction = [tuple(r) for r in islice(residues, d, 2 * d - 1)]

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
        return self._residue(pinvmod(QQ, a, self.modulus))

    def _residue(self, coeffs):
        """The raw value of a coefficient list of length at most phi(n)."""
        return tuple(Fraction(x) for x in coeffs) + self.zero[len(coeffs):]

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
                coeffs = pdivmod(QQ, coeffs, self.modulus)[1]
            return self._residue(coeffs)
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
