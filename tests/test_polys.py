import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hopfblocks
from hopfblocks import polys as P
from hopfblocks.fields import QQ, PrimeField


def _random_poly(F, rng, deg: int) -> list:
    """A polynomial of exact degree deg with random coefficients."""
    return [F.random_element(rng) for _ in range(deg)] + [F.random_element(rng, zero_ok=False)]


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_pinvmod_inverts_modulo_m(F):
    rng = random.Random(7)
    inverted = 0
    for _ in range(200):
        m = _random_poly(F, rng, rng.randint(1, 6))
        a = _random_poly(F, rng, rng.randint(0, 8))  # may exceed deg m
        if P.pdeg(P.pgcd(F, a, m)) != 0:
            with pytest.raises(ArithmeticError):
                P.pinvmod(F, a, m)
            continue
        inv = P.pinvmod(F, a, m)
        assert P.pdeg(inv) < P.pdeg(m)
        assert P.pdivmod(F, P.pmul(F, a, inv), m)[1] == [F.one]
        inverted += 1
    assert inverted >= 100


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_pinvmod_raises_without_a_unit_gcd(F):
    rng = random.Random(11)
    for _ in range(50):
        g = _random_poly(F, rng, rng.randint(1, 3))
        m = P.pmul(F, g, _random_poly(F, rng, rng.randint(0, 3)))
        a = P.pmul(F, g, _random_poly(F, rng, rng.randint(0, 4)))
        with pytest.raises(ArithmeticError):
            P.pinvmod(F, a, m)
        with pytest.raises(ArithmeticError):  # a = 0 modulo m
            P.pinvmod(F, P.pmul(F, m, _random_poly(F, rng, 1)), m)
    with pytest.raises(ArithmeticError):
        P.pinvmod(F, [], [F.one, F.one])


def test_polys_import_loads_no_fields():
    # fields imports polys; the edge must not point back
    src = str(Path(hopfblocks.__file__).resolve().parent.parent)
    probe = "import sys, hopfblocks.polys; print('hopfblocks.fields' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
