import cmath
import random

import pytest

from gl1zeta.characters import (MultChar, char_product, trivial_char,
                                unitary_components, unramified_char)
from gl1zeta.padic import PAdicElt, PrecisionError, unit_group


def test_unramified_evaluation():
    chi = unramified_char(5, 0.3 - 0.4j)
    x = PAdicElt.from_int(5, 50)  # 5^2 * 2
    assert abs(chi.eval(x) - (0.3 - 0.4j) ** 2) < 1e-14


def test_quadratic_character_mod_5():
    # generator 2 of (Z/5)^x has order 4; exponent 2 is the Legendre symbol
    chi = MultChar(5, 1, (2,), 1.0)
    assert abs(chi.eval(PAdicElt.from_int(5, 2)) + 1) < 1e-14  # (2|5) = -1
    assert abs(chi.eval(PAdicElt.from_int(5, 4)) - 1) < 1e-14  # (4|5) = +1


def test_homomorphism_spot_check():
    rng = random.Random(9)
    for p in (3, 5, 7):
        comps = unitary_components(p, 2)
        for _ in range(10):
            base = rng.choice(comps)
            chi = MultChar(p, base.cond, base.unit_char,
                           cmath.exp(2j * cmath.pi * rng.random()))
            units = [u for u in range(1, p ** 3) if u % p]
            x = PAdicElt(p, rng.randrange(-3, 4), rng.choice(units), 24)
            y = PAdicElt(p, rng.randrange(-3, 4), rng.choice(units), 24)
            assert abs(chi.eval(x.mul(y)) - chi.eval(x) * chi.eval(y)) < 1e-12


def test_eval_needs_conductor_digits():
    chi = MultChar(3, 2, (1,), 1.0)
    with pytest.raises(PrecisionError):
        chi.eval(PAdicElt(3, 0, 2, 1))


def test_product_with_inverse_is_trivial():
    chi = MultChar(5, 1, (1,), 0.5 + 0.2j)
    prod = char_product(chi, chi.inverse())
    assert prod.cond == 0 and prod.unit_char == () and abs(prod.t - 1) < 1e-14


def test_inverse_unit_parts_cancel_conductor():
    a = MultChar(5, 1, (1,), 1.0)
    b = MultChar(5, 1, (3,), 1.0)  # unit parts inverse, distinct characters
    assert a != b
    assert char_product(a, b).cond == 0


def test_product_of_different_conductors():
    c1 = MultChar(3, 1, (1,), 1.0)
    c2 = [c for c in unitary_components(3, 2) if c.cond == 2][0]
    assert char_product(c1, c2).cond == 2


def test_unitary_components_counts():
    assert len(unitary_components(3, 1)) == 2
    assert len(unitary_components(5, 1)) == 4
    assert len(unitary_components(2, 1)) == 1
    assert len(unitary_components(3, 2)) == 6
    assert len(unitary_components(2, 3)) == 4


def test_exact_conductor_invariant():
    # for cond = a >= 1 there is u = 1 mod p^(a-1) with chi(u) != 1
    for p, c_max in [(3, 2), (5, 2), (2, 3), (7, 1)]:
        for chi in unitary_components(p, c_max):
            if chi.cond == 0:
                assert chi.unit_char == ()
                continue
            a = chi.cond
            u = 1 + p ** (a - 1) if a > 1 else None
            if u is None:
                gen = unit_group(p, 1).generators[0][0]
                assert abs(chi.unit_value(gen) - 1) > 1e-9
            else:
                assert abs(chi.unit_value(u) - 1) > 1e-9


def test_eval_depends_only_on_unit_mod_pa_and_valuation():
    chi = MultChar(5, 1, (1,), 2.0j)
    x1 = PAdicElt(5, 3, 2, 24)
    x2 = PAdicElt(5, 3, 2 + 5, 24)  # same residue mod 5
    assert abs(chi.eval(x1) - chi.eval(x2)) < 1e-14


def test_p2_conductor_one_rejected():
    with pytest.raises(ValueError):
        MultChar(2, 1, (), 1.0)
    with pytest.raises(ValueError):
        MultChar(2, 1, (1,), 1.0)


def test_inexact_conductor_rejected():
    # exponent 0 at level 1 would be the trivial character mislabeled
    with pytest.raises(ValueError):
        MultChar(5, 1, (0,), 1.0)
    # the exponent-3 character of (Z/9)^x kills 1+3Z/9: true conductor 1
    with pytest.raises(ValueError):
        MultChar(3, 2, (3,), 1.0)


def test_trivial_char():
    chi = trivial_char(7)
    assert chi.cond == 0 and chi.t == 1
    assert abs(chi.eval(PAdicElt.from_int(7, 21)) - 1) < 1e-15
