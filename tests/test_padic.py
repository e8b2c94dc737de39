import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl1zeta.padic import (PAdicElt, PrecisionError, psi_frac, psi_value,
                           shell_volume, unit_group)

PRIMES = (2, 3, 5, 7)


def test_psi_trivial_on_integers():
    for p in PRIMES:
        for n in (1, 7, -4, p, p * p):
            assert psi_value(PAdicElt.from_int(p, n)) == 1


def test_psi_at_1_over_p():
    x = PAdicElt.from_rational(5, Fraction(1, 5))
    assert abs(psi_value(x) - cmath.exp(2j * cmath.pi / 5)) < 1e-14


def test_psi_fractional_part_example():
    x = PAdicElt.from_rational(3, Fraction(4, 9))
    assert abs(psi_value(x) - cmath.exp(2j * cmath.pi * 4 / 9)) < 1e-14


def test_psi_reads_unit_not_rational_mod_one():
    # 1/6 = 3^{-1} * (1/2); its 3-adic fractional part is 2/3, not 1/6
    v = psi_frac(3, Fraction(1, 6))
    assert abs(v - cmath.exp(2j * cmath.pi * 2 / 3)) < 1e-14


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PRIMES),
       st.integers(min_value=-60, max_value=60),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=-60, max_value=60),
       st.integers(min_value=0, max_value=3))
def test_psi_additive(p, n1, e1, n2, e2):
    a = Fraction(n1, p ** e1)
    b = Fraction(n2, p ** e2)
    lhs = psi_frac(p, a + b)
    rhs = psi_frac(p, a) * psi_frac(p, b)
    assert abs(lhs - rhs) < 1e-12


def test_psi_insufficient_precision():
    x = PAdicElt(5, -3, 2, 2)
    with pytest.raises(PrecisionError):
        psi_value(x)


def test_psi_nontrivial_on_first_negative_shell():
    # integral of psi over S_{-1} equals -1/p with vol(S_m) = 1 - 1/p
    for p in PRIMES:
        total = sum(psi_value(PAdicElt(p, -1, u, 1)) for u in range(1, p)) / p
        assert abs(total + 1.0 / p) < 1e-12


def test_shell_volume_translation_invariance():
    # d^x is invariant under x -> p x, so every shell has vol(Z_p^x) and
    # shell_volume takes no shell index
    assert abs(shell_volume(5) - 0.8) < 1e-15
    assert abs(shell_volume(3) - 2 / 3) < 1e-15
    assert abs(shell_volume(2) - 0.5) < 1e-15
    for p in PRIMES:
        # the 1 + p^k Z_p cosets tiling a shell, each of volume p^(-k)
        for k in (1, 2, 3):
            units = sum(1 for u in range(1, p ** k) if u % p)
            assert abs(units * float(p) ** -k - shell_volume(p)) < 1e-15


def test_unit_group_small_cases():
    assert unit_group(5, 1).generators == ((2, 4),)
    assert unit_group(2, 3).generators == ((7, 2), (5, 2))
    assert unit_group(3, 2).generators == ((2, 6),)


def test_unit_group_orders_multiply_to_phi():
    for p, a in [(2, 1), (2, 2), (2, 4), (3, 3), (5, 2), (7, 2), (13, 1)]:
        table = unit_group(p, a)
        phi = p ** a - p ** (a - 1)
        assert table.order() == phi
        assert len(table.dlog) == phi


def test_dlog_exp_identity():
    for p, a in [(3, 2), (5, 2), (2, 4), (7, 1)]:
        table = unit_group(p, a)
        for r, vec in table.dlog.items():
            assert table.exp(vec) == r


def test_arithmetic_and_lift():
    x = PAdicElt.from_rational(7, Fraction(10, 49))
    y = PAdicElt.from_rational(7, Fraction(3, 7))
    z = x.mul(y)
    assert z.val == -3
    back = PAdicElt.from_rational(7, x.lift())
    assert back.val == x.val and back.unit == x.unit
    assert x.mul(x.inv()).val == 0 and x.mul(x.inv()).unit == 1
    s = x.add(x.neg())
    assert s is None  # exact cancellation reads as zero
    w = x.add(y)
    assert w is not None and w.val == -2  # 10/49 + 21/49 = 31/49


def test_from_rational_rejects_zero():
    with pytest.raises(ValueError):
        PAdicElt.from_rational(3, Fraction(0))
