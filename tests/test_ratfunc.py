import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl1zeta.ratfunc import (IdentityReport, LaurentPoly, NumericError,
                             RationalFunc, ZeroDenominatorError, rf_discrepancy,
                             rf_dual_subst, rf_reflected_product,
                             rf_series_coeffs)

Q = 5


def geom(q, alpha=1.0):
    # 1 / (1 - alpha X)
    return RationalFunc(LaurentPoly.one(q),
                        LaurentPoly.one(q) - LaurentPoly.monomial(q, 1, alpha))


def test_inverse_pair():
    one = RationalFunc.one(Q)
    x = RationalFunc.monomial(Q, 1)
    assert IdentityReport(geom(Q) * (one - x), one).ok()


def test_common_denominator():
    a, b = 0.3 + 0.1j, -0.7j
    lhs = geom(Q, a) + geom(Q, b)
    num = LaurentPoly(Q, {0: 2.0, 1: -(a + b)})
    den = (LaurentPoly.one(Q) - LaurentPoly.monomial(Q, 1, a)) * \
          (LaurentPoly.one(Q) - LaurentPoly.monomial(Q, 1, b))
    assert IdentityReport(lhs, RationalFunc(num, den)).ok()


def test_reflected_product_evaluates_pointwise():
    # a(c / X) * b(1 / X), with denominators and negative exponents on both
    a = RationalFunc(LaurentPoly(Q, {-1: 0.4j, 2: 1.5}),
                     LaurentPoly(Q, {0: 1.0, 1: -0.3 + 0.2j}))
    b = geom(Q, 0.7) * RationalFunc.monomial(Q, -2, 2.0 - 1.0j)
    c = Q ** -0.5
    out = rf_reflected_product(a, b, c)
    for x in (0.3 + 0.4j, -1.7, 2.2j):
        want = a.eval(c / x) * b.eval(1 / x)
        assert abs(out.eval(x) - want) <= 1e-12 * max(1.0, abs(want))
    with pytest.raises(ValueError, match="mixed q"):
        rf_reflected_product(a, geom(3), c)


def test_cancellation_to_one():
    poly = LaurentPoly(Q, {0: 1.0, 1: -1.0})
    assert IdentityReport(RationalFunc(poly, poly), RationalFunc.one(Q)).ok()


def test_division_by_zero_polynomial():
    with pytest.raises(ZeroDenominatorError):
        RationalFunc.one(Q) / RationalFunc.zero(Q)
    with pytest.raises(ZeroDenominatorError):
        RationalFunc(LaurentPoly.one(Q), LaurentPoly.zero(Q))


def test_dual_subst_defining_cases():
    x = RationalFunc.monomial(Q, 1)
    d = rf_dual_subst(x)
    # X -> q^{-1} X^{-1}
    assert IdentityReport(d, RationalFunc.monomial(Q, -1, 1.0 / Q)).ok()
    c = RationalFunc.const(Q, 2.5 - 1j)
    assert IdentityReport(rf_dual_subst(c), c).ok()


def test_dual_subst_numeric_oracle():
    # evaluating the substituted function at s must match the original at 1-s
    rng = random.Random(1)
    a = RationalFunc(LaurentPoly(Q, {0: 1, 1: 0.3 + 0.1j}),
                     LaurentPoly(Q, {0: 1, 1: -0.2j, 2: 0.05}))
    da = rf_dual_subst(a)
    for _ in range(5):
        s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(da.eval_at_s(s) - a.eval_at_s(1 - s)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=4),
       st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=2,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=3))
def test_dual_subst_involution(num_coeffs, den_coeffs):
    num = LaurentPoly(Q, dict(enumerate(num_coeffs, start=-1)))
    den = LaurentPoly.one(Q) + LaurentPoly(Q, dict(enumerate(den_coeffs, start=1)))
    if num.is_zero():
        return
    a = RationalFunc(num, den)
    scale = max(a.num.max_abs(), a.den.max_abs(), 1.0)
    assert rf_discrepancy(rf_dual_subst(rf_dual_subst(a)), a) < 1e-10 * scale ** 2


def test_series_geometric():
    assert rf_series_coeffs(geom(Q, 0.5), 0, 3) == [1, 0.5, 0.25, 0.125]


def test_series_long_division_oracle():
    # (1+X)/(1-X) = 1 + 2X + 2X^2 + ... (long division)
    a = RationalFunc(LaurentPoly(Q, {0: 1, 1: 1}),
                     LaurentPoly(Q, {0: 1, 1: -1}))
    assert rf_series_coeffs(a, 0, 2) == [1, 2, 2]


def test_series_monomial():
    c = 1.5 - 2j
    a = RationalFunc.monomial(Q, 2, c)
    assert rf_series_coeffs(a, 0, 3) == [0, 0, c, 0]


def test_series_of_product_is_convolution():
    rng = random.Random(3)
    for _ in range(10):
        a = RationalFunc(LaurentPoly(Q, {e: complex(rng.uniform(-1, 1)) for e in range(-2, 2)}),
                         LaurentPoly(Q, {0: 1, 1: rng.uniform(-0.5, 0.5), 2: rng.uniform(-0.5, 0.5)}))
        b = RationalFunc(LaurentPoly(Q, {e: complex(rng.uniform(-1, 1)) for e in range(0, 3)}),
                         LaurentPoly(Q, {0: 1, 1: rng.uniform(-0.5, 0.5)}))
        la, lb = a.num.min_exp(), b.num.min_exp()
        hi = 6
        sa = rf_series_coeffs(a, la, hi)
        sb = rf_series_coeffs(b, lb, hi)
        sab = rf_series_coeffs(a * b, la + lb, 4)
        for i, m in enumerate(range(la + lb, 5)):
            conv = sum(sa[u - la] * sb[m - u - lb]
                       for u in range(la, m - lb + 1)
                       if u - la < len(sa) and 0 <= m - u - lb < len(sb))
            assert abs(conv - sab[i]) < 1e-9


def test_equality_is_equivalence():
    # a/b == c/d iff ad - cb ~ 0; reflexive, symmetric, transitive on scaled copies
    a = RationalFunc(LaurentPoly(Q, {0: 2, 1: 1j}), LaurentPoly(Q, {0: 1, 1: 0.5}))
    b = RationalFunc(a.num.scale(3.0), a.den.scale(3.0))
    c = RationalFunc(a.num * a.den, a.den * a.den)
    assert all(IdentityReport(x, y).ok() for x, y in [(a, a), (a, b), (b, c), (a, c)])


def test_canonical_form_den_constant_term_one():
    a = RationalFunc(LaurentPoly(Q, {0: 3.0}),
                     LaurentPoly(Q, {1: 2.0, 2: -1.0}))  # den = 2X - X^2
    assert a.den.coeffs[0] == 1
    assert a.den.min_exp() == 0
    # monomial factor moved into the numerator
    assert a.num.min_exp() == -1


def test_nan_guard():
    import math
    with pytest.raises(ArithmeticError):
        LaurentPoly(Q, {0: complex(math.nan, 0)})


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf),
                                 complex(math.nan, 0)])
def test_non_finite_coefficient_raises(bad):
    with pytest.raises(NumericError):
        LaurentPoly(Q, {0: 1.0, 1: bad, 2: -0.5j})


def test_overflowing_product_raises():
    big = LaurentPoly.monomial(Q, 1, 1e200)
    with pytest.raises(NumericError):
        big * big


def test_all_zero_coefficients_give_zero():
    poly = LaurentPoly(Q, {-1: 0.0, 0: 0j, 3: -0.0})
    assert poly.is_zero() and poly.coeffs == {}


def test_prune_is_relative_to_the_largest_coefficient():
    poly = LaurentPoly(Q, {0: 2.0, 1: 2e-14, 2: 2e-12j, 3: -3.0})
    assert poly.coeffs == {0: 2.0, 2: 2e-12j, 3: -3.0}


# Polynomial fast paths against the general code, bit for bit: repr compares
# every coefficient, signed zeros included (the CLI prints -0.0).

SIGNED = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                   st.sampled_from([0.0, -0.0]))
POLY = st.dictionaries(st.integers(-6, 6), st.builds(complex, SIGNED, SIGNED),
                       max_size=6)


def _series_by_recurrence(a, m_lo, m_hi):
    """The general path of rf_series_coeffs, written out."""
    if a.num.is_zero():
        return [0.0 + 0.0j] * (m_hi - m_lo + 1)
    coeffs = {}
    for m in range(a.num.min_exp(), m_hi + 1):
        c = a.num.coeffs.get(m, 0.0 + 0.0j)
        for k, d in a.den.coeffs.items():
            if k >= 1:
                c -= d * coeffs.get(m - k, 0.0 + 0.0j)
        coeffs[m] = c
    return [coeffs.get(m, 0.0 + 0.0j) for m in range(m_lo, m_hi + 1)]


@settings(max_examples=100, deadline=None)
@given(POLY, st.integers(-8, 8), st.integers(0, 10))
def test_series_of_a_polynomial_keeps_the_recurrence_bits(coeffs, m_lo, width):
    a = RationalFunc.from_poly(LaurentPoly(Q, coeffs))
    assert a.den.coeffs == {0: 1}
    got = rf_series_coeffs(a, m_lo, m_lo + width)
    assert repr(got) == repr(_series_by_recurrence(a, m_lo, m_lo + width))


def _reflect(pa, pb, c):
    """pa(c X^(-1)) * pb(X^(-1)), as rf_reflected_product forms each side."""
    out = {}
    for e1, c1 in pa.coeffs.items():
        c1 *= c ** e1
        for e2, c2 in pb.coeffs.items():
            out[-e1 - e2] = out.get(-e1 - e2, 0.0) + c1 * c2
    return LaurentPoly(pa.q, out)


@settings(max_examples=100, deadline=None)
@given(POLY, POLY, st.sampled_from([Q ** -0.5, 1.0, -0.25, 2 ** -0.5]))
def test_reflected_product_over_one_keeps_the_bits_of_two_reflects(na, nb, c):
    a = RationalFunc.from_poly(LaurentPoly(Q, na))
    b = RationalFunc.from_poly(LaurentPoly(Q, nb))
    got = rf_reflected_product(a, b, c)
    assert got.den is LaurentPoly.one(Q)
    want = RationalFunc(_reflect(a.num, b.num, c), _reflect(a.den, b.den, c))
    assert repr(got) == repr(want)


def _over_general_one(a):
    """`a` over a denominator equal to 1 that is not the shared
    `LaurentPoly.one`, so every operation on it takes the general path."""
    return RationalFunc(a.num, LaurentPoly(Q, {0: 1 + 0j}))


@settings(max_examples=100, deadline=None)
@given(POLY, POLY, st.sampled_from([Q ** -1.0, 1.0, -0.25, 2 ** -0.5, 3.0]),
       st.integers(-4, 4))
def test_polynomial_fast_paths_keep_the_bits_of_the_general_path(na, nb, c, k):
    one = LaurentPoly.one(Q)
    a = RationalFunc.from_poly(LaurentPoly(Q, na))
    b = RationalFunc.from_poly(LaurentPoly(Q, nb))
    ga, gb = _over_general_one(a), _over_general_one(b)
    assert ga.den is not one
    pairs = [(a + b, ga + gb), (a - b, ga - gb), (a * b, ga * gb), (-a, -ga),
             (a.scale_x(c), ga.scale_x(c)),
             (a.subst_monomial(c, 1), ga.subst_monomial(c, 1)),
             (a.subst_monomial(c, -1), ga.subst_monomial(c, -1))]
    for got, want in pairs:
        assert got.den is one
        assert repr(got) == repr(want)
    # the unpruned builds of LaurentPoly against a pruning one
    assert repr(-a.num) == repr(LaurentPoly(Q, {e: -v for e, v in na.items()}))
    assert repr(a.num.shift(k)) == repr(
        LaurentPoly(Q, {e + k: v for e, v in a.num.coeffs.items()}))


@settings(max_examples=100, deadline=None)
@given(POLY)
@example({1: complex(-0.0, 2.0), 3: complex(-0.0, -0.0), -2: complex(1.5, -0.0)})
def test_product_by_the_shared_one_keeps_the_bits_of_the_double_loop(coeffs):
    # x * 1 clears the sign of zero parts, so the written-out product by
    # the shared 1 must too; LaurentPoly(Q, {0: 1+0j}) is not shared and
    # takes the double loop
    one, loop_one = LaurentPoly.one(Q), LaurentPoly(Q, {0: 1 + 0j})
    assert loop_one is not one
    for x in (LaurentPoly(Q, coeffs), LaurentPoly.zero(Q), one, loop_one):
        assert repr(x * one) == repr(x * loop_one)
        assert repr(one * x) == repr(loop_one * x)
        assert (x * one).coeffs.keys() == x.coeffs.keys()


WIDE = st.one_of(st.floats(-1e16, 1e16, allow_nan=False),
                 st.sampled_from([0.0, -0.0, 1e-15, -1e14, 1e13]))


def _raised(build):
    try:
        build()
    except Exception as exc:
        return type(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(st.builds(complex, WIDE, WIDE), st.sampled_from([1, -1]))
@example(complex(0.0, 2.0), 1)
@example(complex(-0.0, 0.0), -1)
@example(complex(1e14, 0.5), 1)
def test_one_minus_keeps_the_bits_of_one_minus_a_monomial(c, e):
    # the 1 of 1 - c X^e is pruned from |c| ~ 1e13 on, and c from
    # |c| ~ 1e-13 down, in both builds
    want = LaurentPoly.one(Q) - LaurentPoly.monomial(Q, e, c)
    assert repr(LaurentPoly.one_minus(Q, e, c)) == repr(want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf),
                                 complex(math.nan, 1.0)])
@pytest.mark.parametrize("e", [1, -1])
def test_one_minus_raises_like_one_minus_a_monomial(bad, e):
    got = _raised(lambda: LaurentPoly.one_minus(Q, e, bad))
    assert got is NumericError
    assert got is _raised(lambda: LaurentPoly.one(Q) - LaurentPoly.monomial(Q, e, bad))
