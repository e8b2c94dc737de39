import cmath
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl1zeta import basicfn
from gl1zeta.basicfn import (BasicFunction, basic_fourier_check,
                             basic_zeta_check, complete_homogeneous)
from gl1zeta.characters import MultChar, trivial_char, unramified_char
from gl1zeta.ratfunc import (IdentityReport, LaurentPoly, NumericError,
                             RationalFunc, rf_discrepancy, rf_series_coeffs)
from gl1zeta.zetagamma import l_factor_satake


def h_bruteforce(m, alpha):
    total = 0j
    for combo in itertools.combinations_with_replacement(range(len(alpha)), m):
        prod = 1.0 + 0j
        for i in combo:
            prod *= alpha[i]
        total += prod
    return total


def test_h0_is_one():
    assert complete_homogeneous(0, [2.0, -3.0, 1j]) == 1


def test_h2_two_variables():
    a, b = 0.7 + 0.1j, -0.3 + 0.5j
    assert abs(complete_homogeneous(2, [a, b]) - (a * a + a * b + b * b)) < 1e-12


def test_h_geometric_degenerate():
    assert all(abs(complete_homogeneous(m, [1.0]) - 1) < 1e-14 for m in range(7))


def test_h_recurrence_vs_multiset_enumeration():
    rng = random.Random(3)
    for m in range(7):
        for n in range(1, 4):
            alpha = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for _ in range(n)]
            assert abs(complete_homogeneous(m, alpha)
                       - h_bruteforce(m, alpha)) < 1e-9


def test_shell_values_and_support():
    fn = BasicFunction(5, (1.0,))
    assert fn.shell_value(-1) == 0 and fn.shell_value(-3) == 0
    vol = 1 - 1 / 5
    assert abs(fn.shell_value(0) - 1 / vol) < 1e-14
    assert abs(fn.shell_value(2) - 5 ** -1.0 / vol) < 1e-14


def test_zeta_check_rank1_trivial():
    rep = basic_zeta_check([1.0], trivial_char(5))
    # Z = 1/(1 - X), read on the window X^0 .. X^10 of its series
    assert IdentityReport(rep.lhs, RationalFunc.from_poly(
        LaurentPoly(5, {m: 1.0 for m in range(11)}))).ok(1e-14)
    assert rep.ok(1e-12)


def test_zeta_check_cauchy_pair():
    a = 0.8j
    rep = basic_zeta_check([a, 1 / a], trivial_char(3))
    assert rep.ok(1e-10)


def test_zeta_check_unramified_twist_rescales():
    t = cmath.exp(0.4j)
    r1 = basic_zeta_check([0.5 + 0.2j], unramified_char(7, t))
    r2 = basic_zeta_check([(0.5 + 0.2j) * t], trivial_char(7))
    assert r1.ok(1e-10) and r2.ok(1e-10)
    assert IdentityReport(r1.rhs, r2.rhs).ok(1e-10)


def test_zeta_check_requires_unramified():
    with pytest.raises(ValueError):
        basic_zeta_check([1.0], MultChar(5, 1, (1,), 1.0))


def test_zeta_check_repeated_roots_route():
    rep = basic_zeta_check([0.5, 0.5], trivial_char(3))
    assert rep.ok(1e-10) and rep.meta == {}
    assert rep.max_coeff_diff == rf_discrepancy(rep.lhs, rep.rhs)


@pytest.mark.parametrize("gap", [1e-3, 1e-5])
def test_zeta_check_near_coincident_pair(gap):
    # partial fractions in alpha once gave 5.6e-10 at gap 1e-3 and a "shell
    # value mismatch" ArithmeticError at gap 1e-5: weights |c_i| grow like
    # 1/gap; Newton's identities have no weights
    alpha = [cmath.exp(0.5j), cmath.exp((0.5 + gap) * 1j), cmath.exp(2j),
             cmath.exp(-1j)]
    rep = basic_zeta_check(alpha, trivial_char(5))
    assert rep.ok(1e-13)
    assert rep.max_coeff_diff == rf_discrepancy(rep.lhs, rep.rhs)


def test_zeta_check_separated_pair():
    rep = basic_zeta_check([0.6 + 0.8j, 0.6 - 0.8j], trivial_char(3))
    assert rep.ok(1e-12)
    assert rep.max_coeff_diff == rf_discrepancy(rep.lhs, rep.rhs)


@pytest.mark.parametrize("alpha", [[0.5, 0.5], [0.6 + 0.8j, 0.6 - 0.8j]],
                         ids=["repeated", "separated"])
def test_zeta_check_fails_on_a_wrong_l_factor(monkeypatch, alpha):
    # the shell values read no L-factor, so a wrong one shows on the other
    # side: 1.5 times the series moves its constant term by 0.5
    l_factor = basicfn.l_factor_satake
    monkeypatch.setattr(basicfn, "l_factor_satake",
                        lambda p, a: l_factor(p, a).scale(1.5))
    rep = basic_zeta_check(alpha, trivial_char(3))
    assert not rep.ok() and rep.max_coeff_diff >= 0.5 - 1e-12


@pytest.mark.parametrize("alpha", [[1e6, 1e6], [1e3 + 1e3j, 1e3 - 1e3j, 5e2]])
def test_zeta_check_large_parameters_compare_in_scaled_x(alpha):
    # compared unscaled, at window 12 these missed by 1.6e57 (a series
    # window) and by 0.12 (partial fractions)
    rep = basic_zeta_check(alpha, trivial_char(3), window=12)
    assert rep.ok(1e-12)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]),
       st.floats(0.0, 2 * math.pi),
       st.integers(min_value=1, max_value=9),
       st.sampled_from([1, -1]),
       st.lists(st.floats(0.0, 2 * math.pi), max_size=2))
def test_zeta_check_unitary_with_close_pair(p, theta, k, sign, others):
    # unitary Satake lists of rank <= 4 with one pair at gap 10^-k
    alpha = [cmath.exp(1j * theta), cmath.exp(1j * (theta + sign * 10.0 ** -k))]
    alpha += [cmath.exp(1j * phi) for phi in others]
    assert basic_zeta_check(alpha, trivial_char(p)).ok()


def test_fourier_check_rank1_trivial():
    rep = basic_fourier_check([1.0], 5)
    assert rep.ok(1e-12)
    assert rep.max_coeff_diff == rf_discrepancy(rep.lhs, rep.rhs)


def test_fourier_check_self_dual_pair():
    a = 0.3 + 0.4j
    assert basic_fourier_check([a, 1 / a], 3).ok(1e-10)


def test_random_unitary_corpus_with_permutations():
    rng = random.Random(7)
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 5)
        alpha = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n)]
        z = basic_zeta_check(alpha, trivial_char(p))
        f = basic_fourier_check(alpha, p)
        assert z.ok(1e-10) and f.ok(1e-10)
        perm = list(alpha)
        rng.shuffle(perm)
        z2 = basic_zeta_check(perm, trivial_char(p))
        assert IdentityReport(z.rhs, z2.rhs).ok(1e-10)
        assert IdentityReport(z.lhs, z2.lhs).ok(1e-9)


def _per_shell_value(p, m, alpha):
    """One shell value on its own: Newton's identities run up to this m."""
    h = complete_homogeneous(m, alpha)
    return h * float(p) ** (-m / 2.0) / (1.0 - 1.0 / p)


_UNITARY = st.floats(0.0, 2 * math.pi).map(lambda th: cmath.exp(1j * th))
_GENERAL = st.builds(lambda r, th: r * cmath.exp(1j * th),
                     st.floats(0.1, 10.0), st.floats(0.0, 2 * math.pi))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]),
       st.one_of(st.lists(_UNITARY, min_size=1, max_size=4),
                 st.lists(_GENERAL, min_size=1, max_size=4)),
       st.integers(min_value=0, max_value=12))
def test_shell_table_keeps_its_bits(p, alpha, window):
    fn = BasicFunction(p, tuple(alpha))
    assert fn.table(window) == [(m, _per_shell_value(p, m, fn.alpha))
                                for m in range(window + 1)]
    # the L-series is another computation of h_m; h_m(|alpha|) bounds every
    # term of both
    series = rf_series_coeffs(l_factor_satake(2, alpha), 0, window)
    bound = [complete_homogeneous(m, [abs(a) for a in alpha]).real
             for m in range(window + 1)]
    for m, (s, b) in enumerate(zip(series, bound)):
        assert abs(complete_homogeneous(m, alpha) - s) <= 1e-12 * b


def _count_l_factors(monkeypatch) -> list:
    calls = []
    l_factor = basicfn.l_factor_satake

    def counting(p, alpha):
        calls.append(p)
        return l_factor(p, alpha)

    monkeypatch.setattr(basicfn, "l_factor_satake", counting)
    return calls


@pytest.mark.parametrize("alpha", [[0.6 + 0.8j, 0.6 - 0.8j], [0.5, 0.5]],
                         ids=["separated", "repeated"])
def test_zeta_check_builds_one_l_factor(monkeypatch, alpha):
    # the L-factor of the twist alone; the shell values read none
    calls = _count_l_factors(monkeypatch)
    basic_zeta_check(alpha, trivial_char(3))
    assert calls == [3]


@pytest.mark.parametrize("alpha", [[1e7, 2e7], [1e13]])
def test_pruned_constant_term_raises(alpha):
    # |alpha| this large makes the relative pruning drop the 1 of
    # prod (1 - alpha_i X); unguarded, the factor becomes c X^(-1) / (...),
    # with a series of -1/3 (or 0) at X^0.  The shell table reads no
    # L-factor and keeps h_0 = 1; the check still raises on the factor.
    with pytest.raises(ValueError):
        l_factor_satake(3, alpha)
    assert BasicFunction(3, tuple(alpha)).table(2)[0] == (0, 1 / (1 - 1 / 3))
    with pytest.raises(ValueError):
        basic_zeta_check(alpha, trivial_char(3))


def test_shell_window_below_zero_raises():
    with pytest.raises(ValueError, match="empty window"):
        BasicFunction(3, (0.5,)).table(-1)


def test_conjugate_pair_shell_values_are_real():
    # conjugate powers by repeated multiplication cancel exactly in p_k
    fn = BasicFunction(3, (0.6 + 0.8j, 0.6 - 0.8j))
    assert all(v.imag == 0.0 for v in fn.shell_values(30))


def test_overflowing_shell_values_raise_numeric_error():
    with pytest.raises(NumericError):
        BasicFunction(3, (1e200, 1e200)).table(3)


@pytest.mark.parametrize("alpha, values", [
    ([1e12], [1.4999999999999998, 866025403784.4385, 4.999999999999999e+23]),
    ([1e6, 2e6], [1.4999999999999998, 2598076.2113533155, 3499999999999.999]),
])
def test_large_kept_constant_term_passes(alpha, values):
    fn = BasicFunction(3, tuple(alpha))
    assert fn.table(2) == list(enumerate(values))
    assert basic_zeta_check(alpha, trivial_char(3)).ok()
    assert basic_fourier_check(alpha, 3).ok()
