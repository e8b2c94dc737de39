import cmath
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl1zeta.characters import (MultChar, char_product, trivial_char,
                                unitary_components, unramified_char)
from gl1zeta.corpus import random_char, random_mult_step, random_step
from gl1zeta.padic import PAdicElt, psi_value, unit_group
from gl1zeta.ratfunc import (IdentityReport, LaurentPoly, RationalFunc,
                             rf_discrepancy, rf_dual_subst)
from gl1zeta.stepfn import coset_indicator, indicator_ball, unit_indicator
from gl1zeta.zetagamma import (epsilon_factor, gamma_closed,
                               gamma_pv, l_factor, l_factor_satake,
                               psi_chi_coset_integral, shell_psi_chi_integral,
                               verify_fe, zeta)


def test_zeta_unit_shell():
    z = zeta(unit_indicator(5), trivial_char(5))
    assert IdentityReport(z, RationalFunc.const(5, 1 - 1 / 5)).ok()


def test_zeta_full_lattice_geometric_tail():
    q = 5
    z = zeta(indicator_ball(q, None, 0), trivial_char(q))
    expect = RationalFunc(LaurentPoly(q, {0: 1 - 1 / q}),
                          LaurentPoly(q, {0: 1, 1: -q ** 0.5}))
    assert IdentityReport(z, expect).ok()


def test_zeta_principal_unit_coset():
    one5 = PAdicElt.from_int(5, 1)
    f = indicator_ball(5, one5, 1)
    for chi in unitary_components(5, 1):
        # vol(1 + 5 Z_5) regardless of the conductor <= 1 character
        assert IdentityReport(zeta(f, chi), RationalFunc.const(5, 1 / 5)).ok()


def test_zeta_ramified_kills_tail():
    chi = MultChar(5, 1, (1,), 1.0)
    z = zeta(indicator_ball(5, None, 0), chi)
    assert z.is_zero()  # lattice germ has no ramified components


def _zeta_per_coset(phi, chi):
    """Z(s, phi, chi) for a MultStepFunction, one monomial per coset, each
    coset integral of chi taken through the shell kernel."""
    q = phi.p
    total = RationalFunc.zero(q)
    for t in phi.terms:
        m = t.rep.val
        val = (shell_psi_chi_integral(q, m, chi) if t.k == 0
               else psi_chi_coset_integral(t.rep, t.k, chi))
        total = total + RationalFunc.monomial(q, m, t.coeff * val * q ** (m / 2))
    return total


def test_zeta_mult_matches_per_coset_sums():
    rng = random.Random(83)
    for p in (2, 3, 5, 7):
        for i in range(40):
            phi = random_mult_step(rng, p)
            chi = random_char(rng, p, 2, unitary_t=i % 2 == 0)
            got, want = zeta(phi, chi), _zeta_per_coset(phi, chi)
            scale = max(1.0, got.num.max_abs(), want.num.max_abs())
            assert rf_discrepancy(got, want) <= 1e-13 * scale


def test_zeta_mult_vanishing_coset_sum_is_exact_zero():
    # a conductor-2 character is nontrivial on 1 + 5 Z_5, so it integrates
    # to zero over the coset; the result holds no roundoff
    phi = coset_indicator(5, PAdicElt(5, -1, 3, 24), 1)
    omegas = [w for w in unitary_components(5, 2) if w.cond == 2]
    assert len(omegas) == 16
    for w in omegas:
        for t in (1.0, 0.7 + 0.2j):
            assert zeta(phi, MultChar(5, 2, w.unit_char, t)).is_zero()


def test_l_factor():
    assert IdentityReport(l_factor(trivial_char(7)), RationalFunc(
        LaurentPoly.one(7), LaurentPoly(7, {0: 1, 1: -1}))).ok()
    assert IdentityReport(l_factor(MultChar(5, 1, (1,), 1.0)),
                          RationalFunc.one(5)).ok()
    a1, a2 = 0.3 + 0.4j, -0.8j
    lf = l_factor_satake(3, [a1, a2])
    den = (LaurentPoly.one(3) - LaurentPoly.monomial(3, 1, a1)) * \
          (LaurentPoly.one(3) - LaurentPoly.monomial(3, 1, a2))
    assert IdentityReport(lf, RationalFunc(LaurentPoly.one(3), den)).ok()


def _loop_product(x, y):
    """x * y by the double loop over coefficient pairs, with no path for a
    product by the shared 1."""
    out = {}
    for e1, c1 in x.coeffs.items():
        for e2, c2 in y.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0.0) + c1 * c2
    return LaurentPoly(x.q, out)


def _satake_fold(p, alpha):
    """L(s, pi) as the fold 1 * L(s, chi_1) * ... * L(s, chi_n) of rank-1
    L-factors, chi_i(p) = alpha_i, each a RationalFunc (canonicalized) over
    1 - monomial, every product by the double loop: the oracle for the bits
    and errors of `l_factor_satake`."""
    one = LaurentPoly.one(p)
    out = RationalFunc(LaurentPoly(p, {0: 1.0 + 0j}), one)
    for a in alpha:
        chi = unramified_char(p, complex(a))
        lf = RationalFunc(one, one - LaurentPoly.monomial(p, 1, chi.t))
        if lf.num.coeffs != {0: 1}:
            raise ValueError("chi(p) too large: constant term pruned")
        out = RationalFunc(_loop_product(out.num, lf.num),
                           _loop_product(out.den, lf.den))
    if out.num.coeffs != {0: 1}:
        raise ValueError("Satake parameters too large: constant term pruned")
    return out


SATAKE = st.one_of(
    st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
    st.sampled_from([0, complex(0.0, 0.5), complex(-0.5, -0.0), 1e7, -2e7j,
                     1e13, 1e14, 1e-14]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 4]), st.lists(SATAKE, max_size=4))
@example(3, [])
@example(3, [1e7, 2e7])
@example(3, [1e7, 2e7, 0])
@example(3, [1e7, 2e7, 1e14])
@example(3, [0.5, 0])
@example(4, [0.5])
@example(5, [1e12] * 30)
def test_l_factor_satake_keeps_the_bits_and_errors_of_the_rank1_fold(p, alpha):
    try:
        want = repr(_satake_fold(p, alpha))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            l_factor_satake(p, alpha)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    assert repr(l_factor_satake(p, alpha)) == want


@pytest.mark.parametrize("t", [1e13, -1e14j, 1e20])
def test_l_factor_pruned_constant_term_raises(t):
    # |t| this large makes relative pruning drop the 1 of 1 - tX; unguarded,
    # L(s, chi) became -1/(t X) over 1, a factor without its pole, and so did
    # gamma_closed (at t and at 1/t, through L(1 - s, chi^(-1)))
    with pytest.raises(ValueError):
        l_factor(unramified_char(5, t))
    with pytest.raises(ValueError):
        gamma_closed(unramified_char(5, t))
    with pytest.raises(ValueError):
        gamma_closed(unramified_char(5, 1 / t))


@pytest.mark.parametrize("t", [1e12, -1e12j, 1e-12, 0.5])
def test_l_factor_large_kept_constant_term_passes(t):
    lf = l_factor(unramified_char(5, t))
    assert lf.num.coeffs == {0: 1} and lf.den.coeffs == {0: 1, 1: -t}


def test_epsilon_unramified_is_one():
    assert IdentityReport(epsilon_factor(unramified_char(5, 2.0j)),
                          RationalFunc.one(5)).ok()


def test_epsilon_quadratic_unitary():
    # |Gauss sum| = sqrt(p) makes |eps(1/2 + it)| = 1
    for p in (3, 5, 7):
        table = unit_group(p, 1)
        order = table.generators[0][1]
        quad = MultChar(p, 1, (order // 2,), 1.0)
        eps = epsilon_factor(quad)
        coeffs = eps.num.coeffs
        assert set(coeffs) == {1}
        assert abs(abs(coeffs[1]) - p ** 0.5) < 1e-12
        assert abs(abs(eps.eval_at_s(0.5 + 0.4j)) - 1) < 1e-12


def test_epsilon_conductor_two_degree():
    chi2 = [c for c in unitary_components(3, 2) if c.cond == 2][0]
    eps = epsilon_factor(chi2)
    assert list(eps.num.coeffs) == [2]


def test_psi_inverse_rule_on_the_gauss_shell():
    # psi^(-1)(y) = psi(-y) and y -> -y give
    # int_{S_-a} psi(-y) chi^(-1)(y) dy* = chi(-1) int_{S_-a} psi(y) chi^(-1)(y) dy*,
    # the rule gamma(s, chi, psi^(-1)) = chi(-1) gamma(s, chi, psi) that the
    # psi^(-1) identities elsewhere rely on.  Left: a plain per-unit sum over
    # u mod p^a, cosets of volume p^(-a).  Right: the Gauss-sum shell read
    # back from epsilon_factor(chi) = (qX)^a * that shell.
    odd = 0
    for p, conds in ((3, (1, 2)), (5, (1, 2)), (7, (1, 2)), (2, (2, 3))):
        for a in conds:
            for omega in unitary_components(p, a):
                if omega.cond != a:
                    continue
                for t in (1.0, 0.6 + 0.8j, 1.3 - 0.4j):
                    chi = MultChar(p, a, omega.unit_char, t)
                    chi_inv = chi.inverse()
                    plain = 0.0 + 0.0j
                    for u in range(1, p ** a):
                        if u % p:
                            y = PAdicElt(p, -a, u, a)
                            plain += chi_inv.eval(y) * psi_value(y.neg())
                    plain *= float(p) ** -a
                    gauss = epsilon_factor(chi).num.coeffs[a] / float(p) ** a
                    sign = chi.unit_value(-1)
                    odd += abs(sign + 1) < 1e-12
                    assert abs(plain - sign * gauss) <= 1e-12 * abs(gauss), (chi,)
    assert odd  # the set holds odd characters, where the factor is -1


def test_gamma_closed_trivial():
    g = gamma_closed(trivial_char(5))
    expect = RationalFunc(LaurentPoly(5, {0: 1, 1: -1}),
                          LaurentPoly(5, {0: 1, -1: -1 / 5}))
    assert IdentityReport(g, expect).ok()


def test_gamma_closed_ramified_is_monomial():
    chi = MultChar(5, 1, (1,), 0.6 + 0.8j)
    g = gamma_closed(chi)
    assert IdentityReport(g, epsilon_factor(chi)).ok()


def test_gamma_pv_measure_calibration():
    # trivial character: pv sum = (1 - q^{-1} Y^{-1}) / (1 - Y) at Y = q^{s-1/2},
    # i.e. gamma(s) after the X -> q^{1/2} X unshift; compare term by term
    q = 5
    rep = gamma_pv(trivial_char(q))
    # hand form of gamma(s): (1 - X)/(1 - q^{-1} X^{-1})
    hand = RationalFunc(LaurentPoly(q, {0: 1, 1: -1}),
                        LaurentPoly(q, {0: 1, -1: -1 / q}))
    assert rf_discrepancy(rep.rhs, hand) < 1e-12
    assert rep.max_coeff_diff < 1e-12
    assert rep.max_coeff_diff == rf_discrepancy(rep.lhs, rep.rhs)


def test_gamma_pv_agreement_small_corpus():
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        for base in unitary_components(p, 2):
            t = cmath.exp(2j * cmath.pi * rng.random())
            rep = gamma_pv(MultChar(p, base.cond, base.unit_char, t))
            assert rep.ok(1e-9), (p, base.cond, rep.max_coeff_diff)


def test_gamma_pv_ramified_single_shell():
    # conductor-a product: exactly one nonvanishing shell at m = -a
    chi = MultChar(5, 1, (1,), 1.0)
    twist = next(c for c in unitary_components(5, 2)
                 if char_product(chi, c).cond == 2)
    rep = gamma_pv(chi, twist=twist)
    assert set(rep.rhs.num.coeffs) == {2}  # pure monomial X^2
    assert rep.ok(1e-9)


def test_gamma_pv_guard_shells_vanish():
    # guards are computed brute force inside gamma_pv; a huge floor is quiet
    rep = gamma_pv(MultChar(3, 1, (1,), 0.3 - 0.9j), shell_floor=-8)
    assert rep.ok(1e-9)


def test_gamma_pv_guard_shell_roundoff_left_out():
    # at |t| = 100 the guard shell m = -4 sums to roundoff near 1e-10; scaled
    # by q^4 it once landed in the pv result as an X^4 term of 2.1e-7
    chi = MultChar(7, 2, (1,), 100.0)
    rep = gamma_pv(chi)
    assert max(rep.rhs.num.coeffs) <= max(chi.cond, 1)
    assert rep.ok()


def test_gamma_pv_schedule_invariance():
    chi = MultChar(3, 1, (1,), 0.3 - 0.9j)
    r1 = gamma_pv(chi)
    r2 = gamma_pv(chi, shell_floor=-9)
    r3 = gamma_pv(chi, shell_floor=-6)
    assert rf_discrepancy(r1.rhs, r2.rhs) < 1e-12
    assert rf_discrepancy(r1.rhs, r3.rhs) < 1e-12


def test_gamma_unitary_on_critical_line():
    rng = random.Random(23)
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7])
        chi = random_char(rng, p, 2)
        g = gamma_closed(chi)
        t = rng.uniform(-4, 4)
        assert abs(abs(g.eval_at_s(0.5 + 1j * t)) - 1) < 1e-9


def test_gamma_duality_involution():
    # gamma(s, chi, psi) gamma(1-s, chi^(-1), psi^(-1)) = 1, with
    # gamma(s, chi^(-1), psi^(-1)) = chi(-1) gamma(s, chi^(-1), psi)
    rng = random.Random(29)
    for _ in range(15):
        p = rng.choice([2, 3, 5])
        chi = random_char(rng, p, 2, unitary_t=False)
        g1 = gamma_closed(chi)
        g2 = rf_dual_subst(gamma_closed(chi.inverse())).scale(chi.unit_value(-1))
        assert IdentityReport(g1 * g2, RationalFunc.one(p)).ok(1e-9)


def test_verify_fe_lattice_trivial():
    rep = verify_fe(indicator_ball(5, None, 0), trivial_char(5), trivial_char(5))
    assert rep.max_coeff_diff <= 1e-10


def test_verify_fe_step_corpus():
    rng = random.Random(31)
    for _ in range(25):
        p = rng.choice([2, 3, 5, 7])
        rep = verify_fe(random_step(rng, p), random_char(rng, p, 2),
                        random_char(rng, p, 1))
        assert rep.max_coeff_diff <= 1e-9
        assert rep.max_coeff_diff == rf_discrepancy(rep.lhs, rep.rhs)


def test_verify_fe_mult_ramified_exact():
    # C_c^inf input with ramified chi: both sides Laurent monomial data, equal
    rng = random.Random(37)
    for _ in range(10):
        p = rng.choice([3, 5])
        chi = MultChar(p, 1, (1,), cmath.exp(2j * cmath.pi * rng.random()))
        rep = verify_fe(random_mult_step(rng, p), chi, [random_char(rng, p, 1)])
        assert rep.max_coeff_diff <= 1e-9
        assert rep.max_coeff_diff == rf_discrepancy(rep.lhs, rep.rhs)


def test_verify_fe_satake_input():
    rng = random.Random(41)
    alpha = [cmath.exp(0.7j), cmath.exp(-1.1j)]
    rep = verify_fe(random_mult_step(rng, 3), random_char(rng, 3, 1), alpha)
    assert rep.max_coeff_diff <= 1e-9


def test_verify_fe_rejects_step_with_high_rank():
    with pytest.raises(ValueError):
        verify_fe(indicator_ball(5, None, 0), trivial_char(5), [1.0, 1.0])


@st.composite
def ramified_chars(draw):
    """chi of conductor 1..3 (2..3 at p = 2) at p <= 13, with a unitary t or
    one with |t| in [0.5, 1.8]."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    cond = draw(st.integers(2 if p == 2 else 1, 3))
    w = draw(st.sampled_from([w for w in unitary_components(p, cond)
                              if w.cond == cond]))
    r = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.8)))
    return MultChar(p, cond, w.unit_char,
                    cmath.rect(r, draw(st.floats(0, 2 * math.pi))))


@settings(max_examples=60, deadline=None)
@given(ramified_chars())
def test_ramified_gamma_times_its_dual_is_chi_of_minus_one(chi):
    # gamma(s, chi) gamma(1-s, chi^(-1)) = chi(-1), read without the eps
    # shortcut: the product is a constant only if each side is one monomial
    prod = gamma_closed(chi) * rf_dual_subst(gamma_closed(chi.inverse()))
    assert rf_discrepancy(prod, RationalFunc.const(chi.p, chi.unit_value(-1))) <= 1e-12


def test_ramified_gamma_closed_work_counts(monkeypatch):
    # Work counts, no clock: a ramified closed gamma is its eps monomial, one
    # RationalFunc, and eps builds one MultChar, the inverse of chi
    chi = MultChar(7, 2, (3,), 0.6 - 1.1j)
    gamma_closed(chi)                           # fills the shared caches
    built = Counter()
    for cls in (RationalFunc, MultChar):
        def counting(self, post_init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    gamma_closed(chi)
    assert built == {"RationalFunc": 1, "MultChar": 1}
