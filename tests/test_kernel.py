import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gl1zeta import characters, kernel, stepfn, zetagamma
from gl1zeta.basicfn import BasicFunction, basic_fourier_check
from gl1zeta.characters import (MultChar, char_product, trivial_char,
                                unitary_components)
from gl1zeta.corpus import random_char, random_mult_step, random_satake
from gl1zeta.kernel import (Gl1Kernel, gamma_symbol, hankel_component,
                            hankel_convolve, hankel_mellin,
                            homogeneous_identity_check, lemma31_grid,
                            trace_average_check)
from gl1zeta.defaults import DEFAULT_PREC
from gl1zeta.padic import PAdicElt, unit_residues
from gl1zeta.ratfunc import (IdentityReport, RationalFunc, rf_discrepancy,
                             rf_dual_subst, rf_reflected_product)
from gl1zeta.stepfn import (MellinData, MultStepFunction, MultTerm,
                            delta_approximant, indicator_ball, mellin,
                            mellin_invert, unit_indicator)
from gl1zeta.zetagamma import (gamma_closed, gamma_pv, l_factor_satake,
                               normalize_pi)


def test_kernel_eval_at_one():
    for chi in unitary_components(5, 1):
        k = Gl1Kernel(chi)
        assert abs(k.eval(PAdicElt.from_int(5, 1)) - 1) < 1e-14


def test_kernel_eval_at_p():
    k = Gl1Kernel(trivial_char(5))
    assert abs(k.eval(PAdicElt.from_int(5, 5)) - 5 ** -0.5) < 1e-14


def test_kernel_eval_negative_shell():
    k = Gl1Kernel(trivial_char(5))
    x = PAdicElt.from_rational(5, Fraction(1, 5))
    expect = 5 ** 0.5 * cmath.exp(2j * cmath.pi / 5)
    assert abs(k.eval(x) - expect) < 1e-12


def test_trace_average_diagonal_dominant():
    g = [[Fraction(1, 27), 0], [0, 18]]  # diag(3^-3, 2*3^2)
    assert abs(trace_average_check(3, g, 1, 4)) < 1e-10


def test_trace_average_identity_control():
    assert abs(trace_average_check(3, [[1, 0], [0, 1]], 1, 3) - 1) < 1e-12
    assert abs(trace_average_check(2, [[1, 0], [0, 1]], 1, 4) - 1) < 1e-12


def test_trace_average_grid_all_branches():
    for p in (2, 3):
        for l0 in (1, 2):
            for g in lemma31_grid(p, l0):
                v = trace_average_check(p, g, l0, l0 + 3)
                assert abs(v) < 1e-10, (p, l0, g)


def test_trace_average_random_hypothesis_grid():
    # random g with a deep dominant entry and the rest integral
    rng = random.Random(47)
    for _ in range(6):
        p = rng.choice([2, 3])
        deep = Fraction(rng.randrange(1, p ** 3), p ** 3)
        pos = rng.randrange(4)
        ent = [Fraction(rng.randrange(0, 3)) for _ in range(4)]
        ent[pos] = deep
        # dominant entry alone must carry valuation <= -3 after inversion
        if deep.denominator != p ** 3:
            continue
        g = [[ent[0], ent[1]], [ent[2], ent[3]]]
        det = ent[0] * ent[3] - ent[1] * ent[2]
        if det == 0:
            continue
        assert abs(trace_average_check(p, g, 1, 4)) < 1e-10, g


def test_trace_average_guards():
    with pytest.raises(ValueError):
        trace_average_check(5, [[1, 0], [0, 1]], 1, 3)
    with pytest.raises(ValueError):
        trace_average_check(3, [[Fraction(1, 27), 0], [0, 1]], 1, 3)  # L < l0+d
    with pytest.raises(ValueError):
        trace_average_check(3, [[1, 1], [1, 1]], 1, 3)  # singular
    with pytest.raises(ValueError):
        trace_average_check(3, [[Fraction(1, 2), 0], [0, 1]], 1, 3)
    # the cost cap is on d, the largest denominator exponent, not on L
    for p in (2, 3):
        with pytest.raises(ValueError, match="cost cap"):
            trace_average_check(p, [[Fraction(1, p ** 4), 0], [0, 1]], 1, 5)
        with pytest.raises(ValueError, match="cost cap"):
            kernel._phase_counts(p, [[1, 0], [0, Fraction(1, p ** 40)]], 1, 41)


def test_gamma_symbol_rank1():
    sym = gamma_symbol([trivial_char(5)], 1, p=5)
    assert IdentityReport(sym.component(trivial_char(5)),
                          gamma_closed(trivial_char(5))).ok()


def test_gamma_symbol_satake_l_ratio():
    # n=2 alpha=(a, 1/a): product of rank-1 gammas equals eps*L(1-s,~)/L(s,.)
    a = cmath.exp(0.9j)
    p = 3
    sym = gamma_symbol([a, 1 / a], 0, p=p)
    got = sym.component(trivial_char(p))
    lhs = rf_dual_subst(l_factor_satake(p, [1 / a, a])) / l_factor_satake(p, [a, 1 / a])
    assert IdentityReport(got, lhs).ok(1e-9)


def test_gamma_symbol_permutation_invariance():
    alpha = [cmath.exp(0.3j), cmath.exp(-1.2j), 0.5 + 0.1j]
    s1 = gamma_symbol(alpha, 1, p=5)
    s2 = gamma_symbol(list(reversed(alpha)), 1, p=5)
    for w in unitary_components(5, 1):
        assert IdentityReport(s1.component(w), s2.component(w)).ok(1e-9)


def test_gamma_symbol_ramified_list():
    chi_r = MultChar(3, 1, (1,), 1.0)
    sym = gamma_symbol([chi_r, trivial_char(3)], 1, p=3)
    for w in unitary_components(3, 1):
        expect = gamma_closed(char_product(chi_r, w)) * gamma_closed(w)
        assert IdentityReport(sym.component(w), expect).ok(1e-9)


def test_gamma_symbol_missing_component():
    sym = gamma_symbol([trivial_char(3)], 0, p=3)
    with pytest.raises(KeyError):
        sym.component(MultChar(3, 1, (1,), 1.0))
    with pytest.raises(KeyError):
        sym.component(trivial_char(5))          # another prime
    with pytest.raises(ValueError):
        gamma_symbol([trivial_char(3)], 0, p=3, route="eager")


@pytest.mark.parametrize("route", ["closed", "pv"])
def test_gamma_symbol_lazy_components_match_eager_product(route):
    # every component, built on first read, is bit-identical to the product
    # of rank-1 gamma factors computed directly
    for p, c_max, params in [
            (5, 2, [MultChar(5, 1, (1,), 0.6 + 0.8j), 1.3 - 0.2j]),
            (2, 3, [MultChar(2, 2, (1,), 1.0), trivial_char(2)])]:
        sym = gamma_symbol(params, c_max, p=p, route=route)
        assert sym.components == {}
        for w in unitary_components(p, c_max):
            expect = RationalFunc.one(p)
            for c in normalize_pi(params, p):
                prod = char_product(c, w)
                expect = expect * (gamma_closed(prod) if route == "closed"
                                   else gamma_pv(prod).rhs)
            for got in (sym.component(w), sym.component(w)):
                assert got.num.coeffs == expect.num.coeffs
                assert got.den.coeffs == expect.den.coeffs
        assert len(sym.components) == len(unitary_components(p, c_max))


def test_hankel_two_routes_agree():
    rng = random.Random(53)
    cases = [(random_char(rng, p, 1), random_mult_step(rng, p))
             for p in (3, 5, 7) for _ in range(6)]
    # p = 2 has no character of conductor 1: chi_pi of conductor 2 and 3
    # meets the edge of the shell skip rule d > max(cond, k, 1)
    for w in unitary_components(2, 3):
        if w.cond >= 2:
            t = cmath.exp(2j * cmath.pi * rng.random())
            cases += [(MultChar(2, w.cond, w.unit_char, t),
                       random_mult_step(rng, 2)) for _ in range(2)]
    assert {(chi.p, chi.cond) for chi, _ in cases if chi.p == 2} == {(2, 2), (2, 3)}
    worst = 0.0
    for chi_pi, phi in cases:
        p = chi_pi.p
        c_max = max(phi.max_level(), chi_pi.cond, 1)
        sym = gamma_symbol([chi_pi], c_max, p=p)
        back = mellin_invert(hankel_mellin(phi, sym), -5, 5, c_max)
        table = hankel_convolve(phi, Gl1Kernel(chi_pi), -5, 5, level=c_max)
        for m, rep, v in table.rows:
            worst = max(worst, abs(v - back.eval(rep)))
    assert worst <= 1e-9


def test_hankel_convolve_rejects_a_level_below_phi():
    # rows at level 0 or 1 cannot tell 1 + 25Z_5 from 7(1 + 25Z_5), so they
    # would mix the values of the two cosets: 0.2312-0.1467i at 5^-2 * 7 on
    # level 0, where the level-2 value is -0.2312+0.2462i
    p = 5
    phi = MultStepFunction(p, [MultTerm(1.0, PAdicElt(p, 0, 1, 24), 2),
                               MultTerm(-1.0, PAdicElt(p, 0, 7, 24), 2)])
    kern = Gl1Kernel(trivial_char(p))
    for level in (0, 1):
        with pytest.raises(ValueError, match="below the function's coset level"):
            hankel_convolve(phi, kern, -3, 3, level)
    x = PAdicElt(p, -2, 7, 24)
    value = hankel_convolve(phi, kern, -3, 3, 2).value_at(x)
    assert abs(value - (-0.2312 + 0.2462j)) < 1e-4
    back = mellin_invert(hankel_mellin(phi, gamma_symbol([trivial_char(p)], 2, p=p)),
                         -3, 3, 2)
    assert abs(value - back.eval(x)) < 1e-9


def test_hankel_unit_indicator_hand_values():
    p = 5
    table = hankel_convolve(unit_indicator(p), Gl1Kernel(trivial_char(p)),
                            -3, 3, level=1)
    for m, rep, v in table.rows:
        if m >= 0:
            expect = (1 - 1 / p) * p ** (-m / 2)
        elif m == -1:
            expect = -(1 / p) * p ** 0.5
        else:
            expect = 0.0
        assert abs(v - expect) < 1e-12


def test_hankel_delta_approximant_recovers_symbol():
    # F(delta-approximant) has Mellin components equal to the shifted dual
    # gamma components themselves (its input Mellin data is identically 1)
    p = 5
    phi = delta_approximant(p, 1)
    sym = gamma_symbol([trivial_char(p)], 1, p=p)
    out = hankel_mellin(phi, sym)
    rt = p ** 0.5
    for w in unitary_components(p, 1):
        expect = rf_dual_subst(sym.component(w.inverse())
                               ).subst_monomial(1 / rt, 1)
        got_in = mellin(phi, 1).component(w.inverse())
        assert IdentityReport(got_in, RationalFunc.one(p)).ok(1e-12)
        assert IdentityReport(out.component(w), expect).ok(1e-10)


@pytest.mark.parametrize("route", ["closed", "pv"])
def test_hankel_component_is_the_hankel_mellin_component(route):
    # one component of F phi, read from M(phi)(omega), is bit-identical to
    # the component of the whole transform at omega^(-1); where M(phi)(omega)
    # vanishes it is zero and the symbol builds nothing at omega
    p, c_max = 5, 2
    phi = MultStepFunction(p, [MultTerm(0.7 - 0.3j, PAdicElt(p, -1, 2, 24), 1),
                               MultTerm(-1.1 + 0.4j, PAdicElt(p, 1, 1, 24), 0)])
    params = [MultChar(5, 1, (1,), 0.6 + 0.8j), 1.3 - 0.2j]
    md = mellin(phi, c_max)
    whole = hankel_mellin(phi, gamma_symbol(params, c_max, p=p, route=route))
    sym = gamma_symbol(params, c_max, p=p, route=route)
    nonzero = set()
    for w in unitary_components(p, c_max):
        got = hankel_component(sym, md.component(w), w)
        want = whole.component(w.inverse())
        assert got.num.coeffs == want.num.coeffs
        assert got.den.coeffs == want.den.coeffs
        if md.component(w).is_zero():
            assert got.is_zero() and w not in sym.components
        else:
            nonzero.add(w)
    assert 0 < len(nonzero) < len(unitary_components(p, c_max))
    assert set(sym.components) == nonzero


def _four_step_component(sym, m_in, omega):
    # the Mellin route as a chain of four rational functions: Z(s, phi,
    # omega) = m_in(q^(1/2) X), times Gamma, s -> 1-s, then X -> q^(-1/2) X
    rt_q = float(sym.p) ** 0.5
    z_in = m_in.scale_x(rt_q)
    return rf_dual_subst(sym.component(omega) * z_in).scale_x(1.0 / rt_q)


def _scaled_discrepancy(a, b):
    """rf_discrepancy(a, b) / max(1, largest cross-product coefficient)."""
    scale = max((a.num * b.den).max_abs(), (b.num * a.den).max_abs())
    return rf_discrepancy(a, b) / max(1.0, scale)


def _hankel_cases(route):
    """(symbol, m_in, omega) for polynomial m_in at p = 3 and p = 5 (every
    nonzero component up to conductor 2, ramified and unramified, with
    omega != omega^(-1) at p = 5) and for the rational m_in of a basic
    function."""
    phi_terms = [(0.7 - 0.3j, -1, 2, 1), (-1.1 + 0.4j, 1, 1, 0),
                 (0.5 + 0.9j, 0, 7, 2), (1.3, -2, 4, 1)]
    for p, params in ((3, [MultChar(3, 1, (1,), 0.6 + 0.8j), 1.3 - 0.2j]),
                      (5, [MultChar(5, 1, (1,), 0.6 + 0.8j), 0.9 + 0.1j])):
        phi = MultStepFunction(p, [MultTerm(c, PAdicElt(p, v, u, 24), k)
                                   for c, v, u, k in phi_terms])
        sym = gamma_symbol(params, 2, p=p, route=route)
        for w, m_in in mellin(phi, 2).comps.items():
            yield sym, m_in, w
    for p, alpha in ((3, (0.8 + 0.6j, 1.1)), (5, (0.5j, 1.2 - 0.3j, 0.9))):
        fn = BasicFunction(p, alpha)
        yield (gamma_symbol(list(fn.alpha), 0, p, route=route),
               fn.mellin_component(), trivial_char(p))


@pytest.mark.parametrize("route", ["closed", "pv"])
def test_hankel_component_matches_the_four_step_chain(route):
    cases = list(_hankel_cases(route))
    seen = Counter()
    for sym, m_in, w in cases:
        got = hankel_component(sym, m_in, w)
        want = _four_step_component(sym, m_in, w)
        assert _scaled_discrepancy(got, want) <= 1e-14
        seen["ramified" if w.cond else "unramified"] += 1
        seen["rational" if len(m_in.den.coeffs) > 1 else "polynomial"] += 1
        seen["odd"] += w.inverse() != w
    assert min(seen.values()) > 0 and len(seen) == 5
    # the shift on Gamma is q^(-1/2): at q^(+1/2) every case disagrees
    for sym, m_in, w in cases:
        wrong = rf_reflected_product(sym.component(w), m_in,
                                     float(sym.p) ** 0.5)
        want = _four_step_component(sym, m_in, w)
        assert _scaled_discrepancy(wrong, want) > 1e-3


def test_hankel_component_builds_one_rational_function(monkeypatch):
    # work count, no clock: with the symbol component already read, one
    # hankel_component call constructs exactly one RationalFunc
    p = 5
    omega = MultChar(p, 1, (1,), 1.0)
    sym = gamma_symbol([MultChar(p, 1, (3,), 0.6 + 0.8j), 1.3 - 0.2j], 1, p=p)
    phi = MultStepFunction(p, [MultTerm(0.7 - 0.3j, PAdicElt(p, -1, 2, 24), 1),
                               MultTerm(1.5, PAdicElt(p, 1, 3, 24), 1)])
    m_in = stepfn.mellin_component(phi, omega)
    sym.component(omega)
    built = []
    post_init = RationalFunc.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(RationalFunc, "__post_init__", counting_post_init)
    out = hankel_component(sym, m_in, omega)
    assert len(built) == 1 and built[0] is out
    assert not out.is_zero()


def test_verify_fe_builds_one_pv_component(monkeypatch):
    # the mult branch reads the Hankel transform at omega^(-1) alone, so its
    # pv symbol builds the one component that enters the verdict
    symbols = []

    def recording_symbol(*args, **kwargs):
        symbols.append(gamma_symbol(*args, **kwargs))
        return symbols[-1]

    monkeypatch.setattr(kernel, "gamma_symbol", recording_symbol)
    rng = random.Random(61)
    for p in (3, 5):
        symbols.clear()
        phi = random_mult_step(rng, p)
        chi = random_char(rng, p, 1)
        rep = zetagamma.verify_fe(phi, chi, [random_char(rng, p, 1)])
        assert rep.max_coeff_diff <= 1e-9
        (pv,) = [sym for sym in symbols if sym.route == "pv"]
        assert len(mellin(phi).nonzero_components()) > 1
        assert list(pv.components) == [chi.unitary_part()]


def test_one_component_checks_integrate_one_component(monkeypatch):
    # verify_fe (mult branch) and homogeneous_identity_check compare
    # M(phi)(omega) alone, so they integrate phi against omega once and never
    # build the whole Mellin transform
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("mellin", "mellin_component"):
        wrapped = counting(name, getattr(stepfn, name))
        for module in (stepfn, kernel, zetagamma):
            monkeypatch.setattr(module, name, wrapped, raising=False)
    rng = random.Random(71)
    for p in (3, 5):
        phi = random_mult_step(rng, p)
        chi = random_char(rng, p, 2, unitary_t=False)
        pi = [random_char(rng, p, 1)]
        calls.clear()
        zetagamma.verify_fe(phi, chi, pi)
        assert calls == {"mellin_component": 1}
        calls.clear()
        homogeneous_identity_check(chi, pi, phi)
        assert calls == {"mellin_component": 1}


def test_hankel_linearity():
    rng = random.Random(59)
    p = 3
    sym = gamma_symbol([random_char(rng, p, 1)], 2, p=p)
    f1, f2 = random_mult_step(rng, p), random_mult_step(rng, p)
    a, b = 1.3 - 0.2j, -0.4 + 2j
    lhs = hankel_mellin(a * f1 + b * f2, sym)
    r1 = hankel_mellin(f1, sym)
    r2 = hankel_mellin(f2, sym)
    for w in unitary_components(p, 2):
        zero = RationalFunc.zero(p)
        want = r1.comps.get(w, zero).scale(a) + r2.comps.get(w, zero).scale(b)
        assert IdentityReport(lhs.comps.get(w, zero), want).ok(1e-10)


def test_hankel_support_bookkeeping():
    # phi on S_0: evaluation at x in S_m only sees kernel shell S_m
    p = 3
    phi = unit_indicator(p)
    kern = Gl1Kernel(trivial_char(p))
    table = hankel_convolve(phi, kern, -2, 2, level=0)
    from gl1zeta.zetagamma import shell_psi_chi_integral
    one = PAdicElt(p, 0, 1, 24)
    for m, rep, v in table.rows:
        shell = shell_psi_chi_integral(p, m, trivial_char(p), b=one, brute=True)
        assert abs(v - shell * p ** (-m / 2)) < 1e-12


def test_hankel_convolve_refinement_invariance():
    # evaluating on a finer coset grid must refine, not change, the values
    rng = random.Random(71)
    p = 3
    phi = random_mult_step(rng, p, max_level=1)
    kern = Gl1Kernel(random_char(rng, p, 1))
    coarse = hankel_convolve(phi, kern, -3, 3, level=1)
    fine = hankel_convolve(phi, kern, -3, 3, level=3)
    for m, rep, v in fine.rows:
        assert abs(v - coarse.value_at(rep)) < 1e-12


def test_homogeneous_identity_trivial():
    rep = homogeneous_identity_check(trivial_char(5), trivial_char(5),
                                     unit_indicator(5))
    assert rep.max_coeff_diff <= 1e-10
    assert rep.max_coeff_diff == rf_discrepancy(rep.lhs, rep.rhs)


def test_homogeneous_identity_corpus():
    rng = random.Random(61)
    for _ in range(12):
        p = rng.choice([3, 5])
        chi = random_char(rng, p, 2)
        pi = ([random_char(rng, p, 1)] if rng.random() < 0.5
              else random_satake(rng, 2))
        rep = homogeneous_identity_check(chi, pi, random_mult_step(rng, p))
        assert rep.max_coeff_diff <= 1e-9


def test_homogeneous_identity_scaling_covariance():
    rng = random.Random(67)
    p = 5
    phi0 = random_mult_step(rng, p)
    a = PAdicElt(p, 1, 3, 24)
    chi = random_char(rng, p, 1)
    r1 = homogeneous_identity_check(chi, trivial_char(p), phi0)
    r2 = homogeneous_identity_check(chi, trivial_char(p), phi0.scaled_arg(a))
    assert r1.max_coeff_diff <= 1e-9 and r2.max_coeff_diff <= 1e-9


_CHI_UNRAMIFIED = MultChar(5, 0, (), 0.6 + 0.8j)
_SATAKE = [0.6 + 0.8j, 1.0]

# every check that reads gamma, on inputs whose two sides are nonzero: with
# M(phi)(omega) = 0 both sides vanish whatever gamma is
_GAMMA_CHECKS = {
    "gamma_pv": lambda: gamma_pv(
        next(c for c in unitary_components(5, 2) if c.cond == 2)),
    "verify_fe_step": lambda: zetagamma.verify_fe(
        indicator_ball(5, None, 0), _CHI_UNRAMIFIED, [trivial_char(5)]),
    "verify_fe_mult": lambda: zetagamma.verify_fe(
        unit_indicator(5), _CHI_UNRAMIFIED, _SATAKE),
    "homogeneous_identity_check": lambda: homogeneous_identity_check(
        _CHI_UNRAMIFIED, _SATAKE, unit_indicator(5)),
    "basic_fourier_check": lambda: basic_fourier_check(_SATAKE, 5),
}


@pytest.mark.parametrize("name", list(_GAMMA_CHECKS))
def test_check_fails_on_a_wrong_gamma(monkeypatch, name):
    # a check whose two sides are one expression passes whatever gamma is;
    # each of these compares a gamma-free route with gamma_closed
    check = _GAMMA_CHECKS[name]
    assert check().max_coeff_diff <= 1e-10
    closed = zetagamma.gamma_closed

    def wrong(chi):
        return (closed(chi) * RationalFunc.monomial(chi.p, 1, 3.0)
                + RationalFunc.const(chi.p, 0.5))

    for module in (kernel, zetagamma):
        monkeypatch.setattr(module, "gamma_closed", wrong)
    assert check().max_coeff_diff > 0.1


def test_hankel_convolve_work_counts(monkeypatch):
    # Work counts, no clock.  A repeated call builds no PAdicElt (the row
    # representatives are shared) and one kernel row per (valuation, level)
    # of the input shells it does not skip; the rows' entries are the
    # distinct keys (valuation, unit mod p^max(cond, d), level), d =
    # -valuation, each computed once, and a level-0 row is one integral.
    # Every key of the plain loop over all (row, coset) pairs that it skips
    # lies below the kernel's support, d > max(cond, level, 1), and
    # brute-sums to 0 within the roundoff bound gamma_(n+40) * mass of its
    # n-term unit sum (as `_guard_roundoff`).
    p = 3
    chi = MultChar(p, 1, (1,), 1.3 - 0.4j)
    phi = MultStepFunction(p, [
        MultTerm(1 + 0.5j, PAdicElt(p, -1, 2, 24), 2),
        MultTerm(-0.3 + 1j, PAdicElt(p, 1, 4, 24), 1),
        MultTerm(2.0, PAdicElt(p, 0, 1, 24), 0)])
    kern = Gl1Kernel(chi)
    hankel_convolve(phi, kern, -5, 5, level=2)   # fills the shared caches
    built, rows, calls = [], [], []
    post_init = PAdicElt.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_row(k, val, level):
        row = kernel_row(k, val, level)
        rows.append((val, level, row))
        return row

    def counting_integral(k, val, unit, level):
        calls.append((val, unit, level))
        return coset_integral(k, val, unit, level)

    kernel_row, coset_integral = kernel._kernel_row, kernel.kernel_coset_integral
    monkeypatch.setattr(PAdicElt, "__post_init__", counting_post_init)
    monkeypatch.setattr(kernel, "_kernel_row", counting_row)
    monkeypatch.setattr(kernel, "kernel_coset_integral", counting_integral)
    table = hankel_convolve(phi, kern, -5, 5, level=2)
    assert len(table.rows) == 11 * 6 and built == []
    assert len(rows) == len({(val, level) for val, level, _ in rows}) == 22
    keys = [(val, r, level) for val, level, row in rows for r in _unit_slots(p, row)]
    assert len(keys) == len(set(keys)) == 48
    assert calls == [(val, 1, 0) for val, level, _ in rows if level == 0]
    assert len(calls) == 7
    every = set()          # the keys of the plain loop, 66 rows x 3 cosets
    for m in range(-5, 6):
        for u in unit_residues(p, 2):
            for rep_val, (rep_k, coeffs) in phi._shells.items():
                val = m + rep_val
                every.update((val, u * c_unit % p ** max(chi.cond, -val), rep_k)
                             for c_unit in coeffs)
    assert len(every) == 114 and set(keys) <= every
    for val, unit, level in every - set(keys):
        assert -val > max(chi.cond, level, 1)
        unit = unit if level else 1      # as kernel_coset_integral reads it
        value = zetagamma.coset_integral(kern.chi_inv, level, val, unit,
                                         DEFAULT_PREC, val, unit, DEFAULT_PREC,
                                         brute=True)
        top = max(level, 1, chi.cond, -val)
        n = p ** (top - level) if level else p ** top - p ** (top - 1)
        mass = n * p ** -top * abs(kern.chi_inv.value_at(val, unit, DEFAULT_PREC))
        nc = (n + 40) * 2.0 ** -53
        assert abs(value) <= nc / (1 - nc) * mass, (val, unit, level, value)


def _unit_slots(p: int, row: list[complex]) -> list[int]:
    """The indices of a kernel row that hold values: the units mod len(row),
    a power of p (0 alone when it is 1)."""
    mod = len(row)
    return [r % mod for r in range(1, mod + 1) if r % p]


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_kernel_rows_keep_the_values_of_the_coset_integral(p):
    # == against kernel_coset_integral at two units congruent to each entry's
    # residue (r and r + p^max(cond, d)), for every row hankel_convolve can
    # build at val in [-4, 3] and level 0-3 (rows below the kernel's support
    # are skipped there), t unitary and not.  A row has one slot per residue
    # mod p^max(cond, d); the slots of non-units are never read.  Every
    # character of conductor <= 3 with p^cond <= 343, except that at p = 7
    # only every 8th of the 252 of conductor 3 is taken, and rows mod 125
    # and 343 are compared at every (mod // 20)-th unit (6 and 17, both
    # prime to p); smaller rows at every unit.  Whole, p = 7 took 29 s.
    # chi^(-1)(p^val) computed as t ** val for val < 0, instead of
    # (1/t) ** (-val) as MultChar.value_at does, fails here.
    chars = [w for w in unitary_components(p, 3) if p ** w.cond <= 343]
    chars = ([w for w in chars if w.cond < 3]
             + [w for w in chars if w.cond == 3][::8 if p == 7 else 1])
    assert len(chars) == {2: 4, 3: 18, 5: 100, 7: 74}[p]
    for w in chars:
        for t in (cmath.rect(1.0, 0.7), cmath.rect(1.3, -1.9)):
            kern = Gl1Kernel(MultChar(p, w.cond, w.unit_char, t))
            for val in range(-4, 4):
                mod = p ** max(w.cond, -val, 0)
                for level in range(4):
                    if zetagamma.vanishes_by_oscillation(-val, w.cond, level):
                        continue
                    row = kernel._kernel_row(kern, val, level)
                    assert len(row) == mod, (w, val, level)
                    for r in _unit_slots(p, row)[::1 if mod < 100 else mod // 20]:
                        for u in (r or mod, r + mod):
                            assert kernel.kernel_coset_integral(
                                kern, val, u, level) == row[r], (w, t, val, level, u)


def test_hankel_routes_refuse_mixed_primes():
    # phi at p = 3 against a kernel and a gamma symbol at p = 5: both routes
    # refuse with the same ValueError, before reading any symbol component
    phi = unit_indicator(3)
    chi = trivial_char(5)
    with pytest.raises(ValueError, match="mixed primes 3, 5"):
        hankel_convolve(phi, Gl1Kernel(chi), -2, 2, level=0)
    sym = gamma_symbol([chi], 1, p=5)
    with pytest.raises(ValueError, match="mixed primes 3, 5"):
        hankel_mellin(phi, sym)
    assert sym.components == {}


@pytest.mark.parametrize("p, c", ((3, 1), (5, 2)))
def test_empty_window_is_refused(p, c):
    # m_lo > m_hi is a ValueError on both routes, whatever the data, as the
    # CLI refuses it with hankel/shells
    phi = unit_indicator(p)
    with pytest.raises(ValueError, match=r"empty window \[2, 1\]"):
        hankel_convolve(phi, Gl1Kernel(trivial_char(p)), 2, 1, level=c)
    for data in (MellinData(p, c), mellin(phi, c)):
        with pytest.raises(ValueError, match=r"empty window \[2, 1\]"):
            mellin_invert(data, 2, 1, c)


def test_hankel_check_work_counts(monkeypatch):
    # Work counts, no clock, over both routes of one Hankel check as the
    # benchmark runs it.  A product of two ramified characters is reduced
    # once per (p, conductors, exponent vectors), the inverse of a character
    # with t = 1 + 0j is shared, and every representative is PAdicElt.at.
    # So a second check whose unit characters repeat (other t, other
    # coefficients, the same cosets) reduces no product, builds no PAdicElt
    # and builds no character with t = 1 + 0j.
    p, c_max = 5, 2
    terms = [MultTerm(0.3 - 1j, PAdicElt.at(p, -1, 7), 2),
             MultTerm(1.2, PAdicElt.at(p, 1, 3), 1),
             MultTerm(-0.5j, PAdicElt.at(p, 0, 1), 0)]
    phi = MultStepFunction(p, terms)
    phi2 = MultStepFunction(p, [MultTerm(t.coeff * (2 - 1j), t.rep, t.k)
                                for t in terms])
    chars, elts = [], []
    char_init, elt_init = MultChar.__post_init__, PAdicElt.__post_init__

    def counting_char_init(self):
        char_init(self)
        chars.append(self)

    def counting_elt_init(self):
        elts.append(self)
        elt_init(self)

    def check(chi, f):
        sym = gamma_symbol([chi], c_max, p=p)
        back = mellin_invert(hankel_mellin(f, sym), -5, 5, c_max)
        table = hankel_convolve(f, Gl1Kernel(chi), -5, 5, level=c_max)
        return max(abs(v - back.eval(rep)) for _, rep, v in table.rows)

    monkeypatch.setattr(MultChar, "__post_init__", counting_char_init)
    monkeypatch.setattr(PAdicElt, "__post_init__", counting_elt_init)
    reductions = characters._product_reduction.cache_info
    start = reductions()
    assert check(MultChar(p, 1, (1,), 0.6 + 0.8j), phi) < 1e-9
    first = reductions()
    lookups = first.hits + first.misses - start.hits - start.misses
    # one lookup per ramified component of the symbol: omega of conductor
    # 1 and 2 (3 + 16), less those M(phi) leaves at zero
    assert 0 < lookups <= 19 and first.misses - start.misses <= lookups
    assert chars
    del chars[:], elts[:]
    assert check(MultChar(p, 1, (1,), -0.8 + 0.6j), phi2) < 1e-9
    second = reductions()
    assert second.misses == first.misses
    assert second.hits - first.hits == lookups
    assert elts == []
    assert chars and not any(c.t == 1 and math.copysign(1.0, c.t.imag) == 1.0
                             for c in chars)


def test_gamma_symbol_component_work_counts(monkeypatch):
    # Work counts, no clock: a rank-n component is the product of its n
    # rank-1 factors starting from the first, n - 1 multiplications, with
    # the coefficients of the chain RationalFunc.one(p) * f_1 * ... * f_n.
    # The factors are computed up front and read back, so that only the
    # multiplications of the product are counted.
    p = 5
    rng = random.Random(73)
    chis = [random_char(rng, p, 1, unitary_t=False) for _ in range(3)]
    omegas = unitary_components(p, 1)
    prods = {char_product(chi, w) for chi in chis for w in omegas}
    closed = {prod: gamma_closed(prod) for prod in prods}
    pv = {prod: zetagamma.gamma_pv_total(prod) for prod in prods}
    monkeypatch.setattr(kernel, "gamma_closed", closed.__getitem__)
    monkeypatch.setattr(kernel, "gamma_pv_total", pv.__getitem__)
    mul = RationalFunc.__mul__
    calls = []

    def counting_mul(self, other):
        calls.append(other)
        return mul(self, other)

    for route, factor_of in (("closed", closed.__getitem__),
                             ("pv", lambda prod: pv[prod][0])):
        for n in (1, 2, 3):
            for w in omegas:
                expect = RationalFunc.one(p)
                for chi in chis[:n]:
                    expect = expect * factor_of(char_product(chi, w))
                sym = gamma_symbol(chis[:n], 1, p=p, route=route)
                monkeypatch.setattr(RationalFunc, "__mul__", counting_mul)
                calls.clear()
                got = sym.component(w)
                monkeypatch.setattr(RationalFunc, "__mul__", mul)
                assert len(calls) == n - 1, (route, n, w)
                assert got.num.coeffs == expect.num.coeffs
                assert got.den.coeffs == expect.den.coeffs


def test_closed_hankel_mellin_builds_no_ramified_character(monkeypatch):
    # Work counts, no clock: at p = 5, c_max = 2, with chi_pi of conductor 1,
    # a hankel_mellin whose symbol is new builds one MultChar per unramified
    # product chi_pi x omega (the character gamma_closed reads) and none per
    # ramified one, whose eps monomial is read from integers; no shell
    # integral is called
    p, c_max = 5, 2
    chi_pi = MultChar(p, 1, (1,), 0.6 + 0.8j)
    phi = MultStepFunction(p, [MultTerm(0.3 - 1j, PAdicElt.at(p, -1, 7), 2),
                               MultTerm(1.2, PAdicElt.at(p, 1, 3), 1),
                               MultTerm(-0.5j, PAdicElt.at(p, 0, 1), 0)])
    want = hankel_mellin(phi, gamma_symbol([chi_pi], c_max, p=p))  # fills caches
    sym = gamma_symbol([chi_pi], c_max, p=p)
    built, shells = [], []
    char_init = MultChar.__post_init__
    shell = zetagamma.shell_psi_chi_integral

    def counting_char_init(self):
        char_init(self)
        built.append(self)

    def counting_shell(*args, **kwargs):
        shells.append(args)
        return shell(*args, **kwargs)

    monkeypatch.setattr(MultChar, "__post_init__", counting_char_init)
    monkeypatch.setattr(zetagamma, "shell_psi_chi_integral", counting_shell)
    got = hankel_mellin(phi, sym)
    during = list(built)
    products = [char_product(chi_pi, w) for w in sym.components]
    unramified = [prod for prod in products if not prod.cond]
    assert len(unramified) == 1 and len(products) > 10
    assert during == unramified and shells == []
    assert list(got.comps) == list(want.comps)
    for w, comp in got.comps.items():
        assert comp.num.coeffs == want.comps[w].num.coeffs
        assert comp.den.coeffs == want.comps[w].den.coeffs


def test_mellin_invert_work_counts(monkeypatch):
    # Work counts, no clock: on a Hankel entry (p = 5, c_max = 1, chi_pi
    # ramified) mellin_invert writes its shell table in integers, with no
    # PAdicElt and no MultTerm
    p = 5
    phi = MultStepFunction(p, [MultTerm(1 - 0.5j, PAdicElt(p, -1, 3, 24), 1),
                               MultTerm(0.7, PAdicElt(p, 1, 1, 24), 0)])
    sym = gamma_symbol([MultChar(p, 1, (1,), 0.8 + 0.6j)], 1, p=p)
    md = hankel_mellin(phi, sym)
    built = Counter()
    for cls in (PAdicElt, MultTerm):
        def counting(self, *args, init=cls.__init__, name=cls.__name__):
            built[name] += 1
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    back = mellin_invert(md, -5, 5, 1)
    assert built == {}
    assert back.shells() and back.max_level() == 1


def test_kernel_coset_integral_depends_on_the_memo_key_alone():
    # a row of hankel_convolve holds one value per key (valuation, unit mod
    # p^max(cond, -valuation), level), so units congruent modulo that power
    # must give the same bits, at every level
    rng = random.Random(61)
    for p in (3, 5):
        for omega in unitary_components(p, 2):
            kern = Gl1Kernel(MultChar(p, omega.cond, omega.unit_char, 1.3 - 0.4j))
            for val in range(-4, 3):
                mod = p ** max(omega.cond, -val)
                for level in (0, 1, 2):
                    for _ in range(3):
                        u = rng.choice([n for n in range(1, p * mod) if n % p])
                        want = kernel.kernel_coset_integral(kern, val, u, level)
                        others = [v for v in range(u + mod, u + p * p * mod, mod)
                                  if v % p]
                        for v in others[:2] + others[-1:]:
                            assert kernel.kernel_coset_integral(
                                kern, val, v, level) == want, (p, omega, val, level, u)


def _plain_phases(p, g, l0, L):
    """The triple loop over (a, b, c) that `trace_average_check` replaces:
    p^d and the phase mod p^d of each coset, in loop order, recomputed from
    h = [[a, b], [c, (1 + bc)/a]]."""
    entries = [Fraction(g[i][j]) for i in range(2) for j in range(2)]
    # the least d with every (p-power) denominator dividing p^d
    d = next(k for k in range(L + 1)
             if all(p ** k % e.denominator == 0 for e in entries))
    modD, modL = p ** d, p ** L
    n00, n01, n10, n11 = (int(e * modD) % modD for e in entries)
    span, step = p ** (L - l0), p ** l0
    phases = []
    for ia in range(span):
        a = (1 + step * ia) % modL
        a_inv = pow(a, -1, modL)
        for ib in range(span):
            b = (step * ib) % modL
            for ic in range(span):
                c = (step * ic) % modL
                dd = ((1 + b * c) * a_inv) % modL
                phases.append((n00 * a + n01 * c + n10 * b + n11 * dd) % modD)
    return modD, phases


def _plain_trace_average(p, g, l0, L):
    """The plain loop's phase counts N_j, and sum_j N_j roots[j] / count in
    ascending j, with the root table in exp form."""
    modD, phases = _plain_phases(p, g, l0, L)
    counts = [0] * modD
    for phase in phases:
        counts[phase] += 1
    roots = [cmath.exp(2j * cmath.pi * r / modD) for r in range(modD)]
    return counts, sum(n * root for n, root in zip(counts, roots)) / len(phases)


def _float_trace_average(p, g, l0, L):
    """The plain loop summing one root per coset, in loop order."""
    modD, phases = _plain_phases(p, g, l0, L)
    roots = [cmath.exp(2j * cmath.pi * r / modD) for r in range(modD)]
    total = 0.0 + 0.0j
    for phase in phases:
        total += roots[phase]
    return total / len(phases)


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2^-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, 3.3-3.5)."""
    nu = n * 2.0 ** -53
    return nu / (1.0 - nu)


def test_trace_average_matches_plain_loop():
    cases = [(p, g, l0, l0 + 3) for p in (2, 3) for l0 in (1, 2)
             for g in lemma31_grid(p, l0)]
    cases.append((3, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], 1, 3))
    # the grid's lower-right entries are integral, so its phase slopes miss
    # the n11 * b / a term, which needs d > 2 l0 to survive mod p^d
    for p in (2, 3):
        for den in (p ** 2, p ** 3):
            g = [[Fraction(1, p), Fraction(1, p * p)], [Fraction(2, p), Fraction(5, den)]]
            cases += [(p, g, 1, 4), (p, g, 2, 5)]
    # every valid L at p in {2, 3}, l0 in {1, 2, 3}, and each denominator
    # exponent d (d = 0, 0 < d <= l0, d > l0): a generic matrix, one whose
    # slopes n11 b / a meet p^d in several gcds, and one whose slopes all
    # vanish mod p^d
    for p in (2, 3):
        for l0 in (1, 2, 3):
            for L in range(l0 + 1, l0 + 4):
                for d in range(L - l0 + 1):
                    den = Fraction(1, p ** d)
                    cases += [(p, g, l0, L) for g in (
                        [[den, den], [Fraction(1), 5 * den]],
                        [[den, Fraction(0)], [Fraction(0), den]],
                        [[den, Fraction(p)], [den, Fraction(1)]])]
    regimes = set()
    for p, g, l0, L in cases:
        counts, value = _plain_trace_average(p, g, l0, L)
        assert kernel._phase_counts(p, g, l0, L) == counts, (p, g, l0, L)
        got = trace_average_check(p, g, l0, L)
        assert got == value, (p, g, l0, L)
        # the float loop, one root per coset: its n - 1 additions, the
        # kernel's p^d products and p^d - 1 additions, and both divisions
        n = sum(counts)
        assert abs(got - _float_trace_average(p, g, l0, L)) <= _gamma(
            n + len(counts) + 2), (p, g, l0, L)
        # each (a, b) holds p^(L - l0) consecutive cosets in c, whose phases
        # step by the row's slope delta
        modD, phases = _plain_phases(p, g, l0, L)
        gcds = {math.gcd(phases[i + 1] - phases[i], modD)
                for i in range(0, len(phases), p ** (L - l0))}
        regimes.add("d = 0" if modD == 1 else
                    "0 < d <= l0" if modD <= p ** l0 else "d > l0")
        if modD > 1 and max(gcds) > min(modD, p ** l0):
            regimes.add("gcd(delta, p^d) > p^min(d, l0)")
    assert regimes == {"d = 0", "0 < d <= l0", "d > l0",
                       "gcd(delta, p^d) > p^min(d, l0)"}


def _vanishes_exactly(counts: list[int], p: int) -> bool:
    """sum_j N_j zeta^j = 0 for a primitive p^d-th root zeta, p^d =
    len(counts), d >= 1: N_j depends only on j mod p^(d-1)."""
    period = len(counts) // p
    return all(n == counts[j % period] for j, n in enumerate(counts))


def test_trace_average_grid_vanishes_exactly():
    # the integer counts certify the lemma: the average is exactly 0
    for p in (2, 3):
        for l0 in (1, 2):
            for g in lemma31_grid(p, l0):
                assert _vanishes_exactly(kernel._phase_counts(p, g, l0, l0 + 3), p), (p, l0, g)
        # at l0 = 3 psi(tr(g h)) is constant on the subgroup: one phase
        # holds every coset and the average has modulus 1 (the grid is the
        # same at every level, and `lemma31_grid` rejects l0 = 3)
        for g in lemma31_grid(p, 1):
            counts = kernel._phase_counts(p, g, 3, 6)
            assert not _vanishes_exactly(counts, p), (p, g)
            assert sorted(counts)[-2:] == [0, p ** 9], (p, g)
            assert abs(abs(trace_average_check(p, g, 3, 6)) - 1) < 1e-12, (p, g)


def test_trace_average_grid_vanishes_exactly_at_l0_plus_12():
    # no cost cap on L: at L = l0 + 12 the counts are p^(3(L - L')) times
    # those at any valid L' < L, and the certificate holds on the same rows
    for p in (2, 3):
        for l0 in (1, 2):
            for g in lemma31_grid(p, l0):
                counts = kernel._phase_counts(p, g, l0, l0 + 12)
                assert sum(counts) == p ** 36, (p, l0, g)
                assert _vanishes_exactly(counts, p), (p, l0, g)
                assert abs(trace_average_check(p, g, l0, l0 + 12)) <= 1e-15, (p, l0, g)


@pytest.mark.parametrize("p, top", [(2, 341), (3, 215)])
def test_trace_average_float_range(p, top):
    # the float average holds the p^(3(L - l0)) cosets up to 2^1024; past
    # that L is refused before any count is formed
    g = lemma31_grid(p, 1)[0]
    assert abs(trace_average_check(p, g, 1, 1 + top)) <= 1e-15
    with pytest.raises(ValueError, match="float range"):
        trace_average_check(p, g, 1, 2 + top)
    with pytest.raises(ValueError, match="float range"):
        trace_average_check(p, g, 1, 10 ** 12)


def test_trace_average_builds_each_row_once(monkeypatch):
    # the benchmark grid and its identity control: (a, b) runs mod
    # p^max(d, l0), not mod p^L, and each of the 80 + 1 distinct phase rows
    # is walked once per call over one period of its phases, not over all
    # p^(L - l0) cosets (9,597 pairs and 1,637 steps that way); each call
    # reads each of its p^d roots of unity once, in one product with its count
    walked = []
    pairs = []
    steps = []

    class Slope(int):
        # a row's delta: the walk steps along the row by ic * delta
        def __rmul__(self, other):
            steps.append(other)
            return int(other) * int(self)

    class Rows(Counter):
        def __setitem__(self, key, value):
            pairs.append(key)
            super().__setitem__(key, value)

        def items(self):
            rows = [((r0, Slope(delta)), mult)
                    for (r0, delta), mult in super().items()]
            walked.append(rows)
            return rows

    reads = []

    class Root(complex):
        pass

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def read(self, other, _op=getattr(complex, name)):
            reads.append(self)
            return _op(self, other)
        setattr(Root, name, read)
    root_of_unity = kernel.root_of_unity
    monkeypatch.setattr(kernel, "Counter", Rows)
    monkeypatch.setattr(kernel, "root_of_unity", lambda j, n: Root(root_of_unity(j, n)))
    identity = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    # (p, g, l0, L, d), d the largest denominator exponent of g
    cases = [(p, g, l0, l0 + 3, 3) for p in (2, 3) for l0 in (1, 2)
             for g in lemma31_grid(p, l0)]
    cases.append((3, identity, 1, 3, 0))
    rows = []
    for p, g, l0, L, d in cases:
        del walked[:], reads[:]
        trace_average_check(p, g, l0, L)
        (call,) = walked
        keys = [key for key, _ in call]
        assert len(set(keys)) == len(keys)
        assert sum(mult for _, mult in call) == p ** (2 * (L - l0))
        rows.append(len(keys))
        assert len(reads) <= p ** d
    assert (sum(rows[:-1]), rows[-1]) == (80, 1)
    assert (len(pairs), len(steps)) == (661, 109)


def _count_gamma_closed(monkeypatch) -> list:
    """Record every closed rank-1 gamma: each gamma_closed call, by whichever
    module makes it, and each eps monomial a closed symbol builds from
    integer data (`ramified_epsilon`, called by `kernel`)."""
    calls = []
    closed, eps = zetagamma.gamma_closed, zetagamma.ramified_epsilon

    def counting(chi):
        calls.append(chi)
        return closed(chi)

    def counting_eps(*args):
        calls.append(args)
        return eps(*args)

    for module in (kernel, zetagamma):
        monkeypatch.setattr(module, "gamma_closed", counting)
    monkeypatch.setattr(kernel, "ramified_epsilon", counting_eps)
    return calls


def test_pv_component_builds_no_closed_form(monkeypatch):
    # a pv component is the product of pv shell sums alone: neither the
    # closed form nor its discrepancy is built and thrown away
    calls = _count_gamma_closed(monkeypatch)
    sym = gamma_symbol([MultChar(5, 1, (1,), 0.6 + 0.8j), 1.3 - 0.2j], 1, 5,
                       route="pv")
    for w in unitary_components(5, 1):
        sym.component(w)
    assert len(sym.components) == len(unitary_components(5, 1))
    assert calls == []


def test_homogeneous_identity_reads_gamma_from_its_symbol(monkeypatch):
    # the check is verify_fe at chi |.|^(1/2): a closed symbol read at omega,
    # one gamma_closed per constituent, against a pv symbol that builds omega
    # only when M(phi0)(omega) is nonzero
    rng = random.Random(73)
    symbols = []

    def recording_symbol(*args, **kwargs):
        symbols.append(gamma_symbol(*args, **kwargs))
        return symbols[-1]

    monkeypatch.setattr(kernel, "gamma_symbol", recording_symbol)
    calls = _count_gamma_closed(monkeypatch)
    for p, pi in [(5, [random_char(rng, 5, 1), 0.8 + 0.6j]),
                  (3, random_satake(rng, 3))]:
        calls.clear()
        symbols.clear()
        chi = random_char(rng, p, 2)
        rep = homogeneous_identity_check(chi, pi, random_mult_step(rng, p))
        assert rep.max_coeff_diff <= 1e-9
        omega = chi.unitary_part()
        (closed,) = [sym for sym in symbols if sym.route == "closed"]
        (pv,) = [sym for sym in symbols if sym.route == "pv"]
        assert list(closed.components) == [omega]
        assert list(pv.components) in ([], [omega])
        assert len(calls) == len(pi)
