import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl1zeta.corpus import random_mult_step, random_step
from gl1zeta.defaults import DEFAULT_PREC
from gl1zeta.padic import PAdicElt, PrecisionError
from gl1zeta.ratfunc import IdentityReport, RationalFunc
from gl1zeta.stepfn import (MultStepFunction, MultTerm, StepFunction,
                            StepTerm, coset_indicator, delta_approximant,
                            fourier_transform, indicator_ball, mellin,
                            mellin_invert, mult_convolve, mult_distance,
                            step_distance_sq, step_inner, step_l2,
                            unit_indicator)


def test_fourier_self_dual_lattice():
    f = indicator_ball(5, None, 0)
    g = fourier_transform(f)
    (t,) = g.terms
    assert t.rad == 0 and t.center is None and t.twist is None
    assert abs(t.coeff - 1) < 1e-15


def test_fourier_scaled_lattice():
    for p, n in [(3, 2), (5, 1), (2, 3)]:
        g = fourier_transform(indicator_ball(p, None, n))
        (t,) = g.terms
        assert t.rad == -n and abs(t.coeff - float(p) ** (-n)) < 1e-15


def _reflect(f):
    """x -> f(-x): each term's twist and center negated."""
    def neg(x):
        return x.neg() if x is not None else None
    return StepFunction(f.p, [StepTerm(t.coeff, neg(t.twist), neg(t.center), t.rad)
                              for t in f.terms])


def test_fourier_involution_and_plancherel_corpus():
    # F_psi F_psi f = f(-x), the involution F_{psi^(-1)} F_psi = id reflected
    rng = random.Random(71)
    worst_inv = worst_pl = 0.0
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        f = random_step(rng, p)
        ff = _reflect(fourier_transform(fourier_transform(f)))
        scale = max(1.0, step_l2(f))
        worst_inv = max(worst_inv, step_distance_sq(f, ff) / scale)
        worst_pl = max(worst_pl,
                       abs(step_l2(f) - step_l2(fourier_transform(f))) / scale)
    assert worst_inv <= 1e-12
    assert worst_pl <= 1e-12


# 0 (None), or p^val * u with u in 1..60 made a unit: small units meet the
# centers of random_step's balls, which are units mod p^2
_POINT = st.one_of(st.none(), st.tuples(st.integers(-3, 3), st.integers(1, 60)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 2 ** 32),
       st.lists(_POINT, min_size=1, max_size=6))
def test_fourier_twice_evaluates_as_the_reflection(p, seed, points):
    # pointwise: the twisted terms of F F f, evaluated at 0 (None) and at
    # points near and far from each ball, agree with f at -x
    f = random_step(random.Random(seed), p)
    ff = fourier_transform(fourier_transform(f))
    tol = 1e-12 * sum(abs(t.coeff) for t in f.terms)
    for point in points:
        x = None
        if point is not None:
            val, u = point
            x = PAdicElt(p, val, u if u % p else u + 1, DEFAULT_PREC)
        assert abs(ff.eval(x) - f.eval(x and x.neg())) <= tol


@pytest.mark.parametrize("p", [2, 5])
def test_ball_around_zero_holds_its_radius(p):
    # p^rad Z_p holds 0 and the points of valuation >= rad; the property
    # above cannot see this boundary, which F F f and f(-x) share
    for rad in range(-1, 3):
        ball = indicator_ball(p, None, rad)
        assert ball.eval(None) == 1
        for val in (rad - 1, rad, rad + 1):
            x = PAdicElt(p, val, p - 1, DEFAULT_PREC)
            assert ball.eval(x) == (1 if val >= rad else 0)


def test_fourier_closed_form_single_term():
    # F(psi(a.)1_{b+p^n})(y) = p^-n psi(ab) psi(by) 1_{-a+p^-n}(y)
    p = 3
    a = PAdicElt.from_rational(3, __import__("fractions").Fraction(1, 27))
    b = PAdicElt.from_int(3, 2)
    f = StepFunction(p, [StepTerm(1.0, a, b, 2)])
    g = fourier_transform(f)
    (t,) = g.terms
    assert t.rad == -2
    assert t.center is not None and t.center.val == a.val  # center = -a
    assert (t.center.unit + a.unit) % 3 == 0
    assert t.twist is not None and t.twist.unit_mod(1) == b.unit_mod(1)
    # coefficient carries p^{-rad} psi(a b)
    from gl1zeta.padic import psi_value
    assert abs(t.coeff - (1 / 9) * psi_value(a.mul(b))) < 1e-14


def test_mult_convolve_unit_shell():
    for p in (2, 3, 5):
        h = unit_indicator(p)
        c = mult_convolve(h, h)
        assert len(c.terms) == 1
        assert c.terms[0].k == 0 and c.terms[0].rep.val == 0
        assert abs(c.terms[0].coeff - (1 - 1 / p)) < 1e-15


def test_mult_convolve_coset_pair():
    a = coset_indicator(5, PAdicElt(5, 1, 1, 24), 1)
    b = coset_indicator(5, PAdicElt(5, -1, 1, 24), 1)
    c = mult_convolve(a, b)
    assert len(c.terms) == 1
    t = c.terms[0]
    assert t.rep.val == 0 and t.k == 1 and t.rep.unit_mod(1) == 1
    assert abs(t.coeff - 1 / 5) < 1e-16  # vol(1 + 5 Z_5)


def test_delta_approximant_is_convolution_unit():
    rng = random.Random(4)
    for p in (3, 5):
        f = random_mult_step(rng, p, max_level=1)
        d = delta_approximant(p, 1)
        assert mult_distance(f, mult_convolve(f, d)) < 1e-12


def test_cosets_disjoint_after_normalization():
    p = 3
    # overlapping inputs at mixed levels collapse to disjoint level-2 cosets
    f = MultStepFunction(p, [
        MultTerm(1.0, PAdicElt(p, 0, 1, 24), 1),
        MultTerm(2.0, PAdicElt(p, 0, 4, 24), 2),
        MultTerm(1.0j, PAdicElt(p, 0, 1, 24), 0),
    ])
    seen = set()
    for t in f.terms:
        key = (t.rep.val, t.rep.unit_mod(t.k) if t.k else 0)
        assert key not in seen
        seen.add(key)
        assert t.k == 2
    # function values are the sums of the overlapping pieces
    assert abs(f.eval(PAdicElt(p, 0, 4, 24)) - (3.0 + 1j)) < 1e-14
    assert abs(f.eval(PAdicElt(p, 0, 2, 24)) - 1j) < 1e-14


def test_ball_membership_needs_digits_to_the_radius():
    ball = indicator_ball(3, PAdicElt(3, 0, 4, 24), 2)     # 4 + 9 Z_3
    # 1 and 4 agree mod 3, the only digit the point carries
    with pytest.raises(PrecisionError):
        ball.eval(PAdicElt(3, 0, 1, 1))
    assert ball.eval(PAdicElt(3, 0, 1, 2)) == 0
    assert ball.eval(PAdicElt(3, 0, 13, 2)) == 1
    assert ball.eval(PAdicElt(3, 2, 1, 1)) == 0     # valuation decides


def test_ball_intersection_of_centers_given_to_the_radius():
    # the two centers agree to every digit they carry; reduction keeps a
    # center's digits down to its radius, which decides nesting exactly
    big = indicator_ball(3, PAdicElt(3, 0, 1, 1), 1)        # 1 + 3 Z_3
    small = indicator_ball(3, PAdicElt(3, 0, 4, 2), 2)      # 4 + 9 Z_3
    apart = indicator_ball(3, PAdicElt(3, 0, 7, 2), 2)      # 7 + 9 Z_3
    assert step_inner(big, small) == 3.0 ** -2
    assert step_inner(small, apart) == 0


def test_step_inner_needs_twist_digits():
    def wave(unit, prec):
        return indicator_ball(3, None, 0, twist=PAdicElt(3, -3, unit, prec))
    # psi(a x) on Z_3 for a = 3^-3 * unit: the twists 1 and 4 differ by
    # 3^-2, which two digits see and one digit does not
    with pytest.raises(PrecisionError):
        step_inner(wave(1, 1), wave(4, 1))
    assert step_inner(wave(1, 2), wave(4, 2)) == 0
    # equal twists cancel on Z_3 only if they are known down to 3^0
    with pytest.raises(PrecisionError):
        step_inner(wave(1, 2), wave(1, 2))
    assert step_inner(wave(1, 3), wave(1, 3)) == 1


def test_mellin_unit_indicator():
    md = mellin(unit_indicator(5), c_max=1)
    for w, rf in md.comps.items():
        if w.cond == 0:
            assert IdentityReport(rf, RationalFunc.const(5, 1 - 1 / 5)).ok()
        else:
            assert rf.is_zero()


def test_mellin_single_coset():
    md = mellin(coset_indicator(3, PAdicElt(3, 1, 1, 24), 1), c_max=1)
    # every omega of conductor <= 1 sees vol(1+3Z_3) * X
    assert len(md.comps) == 2
    for rf in md.comps.values():
        assert set(rf.num.coeffs) == {1}
        assert abs(rf.num.coeffs[1] - 1 / 3) < 1e-15


def test_mellin_scaling_covariance():
    f = MultStepFunction(5, [MultTerm(1.0, PAdicElt(5, 0, 2, 24), 2),
                             MultTerm(0.5j, PAdicElt(5, -1, 3, 24), 1)])
    a = PAdicElt(5, 2, 7, 24)
    md0, md1 = mellin(f, 2), mellin(f.scaled_arg(a), 2)
    for w in md0.comps:
        wa = w.unit_value(a.unit_mod(w.cond)) if w.cond else 1.0
        rhs = md0.component(w).scale(wa)
        rhs = RationalFunc(rhs.num.shift(a.val), rhs.den)
        assert IdentityReport(md1.component(w), rhs).ok()


def test_mellin_convolution_theorem():
    rng = random.Random(13)
    for _ in range(15):
        p = rng.choice([3, 5])
        f, g = random_mult_step(rng, p), random_mult_step(rng, p)
        cv = mult_convolve(f, g)
        lvl = max(f.max_level(), g.max_level(), cv.max_level())
        mf, mg, mc = mellin(f, lvl), mellin(g, lvl), mellin(cv, lvl)
        for w in mf.comps:
            assert IdentityReport(mc.component(w),
                                  mf.component(w) * mg.component(w)).ok(1e-11)


def test_mellin_invert_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        f = random_mult_step(rng, p)
        md = mellin(f)
        lo, hi = min(f.shells()), max(f.shells())
        back = mellin_invert(md, lo, hi, f.max_level())
        assert mult_distance(f, back) < 1e-12


def test_mellin_invert_geometric_component():
    # trivial-only data 1/(1-alpha X) inverts to alpha^m / vol on m >= 0
    from gl1zeta.characters import trivial_char
    from gl1zeta.ratfunc import LaurentPoly
    from gl1zeta.stepfn import MellinData
    p, alpha = 5, 0.4 - 0.3j
    md = MellinData(p, 0)
    md.comps[trivial_char(p)] = RationalFunc(
        LaurentPoly.one(p), LaurentPoly(p, {0: 1, 1: -alpha}))
    f = mellin_invert(md, 0, 4, 0)
    vol = 1 - 1 / p
    for m in range(5):
        x = PAdicElt(p, m, 2, 24)
        assert abs(f.eval(x) - alpha ** m / vol) < 1e-12


def test_mellin_invert_rejects_hidden_conductor():
    f = MultStepFunction(3, [MultTerm(1.0, PAdicElt(3, 0, 2, 24), 2)])
    md = mellin(f, 2)
    with pytest.raises(ValueError):
        mellin_invert(md, 0, 0, 1)


def test_normalize_shares_reps_it_would_rebuild(monkeypatch):
    # Work counts, no clock: the shell table is the function's one form, so
    # building it makes no PAdicElt.  Each rep of the terms view, built when
    # read, is the shared PAdicElt.at(p, m, u) of its residue u mod p^level:
    # input reps from PAdicElt.at come back as they are, and a second
    # function on the same cosets builds no PAdicElt at all (no cache miss).
    # mellin_invert writes its table with no PAdicElt.
    p = 3
    at_level = [PAdicElt.at(p, 0, u) for u in (1, 2, 4)]
    coarse = PAdicElt.at(p, 1, 2)              # level 1 in a level-2 shell
    fine = PAdicElt.at(p, 1, 5)
    short = PAdicElt(p, 2, 1, 5)               # fewer digits: not shared
    terms = ([MultTerm(1.0, x, 2) for x in at_level]
             + [MultTerm(0.5j, coarse, 1), MultTerm(2.0, fine, 2),
                MultTerm(-1.0, short, 1)])
    built = []
    post_init = PAdicElt.__post_init__

    def counting_post_init(self):
        built.append((self.val, self.unit))
        post_init(self)

    monkeypatch.setattr(PAdicElt, "__post_init__", counting_post_init)
    f = MultStepFunction(p, terms)
    assert built == []
    misses = PAdicElt.at.cache_info().misses
    view = f.terms
    # every PAdicElt the view builds is a first request of PAdicElt.at
    assert len(built) == PAdicElt.at.cache_info().misses - misses <= 2
    assert f.terms is view
    reps = {(t.rep.val, t.rep.unit): t.rep for t in view}
    assert all(t.rep is PAdicElt.at(p, t.rep.val, t.rep.unit) for t in view)
    assert all(reps[(0, x.unit)] is x for x in at_level)
    assert reps[(1, 2)] is coarse and reps[(1, 5)] is fine
    # coarse splits into residues 2, 5, 8 mod 9
    assert reps[(1, 8)] == PAdicElt(p, 1, 8, DEFAULT_PREC)
    assert reps[(2, 1)] is not short and reps[(2, 1)].prec == DEFAULT_PREC
    # the same cosets with other coefficients: no PAdicElt is built
    del built[:]
    misses = PAdicElt.at.cache_info().misses
    g = MultStepFunction(p, [MultTerm(t.coeff * 3, t.rep, t.k) for t in terms])
    assert [t.rep for t in g.terms] == [t.rep for t in view]
    assert all(a.rep is b.rep for a, b in zip(g.terms, view))
    assert built == [] and PAdicElt.at.cache_info().misses == misses
    md = mellin(f, 2)
    back = mellin_invert(md, 0, 2, 2)
    assert built == []
    assert mult_distance(f, back) < 1e-12


COEFFS = st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                            allow_nan=False, allow_infinity=False)


@st.composite
def mult_terms(draw, max_coset=13 ** 3):
    """(p, terms): 1 to 5 cosets on shells -3..3 at levels 0..3 with
    p^level <= max_coset.  A term may meet an earlier one at another level,
    or cancel an earlier one exactly."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    levels = [k for k in range(4) if p ** k <= max_coset]
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("new", "overlap", "cancel"))) if terms else "new"
        if kind == "cancel":
            t = draw(st.sampled_from(terms))
            terms.append(MultTerm(-t.coeff, t.rep, t.k))
            continue
        k = draw(st.sampled_from(levels))
        u = draw(st.integers(1, p ** 3 - 1))
        if kind == "overlap":
            # congruent to t's unit mod p^max(1, min(k, t.k)): the cosets meet
            t = draw(st.sampled_from(terms))
            m, u = t.rep.val, t.rep.unit + p ** max(1, min(k, t.k)) * u
        else:
            m, u = draw(st.integers(-3, 3)), u + (u % p == 0)
        terms.append(MultTerm(draw(COEFFS), PAdicElt(p, m, u, DEFAULT_PREC), k))
    return p, terms


def _coset_sum(p, terms, x):
    """The sum of the coeffs of the terms whose coset holds x."""
    return sum((t.coeff for t in terms if t.rep.val == x.val
                and x.unit % p ** t.k == t.rep.unit % p ** t.k), 0j)


@settings(max_examples=60, deadline=None)
@given(mult_terms())
def test_shell_table_matches_coset_oracle(case):
    # (a) eval at every coset rep mod p^(finest input level) is the sum over
    # the input cosets holding it; (b) the terms view reads back as itself
    p, terms = case
    f = MultStepFunction(p, terms)
    scale = max(abs(t.coeff) for t in terms)
    level = max(t.k for t in terms)
    units = [u for u in range(1, max(p ** level, 2)) if u % p]
    for m in range(-3, 4):
        for u in units:
            x = PAdicElt(p, m, u, DEFAULT_PREC)
            assert abs(f.eval(x) - _coset_sum(p, terms, x)) <= 1e-12 * scale
    assert MultStepFunction(p, f.terms).terms == f.terms


# The round trip reads every character of conductor <= c, each with its own
# p^c-entry value table: at 11^3 and 13^3 that is 1,210 and 2,028 tables,
# 3 s and 10 s for one function, so the cosets stop at p^c <= 7^3.
@settings(max_examples=40, deadline=None)
@given(mult_terms(max_coset=7 ** 3))
def test_mellin_invert_writes_the_table_back(case):
    # (c) mellin_invert(mellin(f, c), -3, 3, c) is f on every coset
    p, terms = case
    f = MultStepFunction(p, terms)
    c = f.max_level()
    back = mellin_invert(mellin(f, c), -3, 3, c)
    assert mult_distance(f, back) <= 1e-12 * max(abs(t.coeff) for t in terms)


@pytest.mark.parametrize("build", [
    lambda x: MultStepFunction(5, [MultTerm(1.0, PAdicElt(5, 0, 1, 4), 0),
                                   MultTerm(2.0, x, 1)]),
    lambda x: StepFunction(5, [StepTerm(1.0, None, x, 2)]),
    lambda x: StepFunction(5, [StepTerm(1.0, x, None, 0)]),
])
def test_elements_at_another_prime_rejected(build):
    # mellin would read such a rep mod 3^k, the convolution as 5-adic
    with pytest.raises(ValueError, match="mixed primes 5, 3"):
        build(PAdicElt(3, -1, 2, DEFAULT_PREC))
