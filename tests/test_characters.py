import cmath
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl1zeta import characters
from gl1zeta.characters import (MultChar, char_product, trivial_char,
                                unitary_components, unramified_char)
from gl1zeta.padic import PAdicElt, PrecisionError, unit_group
from gl1zeta.ratfunc import root_of_unity


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


def test_inverse_and_unitary_part_skip_rebuilding(monkeypatch):
    # validation is cached on (p, cond, unit_char): once a character and its
    # inverse have been built, building either again, at any t, looks up no
    # unit group
    looked_up = []
    table = characters.unit_group
    monkeypatch.setattr(characters, "unit_group",
                        lambda p, a: looked_up.append((p, a)) or table(p, a))
    chi = MultChar(5, 2, (3,), 2.0 + 1j)
    inv = chi.inverse()
    looked_up.clear()
    assert MultChar(5, 2, (3,), 2.0 + 1j) == chi
    assert MultChar(5, 2, (3,), 0.5j).unit_char == (3,)
    assert chi.inverse() == inv
    assert looked_up == []
    assert inv == MultChar(5, 2, (17,), 1 / (2.0 + 1j))
    w = chi.unitary_part()
    assert w.t == 1 and w.unitary_part() is w
    # t = 1 - 0j is 1: returned as is
    v = MultChar(5, 0, (), complex(1.0, -0.0))
    assert v.unitary_part() is v


def test_list_unit_char_is_the_tuple_character():
    for p, cond, vec in ((5, 2, [3]), (2, 3, [1, 1]), (7, 0, [])):
        chi = MultChar(p, cond, vec, 0.6 + 0.8j)
        assert chi == MultChar(p, cond, tuple(vec), 0.6 + 0.8j)
        assert isinstance(chi.unit_char, tuple)
        assert hash(chi) == hash(MultChar(p, cond, tuple(vec), 0.6 + 0.8j))


def test_invalid_character_raises_on_every_attempt():
    # errors are not cached: each attempt validates again and raises again
    for _ in range(3):
        with pytest.raises(ValueError, match="not exact"):
            MultChar(5, 2, (5,), 1.0)        # order 4: conductor 1, not 2
        with pytest.raises(ValueError, match="length"):
            MultChar(5, 2, (1, 1), 1.0)
        with pytest.raises(ValueError, match="conductor 0"):
            MultChar(5, 0, [1], 1.0)


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


def test_unitary_components_built_once_returned_fresh(monkeypatch):
    first = unitary_components(7, 2)
    built = []
    post_init = MultChar.__post_init__
    monkeypatch.setattr(MultChar, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    first.clear()
    first.append(trivial_char(5))
    built.clear()
    again = unitary_components(7, 2)
    assert built == []
    assert again == unitary_components(7, 2) and len(again) == 42
    assert again is not unitary_components(7, 2)


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


# ---------------------------------------------------------------------------
# The integer phase tables against the exact Fraction phases they replaced.
# The oracle below is the earlier implementation: a phase in Q/Z per unit,
# summed as Fractions, and the exact conductor found by scanning every layer.

PRIMES = [2, 3, 5, 7, 11, 13]


def _fraction_phase(p, level, vec):
    """u -> the phase in Q/Z of the character of (Z/p^level)^x with
    exponent vector vec."""
    table = unit_group(p, level)

    def phase(u):
        r = Fraction(0)
        for k, x, (_, o) in zip(vec, table.dlog[u % p ** level], table.generators):
            r += Fraction(k * x, o)
        return r % 1
    return phase


def _char_phase(chi):
    if chi.cond == 0:
        return lambda u: Fraction(0)
    return _fraction_phase(chi.p, chi.cond, chi.unit_char)


def _oracle_unit_value(chi, u):
    r = _char_phase(chi)(u)
    return root_of_unity(r.numerator, r.denominator)


def _oracle_conductor(p, level, phase):
    for a in range(level + 1):
        if a == 0:
            if all(phase(g) == 0 for g, _ in unit_group(p, level).generators):
                return 0
            continue
        if p == 2 and a == 1:
            continue
        if all(phase(1 + p ** b) == 0 for b in range(a, level)):
            return a
    return level


def _oracle_from_phase(p, level, phase, t):
    cond = _oracle_conductor(p, level, phase) if level else 0
    if cond == 0:
        return MultChar(p, 0, (), t)
    vec = []
    for g, o in unit_group(p, cond).generators:
        r = phase(g) * o
        assert r.denominator == 1
        vec.append(int(r) % o)
    return MultChar(p, cond, tuple(vec), t)


def _oracle_product(a, b):
    pa, pb = _char_phase(a), _char_phase(b)
    return _oracle_from_phase(a.p, max(a.cond, b.cond),
                              lambda u: (pa(u) + pb(u)) % 1, a.t * b.t)


def _oracle_components(p, c_max):
    if c_max == 0:
        return [trivial_char(p)]
    table = unit_group(p, c_max)
    vecs = itertools.product(*(range(o) for _, o in table.generators))
    out = [_oracle_from_phase(p, c_max, _fraction_phase(p, c_max, vec), 1.0)
           for vec in vecs]
    return sorted(out, key=lambda ch: (ch.cond, ch.unit_char))


@st.composite
def _level_chars(draw, p, level):
    """Any character of (Z/p^level)^x, at its exact conductor, with t drawn
    from unitary and non-unitary values."""
    t = complex(draw(st.sampled_from([1.0, 0.5, -1.7, 0.6 + 0.8j, 2j])))
    if level == 0:
        return MultChar(p, 0, (), t)
    vec = tuple(draw(st.integers(0, o - 1)) for _, o in unit_group(p, level).generators)
    return _oracle_from_phase(p, level, _fraction_phase(p, level, vec), t)


@st.composite
def _char_pairs(draw):
    """(a, b) at one prime, level <= 3.  Half the pairs are b = a^(-1) * d
    for a character d of lower level, so that the product's conductor
    drops, down to 0."""
    p = draw(st.sampled_from(PRIMES))
    level = draw(st.integers(0, 3))
    a = draw(_level_chars(p, level))
    if draw(st.booleans()):
        return a, draw(_level_chars(p, draw(st.integers(0, 3))))
    d = draw(_level_chars(p, draw(st.integers(0, level))))
    return a, _oracle_product(a.inverse(), d)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 3), st.data())
def test_unit_value_matches_fraction_phases(p, level, data):
    chi = data.draw(_level_chars(p, level))
    val = data.draw(st.integers(-3, 3))
    for u in range(1, p ** chi.cond):
        if u % p:
            assert chi.unit_value(u) == _oracle_unit_value(chi, u)
            x = PAdicElt(p, val, u, 24)
            want = chi.t ** x.val if x.val >= 0 else (1.0 / chi.t) ** (-x.val)
            if chi.cond:
                want *= _oracle_unit_value(chi, u)
            assert chi.eval(x) == want


@settings(max_examples=300, deadline=None)
@given(_char_pairs())
def test_char_product_matches_fraction_phases(pair):
    a, b = pair
    assert char_product(a, b) == _oracle_product(a, b)


T_CYCLE = [1.0 + 0.0j, 0.5, -1.7, 0.6 + 0.8j, 2j, complex(1.0, -0.0)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_char_product_matches_fraction_phases_on_every_pair(p):
    # every pair of characters of conductor <= 3, t drawn in turn from
    # T_CYCLE; repr compares t bit for bit, signed zeros included.  The
    # oracle's Fraction phases are read once per character at the points it
    # evaluates (generators of each level, and 1 + p, 1 + p^2), as integers
    # over the exponent n of (Z/p^3)^x, which every phase divides.
    chars = [MultChar(p, w.cond, w.unit_char, t)
             for w, t in zip(unitary_components(p, 3), itertools.cycle(T_CYCLE))]
    points = {g for a in (1, 2, 3) for g, _ in unit_group(p, a).generators}
    points |= {1 + p, 1 + p ** 2}
    n = max(o for _, o in unit_group(p, 3).generators)
    phases = []
    for chi in chars:
        frac = _char_phase(chi)
        assert all((frac(u) * n).denominator == 1 for u in points)
        phases.append({u: int(frac(u) * n) for u in points})
    try:
        for i, (a, pa) in enumerate(zip(chars, phases)):
            for j, (b, pb) in enumerate(zip(chars[i:], phases[i:])):
                want = _oracle_from_phase(
                    p, max(a.cond, b.cond),
                    lambda u: Fraction((pa[u] + pb[u]) % n, n), a.t * b.t)
                # the factors in either order, by turns: a.t * b.t is b.t * a.t
                got = char_product(a, b) if j % 2 else char_product(b, a)
                assert repr(got) == repr(want), (a, b)
    finally:
        characters._product_reduction.cache_clear()   # ~43k pairs at p = 7


def test_unitary_inverse_is_shared_and_equals_the_built_one(monkeypatch):
    # the inverse at t = 1 (1 + 0j or 1 - 0j) is one shared object, equal to
    # the character the general rule builds; any other t is built on every
    # call
    built = []
    post_init = MultChar.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    for p in (2, 3, 5, 7):
        for w in unitary_components(p, 2):
            rule = MultChar(p, w.cond, tuple(-k for k in w.unit_char), 1.0 / w.t)
            assert w.inverse() == rule
            monkeypatch.setattr(MultChar, "__post_init__", counting_post_init)
            assert w.inverse() is w.inverse()
            for t in (1.0 + 0.0j, complex(1.0, -0.0)):
                assert MultChar(p, w.cond, w.unit_char, t).inverse() is w.inverse()
            assert len(built) == 2   # the MultChars of the line above
            del built[:]
            monkeypatch.setattr(MultChar, "__post_init__", post_init)
    for t in (2.0 + 1j, 0.6 + 0.8j):
        chi = MultChar(5, 2, (3,), t)
        monkeypatch.setattr(MultChar, "__post_init__", counting_post_init)
        inv = chi.inverse()
        assert chi.inverse() is not inv and len(built) == 2
        del built[:]
        monkeypatch.setattr(MultChar, "__post_init__", post_init)
        assert inv == MultChar(5, 2, (-3,), 1.0 / t)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("c_max", [0, 1, 2, 3])
def test_unitary_components_match_fraction_phases(p, c_max):
    assert unitary_components(p, c_max) == _oracle_components(p, c_max)
