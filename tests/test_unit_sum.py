"""The memoized unit-sum kernel against the plain per-unit loops.

`_naive_coset` and `_naive_shell` are the plain reference loops: one
`PAdicElt` per unit, `psi_value` on it and `MultChar.unit_value`.  The
kernel keeps their summation order and float operations, so the results must
be equal, not just close, and `PrecisionError` must be raised in exactly the
same cases.  `MultChar.unit_value` reads the kernel's own value table; that
table is checked against exact `Fraction` phases in tests/test_characters.py.

The oracle skips sums over more than MAX_UNITS residues, which are the guard
shells gamma_pv spends its time in; a few of those are compared with == to
the plain loop with psi in its exp form, and `root_of_unity` is pinned to
that exp form on every modulus p^d <= MAX_UNITS with p <= 13, and 11^5.
"""

import cmath
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gl1zeta.characters import MultChar, unit_values, unitary_components
from gl1zeta.defaults import DEFAULT_PREC
from gl1zeta.padic import PAdicElt, PrecisionError, psi_value, shell_volume, unit_group
from gl1zeta.ratfunc import root_of_unity
from gl1zeta.zetagamma import (coset_integral, psi_chi_coset_integral,
                               shell_psi_chi_integral)

PRIMES = [2, 3, 5, 7, 11, 13]
MAX_UNITS = 2 * 10 ** 4   # bound on p^k, the residues a single sum walks


def _naive_coset(rep, k, chi, b=None):
    p = chi.p
    cond = chi.cond
    w = (b.val + rep.val) if b is not None else 0
    if b is not None and w < -max(cond, k):
        return 0.0 + 0.0j
    extra = max(0, cond - k)
    if b is not None:
        extra = max(extra, -w - k)
    level = k + extra
    vol = float(p) ** (-level)
    beff = b.mul(rep) if b is not None else None
    chi_rep = chi.eval(rep)
    step = p ** k
    total = 0.0 + 0.0j
    for j in range(p ** extra):
        u = 1 + step * j
        v = chi.unit_value(u) if cond else 1.0 + 0.0j
        if beff is not None:
            v *= psi_value(beff.mul(PAdicElt.from_int(p, u, beff.prec)))
        total += v
    return chi_rep * vol * total


def _naive_shell(p, m, chi, b=None, brute=False):
    cond = chi.cond
    w = (b.val + m) if b is not None else 0
    tval = chi.t ** m if m >= 0 else (1.0 / chi.t) ** (-m)
    if b is None or w >= 0:
        if not brute and cond > 0:
            return 0.0 + 0.0j
        if not brute:
            return tval * shell_volume(p)
    elif not brute and -w > max(cond, 1):
        return 0.0 + 0.0j
    k = max(1, cond, -w if (b is not None and w < 0) else 0)
    vol = float(p) ** (-k)
    total = 0.0 + 0.0j
    for u in range(1, p ** k):
        if u % p == 0:
            continue
        v = chi.unit_value(u) if cond else 1.0 + 0.0j
        if b is not None:
            y = PAdicElt(p, m, u, max(k, -m + 1, 1)).mul(b)
            v *= psi_value(y)
        total += v
    return tval * vol * total


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PrecisionError:
        return PrecisionError


@st.composite
def characters(draw, p):
    """A character at p of exact conductor <= 3, its t unitary or not."""
    cond = draw(st.integers(0, 3))
    assume(not (p == 2 and cond == 1))
    t = complex(draw(st.sampled_from([1.0, 0.5, -1.7, 0.6 + 0.8j, 2j])))
    if cond == 0:
        return MultChar(p, 0, (), t)
    gens = unit_group(p, cond).generators
    vec = tuple(draw(st.integers(0, o - 1)) for _, o in gens)
    try:
        return MultChar(p, cond, vec, t)
    except ValueError:          # conductor not exact
        assume(False)


@st.composite
def twists(draw, p):
    """None, a unit, or p^j * unit, carrying few enough digits that psi
    sometimes lacks precision."""
    kind = draw(st.sampled_from(["none", "unit", "scaled"]))
    if kind == "none":
        return None
    j = 0 if kind == "unit" else draw(st.integers(-4, 3))
    u = draw(st.integers(1, 10 ** 6).filter(lambda n: n % p))
    return PAdicElt(p, j, u, draw(st.integers(1, 8)))


@st.composite
def shell_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    chi = draw(characters(p))
    m = draw(st.integers(-6, 2))
    b = draw(twists(p))
    w = b.val + m if b is not None else 0
    assume(p ** max(1, chi.cond, -w) <= MAX_UNITS)
    return p, m, chi, b


@st.composite
def coset_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    chi = draw(characters(p))
    k = draw(st.integers(1, 3))
    rep = PAdicElt(p, draw(st.integers(-6, 2)),
                   draw(st.integers(1, 10 ** 6).filter(lambda n: n % p)),
                   draw(st.integers(1, 8)))
    b = draw(twists(p))
    w = b.val + rep.val if b is not None else 0
    assume(p ** max(k, chi.cond, -w) <= MAX_UNITS)
    return rep, k, chi, b


@settings(max_examples=300, deadline=None)
@given(shell_cases(), st.booleans())
def test_shell_sum_matches_naive_loop(case, brute):
    p, m, chi, b = case
    want = _outcome(_naive_shell, p, m, chi, b, brute=brute)
    got = _outcome(shell_psi_chi_integral, p, m, chi, b, brute=brute)
    assert got == want
    # a memo hit returns the same value
    assert _outcome(shell_psi_chi_integral, p, m, chi, b, brute=brute) == want


@settings(max_examples=300, deadline=None)
@given(coset_cases())
def test_coset_sum_matches_naive_loop(case):
    rep, k, chi, b = case
    want = _outcome(_naive_coset, rep, k, chi, b)
    got = _outcome(psi_chi_coset_integral, rep, k, chi, b)
    assert got == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coset_integral_at_k_zero_is_the_shell(p):
    """coset_integral at k = 0 is the shell integral, bit for bit, with and
    without a twist b, brute or not; with test_shell_sum_matches_naive_loop
    this pins k = 0 to the plain loop.
    Brute sums over more than MAX_UNITS residues are left to the guard-shell
    tests below."""
    twists = [None] + [PAdicElt(p, v, 7 * p ** 3 - 1, DEFAULT_PREC)
                       for v in (0, -1, -3)]
    for omega in unitary_components(p, 2):
        for t in (0.6 + 0.8j, 1.3 - 0.4j):
            chi = MultChar(p, omega.cond, omega.unit_char, t)
            for m in range(-5, 3):
                for b, brute in itertools.product(twists, (False, True)):
                    w = b.val + m if b is not None else 0
                    if brute and p ** max(1, chi.cond, -w) > MAX_UNITS:
                        continue
                    shell = shell_psi_chi_integral(p, m, chi, b, brute=brute)
                    if b is None:
                        got = coset_integral(chi, 0, m, 1, chi.cond, brute=brute)
                    else:
                        got = coset_integral(chi, 0, m, 1, chi.cond, w, b.unit,
                                             b.prec, brute=brute)
                    assert got == shell, (chi, m, b, brute)
    # a twist with fewer digits than psi needs still raises through the shell
    chi = next(c for c in unitary_components(p, 2) if c.cond == 2)
    short = PAdicElt(p, -2, 1, 1)
    for brute in (False, True):
        with pytest.raises(PrecisionError):
            shell_psi_chi_integral(p, 0, chi, short, brute=brute)


# ---------------------------------------------------------------------------
# the guard shells past MAX_UNITS, where gamma_pv spends its time


def _old_root(j, n):
    """The exp form of `root_of_unity` that `rect` replaced."""
    return cmath.exp(2j * cmath.pi * (j % n) / n)


def _plain_guard_shell(p, m, chi):
    """shell_psi_chi_integral(p, m, chi, b=1, brute=True) for m < 0 as the
    plain loop: chi(u) * psi in increasing u, psi in the exp form."""
    d = -m
    k = max(1, chi.cond, d)
    values = unit_values(p, chi.cond, chi.unit_char)
    total = 0.0 + 0.0j
    for u in range(1, p ** k):
        if u % p == 0:
            continue
        total += values[u % len(values)] * _old_root(u, p ** d)
    return (1.0 / chi.t) ** (-m) * float(p) ** (-k) * total


@pytest.mark.parametrize("p, cond, unit_char, d", [
    (11, 3, (91,), 4), (11, 3, (91,), 5), (13, 2, (5,), 4)])
def test_large_guard_shells_match_plain_loop(p, cond, unit_char, d):
    chi = MultChar(p, cond, unit_char, 1.3 - 0.4j)
    got = shell_psi_chi_integral(p, -d, chi, b=PAdicElt.one(p), brute=True)
    assert got == _plain_guard_shell(p, -d, chi)


def test_root_of_unity_matches_exp_form():
    moduli = [p ** d for p in PRIMES for d in range(1, 15) if p ** d <= MAX_UNITS]
    for n in moduli + [11 ** 5]:
        assert [root_of_unity(j, n) for j in range(n)] == \
            [_old_root(j, n) for j in range(n)], n
