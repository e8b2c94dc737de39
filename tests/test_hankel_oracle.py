"""The integer-coordinate Hankel paths against the loops they replaced.

`_naive_convolve` forms every x * rep as a `PAdicElt` and integrates its
coset once per term and row; `_naive_eval` scans the terms of a
`MultStepFunction`; `_naive_invert` reads each component's value through
`MultChar.unit_value` once per shell.  The library keeps their float
operations and their order, so the results must be equal, not just close,
and `PrecisionError` must be raised in exactly the same cases.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gl1zeta.characters import MultChar, unitary_components
from gl1zeta.defaults import DEFAULT_PREC
from gl1zeta.kernel import Gl1Kernel, gamma_symbol, hankel_convolve, hankel_mellin
from gl1zeta.padic import PAdicElt, PrecisionError, shell_volume, unit_group
from gl1zeta.ratfunc import rf_series_coeffs
from gl1zeta.stepfn import MultStepFunction, MultTerm, mellin, mellin_invert
from gl1zeta.zetagamma import psi_chi_coset_integral, shell_psi_chi_integral

PRIMES = [2, 3, 5, 7, 11, 13]
MAX_GRID = 125          # bound on p^level, the units of one shell's grid


def _grid(p, level):
    return [1] if level == 0 else [u for u in range(1, p ** level) if u % p]


def _naive_convolve(phi, k, m_lo, m_hi, level):
    p = phi.p
    one = PAdicElt(p, 0, 1, DEFAULT_PREC)
    chi_inv = k.chi.inverse()
    rows = []
    for m in range(m_lo, m_hi + 1):
        for u in _grid(p, level):
            x = PAdicElt(p, m, u, DEFAULT_PREC)
            total = 0.0 + 0.0j
            for t in phi.terms:
                a = x.mul(t.rep)
                if t.k == 0:
                    val = shell_psi_chi_integral(p, a.val, chi_inv, b=one)
                else:
                    val = psi_chi_coset_integral(a, t.k, chi_inv, b=one)
                total += t.coeff * (val * float(p) ** (-a.val / 2.0))
            rows.append((m, x, total))
    return rows


def _naive_eval(f, x):
    for t in f.terms:
        if x.val != t.rep.val:
            continue
        if t.k == 0 or x.unit_mod(t.k) == t.rep.unit_mod(t.k):
            return t.coeff
    return 0.0 + 0.0j


def _naive_invert(d, m_lo, m_hi, c_max):
    for omega, rf in d.comps.items():
        if omega.cond > c_max and not rf.is_zero():
            raise ValueError("nonzero component beyond c_max")
    p = d.p
    vol_units = shell_volume(p)
    omegas = [w for w in unitary_components(p, c_max) if w in d.comps]
    series = {w: rf_series_coeffs(d.comps[w], m_lo, m_hi) for w in omegas}
    terms = []
    for i, m in enumerate(range(m_lo, m_hi + 1)):
        for u in _grid(p, c_max):
            v = 0.0 + 0.0j
            for w in omegas:
                c = series[w][i]
                if c == 0:
                    continue
                v += c * w.unit_value(u).conjugate()
            v /= vol_units
            if v != 0:
                terms.append(MultTerm(v, PAdicElt(p, m, u, DEFAULT_PREC), c_max))
    return MultStepFunction(p, terms)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionError, ValueError) as exc:
        return type(exc)


@st.composite
def characters(draw, p):
    """A character at p of exact conductor <= 3 with p^cond <= MAX_GRID,
    its t unitary or not."""
    cond = draw(st.integers(0, 3))
    assume(p ** cond <= MAX_GRID and not (p == 2 and cond == 1))
    t = complex(draw(st.sampled_from([1.0, 0.5, -1.7, 0.6 + 0.8j, 2j, 3 - 1j])))
    if cond == 0:
        return MultChar(p, 0, (), t)
    gens = unit_group(p, cond).generators
    vec = tuple(draw(st.integers(0, o - 1)) for _, o in gens)
    try:
        return MultChar(p, cond, vec, t)
    except ValueError:          # conductor not exact
        assume(False)


@st.composite
def mult_steps(draw, p, max_level):
    """1 to 4 terms on shells -3..3 at coset levels <= max_level."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, max_level))
        u = draw(st.integers(1, 10 ** 6).filter(lambda n: n % p))
        coeff = complex(draw(st.sampled_from([1.0, -0.5, 0.25, 2.0])),
                        draw(st.sampled_from([0.0, 1.0, -0.75])))
        terms.append(MultTerm(coeff, PAdicElt(p, draw(st.integers(-3, 3)), u,
                                              DEFAULT_PREC), k))
    return MultStepFunction(p, terms)


@st.composite
def cases(draw):
    """(phi, chi, c_max, window): c_max covers phi and chi, p^c_max is at
    most MAX_GRID, and the window lies in [-6, 6]."""
    p = draw(st.sampled_from(PRIMES))
    top = max(c for c in range(4) if p ** c <= MAX_GRID)
    phi = draw(mult_steps(p, top))
    chi = draw(characters(p))
    c_max = draw(st.integers(max(phi.max_level(), chi.cond, 1), max(top, 1)))
    assume(p ** c_max <= MAX_GRID)
    m_lo = draw(st.integers(-6, 6))
    m_hi = draw(st.integers(m_lo, 6))
    return phi, chi, c_max, (m_lo, m_hi)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_convolve_matches_per_coset_loop(case):
    phi, chi, c_max, (m_lo, m_hi) = case
    kern = Gl1Kernel(chi)
    want = _outcome(_naive_convolve, phi, kern, m_lo, m_hi, c_max)
    got = _outcome(hankel_convolve, phi, kern, m_lo, m_hi, c_max)
    if isinstance(want, list):
        assert got.level == c_max
        got = got.rows
    assert got == want


@st.composite
def points(draw, f):
    """A point of Q_p^x carrying 1..4 digits: on a term's coset, on a term's
    shell elsewhere, or on a shell that may be empty."""
    p = f.p
    kinds = ["coset", "shell", "anywhere"] if f.terms else ["anywhere"]
    kind = draw(st.sampled_from(kinds))
    prec = draw(st.integers(1, 4))
    if kind == "coset":
        t = draw(st.sampled_from(f.terms))
        u = t.rep.unit + p ** max(t.k, 1) * draw(st.integers(0, 50))
        return PAdicElt(p, t.rep.val, u, prec)
    u = draw(st.integers(1, 10 ** 6).filter(lambda n: n % p))
    if kind == "shell":
        return PAdicElt(p, draw(st.sampled_from(f.terms)).rep.val, u, prec)
    return PAdicElt(p, draw(st.integers(-6, 6)), u, prec)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_matches_term_scan(data):
    p = data.draw(st.sampled_from(PRIMES))
    f = data.draw(mult_steps(p, 3))
    x = data.draw(points(f))
    assert _outcome(f.eval, x) == _outcome(_naive_eval, f, x)


@settings(max_examples=60, deadline=None)
@given(cases(), st.booleans())
def test_invert_matches_per_shell_loop(case, through_hankel):
    phi, chi, c_max, (m_lo, m_hi) = case
    p = phi.p
    data = mellin(phi, c_max)
    if through_hankel:       # rational components with infinite series
        data = hankel_mellin(phi, gamma_symbol([chi], c_max, p=p))
    for cap in (c_max, phi.max_level()):
        want = _outcome(_naive_invert, data, m_lo, m_hi, cap)
        got = _outcome(mellin_invert, data, m_lo, m_hi, cap)
        if isinstance(want, MultStepFunction):
            assert got.terms == want.terms
        else:
            assert got == want
