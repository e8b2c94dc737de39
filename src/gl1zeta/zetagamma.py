"""Tate zeta integrals, local factors, and gamma factors by two routes.

Everything is exact in X = q^(-s):

* zeta integrals of step functions are Laurent polynomials plus closed-form
  geometric tails (the meromorphic continuation is the rational-function
  identity itself); that of a C_c^inf(F^x) function is the Mellin component
  `stepfn.mellin_component` at the unitary part of chi, rescaled by
  X -> t q^(1/2) X;
* gamma_closed is eps(s,chi,psi) * L(1-s,chi^(-1)) / L(s,chi): for ramified
  chi the epsilon factor, a normalized Gauss sum over the last nonvanishing
  shell; for unramified chi one closed-form rational function;
* gamma_pv_total integrates the GL(1) kernel psi(x) chi^(-1)(x) |x|^(1/2)
  shell by shell (principal value): finitely many negative shells by brute
  coset summation, the nonnegative tail resummed in closed form.  The two
  guard shells below the last nonvanishing one are still brute-summed,
  checked against their own roundoff bound, and left out of the total.
  gamma_pv compares the routes; their agreeing coefficientwise is the
  package's central identity check.  `kernel.GammaSymbol` alone multiplies
  these rank-1 factors; `verify_fe` reads one pv component, through
  `kernel.hankel_component`, the reflected product
  M(F phi)(w^(-1))(X) = Gamma(w)(q^(-1/2) X^(-1)) * M(phi)(w)(X^(-1)), which
  is Tate's local functional equation read in X = q^(-s).

Every coset and shell integral of psi(b*y) chi(y), here and in `kernel`, is
`coset_integral`, on integer coordinates; a shell is its k = 0 case, and
`ramified_epsilon` writes out its product on the eps Gauss shell, with no
character built.  Their one kernel `_unit_sum` loops over the units with
integer psi phases, in blocks of (unit residue, chi value) pairs read once
from the value table `characters.unit_values`, with psi evaluated by one
`cmath.rect` per unit.  It is memoized on its exact integer inputs, which
leave out t, so the t^m * volume factors are applied outside it; the gamma
symbols of a corpus re-read the same few unit characters at many t and
shells.

Shell integral conventions (q = p, level-0 psi, vol(S_m, dx*) = 1 - 1/q):

    int_{S_m} psi(y) chi^(-1)(y) dy*  =  t^(-m) G_m,

with G_m = 0 for m < -max(cond, 1), G_{-cond} the Gauss-sum shell when chi
is ramified, and G_{-1} = -1/q, G_{m>=0} = 1 - 1/q when chi is unramified.
"""

from __future__ import annotations

import functools
from cmath import rect

from .characters import (MultChar, _unitary_inverse, char_product, unit_values,
                         unramified_char)
from .defaults import PRUNE_REL_EPS
from .padic import PAdicElt, PrecisionError, check_prime, shell_volume
from .ratfunc import (IdentityReport, LaurentPoly, RationalFunc, TWO_PI,
                      VerificationError, geometric_series, rf_dual_subst)
from .stepfn import (MultStepFunction, StepFunction, fourier_transform,
                     mellin_component)


class ShellGuardError(VerificationError):
    """A shell that must vanish identically came back nonzero: conductor
    bookkeeping is broken somewhere upstream."""


# ---------------------------------------------------------------------------
# exact coset / shell integrals of psi(b*y) * chi(y)
#
# Every such integral reduces to the finite unit sum
#
#     sum over units u mod p^k, u = 1 mod p^k0, of  chi(u) * psi(p^(-d) r u),
#
# which sees chi only through its unit character, and the shell (k0 = 0),
# coset and twist only through the integers (k0, k, d, r).  It adds the same
# terms in the same order as the plain per-unit loop through `psi_value` and
# `MultChar.unit_value`, each term chi(u) * psi computed with the same float
# operations, psi through `rect` as in `root_of_unity`; so both give the
# same bits (tests/test_unit_sum.py compares them with ==).


@functools.cache
def _unit_sum(p: int, cond: int, unit_char: tuple[int, ...],
              k0: int, k: int, d: int, r: int) -> complex:
    """sum of chi(u) * root_of_unity(r*u, p^d) over the units u < p^k with
    u = 1 mod p^k0 (every unit for k0 = 0), in increasing order; d = 0
    drops the psi factor.  chi has conductor `cond` and unit character
    `unit_char`, and cond <= k, d <= k.

    The units are walked in blocks: for k0 = 0, blocks of max(p^cond, p)
    residues against one list of (r * unit, chi value) pairs, so no u is
    tested for divisibility by p or reduced mod p^cond; for k0 >= 1 every u
    is a unit and one block holds them all.  psi is the body of `root_of_unity` written out,
    one `cmath.rect` per unit."""
    values = unit_values(p, cond, unit_char)
    mod = len(values)
    pd = p ** d
    if k0:
        block = p ** k
        units = range(1, block, p ** k0)
    else:
        block = max(mod, p)
        units = [u for u in range(1, block) if u % p]
    pairs = [(u * r, values[u % mod]) for u in units]
    total = 0.0 + 0.0j
    for base in range(0, p ** k, block):
        if not d:
            for _, v in pairs:
                total += v
            continue
        br = base * r
        for ur, v in pairs:
            total += v * rect(1.0, TWO_PI * ((br + ur) % pd) / pd)
    return total


def vanishes_by_oscillation(d: int, cond: int, k: int) -> bool:
    """True when psi(b*y) on a coset of level k, at depth d = max(0, -w),
    oscillates strictly finer than any character scale, so the coset
    integral of psi(b*y) chi(y) with chi of conductor `cond` vanishes."""
    return d > max(cond, k, 1)


def coset_integral(chi: MultChar, k: int, val: int, unit: int, prec: int,
                   w: int = 0, twist: int = 1, twist_prec: int = 0,
                   brute: bool = False) -> complex:
    """integral of psi(b*y) chi(y) dy* over p^val * unit * (1 + p^k Z_p), or
    over the shell p^val Z_p^x for k = 0, with the unit known to `prec`
    digits, and b * p^val * unit = p^w * twist, with the twist known to
    `twist_prec` digits.  Without b, w = 0 and the twist is never read.
    brute=True sums even where a vanishing shortcut decides:
    `vanishes_by_oscillation`, or character orthogonality on a shell where
    psi is trivial."""
    p = chi.p
    cond = chi.cond
    d = max(0, -w)
    if not brute:
        if vanishes_by_oscillation(d, cond, k):
            return 0.0 + 0.0j
        if k == 0 and d == 0:
            # psi is trivial on the shell: character orthogonality decides
            if cond:
                return 0.0 + 0.0j
            return chi.value_at(val, unit, prec) * shell_volume(p)
    level = max(k, 1, cond, d)
    vol = float(p) ** (-level)
    chi_rep = chi.value_at(val, unit, prec)
    r = 0  # psi(b*y) = root_of_unity(r*u, p^d) on the units u of the sum
    if d:
        if twist_prec < d:
            raise PrecisionError("psi needs %d digits below the point, "
                                 "element carries %d" % (d, twist_prec))
        r = twist % p ** d
    return chi_rep * vol * _unit_sum(p, cond, chi.unit_char, k, level, d, r)


def psi_chi_coset_integral(rep: PAdicElt, k: int, chi: MultChar,
                           b: PAdicElt | None = None) -> complex:
    """integral over rep*(1+p^k Z_p) of psi(b*y) chi(y) dy*, for k >= 1.

    Refines the coset just far enough for the integrand to be locally
    constant and sums the finitely many values; a stationary-phase vanishing
    shortcut keeps the refinement bounded by max(cond, k) - k digits.
    """
    if k < 1:
        raise ValueError("coset level must be >= 1")
    p = chi.p
    for x in (rep, b):
        if x is not None and x.p != p:
            raise ValueError("mixed primes %d, %d" % (p, x.p))
    if b is None:
        return coset_integral(chi, k, rep.val, rep.unit, rep.prec)
    # the unit digits of b * rep, as far as both operands know them
    return coset_integral(chi, k, rep.val, rep.unit, rep.prec,
                          b.val + rep.val, b.unit * rep.unit,
                          min(b.prec, rep.prec))


def shell_psi_chi_integral(p: int, m: int, chi: MultChar,
                           b: PAdicElt | None = None,
                           brute: bool = False) -> complex:
    """integral over S_m = p^m Z_p^x of psi(b*y) chi(y) dy*, `coset_integral`
    at k = 0.

    With brute=True the full coset sum is carried out even where the
    vanishing shortcut applies; gamma_pv_total uses this to verify that guard
    shells vanish identically.
    """
    if b is None:
        return coset_integral(chi, 0, m, 1, chi.cond, brute=brute)
    if b.p != p:
        raise ValueError("mixed primes %d, %d" % (p, b.p))
    return coset_integral(chi, 0, m, 1, chi.cond, b.val + m, b.unit, b.prec,
                          brute)


# ---------------------------------------------------------------------------
# zeta integrals


def zeta(phi, chi: MultChar) -> RationalFunc:
    """Z(s, phi, chi) = integral of phi(x) chi(x) |x|^(s-1/2) dx*.

    Shell S_m contributes (q^(1/2) X)^m times the finite coset sum of
    phi * chi.  For phi in C_c^inf(F^x) that is the Mellin component
    M(phi)(omega), omega the unitary part of chi, at X -> t q^(1/2) X; a
    step function's germ at 0 adds a geometric tail in closed form when chi
    is unramified (and nothing otherwise).
    """
    if isinstance(phi, MultStepFunction):
        return mellin_component(phi, chi.unitary_part()).scale_x(
            chi.t * float(phi.p) ** 0.5)
    if isinstance(phi, StepFunction):
        return _zeta_step(phi, chi)
    raise TypeError("unsupported function model %r" % type(phi).__name__)


def _shell_monomial(q: int, m: int, value: complex) -> RationalFunc:
    return RationalFunc.monomial(q, m, value * float(q) ** (m / 2.0))


def _zeta_step(phi: StepFunction, chi: MultChar) -> RationalFunc:
    q = phi.p
    total = RationalFunc.zero(q)
    for t in phi.terms:
        if t.center is not None:
            # a single multiplicative coset center*(1 + p^(rad-v) Z_p)
            m = t.center.val
            val = psi_chi_coset_integral(t.center, t.rad - m, chi, b=t.twist)
            if val != 0:
                total = total + _shell_monomial(q, m, t.coeff * val)
            continue
        # ball p^rad Z_p around 0: shells m >= rad
        m_tail = t.rad if t.twist is None else max(t.rad, -t.twist.val)
        for m in range(t.rad, m_tail):
            val = shell_psi_chi_integral(q, m, chi, b=t.twist)
            if val != 0:
                total = total + _shell_monomial(q, m, t.coeff * val)
        if chi.cond == 0:
            first = _shell_monomial(q, m_tail,
                                    t.coeff * shell_volume(q)
                                    * chi.t ** m_tail)
            total = total + geometric_series(q, chi.t * float(q) ** 0.5, 1, first)
    return total


# ---------------------------------------------------------------------------
# local factors


def _constant_term_kept(den: LaurentPoly, what: str) -> LaurentPoly:
    """den = prod_i (1 - a_i X), or a ValueError naming `what` when relative
    pruning dropped its constant term 1 (from |a_i| ~ 1e13 on; 1/den would
    then be c X^(-1) / (...), with no pole left)."""
    if 0 not in den.coeffs:
        raise ValueError("%s too large: constant term pruned" % what)
    return den


def l_factor(chi: MultChar) -> RationalFunc:
    """L(s, chi): 1/(1 - chi(p) X) unramified, 1 ramified; a ValueError when
    pruning dropped the constant term 1."""
    q = chi.p
    if chi.cond:
        return RationalFunc.one(q)
    den = _constant_term_kept(LaurentPoly.one_minus(q, 1, chi.t), "chi(p)")
    return RationalFunc(LaurentPoly.one(q), den)


def l_factor_satake(p: int, alpha) -> RationalFunc:
    """L(s, pi) = 1 / prod_i (1 - alpha_i X) for Satake parameters alpha: the
    denominators multiplied in list order from 1, under the numerator 1,
    with the values of the product of the `l_factor`s at chi(p) = alpha_i.  A
    ValueError for a p that is not prime, for alpha_i = 0 or when pruning
    dropped the constant term 1 of a factor or, once every factor has
    passed, of the product."""
    check_prime(p)
    den = LaurentPoly.one(p)
    for a in map(complex, alpha):
        if a == 0:
            raise ValueError("chi(p) must be nonzero")
        factor = _constant_term_kept(LaurentPoly.one_minus(p, 1, a), "chi(p)")
        if 0 in den.coeffs:     # a product without its 1 stays without it
            den = den * factor
    return RationalFunc(LaurentPoly.one(p), _constant_term_kept(den, "Satake parameters"))


def epsilon_factor(chi: MultChar) -> RationalFunc:
    """eps(s, chi, psi) for the level-0 psi.

    1 for unramified chi; for conductor a >= 1 the monomial
    (qX)^a * int_{S_{-a}} psi(y) chi^(-1)(y) dy*, the normalized Gauss sum
    calibrated so that gamma_closed agrees with the principal-value route;
    built by `ramified_epsilon` from chi's integers and t, no character.
    """
    if chi.cond == 0:
        return RationalFunc.one(chi.p)
    return ramified_epsilon(chi.p, chi.cond, chi.unit_char, chi.t)


def ramified_epsilon(q: int, a: int, unit_char: tuple[int, ...],
                     t: complex) -> RationalFunc:
    """`epsilon_factor` of chi of conductor a >= 1, reduced exponent vector
    `unit_char` and chi(p) = t: `coset_integral`'s product for chi^(-1) on
    S_{-a} at b = 1, with chi^(-1)(p^(-a)) from 1/t by the float operations
    of `MultChar.value_at`, so the same values, and no MultChar built."""
    inv = _unitary_inverse(q, a, unit_char).unit_char
    chi_rep = (1.0 / (1.0 / t)) ** a * unit_values(q, a, inv)[1]
    gauss = chi_rep * float(q) ** (-a) * _unit_sum(q, a, inv, 0, a, a, 1)
    return RationalFunc.monomial(q, a, gauss * float(q) ** a)


def gamma_closed(chi: MultChar) -> RationalFunc:
    """gamma(s, chi, psi) = eps(s, chi, psi) L(1-s, chi^(-1)) / L(s, chi):
    the eps monomial alone for ramified chi (both L-factors are 1), and for
    unramified chi, t = chi(p), the one closed form

        (-t q X + t^2 q X^2) / (1 - t q X),

    built as one RationalFunc with the values of the factor-by-factor
    product.  A ValueError exactly where `l_factor(chi)` or
    `l_factor(chi^(-1))` raises: 1 - c X keeps its constant term under
    relative pruning iff 1 > |c| PRUNE_REL_EPS, for c = t and c = 1/t."""
    if chi.cond:
        return epsilon_factor(chi)
    q, t = chi.p, chi.t
    if not (abs(t) * PRUNE_REL_EPS < 1.0 and abs(1.0 / t) * PRUNE_REL_EPS < 1.0):
        raise ValueError("chi(p) too large: constant term pruned")
    tq = t * q
    return RationalFunc(LaurentPoly(q, {1: -tq, 2: t * tq}),
                        LaurentPoly.one_minus(q, 1, tq))


def _guard_roundoff(q: int, m: int, t: complex) -> float:
    """gamma_(n+c) * mass, the most that roundoff can make of guard shell
    S_m of `gamma_pv_total` (exactly 0): n = q^(-m) - q^(-m-1) unit-modulus
    terms scaled by t^(-m) q^m, of mass |t|^(-m) (1 - 1/q), and
    gamma_k = k u / (1 - k u), u = 2^-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.3-3.5 and 4.2).  c = 40: each root of unity of a
    term is rect(1, fl(fl(TWO_PI * j) / N)), its angle within 2.35u * 2 pi
    < 15u (TWO_PI holds 2 pi to 0.35u) and cos, sin within an ulp (< 3u);
    their product adds sqrt(2) gamma_2 < 3u, so a term is within 39u of its
    exact value, and summation adds gamma_(n-1) per unit of mass, in all
    <= gamma_(n+38) of the mass.  The relative errors of the scaling and of
    this bound move c by less than 1."""
    nc = (q ** -m - q ** (-m - 1) + 40) * 2.0 ** -53
    return nc / (1.0 - nc) * abs(t) ** -m * shell_volume(q)


def gamma_pv_total(chi: MultChar, shell_floor: int | None = None) -> tuple[RationalFunc, tuple]:
    """Principal-value Mellin transform of the GL(1) kernel, as gamma(s), and
    the brute-summed shell range.

    Shell S_m contributes (q^(-1) X^(-1))^m times the exact shell integral
    of psi * chi^(-1); shells below -max(cond, 1) are verified to vanish (two
    guard shells, brute force, each to within its own roundoff bound
    `_guard_roundoff`) and then left out of the total, so their roundoff
    never lands in the result; the m >= 0 tail is resummed in closed form.

    `shell_floor` extends the brute-forced range downward; any cofinal
    truncation schedule yields the same rational function, which is the
    testable shape of the kernel's well-definedness.
    """
    q = chi.p
    a = chi.cond
    m_last = -max(a, 1)
    lo = m_last - 2 if shell_floor is None else min(shell_floor, m_last - 2)
    chi_inv = chi.inverse()
    one = PAdicElt.one(q)
    total = RationalFunc.zero(q)
    for m in range(lo, 0):
        val = shell_psi_chi_integral(q, m, chi_inv, b=one, brute=True)
        if m < m_last:
            bound = _guard_roundoff(q, m, chi.t)
            if abs(val) > bound:
                raise ShellGuardError(
                    "shell %d of the kernel Mellin integral should vanish, got %r,"
                    " beyond its roundoff bound %.3g" % (m, val, bound))
            continue
        if val != 0:
            total = total + RationalFunc.monomial(q, -m, val * float(q) ** (-m))
    if a == 0:
        # int over S_m of psi * chi^(-1) = t^(-m) (1 - 1/q) for m >= 0
        first = RationalFunc.const(q, shell_volume(q))
        total = total + geometric_series(q, 1.0 / (chi.t * q), -1, first)
    return total, (lo, -1)


def gamma_pv(chi: MultChar, twist: MultChar | None = None,
             shell_floor: int | None = None) -> IdentityReport:
    """gamma(s, chi * twist, psi) by two routes: the report's lhs is
    `gamma_closed`, its rhs `gamma_pv_total`, meta["shells"] its shell range."""
    prod = char_product(chi, twist) if twist is not None else chi
    total, shells = gamma_pv_total(prod, shell_floor)
    closed = gamma_closed(prod)
    return IdentityReport(closed, total, {"shells": shells})


# ---------------------------------------------------------------------------
# functional equation GL1-FE


def normalize_pi(pi_params, p: int) -> list[MultChar]:
    """Accept a GL(1) character, a list of characters, or a Satake list of
    nonzero scalars; return the list of rank-1 constituents."""
    if isinstance(pi_params, MultChar):
        return [pi_params]
    out = []
    for item in pi_params:
        if isinstance(item, MultChar):
            if item.p != p:
                raise ValueError("constituent at wrong prime")
            out.append(item)
        else:
            alpha = complex(item)
            if alpha == 0:
                raise ValueError("Satake parameters must be nonzero")
            out.append(unramified_char(p, alpha))
    if not out:
        raise ValueError("empty parameter list")
    return out


def verify_fe(phi, chi: MultChar, pi_params) -> IdentityReport:
    """Check Z(1-s, F_pi(phi), chi^(-1)) = gamma(s, pi x chi, psi) Z(s, phi, chi).

    For a StepFunction seed f the rank-1 Fourier operator acts in closed
    form: the pi-Schwartz function is |x|^(1/2) chi_pi(x) f(x) and
    F(|x|^(1/2) chi_pi f) = |x|^(1/2) chi_pi^(-1) F_psi(f).  For a
    C_c^inf(F^x) input the left side is one component of the Mellin-domain
    Hankel transform, at omega^(-1), taken with the principal-value gamma
    symbol; so the comparison pits the pv route against the closed-form
    route through the whole pipeline, and builds one pv symbol component.
    """
    p = chi.p
    constituents = normalize_pi(pi_params, p)
    rt_q = float(p) ** 0.5
    if isinstance(phi, StepFunction):
        if len(constituents) != 1:
            raise ValueError("a StepFunction seed needs a rank-1 pi")
        chi_pi = constituents[0]
        prod = char_product(chi, chi_pi)
        rhs = gamma_closed(prod) * zeta(phi, prod).scale_x(1.0 / rt_q)
        g = fourier_transform(phi)
        lhs = rf_dual_subst(zeta(g, prod.inverse()).scale_x(1.0 / rt_q))
        return IdentityReport(lhs, rhs)
    if isinstance(phi, MultStepFunction):
        from .kernel import gamma_symbol, hankel_component
        omega = chi.unitary_part()
        m_in = mellin_component(phi, omega)
        sym = gamma_symbol(constituents, omega.cond, p=p, route="pv")
        z_out = hankel_component(sym, m_in, omega).scale_x(rt_q / chi.t)
        lhs = rf_dual_subst(z_out)
        closed = gamma_symbol(constituents, omega.cond, p).component(omega)
        rhs = closed.scale_x(chi.t) * m_in.scale_x(chi.t * rt_q)
        return IdentityReport(lhs, rhs)
    raise TypeError("unsupported function model %r" % type(phi).__name__)
