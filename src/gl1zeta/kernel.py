"""GL(1) kernel functions, gamma symbols, and the Hankel transform.

The rank-1 kernel attached to a multiplicative character chi is

    k(x) = psi(x) * chi^(-1)(x) * |x|^(1/2);

it never vanishes, and |k(x)| = q^(-v(x)/2).  Its Mellin transform
(principal value) is the gamma factor, computed in `zetagamma`; here the
kernel drives the Fourier operator on C_c^inf(F^x) two ways:

* hankel_convolve -- the convolution (k * phi^v)(x) evaluated pointwise as
  finite Gauss-type coset sums;
* hankel_mellin -- the Mellin-domain route, one `hankel_component` per
  nonzero component of M(phi): the reflected product

      M(F phi)(w^(-1))(X) = Gamma(w)(q^(-1/2) X^(-1)) * M(phi)(w)(X^(-1)),

  built as one rational function (`ratfunc.rf_reflected_product`); the checks
  that compare one component (`verify_fe`, `basic_fourier_check`) compute
  M(phi)(omega) alone and pass it to `hankel_component`, with a gamma symbol
  at omega's conductor.

`homogeneous_identity_check` is the functional equation at chi |.|^(1/2):
it calls `verify_fe`, which takes F_pi from the principal-value symbol and
compares it with the closed-form gamma.

For unramified GL(n) the kernel is represented only through its gamma
symbol, the map omega -> gamma(s, pi x omega, psi) built multiplicatively
from Satake parameters, one component at a time as it is read; both routes
exist (and are compared) at n = 1.  Every gamma(s, pi x omega, psi) of the
package is read from a symbol, the only product of rank-1 gamma factors.

The convolution route runs on integers.  `hankel_convolve` forms each
x * rep as a (valuation, unit) pair, and `kernel_coset_integral` hands those
integers to `zetagamma.coset_integral`, the package's one integer-coordinate
psi * chi integral, at every level (level 0, a whole shell, is its k = 0
case); no second summation loop lives here.  Within one
`hankel_convolve` call each coset integral is computed once per key
(valuation, unit mod p^max(cond, d), level), d = max(0, -valuation); the
memo belongs to the call.  An input shell below the kernel's support (the
rule `zetagamma.vanishes_by_oscillation`: its integrals are all 0) is
skipped.  `PAdicElt` appears only as the rows' representatives, each the
shared `PAdicElt.at(p, m, u)`, built once per process.

`trace_average_check` is the finite verifier of the vanishing lemma for
averages of psi(tr(g h)) over principal congruence subgroups of SL_2; it
counts the integer phases mod p^d of psi(tr(g h)) from the entries of h
mod p^max(d, l0), walking each distinct row of phases once per call over
one period, so its work does not grow with the level L, and adds at most
p^d float terms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, log2
from operator import mul

from .characters import MultChar, char_product, product_data, unramified_char
from .defaults import DEFAULT_PREC
from .padic import PAdicElt, check_prime, psi_value, unit_residues
from .ratfunc import (IdentityReport, RationalFunc, rf_reflected_product,
                      root_of_unity)
from .stepfn import MellinData, MultStepFunction, mellin
from .zetagamma import (coset_integral, gamma_closed, gamma_pv_total,
                        normalize_pi, ramified_epsilon, vanishes_by_oscillation,
                        verify_fe)


# ---------------------------------------------------------------------------
# rank-1 kernels


@dataclass(frozen=True)
class Gl1Kernel:
    """k(x) = psi(x) chi^(-1)(x) |x|^(1/2); the matrix coefficient of the
    contragredient is chi^(-1) itself."""

    chi: MultChar

    @property
    def p(self) -> int:
        return self.chi.p

    @cached_property
    def chi_inv(self) -> MultChar:
        return self.chi.inverse()

    def eval(self, x: PAdicElt) -> complex:
        return (psi_value(x) / self.chi.eval(x)
                * float(self.p) ** (-x.val / 2.0))


# ---------------------------------------------------------------------------
# Lemma-3.1-style finite verifier (n = 2)


def trace_average_check(p: int, g, l0: int, L: int) -> complex:
    """Average of psi(tr(g h)) over h in (1 + p^l0 M_2) ∩ SL_2 modulo the
    level-L principal congruence subgroup.

    `g` is a 2x2 matrix of rationals with p-power denominators.  Input
    range: p in {2, 3}, d <= 3 and 1 <= l0 < L with L >= l0 + d, where d
    is the largest denominator exponent in g (so the integrand is constant
    on level-L cosets).  The counts' work grows with p^d, so d is capped,
    and not with L, which grows only their integers.  The float average
    needs the p^(3(L - l0)) cosets to be a finite double (L - l0 <= 341
    at p = 2, <= 215 at p = 3).  Inputs outside the range are a ValueError.

    The phase of psi(tr(g h)) is an integer j mod p^d, so the average is
    sum_j N_j zeta^j / p^(3(L - l0)), zeta = exp(2 pi i / p^d), from the
    integer counts N = `_phase_counts(p, g, l0, L)`: at most p^d float
    terms, in ascending j.  It is 0 exactly when N_j depends only on
    j mod p^(d-1), as Phi_(p^d)(x) = Phi_p(x^(p^(d-1))) (T. Y. Lam and
    K. H. Leung, J. Algebra 224 (2000)).
    """
    check_prime(p)
    if 3 * (L - l0) * log2(p) >= 1024:
        raise ValueError("float range: need p^(3(L - l0)) < 2^1024")
    counts = _phase_counts(p, g, l0, L)
    total = sum(n * root_of_unity(j, len(counts)) for j, n in enumerate(counts))
    return total / p ** (3 * (L - l0))


def _phase_counts(p: int, g, l0: int, L: int) -> list[int]:
    """N_j, the number of cosets h where psi(tr(g h)) has phase j / p^d.

    h = [[a, b], [c, (1 + bc)/a]] runs over a in 1 + p^l0 Z, b, c in p^l0 Z,
    each mod p^L.  The phase lives mod p^d and sees a, b and a^(-1) only mod
    p^d, so (a, b) runs mod M = p^max(d, l0), each pair standing for its
    (p^L / M)^2 lifts mod p^L.  tr(g h) is affine in c = p^l0 ic, so the
    phases of one (a, b) are (r0 + ic * delta) mod p^d, ic < p^(L - l0),
    which repeat with period P = p^d / gcd(delta, p^d) (Lam-Leung, below);
    P divides p^(L - l0), as L >= l0 + d.  Each pair adds its lifts to its
    row (r0, delta), and each distinct row adds its multiplicity times
    p^(L - l0) / P to N along one period (the lemma-3.1 grid: 80 rows from
    660 pairs in 108 steps), whatever L is.
    """
    check_prime(p)
    if p not in (2, 3):
        raise ValueError("finite verifier is capped at p in {2, 3}")
    if not 1 <= l0 < L:
        raise ValueError("need 1 <= l0 < L")
    entries = [Fraction(g[i][j]) for i in range(2) for j in range(2)]
    d = 0
    for e in entries:
        den = e.denominator
        k = 0
        while den % p == 0:
            den //= p
            k += 1
        if den != 1:
            raise ValueError("entry %r has a denominator prime to p" % (e,))
        d = max(d, k)
    if d > 3:
        raise ValueError("cost cap: need denominators dividing p^3, got p^%d" % (d,))
    if L < l0 + d:
        raise ValueError("precision guard: need L >= l0 + %d" % (d,))
    g00, g01, g10, g11 = entries
    if g00 * g11 - g01 * g10 == 0:
        raise ValueError("g must be invertible")
    modD = p ** d
    # integer numerators of the entries over the common denominator p^d
    n00, n01, n10, n11 = (int(e * modD) % modD for e in entries)
    modM = p ** max(d, l0)
    lifts = (p ** L // modM) ** 2
    span = p ** (L - l0)
    step = p ** l0
    rows: Counter[tuple[int, int]] = Counter()
    for a in range(1, modM, step):
        a_inv = pow(a, -1, modM)
        for b in range(0, modM, step):
            # tr(g h) = n00 a + n10 b + n11 a^(-1) + c (n01 + n11 b a^(-1))
            r0 = (n00 * a + n10 * b + n11 * a_inv) % modD
            delta = (step * (n01 + n11 * b * a_inv)) % modD
            rows[r0, delta] += lifts
    counts = [0] * modD
    for (r0, delta), mult in rows.items():
        period = modD // gcd(delta, modD)
        weight = mult * span // period
        for ic in range(period):
            counts[(r0 + ic * delta) % modD] += weight
    return counts


def lemma31_grid(p: int, l0: int) -> list[list[list[Fraction]]]:
    """Default grid of matrices satisfying the vanishing hypotheses at level
    l0 in {1, 2}, with the dominant entry placed on and off the diagonal (the
    entry-dominance branches reachable at n = 2).  The same six matrices
    serve both levels; at l0 >= 3 psi(tr(g h)) is constant on every coset,
    outside the lemma, so other levels raise ValueError."""
    if p not in (2, 3):
        raise ValueError("grid is defined for p in {2, 3}")
    if l0 not in (1, 2):
        raise ValueError("grid is defined for l0 in {1, 2}")
    u = 2 if p == 3 else 1
    P = Fraction(p)
    mats = [
        # diagonal-dominant (sigma(1) = 1)
        [[P ** -3, Fraction(0)], [Fraction(0), u * P ** 2]],
        [[P ** -3, Fraction(1)], [Fraction(0), u * P ** 2]],
        # antidiagonal-dominant (sigma(1) = n)
        [[Fraction(0), P ** -3], [u * P ** 2, Fraction(0)]],
        [[Fraction(1), P ** -3], [u * P ** 2, Fraction(1)]],
        # dominant entry in the lower-left corner
        [[Fraction(0), u * P ** 2], [P ** -3, Fraction(0)]],
        [[Fraction(1), u * P ** 2], [P ** -3, Fraction(0)]],
    ]
    return mats


# ---------------------------------------------------------------------------
# gamma symbols


@dataclass
class GammaSymbol:
    """Map omega -> gamma(s, pi x omega, psi) as rational functions in X.

    Components are stored at the s-normalization of gamma_closed; the
    (s+1/2)-shift required by the kernel Mellin transform is applied by
    `hankel_component`, which reads a component at q^(-1/2) X^(-1).  A
    component is built on its first read, from the constituents by `route`,
    as the product of their rank-1 factors starting from the first (n - 1
    products at rank n), and kept in `components`: the callers read a
    handful of the components up to conductor c_max, and a pv component
    costs brute guard-shell sums.  A closed ramified factor is the eps
    monomial of the integers of chi x omega (`characters.product_data`),
    built with no character; an unramified one is `gamma_closed`.
    """

    p: int
    c_max: int
    constituents: tuple[MultChar, ...]
    route: str
    components: dict[MultChar, RationalFunc] = field(default_factory=dict)

    def component(self, omega: MultChar) -> RationalFunc:
        key = omega.unitary_part()
        comp = self.components.get(key)
        if comp is not None:
            return comp
        if key.p != self.p or key.cond > self.c_max:
            raise KeyError("gamma symbol has no component at conductor %d "
                           "(c_max = %d)" % (omega.cond, self.c_max))

        def factor(chi: MultChar) -> RationalFunc:
            if self.route == "pv":
                return gamma_pv_total(char_product(chi, key))[0]
            cond, vec, t = product_data(chi, key)
            return (ramified_epsilon(self.p, cond, vec, t) if cond
                    else gamma_closed(unramified_char(self.p, t)))

        comp = self.components[key] = reduce(mul, map(factor, self.constituents))
        return comp


def gamma_symbol(params, c_max: int, p: int,
                 route: str = "closed") -> GammaSymbol:
    """The gamma symbol of pi from Satake parameters or a GL(1) character
    list, multiplicatively: component at omega is the product of rank-1
    gamma factors of the constituents twisted by omega.

    route="pv" computes each rank-1 factor by the principal-value shell
    sums instead of the closed epsilon*L-ratio form.  The arguments are
    checked here; the components are built when read.
    """
    if route not in ("closed", "pv"):
        raise ValueError("route must be 'closed' or 'pv'")
    if c_max < 0:
        raise ValueError("c_max must be >= 0")
    return GammaSymbol(p, c_max, tuple(normalize_pi(params, p)), route)


# ---------------------------------------------------------------------------
# Hankel transform, two routes


def hankel_component(sym: GammaSymbol, m_in: RationalFunc,
                     omega: MultChar) -> RationalFunc:
    """M(F phi)(omega^(-1)) from m_in = M(phi)(omega) (`mellin_component`):

        M(F phi)(omega^(-1))(X) = Gamma(omega)(q^(-1/2) / X) * m_in(1 / X),

    Tate's local functional equation read in X = q^(-s): both Mellin
    transforms carry the |x|^s convention and Gamma sits at the gamma(s, .)
    normalization, so s -> 1-s and the (s+1/2)-shift of the kernel leave
    one rescaling, on Gamma alone.  One `rf_reflected_product`.  A zero
    M(phi)(omega) gives zero and reads no symbol component."""
    if m_in.is_zero():
        return RationalFunc.zero(sym.p)
    return rf_reflected_product(sym.component(omega), m_in,
                                float(sym.p) ** -0.5)


def hankel_mellin(phi: MultStepFunction, sym: GammaSymbol) -> MellinData:
    """Mellin data of F_pi(phi), one `hankel_component` per nonzero
    component of M(phi)."""
    md = mellin(phi, sym.c_max)
    out = MellinData(phi.p, md.c_max)
    for w, m_in in md.comps.items():
        out.comps[w.inverse()] = hankel_component(sym, m_in, w)
    return out


@dataclass
class ShellTable:
    """Pointwise values on coset representatives across a shell window."""

    p: int
    level: int
    rows: list[tuple[int, PAdicElt, complex]]

    def value_at(self, x: PAdicElt) -> complex:
        for m, rep, v in self.rows:
            if x.val == m and (self.level == 0
                               or x.unit_mod(self.level) == rep.unit_mod(self.level)):
                return v
        raise KeyError("no row covers %r" % (x,))


def kernel_coset_integral(k: Gl1Kernel, val: int, unit: int,
                          level: int) -> complex:
    """int over p^val*unit*(1+p^level Z_p) (level >= 1) or p^val*Z_p^x
    (level 0) of psi(y) chi^(-1)(y) |y|^(1/2) dy*, as a finite Gauss-type
    sum; the unit is known to DEFAULT_PREC digits."""
    if level == 0:
        unit = 1  # the integral over a whole shell does not see the unit
    # psi(y) is psi(b y) at b = 1, so the twisted point is the coset rep
    value = coset_integral(k.chi_inv, level, val, unit, DEFAULT_PREC,
                           val, unit, DEFAULT_PREC)
    return value * float(k.p) ** (-val / 2.0)


def hankel_convolve(phi: MultStepFunction, k: Gl1Kernel,
                    m_lo: int, m_hi: int, level: int) -> ShellTable:
    """(k * phi^v)(x) = int k(y) phi(x^(-1) y) dy* on the shell window.

    Values are reported on 1+p^level cosets, level at least phi's coset
    level (a coarser row would mix values).  The coset integral at
    a = x * rep depends on a only through its valuation and its unit mod
    p^max(cond, d), d = max(0, -v(a)), so each call computes it once per
    such key; the memo lives for the call.  An input shell on which
    `vanishes_by_oscillation` holds adds only zeros and is skipped; each row
    adds the other terms in phi's coset order.  The rows' representatives
    are the shared `PAdicElt.at`.
    """
    p = phi.p
    if k.p != p:
        raise ValueError("mixed primes %d, %d" % (p, k.p))
    if level < phi.max_level():
        raise ValueError("level %d below the function's coset level %d"
                         % (level, phi.max_level()))
    cond = k.chi.cond
    units = unit_residues(p, level)
    memo: dict[tuple[int, int, int], complex] = {}
    rows: list[tuple[int, PAdicElt, complex]] = []
    for m in range(m_lo, m_hi + 1):
        totals = [0.0 + 0.0j] * len(units)
        for rep_val, (rep_k, coeffs) in phi._shells.items():
            val = m + rep_val
            if vanishes_by_oscillation(-val, cond, rep_k):
                continue
            mod = p ** max(cond, -val)
            for rep_unit, coeff in coeffs.items():
                for i, u in enumerate(units):
                    unit = u * rep_unit
                    key = (val, unit % mod, rep_k)
                    value = memo.get(key)
                    if value is None:
                        value = memo[key] = kernel_coset_integral(k, val, unit, rep_k)
                    totals[i] += coeff * value
        rows.extend((m, PAdicElt.at(p, m, u), total)
                    for u, total in zip(units, totals))
    return ShellTable(p, level, rows)


def homogeneous_identity_check(chi: MultChar, pi_params,
                               phi0: MultStepFunction) -> IdentityReport:
    """The homogeneous-distribution identity F_pi(chi_s^(-1)) =
    gamma(1/2, pi x chi_s, psi) * chi_s, paired against the test function.

    Both pairings are zeta integrals at s + 1/2:
      (F(chi_s^(-1)), phi0) := (chi_s^(-1), F(phi0)) = Z(1/2 - s, F(phi0), chi^(-1))
      gamma(1/2, pi x chi_s) * (chi_s, phi0)
        = gamma(s + 1/2, pi x chi) * Z(s + 1/2, phi0, chi)
    so the identity is the functional equation at chi |.|^(1/2), whose
    unramified parameter is t q^(-1/2).  `verify_fe` there compares F_pi,
    taken with the principal-value gamma symbol, with the closed-form gamma."""
    half = MultChar(chi.p, chi.cond, chi.unit_char, chi.t / float(chi.p) ** 0.5)
    return verify_fe(phi0, half, pi_params)
