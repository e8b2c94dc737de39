"""Laurent polynomials and rational functions in the formal variable X = q^(-s).

All identities in this package (zeta integrals, L-, epsilon- and gamma-factors,
Mellin data) are carried as rational functions of X over complex scalars, so
that functional equations can be checked as exact polynomial identities instead
of sampled numerics.  The substitution s -> 1-s becomes X -> X^(-1)/q and stays
inside the class.

Canonical form: the denominator is a Laurent polynomial with constant term 1
and no negative exponents; any monomial factor of the denominator is pushed
into the numerator.  No polynomial gcd is attempted (coefficients are floats).
Polynomials have the shared denominator `LaurentPoly.one(q)`: `from_poly`,
`const` and `monomial` give it, and `+`, `-`, `*` and substitution of such
keep it, so their arithmetic forms only numerators and skips
canonicalization.  A denominator equal to 1 that is not the shared one (a
quotient can leave one) takes the general path, with the same bits.
Relative pruning (`_prune`) runs only where magnitudes can change: negation,
`shift` and a product by the shared 1 keep those of a pruned polynomial.
The product x * 1 is not the identity on bits, since it turns the -0.0
parts of x into +0.0, so `LaurentPoly.__mul__` writes a product by the
shared 1 out as 0.0 + c * (1+0j) per coefficient, without the double loop
or `_prune`, and the polynomial `+` forms each of its two products by 1 the
same way.  The factors 1 - c X^e of L-factors and geometric series have one
constructor, `LaurentPoly.one_minus`.

Every comparison of two rational functions is an `IdentityReport`: it
computes the largest coefficient of the cross-multiplied difference
num_a*den_b - num_b*den_a (`rf_discrepancy`, called nowhere else) and judges
it with `ok(tol)`.  A check that finds its own results inconsistent raises
a `VerificationError`, a failed verification rather than bad input.  The
JSON form of a rational function lives in `serialize`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

from .defaults import COEFF_TOL, PRUNE_REL_EPS


class VerificationError(ArithmeticError):
    """A computation found its own results inconsistent: a broken internal
    invariant, not bad input.  The CLI exits 1 on it and on its subclasses
    alone."""


class NumericError(ArithmeticError):
    """A NaN/Inf escaped an arithmetic operation."""


class ZeroDenominatorError(ZeroDivisionError):
    """Division by the zero polynomial."""


def _check_finite(c: complex) -> complex:
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise NumericError("non-finite coefficient %r" % (c,))
    return c


_ONE = 1.0 + 0.0j


class LaurentPoly:
    """A Laurent polynomial sum_e c_e X^e with complex coefficients.

    Stored as a dict exponent -> coefficient with no (relatively) zero
    entries; `q` tags the residue-field size the variable X = q^(-s)
    refers to, so that the dual substitution knows its scale.
    """

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs: dict[int, complex]):
        if q < 2:
            raise ValueError("q must be a prime power > 1, got %r" % (q,))
        self.q = q
        self.coeffs = _prune(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, q: int) -> "LaurentPoly":
        return cls(q, {})

    @classmethod
    @functools.cache
    def one(cls, q: int) -> "LaurentPoly":
        return cls(q, {0: _ONE})

    @classmethod
    def monomial(cls, q: int, exp: int, coeff: complex = 1.0) -> "LaurentPoly":
        return cls(q, {exp: complex(coeff)})

    @classmethod
    def one_minus(cls, q: int, exp: int, coeff: complex) -> "LaurentPoly":
        """1 - coeff * X^exp for exp != 0, with the bits and the pruning of
        `one(q) - monomial(q, exp, coeff)`."""
        return cls(q, {0: _ONE, exp: 0.0 + -complex(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int:
        return min(self.coeffs)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LaurentPoly(0)"
        parts = ["(%r)*X^%d" % (c, e) for e, c in sorted(self.coeffs.items())]
        return "LaurentPoly(%s)" % " + ".join(parts)

    # -- ring operations ---------------------------------------------------

    def _same_q(self, other: "LaurentPoly") -> None:
        if self.q != other.q:
            raise ValueError("mixed q: %d vs %d" % (self.q, other.q))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._same_q(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return LaurentPoly(self.q, out)

    def __neg__(self) -> "LaurentPoly":
        return _pruned(self.q, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._same_q(other)
        one = LaurentPoly.one(self.q)
        if self is one or other is one:
            # the double loop's 0.0 + c * (1+0j) for each c of the other
            # factor, in either order the same bits and the same magnitudes
            x = other if self is one else self
            return _pruned(self.q, {e: 0.0 + c * _ONE for e, c in x.coeffs.items()})
        out: dict[int, complex] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0.0) + c1 * c2
        return LaurentPoly(self.q, out)

    def scale(self, c: complex) -> "LaurentPoly":
        c = complex(c)
        return LaurentPoly(self.q, {e: v * c for e, v in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by X^k."""
        return _pruned(self.q, {e + k: v for e, v in self.coeffs.items()})

    def subst_monomial(self, c: complex, sign: int) -> "LaurentPoly":
        """Substitute X -> c * X^sign (sign is +1 or -1)."""
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        out: dict[int, complex] = {}
        for e, v in self.coeffs.items():
            out[sign * e] = out.get(sign * e, 0.0) + v * (c ** e)
        return LaurentPoly(self.q, out)

    def eval(self, x: complex) -> complex:
        return _check_finite(sum((c * (x ** e) for e, c in self.coeffs.items()), 0.0 + 0.0j))


def _pruned(q: int, coeffs: dict[int, complex]) -> LaurentPoly:
    """A LaurentPoly of `coeffs`, which have the magnitudes of a pruned one's."""
    poly = LaurentPoly.__new__(LaurentPoly)
    poly.q, poly.coeffs = q, coeffs
    return poly


def _prune(coeffs: dict[int, complex]) -> dict[int, complex]:
    # Relative pruning keeps canonicalization from latching onto roundoff
    # residue as a "leading" coefficient.  A NaN or inf makes the sum non-finite.
    if len(coeffs) == 1:
        # the rule below for one coefficient, the case of 40-87 % of calls
        ((e, c),) = coeffs.items()
        a = abs(c)
        if not math.isfinite(a):
            _check_finite(complex(c))
        return {e: complex(c)} if a > a * PRUNE_REL_EPS else {}
    mags = list(map(abs, coeffs.values()))
    if not math.isfinite(sum(mags)):
        for c in coeffs.values():
            _check_finite(complex(c))
    cut = max(mags, default=0.0) * PRUNE_REL_EPS
    return {e: complex(c) for (e, c), a in zip(coeffs.items(), mags) if a > cut}


@dataclass(frozen=True)
class RationalFunc:
    """A ratio num/den of Laurent polynomials in X = q^(-s), canonicalized."""

    num: LaurentPoly
    den: LaurentPoly

    def __post_init__(self):
        if self.den is LaurentPoly.one(self.num.q):
            return      # already canonical
        if self.den.is_zero():
            raise ZeroDenominatorError("zero denominator")
        self.num._same_q(self.den)
        num, den = _canonicalize(self.num, self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_poly(cls, poly: LaurentPoly) -> "RationalFunc":
        return cls(poly, LaurentPoly.one(poly.q))

    @classmethod
    def const(cls, q: int, c: complex) -> "RationalFunc":
        return cls(LaurentPoly(q, {0: complex(c)}), LaurentPoly.one(q))

    @classmethod
    @functools.cache
    def zero(cls, q: int) -> "RationalFunc":
        return cls(LaurentPoly.zero(q), LaurentPoly.one(q))

    @classmethod
    @functools.cache
    def one(cls, q: int) -> "RationalFunc":
        return cls(LaurentPoly.one(q), LaurentPoly.one(q))

    @classmethod
    def monomial(cls, q: int, exp: int, coeff: complex = 1.0) -> "RationalFunc":
        return cls(LaurentPoly.monomial(q, exp, coeff), LaurentPoly.one(q))

    # -- field operations --------------------------------------------------

    @property
    def q(self) -> int:
        return self.num.q

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        one = LaurentPoly.one(self.q)
        if self.den is one and other.den is one:
            # num * 1 + num' * 1, each product's 0.0 + c * (1+0j) written out
            # (it clears the sign of zero parts), pruned once
            out = {e: 0.0 + c * _ONE for e, c in self.num.coeffs.items()}
            for e, c in other.num.coeffs.items():
                out[e] = out.get(e, 0.0) + (0.0 + c * _ONE)
            return RationalFunc(LaurentPoly(self.q, out), one)
        return RationalFunc(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __neg__(self) -> "RationalFunc":
        return RationalFunc(-self.num, self.den)

    def __sub__(self, other: "RationalFunc") -> "RationalFunc":
        return self + (-other)

    def __mul__(self, other: "RationalFunc") -> "RationalFunc":
        one = LaurentPoly.one(self.q)
        den = one if self.den is one and other.den is one else self.den * other.den
        return RationalFunc(self.num * other.num, den)

    def __truediv__(self, other: "RationalFunc") -> "RationalFunc":
        if other.num.is_zero():
            raise ZeroDenominatorError("division by zero rational function")
        return RationalFunc(self.num * other.den, self.den * other.num)

    def scale(self, c: complex) -> "RationalFunc":
        return RationalFunc(self.num.scale(c), self.den)

    def subst_monomial(self, c: complex, sign: int) -> "RationalFunc":
        """Substitute X -> c * X^sign and re-canonicalize."""
        den = self.den
        if den is not LaurentPoly.one(self.q):
            den = den.subst_monomial(c, sign)
        return RationalFunc(self.num.subst_monomial(c, sign), den)

    def scale_x(self, c: complex) -> "RationalFunc":
        """Substitute X -> c*X, i.e. shift s by -log_q(c)."""
        return self.subst_monomial(c, 1)

    def eval(self, x: complex) -> complex:
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return _check_finite(self.num.eval(x) / d)

    def eval_at_s(self, s: complex) -> complex:
        return self.eval(self.q ** (-s))

    def __repr__(self) -> str:
        return "RationalFunc(%r / %r)" % (self.num, self.den)


def _canonicalize(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    # Factor X^e out of den so it starts at exponent 0, push X^(-e) onto num,
    # then divide both by den's constant term.
    e = den.min_exp()
    c0 = den.coeffs[e]
    if e == 0 and c0 == 1:
        return num, den     # already canonical
    den = LaurentPoly(den.q, {k - e: v / c0 for k, v in den.coeffs.items()})
    num = LaurentPoly(num.q, {k - e: v / c0 for k, v in num.coeffs.items()})
    return num, den


def rf_dual_subst(a: RationalFunc) -> RationalFunc:
    """Realize s -> 1-s on X = q^(-s): substitute X -> q^(-1) * X^(-1)."""
    return a.subst_monomial(1.0 / a.q, -1)


def rf_reflected_product(a: RationalFunc, b: RationalFunc,
                         c: complex) -> RationalFunc:
    """a(c X^(-1)) * b(X^(-1)) as one rational function: one pass over the
    coefficient pairs of the numerators, one over those of the
    denominators, and one canonicalization.  When both denominators are the
    shared `LaurentPoly.one(q)`, so is the result's: reflecting 1 against 1
    gives 1 + 0j exactly."""
    def reflect(pa: LaurentPoly, pb: LaurentPoly) -> LaurentPoly:
        out: dict[int, complex] = {}
        for e1, c1 in pa.coeffs.items():
            c1 *= c ** e1
            for e2, c2 in pb.coeffs.items():
                e = -e1 - e2
                out[e] = out.get(e, 0.0) + c1 * c2
        return LaurentPoly(a.q, out)

    a.num._same_q(b.num)
    one = LaurentPoly.one(a.q)
    den = one if a.den is one and b.den is one else reflect(a.den, b.den)
    return RationalFunc(reflect(a.num, b.num), den)


def rf_series_coeffs(a: RationalFunc, m_lo: int, m_hi: int) -> list[complex]:
    """Laurent-series coefficients of X^m, m in [m_lo, m_hi], around X = 0.

    In canonical form the denominator has constant term 1, so the expansion
    exists as a Laurent series with finite principal part; coefficients are
    produced by the linear recurrence the denominator induces; over the
    denominator 1 they are the numerator's own.
    """
    if m_lo > m_hi:
        raise ValueError("empty window [%d, %d]" % (m_lo, m_hi))
    if a.num.is_zero():
        return [0.0 + 0.0j] * (m_hi - m_lo + 1)
    den = a.den.coeffs
    if den == {0: 1}:
        return [a.num.coeffs.get(m, 0.0 + 0.0j) for m in range(m_lo, m_hi + 1)]
    if den.get(0, 0) == 0:
        raise ZeroDenominatorError("denominator vanishes at X=0; no expansion")
    start = a.num.min_exp()
    coeffs: dict[int, complex] = {}
    for m in range(start, m_hi + 1):
        c = a.num.coeffs.get(m, 0.0 + 0.0j)
        for k, d in den.items():
            if k >= 1:
                c -= d * coeffs.get(m - k, 0.0 + 0.0j)
        coeffs[m] = c
    return [_check_finite(coeffs.get(m, 0.0 + 0.0j)) for m in range(m_lo, m_hi + 1)]


def rf_discrepancy(a: RationalFunc, b: RationalFunc) -> float:
    """Canonical-form cross-multiplied coefficient discrepancy max|ad - cb|."""
    diff = a.num * b.den - b.num * a.den
    return diff.max_abs()


@dataclass
class IdentityReport:
    """Both sides of a rational-function identity and their coefficient
    discrepancy `max_coeff_diff`, which the report computes itself; every
    identity check returns one.  `meta` holds what a check adds: the shell
    range of `gamma_pv` ("shells") and the route of `basic_zeta_check`
    ("route")."""

    lhs: RationalFunc
    rhs: RationalFunc
    meta: dict = field(default_factory=dict)
    max_coeff_diff: float = field(init=False)

    def __post_init__(self):
        self.max_coeff_diff = rf_discrepancy(self.lhs, self.rhs)

    def ok(self, tol: float = COEFF_TOL) -> bool:
        return self.max_coeff_diff <= tol


def geometric_series(q: int, ratio_coeff: complex, ratio_exp: int,
                     first_term: RationalFunc) -> RationalFunc:
    """Closed form of first_term * sum_{j>=0} (ratio_coeff * X^ratio_exp)^j.

    The formal geometric resummation used for principal-value tails; the
    result is the rational function first_term / (1 - ratio), regardless of
    the numeric magnitude of ratio_coeff (meromorphic continuation by
    rational-function identity), with 1 - ratio built by
    `LaurentPoly.one_minus`.
    """
    return first_term * RationalFunc(LaurentPoly.one(q),
                                     LaurentPoly.one_minus(q, ratio_exp, ratio_coeff))


TWO_PI = 2 * math.pi


def root_of_unity(phase_num: int, phase_den: int) -> complex:
    """exp(2*pi*i*phase_num/phase_den), the package's only transcendental.

    The angle is fl(fl(2*pi*j) / n) for the reduced phase j, and `rect`
    returns (cos, sin) of it from the platform libm: the same bits as
    cmath.exp(2j*cmath.pi*j/n), which computes the same angle and multiplies
    the same cos and sin by exp(0.0) = 1.0.  `zetagamma._unit_sum` writes
    this expression out inline."""
    return cmath.rect(1.0, TWO_PI * (phase_num % phase_den) / phase_den)
