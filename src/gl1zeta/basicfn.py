"""The unramified basic function on Q_p^x built from Satake parameters.

For pi unramified with Satake parameters alpha = (alpha_1, ..., alpha_n),
the basic function is supported on v >= 0, Z_p^x-invariant, with shell
values

    L_pi(S_m) = h_m(alpha) * q^(-m/2) / (1 - 1/q),   m >= 0,

where h_m is the complete homogeneous symmetric polynomial (the X^m series
coefficient of prod_i (1 - alpha_i X)^(-1)).  The 1/(1 - 1/q) normalization
is the unique constant making Z(s, L_pi, chi) = L(s, pi x chi) under this
package's measure (vol(Z_p^x, dx*) = 1 - 1/q).  h_0..h_w come from one
series pass per Satake list; a list so large that pruning drops the constant
term 1 of the product raises ValueError (`zetagamma.l_factor_satake`).

basic_zeta_check assembles the zeta integral by an independent route
(partial fractions into geometric shell tails) and compares it with the
Satake product; basic_fourier_check verifies F(L_pi) = L_{pi~} in the
Mellin domain, i.e. gamma(s, pi) L(s, pi) = L(1-s, pi~) as rational
functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import MultChar, trivial_char
from .kernel import gamma_symbol, hankel_component
from .padic import check_prime
from .ratfunc import (IdentityReport, LaurentPoly, RationalFunc, VerificationError,
                      geometric_series, rf_series_coeffs)
from .zetagamma import l_factor_satake


def _h_series(alpha, window: int) -> list[complex]:
    """h_0(alpha), ..., h_window(alpha): one pass of the series recurrence of
    prod (1 - alpha_i X)^(-1).  h_m has no prime; q = 2 only tags X."""
    return rf_series_coeffs(l_factor_satake(2, alpha), 0, window)


def complete_homogeneous(m: int, alpha) -> complex:
    """h_m(alpha), the last term of `_h_series(alpha, m)`."""
    if m < 0:
        raise ValueError("h_m needs m >= 0")
    return _h_series(alpha, m)[m]


@dataclass(frozen=True)
class BasicFunction:
    """The pi-basic function of an unramified pi with Satake list alpha."""

    p: int
    alpha: tuple[complex, ...]

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "alpha", tuple(complex(a) for a in self.alpha))
        if any(a == 0 for a in self.alpha):
            raise ValueError("Satake parameters must be nonzero")

    def shell_values(self, window: int) -> list[complex]:
        """L_pi(S_0), ..., L_pi(S_window), one `_h_series` pass."""
        return [h * float(self.p) ** (-m / 2.0) / (1.0 - 1.0 / self.p)
                for m, h in enumerate(_h_series(self.alpha, window))]

    def shell_value(self, m: int) -> complex:
        return self.shell_values(m)[m] if m >= 0 else 0.0 + 0.0j

    def dual(self) -> "BasicFunction":
        """Basic function of the contragredient: Satake list alpha^(-1)."""
        return BasicFunction(self.p, tuple(1.0 / a for a in self.alpha))

    def mellin_component(self) -> RationalFunc:
        """M(L_pi)(omega)(X) at the trivial omega: prod (1 - alpha_i q^(-1/2)
        X)^(-1).  Every ramified component is zero."""
        rt = float(self.p) ** -0.5
        return l_factor_satake(self.p, [a * rt for a in self.alpha])

    def table(self, window: int) -> list[tuple[int, complex]]:
        return list(enumerate(self.shell_values(window)))


# Largest partial-fraction weight |c_i| = |prod_{j != i} 1/(1 - alpha_j/alpha_i)|
# for which basic_zeta_check assembles the zeta side from geometric tails.
# Cancellation among the tails costs digits in proportion to the weights.  On
# 30,000 random unitary lists of rank 3 and 4 with p <= 13, those with every
# |c_i| <= 30 stayed below 5e-12, against the 1e-10 tolerance.
_MAX_PF_WEIGHT = 30.0


def _pf_weights(alpha) -> list[complex] | None:
    """c_i with h_m(alpha) = sum_i c_i alpha_i^m, or None when two Satake
    parameters coincide or some |c_i| exceeds _MAX_PF_WEIGHT."""
    weights = []
    for i, ai in enumerate(alpha):
        c = 1.0 + 0.0j
        for j, aj in enumerate(alpha):
            if j != i:
                gap = 1.0 - aj / ai
                if gap == 0:
                    return None
                c /= gap
        if abs(c) > _MAX_PF_WEIGHT:
            return None
        weights.append(c)
    return weights


def basic_zeta_check(alpha, chi: MultChar,
                     window: int = 10) -> IdentityReport:
    """Z(s, L_pi, chi) == L(s, pi x chi) for unramified chi.

    The zeta side is assembled from the shell values: when the Satake
    parameters are well separated (every partial-fraction weight |c_i| at
    most 30), via partial fractions into closed-form geometric tails
    (sum_i c_i / (1 - alpha_i t q^... X) after the s-1/2 shift); otherwise the
    report compares two polynomials, of the shell coefficients and of the
    L-series coefficients, on X^0 .. X^window (meta["route"] says which).  On
    the first route a spot check ties the assembled series back to the
    defining shell values, and raises VerificationError when it does not.
    """
    if chi.cond != 0:
        raise ValueError("the basic function pairs with unramified chi only")
    q = chi.p
    fn = BasicFunction(q, tuple(complex(a) for a in alpha))
    t = chi.t
    twisted = [a * t for a in fn.alpha]
    rhs = l_factor_satake(q, twisted)
    vol = 1.0 - 1.0 / q
    weights = _pf_weights(fn.alpha)
    if weights is not None:
        # partial fractions: h_m(alpha) = sum_i c_i alpha_i^m
        lhs = RationalFunc.zero(q)
        for ai, c in zip(fn.alpha, weights):
            # shell m contributes value*vol*t^m*(q^(1/2)X)^m; value has
            # q^(-m/2)/vol, so the shell series is sum_m c_i (alpha_i t X)^m
            lhs = lhs + geometric_series(q, ai * t, 1, RationalFunc.const(q, c))
    else:
        coeffs = [v * vol * (t ** m) * float(q) ** (m / 2.0)
                  for m, v in enumerate(fn.shell_values(window))]
        want = rf_series_coeffs(rhs, 0, window)
        return IdentityReport(
            RationalFunc.from_poly(LaurentPoly(q, dict(enumerate(coeffs)))),
            RationalFunc.from_poly(LaurentPoly(q, dict(enumerate(want)))),
            {"route": "series-window"})
    # spot check: assembled series coefficients reproduce the shell values
    got = rf_series_coeffs(lhs, 0, min(window, 6))
    for m, (c, v) in enumerate(zip(got, fn.shell_values(min(window, 6)))):
        want = v * vol * (t ** m) * float(q) ** (m / 2.0)
        if abs(c - want) > 1e-9 * max(1.0, abs(want)):
            raise VerificationError("shell value mismatch at m=%d" % m)
    return IdentityReport(lhs, rhs, {"route": "partial-fractions"})


def basic_fourier_check(alpha, p: int) -> IdentityReport:
    """F_pi(L_pi) == L_{pi~}, checked in the Mellin domain.

    The trivial component must satisfy
        [gamma(s, pi) * M(L_pi)](s -> 1-s) = M(L_{pi~}),
    with epsilon = 1 in the unramified case; ramified components vanish on
    both sides, so the trivial component carries the whole identity.
    """
    fn = BasicFunction(p, tuple(complex(a) for a in alpha))
    lhs = hankel_component(gamma_symbol(list(fn.alpha), 0, p),
                           fn.mellin_component(), trivial_char(p))
    return IdentityReport(lhs, fn.dual().mellin_component())
