"""The unramified basic function on Q_p^x built from Satake parameters.

For pi unramified with Satake parameters alpha = (alpha_1, ..., alpha_n),
the basic function is supported on v >= 0, Z_p^x-invariant, with shell
values

    L_pi(S_m) = h_m(alpha) * q^(-m/2) / (1 - 1/q),   m >= 0,

where h_m is the complete homogeneous symmetric polynomial (the X^m series
coefficient of prod_i (1 - alpha_i X)^(-1)).  The 1/(1 - 1/q) normalization
is the unique constant making Z(s, L_pi, chi) = L(s, pi x chi) under this
package's measure (vol(Z_p^x, dx*) = 1 - 1/q).  h_0..h_w come from Newton's
identities in the power sums of alpha, one pass per Satake list, and read no
L-factor.

basic_zeta_check compares the zeta coefficients of the shell values with the
series of the Satake product L(s, pi x chi) on one window of X, scaled by the
largest |alpha_i t|; a list so large that pruning drops the constant term 1
of the product raises ValueError (`zetagamma.l_factor_satake`).
basic_fourier_check verifies F(L_pi) = L_{pi~} in the Mellin domain, i.e.
gamma(s, pi) L(s, pi) = L(1-s, pi~) as rational functions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .characters import MultChar, trivial_char
from .kernel import gamma_symbol, hankel_component
from .padic import check_prime, shell_volume
from .ratfunc import (IdentityReport, LaurentPoly, NumericError, RationalFunc,
                      rf_series_coeffs)
from .zetagamma import l_factor_satake


def _h_series(alpha, window: int) -> list[complex]:
    """h_0(alpha), ..., h_window(alpha) by Newton's identities
    m h_m = sum_{k=1..m} p_k h_(m-k), with the power sums p_k = sum_i
    alpha_i^k (Macdonald, Symmetric Functions and Hall Polynomials, I.2).
    The powers come by repeated multiplication, so an overflow is a
    non-finite coefficient (NumericError), and a conjugate-closed list keeps
    every imaginary part exactly 0."""
    if window < 0:
        raise ValueError("empty window [0, %d]" % window)
    powers, power_sums = list(alpha), []
    for _ in range(window):
        power_sums.append(sum(powers, 0.0 + 0.0j))
        powers = [x * a for x, a in zip(powers, alpha)]
    h = [1.0 + 0.0j]
    for m in range(1, window + 1):
        h.append(sum(power_sums[k - 1] * h[m - k] for k in range(1, m + 1)) / m)
    if not all(map(cmath.isfinite, h)):
        raise NumericError("h_m(alpha) overflows at some m <= %d" % window)
    return h


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
        vol = shell_volume(self.p)
        return [h * float(self.p) ** (-m / 2.0) / vol
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


def basic_zeta_check(alpha, chi: MultChar,
                     window: int = 10) -> IdentityReport:
    """Z(s, L_pi, chi) == L(s, pi x chi) for unramified chi.

    Compares two polynomials on X^0 .. X^window: the zeta coefficients of the
    shell values, value * vol * t^m * q^(m/2) at shell m, and the series
    coefficients of L(s, pi x chi) = prod_i (1 - alpha_i t X)^(-1).  Both
    are read in the variable R X with R = max(1, max_i |alpha_i t|), so
    coefficient m is scaled by R^(-m) and large Satake parameters compare
    on the scale of their own terms.  The shell values come from Newton's
    identities, which read no L-factor, so a wrong one fails the check.
    """
    if chi.cond != 0:
        raise ValueError("the basic function pairs with unramified chi only")
    q, t = chi.p, chi.t
    fn = BasicFunction(q, tuple(complex(a) for a in alpha))
    twisted = [a * t for a in fn.alpha]
    want = rf_series_coeffs(l_factor_satake(q, twisted), 0, window)
    vol = shell_volume(q)
    r = max([1.0] + [abs(a) for a in twisted])
    got = [v * vol * (t ** m) * float(q) ** (m / 2.0)
           for m, v in enumerate(fn.shell_values(window))]

    def in_rx(coeffs):
        return RationalFunc.from_poly(
            LaurentPoly(q, {m: c * r ** -m for m, c in enumerate(coeffs)}))
    return IdentityReport(in_rx(got), in_rx(want))


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
