"""Numeric Archimedean local factors and functional-equation checks.

Conventions (chosen so the Gaussian seeds are Fourier self-dual):

* real place: psi(x) = exp(2*pi*i*x), self-dual Lebesgue measure dx,
  dx* = dx/|x|; characters chi(x) = sgn(x)^eps |x|^(i*t);
  L(s, chi) = Gamma_R(s + i*t + eps) with Gamma_R(s) = pi^(-s/2) Gamma(s/2);
  eps-factor (-i)^eps.
* complex place: psi(z) = exp(2*pi*i*(z + conj(z))), self-dual measure
  2 dx dy, dz* = 2 dx dy / |z|_C with the module |z|_C = z conj(z);
  chi(z) = (z/|z|)^n |z|_C^(i*t); L(s, chi) = Gamma_C(s + i*t + |n|/2) with
  Gamma_C(s) = 2 (2*pi)^(-s) Gamma(s); eps-factor i^(|n|).

gamma(s, chi, psi) = eps * L(1-s, chi^(-1)) / L(s, chi).  psi is the only
additive character: psi^(-1)(x) = psi(-x), so gamma(s, chi, psi^(-1)) =
chi(-1) gamma(s, chi, psi), and F_psi applied twice is f -> f(-x).

Seeds are polynomial-times-Gaussian: on R, P(x) exp(-pi x^2) with the exact
transform rule F(x^m G) = (2*pi*i)^(-m) (d/dy)^m G; on C, the monomials
z^k exp(-2*pi*|z|^2) (or conj(z)^k), with F(z^k G) = i^k conj(z)^k G.  Zeta
integrals int f(x) chi(x) |x|^s dx* are computed by the exp-sinh
(double-exponential) rule of Takahasi-Mori on (0, inf), against the
(implicit) |x|^(1/2)-shifted pi-Schwartz normalization, so the Gaussian seed
reproduces Gamma_R(s) on the nose.  Gamma_R and Gamma_C use a pure-Python
complex log-gamma (recurrence, Stirling series, reflection).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .defaults import ARCH_FE_TOL, ARCH_POLE_GUARD, ARCH_QUAD_TOL
from .ratfunc import VerificationError


class ArchPoleError(ArithmeticError):
    """Evaluation too close to a pole of the numerator L-factor."""


class ArchQuadratureError(VerificationError):
    """A zeta integral did not converge: the exp-sinh levels kept disagreeing,
    or the integrand had not decayed at the truncation limits."""


class ArchUnresolvedError(VerificationError):
    """Both sides of a functional-equation sample are within their own
    quadrature error bounds of zero, so their agreement verifies nothing."""


@dataclass(frozen=True)
class ArchChar:
    """A unitary character of R^x or C^x.

    place "real": eps in {0, 1} is the sign exponent.
    place "complex": eps in Z is the frequency n of (z/|z|)^n.
    t is the |.|^(i t) part (real).
    """

    place: str
    eps: int
    t: float = 0.0

    def __post_init__(self):
        if self.place not in ("real", "complex"):
            raise ValueError("place must be 'real' or 'complex'")
        if self.place == "real":
            object.__setattr__(self, "eps", self.eps % 2)

    def inverse(self) -> "ArchChar":
        if self.place == "real":
            return ArchChar("real", self.eps, -self.t)
        return ArchChar("complex", -self.eps, -self.t)


_LOG_PI = math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
# B_2k / (2k (2k - 1)) for k = 1..8: Stirling's series for log Gamma.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400)


def _log_sin_pi(z: complex) -> complex:
    """log sin(pi z) modulo 2 pi i, without overflowing sin at large |Im z|."""
    w = math.pi * z
    if abs(w.imag) < 350:
        return cmath.log(cmath.sin(w))
    # |e^(2iw)| < e^-700 is lost to rounding, so sin w = (i/2) e^(-iw) for
    # Im w > 0 and (-i/2) e^(iw) for Im w < 0.
    sign = 1.0 if w.imag > 0 else -1.0
    return -1j * sign * w + cmath.log(0.5j * sign)


def _loggamma(z: complex) -> complex:
    """log Gamma(z) modulo 2 pi i.

    Reflection for Re z < 1/2; otherwise upward recurrence until |z| >= 15,
    where 8 terms of Stirling's series leave a remainder below 1e-18.
    """
    z = complex(z)
    if z.real < 0.5:
        return _LOG_PI - _log_sin_pi(z) - _loggamma(1 - z)
    prod = 1.0 + 0.0j
    while abs(z) < 15:
        prod *= z
        z += 1
    inv, inv2 = 1 / z, 1 / (z * z)
    series = 0.0 + 0.0j
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    return ((z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + series * inv
            - cmath.log(prod))


def _log_gamma_r(s: complex) -> complex:
    return -s / 2 * math.log(math.pi) + _loggamma(s / 2)


def _log_gamma_c(s: complex) -> complex:
    """log(Gamma_C(s) / 2)."""
    return -s * math.log(2 * math.pi) + _loggamma(s)


def gamma_r(s: complex) -> complex:
    """Gamma_R(s) = pi^(-s/2) Gamma(s/2)."""
    return cmath.exp(_log_gamma_r(s))


def gamma_c(s: complex) -> complex:
    """Gamma_C(s) = 2 (2 pi)^(-s) Gamma(s)."""
    return 2.0 * cmath.exp(_log_gamma_c(s))


def _pole_distance_c(s: complex) -> float:
    if s.real > 0.25:
        return abs(s.imag) + 1.0
    n = round(-s.real)
    return abs(s - (-max(n, 0)))


def _log_l_factor(chi: ArchChar, s: complex) -> complex:
    """log L(s, chi) modulo 2 pi i, less log 2 at the complex place."""
    if chi.place == "real":
        return _log_gamma_r(s + 1j * chi.t + chi.eps)
    return _log_gamma_c(s + 1j * chi.t + abs(chi.eps) / 2.0)


def arch_gamma(chi: ArchChar, s: complex) -> complex:
    """gamma(s, chi, psi) = eps(chi, psi) L(1-s, chi^(-1)) / L(s, chi).

    The ratio is taken as one exponential of a log-gamma difference: both
    L-values underflow to 0 once |Im s| is near 1000, while their ratio stays
    of size 1 on the critical line.
    """
    s = complex(s)
    inv = chi.inverse()
    if chi.place == "real":
        num_arg = (1 - s) + 1j * inv.t + inv.eps
        pole = _pole_distance_c(num_arg / 2)      # Gamma_R(s) has Gamma(s/2)
        # psi(x) = e^{2 pi i x} (kernel e^{+2 pi i x y}): x e^{-pi x^2} is a
        # (+i)-eigenfunction, forcing eps(sgn, psi) = i.
        root = 1j ** chi.eps
    else:
        num_arg = (1 - s) + 1j * inv.t + abs(inv.eps) / 2.0
        pole = _pole_distance_c(num_arg)
        root = 1j ** abs(chi.eps)
    if pole < ARCH_POLE_GUARD:
        raise ArchPoleError("gamma argument within %g of a pole" % ARCH_POLE_GUARD)
    return root * cmath.exp(_log_l_factor(inv, 1 - s) - _log_l_factor(chi, s))


# ---------------------------------------------------------------------------
# seeds: polynomial * Gaussian families closed under the Fourier transform


@dataclass(frozen=True)
class ArchSeed:
    """place 'real': f(x) = sum_j poly[j] x^j * exp(-pi x^2).
    place 'complex': f(z) = coeff * z^hol * conj(z)^antihol * exp(-2 pi |z|^2),
    with hol * antihol = 0 (the monomial families closed under F_psi)."""

    place: str
    poly: tuple[complex, ...] = (1.0 + 0.0j,)
    hol: int = 0
    antihol: int = 0

    def __post_init__(self):
        if self.place not in ("real", "complex"):
            raise ValueError("place must be 'real' or 'complex'")
        object.__setattr__(self, "poly", tuple(complex(c) for c in self.poly))
        if self.place == "complex" and self.hol and self.antihol:
            raise ValueError("mixed z^k conj(z)^l seeds are not closed "
                             "under the transform; use hol*antihol = 0")

    def eval_real(self, x: float) -> complex:
        v = 0.0 + 0.0j
        for j in range(len(self.poly) - 1, -1, -1):
            v = v * x + self.poly[j]
        return v * math.exp(-math.pi * x * x)


def _poly_mul_x(poly: tuple[complex, ...]) -> tuple[complex, ...]:
    return (0.0 + 0.0j,) + poly


def _poly_diff(poly: tuple[complex, ...]) -> tuple[complex, ...]:
    return tuple(poly[j] * j for j in range(1, len(poly)))


def _poly_add(a, b):
    n = max(len(a), len(b))
    return tuple((a[j] if j < len(a) else 0) + (b[j] if j < len(b) else 0)
                 for j in range(n))


def fourier_seed(seed: ArchSeed) -> ArchSeed:
    """Exact closed-form Fourier transform within the seed family."""
    if seed.place == "real":
        # F(x^m G)(y) = (2 pi i)^(-m) (d/dy)^m G(y); apply D = d/dy - (as a
        # polynomial recursion) Q -> Q' - 2 pi y Q against the Gaussian.
        twopii = 2j * math.pi
        out: tuple[complex, ...] = ()
        for m in range(len(seed.poly)):
            c = seed.poly[m]
            if c == 0:
                continue
            q: tuple[complex, ...] = (1.0 + 0.0j,)
            for _ in range(m):
                q = _poly_add(_poly_diff(q),
                              tuple(-2 * math.pi * v for v in _poly_mul_x(q)))
            scale = c * twopii ** (-m) if m else c
            out = _poly_add(out, tuple(scale * v for v in q))
        return ArchSeed("real", out)
    root = 1j ** (seed.hol + seed.antihol)
    return ArchSeed("complex", tuple(root * c for c in seed.poly),
                    hol=seed.antihol, antihol=seed.hol)


def arch_zeta(seed: ArchSeed, chi: ArchChar, s: complex) -> complex:
    """Z(s) = integral of f(x) chi(x) |x|^s dx* by the exp-sinh rule.

    Convergence needs Re(s) (plus the seed's vanishing order at 0) positive;
    raises ArchQuadratureError when the rule does not converge.
    """
    s = complex(s)
    if chi.place != seed.place:
        raise ValueError("seed and character live at different places")
    if seed.place == "real":
        sgn = -1.0 if chi.eps else 1.0
        a = s + 1j * chi.t

        def integrand(x: float) -> complex:
            # f(x) + chi(-1) f(-x), folded to (0, inf)
            return (seed.eval_real(x) + sgn * seed.eval_real(-x)) * x ** a

        return _exp_sinh(integrand)
    # complex place: the angular integral of e^{i(hol-antihol+n)theta} is
    # 2 pi delta; radially 2*2pi int r^(hol+antihol) e^(-2 pi r^2) r^(2s'-1) dr
    n = chi.eps
    if seed.hol - seed.antihol + n != 0:
        return 0.0 + 0.0j
    kl = seed.hol + seed.antihol
    coeff = seed.poly[0] if seed.poly else 0.0
    s_eff = s + 1j * chi.t + kl / 2.0

    def radial(r: float) -> complex:
        return math.exp(-2 * math.pi * r * r) * r ** (2 * s_eff)

    return 4 * math.pi * coeff * _exp_sinh(radial)


# Truncation of the exp-sinh rule x = exp(pi/2 sinh t).  Towards 0 it stops
# where x reaches the smallest normal float: a zeta integrand behaves like
# x^(Re s), so what is cut off there is about exp(-708 Re s) / Re s, below
# 1e-13 for Re s >= 0.05.  Towards infinity every seed carries exp(-pi x^2)
# or a faster Gaussian, which is 0.0 in floating point past x = 15.4.
_T_LO = -math.asinh(-math.log(sys.float_info.min) / (math.pi / 2))
_T_HI = math.asinh(0.5 * math.log(-math.log(5e-324) / math.pi) / (math.pi / 2))
# Halvings of the first step 1/2: the finest is 2^-13, about 68k nodes.
# Towards 0, x^(i Im s) oscillates ever faster in t while x^(Re s) decays
# slowly; on the Gaussian seeds the rule converges up to |Im s| of about
# 1000 Re s (50 at Re s = 0.05, 640 at Re s = 0.5).
_MAX_LEVELS = 12


def _exp_sinh(fn) -> complex:
    """int_0^inf fn(x) dx/x by the exp-sinh rule of Takahasi-Mori (1974).

    With x = exp(pi/2 sinh t), dx/x = pi/2 cosh t dt, and the trapezoid rule
    in t converges double-exponentially.  Each level halves the step and
    evaluates only the new nodes, once each, as complex numbers; the result
    is returned once two levels agree within ARCH_QUAD_TOL / 4 (see below).
    """
    def term(t: float) -> complex:
        x = math.exp(math.pi / 2 * math.sinh(t))
        return fn(x) * (math.pi / 2 * math.cosh(t))

    # Past the lower limit the integrand decays like x^(Re s), so the part cut
    # off is at most the term there once Re s > 1/708; a larger term means
    # the integral has not converged (Re s too small) or diverges.
    try:
        edge = max(abs(term(_T_LO)), abs(term(_T_HI)))
    except (OverflowError, ZeroDivisionError):  # x^s at x = 2e-308, Re s < -1
        edge = math.inf
    if not edge <= ARCH_QUAD_TOL:
        raise ArchQuadratureError(
            "integrand is %.3g at the truncation limits (needs Re s > 0)"
            % edge)
    h = 0.5
    total = h * sum(term(k * h) for k in range(math.ceil(_T_LO / h),
                                               math.floor(_T_HI / h) + 1))
    diff = math.inf
    for _ in range(_MAX_LEVELS):
        h /= 2
        k_lo, k_hi = math.ceil(_T_LO / h), math.floor(_T_HI / h)
        # the new nodes are the odd multiples of the halved step
        fresh = sum(term(k * h) for k in range(k_lo | 1, k_hi + 1, 2))
        prev_diff, prev = diff, total
        total = total / 2 + h * fresh
        diff = abs(total - prev)
        # Double-exponential convergence squares the error at each halving,
        # so a genuine agreement within ARCH_QUAD_TOL/4 follows one within
        # its square root; demanding both rejects coarse, aliased levels that
        # agree by chance.
        if (diff <= ARCH_QUAD_TOL / 4
                and prev_diff <= math.sqrt(ARCH_QUAD_TOL / 4)):
            return total
    raise ArchQuadratureError(
        "exp-sinh levels still differ by %.3g at step %g" % (diff, h))


def arch_zeta_closed_gaussian(chi: ArchChar, s: complex) -> complex:
    """Closed form of the pure-Gaussian zeta, the quadrature oracle:
    Gamma_R(s + it) on R (trivial sign), pi * Gamma_C(s + it) on C (n=0)."""
    if chi.place == "real":
        if chi.eps:
            return 0.0 + 0.0j
        return gamma_r(s + 1j * chi.t)
    if chi.eps:
        return 0.0 + 0.0j
    return math.pi * gamma_c(s + 1j * chi.t)


@dataclass
class ArchFERow:
    s: complex
    lhs: complex
    rhs: complex

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)


@dataclass
class ArchFEReport:
    rows: list[ArchFERow]

    def max_err(self) -> float:
        return max((r.abs_err for r in self.rows), default=0.0)

    def ok(self, tol: float = ARCH_FE_TOL) -> bool:
        return self.max_err() <= tol


def arch_fe_check(seed: ArchSeed, chi: ArchChar, s_samples) -> ArchFEReport:
    """Z(1-s, F_psi f, chi^(-1)) = gamma(s, chi, psi) Z(s, f, chi) at each
    sample (samples should sit in the common convergence strip 0 < Re s < 1,
    widened by the seed's vanishing order).

    Each zeta integral is known to within ARCH_QUAD_TOL, so the right side
    to within |gamma| * ARCH_QUAD_TOL.  A sample where both sides lie within
    those bounds of zero (far up the critical line, where the true values
    underflow, or an integrand that vanishes by parity) compares roundoff
    with roundoff: it raises ArchUnresolvedError instead of passing."""
    fhat = fourier_seed(seed)
    inv = chi.inverse()
    rows = []
    for s in s_samples:
        s = complex(s)
        gamma = arch_gamma(chi, s)  # a pole is bad input: raise it first
        lhs = arch_zeta(fhat, inv, 1 - s)
        rhs = gamma * arch_zeta(seed, chi, s)
        if abs(lhs) <= ARCH_QUAD_TOL and abs(rhs) <= abs(gamma) * ARCH_QUAD_TOL:
            raise ArchUnresolvedError(
                "at s = %r both sides (|lhs| %.3g, |rhs| %.3g) are within the "
                "quadrature error of 0: the sample verifies nothing"
                % (s, abs(lhs), abs(rhs)))
        rows.append(ArchFERow(s, lhs, rhs))
    return ArchFEReport(rows)
