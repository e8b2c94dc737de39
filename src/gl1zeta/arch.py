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

gamma(s, chi, psi) = eps * L(1-s, chi^(-1)) / L(s, chi); the psi -> psi^(-1)
involution conjugates the eps-factor.

Seeds are polynomial-times-Gaussian: on R, P(x) exp(-pi x^2) with the exact
transform rule F(x^m G) = (2*pi*i)^(-m) (d/dy)^m G; on C, the monomials
z^k exp(-2*pi*|z|^2) (or conj(z)^k), with F(z^k G) = i^k conj(z)^k G.  Zeta
integrals are adaptive quadrature of int f(x) chi(x) |x|^s dx* against the
(implicit) |x|^(1/2)-shifted pi-Schwartz normalization, so the Gaussian seed
reproduces Gamma_R(s) on the nose.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.special import loggamma

from .defaults import ARCH_FE_TOL, ARCH_QUAD_TOL


class ArchPoleError(ArithmeticError):
    """Evaluation too close to a pole of the numerator L-factor."""


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


def gamma_r(s: complex) -> complex:
    """Gamma_R(s) = pi^(-s/2) Gamma(s/2)."""
    return cmath.exp(-s / 2 * math.log(math.pi) + loggamma(s / 2))


def gamma_c(s: complex) -> complex:
    """Gamma_C(s) = 2 (2 pi)^(-s) Gamma(s)."""
    return 2.0 * cmath.exp(-s * math.log(2 * math.pi) + loggamma(s))


def _pole_distance_r(s: complex) -> float:
    # Gamma(s/2) poles at s = 0, -2, -4, ...
    half = s / 2
    if half.real > 0.25:
        return abs(half.imag) + 1.0
    n = round(-half.real)
    return abs(half - (-max(n, 0)))


def _pole_distance_c(s: complex) -> float:
    if s.real > 0.25:
        return abs(s.imag) + 1.0
    n = round(-s.real)
    return abs(s - (-max(n, 0)))


def arch_l_factor(chi: ArchChar, s: complex) -> complex:
    if chi.place == "real":
        return gamma_r(s + 1j * chi.t + chi.eps)
    return gamma_c(s + 1j * chi.t + abs(chi.eps) / 2.0)


def arch_gamma(chi: ArchChar, s: complex, inverse_psi: bool = False,
               pole_guard: float = 1e-8) -> complex:
    """gamma(s, chi, psi) = eps(chi, psi) L(1-s, chi^(-1)) / L(s, chi)."""
    s = complex(s)
    inv = chi.inverse()
    if chi.place == "real":
        num_arg = (1 - s) + 1j * inv.t + inv.eps
        pole = _pole_distance_r(num_arg)
        # psi(x) = e^{2 pi i x} (kernel e^{+2 pi i x y}): x e^{-pi x^2} is a
        # (+i)-eigenfunction, forcing eps(sgn, psi) = i.
        root = (-1j if inverse_psi else 1j) ** chi.eps
    else:
        num_arg = (1 - s) + 1j * inv.t + abs(inv.eps) / 2.0
        pole = _pole_distance_c(num_arg)
        root = (-1j if inverse_psi else 1j) ** abs(chi.eps)
    if pole < pole_guard:
        raise ArchPoleError("gamma argument within %g of a pole" % pole_guard)
    return root * arch_l_factor(inv, 1 - s) / arch_l_factor(chi, s)


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


def fourier_seed(seed: ArchSeed, inverse_psi: bool = False) -> ArchSeed:
    """Exact closed-form Fourier transform within the seed family."""
    if seed.place == "real":
        # F(x^m G)(y) = (2 pi i)^(-m) (d/dy)^m G(y); apply D = d/dy - (as a
        # polynomial recursion) Q -> Q' - 2 pi y Q against the Gaussian.
        twopii = 2j * math.pi * (-1 if inverse_psi else 1)
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
    root = (-1j if inverse_psi else 1j) ** (seed.hol + seed.antihol)
    return ArchSeed("complex", tuple(root * c for c in seed.poly),
                    hol=seed.antihol, antihol=seed.hol)


def arch_zeta(seed: ArchSeed, chi: ArchChar, s: complex,
              tol: float = ARCH_QUAD_TOL) -> complex:
    """Z(s) = integral of f(x) chi(x) |x|^s dx* by adaptive quadrature.

    Convergence needs Re(s) (plus the seed's vanishing order at 0) positive.
    """
    s = complex(s)
    if chi.place != seed.place:
        raise ValueError("seed and character live at different places")
    if seed.place == "real":
        sgn = -1.0 if chi.eps else 1.0

        def integrand(x: float) -> complex:
            # f(x) + chi(-1) f(-x), folded to (0, inf)
            return ((seed.eval_real(x) + sgn * seed.eval_real(-x))
                    * x ** complex(s + 1j * chi.t - 1))

        return _quad_complex(integrand, tol)
    # complex place: the angular integral of e^{i(hol-antihol+n)theta} is
    # 2 pi delta; radially 2*2pi int r^(hol+antihol) e^(-2 pi r^2) r^(2s'-1) dr
    n = chi.eps
    if seed.hol - seed.antihol + n != 0:
        return 0.0 + 0.0j
    kl = seed.hol + seed.antihol
    coeff = seed.poly[0] if seed.poly else 0.0
    s_eff = s + 1j * chi.t + kl / 2.0

    def radial(r: float) -> complex:
        return math.exp(-2 * math.pi * r * r) * r ** complex(2 * s_eff - 1)

    return 4 * math.pi * coeff * _quad_complex(radial, tol)


def _quad_complex(fn, tol: float) -> complex:
    def re(x):
        return fn(x).real

    def im(x):
        return fn(x).imag

    total = 0.0 + 0.0j
    for lo, hi in ((0.0, 1.0), (1.0, math.inf)):
        r, _ = quad(re, lo, hi, epsabs=tol / 4, epsrel=1e-12, limit=200)
        i, _ = quad(im, lo, hi, epsabs=tol / 4, epsrel=1e-12, limit=200)
        total += complex(r, i)
    return total


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
    widened by the seed's vanishing order)."""
    fhat = fourier_seed(seed)
    inv = chi.inverse()
    rows = []
    for s in s_samples:
        s = complex(s)
        lhs = arch_zeta(fhat, inv, 1 - s)
        rhs = arch_gamma(chi, s) * arch_zeta(seed, chi, s)
        rows.append(ArchFERow(s, lhs, rhs))
    return ArchFEReport(rows)
