import cmath
import math
import random

import pytest

from gl1zeta.arch import (ArchChar, ArchPoleError, ArchQuadratureError,
                          ArchSeed, ArchUnresolvedError, _loggamma, arch_fe_check, arch_gamma,
                          arch_zeta, arch_zeta_closed_gaussian, fourier_seed,
                          gamma_c, gamma_r)

TRIV = ArchChar("real", 0)
SGN = ArchChar("real", 1)


def test_gamma_r_spot_value():
    # Gamma_R(1) = pi^{-1/2} Gamma(1/2) = 1
    assert abs(gamma_r(1.0) - 1.0) < 1e-12


def test_gaussian_zeta_is_gamma_r():
    for s in (0.5, 1.0, 1.5 + 0.7j):
        z = arch_zeta(ArchSeed("real"), TRIV, s)
        assert abs(z - gamma_r(s)) < 1e-6


def test_sign_seed_shift():
    z = arch_zeta(ArchSeed("real", (0.0, 1.0)), SGN, 0.7)
    assert abs(z - gamma_r(1.7)) < 1e-6


def test_hermite1_eigenfunction():
    # with psi(x) = e^{2 pi i x} the degree-1 Hermite seed has eigenvalue +i
    g = fourier_seed(ArchSeed("real", (0.0, 1.0)))
    assert abs(g.poly[0]) < 1e-14 and abs(g.poly[1] - 1j) < 1e-12


def test_seed_fourier_involution():
    rng = random.Random(1)
    for _ in range(10):
        poly = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for _ in range(rng.randrange(1, 5)))
        f = ArchSeed("real", poly)
        # F_psi F_psi f = f(-x): coefficient j picks up (-1)^j
        ff = fourier_seed(fourier_seed(f))
        assert all(abs(a - (-1) ** j * b) < 1e-10
                   for j, (a, b) in enumerate(zip(ff.poly, f.poly)))


def test_complex_monomial_transform():
    f = ArchSeed("complex", (1.0,), hol=2)
    g = fourier_seed(f)
    assert g.antihol == 2 and g.hol == 0
    assert abs(g.poly[0] - (1j) ** 2) < 1e-14


def test_gamma_fixed_point_at_half():
    assert abs(arch_gamma(TRIV, 0.5) - 1) < 1e-12


def test_gamma_unitary_on_critical_line():
    for t in (0.3, 1.7, 5.0):
        for chi in (TRIV, SGN, ArchChar("real", 1, 0.4),
                    ArchChar("complex", 0), ArchChar("complex", 2, -0.3)):
            assert abs(abs(arch_gamma(chi, 0.5 + 1j * t)) - 1) < 1e-9


def test_gamma_unitary_far_up_the_critical_line():
    # both L-values underflow to 0 from |t| of about 900; their ratio does not
    for t in (900.0, 1000.0, 5000.0, -3000.0):
        for chi in (TRIV, SGN, ArchChar("real", 1, 0.4),
                    ArchChar("complex", 0), ArchChar("complex", 2, -0.3)):
            assert abs(abs(arch_gamma(chi, 0.5 + 1j * t)) - 1) < 1e-12


def test_gamma_matches_l_quotient_where_representable():
    for s in (0.3 + 40j, 0.5 - 200j, 0.7 + 300j):
        want = gamma_r(1 - s) / gamma_r(s)
        assert abs(arch_gamma(TRIV, s) - want) < 1e-11 * abs(want)
        want = gamma_c(1 - s) / gamma_c(s)
        assert abs(arch_gamma(ArchChar("complex", 0), s) - want) < 1e-11 * abs(want)


def test_gamma_psi_involution():
    for chi in (TRIV, SGN, ArchChar("complex", 1, 0.2)):
        for s in (0.3, 0.8 + 0.5j):
            # gamma(1-s, chi^(-1), psi^(-1)) = chi(-1) gamma(1-s, chi^(-1), psi),
            # chi(-1) = (-1)^eps at both places
            v = (arch_gamma(chi, s) * (-1) ** chi.eps
                 * arch_gamma(chi.inverse(), 1 - s))
            assert abs(v - 1) < 1e-9


def test_complex_trivial_gamma_is_gamma_c_ratio():
    s = 0.4 + 0.2j
    chi = ArchChar("complex", 0)
    assert abs(arch_gamma(chi, s) - gamma_c(1 - s) / gamma_c(s)) < 1e-12


def test_fe_gaussian_trivial():
    rep = arch_fe_check(ArchSeed("real"), TRIV, (0.3, 0.5, 0.8))
    assert rep.ok(1e-5)


def test_fe_hermite_sign():
    rep = arch_fe_check(ArchSeed("real", (0.0, 1.0)), SGN, (0.4, 0.6, 0.75))
    assert rep.ok(1e-5)


def test_fe_complex_gaussian():
    rep = arch_fe_check(ArchSeed("complex"), ArchChar("complex", 0),
                        (0.3, 0.5, 0.8))
    assert rep.ok(1e-5)


def test_fe_unresolved_sample_raises():
    # at s = 1/2 + 300i both zeta integrals are about 1e-103: the quadrature
    # returns roundoff near 2e-15 on each side, which agrees and means nothing
    with pytest.raises(ArchUnresolvedError):
        arch_fe_check(ArchSeed("real"), TRIV, (0.5, 0.5 + 300j))
    # a parity-odd seed against the even character vanishes identically
    with pytest.raises(ArchUnresolvedError):
        arch_fe_check(ArchSeed("real", (0.0, 1.0)), TRIV, (0.5,))
    # the resolved samples of the same seed pass
    assert arch_fe_check(ArchSeed("real"), TRIV, (0.5, 0.5 + 3j)).ok(1e-5)


def test_fe_complex_twisted():
    for k in (1, 2):
        rep = arch_fe_check(ArchSeed("complex", (1.0,), hol=k),
                            ArchChar("complex", -k, 0.1), (0.4, 0.7))
        assert rep.ok(1e-5)


def test_quadrature_matches_closed_form():
    for chi, place in ((TRIV, "real"), (ArchChar("complex", 0), "complex")):
        for s in (0.4, 0.9, 1.3 + 0.2j):
            z = arch_zeta(ArchSeed(place), chi, s)
            assert abs(z - arch_zeta_closed_gaussian(chi, s)) < 1e-6


def test_pole_proximity_flagged():
    with pytest.raises(ArchPoleError):
        arch_gamma(TRIV, 1.0)  # L(1-s) hits Gamma_R(0)


def test_mixed_monomials_rejected():
    with pytest.raises(ValueError):
        ArchSeed("complex", (1.0,), hol=1, antihol=1)


def test_angular_orthogonality():
    # z^k seed pairs only with frequency -k
    z = arch_zeta(ArchSeed("complex", (1.0,), hol=1), ArchChar("complex", 1), 0.6)
    assert abs(z) < 1e-12


# Off the poles; real parts on both sides of the reflection (1/2) and of the
# Stirling radius (15), imaginary parts on both sides of the large-|Im z|
# log-sine branch (|Im z| > 111).
LOGGAMMA_GRID = [complex(x, y)
                 for x in (-6.3, -2.5, -0.7, 0.1, 0.5, 0.9, 1.5, 4.2, 14.5,
                           15.5, 40.3)
                 for y in (-150.0, -33.0, -6.0, -0.4, 0.0, 0.8, 14.0, 150.0)]


def _close_mod_2pi_i(a: complex, b: complex) -> bool:
    d = a - b
    return (abs(complex(d.real, math.remainder(d.imag, 2 * math.pi)))
            <= 1e-13 * max(1.0, abs(a)))


def test_loggamma_matches_lgamma_on_positive_reals():
    for x in (1e-3, 0.1, 0.5, 1.0, 2.5, 7.3, 14.9, 15.0, 30.0, 171.3):
        v = _loggamma(x)
        assert v.imag == 0.0
        assert abs(v.real - math.lgamma(x)) <= 1e-13 * max(1.0, abs(v.real))


def test_loggamma_recurrence_and_reflection():
    for z in LOGGAMMA_GRID:
        # Gamma(z + 1) = z Gamma(z)
        assert _close_mod_2pi_i(_loggamma(z + 1), _loggamma(z) + cmath.log(z))
        # Gamma(z) Gamma(1 - z) = pi / sin(pi z)
        assert _close_mod_2pi_i(_loggamma(z) + _loggamma(1 - z),
                                math.log(math.pi)
                                - cmath.log(cmath.sin(math.pi * z)))


def test_loggamma_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for z in LOGGAMMA_GRID:
        assert _close_mod_2pi_i(_loggamma(z), complex(special.loggamma(z)))


@pytest.mark.parametrize("place", ["real", "complex"])
@pytest.mark.parametrize("t", [0.0, 3.0])
def test_quadrature_hard_samples(place, t):
    # slow decay at 0 (small Re s) and fast oscillation (large Im s)
    chi = ArchChar(place, 0, t)
    for s in (0.05, 0.15, 0.25 + 5j, 0.5 + 20j, 0.5 + 60j):
        z = arch_zeta(ArchSeed(place), chi, s)
        assert abs(z - arch_zeta_closed_gaussian(chi, s)) <= 1e-10


def test_quadrature_failure_is_named():
    seed = ArchSeed("real")
    # divergent: the integrand has not decayed at the truncation limit near 0
    for s in (0.0, -0.5, -3.0, 0.01 + 1j):
        with pytest.raises(ArchQuadratureError):
            arch_zeta(seed, TRIV, s)
    # convergent, but x^(i Im s) oscillates faster than the finest level
    with pytest.raises(ArchQuadratureError):
        arch_zeta(seed, TRIV, 0.05 + 200j)
