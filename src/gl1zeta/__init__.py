"""Exact p-adic local zeta integrals, gamma factors, kernel functions and
Hankel transforms on GL(1), with a numeric Archimedean companion.

The package verifies the kernel/gamma identities as rational-function
identities in X = q^(-s): the principal-value Mellin transform of the GL(1)
kernel equals the gamma factor, the Fourier operator on C_c^inf(F^x) is the
kernel convolution, and gamma acts on homogeneous distributions as a
Gelfand-Graev gamma function.
"""

from .arch import (ArchChar, ArchSeed, arch_fe_check, arch_gamma, arch_zeta,
                   fourier_seed, gamma_c, gamma_r)
from .basicfn import (BasicFunction, basic_fourier_check, basic_zeta_check,
                      complete_homogeneous)
from .characters import (MultChar, char_product, trivial_char,
                         unitary_components, unramified_char)
from .kernel import (GammaSymbol, Gl1Kernel, gamma_symbol, hankel_convolve,
                     hankel_mellin, homogeneous_identity_check, lemma31_grid,
                     trace_average_check)
from .padic import (PAdicElt, PrecisionError, UnitGroupTable, psi_frac,
                    psi_value, shell_volume, unit_group)
from .ratfunc import (IdentityReport, LaurentPoly, NumericError, RationalFunc,
                      VerificationError, rf_discrepancy, rf_dual_subst,
                      rf_series_coeffs)
from .stepfn import (MellinData, MultStepFunction, MultTerm, StepFunction,
                     StepTerm, coset_indicator, delta_approximant,
                     fourier_transform, indicator_ball, mellin, mellin_invert,
                     mult_convolve, step_inner, step_l2, unit_indicator)
from .zetagamma import (epsilon_factor, gamma_closed, gamma_pv, l_factor,
                        l_factor_satake, verify_fe, zeta)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
