"""Spec-level tolerances and precision defaults, kept out of computation code."""

# Absolute tolerance on coefficients of canonical-form rational functions.
COEFF_TOL = 1e-10

# Relative threshold below which Laurent coefficients are treated as roundoff
# and dropped during normalization.
PRUNE_REL_EPS = 1e-13

# Working precision (number of p-adic digits carried by a unit residue) used
# when elements are built from rationals or integers.  Locally constant
# evaluations never look deeper than conductor + |valuation| + 2 digits, so
# this leaves generous headroom at desk scale.
DEFAULT_PREC = 24

# Archimedean targets.
ARCH_QUAD_TOL = 1e-8
ARCH_FE_TOL = 1e-5
# An Archimedean gamma argument this close to a pole of the numerator
# L-factor is rejected (arch.arch_gamma).
ARCH_POLE_GUARD = 1e-8
