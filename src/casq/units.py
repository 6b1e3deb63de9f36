"""Unit conversions and physical constants.

All internal energies are Hartree; conversions are applied at the
reporting boundary only.
"""

HARTREE_TO_EV = 27.211386
HARTREE_TO_CM = 219474.6313632

EV_TO_HARTREE = 1.0 / HARTREE_TO_EV
CM_TO_HARTREE = 1.0 / HARTREE_TO_CM

# free-electron g value
G_E = 2.002319

# Gaussian FWHM -> standard deviation: 2*sqrt(2*ln 2)
FWHM_TO_SIGMA = 1.0 / 2.3548200450309493
