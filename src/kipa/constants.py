"""Physical constants, exact in the 2019 SI (bit-identical to
``scipy.constants.hbar`` and ``scipy.constants.k``)."""

import math

hbar = 6.62607015e-34 / (2 * math.pi)  # reduced Planck constant [J s]
k_B = 1.380649e-23                     # Boltzmann constant [J/K]
