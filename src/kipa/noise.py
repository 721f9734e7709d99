"""Noise quanta of the amplification chain: thermal occupancy, the
input-referred noise of the parametric stage and of the full chain, the
output power spectral density, and the pump-on/off calibration inversion.

All quanta are dimensionless photon numbers referenced to the chain
input; spectral densities are W/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import hbar, k_B
from .errors import NonPhysical, finite_or_nonphysical as _finite
from .params import NoiseChain


def thermal_occupancy(omega: float, T: float) -> float:
    """Bose-Einstein occupancy n(T) = 1/(exp(hbar*w/kT) - 1).

    n(T=0) = 0 by definition; satisfies coth(hbar*w/2kT)/2 = n + 1/2.
    Raises NonPhysical where n ~ kT/(hbar*w) is beyond a double.
    """
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega!r}")
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T!r}")
    if T == 0.0:
        return 0.0
    x = hbar * omega / (k_B * T)
    if x > 700.0:  # exp would overflow; occupancy is zero to double precision
        return 0.0
    # x underflows to 0 (or 1/x overflows): n ~ kT/(hbar w) is beyond a double
    return _finite(lambda: 1.0 / math.expm1(x),
                   f"thermal occupancy overflows at T={T:g} K, omega={omega:g} rad/s")


def stage_noise(eta: float, T_dev: float, omega: float) -> float:
    """Input-referred noise quanta added by the parametric stage in the
    large-gain limit:

        n_k = 2 ((1 - eta)/eta) (n(T_dev) + 1/2)

    Vanishes for a lossless stage (eta = 1).
    """
    if not 0 < eta <= 1:
        raise ValueError(f"eta must be in (0, 1], got {eta!r}")
    return 2.0 * (1.0 - eta) / eta * (thermal_occupancy(omega, T_dev) + 0.5)


def stage_noise_finite_gain(eta: float, gain: float, n_bar: float) -> float:
    """Pre-asymptotic form of the stage noise at finite power gain:

        n_k = 2 ((1 - eta)/eta) (sqrt(G) + 1)^2 / (G - 1) (n_bar + 1/2)

    Reduces to :func:`stage_noise` as G -> infinity. Requires G > 1.
    """
    if not 0 < eta <= 1:
        raise ValueError(f"eta must be in (0, 1], got {eta!r}")
    if not gain > 1:
        raise ValueError(f"gain must be > 1, got {gain!r}")
    factor = (math.sqrt(gain) + 1.0) ** 2 / (gain - 1.0)
    return 2.0 * (1.0 - eta) / eta * factor * (n_bar + 0.5)


@dataclass(frozen=True)
class AddedNoise:
    n_k: float    # input-referred quanta added by the parametric stage
    n_add: float  # input-referred quanta added by the whole chain


def added_noise(chain: NoiseChain) -> AddedNoise:
    """Input-referred noise of the chain.

        n_add = ((G_k - 1)/G_k) (n_bar + 1/2 + n_k) + n_h/G_k

    with n_bar the input thermal occupancy at chain.T and n_k the stage
    noise at the device temperature. For eta = 1, T = 0 and large G_k the
    chain adds the half-quantum vacuum floor; at G_k = 1 the classical
    chain dominates and n_add = n_h.
    """
    n_bar = thermal_occupancy(chain.omega, chain.T)
    n_k = stage_noise(chain.eta, chain.T_dev, chain.omega)
    n_add = (chain.G_k - 1.0) / chain.G_k * (n_bar + 0.5 + n_k) + chain.n_h / chain.G_k
    return AddedNoise(n_k=n_k, n_add=n_add)


def total_noise_psd(chain: NoiseChain, T: float) -> float:
    """Output noise power spectral density [W/Hz] of the chain for an
    input thermal state at temperature T:

        N_tot = hbar*w * G_h*G_k * (coth(hbar*w/2kT)/2 + n_add)

    Monotone increasing in T; the T -> 0 limit is
    hbar*w * G_tot * (1/2 + n_add).
    """
    n_add = added_noise(chain).n_add
    half_coth = thermal_occupancy(chain.omega, T) + 0.5
    return hbar * chain.omega * chain.G_h * chain.G_k * (half_coth + n_add)


def pump_onoff_nk(
    S_on: float,
    S_off: float,
    BW: float,
    G_k: float,
    G_h: float,
    alpha: float,
    omega: float,
    T: float,
    tol: float = 1e-9,
) -> float:
    """Stage noise quanta from a pump-on/off spectral-density pair.

        n_k = (S_on - S_off) / (hbar*w * BW * (G_k - 1) * G_h * alpha)
              - (2*n_bar + 1)

    S_on and S_off are the measured output noise densities [W/Hz] times
    the bandwidth BW [Hz] (i.e. powers in W); alpha in (0, 1] is the loss
    between sample and switch. Exact inversion of the two-step
    calibration in the large-G_h limit.

    Raises NonPhysical when the inferred quanta are negative beyond the
    tolerance, which signals a miscalibrated input.
    """
    if not G_k > 1:
        raise ValueError(f"G_k must be > 1, got {G_k!r}")
    if not G_h >= 1:
        raise ValueError(f"G_h must be >= 1, got {G_h!r}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    if not BW > 0:
        raise ValueError(f"BW must be > 0, got {BW!r}")
    n_bar = thermal_occupancy(omega, T)
    n_k = (S_on - S_off) / (hbar * omega * BW * (G_k - 1.0) * G_h * alpha) - (
        2.0 * n_bar + 1.0
    )
    if n_k < -tol:
        raise NonPhysical(
            f"inferred stage noise n_k={n_k:g} < 0; on/off calibration is "
            "inconsistent with the stated gains"
        )
    return n_k
