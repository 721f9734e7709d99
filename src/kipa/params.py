"""Domain types for the amplifier model.

Unit conventions
----------------
All rates and frequencies held by these types are angular (rad/s).
File and CLI boundaries use Hz; conversion is an exact factor of 2*pi
(see :func:`hz_to_angular` / :func:`angular_to_hz`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def hz_to_angular(f):
    """Hz -> rad/s, exact factor 2*pi."""
    return TWO_PI * f


def angular_to_hz(w):
    """rad/s -> Hz, exact factor 1/(2*pi)."""
    return w / TWO_PI


def power_db(gain_linear):
    """Linear power gain -> dB (10*log10)."""
    return 10.0 * np.log10(gain_linear)


def power_linear(gain_db):
    """dB -> linear power gain."""
    return 10.0 ** (np.asarray(gain_db) / 10.0)


def _require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first of ``names`` whose value on ``obj``
    is NaN or infinite (None means "not given" and passes)."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class GridOrderError(ValueError):
    """A grid that is not strictly increasing; ``index`` is the first
    sample out of order."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _freeze_grid(obj, x_name: str, y_name: str, y_dtype) -> None:
    """Replace ``obj.<x_name>`` (float) and ``obj.<y_name>`` (``y_dtype``)
    by read-only 1-d copies of equal length, x strictly increasing; raises
    ValueError, or GridOrderError naming the first offending index."""
    # own copies: marking views read-only would freeze caller arrays
    x = np.array(getattr(obj, x_name), dtype=float)
    y = np.array(getattr(obj, y_name), dtype=y_dtype)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise ValueError(
            f"{x_name} and {y_name} must be 1-d arrays of equal length, "
            f"got shapes {x.shape} and {y.shape}"
        )
    bad = np.flatnonzero(~(x[1:] > x[:-1]))
    if len(bad):
        i = int(bad[0]) + 1
        raise GridOrderError(
            f"{x_name} must be strictly increasing, got {x_name}[{i}] = "
            f"{x[i].item()!r} after {x_name}[{i - 1}] = {x[i - 1].item()!r}",
            i,
        )
    x.setflags(write=False)
    y.setflags(write=False)
    object.__setattr__(obj, x_name, x)
    object.__setattr__(obj, y_name, y)


@dataclass(frozen=True)
class ResonatorParams:
    """One resonator mode.

    Attributes
    ----------
    omega0 : float
        Resonance angular frequency [rad/s].
    kappa_e : float
        Extrinsic (waveguide) damping rate [rad/s].
    kappa_i : float
        Intrinsic (loss) damping rate [rad/s].
    """

    omega0: float
    kappa_e: float
    kappa_i: float

    def __post_init__(self):
        _require_finite(self, "omega0", "kappa_e", "kappa_i")
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0!r}")
        if not self.kappa_e > 0:
            raise ValueError(f"kappa_e must be > 0, got {self.kappa_e!r}")
        if self.kappa_i < 0:
            raise ValueError(f"kappa_i must be >= 0, got {self.kappa_i!r}")

    @property
    def kappa(self) -> float:
        """Total damping rate kappa_e + kappa_i [rad/s]."""
        return self.kappa_e + self.kappa_i

    @property
    def eta(self) -> float:
        """Coupling efficiency kappa_e / kappa, in (0, 1]."""
        return self.kappa_e / self.kappa


@dataclass(frozen=True)
class KineticFilm:
    """Current-dependent inductance of a superconducting thin film.

    Attributes
    ----------
    L0 : float
        Inductance at zero current [H].
    I_star : float
        Nonlinearity scale current [A]; of order the film critical current.
    L_sheet : float, optional
        Sheet inductance [H/square]; metadata only.
    """

    L0: float
    I_star: float
    L_sheet: float | None = None

    def __post_init__(self):
        _require_finite(self, "L0", "I_star", "L_sheet")
        if not self.L0 > 0:
            raise ValueError(f"L0 must be > 0, got {self.L0!r}")
        if not self.I_star > 0:
            raise ValueError(f"I_star must be > 0, got {self.I_star!r}")
        if self.L_sheet is not None and not self.L_sheet > 0:
            raise ValueError(f"L_sheet must be > 0, got {self.L_sheet!r}")


@dataclass(frozen=True)
class PumpConfig:
    """Pump tone: frequency, phase, bias current and drive strength.

    The drive is given either directly as a parametric rate ``g`` [rad/s]
    or as a pump power ``P_p`` [W] behind a reference impedance ``Z_ref``
    [ohm] and a dimensionless calibration factor ``cal`` (the on-chip
    impedance is generally not known exactly, so the matched-drive pump
    current ``I_p = cal*sqrt(2*P_p/Z_ref)`` absorbs the uncertainty).

    The sign of the parametric rate is folded into the pump phase; ``g``
    is stored as a magnitude and ``phi_p`` modulo 2*pi.
    """

    omega_p: float          # pump angular frequency [rad/s]
    phi_p: float = 0.0      # pump phase [rad], stored modulo 2*pi
    I_dc: float = 0.0       # DC bias current [A]
    g: float | None = None  # parametric rate [rad/s] (direct drive)
    P_p: float | None = None  # pump power [W] (power drive)
    Z_ref: float = 50.0     # reference impedance [ohm]
    cal: float = 1.0        # dimensionless pump-current calibration

    def __post_init__(self):
        _require_finite(self, "omega_p", "phi_p", "I_dc", "g", "P_p", "Z_ref", "cal")
        if not self.omega_p > 0:
            raise ValueError(f"omega_p must be > 0, got {self.omega_p!r}")
        if (self.g is None) == (self.P_p is None):
            raise ValueError("exactly one of g or P_p must be given")
        if self.g is not None and self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g!r}")
        if self.P_p is not None:
            if self.P_p < 0:
                raise ValueError(f"P_p must be >= 0, got {self.P_p!r}")
            if not self.Z_ref > 0:
                raise ValueError(f"Z_ref must be > 0, got {self.Z_ref!r}")
        object.__setattr__(self, "phi_p", self.phi_p % TWO_PI)


@dataclass(frozen=True)
class CoupledSystem:
    """Two resonator modes with coherent coupling J.

    ``mode_a`` is the nonlinear (pumped) resonator; ``mode_b`` is the
    linear auxiliary resonator, which carries no parametric drive.
    """

    mode_a: ResonatorParams
    mode_b: ResonatorParams
    J: float  # coupling rate [rad/s]

    def __post_init__(self):
        _require_finite(self, "J")
        if self.J < 0:
            raise ValueError(f"J must be >= 0, got {self.J!r}")


@dataclass(frozen=True, eq=False)
class ComplexSpectrum:
    """Complex amplitudes on a strictly increasing frequency grid.

    ``freqs`` are angular frequency offsets [rad/s] (phase sweeps reuse
    the container with radians on the x axis).
    """

    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze_grid(self, "freqs", "values", complex)

    def __len__(self) -> int:
        return len(self.freqs)

    @property
    def power(self) -> np.ndarray:
        """Linear power gain |value|^2."""
        return np.abs(self.values) ** 2

    @property
    def power_db(self) -> np.ndarray:
        """Power gain in dB."""
        return power_db(self.power)


TRACE_KINDS = ("reflection", "gain_db", "noise_psd", "bias_shift")


@dataclass(frozen=True, eq=False)
class Trace:
    """Measurement trace: x finite and strictly increasing, y finite and
    kind-consistent.

    kind=reflection: x frequency [Hz], y complex reflection.
    kind=gain_db:    x frequency [Hz], y power gain [dB].
    kind=noise_psd:  x temperature [K], y noise density [W/Hz].
    kind=bias_shift: x bias current [A], y resonance frequency [Hz].
    """

    x: np.ndarray
    y: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in TRACE_KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}")
        if self.kind != "reflection" and np.iscomplexobj(np.asarray(self.y)):
            raise ValueError(f"kind={self.kind} requires real y values")
        dtype = complex if self.kind == "reflection" else float
        _freeze_grid(self, "x", "y", dtype)  # a NaN in x fails as not increasing
        for name, values in (("x", self.x), ("y", self.y)):
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                i = bad[0]
                raise ValueError(
                    f"{name} must be finite, got {name}[{i}] = {values[i].item()!r}"
                )

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class NoiseChain:
    """Amplification chain: parametric stage followed by a classical chain.

    Attributes
    ----------
    G_k : float
        Linear power gain of the parametric stage (>= 1).
    G_h : float
        Linear power gain of the classical chain (>= 1).
    n_h : float
        Input-referred noise quanta of the classical chain (>= 1/2).
    eta : float
        Coupling efficiency of the parametric stage, in (0, 1].
    T : float
        Input-noise temperature [K].
    T_dev : float
        Parametric-stage device temperature [K].
    omega : float
        Signal angular frequency [rad/s].
    """

    G_k: float
    G_h: float
    n_h: float
    eta: float
    T: float
    T_dev: float
    omega: float

    def __post_init__(self):
        _require_finite(self, "G_k", "G_h", "n_h", "eta", "T", "T_dev", "omega")
        if self.G_k < 1:
            raise ValueError(f"G_k must be >= 1, got {self.G_k!r}")
        if self.G_h < 1:
            raise ValueError(f"G_h must be >= 1, got {self.G_h!r}")
        if self.n_h < 0.5:
            raise ValueError(f"n_h must be >= 1/2, got {self.n_h!r}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta!r}")
        if self.T < 0 or self.T_dev < 0:
            raise ValueError("temperatures must be >= 0")
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega!r}")
