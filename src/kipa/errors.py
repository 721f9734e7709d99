"""Exception and warning types shared across the package."""

import numpy as np


class KipaError(Exception):
    """Base class for all package-specific errors."""


class UnstableRegime(KipaError):
    """Pump strength at or above the parametric-oscillation threshold."""


class PoleAtFrequency(KipaError):
    """Evaluation requested exactly at a real-frequency pole of the response."""


class SingularAt(KipaError):
    """Transfer-matrix solve refused: system matrix is numerically singular."""

    def __init__(self, omega, condition=None):
        self.omega = omega
        self.condition = condition
        msg = f"system matrix singular at omega={omega:g} rad/s"
        if condition is not None:
            msg += f" (condition number {condition:.3g})"
        super().__init__(msg)


class NotSettled(KipaError):
    """Time-domain run did not reach steady state within the sample window."""


class NonPhysical(KipaError):
    """Result violates a physical bound (negative noise quanta, etc.)."""


def finite_or_nonphysical(compute, message):
    """Return ``compute()``, a number, an array or a tuple of them, when
    all of it is finite; otherwise raise NonPhysical(message).

    The computation runs with numpy's floating-point warnings off. An
    OverflowError or ZeroDivisionError from it, as Python float ``**`` and
    ``/`` raise, counts as not finite. A callable ``message`` builds the
    text from the result, or from None after such an exception."""
    try:
        with np.errstate(all="ignore"):
            value = compute()
    except (OverflowError, ZeroDivisionError):
        value = None
    else:
        parts = value if isinstance(value, tuple) else (value,)
        if all(np.isfinite(part).all() for part in parts):
            return value
    raise NonPhysical(message(value) if callable(message) else message)


class NoPeak(KipaError):
    """No single resolved peak found on the provided grid."""


class FitError(KipaError):
    """Base class for least-squares failures."""


class NotConverged(FitError):
    """Iteration cap reached before meeting the convergence tolerances."""


class IllConditioned(FitError):
    """Jacobian is rank-deficient or the normal equations cannot be solved."""


class UnstableFit(FitError):
    """Best-fit parameters sit on the parametric-oscillation boundary."""

    def __init__(self, message, result=None):
        self.result = result
        super().__init__(message)


class _FileError(KipaError):
    """Error in an input file, at a 1-based ``line`` when one is known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(_FileError):
    """Malformed trace or config file."""


class SchemaMismatch(_FileError):
    """File is well-formed but does not match the expected schema."""


class UnitError(KipaError):
    """Config key is missing its unit suffix."""


class RWAViolation(UserWarning):
    """Hybridized-mode model evaluated where the rotating-wave
    approximation is not trustworthy (2J below the damping or pump rate)."""
