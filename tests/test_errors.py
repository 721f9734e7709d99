"""The one overflow rule: finite_or_nonphysical refuses every non-finite
result with NonPhysical, silently, and passes every finite one through."""

import math
import warnings

import numpy as np
import pytest

from kipa.errors import NonPhysical, finite_or_nonphysical


def refusal(compute, message="refused"):
    """The NonPhysical message raised for ``compute``, with no warning of
    any kind on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonPhysical) as err:
            finite_or_nonphysical(compute, message)
    assert caught == []
    return str(err.value)


@pytest.mark.parametrize("compute", [
    lambda: 1e200 ** 2,                                 # Python OverflowError
    lambda: 1.0 / 0.0,                                  # ZeroDivisionError
    lambda: np.array([1.0, 1e300]) * 1e300,             # numpy inf
    lambda: np.float64(1e300) * 1e300,                  # numpy scalar inf
    lambda: np.array([np.inf]) - np.inf,                # numpy NaN
    lambda: (1.0, np.array([0.0, np.nan])),             # NaN in one part of a tuple
    lambda: np.array([1.0]) / np.array([0.0]),          # numpy division by zero
], ids=["overflow", "zero_division", "inf", "scalar_inf", "nan", "tuple", "divide"])
def test_non_finite_is_refused_silently(compute):
    assert refusal(compute) == "refused"


def test_callable_message_sees_the_result():
    assert refusal(lambda: np.array([1.0, np.inf]),
                   lambda value: f"bad at {np.flatnonzero(~np.isfinite(value))[0]}") == "bad at 1"
    assert refusal(lambda: 1e200 ** 2, repr) == "None"


@pytest.mark.parametrize("value", [
    0.0, -0.0, 5e-324, 1.7976931348623157e308, 3, 1 + 2j,
    np.float64(-1e-310), np.array([1.0, -0.0, 1e308]), np.array([], dtype=complex),
])
def test_finite_value_is_returned_unchanged(value):
    assert finite_or_nonphysical(lambda: value, "refused") is value


def test_tuple_is_returned_unchanged():
    parts = (np.arange(3.0), 2.0, np.ones((2, 2), dtype=complex))
    assert finite_or_nonphysical(lambda: parts, "refused") is parts


def test_other_errors_pass_through():
    with pytest.raises(ValueError, match="math domain"):
        finite_or_nonphysical(lambda: math.sqrt(-1.0), "refused")
