"""The two rules a number from outside the program must meet.

Each boundary that takes a number (scenario, topology, ledger, mitigation
input, experiment size) tests it here and raises its own typed error.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


def finite(x) -> bool:
    """A real number, not a bool, that float64 holds as a finite value."""
    if x.__class__ is float:  # the common case, ahead of the far slower ABC check
        return math.isfinite(x)
    try:
        return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer past the float range
        return False


def integer(x) -> bool:
    """An integral number, not a bool."""
    return x.__class__ is int or isinstance(x, Integral) and not isinstance(x, bool)
