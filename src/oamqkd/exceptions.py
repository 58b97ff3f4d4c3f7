"""Error types raised across the simulator.

Each exception names the violated contract; subclassing the closest builtin
keeps ``except ValueError``-style handling working for callers that do not
care about the distinction.
"""

import math


class GridTooCoarse(RuntimeError):
    """Quadrature grid cannot resolve a mode to the requested tolerance."""


class IndexOutOfRange(IndexError):
    """Basis or symbol index outside 0..d-1."""


class DimensionMismatch(ValueError):
    """State, basis, or device dimensions disagree."""


class UnsupportedDimension(ValueError):
    """Requested construction is not available in this dimension."""


class ConfigInvalid(ValueError):
    """Configuration cannot be parsed or violates an invariant.

    Raised for config files, flags, and the session, device, and beam
    dataclasses alike; the command line exits with status 2 on it.
    """


def require_finite(name: str, value: float) -> None:
    """Raise ConfigInvalid unless ``value`` is a finite number."""
    if not math.isfinite(value):
        raise ConfigInvalid(f"{name} must be finite, got {value!r}")
