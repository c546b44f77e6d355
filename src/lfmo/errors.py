"""Exception types shared across the package, and the two argument checks
every module uses: :func:`_require_int` for counts, dimensions and order
indices, :func:`_require_positive` for model and law parameters."""

import sys

import numpy as np


class LfmoError(Exception):
    """Base class for all package-specific errors."""


class PrecisionLossError(LfmoError):
    """An alternating-sum evaluation lost more accuracy than its guarantee."""


class BudgetExceededError(LfmoError):
    """A path simulation exceeded its jump budget before crossing."""


class UnsupportedRegimeError(LfmoError):
    """The subordinator sits on a tail boundary not covered by any limit law."""


class InvalidDimensionError(LfmoError):
    """An operation received a dimension regime it cannot handle."""


def _require_int(name: str, value, least: int, most: int | None = None) -> int:
    """``value`` as a Python int; one that is not a Python or numpy int, is
    a bool, or lies outside [least, most] (most None: no upper bound)
    raises ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if most is None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if most is not None and not least <= value <= most:
        raise ValueError(f"{name} must lie in [{least}, {most}], got {value}")
    return value


def _require_positive(name: str, value: float) -> None:
    """Refuse, with a ``ValueError`` naming ``name``, a real that is not
    positive and finite (nan, inf and a Python int beyond the float range
    included), and a bool, which is no real here as it is no int in
    :func:`_require_int`."""
    if isinstance(value, (bool, np.bool_)) or \
            not 0.0 < value <= sys.float_info.max:
        raise ValueError(f"{name} must be positive and finite, got {value}")
