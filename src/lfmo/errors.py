"""Exception types shared across the package, and its argument checks:
:func:`_require_int` for counts, dimensions and order indices,
:func:`_require_positive` for model and law parameters,
:func:`_require_levels` for first-passage levels, and the JSON readers
(:func:`_json_object`, :func:`_field` and its converters) that the model
and config parsers share."""

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


def _require_levels(levels) -> np.ndarray:
    """``levels`` as a float array of shape (paths, k), k >= 1, with
    finite, nonnegative, nondecreasing rows; anything else raises a
    ``ValueError`` naming the fault."""
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 2 or levels.shape[1] == 0:
        raise ValueError("levels must have shape (paths, k) with k >= 1")
    if not np.all(np.isfinite(levels)):
        raise ValueError("levels must be finite")
    if not np.all(levels >= 0.0):
        raise ValueError("levels must be >= 0")
    if np.any(np.diff(levels, axis=1) < 0.0):
        raise ValueError("levels must be nondecreasing")
    return levels


_REQUIRED = object()


def _json_object(spec, where: str, keys=None) -> dict:
    """``spec`` if it is a JSON object with no key outside ``keys`` (any
    key when ``keys`` is None); otherwise a ValueError naming the fault."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be a JSON object, "
                         f"got {type(spec).__name__}")
    unknown = [key for key in spec if keys is not None and key not in keys]
    if unknown:
        raise ValueError(f"{where} has the unknown field {unknown[0]!r}")
    return spec


def _field(spec: dict, key: str, where: str, convert=lambda v: v,
           default=_REQUIRED):
    """``convert(spec[key])``; a missing or malformed field raises a
    ValueError naming it."""
    if key not in spec:
        if default is _REQUIRED:
            raise ValueError(f"{where} is missing the field {key!r}")
        return default
    try:
        return convert(spec[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where} field {key!r} is invalid: "
                         f"{spec[key]!r}") from None


def _typed(*types):
    """A ``_field`` converter that passes only values of ``types``, so
    nothing is coerced; a bool is never taken for a number."""
    def check(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError(f"not {types}: {value!r}")
        return value
    return check


_integer, _string, _real = _typed(int), _typed(str), _typed(int, float)


def _number(value) -> float:
    return float(_real(value))


def _numbers(value) -> tuple[float, ...]:
    return tuple(_number(v) for v in _typed(list)(value))
