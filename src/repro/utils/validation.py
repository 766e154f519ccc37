"""Small argument-validation helpers shared across the package."""

from __future__ import annotations

from typing import Any


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive, else raise :class:`ValueError`."""
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{name} must be strictly positive, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Return ``value`` if >= 0, else raise :class:`ValueError`."""
    value = float(value)
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Return ``value`` if within [0, 1], else raise :class:`ValueError`."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_positive_int(name: str, value: Any) -> int:
    """Return ``value`` as int if it is a strictly positive integer."""
    ivalue = int(value)
    if ivalue != value or ivalue <= 0:
        raise ValueError(f"{name} must be a strictly positive integer, got {value!r}")
    return ivalue


def check_non_negative_int(name: str, value: Any) -> int:
    """Return ``value`` as int if it is a non-negative integer."""
    ivalue = int(value)
    if ivalue != value or ivalue < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return ivalue
