"""Unit conversion helpers.

All internal computations in :mod:`repro` are carried out in *linear* units
(watts, linear power ratios).  Decibel values appear only at configuration
boundaries and in reports, and these helpers are the single place where the
conversions live.
"""

from __future__ import annotations

from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


def db_to_linear(value_db: ArrayLike) -> ArrayLike:
    """Convert a power quantity from decibels to a linear ratio.

    Works element-wise on NumPy arrays.

    >>> db_to_linear(10.0)
    10.0
    >>> db_to_linear(0.0)
    1.0
    """
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0) if isinstance(
        value_db, np.ndarray
    ) else 10.0 ** (float(value_db) / 10.0)


def linear_to_db(value: ArrayLike) -> ArrayLike:
    """Convert a linear power ratio to decibels.

    Raises
    ------
    ValueError
        If ``value`` is not strictly positive (dB of a non-positive power is
        undefined).
    """
    arr = np.asarray(value, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("linear_to_db requires strictly positive values")
    out = 10.0 * np.log10(arr)
    if np.isscalar(value) or arr.ndim == 0:
        return float(out)
    return out

