"""Numeric hygiene helpers for LP outputs.

LP backends return floats; the rounding algorithm branches on exact
comparisons like ``x(Des(i)) in (1, 10/9)``, so values within ``EPS`` of an
integer are snapped before any combinatorial step.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

#: Absolute tolerance used throughout when comparing LP values.
EPS: float = 1e-7

#: Looser tolerance for aggregated quantities (sums over many variables).
SUM_EPS: float = 1e-6


def snap(value: float, eps: float = EPS) -> float:
    """Snap ``value`` to the nearest integer when within ``eps`` of it."""
    nearest = round(value)
    return float(nearest) if abs(value - nearest) <= eps else float(value)


def snap_vector(values: Iterable[float], eps: float = EPS) -> np.ndarray:
    """Vectorized :func:`snap`; also clamps tiny negatives to zero."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    arr = np.array(values, dtype=float)
    nearest = np.round(arr)
    mask = np.abs(arr - nearest) <= eps
    arr = np.where(mask, nearest, arr)
    arr[np.abs(arr) <= eps] = 0.0
    return arr
