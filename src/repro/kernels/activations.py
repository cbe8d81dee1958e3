"""Elementwise activation kernels.

Each kernel accepts an optional ``out`` array so a compiled plan can reuse a
preallocated buffer instead of allocating per call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def clamp(
    x: np.ndarray,
    min_value: Optional[float] = None,
    max_value: Optional[float] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    low = -np.inf if min_value is None else min_value
    high = np.inf if max_value is None else max_value
    return np.clip(x, low, high, out=out)


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    result = 1.0 / (1.0 + np.exp(-x))
    if out is not None:
        np.copyto(out, result)
        return out
    return result
