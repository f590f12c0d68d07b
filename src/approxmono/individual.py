"""Per-function optimal error tables.

For a sampled function these are the pointwise-smallest error allowances
under which it passes the monotone (respectively Hölder) check: the largest
backward increment, respectively the largest absolute increment, over each
offset.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .grid import ErrorFn, SampledFn, _finite


@np.errstate(over="ignore")  # an increment past the double range is refused
def _largest_increments(f: SampledFn, size: Callable[[np.ndarray], float]) -> ErrorFn:
    """``out[k] = size(f[i] - f[i+k] over all i)`` for k >= 1, 0 at k = 0."""
    v = f.values
    n = len(v)
    out = np.zeros(n)
    for k in range(1, n):
        out[k] = size(v[: n - k] - v[k:])
    return ErrorFn(f.grid.step, _finite(out, "largest increment"))


def individual_sigma(f: SampledFn) -> ErrorFn:
    """Smallest table under which f passes the monotone check.

    ``out[k] = max over i of max(f[i] - f[i+k], 0)``; the output is always
    subadditive and is dominated by every table under which f passes.
    """
    return _largest_increments(f, lambda d: np.maximum(d.max(), 0.0))


def individual_alpha(f: SampledFn) -> ErrorFn:
    """Smallest table under which f passes the Hölder check.

    ``out[k] = max over i of |f[i] - f[i+k]|``.
    """
    return _largest_increments(f, lambda d: np.abs(d).max())
