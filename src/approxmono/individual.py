"""Per-function optimal error tables.

For a sampled function these are the pointwise-smallest error allowances
under which it passes the monotone (respectively Hölder) check: the largest
backward increment, respectively the largest absolute increment, over each
offset.
"""
from __future__ import annotations

import numpy as np

from .grid import ErrorFn, SampledFn


def individual_sigma(f: SampledFn) -> ErrorFn:
    """Smallest table under which f passes the monotone check.

    ``out[k] = max over i of max(f[i] - f[i+k], 0)``; the output is always
    subadditive and is dominated by every table under which f passes.
    """
    v = f.values
    n = len(v)
    out = np.zeros(n)
    for k in range(1, n):
        out[k] = np.maximum((v[: n - k] - v[k:]).max(), 0.0)
    return ErrorFn(f.grid.step, out)


def individual_alpha(f: SampledFn) -> ErrorFn:
    """Smallest table under which f passes the Hölder check.

    ``out[k] = max over i of |f[i] - f[i+k]|``.
    """
    v = f.values
    n = len(v)
    out = np.zeros(n)
    for k in range(1, n):
        out[k] = np.abs(v[: n - k] - v[k:]).max()
    return ErrorFn(f.grid.step, out)
