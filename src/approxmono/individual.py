"""Per-function optimal error tables.

For a sampled function these are the pointwise-smallest error allowances
under which it passes the monotone (respectively Hölder) check: the largest
backward increment, respectively the largest absolute increment, over each
offset.  `_largest_increments` computes the first as reflected min-plus
rows of the tiled row kernel, `scan._tiled_rows`; the second is the larger
of it on f and on −f.
"""
from __future__ import annotations

import numpy as np

from .grid import ErrorFn, SampledFn, _finite
from .scan import _tiled_rows


def _largest_increments(v: np.ndarray) -> np.ndarray:
    """``out[k] = max(0, max over i of fl(v[i] - v[i+k]))``, bit for bit as
    the loop over offsets gives it: row k of `_tiled_rows` on v with the
    table −v, started at 0 and negated.

    Row k of the kernel is ``min over i of fl(v[k+i] + (−v[i]))``, and
    ``fl(v[i+k] + (−v[i])) = −fl(v[i] − v[i+k])``: the exact sums are
    negatives of each other and rounding to nearest is symmetric.  The
    kernel's tile bound, ``fl(min v[blocks p+q, p+q+1] + min(−v)[block q])
    = fl(min v[...] − max v[block q])``, is likewise the negated bound
    ``fl(max v[block q] − min v[...])`` on the tile's differences.  Each
    row ends as the min of its start and its sums, so a start of 0 gives
    ``min(0, −max fl(v[i] − v[i+k])) = −max(0, ...)``: the clamp.  The
    negation then gives the loop's value, with −0.0 for every +0.0, which
    the ``+= 0.0`` makes +0.0 again.  An increment past the double range is
    a sum of -inf, whose tile is evaluated (`_tiled_rows`), and `_finite`
    raises OverflowError on its +inf.
    """
    n = len(v)
    out = np.zeros(n)
    _tiled_rows(v, -v, out, np.arange(n))
    out = -out
    out += 0.0
    return _finite(out, "largest increment")


def individual_sigma(f: SampledFn) -> ErrorFn:
    """Smallest table under which f passes the monotone check.

    ``out[k] = max over i of max(f[i] - f[i+k], 0)``; the output is always
    subadditive and is dominated by every table under which f passes.
    """
    return ErrorFn(f.grid.step, _largest_increments(f.values))


def individual_alpha(f: SampledFn) -> ErrorFn:
    """Smallest table under which f passes the Hölder check.

    ``out[k] = max over i of |f[i] - f[i+k]|``, the larger of the sigma
    tables of f and of −f: ``fl(b - a) = -fl(a - b)``, so the two hold the
    differences of either sign, and a max of absolute values is at least 0.
    """
    v = f.values
    both = np.maximum(_largest_increments(v), _largest_increments(-v))
    return ErrorFn(f.grid.step, both)
