"""Per-function optimal error tables.

For a sampled function these are the pointwise-smallest error allowances
under which it passes the monotone (respectively Hölder) check: the largest
backward increment, respectively the largest absolute increment, over each
offset.  One tile-bounded kernel, `_largest_increments`, computes the first;
the second is the larger of it on f and on −f.
"""
from __future__ import annotations

import numpy as np

from .grid import ErrorFn, SampledFn, _finite
from .scan import _SIDE, _ahead, _block_pairs, _blocks


def _tile_rows(
    v: np.ndarray, ahead: np.ndarray, k0: int, k1: int, i0: int, i1: int
) -> np.ndarray:
    """Row maxima of the tile of offsets k0..k1-1 by positions i0..i1-1:
    ``max over i of v[i] - v[i+k]`` for each k, with ``-inf`` where i + k
    runs past the end (``ahead`` holds the padded windows of v)."""
    return (v[i0:i1] - ahead[i0 + k0 : i0 + k1, : i1 - i0]).max(axis=1)


@np.errstate(over="ignore")  # an increment past the double range is refused
def _largest_increments(v: np.ndarray) -> np.ndarray:
    """``out[k] = max(0, max over i of fl(v[i] - v[i+k]))``, bit for bit as
    the loop over offsets gives it, but evaluating only the tiles that can
    hold a row maximum.

    The (offset, position) plane is cut into tiles of ``_SIDE`` offsets by
    ``_SIDE`` positions: offset block q by position block p.  For k in block
    q and i in block p, ``i + k`` lies in blocks p+q and p+q+1, so the tile's
    bound ``fl(max v[block p] - min v[blocks p+q, p+q+1])`` is at least each
    of its float differences: rounding is monotone.  Positions with
    ``i + k >= N`` read ``+inf`` from the padding, so their difference is
    ``-inf`` and raises no row.

    Each offset block keeps running rows that start at +0.0, the clamp.  Its
    tiles are visited in order of descending bound; each is evaluated whole
    and folded into the rows by ``max``.  The visit stops at the first tile
    whose bound is at most the least running row: every difference in it,
    and in every later tile, is at most each row, so skipping them leaves
    every row unchanged.  A max does not depend on the order of its operands,
    so each row ends as the max of +0.0 and all of its differences: the
    loop's value.  Only the sign of a zero may differ, since ``np.maximum``
    leaves it unspecified on ``+0.0`` against ``-0.0``; the loop returns
    +0.0, and so does the ``+= 0.0`` at the exit.

    Inputs are finite, so no difference is NaN.  A difference of +inf
    overflowed; its tile's bound is +inf too, so the tile is evaluated
    unless its rows are already +inf, and `_finite` raises OverflowError.
    """
    n = len(v)
    side = _SIDE
    nb = -(-n // side)
    out = np.zeros(n)
    top = _blocks(v, side, nb, np.maximum)
    low = _block_pairs(v, side, nb, np.minimum)
    ahead = _ahead(v, np.inf)
    for q in range(nb):
        k0, k1 = q * side, min(q * side + side, n)
        rows = out[k0:k1]
        bound = top[: nb - q] - low[q:]  # the tiles that hold a pair i + k < N
        order = np.argsort(bound)[::-1]
        for p, b in zip(order.tolist(), bound[order].tolist()):
            if b <= rows.min():
                break
            i0 = p * side
            tile = _tile_rows(v, ahead, k0, k1, i0, min(i0 + side, n))
            np.maximum(rows, tile, out=rows)
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
