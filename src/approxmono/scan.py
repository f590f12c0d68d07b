"""The violation scan shared by every pair check.

Each check is a largest-margin search over a triangle of (row, position)
pairs; `_max_violation` finds it while evaluating only the tiles of that
triangle whose bound can hold it.  `_diagonal_violation` serves the
membership checks and the monotone sandwich, `_shifted_violation` the table
inequalities and the Hölder sandwich.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np


#: A numpy call on a span costs about as much as this many margins, so the
#: scan evaluates a skipped gap shorter than this rather than split the row.
_SPAN_COST = 8192

#: Side of the square tiles of the individual tables' kernel and of the
#: min-plus rows.  On walks and waves of 1k-20k nodes it measured as fast as
#: any other side, and faster than `_max_violation`'s ``sqrt(N)`` rule below
#: 5k nodes.
_SIDE = 128


def _blocks(x: np.ndarray, side: int, count: int, ufunc) -> np.ndarray:
    """``ufunc.reduce`` over each block of ``side`` consecutive values of x
    (the last one may be short), the last block repeated up to ``count``."""
    e = ufunc.reduceat(x, np.arange(0, len(x), side))
    return np.pad(e, (0, count - len(e)), mode="edge")


def _block_pairs(x: np.ndarray, side: int, count: int, ufunc) -> np.ndarray:
    """``ufunc`` of blocks q and q+1 of x for q < count: the extremum of
    ``x[q*side : (q+2)*side]``, which holds ``x[i+k]`` whenever i and k lie
    in blocks whose indices sum to q."""
    e = _blocks(x, side, count + 1, ufunc)
    return ufunc(e[:-1], e[1:])


@np.errstate(over="ignore")
def _max_violation(
    rows: int,
    width: int,
    margins: Callable[[int, int, int], np.ndarray],
    bounds: Callable[[int], Callable[[int], np.ndarray]],
    tol: float,
) -> tuple[int, int] | None:
    """``(row, pos)`` of the largest margin above tol over rows 0..rows-1,
    where row r holds the positions 0..width-r-1.

    ``margins(r, lo, hi)`` gives row r's float margins at positions lo..hi-1.
    The plane is cut into tiles of ``side`` rows by ``side`` positions;
    ``bounds(side)(t)`` gives, for the tiles of rows t*side.. (one per
    position block, from position 0), the margin expression evaluated on
    block extrema of its operands: the max of each added one, the min of
    each subtracted one.  Rounding is monotone, so a tile's bound is at least
    every float margin in it.

    The result is that of scanning every row in order, keeping the first
    strictly larger margin: ties resolve to the first row, then the first
    position.  Only tiles that can hold that margin are evaluated: those
    whose bound exceeds tol and the best margin so far, and reaches the
    exact maximum of the tile with the largest bound.  No pair is evaluated
    when every bound is at most tol.  Inputs are finite, so a margin of +inf
    overflowed (its tile's bound is +inf too): OverflowError.
    """
    side = max(32, math.isqrt(width - 1) + 1)  # about sqrt(width): O(width) tiles
    row_bound = bounds(side)
    blocks = range(-(-rows // side))

    def tiles(t):  # the bounds of row block t, up to its last tile holding a pair
        return row_bound(t)[: -(-(width - t * side) // side)]

    def tile_rows(t):
        return range(t * side, min(t * side + side, rows))

    tops = [float(tiles(t).max()) for t in blocks]
    t = int(np.argmax(tops))
    if not tops[t] > tol:
        return None
    lo = int(np.argmax(tiles(t))) * side
    seed = max(
        float(margins(r, lo, min(lo + side, width - r)).max())
        for r in tile_rows(t)
        if lo < width - r
    )
    best_margin = tol
    best = None
    for t in blocks:
        if tops[t] < seed or tops[t] <= best_margin:
            continue
        u = tiles(t)
        kept = np.flatnonzero((u >= seed) & (u > best_margin))
        # runs of kept tiles, joined across gaps too short to pay for a call
        cuts = np.flatnonzero(np.diff(kept) * side > _SPAN_COST + side).tolist()
        firsts, lasts = [0] + [c + 1 for c in cuts], cuts + [len(kept) - 1]
        spans = [
            (int(kept[i]) * side, int(kept[j]) * side + side)
            for i, j in zip(firsts, lasts)
        ]
        for r in tile_rows(t):
            end = width - r
            for lo, hi in spans:
                if lo >= end:
                    break
                row = margins(r, lo, hi if hi < end else end)
                pos = row.argmax()
                if row[pos] > best_margin:
                    best_margin = float(row[pos])
                    if best_margin == math.inf:
                        raise OverflowError(
                            "violation margin overflows the double range"
                        )
                    best = (r, lo + int(pos))
    return best


def _diagonal_violation(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float
) -> tuple[int, int] | None:
    """``(k, i)`` of the largest margin above tol of ``(a[i] - b[i+k]) - c[k]``
    over ``0 <= k`` and ``i + k < len(a)``; see `_max_violation`."""
    n = len(a)

    def margins(k, lo, hi):
        return (a[lo:hi] - b[lo + k : hi + k]) - c[k]

    def bounds(side):
        nb = -(-n // side)
        a_max = _blocks(a, side, nb, np.maximum)
        b_min = _block_pairs(b, side, 2 * nb - 1, np.minimum)
        c_min = _blocks(c[:n], side, nb, np.minimum)
        return lambda t: (a_max - b_min[t : t + nb]) - c_min[t]

    return _max_violation(n, n, margins, bounds, tol)


def _shifted_violation(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float
) -> tuple[int, int] | None:
    """``(r, p)`` of the largest margin above tol of ``(a[r+p] - b[r]) - c[p]``
    over ``0 <= r < len(b)`` and ``r + p < len(a)``; see `_max_violation`."""
    rows, width = len(b), len(a)

    def margins(r, lo, hi):
        return (a[r + lo : r + hi] - b[r]) - c[lo:hi]

    def bounds(side):
        nr, nw = -(-rows // side), -(-width // side)
        a_max = _block_pairs(a, side, nr + nw - 1, np.maximum)
        b_min = _blocks(b, side, nr, np.minimum)
        c_min = _blocks(c[:width], side, nw, np.minimum)
        return lambda t: (a_max[t : t + nw] - b_min[t]) - c_min

    return _max_violation(rows, width, margins, bounds, tol)
