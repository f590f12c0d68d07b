"""The two tiled kernels: the violation scan shared by every pair check,
and the min-plus rows shared by the function envelopes and the individual
tables.

Each check is a largest-margin search over a triangle of (row, position)
pairs.  `_max_violation` cuts the triangle into tiles of ``_SIDE`` rows by
``_SIDE`` positions, bounds every tile at once from block extrema, and
evaluates whole tiles, one 2-D numpy operation each, in order of descending
bound until no bound can reach the best margin.  `_diagonal_violation`
serves the membership checks and the monotone sandwich,
`_shifted_violation` the table inequalities and the Hölder sandwich.
`_tiled_rows` lowers rows ``min over k of v[i+k] + table[k]`` the same way,
tile by tile in order of ascending bound.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


#: Side of the square tiles of both tiled kernels: the violation scan and
#: the min-plus rows, which also compute the individual tables.  On walks
#: and waves of 1k-20k nodes it measured as fast as any other side for each.
_SIDE = 128


def _blocks(x: np.ndarray, side: int, count: int, ufunc) -> np.ndarray:
    """``ufunc.reduce`` over each block of ``side`` consecutive values of x
    (the last one may be short), for ``count`` blocks: those past the end
    are empty, -inf for a max and +inf for a min."""
    e = ufunc.reduceat(x, np.arange(0, len(x), side))
    empty = np.inf if ufunc is np.minimum else -np.inf
    return np.pad(e, (0, count - len(e)), constant_values=empty)


def _block_pairs(x: np.ndarray, side: int, count: int, ufunc) -> np.ndarray:
    """``ufunc`` of blocks q and q+1 of x for q < count: the extremum of
    ``x[q*side : (q+2)*side]``, which holds ``x[i+k]`` whenever i and k lie
    in blocks whose indices sum to q (empty past the end of x)."""
    e = _blocks(x, side, count + 1, ufunc)
    return ufunc(e[:-1], e[1:])


def _ahead(x: np.ndarray, fill: float) -> np.ndarray:
    """The ``_SIDE`` windows of x padded by ``2 * _SIDE`` copies of fill:
    ``_ahead(x, fill)[m]`` is ``padded[m : m + _SIDE]``, so rows m0..m1-1
    read ``x[m + j]`` at column j, fill past the end, for any m0 < len(x)
    and m1 <= m0 + 2 * _SIDE."""
    return sliding_window_view(np.concatenate([x, np.full(2 * _SIDE, fill)]), _SIDE)


def _max_violation(
    rows: int,
    width: int,
    tile: Callable[[int, int, int, int], np.ndarray],
    bound: np.ndarray,
    tol: float,
) -> tuple[int, int] | None:
    """``(row, pos)`` of the largest margin above tol over rows 0..rows-1,
    where row r holds the positions 0..width-r-1: the result of the full row
    scan, which keeps the first strictly larger margin, so ties resolve to
    the first row, then the first position (the least pair in the order of
    ``(row, pos)``).  A margin of +inf overflowed, since inputs are finite:
    OverflowError, wherever it lies.

    ``tile(r0, r1, lo, hi)`` gives the 2-D float margins of rows r0..r1-1
    at positions lo..hi-1, ``-inf`` at the pairs past a row's end.  The
    plane is cut into tiles of ``_SIDE`` rows by ``_SIDE`` positions, row
    block t by position block s, whose first cell is
    ``(r0, p0) = (t, s) * _SIDE``; every cell of the tile comes at or after
    it.  ``bound[t, s]`` is the margin expression evaluated on block
    extrema of its operands, the max of each added one and the min of each
    subtracted one.  Rounding is monotone, so a tile's bound is at least
    every float margin in it.  A tile past the triangle, ``r0 + p0 >=
    width``, holds no pair; its bound reads an empty block (`_blocks`) and
    is -inf, at most tol (which is at least 0).

    The tiles whose bound exceeds tol are visited in order of descending
    bound (row-major on equal bounds); each is evaluated whole, and its
    first largest cell replaces the best pair when it is strictly larger,
    or equal and earlier.  The visit stops at the first bound below the
    best margin, and skips a tile whose bound equals the best margin when
    its first cell comes after the best pair.

    Why this is the full scan's result.  That result is the least pair of
    largest margin M, when M exceeds tol.  After each tile, the best pair
    is the least pair of largest margin over the tiles evaluated, when that
    margin exceeds tol.  A tile that is never evaluated changes neither:
    with a bound at most tol, its margins are at most tol; after the stop,
    its bound, and so every margin in it, is below the best margin; skipped
    on an equal bound, its margins are at most the best margin and its
    cells all come after the best pair.  So the best pair at the end is the
    full scan's.  A margin of +inf lies in a tile of bound +inf.  The best
    margin stays finite until one is found, so no such tile is stopped at
    or skipped, and its evaluation raises.  A scan whose bounds are all at
    most tol evaluates no pair.
    """
    side, nw = _SIDE, bound.shape[1]
    flat = bound.ravel()
    kept = np.flatnonzero(flat > tol)
    kept = kept[np.argsort(-flat[kept], kind="stable")]
    best_margin, best = tol, None
    for j in map(int, kept):  # lazily: most calls stop after a few tiles
        b = flat[j]
        t, s = divmod(j, nw)
        r0, p0 = t * side, s * side
        if b < best_margin:
            break
        if b == best_margin and (r0, p0) > best:
            continue
        m = tile(r0, min(r0 + side, rows), p0, min(p0 + side, width - r0))
        dr, dp = divmod(int(m.argmax()), m.shape[1])
        margin, pair = float(m[dr, dp]), (r0 + dr, p0 + dp)
        if margin > best_margin or (
            margin == best_margin and best is not None and pair < best
        ):
            if margin == math.inf:
                raise OverflowError("violation margin overflows the double range")
            best_margin, best = margin, pair
    return best


@np.errstate(over="ignore")  # an overflowed margin is +inf, and raises
def _diagonal_violation(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float
) -> tuple[int, int] | None:
    """``(k, i)`` of the largest margin above tol of ``(a[i] - b[i+k]) - c[k]``
    over ``0 <= k`` and ``i + k < len(a)``; see `_max_violation`.  Past the
    end, b reads +inf, so the margin is -inf."""
    n = len(a)
    ahead = _ahead(b, math.inf)

    def tile(k0, k1, lo, hi):
        m = ahead[lo + k0 : lo + k1, : hi - lo].copy()  # contiguous: faster below
        np.subtract(a[lo:hi], m, out=m)
        m -= c[k0:k1, None]
        return m

    nb = -(-n // _SIDE)
    a_max = _blocks(a, _SIDE, nb, np.maximum)
    b_min = _block_pairs(b, _SIDE, 2 * nb - 1, np.minimum)
    c_min = _blocks(c[:n], _SIDE, nb, np.minimum)
    bound = a_max - sliding_window_view(b_min, nb)
    bound -= c_min[:, None]
    return _max_violation(n, n, tile, bound, tol)


@np.errstate(over="ignore")  # an overflowed margin is +inf, and raises
def _shifted_violation(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float
) -> tuple[int, int] | None:
    """``(r, p)`` of the largest margin above tol of ``(a[r+p] - b[r]) - c[p]``
    over ``0 <= r < len(b)`` and ``r + p < len(a)``; see `_max_violation`.
    Past the end, a reads -inf, so the margin is -inf."""
    rows, width = len(b), len(a)
    ahead = _ahead(a, -math.inf)

    def tile(r0, r1, lo, hi):
        m = ahead[r0 + lo : r1 + lo, : hi - lo].copy()  # contiguous: faster below
        m -= b[r0:r1, None]
        m -= c[lo:hi]
        return m

    nr, nw = -(-rows // _SIDE), -(-width // _SIDE)
    a_max = _block_pairs(a, _SIDE, nr + nw - 1, np.maximum)
    b_min = _blocks(b, _SIDE, nr, np.minimum)
    c_min = _blocks(c[:width], _SIDE, nw, np.minimum)
    bound = sliding_window_view(a_max, nw) - b_min[:, None]
    bound -= c_min
    return _max_violation(rows, width, tile, bound, tol)


def _tile_mins(
    ahead: np.ndarray, table: np.ndarray, rows: np.ndarray, k0: int, k1: int
) -> np.ndarray:
    """Minima over the offsets k0..k1-1 of ``v[i+k] + table[k]`` for each
    row i, with ``+inf`` where i + k runs past the end (``ahead`` holds the
    padded windows of v)."""
    tile = ahead[rows + k0, : k1 - k0]  # a copy
    tile += table[k0:k1]
    return tile.min(axis=1)


@np.errstate(over="ignore")  # an overflowed sum is inf; callers check the rows
def _tiled_rows(
    v: np.ndarray, table: np.ndarray, out: np.ndarray, rows: np.ndarray
) -> None:
    """For the given rows i (ascending), each row ends as ``min(out[i], row
    minimum)``, the row minimum being ``min over k < N - i of
    fl(v[i+k] + table[k])``; only the tiles that can hold a smaller sum
    are evaluated.

    The (row, offset) plane is cut into tiles of ``_SIDE`` rows by
    ``_SIDE`` offsets: row block p by offset block q.  For i in block p and
    k in block q, ``i + k`` lies in blocks p+q and p+q+1, so the tile's
    bound ``fl(min v[blocks p+q, p+q+1] + min table[block q])`` is at most
    each of its float sums: rounding is monotone.  Rows with
    ``i + k >= N`` read ``+inf`` from the padding, so their sum is +inf and
    lowers no row; the tiles with q < nb - p hold every pair i + k < N of
    block p.

    The given rows of each block visit its tiles in order of ascending
    bound; each tile is evaluated on those rows and folded into them by
    ``min``.  The visit stops at the first tile whose bound is at least the
    largest running row: every sum in it, and in every later tile, is at
    least each row, so skipping them leaves every row unchanged, whatever
    value it started from.  A min does not depend on the order of its
    operands, so each row ends as the least of its start and its sums (the
    sign of a zero aside, which callers fix).  Inputs are finite, so no sum
    is NaN; a sum that overflows to -inf lies in a tile of bound -inf,
    which is evaluated unless its rows are already -inf.  The bounds and
    windows are built here, only for a call that has a block to tile.
    """
    n = len(v)
    side = _SIDE
    nb = -(-n // side)
    low = _block_pairs(v, side, nb, np.minimum)
    least = _blocks(table[:n], side, nb, np.minimum)
    ahead = _ahead(v, np.inf)
    cuts = np.flatnonzero(np.diff(rows // side)) + 1
    for idx in np.split(rows, cuts):
        p = int(idx[0]) // side
        run = out[idx]
        bound = low[p:] + least[: nb - p]  # the tiles that hold a pair i + k < N
        order = np.argsort(bound)
        for q, b in zip(order.tolist(), bound[order].tolist()):
            if b >= run.max():
                break
            k0 = q * side
            tile = _tile_mins(ahead, table, idx, k0, min(k0 + side, n))
            np.minimum(run, tile, out=run)
        out[idx] = run
