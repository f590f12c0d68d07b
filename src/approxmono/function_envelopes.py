"""Monotone and Hölder envelopes of sampled functions, sandwiches, brackets.

The monotone operators and the Hölder bracket replace the error table by its
subadditive (or absolutely subadditive) envelope, which keeps membership and
makes them idempotent on grids.  All of them run one min-plus row kernel,
``min over j >= i of f[j] + table[j-i]`` (`_forward_min`).  It settles a row
without its loop when no candidate can undercut its own node.  On a linear
table ``fl((k+s) * c)`` it runs in O(N) when few pairs can hold a row's
minimum, and otherwise settles every row it can prove by Ziv's rounding
test, made exact with Dekker's double-double products and sums.  The rows
left open are evaluated on tiles of positions by offsets, each bounded
below from block minima, visited in order of bound and skipped once no
bound can lower a row (`scan._tiled_rows`, which also computes the
individual tables); a block with few open rows runs them one by one.
The strict bracket row is the kernel on ``f[1:]`` and ``table[1:]``, the
Hölder bracket row the lesser of the kernel on f and on its reversal; every
max side is a reflection.  The Hölder envelopes and sandwich use
``min over j of f[j] + d(j, i)``, with d(j, i) the cheapest path from node j
to node i through grid nodes, paying ``phi[|u-v|]`` per step u -> v.  On a
table certified subadditive and nondecreasing whose subadditive slack
exceeds the rounding of the one-step row ``min over j of f[j] +
phi[|j-i|]``, an O(N) certificate proves that row the envelope and gives a
path's root from it; every other table takes label setting, stopping once
no label can be undercut.  The kernels compute values only; each operator
returns through `_envelope`, which makes every zero +0.0 and raises
OverflowError past the double range.  The brackets check their table
hypotheses with the subadditivity scans of `error_envelopes`, the
companion table psi on the right; no table is scanned here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (
    DEFAULT_TOL,
    DimensionMismatchError,
    ErrorFn,
    PreconditionError,
    SampledFn,
    Witness,
    WitnessKind,
    _certified_pass,
    _finite,
    _magnitude,
    check_tolerance,
    is_phi_holder,
    is_phi_monotone,
    offsets_table,
)
from .error_envelopes import (
    _label_setting,
    _last_window_excess,
    _nondecreasing_pass,
    _relative_violation,
    _signed_violation,
    absolutely_subadditive_envelope,
    subadditive_envelope,
)
from .scan import _SIDE, _diagonal_violation, _shifted_violation, _tiled_rows


@dataclass(frozen=True, eq=False)
class BracketPair:
    """Two-sided bracket lower <= f <= upper produced from one function.

    ``gap_bound``, when present, is the per-node bound on upper - lower that
    the Hölder bracket construction guarantees (twice the smallest error
    value over offsets reachable from the node).
    """

    lower: SampledFn
    upper: SampledFn
    gap_bound: np.ndarray | None = None


def _sigma_table(f: SampledFn, phi: ErrorFn) -> np.ndarray:
    return subadditive_envelope(ErrorFn(phi.grid_step, offsets_table(f, phi))).values


#: Candidate pairs per node beyond which `_forward_linear` hands a call to the
#: rounding test and the open rows (exact near-ties such as
#: ``f[j] = -j * sigma[1]``).
_CANDIDATES_PER_NODE = 8

#: Veltkamp's splitting constant for doubles, ``2^27 + 1``.
_SPLIT = 134217729.0

#: Open rows a block of ``_SIDE`` rows needs for `_forward_min` to evaluate
#: it by tiles; the open rows of a block with fewer run one by one, since a
#: tile costs a few numpy calls whatever its number of rows.
_TILE_ROWS = 16


@np.errstate(over="ignore")  # an inf sum never undercuts a finite one
def _forward_min(v: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``min over j >= i of v[j] + table[j-i]`` for every i, with the loop's
    values.  A linear table, ``table[k] = fl((k+s) * c)`` (`_linear_shift`),
    takes the O(N) `_forward_linear` when its candidates are few.  Otherwise
    `_settled_rows` (with the rounding test on a linear table) settles what
    it can; the open rows of a block of ``_SIDE`` rows that holds at least
    ``_TILE_ROWS`` of them are evaluated by `_tiled_rows`, the others one
    by one.  A sum past the double range is inf.  Callers check the result,
    as half of a two-sided row may be inf where the whole row is finite."""
    n = len(v)
    s = _linear_shift(table, n)
    out = None if s is None else _forward_linear(v, table, s)
    if out is not None:
        return out
    out, settled = _settled_rows(v, table, s)  # fresh: open rows are overwritten
    rows = np.flatnonzero(~settled)
    block = rows // _SIDE
    tiled = (np.bincount(block) >= _TILE_ROWS)[block]
    for i in rows[~tiled].tolist():
        out[i] = (v[i:] + table[: n - i]).min()
    if tiled.any():
        _tiled_rows(v, table, out, rows[tiled])
    return out


@np.errstate(over="ignore")  # a ramp past the double range is not the table
def _linear_shift(table: np.ndarray, n: int) -> int | None:
    """s when ``table[k] == fl((k+s) * c)`` for every k in ``1-s .. n-1``,
    with ``c = table[1-s]``: s = 0 for an envelope table (``table[0]`` free),
    s = 1 for the shifted table ``sigma[1:]`` of the strict rows.  None when
    neither holds or when n < 2."""
    if n < 2:
        return None
    for s in (0, 1):
        if np.array_equal(np.arange(1.0, n + s) * table[1 - s], table[1 - s : n]):
            return s
    return None


def _two_sum(a, b):
    """``(x, y)`` with ``x = fl(a + b)`` and ``a + b = x + y`` exactly (Knuth)."""
    x = a + b
    t = x - a
    return x, (a - (x - t)) + (b - t)


def _two_product(a, b):
    """``(x, y)`` with ``x = fl(a * b)`` and ``a * b = x + y`` exactly
    (Dekker, with Veltkamp's split), unless a value overflows or the
    exponents of a and b sum to less than -969."""
    x = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return x, ((ah * bh - x) + ah * bl + al * bh) + al * bl


@np.errstate(over="ignore")  # an inf sum never undercuts a finite one
def _settled_rows(v: np.ndarray, table: np.ndarray, s: int | None = None):
    """``(out, settled)`` for the rows of `_forward_min`: where ``settled[i]``,
    ``out[i]`` is row i's minimum, elsewhere it is the row's nearest
    candidate ``fl(v[i] + table[0])``.

    Every other j in row i has offset ``j - i > 0``, so its sum is at least
    ``M[i] + min(table[1:N])`` exactly, where M[i] is the least v[j] over
    j > i.  Rounding is monotone, so the rounded sum is at least
    ``fl(M[i] + min(table[1:N]))``.  When the nearest candidate is at most
    that, it is a least element of the row.  Given the shift s of a linear
    table, a row that `_rounding_rows` settles takes the lesser of the
    nearest candidate and the minimum it proves, which covers the rest of
    the row.
    """
    n = len(v)
    near = v + table[0]
    bound = np.full(n, np.inf)
    np.minimum.accumulate(v[:0:-1], out=bound[-2::-1])
    bound += table[1:n].min(initial=np.inf)
    settled = near <= bound
    if s is not None:
        cand, ok = _rounding_rows(v, table, s)
        m = len(ok)
        np.minimum(near[:m], cand, out=near[:m], where=ok)
        settled[:m] |= ok
    return near, settled


def _ramp_sums(v: np.ndarray, c: float, s: int):
    """``(p, e, hi, lo, r)`` with ``k * c = p[k] + e[k]`` for k = 0 .. N and
    ``v[j] + (j+s) * c = hi[j] + lo[j] + r[j]``, all exactly, where
    ``hi = fl(hi + lo)`` and r[j], the rounding of the low parts' sum, is
    zero unless that sum spans more than 106 bits.  Exact while c is 0 or
    at least 2^-969 and no value overflows (`_two_product`)."""
    n = len(v)
    p, e = _two_product(np.arange(n + 1.0), c)
    a, b = _two_sum(v, p[s : n + s])
    b, r = _two_sum(b, e[s : n + s])
    hi, lo = _two_sum(a, b)
    return p, e, hi, lo, r


@np.errstate(over="ignore", invalid="ignore")  # a non-finite quantity settles no row
def _rounding_rows(v: np.ndarray, table: np.ndarray, s: int):
    """``(cand, ok)`` for the rows i = 0 .. N-2+s of `_forward_min` on a
    table with ``table[k] = fl((k+s) * c)`` for k >= 1-s: where ``ok[i]``,
    ``cand[i]`` is ``min over j >= i+1-s of fl(v[j] + table[j-i])``.  This
    is Ziv's rounding test, made exact with Dekker's products and sums.

    With `_ramp_sums`, ``table[k] = p[k+s]`` lies within E of
    ``(k+s) * c``, E the largest |e| over the offsets ``k + s = 1 ..
    N-1-i+s`` that row i uses.  So every exact sum of row i is
    ``v[j] + table[j-i] >= W[j] - i*c - E``, where
    ``W[j] = v[j] + (j+s)*c = hi[j] + lo[j] + r[j]``.  Since
    ``hi = fl(hi + lo)`` and rounding is monotone, the lexicographic order
    of (hi, lo) is the order of hi + lo; j0, the lexicographic argmin over
    ``j >= i+1-s``, therefore minimizes hi + lo there, and every sum of the
    row is at least ``L = hi[j0] + lo[j0] - p[i] - e[i] - E - R``,
    R = max |r|.  The row's minimum m is the rounded least sum, so
    ``fl(L) <= m <= cand[i] = fl(v[j0] + table[j0-i])``, the loop's own sum
    at j0.  With g half the gap from cand[i] down to the next double,
    ``L > cand[i] - g`` gives ``fl(L) >= cand[i]``, hence ``m = cand[i]``.
    Two more `_two_sum` steps write ``L - cand[i] + g`` as eight doubles,
    exactly.  Their float sum d is within ``8u * S`` of it, u = 2^-53 and S
    the sum of their magnitudes (a sum in the subnormal range is exact), and
    the band ``2^-49 * fl(S) + 2^-1069`` exceeds that with room for its own
    rounding.  So ``d > band`` proves the row.  Every row stays open when c
    is below 2^-969 but not 0, or when any d is not finite (an overflow
    makes every d NaN through R).
    """
    n = len(v)
    rows = np.arange(n - 1 + s)
    none = v[: len(rows)], np.zeros(len(rows), dtype=bool)
    c = float(table[1 - s])
    if 0.0 < c < 2.0**-969:
        return none
    p, e, hi, lo, r = _ramp_sums(v, c, s)
    # j0[i]: the lexicographic argmin of (hi, lo) over j >= i + 1 - s
    order = np.lexsort((lo, hi))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    j0 = order[np.minimum.accumulate(rank[::-1])[::-1][1 - s :]]
    cand = v[j0] + table[j0 - rows]
    x, y = _two_sum(hi[j0], -p[rows])
    x, z = _two_sum(x, -cand)
    half_gap = 0.5 * (cand - np.nextafter(cand, -np.inf))
    big_e = np.maximum.accumulate(np.abs(e[1 : n + s]))[n - 2 + s - rows]
    terms = (x, z, y, lo[j0], -e[rows], -big_e, -np.abs(r).max(), half_gap)
    d = sum(terms)
    if not np.isfinite(d).all():
        return none
    band = 2.0**-49 * sum(np.abs(t) for t in terms) + 2.0**-1069
    return cand, d > band


@np.errstate(over="ignore")  # a non-finite quantity declines the call
def _forward_linear(v: np.ndarray, sigma: np.ndarray, s: int) -> np.ndarray | None:
    """`_forward_min` in O(N), N >= 2, when ``sigma[k] == fl((k+s) * c)`` for
    k >= 1-s, ``c = sigma[1-s]`` (`_linear_shift`); None when candidates are
    many or the rounding bound leaves the double range.

    Why the values are the loop's: row i is the least rounded sum
    ``fl(v[j] + sigma[j-i])``.  Rounding is monotone, so that is fl of the
    exact least sum, and any subset of j holding an exact argmin gives the
    same value.  The diagonal ``v[i] + sigma[0]`` is always evaluated; the
    part over j > i is found from ``w[j] = fl(v[j] + fl((j+s) * c))`` as
    follows.

    With u = 2^-53 and eta = 2^-1074 every rounding errs by at most
    ``u*|x| + eta``, and ``j + s <= N``, so the exact ``v[j] + sigma[j-i]``
    is within ``4u*(V + N*c) + 3*eta`` of ``w[j] - i*c``, where
    V = max |v|.  If j* is an exact argmin of row i and m the argmin of w
    over j > i, then ``w[j*] - i*c - B <= v[j*] + sigma[j*-i] <=
    v[m] + sigma[m-i] <= w[m] - i*c + B``, hence ``w[j*] <= M[i] + 2B`` with
    M[i] the least w[j] over j > i.  ``B = 2^-50 * (V + sigma[0] + N*c) +
    2^-1072`` holds that bound with room for the rounding of B itself and of
    the threshold ``fl(M[i] + 2B)``.  M is nondecreasing in i, so the rows
    admitting j are one run ending at j - 1, found by one `searchsorted` per
    j.
    """
    n = len(v)
    c = sigma[1 - s]
    w = v + sigma[:n]  # w[0] is never a candidate
    bound = 2.0**-50 * (_magnitude(v) + float(sigma[0]) + n * float(c)) + 2.0**-1072
    if not np.isfinite(bound):  # else no w[j] and no v[i] + sigma[0] overflows
        return None
    # thr[i] = fl(min(w[i+1:]) + 2B) for rows i = 0..n-2, nondecreasing
    thr = np.empty(n - 1)
    np.minimum.accumulate(w[:0:-1], out=thr[::-1])
    thr += 2.0 * bound
    # node j = 1..n-1 is a candidate for the count[j-1] rows before it
    count = np.searchsorted(thr, w[1:])
    del w, thr
    count -= np.arange(1, n)
    np.minimum(count, 0, out=count)
    np.negative(count, out=count)
    total = int(count.sum())
    if total > _CANDIDATES_PER_NODE * n:
        return None
    idx = np.int32 if total + n < 2**31 else np.int64
    count = count.astype(idx)
    # pair t of node j's run has offset k = j - i = end[j] - t, end = cumsum
    k = np.repeat(np.cumsum(count, dtype=idx), count)
    k -= np.arange(total, dtype=idx)
    rows = np.repeat(np.arange(1, n, dtype=idx), count)
    rows -= k
    vals = np.repeat(v[1:], count)
    del count
    vals += sigma[k]
    del k
    out = v + sigma[0]
    np.minimum.at(out, rows, vals)
    return out


def _strict_min(v: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``min over j > i of v[j] + table[j-i]``, ``v[-1]`` for the empty last
    row: row i of `_forward_min` on ``v[1:]`` and ``table[1:]``."""
    out = v.copy()
    out[:-1] = _forward_min(v[1:], table[1:])
    return out


def _two_sided_min(v: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``min over all j of v[j] + table[|j-i|]``: the lesser of the rows over
    j <= i (`_forward_min` on the reversal) and j >= i."""
    return np.minimum(_forward_min(v[::-1], table)[::-1], _forward_min(v, table))


def _grid_table(f: SampledFn, phi: ErrorFn) -> np.ndarray:
    """The table cut to f's grid, the step costs of the grid paths."""
    _require_zero_at_origin(phi)
    return offsets_table(f, phi)


def _grid_paths(v: np.ndarray, t: np.ndarray):
    """``(labels, roots)`` of label setting from the labels v over the grid
    costs ``t[|w-u|]``: ``min over j of v[j] + d(j, i)`` and its root j for
    every node i.  Row u of the costs is a mirrored slice of the table."""
    n = len(t)
    sym = np.concatenate([t[:0:-1], t])
    cmin = float(t[1:].min())
    return _label_setting(v, lambda u: sym[n - 1 - u : 2 * n - 1 - u], cmin)


def _grid_lower(v: np.ndarray, t: np.ndarray):
    """``(labels, root)``: ``min over j of v[j] + d(j, i)`` for every node i
    and ``root(i)``, the root of node i's path, both as label setting ends
    with them after all N rounds (`_grid_paths`).  On a table that
    `_nondecreasing_pass` certifies subadditive and nondecreasing, and whose
    slack `_slack_pass` proves above the rounding of the one-step row
    ``R = min over j of v[j] + t[|j-i|]``, the labels are R and a root is
    read off it (`_row_root`) in O(N); every other table, rough ones without
    computing R, takes label setting.

    Why R is the labels when it is a fixpoint of its row,
    ``fl(R[u] + t[|w-u|]) >= R[w]`` for every pair, which `_slack_pass`
    proves.  No label is ever below R: a starting label is
    ``v[i] = fl(v[i] + t[0]) >= R[i]``, t[0] being a zero, and a candidate
    ``fl(lab[u] + t[|w-u|])`` is at least ``fl(R[u] + t[|w-u|])`` by
    monotone rounding, hence at least R[w] by the fixpoint.  After all N
    rounds no label is above R: R[i] is ``fl(v[j] + t[|j-i|])`` for some j,
    and node j has settled with a label of at most v[j], since labels only
    fall, so its candidate for i was at most R[i].  So the labels are R (up
    to the sign of a zero, which `_envelope` fixes).
    """
    if _nondecreasing_pass(t, 0.0):
        r = _two_sided_min(v, t)
        if _slack_pass(t, r):
            return r, partial(_row_root, v, t, r)
    lab, roots = _grid_paths(v, t)
    return lab, roots.item


def _slack_pass(t: np.ndarray, r: np.ndarray) -> bool:
    """True only when ``fl(r[u] + t[|w-u|]) >= r[w]`` for every pair, where
    r is the one-step row of labels v (`_grid_lower`) and t, of N entries,
    is nondecreasing from a zero t[0]: when ``t[1]`` and every exact
    ``t[a] + t[b] - t[a+b]`` (a, b >= 1, a + b < N) exceed
    ``rho = 2^-53 * max|r|``.  O(N).

    Why that suffices.  Take u != w, and j with ``r[u] = fl(v[j] + t[a])``,
    a = |j-u|; let b = |u-w| and c = |j-w|.  For a = 0, ``r[u] = v[u]``
    and ``fl(v[u] + t[b])`` is a candidate of r[w].  For a >= 1: when u
    lies between j and w, c = a + b < N and ``t[c] <= t[a] + t[b] - g``
    with g > rho by the slack; otherwise c < max(a, b), and t is
    nondecreasing with t[min(a, b)] >= t[1], so the same holds with
    g = t[1].  A sum rounds by at most 2^-53 of its rounded value (exactly
    in the subnormal range), so ``r[u] >= v[j] + t[a] - rho``, and
    ``r[u] + t[b] >= v[j] + t[c] + g - rho > v[j] + t[c]``.  By monotone
    rounding ``fl(r[u] + t[b]) >= fl(v[j] + t[c]) >= r[w]``.

    The test.  `_last_window_excess` in its concave form bounds every
    margin ``t[a+b] - t[a] - t[b]`` as in `_window_pass` (x = t[1:],
    w = t).  Its proof shows that an excess E which `_certified_pass`
    accepts at tol 0 bounds every exact margin with a rounding slack below
    the delta of scale ``2 * max t`` (its X + W, as t >= 0), with room for
    delta's own rounding.  The scale here adds max|r|, which raises delta
    by ``2^-50 * N * max|r| >= 8 * rho``, and an accepted E is at most
    minus that delta, so every exact margin is below -rho.  The k = 1 term
    of E is ``fl(fl(t[2] - t[1]) - t[1]) >= -t[1]`` and the rest of E is
    at least 0, so a pass also gives ``t[1] >= delta``, above both
    ``2^-49 * max|r|`` and 2^-1071.  With N < 3 there is no term and E is
    -inf, which `_certified_pass` declines.
    """
    x = t[1:]
    mag = _magnitude(r)
    excess = _last_window_excess(-x[::-1], t, 1)
    return _certified_pass(excess, len(t), 2.0 * float(t[-1]) + mag, 0.0)


@np.errstate(over="ignore")  # an inf sum is no finite label
def _row_root(v: np.ndarray, t: np.ndarray, r: np.ndarray, i: int) -> int:
    """Label setting's root of node i when `_slack_pass` holds for the row
    r: i itself when ``v[i] == r[i]``, otherwise the least ``(v[j], j)``
    over the j with ``fl(v[j] + t[|j-i|]) == r[i]``.  O(N).

    Why.  The labels are r (`_grid_lower`), and a node's label is final
    once it settles.  (G): for |y| <= max|r| and b >= 1,
    ``fl(y + t[b]) > y``, as t[b] >= t[1] exceeds half the gap above y,
    which is at most ``2^-53 * |y| + 2^-1075``.
    (F), the slack: ``fl(r[u] + t[b]) >= fl(v[k] + t[c])`` when
    ``r[u] = fl(v[k] + t[|k-u|])``, b = |u-w| >= 1, c = |k-w|.  Every
    v[k] whose sum is some r[u] lies in ``[min v, r[u]]``, and
    ``min v = min r``, so (G) applies to it.

    Settle order is ``(r, index)``: by (G) a node's label comes from a
    source with a smaller label, settled before any node of that label, so
    every node of label L holds it when the first of them settles, and the
    least index settles first; a source of label L never hands L on.  When
    ``v[i] == r[i]`` the label of i never falls strictly, so its root is
    i.  Otherwise the root of i is the root of the first source s in
    settle order whose candidate ``fl(r[s] + t[|i-s|])`` is r[i]; only a
    strictly smaller candidate moves a label, and none comes later.

    Let j be the least ``(v[j], j)`` whose sum is r[i]; j != i.  Then
    ``r[j] = v[j]``: else ``r[j] = fl(v[k] + t[|k-j|])`` with k != j, and
    by (F) ``fl(v[k] + t[|k-i|]) <= fl(r[j] + t[|j-i|]) <= r[i]``, so k's
    sum is r[i] too (k = i would give ``v[i] <= r[i]``), while
    ``v[k] < r[j] < v[j]`` by (G): k precedes j.  So j is its own root and
    its candidate for i is r[i].  No source s before j has candidate r[i]:
    with ``r[s] = v[s]``, s would be a sum of r[i] preceding j in
    ``(v, index)``; with ``r[s] < v[s]``, the k holding r[s] would, by
    (F) and (G) as above, have sum r[i] and ``v[k] < r[s] <= r[j] = v[j]``.
    So s = j, the root of i.
    """
    if v[i] == r[i]:
        return i
    hit = np.flatnonzero(v + t[np.abs(np.arange(len(v)) - i)] == r[i])
    return int(hit[np.argmin(v[hit])])


def _backward_max(v: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``max over j <= i of v[j] - table[i-j]``: `_forward_min` on the
    reflection ``-v[::-1]``, reflected back, as the bracket halves are."""
    return -_forward_min(-v[::-1], table)[::-1]


def _envelope(x: np.ndarray) -> np.ndarray:
    """x, fresh from a kernel, with every zero +0.0, or OverflowError if a
    value left the double range: the one exit of every function operator."""
    x += 0.0
    return _finite(x, "envelope")


def _require_zero_at_origin(phi: ErrorFn) -> None:
    if phi.values[0] != 0.0:
        raise PreconditionError(
            f"error table must vanish at offset 0, got {phi.values[0]}"
        )


def monotone_lower_envelope(f: SampledFn, phi: ErrorFn) -> SampledFn:
    """Largest function below f that stays monotone within the error table.

    ``out[i] = min over j >= i of f[j] + sigma[j-i]`` with sigma the
    subadditive envelope of ``phi``.  The output passes the monotone check
    against sigma (hence against phi), is below f whenever the table
    vanishes at offset 0, and the operator is then idempotent.
    """
    env = _forward_min(f.values, _sigma_table(f, phi))
    return SampledFn(f.grid, _envelope(env))


def monotone_upper_envelope(f: SampledFn, phi: ErrorFn) -> SampledFn:
    """Smallest function above f that stays monotone within the error table.

    Mirror image of `monotone_lower_envelope`:
    ``out[i] = max over j <= i of f[j] - sigma[i-j]``.
    """
    env = _backward_max(f.values, _sigma_table(f, phi))
    return SampledFn(f.grid, _envelope(env))


def holder_lower_envelope(f: SampledFn, phi: ErrorFn) -> SampledFn:
    """Largest Hölder-within-phi function below f.

    ``out[i] = min over all j of f[j] + d(j, i)``, d the grid path cost of the
    module docstring.  Requires the table to vanish at 0.
    """
    return SampledFn(f.grid, _envelope(_grid_lower(f.values, _grid_table(f, phi))[0]))


def holder_upper_envelope(f: SampledFn, phi: ErrorFn) -> SampledFn:
    """Smallest Hölder-within-phi function above f: the negated lower
    envelope of -f, ``out[i] = max over j of f[j] - d(j, i)``."""
    return SampledFn(f.grid, _envelope(-_grid_lower(-f.values, _grid_table(f, phi))[0]))


def monotone_sandwich(
    g: SampledFn, h: SampledFn, phi: ErrorFn, tol: float = DEFAULT_TOL
) -> tuple[SampledFn | None, Witness | None]:
    """Find a monotone-within-phi function squeezed between g and h.

    Feasible exactly when ``g[i] <= h[j] + sigma[j-i]`` for all i <= j; the
    returned function is the monotone lower envelope of h, which then
    satisfies g <= f <= h (within tol).  On infeasibility the maximal
    violating pair is returned instead.

    The envelope is built first.  Every exact margin is at most
    ``max(g - env)`` plus rounding, so when `_certified_pass` accepts that
    excess (scale ``max|g| + max|h| + max sigma``) no pair is scanned.
    """
    check_tolerance(tol)
    if not g.grid.compatible(h.grid):
        raise DimensionMismatchError("sandwich bounds must share one grid")
    _require_zero_at_origin(phi)
    sig = _sigma_table(g, phi)
    gv, hv = g.values, h.values
    n = len(gv)
    env = _envelope(_forward_min(hv, sig))
    with np.errstate(over="ignore"):  # an inf excess fails the certificate
        excess = float((gv - env).max())
    scale = _magnitude(gv) + _magnitude(hv) + float(sig.max())
    if not _certified_pass(excess, n, scale, tol):
        best = _diagonal_violation(gv, hv, sig, tol)
        if best is not None:
            k, i = best
            lhs, rhs = float(gv[i]), float(hv[i + k] + sig[k])
            return None, Witness(WitnessKind.SANDWICH, (i, i + k), lhs, rhs)
    return SampledFn(h.grid, env), None


def holder_sandwich(
    g: SampledFn, h: SampledFn, phi: ErrorFn, tol: float = DEFAULT_TOL
) -> tuple[SampledFn | None, Witness | None]:
    """Hölder analog of `monotone_sandwich`, over all node pairs.

    Feasible exactly when ``g[i] <= h[j] + d(j, i)`` for every pair, that is
    when g lies below the Hölder lower envelope of h (within tol), which is
    then returned.  Otherwise the witness is the node i where g exceeds the
    envelope most, paired with the root j of its cheapest path:
    ``lhs = g[i]`` and ``rhs = h[j] + d(j, i)``, the envelope at i.  Only
    that witness needs a root.  Where the envelope is the one-step row of
    `_grid_lower`, which `_slack_pass` proves, it comes in O(N): i itself
    when h[i] is the envelope at i, otherwise the least ``(h[j], j)``
    whose one-step sum is (`_row_root`); elsewhere label setting gives it.
    """
    check_tolerance(tol)
    if not g.grid.compatible(h.grid):
        raise DimensionMismatchError("sandwich bounds must share one grid")
    t = _grid_table(h, phi)
    env, root = _grid_lower(h.values, t)
    env = _envelope(env)
    gv = g.values
    # one row: (g[p] - 0) - env[p] is g[p] - env[p] exactly
    best = _shifted_violation(gv, np.zeros(1), env, tol)
    if best is not None:
        i = best[1]
        return None, Witness(WitnessKind.SANDWICH, (i, root(i)), float(gv[i]), float(env[i]))
    return SampledFn(h.grid, env), None


def monotone_bracket(
    f: SampledFn, phi: ErrorFn, psi: ErrorFn, tol: float = DEFAULT_TOL
) -> BracketPair:
    """Bracket a monotone-within-phi function by two psi-monotone functions.

    ``lower[i] = max over j < i of f[j] - sigma[i-j]`` and
    ``upper[i] = min over j > i of f[j] + sigma[j-i]``.  The strict ranges
    are empty at the ends, so ``lower[0] = f[0]`` and ``upper[-1] = f[-1]``
    by convention and psi-membership is asserted away from those nodes.

    Preconditions (checked, rejected with the violating witness): f passes
    the phi-monotone check, and the negated table passes the psi-monotone
    check on positive offsets, ``phi[i+k] <= phi[i] + psi[k]`` for i >= 1:
    witness ``(i, i+k)``.  The second is the subadditivity scan with psi on
    the right, so its pass is certified in O(N) when it can be, as for
    ``psi[k] = phi[N-1] - phi[N-1-k]`` on a convex phi.
    """
    check_tolerance(tol)
    offsets_table(f, psi)
    n = f.grid.count
    ok, w = is_phi_monotone(f, phi, tol)
    if not ok:
        raise PreconditionError("function is not monotone within the error table", w)
    pv, sv = phi.values, psi.values
    best = _relative_violation(pv, sv, n, tol)
    if best is not None:
        i, k = best
        lhs, rhs = float(pv[i + k]), float(pv[i] + sv[k])
        w = Witness(WitnessKind.MONOTONE, (i, i + k), lhs, rhs)
        raise PreconditionError(
            "negated error table is not monotone within the companion table", w
        )
    sig = _sigma_table(f, phi)
    lower = _envelope(-_strict_min(-f.values[::-1], sig)[::-1])
    upper = _envelope(_strict_min(f.values, sig))
    return BracketPair(SampledFn(f.grid, lower), SampledFn(f.grid, upper))


def holder_bracket(
    f: SampledFn, phi: ErrorFn, psi: ErrorFn, tol: float = DEFAULT_TOL
) -> BracketPair:
    """Bracket a Hölder-within-phi function by two psi-Hölder functions.

    ``lower[i] = max over j of f[j] - alpha[|j-i|]`` and
    ``upper[i] = min over j of f[j] + alpha[|j-i|]``; both sup and inf range
    over the whole grid, so no boundary convention is needed.  The returned
    ``gap_bound[i] = 2 * min over j of phi[|j-i|]`` dominates upper - lower
    nodewise.  Preconditions as for `monotone_bracket`: the phi-Hölder check,
    and ``phi[|j+k|] <= phi[j] + psi[|k|]`` over signed k, witness (|j+k|, j).
    """
    check_tolerance(tol)
    offsets_table(f, psi)
    n = f.grid.count
    ok, w = is_phi_holder(f, phi, tol)
    if not ok:
        raise PreconditionError("function is not Hölder within the error table", w)
    pv, sv = phi.values, psi.values
    best = _signed_violation(pv, sv, n, tol)
    if best is not None:
        j, k = best
        u = abs(j + k)
        lhs, rhs = float(pv[u]), float(pv[j] + sv[abs(k)])
        w = Witness(WitnessKind.HOLDER, (u, j), lhs, rhs)
        raise PreconditionError(
            "error table folded over signed offsets is not Hölder within the "
            "companion table", w
        )
    cut = ErrorFn(phi.grid_step, offsets_table(f, phi))
    alpha = absolutely_subadditive_envelope(cut).values
    lower = _envelope(-_two_sided_min(-f.values, alpha))
    upper = _envelope(_two_sided_min(f.values, alpha))
    # the offsets |j-i| reachable from node i are 0..max(i, n-1-i)
    ar = np.arange(n)
    with np.errstate(over="ignore"):
        gap = 2.0 * np.minimum.accumulate(pv[:n])[np.maximum(ar, n - 1 - ar)]
    _finite(gap, "Hölder bracket gap bound")
    gap.setflags(write=False)
    return BracketPair(SampledFn(f.grid, lower), SampledFn(f.grid, upper), gap)
