"""Shared generators and brute-force oracles for the test suite.

Random data is drawn from a dyadic lattice (integer multiples of 2**-16)
so that every sum and difference the library forms is exact in double
precision; equalities and inequalities asserted by the tests then hold
bit-for-bit instead of up to rounding noise.
"""
from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from approxmono import error_envelopes, function_envelopes, scan
from approxmono import (
    ErrorFn,
    Grid,
    SampledFn,
    monotone_lower_envelope,
)

SCALE = 2.0**-16


def dyadic(rng: np.random.Generator, lo: float, hi: float, size: int) -> np.ndarray:
    """Uniform values on the dyadic lattice inside [lo, hi]."""
    lo_i = math.ceil(lo / SCALE)
    hi_i = math.floor(hi / SCALE)
    return rng.integers(lo_i, hi_i + 1, size).astype(float) * SCALE


def exact_sums(v: np.ndarray) -> bool:
    """Whether v lies on the lattice of `dyadic` below 2^30, where every sum
    of a few dozen of its values is exact."""
    units = v / SCALE
    return bool(np.array_equal(units, np.round(units)) and np.abs(v).max() < 2.0**30)


def rand_fn(rng: np.random.Generator, grid: Grid, amp: float = 2.0) -> SampledFn:
    return SampledFn(grid, dyadic(rng, -amp, amp, grid.count))


def rand_error(
    rng: np.random.Generator,
    n: int,
    step: float = 1.0,
    lo: float = 0.0,
    hi: float = 1.0,
    zero_at_origin: bool = True,
) -> ErrorFn:
    vals = dyadic(rng, lo, hi, n)
    if zero_at_origin:
        vals[0] = 0.0
    return ErrorFn(step, vals)


def rand_concave_increasing_error(
    rng: np.random.Generator, n: int, step: float = 1.0
) -> ErrorFn:
    """Increasing subadditive table: cumulative sums of nonincreasing gains."""
    gains = np.sort(dyadic(rng, SCALE, 0.5, n - 1))[::-1]
    vals = np.concatenate([[0.0], np.cumsum(gains)])
    return ErrorFn(step, vals)


def mono_member(rng: np.random.Generator, grid: Grid, phi: ErrorFn) -> SampledFn:
    """Random function passing the monotone check against phi exactly."""
    return monotone_lower_envelope(rand_fn(rng, grid), phi)


def separating_step_fn(grid: Grid, phi: ErrorFn, split: int) -> SampledFn:
    """Zero left of the split node, minus the error table right of it.

    For increasing subadditive phi vanishing at 0, this passes the Hölder
    check against phi but drops by phi[k] across offset k, so it fails the
    monotone check against any table strictly below phi at k.
    """
    vals = np.zeros(grid.count)
    for i in range(split + 1, grid.count):
        vals[i] = -phi.values[i - split]
    return SampledFn(grid, vals)


def brute_sigma(values) -> np.ndarray:
    """Minimum of the table summed over all compositions of each offset."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    out = np.empty(n)
    out[0] = values[0]
    for k in range(1, n):
        best = math.inf
        for mask in range(1 << (k - 1)):
            cost = 0.0
            prev = 0
            for pos in range(1, k):
                if (mask >> (pos - 1)) & 1:
                    cost = cost + float(values[pos - prev])
                    prev = pos
            cost = cost + float(values[k - prev])
            if cost < best:
                best = cost
        out[k] = best
    return out


def loop_sigma(values) -> np.ndarray:
    """The quadratic min-plus recurrence over the last part of each offset."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    env = v.astype(float).copy()
    for k in range(2, n):
        candidates = env[1:k] + v[k - 1 : 0 : -1]
        m = candidates.min()
        if m < env[k]:
            env[k] = m
    return env


def loop_variation(fv, table, start: int, end: int) -> np.ndarray:
    """The quadratic variation dynamic program over the last partition node."""
    seg = np.asarray(fv, dtype=float)[start : end + 1]
    table = np.asarray(table, dtype=float)
    m = end - start + 1
    prefix = np.empty(m)
    prefix[0] = 0.0
    for i in range(1, m):
        prefix[i] = (prefix[:i] + (np.abs(seg[i] - seg[:i]) - table[i:0:-1])).max()
    return prefix


def same_bits(a, b) -> bool:
    """Equal values and equal sign bits, so +0.0 and -0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def star_shaped_table(draw, min_size: int = 2, max_size: int = 64) -> np.ndarray:
    """Dyadic table with ``t[k] >= k * t[1]`` for every k >= 1.

    Either a ramp ``k * c`` plus nonnegative extras (often zero, so many
    offsets sit exactly on the ramp; any value at offset 0), or the
    cumulative sums of nondecreasing increments (a convex table, 0 at 0).
    """
    n = draw(st.integers(min_size, max_size))
    ints = st.integers(0, 1 << 16)
    if draw(st.booleans()):
        c = draw(ints)
        extras = draw(st.lists(st.one_of(st.just(0), ints), min_size=n, max_size=n))
        extras[1] = 0  # t[1] is the slope of the ramp
        vals = np.arange(n) * float(c) + np.array(extras, dtype=float)
    else:
        steps = sorted(draw(st.lists(ints, min_size=n - 1, max_size=n - 1)))
        vals = np.concatenate([[0.0], np.cumsum(np.array(steps, dtype=float))])
    return vals * SCALE


def brute_alpha(values) -> np.ndarray:
    """Minimum over signed-offset multisets, searched under a cost budget.

    Exhaustive over every multiset whose cost stays below twice the largest
    table value (no cheaper candidate can exist beyond that, since a single
    direct part already costs at most the maximum).  Requires strictly
    positive costs away from offset 0 so the search terminates.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    assert n >= 2 and values[1:].min() > 0, "oracle needs positive step costs"
    steps = [(j, float(values[j])) for j in range(1, n)]
    steps += [(-j, float(values[j])) for j in range(1, n)]
    best = [float(values[k]) for k in range(n)]
    budget = 2.0 * float(values.max())

    def dfs(start: int, total: int, cost: float) -> None:
        for idx in range(start, len(steps)):
            d, c = steps[idx]
            nc = cost + c
            if nc >= budget or nc >= max(best):
                continue
            nt = total + d
            if 0 <= nt < n and nc < best[nt]:
                best[nt] = nc
            dfs(idx, nt, nc)

    dfs(0, 0, 0.0)
    return np.array(best)


def bellman_ford_alpha(values, mass_radius: int) -> np.ndarray:
    """Signed-offset minimization by label-correcting rounds.

    Independent of the label-setting implementation; handles zero costs.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    size = 2 * mass_radius + 1
    dist = np.full(size, np.inf)
    dist[mass_radius] = 0.0
    for _ in range(size):
        prev = dist.copy()
        for j in range(1, n):
            c = values[j]
            dist[j:] = np.minimum(dist[j:], dist[: size - j] + c)
            dist[: size - j] = np.minimum(dist[: size - j], dist[j:] + c)
        if np.array_equal(prev, dist):
            break
    out = dist[mass_radius : mass_radius + n].copy()
    cycle = (dist[mass_radius + 1 : mass_radius + n] + values[1:]).min()
    out[0] = min(values[0], cycle)
    return out


def heap_alpha(values) -> np.ndarray:
    """Absolutely subadditive envelope by a heap-driven label-setting search.

    Distances from 0 on the signed lattice folded onto 0..N-1, where u steps
    to v at cost ``min(values[|v-u|], values[u+v])``; heap entries are
    (distance, node), so ties settle by node index.  An independent
    formulation of the library's dense search, with the same float sums.
    """
    costs = np.asarray(values, dtype=float)
    n = len(costs)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    cand = np.empty(n)
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        cand[u:] = costs[: n - u]
        cand[:u] = costs[u:0:-1]
        np.minimum(cand[: n - u], costs[u:], out=cand[: n - u])
        cand += du
        mask = cand < dist
        if mask.any():
            dist[mask] = cand[mask]
            for v in np.nonzero(mask)[0].tolist():
                heapq.heappush(heap, (float(cand[v]), v))
    dist[0] = min(float(costs[0]), float((dist[1:] + costs[1:]).min()))
    return dist


@np.errstate(over="ignore")
def dense_label_setting(labels, row):
    """``(labels, roots)`` after all N rounds of dense label setting: settle
    the open node with the least label (first index on ties), relax every
    node through ``row(u)``, and move a label and its root only on a strict
    improvement.  The loop `error_envelopes._label_setting` exits early from."""
    lab = np.array(labels, dtype=float)
    root = np.arange(len(lab))
    open_lab = lab.copy()
    for _ in range(len(lab)):
        u = int(np.argmin(open_lab))
        open_lab[u] = np.inf
        cand = lab[u] + row(u)
        better = cand < lab
        lab[better] = cand[better]
        open_lab[better] = cand[better]
        root[better] = root[u]
    return lab, root


@np.errstate(over="ignore")
def loop_forward_min(v, table, start: int) -> np.ndarray:
    """``min over j >= max(i + start, 0) of v[j] + table[|j-i|]``, every row
    by the loop; rows with an empty range keep v[i]."""
    n = len(v)
    out = np.array(v, dtype=float)
    for i in range(n - max(start, 0)):
        j = np.arange(max(i + start, 0), n)
        out[i] = (v[j] + table[np.abs(j - i)]).min()
    return out


def count_label_rounds(monkeypatch) -> list[int]:
    """Wrap the label-setting kernel where α and the Hölder envelopes call
    it; each call appends the number of rounds it ran, counted through its
    row callback."""
    kernel = error_envelopes._label_setting
    rounds: list[int] = []

    def counting(labels, row, cmin):
        rounds.append(0)

        def counted(u):
            rounds[-1] += 1
            return row(u)

        return kernel(labels, counted, cmin)

    monkeypatch.setattr(error_envelopes, "_label_setting", counting)
    monkeypatch.setattr(function_envelopes, "_label_setting", counting)
    return rounds


def record_holder_paths(monkeypatch) -> list[str]:
    """Wrap the Hölder envelopes' kernel; each `_grid_lower` call appends
    the path its labels took: "certificate" (`_slack_pass`) or
    "label setting"."""
    lower = function_envelopes._grid_lower
    paths: list[str] = []

    def recording(v, t):
        lab, root = lower(v, t)
        certified = getattr(root, "func", None) is function_envelopes._row_root
        paths.append("certificate" if certified else "label setting")
        return lab, root

    monkeypatch.setattr(function_envelopes, "_grid_lower", recording)
    return paths


def record_settled_rows(monkeypatch) -> list[np.ndarray]:
    """Wrap the row kernel's settle test; each `_forward_min` call that
    declines its O(N) path appends its mask of settled rows, so the rows
    left to the tiles or the row loop are the False entries."""
    test = function_envelopes._settled_rows
    masks: list[np.ndarray] = []

    def recording(v, table, linear=False):
        near, settled = test(v, table, linear)
        masks.append(settled)
        return near, settled

    monkeypatch.setattr(function_envelopes, "_settled_rows", recording)
    return masks


def record_linear_pairs(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Swap numpy in `function_envelopes` for a stand-in whose
    ``minimum.at`` records its ``(rows, sums)`` before applying them: each
    `_forward_linear` call that keeps its O(N) path appends the candidate
    pairs it evaluates, in the order it passes them."""
    pairs: list[tuple[np.ndarray, np.ndarray]] = []

    class Minimum:
        def __call__(self, *args, **kwargs):
            return np.minimum(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(np.minimum, name)

        def at(self, out, rows, sums):
            pairs.append((rows.copy(), sums.copy()))
            np.minimum.at(out, rows, sums)

    class Numpy:
        minimum = Minimum()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(function_envelopes, "np", Numpy())
    return pairs


def record_row_tiles(monkeypatch) -> list[tuple[int, int]]:
    """Wrap the tiled row kernel's tile evaluation; each tile that
    `_forward_min` or the individual tables evaluate appends its first row
    and first offset (for an individual table, its first offset and first
    position)."""
    tile_mins = scan._tile_mins
    tiles: list[tuple[int, int]] = []

    def recording(ahead, table, rows, k0, k1):
        tiles.append((int(rows[0]), k0))
        return tile_mins(ahead, table, rows, k0, k1)

    monkeypatch.setattr(scan, "_tile_mins", recording)
    return tiles


@np.errstate(over="ignore")
def loop_individual(values, kind: str) -> np.ndarray:
    """The individual table by one numpy call per offset k >= 1: the largest
    ``f[i] - f[i+k]`` clamped at 0 (kind ``sigma``), or the largest
    ``|f[i] - f[i+k]|`` (kind ``alpha``); 0 at offset 0.  An increment past
    the double range is left as inf."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    out = np.zeros(n)
    for k in range(1, n):
        d = v[: n - k] - v[k:]
        out[k] = np.maximum(d.max(), 0.0) if kind == "sigma" else np.abs(d).max()
    return out


def brute_grid_distances(table, n: int) -> np.ndarray:
    """Cheapest grid path cost d[j, i] between all node pairs, by
    Floyd–Warshall over the steps u -> v of cost ``table[|u-v|]``."""
    assert n <= 12, "oracle meant for small grids"
    table = np.asarray(table, dtype=float)
    d = [[float(table[abs(i - j)]) for j in range(n)] for i in range(n)]
    for m in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][m] + d[m][j] < d[i][j]:
                    d[i][j] = d[i][m] + d[m][j]
    return np.array(d)


def brute_grid_holder_lower(fv, table) -> np.ndarray:
    """``min over j of f[j] + d(j, i)``: the largest function below f whose
    increments respect every grid path, for tables vanishing at 0."""
    fv = np.asarray(fv, dtype=float)
    n = len(fv)
    d = brute_grid_distances(table, n)
    return np.array([min(fv[j] + d[j, i] for j in range(n)) for i in range(n)])


# The four table inequalities by enumeration of their index triples.  Each
# margin is formed as the scans form it, ``(v[a] - v[b]) - w[c]``, so the
# largest one is comparable bit for bit.


def brute_relative_margin(v, w, n: int, first: int = 1) -> float:
    """Largest ``(v[j+k] - v[j]) - w[k]`` over first <= j, k >= 0, j+k < n."""
    assert n <= 12, "oracle meant for small tables"
    return max(
        (float(v[j + k]) - float(v[j])) - float(w[k])
        for j in range(first, n)
        for k in range(n - j)
    )


def exact_relative_margin(v, w, n: int):
    """Largest exact ``v[j+k] - v[j] - w[k]`` over j, k >= 1 and j+k < n, a
    Fraction, or -inf when there is no such pair."""
    return max(
        (
            Fraction(v[j + k]) - Fraction(v[j]) - Fraction(w[k])
            for j in range(1, n)
            for k in range(1, n - j)
        ),
        default=-math.inf,
    )


def nudge_across(values, t: int, up: bool = True) -> np.ndarray:
    """A copy of the table with entry t >= 2 one ulp across its
    subadditivity bound ``min over 0 < j < t of values[j] + values[t-j]``,
    compared exactly: the least float above the bound (up, so an exact
    margin is positive), or the largest float at or below it."""
    v = np.array(values, dtype=float)
    bound = min(Fraction(v[j]) + Fraction(v[t - j]) for j in range(1, t))
    x = float(bound)
    if up:
        while Fraction(x) <= bound:
            x = float(np.nextafter(x, math.inf))
    else:
        while Fraction(x) > bound:
            x = float(np.nextafter(x, -math.inf))
    v[t] = x
    return v


def brute_signed_margin(v, w, n: int) -> float:
    """Largest ``(v[|j+k|] - v[|j|]) - w[|k|]`` over every signed j and k
    with |j|, |k|, |j+k| < n (negative j included)."""
    assert n <= 12, "oracle meant for small tables"
    span = range(-(n - 1), n)
    return max(
        (float(v[abs(j + k)]) - float(v[abs(j)])) - float(w[abs(k)])
        for j in span
        for k in span
        if abs(j + k) < n
    )


def brute_variation(fv, table, a: int, b: int) -> float:
    """Maximal partition variation by enumerating interior node subsets."""
    fv = np.asarray(fv, dtype=float)
    table = np.asarray(table, dtype=float)
    interior = list(range(a + 1, b))
    best = -math.inf
    for r in range(len(interior) + 1):
        for chosen in itertools.combinations(interior, r):
            nodes = [a, *chosen, b]
            acc = 0.0
            for x, y in zip(nodes, nodes[1:]):
                acc = acc + (abs(float(fv[y] - fv[x])) - float(table[y - x]))
            if acc > best:
                best = acc
    return best


# Direct loop versions of the mirrored operators, which the library derives
# from its lower-side kernels by negation and reversal.  Each takes the
# sigma or alpha table the library builds, so only the envelope step is
# compared.


def loop_monotone_upper(v, sig) -> np.ndarray:
    """``max over j <= i of v[j] - sig[i-j]``, one row at a time."""
    n = len(v)
    out = np.empty(n)
    for i in range(n):
        out[i] = (v[: i + 1] - sig[i::-1]).max()
    return out


def loop_monotone_bracket(v, sig) -> tuple[np.ndarray, np.ndarray]:
    """Strict one-sided extrema, with the input copied where they are empty."""
    n = len(v)
    lower = np.empty(n)
    upper = np.empty(n)
    lower[0] = v[0]
    upper[n - 1] = v[n - 1]
    for i in range(1, n):
        lower[i] = (v[:i] - sig[i:0:-1]).max()
    for i in range(n - 1):
        upper[i] = (v[i + 1 :] + sig[1 : n - i]).min()
    return lower, upper


def loop_holder_upper(v, alpha) -> np.ndarray:
    """``max over j of v[j] - alpha[|j-i|]``, one row at a time."""
    n = len(v)
    sym = np.concatenate([alpha[:0:-1], alpha])
    out = np.empty(n)
    for i in range(n):
        out[i] = (v - sym[n - 1 - i : 2 * n - 1 - i]).max()
    return out


def loop_holder_lower(v, alpha) -> np.ndarray:
    """``min over j of v[j] + alpha[|j-i|]``, one row at a time."""
    n = len(v)
    out = np.empty(n)
    for i in range(n):
        out[i] = (v + alpha[np.abs(np.arange(n) - i)]).min()
    return out


def loop_holder_upper_grid(v, table) -> np.ndarray:
    """``max over j of v[j] - d(j, i)`` by a max-side label-setting loop:
    settle the open node with the greatest label (first index on ties), then
    lower-bound every node through it with ``table[|u-w|]``."""
    n = len(v)
    lab = np.array(v, dtype=float)
    settled = np.zeros(n, dtype=bool)
    for _ in range(n):
        u = int(np.argmax(np.where(settled, -np.inf, lab)))
        settled[u] = True
        for w in range(n):
            cand = lab[u] - table[abs(w - u)]
            if cand > lab[w]:
                lab[w] = cand
    return lab


@np.errstate(over="ignore")
def loop_max_violation(rows: int, margins, tol: float, first: int = 0):
    """``(row, pos)`` of the largest margin above tol over rows first..rows-1.

    The plain row loop the bounded kernel `scan._max_violation` replaces,
    kept as its oracle: every row ``margins(r)`` is evaluated in order and
    only a strictly larger margin replaces the current best, so ties resolve
    to the first row, then the first position.  A margin of +inf raises
    OverflowError.
    """
    best_margin = tol
    best = None
    for r in range(first, rows):
        row = margins(r)
        pos = int(np.argmax(row))
        m = float(row[pos])
        if m > best_margin:
            if m == math.inf:
                raise OverflowError("violation margin overflows the double range")
            best_margin = m
            best = (r, pos)
    return best


# The five scans without the O(N) certificates or the tile bounds: the
# margins the library forms, row by row, passed to the row loop.


def check_rows(v, table, holder: bool = False):
    """Row k of the monotone (or Hölder) check: its margins at i = 0..n-k-1."""
    n = len(v)
    if holder:
        return lambda k: np.abs(v[: n - k] - v[k:]) - table[k]
    return lambda k: (v[: n - k] - v[k:]) - table[k]


def sandwich_rows(gv, hv, sig):
    """Row k of the monotone sandwich scan."""
    n = len(gv)
    return lambda k: (gv[: n - k] - hv[k:]) - sig[k]


def relative_rows(v, w, n: int):
    """Row j of ``v[j+k] <= v[j] + w[k]``, at k = 0..n-j-1."""
    return lambda j: v[j:n] - v[j] - w[: n - j]


def signed_rows(v, w, n: int):
    """Row j of ``v[|j+k|] <= v[j] + w[|k|]``, at k = -(n-1)..n-1-j."""
    sv, sw = (np.concatenate([x[n - 1 : 0 : -1], x[:n]]) for x in (v, w))
    return lambda j: sv[j : 2 * n - 1] - v[j] - sw[: 2 * n - 1 - j]


@np.errstate(over="ignore")
def largest_margin(rows: int, margins, first: int = 0) -> float:
    """The largest float margin over rows first..rows-1."""
    return max(float(margins(r).max()) for r in range(first, rows))


def scan_check(v, table, tol: float, holder: bool = False):
    """``(passes, witness pair or None)`` of the monotone or Hölder check."""
    best = loop_max_violation(len(v), check_rows(v, table, holder), tol)
    return best is None, None if best is None else (best[1], best[1] + best[0])


def largest_check_margin(v, table, holder: bool = False) -> float:
    """The largest float margin the check's scan forms over all pairs."""
    return largest_margin(len(v), check_rows(v, table, holder))


def scan_sandwich(gv, hv, sig, tol: float):
    """``(feasible, witness pair or None)`` of the monotone sandwich scan."""
    best = loop_max_violation(len(gv), sandwich_rows(gv, hv, sig), tol)
    return best is None, None if best is None else (best[1], best[1] + best[0])


def scan_relative(v, w, n: int, tol: float):
    """``(j, k)`` or None, as `error_envelopes._relative_violation`."""
    return loop_max_violation(n, relative_rows(v, w, n), tol, 1)


def scan_signed(v, w, n: int, tol: float):
    """``(j, k)`` with signed k, or None, as `error_envelopes._signed_violation`."""
    best = loop_max_violation(n, signed_rows(v, w, n), tol)
    return None if best is None else (best[0], best[1] - (n - 1))
