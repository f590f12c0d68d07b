"""Algebra of error tables: subadditivity checks and minorant envelopes.

Two envelopes are computed for a tabulated error function.  The subadditive
envelope is the largest subadditive table below the input; on a grid it is
the minimum of the table summed over all compositions of each offset into
positive parts, which a quadratic min-plus recurrence computes exactly.  The
absolutely subadditive envelope additionally allows signed parts, which turns
the minimization into a nonnegative-cost shortest-path problem on the integer
lattice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    DEFAULT_TOL,
    ErrorFn,
    Witness,
    WitnessKind,
    _certified_pass,
    _magnitude,
    _star_shaped,
    check_tolerance,
)
from .scan import _shifted_violation


@dataclass(frozen=True)
class PowerErrorSpec:
    """Parameters of the power-law error table eps * u**p (zero at u = 0)."""

    epsilon: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not math.isfinite(self.p):
            raise ValueError(f"exponent must be finite, got {self.p}")


def power_error(spec: PowerErrorSpec, step: float, count: int) -> ErrorFn:
    """Tabulate eps * (k*step)**p at offsets k = 0..count-1, zero at k = 0."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive, got {step}")
    if count < 2:
        raise ValueError(f"need at least 2 offsets, got {count}")
    vals = np.zeros(count)
    if spec.epsilon > 0:
        u = step * np.arange(1, count)
        with np.errstate(over="ignore", invalid="ignore"):
            vals[1:] = spec.epsilon * u**spec.p
    if not np.all(np.isfinite(vals)):
        raise OverflowError("power error table overflows the double range")
    return ErrorFn(step, vals)


@np.errstate(over="ignore", invalid="ignore")  # inf or NaN fails the certificate
def _last_window_excess(x: np.ndarray, w: np.ndarray, k0: int) -> float:
    """``max over k >= k0 of (x[-1] - x[-1-k] - w[k])``, plus ``sum(U - D)``
    for the steps D of x and their prefix maximum U; -inf when no k is left."""
    d = np.diff(x)
    first = x[-1] - x[::-1]
    first -= w[: len(x)]
    top = np.maximum.accumulate(d)
    top -= d
    return float(first[k0:].max(initial=-np.inf)) + float(top.sum())


def _window_pass(v: np.ndarray, w: np.ndarray, n: int, tol: float) -> bool:
    """Certified pass, in O(N), of the scan of `_relative_violation`: True
    only when it finds no margin above tol.  Tries the convex form, then the
    concave one.

    Convex form.  Let ``x = v[1:n]`` (M = n - 1 entries) and
    ``D[m] = x[m+1] - x[m]``.  The exact margin of (j, k) is the sum of D
    over the window of k steps from j - 1, minus w[k].  U, the prefix
    maximum of D, is nondecreasing, so that sum is at most the sum of U over
    the window, at most the sum of U over the last window of k steps, which
    is ``x[M-1] - x[M-1-k]`` plus the sum of ``U - D >= 0`` over it.  So
    every margin is at most ``max_k (x[M-1] - x[M-1-k] - w[k]) + sum(U - D)``,
    exactly the largest margin when D is nondecreasing (a convex table).

    Rounding, with u = 2^-53, X = max |x| and W = max |w[:M]|: run the
    argument on the float steps D', each within 2uX of D (a subnormal
    difference is exact), which moves the bound by 4kuX, k <= n - 2.  The
    float first term errs by at most u(4X + W) per k, the terms fl(U' - D')
    and their sum S' by a factor 1 + 1.02nu, the final sum by u|excess|.
    The k = 0 term is -w[0] >= -W, so a passing excess has S' <= (1 + 2u)
    (tol + W).  The scan's float margin exceeds the exact one by at most
    u(4X + W).
    Altogether the slack is below 8nu(tol + X + W), the delta of
    `_certified_pass` with scale X + W.  Overflow: an infinite D' makes
    some U' - D' inf or NaN, and so the excess; a first term of -inf
    stands for an exact one below -W, which the k = 0 term covers.

    Concave form: the convex form on the reflection ``y = -x[::-1]``, whose
    margins ``y[i+k] - y[i] - w[k]`` are those of x (i -> M-1-i-k), and
    whose float steps are those of x, reversed.  So U becomes the suffix
    maximum of D, and the last window the first: every margin is at most
    ``max_k (x[k] - x[0] - w[k]) + sum(L - D)``, L the suffix maximum,
    exactly the largest margin when D is nonincreasing (a concave table).
    The k = 0 term is left out: its margin ``(v[j] - v[j]) - w[0] = -w[0]``
    is exact and at most 0 <= tol, and with it the excess of a table
    vanishing at 0 would be at least 0, so it could never pass at tol = 0.
    Without it, S' is bounded by the k = 1 term instead, at least
    -(2X + W)(1 + 2u): a passing excess has S' <= (1 + 4u)(tol + 2X + W)
    and |excess| <= tol + 2X + W up to rounding, which adds at most about
    3.1nuX to the slack, still below 8nu(tol + X + W).  With no k >= 1
    (n = 2), or every first term -inf, the excess is -inf and
    `_certified_pass` declines it; a single term of -inf stands for an
    exact one below every finite term.
    """
    x = v[1:n]
    scale = _magnitude(x) + _magnitude(w[: n - 1])
    return _certified_pass(
        _last_window_excess(x, w, 0), n, scale, tol
    ) or _certified_pass(_last_window_excess(-x[::-1], w, 1), n, scale, tol)


def _relative_violation(v: np.ndarray, w: np.ndarray, n: int, tol: float):
    """``(j, k)`` of the largest margin above tol of ``v[j+k] <= v[j] + w[k]``
    over ``1 <= j`` and ``j + k < n``, or None.  A pass that `_window_pass`
    certifies scans no pair."""
    if _window_pass(v, w, n, tol):
        return None
    best = _shifted_violation(v[1:n], v[1:n], w[:n], tol)
    return None if best is None else (best[0] + 1, best[1])


def _signed_violation(v: np.ndarray, w: np.ndarray, n: int, tol: float):
    """``(j, k)`` of the largest margin above tol of ``v[|j+k|] <= v[j] + w[|k|]``
    over ``0 <= j < n`` and signed k with ``|k|, |j+k| < n``, or None."""
    # sym[n-1+k] = x[|k|] for x = v, w, so for k = -(n-1)..n-1-j the terms
    # v[|j+k|] and w[|k|] are contiguous slices
    sv, sw = (np.concatenate([x[n - 1 : 0 : -1], x[:n]]) for x in (v, w))
    best = _shifted_violation(sv, v[:n], sw, tol)
    return None if best is None else (best[0], best[1] - (n - 1))


def _nondecreasing_pass(v: np.ndarray, tol: float) -> bool:
    """True when the table is nondecreasing and `_window_pass` certifies its
    subadditivity check at tol."""
    return bool(np.all(v[1:] >= v[:-1])) and _window_pass(v, v, len(v), tol)


def is_subadditive(
    phi: ErrorFn, tol: float = DEFAULT_TOL
) -> tuple[bool, Witness | None]:
    """Check phi[j+k] <= phi[j] + phi[k] + tol for all j, k >= 0, j+k < N.

    A pass is certified in O(N) when it can be (`_window_pass`: on a
    convex table, as a linear one, with tol above its rounding allowance,
    about ``2^-50 * N * (2 * max phi + tol)``, and on a strictly concave
    one vanishing at 0 even at tol = 0); otherwise the pairs are scanned by
    the bounded kernel, and a failure reports the largest margin.
    """
    check_tolerance(tol)
    v = phi.values
    best = _relative_violation(v, v, len(v), tol)  # j = 0 cannot fail: phi[0] >= 0
    if best is None:
        return True, None
    j, k = best
    lhs, rhs = float(v[j + k]), float(v[j] + v[k])
    return False, Witness(WitnessKind.SUBADDITIVE, (j, k), lhs, rhs)


def is_absolutely_subadditive(
    phi: ErrorFn, tol: float = DEFAULT_TOL
) -> tuple[bool, Witness | None]:
    """Check phi[|j+k|] <= phi[|j|] + phi[|k|] + tol over signed offsets.

    Signed index pairs with |j|, |k|, |j+k| all below the table length are
    examined; by the (j, k) -> (-j, -k) symmetry only j >= 0 is scanned.
    On a nondecreasing table a pass is certified in O(N) when
    `_window_pass` certifies the subadditivity check at tol: every other
    float margin, ``fl(v[|j+k|] - v[j]) - v[|k|]`` with j = 0 or k < 0, is
    at most 0, since then ``v[|j+k|]`` is at most ``v[|k|]`` (j = 0, or
    j + k < 0) or at most ``v[j]`` (0 <= j + k < j), and both subtrahends
    are >= 0.  A failure, or a pass the certificate declines, is scanned.
    """
    check_tolerance(tol)
    v = phi.values
    if _nondecreasing_pass(v, tol):
        return True, None
    best = _signed_violation(v, v, len(v), tol)
    if best is None:
        return True, None
    j, k = best
    lhs, rhs = float(v[abs(j + k)]), float(v[j] + v[abs(k)])
    return False, Witness(WitnessKind.ABS_SUBADDITIVE, (j, k), lhs, rhs)


@np.errstate(over="ignore")  # an inf sum never undercuts env[k]
def _sigma_loop(v: np.ndarray) -> np.ndarray:
    """The quadratic min-plus recurrence of `subadditive_envelope`."""
    env = v.astype(float)
    for k in range(2, len(v)):
        # split off a last part of size k-j from an optimally composed prefix
        m = (env[1:k] + v[k - 1 : 0 : -1]).min()
        if m < env[k]:
            env[k] = m
    return env


def subadditive_envelope(phi: ErrorFn) -> ErrorFn:
    """Largest subadditive minorant of the table.

    ``out[k]`` is the cheapest way to write offset k as a sum of positive
    offsets, paying the table value for each part; ``out[0]`` equals the
    input at 0.  The output is subadditive, dominated by the input, and the
    map is idempotent and monotone in its argument.  When every
    ``phi[k] >= k * phi[1]``, as for convex tables vanishing at 0, unit parts
    are cheapest: ``out[k] = k * phi[1]``, in O(N).  Otherwise, when
    `_window_pass` certifies the table subadditive at tol = 0, as a strictly
    concave table vanishing at 0, the output is the table itself, in O(N): every
    exact ``phi[j] + phi[k-j]`` is at least ``phi[k]``, and rounding is
    monotone, so the recurrence never lowers an entry.
    """
    v = phi.values
    if _star_shaped(v):
        return ErrorFn(
            phi.grid_step, np.concatenate([v[:1], np.arange(1, len(v)) * v[1]])
        )
    if _window_pass(v, v, len(v), 0.0):
        return ErrorFn(phi.grid_step, v.astype(float))
    return ErrorFn(phi.grid_step, _sigma_loop(v))


@np.errstate(over="ignore")  # an inf candidate never undercuts a label
def _label_setting(
    labels: np.ndarray, row: Callable[[int], np.ndarray], cmin: float
):
    """Shortest paths over N nodes from starting labels, by dense label setting.

    ``row(u)[v] >= 0`` is the cost of the edge u -> v, and ``cmin`` is at
    most every cost with v != u.  Each round settles the open node with the
    least label (first index on ties) and relaxes every node through it.
    Returns the labels and, per node, the root whose starting label its path
    leaves from.

    The rounds stop before settling u once ``max(lab) <= fl(L + cmin)``, L
    the least open label, with the bits of the full N rounds.  Every open
    label is at least L, and a candidate ``fl(L' + c)`` with c >= 0 is at
    least L', so every later source has a label of at least L.  Rounding is
    monotone, so a later candidate for another node is at least
    ``fl(L + cmin)``, hence at least that node's label; a self-edge gives at
    least the source's own label.  No later candidate is strictly smaller,
    and only a strictly smaller one changes a label or a root.  When L is
    inf, every open label is inf and the test holds, as it should.  Labels
    only fall, so ``max(lab)`` is taken again only after a round lowers one.
    """
    lab = np.array(labels, dtype=float)
    root = np.arange(len(lab))
    open_lab = lab.copy()  # settled nodes read +inf
    top = lab.max()
    for _ in range(len(lab)):
        u = int(np.argmin(open_lab))
        if top <= open_lab[u] + cmin:
            break
        open_lab[u] = np.inf
        cand = lab[u] + row(u)
        better = cand < lab
        if better.any():
            np.copyto(lab, cand, where=better)
            np.copyto(open_lab, cand, where=better)
            np.copyto(root, root[u], where=better)
            top = lab.max()
    return lab, root


@np.errstate(over="ignore")  # an inf cycle never undercuts phi[0]
def absolutely_subadditive_envelope(phi: ErrorFn) -> ErrorFn:
    """Largest absolutely subadditive minorant of the table.

    ``out[k]`` is the cheapest multiset of signed offsets summing to k, each
    offset below the table length N in magnitude, paying the table value of
    the magnitude for every part.  Computed as a shortest path from 0 on the
    integer lattice {-(N-1)..N-1}, folded onto 0..N-1 by its symmetry
    x -> -x; that is exact, because any multiset can be reordered so its
    running sums stay within the largest offset.

    The output is dominated by `subadditive_envelope` pointwise.  On a
    nondecreasing input the two are equal in exact arithmetic; in floats
    they differ by at most ``N * 2^-52 * max phi``, and both equal the
    input when `_window_pass` certifies it subadditive at tol = 0 (alpha
    reads +0.0 for a -0.0 past offset 0).

    That last case is computed in O(N).  Label setting settles node 0
    first, which sets every other label to ``0.0 + v[w]``, and lowers none
    after it: a step u -> w from u >= 1 costs ``v[|w-u|]`` or ``v[u+w]``,
    and ``v[u] + cost >= v[w]`` exactly, by subadditivity for w > u and by
    monotonicity and v >= 0 otherwise, so by monotone rounding no float
    candidate is below v[w], nor below the label 0 of node 0.
    """
    v = phi.values
    n = len(v)
    if _nondecreasing_pass(v, 0.0):
        out = v + 0.0  # the first relaxation, -0.0 entries included
    else:
        m = n - 1
        # the folded step u -> w costs min(v[|w-u|], v[u+w]), the second term
        # while u+w stays on the table: sym[m+k] is v[|k|], or inf for k > m
        sym = np.concatenate([v[:0:-1], v, np.full(m, np.inf)])
        start = np.concatenate([[0.0], np.full(m, np.inf)])
        # a step u -> w != u pays v at an offset |w-u| or u+w, both nonzero
        out, _ = _label_setting(
            start,
            lambda u: np.minimum(sym[m - u : m - u + n], sym[m + u : m + u + n]),
            float(v[1:].min()),
        )
    # offset 0 needs at least one part: either the literal 0-offset entry or
    # a closing step back from a reachable node
    cycle = float((out[1:] + v[1:]).min())
    out[0] = min(float(v[0]), cycle)
    return ErrorFn(phi.grid_step, out)
