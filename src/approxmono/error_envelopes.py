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


def _relative_violation(v: np.ndarray, w: np.ndarray, n: int, tol: float):
    """``(j, k)`` of the largest margin above tol of ``v[j+k] <= v[j] + w[k]``
    over ``1 <= j`` and ``j + k < n``, or None."""
    return _shifted_violation(v[:n], v[:n], w[:n], tol, first=1)


def _signed_violation(v: np.ndarray, w: np.ndarray, n: int, tol: float):
    """``(j, k)`` of the largest margin above tol of ``v[|j+k|] <= v[j] + w[|k|]``
    over ``0 <= j < n`` and signed k with ``|k|, |j+k| < n``, or None."""
    # sym[n-1+k] = x[|k|] for x = v, w, so for k = -(n-1)..n-1-j the terms
    # v[|j+k|] and w[|k|] are contiguous slices
    sv, sw = (np.concatenate([x[n - 1 : 0 : -1], x[:n]]) for x in (v, w))
    best = _shifted_violation(sv, v[:n], sw, tol)
    return None if best is None else (best[0], best[1] - (n - 1))


def is_subadditive(
    phi: ErrorFn, tol: float = DEFAULT_TOL
) -> tuple[bool, Witness | None]:
    """Check phi[j+k] <= phi[j] + phi[k] + tol for all j, k >= 0, j+k < N."""
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
    """
    check_tolerance(tol)
    v = phi.values
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
    are cheapest: ``out[k] = k * phi[1]``, in O(N).
    """
    v = phi.values
    if not _star_shaped(v):
        return ErrorFn(phi.grid_step, _sigma_loop(v))
    return ErrorFn(phi.grid_step, np.concatenate([v[:1], np.arange(1, len(v)) * v[1]]))


@np.errstate(over="ignore")  # an inf candidate never undercuts a label
def _label_setting(labels: np.ndarray, row: Callable[[int], np.ndarray]):
    """Shortest paths over N nodes from starting labels, by dense label setting.

    ``row(u)[v] >= 0`` is the cost of the edge u -> v.  Each round settles the
    open node with the least label (first index on ties) and relaxes every
    node through it.  Returns the labels and, per node, the root whose
    starting label its path leaves from.
    """
    lab = np.array(labels, dtype=float)
    root = np.arange(len(lab))
    open_lab = lab.copy()  # settled nodes read +inf
    for _ in range(len(lab)):
        u = int(np.argmin(open_lab))
        open_lab[u] = np.inf
        cand = lab[u] + row(u)
        better = cand < lab
        if better.any():
            np.copyto(lab, cand, where=better)
            np.copyto(open_lab, cand, where=better)
            np.copyto(root, root[u], where=better)
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

    The output is dominated by `subadditive_envelope` pointwise, and the two
    coincide whenever the input is nondecreasing.
    """
    v = phi.values
    n = len(v)
    m = n - 1
    # the folded step u -> w costs min(v[|w-u|], v[u+w]), the second term
    # while u+w stays on the table: sym[m+k] is v[|k|], or inf for k > m
    sym = np.concatenate([v[:0:-1], v, np.full(m, np.inf)])
    start = np.concatenate([[0.0], np.full(m, np.inf)])
    out, _ = _label_setting(
        start, lambda u: np.minimum(sym[m - u : m - u + n], sym[m + u : m + u + n])
    )
    # offset 0 needs at least one part: either the literal 0-offset entry or
    # a closing step back from a reachable node
    cycle = float((out[1:] + v[1:]).min())
    out[0] = min(float(v[0]), cycle)
    return ErrorFn(phi.grid_step, out)
