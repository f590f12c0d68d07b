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

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    DEFAULT_TOL,
    ErrorFn,
    Witness,
    WitnessKind,
    _max_violation,
    _star_shaped,
    check_tolerance,
)


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


def is_subadditive(
    phi: ErrorFn, tol: float = DEFAULT_TOL
) -> tuple[bool, Witness | None]:
    """Check phi[j+k] <= phi[j] + phi[k] + tol for all j, k >= 0, j+k < N."""
    check_tolerance(tol)
    v = phi.values
    n = len(v)
    best = _max_violation(n, lambda j: v[j:] - v[j] - v[: n - j], tol)
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
    n = len(v)
    # sym[n-1+k] = v[|k|], so for k = -(n-1)..n-1-j the terms v[|j+k|] and
    # v[|k|] are contiguous slices
    sym = np.concatenate([v[:0:-1], v])
    best = _max_violation(
        n, lambda j: sym[j : 2 * n - 1] - v[j] - sym[: 2 * n - 1 - j], tol
    )
    if best is None:
        return True, None
    j, k = best[0], best[1] - (n - 1)
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


def _lattice_shortest_paths(costs: np.ndarray) -> np.ndarray:
    """Distances from 0 on the lattice {-(N-1)..N-1} with edges +-j of cost[j].

    N is the table length.  The lattice is symmetric under x -> -x, so the
    search runs on its fold onto 0..N-1, where u reaches v at cost
    ``min(cost[|v-u|], cost[u+v])`` (the second term while u+v <= N-1).
    Label-setting over nonnegative costs; zero-cost edges are fine.  Heap
    entries are (distance, node) so ties settle by node index, making the
    computation deterministic.
    """
    n = len(costs)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    heap: list[tuple[float, int]] = [(0.0, 0)]
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
    return dist


def absolutely_subadditive_envelope(phi: ErrorFn) -> ErrorFn:
    """Largest absolutely subadditive minorant of the table.

    ``out[k]`` is the cheapest multiset of signed offsets summing to k, each
    offset below the table length N in magnitude, paying the table value of
    the magnitude for every part.  Computed as a shortest path on the integer
    lattice {-(N-1)..N-1}; that is exact, because any multiset can be
    reordered so its running sums stay within the largest offset.

    The output is dominated by `subadditive_envelope` pointwise, and the two
    coincide whenever the input is nondecreasing.
    """
    v = phi.values
    out = _lattice_shortest_paths(v)
    # offset 0 needs at least one part: either the literal 0-offset entry or
    # a closing step back from a reachable node
    cycle = float((out[1:] + v[1:]).min())
    out[0] = min(float(v[0]), cycle)
    return ErrorFn(phi.grid_step, out)
