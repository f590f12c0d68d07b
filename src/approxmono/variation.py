"""Tolerance-discounted variation and the two-monotone-halves decomposition.

The variation of a partition sums |increment| minus the error allowance of
each subinterval; the total variation maximizes that over all partitions of
grid nodes, computed exactly by a quadratic dynamic program.  It may well be
negative, and whether it stays nonpositive on every subrange characterizes
the Hölder property.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    DEFAULT_TOL,
    DimensionMismatchError,
    ErrorFn,
    Grid,
    PreconditionError,
    SampledFn,
    _finite,
    _star_shaped,
    check_tolerance,
    is_phi_monotone,
    offsets_table,
)


@dataclass(frozen=True)
class Partition:
    """Strictly increasing grid indices from a segment start to its end."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) < 2:
            raise ValueError("partition needs at least 2 indices")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"partition indices must strictly increase: {idx}")
        if idx[0] < 0:
            raise ValueError("partition indices must be nonnegative")
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True, eq=False)
class VariationTable:
    """Prefix values of the total variation from a fixed start node.

    ``prefix[i - start_index]`` is the total variation on the node range
    [start_index, i]; the entry at the start itself is 0.
    """

    grid: Grid
    start_index: int
    prefix: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.prefix, dtype=float).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "prefix", vals)

    def value(self, index: int) -> float:
        off = index - self.start_index
        if not (0 <= off < len(self.prefix)):
            raise ValueError(f"index {index} outside the tabulated range")
        return float(self.prefix[off])

    @property
    def total(self) -> float:
        return float(self.prefix[-1])


@dataclass(frozen=True, eq=False)
class JordanPair:
    """Decomposition f = g - h with both halves monotone within the table."""

    g: SampledFn
    h: SampledFn


def phi_variation(f: SampledFn, partition: Partition, phi: ErrorFn) -> float:
    """Sum of |f increment| - phi over the partition's subintervals."""
    table = offsets_table(f, phi)
    idx = partition.indices
    if idx[-1] >= f.grid.count:
        raise ValueError(f"partition index {idx[-1]} outside the grid")
    v = f.values
    acc = 0.0
    for a, b in zip(idx, idx[1:]):
        acc = acc + (abs(float(v[b] - v[a])) - float(table[b - a]))
    return acc


@np.errstate(over="ignore")
def _variation_loop(seg: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The quadratic dynamic program of `total_phi_variation`."""
    prefix = np.zeros(len(seg))
    for i in range(1, len(seg)):
        prefix[i] = (prefix[:i] + (np.abs(seg[i] - seg[:i]) - table[i:0:-1])).max()
    return prefix


def total_phi_variation(
    f: SampledFn, phi: ErrorFn, start: int = 0, end: int | None = None
) -> VariationTable:
    """Maximal variation over all node partitions, for every prefix range.

    Dynamic program over the last partition node:
    ``V[i] = max over start <= j < i of V[j] + |f[i] - f[j]| - phi[i-j]``,
    which matches exhaustive enumeration over partitions exactly.  When every
    ``phi[k] >= k * phi[1]`` unit steps are optimal: V is the running sum of
    ``|f[i] - f[i-1]| - phi[1]``, in O(N).  Raises OverflowError when a
    prefix value leaves the double range.
    """
    table = offsets_table(f, phi)
    n = f.grid.count
    if end is None:
        end = n - 1
    if not (0 <= start < end <= n - 1):
        raise ValueError(f"invalid range [{start}, {end}] on a grid of {n} nodes")
    seg = f.values[start : end + 1]
    if _star_shaped(table):
        with np.errstate(over="ignore"):
            prefix = np.cumsum(np.concatenate([[0.0], np.abs(np.diff(seg)) - table[1]]))
    else:
        prefix = _variation_loop(seg, table)
    return VariationTable(f.grid, start, _finite(prefix, "total variation"))


def is_holder_via_variation(
    f: SampledFn, phi: ErrorFn, tol: float = DEFAULT_TOL
) -> bool:
    """True when the total variation stays below tol on every node range.

    Agrees with the direct pairwise Hölder check; cubic in the node count
    (quadratic when every ``phi[k] >= k * phi[1]``), so meant for verification.
    """
    check_tolerance(tol)
    n = f.grid.count
    for start in range(n - 1):
        prefix = total_phi_variation(f, phi, start, n - 1).prefix
        if float(prefix[1:].max()) > tol:
            return False
    return True


def jordan_decompose(f: SampledFn, phi: ErrorFn, anchor: int = 0) -> JordanPair:
    """Split f into monotone-within-phi halves from an anchor node rightward.

    With V the total variation table of f for the doubled error allowance,
    ``g = (V + f) / 2`` and ``h = (V - f) / 2`` on indices >= anchor; then
    g - h = f and both halves pass the monotone check against phi.  Nothing
    is produced left of the anchor.  A sum that leaves the double range
    raises OverflowError.
    """
    n = f.grid.count
    if not (0 <= anchor <= n - 2):
        raise ValueError(f"anchor {anchor} needs at least one node to its right")
    with np.errstate(over="ignore"):
        doubled = ErrorFn(phi.grid_step, _finite(2.0 * phi.values, "doubled table"))
    prefix = total_phi_variation(f, doubled, anchor, n - 1).prefix
    seg = f.values[anchor:]
    with np.errstate(over="ignore"):
        g = _finite(0.5 * (prefix + seg), "Jordan half")
        h = _finite(0.5 * (prefix - seg), "Jordan half")
    sub = Grid(f.grid.node(anchor), f.grid.step, n - anchor)
    return JordanPair(SampledFn(sub, g), SampledFn(sub, h))


def delta_variation_bound(
    gq: SampledFn,
    hq: SampledFn,
    phi: ErrorFn,
    psi: ErrorFn,
    tol: float = DEFAULT_TOL,
) -> tuple[float, float]:
    """Total variation of gq - hq for the doubled max table, with its bound.

    Requires gq monotone within phi and hq within psi (rejected with the
    violating witness otherwise).  Returns ``(V, B)`` where V is the total
    variation of the difference for the table ``2*max(phi, psi)`` over the
    full grid and ``B = gq[-1] - gq[0] + hq[-1] - hq[0]``; V <= B holds up
    to check tolerances.
    """
    check_tolerance(tol)
    if not gq.grid.compatible(hq.grid):
        raise DimensionMismatchError("both functions must share one grid")
    ok, w = is_phi_monotone(gq, phi, tol)
    if not ok:
        raise PreconditionError("first function fails its monotone check", w)
    ok, w = is_phi_monotone(hq, psi, tol)
    if not ok:
        raise PreconditionError("second function fails its monotone check", w)
    n = gq.grid.count
    ptab = offsets_table(gq, phi)
    stab = offsets_table(hq, psi)
    with np.errstate(over="ignore"):
        doubled = _finite(2.0 * np.maximum(ptab, stab), "doubled table")
        diff = SampledFn(gq.grid, _finite(gq.values - hq.values, "difference"))
    combined = ErrorFn(gq.grid.step, doubled)
    total = total_phi_variation(diff, combined, 0, n - 1).total
    bound = float(gq.values[-1] - gq.values[0] + hq.values[-1] - hq.values[0])
    return total, bound
