"""Uniform grids, sampled functions, error tables, and membership checks.

The data model is deliberately small: a `Grid` is an arithmetic progression
of nodes, a `SampledFn` is one real value per node, and an `ErrorFn` tabulates
a nonnegative error allowance per offset multiple of the grid step.  All
types are immutable after construction and every operation is a pure
function, so everything here is safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Literal, Sequence

import numpy as np

from .scan import _diagonal_violation

#: Additive slack used by all inequality checks unless the caller overrides it.
#: Envelope outputs come out of floating-point min/max chains, so exact
#: comparisons would flag harmless last-ulp noise.
DEFAULT_TOL = 1e-9

#: Relative tolerance for deciding that sample spacings agree.
SPACING_RTOL = 1e-9


class GridError(ValueError):
    """Invalid construction parameters for a grid or grid-shaped table."""


class DimensionMismatchError(ValueError):
    """Operands do not live on compatible grids or offset ranges."""


class IngestionError(ValueError):
    """Sample records cannot be interpreted as a uniform grid."""


class ConfigurationError(ValueError):
    """An algorithm configuration value is out of range."""


def check_tolerance(tol: float) -> float:
    """Return ``tol`` if it is a finite number >= 0, else raise.

    Every check compares a margin against ``tol``; NaN or infinity would make
    each comparison pass.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigurationError(f"tolerance must be finite and >= 0, got {tol}")
    return tol


class PreconditionError(ValueError):
    """A mathematical precondition failed.

    When the failure is exhibited by a concrete index pair, the violating
    `Witness` is attached so callers can report it.
    """

    def __init__(self, message: str, witness: "Witness | None" = None):
        super().__init__(message)
        self.witness = witness


class WitnessKind(str, Enum):
    MONOTONE = "monotone-violation"
    HOLDER = "holder-violation"
    SUBADDITIVE = "subadd-violation"
    ABS_SUBADDITIVE = "abs-subadd-violation"
    SANDWICH = "sandwich-violation"


@dataclass(frozen=True)
class Witness:
    """Index tuple exhibiting a failed inequality, with both sides recorded.

    The stored pair always realizes the maximal violation found, so repeated
    runs on identical inputs report the same witness.
    """

    kind: WitnessKind
    indices: tuple[int, ...]
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "indices": list(self.indices),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class Grid:
    """Uniform grid: nodes origin + i*step for 0 <= i < count."""

    origin: float
    step: float
    count: int

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.origin, self.step)):
            raise GridError("grid origin and step must be finite")
        if self.step <= 0:
            raise GridError(f"grid step must be positive, got {self.step}")
        if int(self.count) != self.count or self.count < 2:
            raise GridError(f"grid needs at least 2 nodes, got {self.count}")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "origin", float(self.origin))
        object.__setattr__(self, "step", float(self.step))
        if not math.isfinite(self.node(self.count - 1)):  # inf if the length is
            raise GridError("grid span or last node overflows the double range")

    def node(self, i: int) -> float:
        return self.origin + i * self.step

    def nodes(self) -> np.ndarray:
        return self.origin + self.step * np.arange(self.count)

    @property
    def length(self) -> float:
        """Physical length spanned by the grid."""
        return (self.count - 1) * self.step

    def compatible(self, other: "Grid") -> bool:
        """Same node count, with step and origin equal within the ingest
        spacing tolerance (`steps_compatible`, origin relative to the step)."""
        return (
            self.count == other.count
            and steps_compatible(self.step, other.step)
            and abs(self.origin - other.origin) <= SPACING_RTOL * self.step
        )


def _frozen_values(values, length: int | None, label: str) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise GridError(f"{label} values must be one-dimensional")
    if length is not None and len(vals) != length:
        raise DimensionMismatchError(
            f"{label} has {len(vals)} values but the grid has {length} nodes"
        )
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise GridError(f"{label} value at position {bad} is not finite")
    vals = vals.copy()
    vals.setflags(write=False)
    return vals


@dataclass(frozen=True, eq=False)
class SampledFn:
    """Real function sampled at every node of a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen_values(self.values, self.grid.count, "function")
        )

    def __neg__(self) -> "SampledFn":
        return SampledFn(self.grid, -self.values)

    def window(self, start: int, stop: int) -> "SampledFn":
        """Restriction to node indices start..stop-1 (at least 2 nodes)."""
        if not (0 <= start < stop <= self.grid.count):
            raise ValueError(f"invalid window [{start}, {stop})")
        sub = Grid(self.grid.node(start), self.grid.step, stop - start)
        return SampledFn(sub, self.values[start:stop])


@dataclass(frozen=True, eq=False)
class ErrorFn:
    """Nonnegative error allowance tabulated at offsets 0, h, 2h, ...

    ``values[k]`` is the allowance at physical offset ``k * grid_step``.
    """

    grid_step: float
    values: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.grid_step) and self.grid_step > 0):
            raise GridError(f"error table step must be positive, got {self.grid_step}")
        object.__setattr__(self, "grid_step", float(self.grid_step))
        vals = _frozen_values(self.values, None, "error table")
        if len(vals) < 2:
            raise GridError("error table needs at least 2 offsets")
        if np.any(vals < 0):
            bad = int(np.flatnonzero(vals < 0)[0])
            raise GridError(f"error table value at offset {bad} is negative")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def offsets(self) -> np.ndarray:
        return self.grid_step * np.arange(len(self.values))


def steps_compatible(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SPACING_RTOL, abs_tol=0.0)


def offsets_table(f: SampledFn, phi: ErrorFn) -> np.ndarray:
    """Error values at f's grid offsets 0..N-1, or raise on mismatch.

    A longer table is cut to the grid: offsets beyond the last node never
    separate two nodes, so no envelope may compose through them.
    """
    if not steps_compatible(phi.grid_step, f.grid.step):
        raise DimensionMismatchError(
            f"error table step {phi.grid_step} does not match grid step {f.grid.step}"
        )
    if len(phi.values) < f.grid.count:
        raise DimensionMismatchError(
            f"error table covers {len(phi.values)} offsets, grid needs {f.grid.count}"
        )
    return phi.values[: f.grid.count]


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    """Return x, or raise OverflowError if a value left the double range."""
    if not np.all(np.isfinite(x)):
        raise OverflowError(f"{what} overflows the double range")
    return x


@np.errstate(over="ignore")  # a ramp past the double range fails the test
def _star_shaped(table: np.ndarray) -> bool:
    """True when ``table[k] >= k * table[1]`` for every offset k >= 1."""
    return bool(np.all(table[1:] >= np.arange(1, len(table)) * table[1]))


def _magnitude(x: np.ndarray) -> float:
    """``max |x|`` as a Python float, without an ``abs`` temporary."""
    return max(float(x.max()), -float(x.min()))


def _certified_pass(excess: float, n: int, scale: float, tol: float) -> bool:
    """True only when ``excess + delta <= tol``, where
    ``delta = 2^-50 * n * (scale + tol) + 2^-1070``; False on an excess of
    inf, NaN or -inf (a maximum over no term, or over overflowed ones).

    ``excess`` is a float-computed bound on every exact margin of a check
    over n nodes, and ``scale`` bounds the sum of its operands' magnitudes.
    While ``n * 2^-53 <= 0.01``, delta covers the rounding of excess (a sum
    of n terms) and of every float margin the scan would form, so True means
    the scan finds no margin above tol: ``(True, None)`` is the scan's answer.
    """
    delta = 2.0**-50 * n * (scale + tol) + 2.0**-1070
    return math.isfinite(excess) and bool(excess + delta <= tol)


@np.errstate(over="ignore")  # an overflowing step fails the certificate
def _star_pass(v: np.ndarray, table: np.ndarray, tol: float) -> bool:
    """Certified pass, in O(N), of the monotone check of v against a table
    with ``table[k] >= k * table[1]``.

    With c = table[1] and ``d_m = v[m] - v[m+1]``, the exact margin of a
    pair i < j = i + k is at most the sum of ``d_m - c`` over its k unit
    steps plus ``k*c - table[k]``; the star test bounds the latter by
    rounding.  So every margin is at most ``sum of max(d_m - c, 0)``, which
    goes to `_certified_pass` with scale ``max |v| + max table``.  False
    when the table fails the test.
    """
    if not _star_shaped(table):
        return False
    d = np.diff(v)
    np.negative(d, out=d)
    d -= table[1]
    np.maximum(d, 0.0, out=d)
    scale = _magnitude(v) + float(table.max())
    return _certified_pass(float(d.sum()), len(v), scale, tol)


def _monotone_violation(v: np.ndarray, table: np.ndarray, tol: float):
    """``(k, i)`` of the pair ``(i, i+k)`` where v's monotone check against
    the table fails most, or None: `_star_pass`, then the bounded scan."""
    if _star_pass(v, table, tol):
        return None
    return _diagonal_violation(v, v, table, tol)


def is_phi_monotone(
    f: SampledFn, phi: ErrorFn, tol: float = DEFAULT_TOL
) -> tuple[bool, Witness | None]:
    """Check f[i] <= f[j] + phi[j-i] + tol for all node pairs i <= j.

    Returns ``(True, None)`` on success, otherwise ``(False, witness)`` where
    the witness records the pair with the largest violation.  On a table
    with ``phi[k] >= k * phi[1]`` a pass is certified in O(N) when it can
    be (`_star_pass`); otherwise the pairs are scanned by the bounded kernel
    `scan._max_violation`.
    """
    check_tolerance(tol)
    table = offsets_table(f, phi)
    v = f.values
    best = _monotone_violation(v, table, tol)
    if best is None:
        return True, None
    k, i = best
    lhs, rhs = float(v[i]), float(v[i + k] + table[k])
    return False, Witness(WitnessKind.MONOTONE, (i, i + k), lhs, rhs)


def is_phi_holder(
    f: SampledFn, phi: ErrorFn, tol: float = DEFAULT_TOL
) -> tuple[bool, Witness | None]:
    """Check |f[i] - f[j]| <= phi[|i-j|] + tol for all node pairs.

    f is phi-Hölder when f and -f are both phi-monotone, so this is the
    monotone check run on f and on -f.  Negation is exact, so at each pair
    the larger of the two float margins is ``|f[i] - f[j]| - phi[|i-j|]``.
    The witness is the pair with the largest violation on either side (the
    smaller ``(j - i, i)`` on a tie), with ``lhs = |f[i] - f[j]|``.
    """
    check_tolerance(tol)
    table = offsets_table(f, phi)
    found = []
    for v in (f.values, 0.0 - f.values):
        best = _monotone_violation(v, table, tol)
        if best is not None:
            k, i = best
            margin = float((v[i] - v[i + k]) - table[k])
            found.append((-margin, k, i))
            # the other side changes the witness only if it reaches this margin
            tol = math.nextafter(margin, -math.inf)
    if not found:
        return True, None
    _, k, i = min(found)
    v = f.values
    lhs, rhs = float(abs(v[i] - v[i + k])), float(table[k])
    return False, Witness(WitnessKind.HOLDER, (i, i + k), lhs, rhs)


def _shared_grid(fns: Sequence[SampledFn]) -> Grid:
    """The grid of the first function, which every other must be compatible with."""
    grid = fns[0].grid
    if not all(f.grid.compatible(grid) for f in fns):
        raise DimensionMismatchError("all functions must share one grid")
    return grid


def cone_combine(
    coeffs: Sequence[float],
    fns: Sequence[SampledFn],
    errs: Sequence[ErrorFn],
    mode: Literal["monotone", "holder"],
) -> tuple[SampledFn, ErrorFn]:
    """Combine (f_i, phi_i) pairs linearly, producing a pair of the same kind.

    In ``monotone`` mode the coefficients must be nonnegative and the output
    error table is ``sum(a_i * phi_i)``; in ``holder`` mode arbitrary signs
    are allowed and the table is ``sum(|a_i| * phi_i)``.  If every input pair
    passes the corresponding membership check, so does the output pair.
    Raises OverflowError when either sum leaves the double range.
    """
    if mode not in ("monotone", "holder"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (len(coeffs) == len(fns) == len(errs)) or not fns:
        raise ValueError("coeffs, fns and errs must be nonempty and equally long")
    grid = _shared_grid(fns)
    if not all(math.isfinite(c) for c in coeffs):
        raise ValueError("coefficients must be finite")
    if mode == "monotone" and any(c < 0 for c in coeffs):
        raise ValueError("monotone mode requires nonnegative coefficients")
    n = grid.count
    fvals = np.zeros(n)
    evals = np.zeros(n)
    # a sum past the double range is inf (or inf - inf): _finite raises
    with np.errstate(over="ignore", invalid="ignore"):
        for c, f, e in zip(coeffs, fns, errs):
            table = offsets_table(f, e)
            fvals += c * f.values
            evals += (c if mode == "monotone" else abs(c)) * table
    fvals = _finite(fvals, "combined function")
    evals = _finite(evals, "combined error table")
    return SampledFn(grid, fvals), ErrorFn(grid.step, evals)


def pointwise_extrema(
    fns: Sequence[SampledFn], which: Literal["sup", "inf"]
) -> SampledFn:
    """Nodewise maximum (``sup``) or minimum (``inf``) of a finite family.

    Membership in the monotone or Hölder class with a shared error table is
    preserved by both operations.
    """
    if which not in ("sup", "inf"):
        raise ValueError(f"unknown extremum {which!r}")
    if not fns:
        raise ValueError("need at least one function")
    grid = _shared_grid(fns)
    stacked = np.vstack([f.values for f in fns])
    out = stacked.max(axis=0) if which == "sup" else stacked.min(axis=0)
    return SampledFn(grid, out)


def ingest_samples(records: Iterable[tuple[float, float]]) -> SampledFn:
    """Build a SampledFn from (t, value) records on a uniform time grid.

    Requires at least two records with strictly increasing, uniformly spaced
    abscissas (relative spacing tolerance 1e-9) whose span stays in the double
    range, and finite values.  The grid step is the median spacing; nonuniform
    input is rejected rather than resampled.
    """
    recs = [(float(t), float(v)) for t, v in records]
    if len(recs) < 2:
        raise IngestionError(f"need at least 2 records, got {len(recs)}")
    ts, vs = np.array(recs).T
    bad = np.flatnonzero(~(np.isfinite(ts) & np.isfinite(vs)))
    if len(bad):
        raise IngestionError(f"record {bad[0]}: non-finite entry {recs[bad[0]]}")
    with np.errstate(over="ignore"):
        diffs = np.diff(ts)
        spans = ts - ts[0]
    bad = np.flatnonzero(diffs <= 0)
    if len(bad):
        i = int(bad[0])
        word = "duplicate" if diffs[i] == 0 else "decreasing"
        raise IngestionError(f"record {i + 1}: {word} abscissa {ts[i + 1]}")
    # past this point no spacing, step or node overflows
    bad = np.flatnonzero(spans == math.inf)
    if len(bad):
        raise IngestionError(
            f"record {bad[0]}: distance from the first abscissa overflows the double range"
        )
    step = float(np.median(diffs))
    bad = np.flatnonzero(np.abs(diffs - step) > SPACING_RTOL * step)
    if len(bad):
        i = int(bad[0])
        raise IngestionError(
            f"record {i + 1}: spacing {diffs[i]} deviates from inferred step {step}"
        )
    return SampledFn(Grid(float(ts[0]), step, len(recs)), vs)
