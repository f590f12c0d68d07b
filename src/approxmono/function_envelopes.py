"""Monotone and Hölder envelopes of sampled functions, sandwiches, brackets.

All constructions first replace the supplied error table by its subadditive
(or absolutely subadditive) envelope: the defining formulas are stated with
the envelope, membership classes do not change under the replacement, and it
is what makes the operators idempotent on grids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    DEFAULT_TOL,
    DimensionMismatchError,
    ErrorFn,
    PreconditionError,
    SampledFn,
    Witness,
    WitnessKind,
    check_tolerance,
    is_phi_holder,
    is_phi_monotone,
    offsets_table,
)
from .error_envelopes import (
    absolutely_subadditive_envelope,
    subadditive_envelope,
)


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


def _alpha_table(f: SampledFn, phi: ErrorFn) -> np.ndarray:
    return absolutely_subadditive_envelope(
        ErrorFn(phi.grid_step, offsets_table(f, phi))
    ).values


def _shifted_extremum(v: np.ndarray, alpha: np.ndarray, lower: bool) -> np.ndarray:
    """``min over j of v[j] + alpha[|j-i|]`` for every node i, or with
    ``lower=False`` ``max over j of v[j] - alpha[|j-i|]``.

    Row i of ``alpha[|j-i|]`` is a contiguous slice of the mirrored table.
    """
    n = len(v)
    sym = np.concatenate([alpha[:0:-1], alpha])
    out = np.empty(n)
    for i in range(n):
        row = sym[n - 1 - i : 2 * n - 1 - i]
        out[i] = (v + row).min() if lower else (v - row).max()
    return out


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
    sig = _sigma_table(f, phi)
    v = f.values
    n = len(v)
    out = np.empty(n)
    for i in range(n):
        out[i] = (v[i:] + sig[: n - i]).min()
    return SampledFn(f.grid, out)


def monotone_upper_envelope(f: SampledFn, phi: ErrorFn) -> SampledFn:
    """Smallest function above f that stays monotone within the error table.

    Mirror image of `monotone_lower_envelope`:
    ``out[i] = max over j <= i of f[j] - sigma[i-j]``.
    """
    sig = _sigma_table(f, phi)
    v = f.values
    n = len(v)
    out = np.empty(n)
    for i in range(n):
        out[i] = (v[: i + 1] - sig[i::-1]).max()
    return SampledFn(f.grid, out)


def holder_lower_envelope(f: SampledFn, phi: ErrorFn) -> SampledFn:
    """Largest Hölder-within-phi function below f.

    ``out[i] = min over all j of f[j] + alpha[|j-i|]`` with alpha the
    absolutely subadditive envelope.  Requires the table to vanish at 0.
    """
    _require_zero_at_origin(phi)
    alpha = _alpha_table(f, phi)
    return SampledFn(f.grid, _shifted_extremum(f.values, alpha, lower=True))


def holder_upper_envelope(f: SampledFn, phi: ErrorFn) -> SampledFn:
    """Smallest Hölder-within-phi function above f."""
    _require_zero_at_origin(phi)
    alpha = _alpha_table(f, phi)
    return SampledFn(f.grid, _shifted_extremum(f.values, alpha, lower=False))


def monotone_sandwich(
    g: SampledFn, h: SampledFn, phi: ErrorFn, tol: float = DEFAULT_TOL
) -> tuple[SampledFn | None, Witness | None]:
    """Find a monotone-within-phi function squeezed between g and h.

    Feasible exactly when ``g[i] <= h[j] + sigma[j-i]`` for all i <= j; the
    returned function is the monotone lower envelope of h, which then
    satisfies g <= f <= h (within tol).  On infeasibility the maximal
    violating pair is returned instead.
    """
    check_tolerance(tol)
    if not g.grid.compatible(h.grid):
        raise DimensionMismatchError("sandwich bounds must share one grid")
    _require_zero_at_origin(phi)
    sig = _sigma_table(g, phi)
    gv, hv = g.values, h.values
    n = len(gv)
    best_margin = tol
    best: tuple[int, int] | None = None
    for k in range(n):
        margins = (gv[: n - k] - hv[k:]) - sig[k]
        i = int(np.argmax(margins))
        m = float(margins[i])
        if m > best_margin:
            best_margin = m
            best = (i, i + k)
    if best is not None:
        i, j = best
        lhs = float(gv[i])
        rhs = float(hv[j] + sig[j - i])
        return None, Witness(WitnessKind.SANDWICH, (i, j), lhs, rhs)
    return monotone_lower_envelope(h, phi), None


def holder_sandwich(
    g: SampledFn, h: SampledFn, phi: ErrorFn, tol: float = DEFAULT_TOL
) -> tuple[SampledFn | None, Witness | None]:
    """Hölder analog of `monotone_sandwich`, over all node pairs.

    Feasible exactly when ``g[i] <= h[j] + alpha[|j-i|]`` for every pair,
    that is when g lies below the Hölder lower envelope of h (within tol),
    which is then returned.  On infeasibility the maximal violating pair is
    returned instead.
    """
    check_tolerance(tol)
    if not g.grid.compatible(h.grid):
        raise DimensionMismatchError("sandwich bounds must share one grid")
    _require_zero_at_origin(phi)
    alpha = _alpha_table(h, phi)
    gv, hv = g.values, h.values
    env = _shifted_extremum(hv, alpha, lower=True)
    margins = gv - env
    i = int(np.argmax(margins))
    if float(margins[i]) > tol:
        n = len(hv)
        j = int(np.argmin(hv + alpha[np.abs(np.arange(n) - i)]))
        rhs = float(hv[j] + alpha[abs(j - i)])
        return None, Witness(WitnessKind.SANDWICH, (i, j), float(gv[i]), rhs)
    return SampledFn(h.grid, env), None


def _check_neg_table_monotone(
    phi: ErrorFn, psi: ErrorFn, n: int, tol: float
) -> None:
    """Require phi[j] <= phi[i] + psi[j-i] on positive offsets 1 <= i <= j.

    This is the monotone membership of the negated table against psi, the
    hypothesis under which the monotone bracket halves inherit psi-membership.
    """
    pv = phi.values
    sv = psi.values
    best_margin = tol
    best: tuple[int, int] | None = None
    for i in range(1, n):
        margins = pv[i:n] - pv[i] - sv[: n - i]
        j = int(np.argmax(margins))
        m = float(margins[j])
        if m > best_margin:
            best_margin = m
            best = (i, i + j)
    if best is not None:
        i, j = best
        w = Witness(
            WitnessKind.MONOTONE, (i, j), float(pv[j]), float(pv[i] + sv[j - i])
        )
        raise PreconditionError(
            "negated error table is not monotone within the companion table", w
        )


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
    check on positive offsets.
    """
    check_tolerance(tol)
    offsets_table(f, psi)
    n = f.grid.count
    ok, w = is_phi_monotone(f, phi, tol)
    if not ok:
        raise PreconditionError("function is not monotone within the error table", w)
    _check_neg_table_monotone(phi, psi, n, tol)
    sig = _sigma_table(f, phi)
    v = f.values
    lower = np.empty(n)
    upper = np.empty(n)
    lower[0] = v[0]
    upper[n - 1] = v[n - 1]
    for i in range(1, n):
        lower[i] = (v[:i] - sig[i:0:-1]).max()
    for i in range(n - 1):
        upper[i] = (v[i + 1 :] + sig[1 : n - i]).min()
    return BracketPair(SampledFn(f.grid, lower), SampledFn(f.grid, upper))


def _check_folded_table_holder(
    phi: ErrorFn, psi: ErrorFn, n: int, tol: float
) -> None:
    """Require phi[u] <= phi[v] + min(psi[|v-u|], psi[u+v]) on grid offsets.

    The ``u+v`` alternative only applies while it stays on the table.  This
    is the Hölder membership of the table folded over signed offsets, the
    hypothesis for the Hölder bracket.
    """
    pv = phi.values
    sv = psi.values
    sym = np.concatenate([sv[n - 1 : 0 : -1], sv[:n]])  # row u of psi[|v-u|]
    best_margin = tol
    best: tuple[int, int] | None = None
    for u in range(n):
        bound = sym[n - 1 - u : 2 * n - 1 - u].copy()
        head = n - u  # offsets v with u + v still on the table
        np.minimum(bound[:head], sv[u : u + head], out=bound[:head])
        margins = pv[u] - pv[:n] - bound
        vpos = int(np.argmax(margins))
        m = float(margins[vpos])
        if m > best_margin:
            best_margin = m
            best = (u, vpos)
    if best is not None:
        u, vpos = best
        alt = sv[abs(vpos - u)]
        if u + vpos < n:
            alt = min(alt, sv[u + vpos])
        w = Witness(WitnessKind.HOLDER, (u, vpos), float(pv[u]), float(pv[vpos] + alt))
        raise PreconditionError(
            "error table folded over signed offsets is not Hölder within the "
            "companion table",
            w,
        )


def holder_bracket(
    f: SampledFn, phi: ErrorFn, psi: ErrorFn, tol: float = DEFAULT_TOL
) -> BracketPair:
    """Bracket a Hölder-within-phi function by two psi-Hölder functions.

    ``lower[i] = max over j of f[j] - alpha[|j-i|]`` and
    ``upper[i] = min over j of f[j] + alpha[|j-i|]``; both sup and inf range
    over the whole grid, so no boundary convention is needed.  The returned
    ``gap_bound[i] = 2 * min over j of phi[|j-i|]`` dominates upper - lower
    nodewise.
    """
    check_tolerance(tol)
    offsets_table(f, psi)
    n = f.grid.count
    ok, w = is_phi_holder(f, phi, tol)
    if not ok:
        raise PreconditionError("function is not Hölder within the error table", w)
    _check_folded_table_holder(phi, psi, n, tol)
    alpha = _alpha_table(f, phi)
    v = f.values
    lower = _shifted_extremum(v, alpha, lower=False)
    upper = _shifted_extremum(v, alpha, lower=True)
    # the offsets |j-i| reachable from node i are 0..max(i, n-1-i)
    ar = np.arange(n)
    gap = 2.0 * np.minimum.accumulate(phi.values[:n])[np.maximum(ar, n - 1 - ar)]
    gap.setflags(write=False)
    return BracketPair(SampledFn(f.grid, lower), SampledFn(f.grid, upper), gap)
