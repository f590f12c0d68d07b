"""Monotone and Hölder envelopes of sampled functions, sandwiches, brackets.

The monotone operators and the Hölder bracket replace the error table by its
subadditive (or absolutely subadditive) envelope, which keeps membership and
makes them idempotent on grids.  The Hölder envelopes and sandwich use
``min over j of f[j] + d(j, i)``, with d(j, i) the cheapest path from node j
to node i through grid nodes, paying ``phi[|u-v|]`` per step u -> v.
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
    _max_violation,
    check_tolerance,
    is_phi_holder,
    is_phi_monotone,
    offsets_table,
)
from .error_envelopes import (
    _folded_row,
    _label_setting,
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


def _forward_min(v: np.ndarray, sigma: np.ndarray, skip: int) -> np.ndarray:
    """``min over j >= i + skip of v[j] + sigma[j-i]`` for every node i.

    Nodes whose range is empty (the last ``skip``) keep ``v[i]``.
    """
    n = len(v)
    out = v.copy()
    for i in range(n - skip):
        out[i] = (v[i + skip :] + sigma[skip : n - i]).min()
    return out


def _shifted_extremum(v: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``min over j of v[j] + alpha[|j-i|]`` for every node i.

    Row i of ``alpha[|j-i|]`` is a contiguous slice of the mirrored table.
    """
    n = len(v)
    sym = np.concatenate([alpha[:0:-1], alpha])
    out = np.empty(n)
    for i in range(n):
        out[i] = (v + sym[n - 1 - i : 2 * n - 1 - i]).min()
    return out


def _grid_lower(v: np.ndarray, f: SampledFn, phi: ErrorFn):
    """``min over j of v[j] + d(j, i)`` and its root j for every node i on f's
    grid; row u of the costs ``phi[|w-u|]`` is a mirrored slice of the table."""
    _require_zero_at_origin(phi)
    t = offsets_table(f, phi)
    n = len(t)
    sym = np.concatenate([t[:0:-1], t])
    return _label_setting(v, lambda u: sym[n - 1 - u : 2 * n - 1 - u])


def _neg(x: np.ndarray) -> np.ndarray:
    """``-x`` with zeros as +0.0, so a mirrored result never carries -0.0."""
    return 0.0 - x


def _backward_max(v: np.ndarray, sigma: np.ndarray, skip: int) -> np.ndarray:
    """``max over j <= i - skip of v[j] - sigma[i-j]``: `_forward_min` on the
    reflection ``-v[::-1]``, reflected back.  Negation and reversal are exact,
    so this equals the direct maximum; a zero result is always +0.0."""
    return _neg(_forward_min(_neg(v[::-1]), sigma, skip)[::-1])


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
    return SampledFn(f.grid, _forward_min(f.values, _sigma_table(f, phi), 0))


def monotone_upper_envelope(f: SampledFn, phi: ErrorFn) -> SampledFn:
    """Smallest function above f that stays monotone within the error table.

    Mirror image of `monotone_lower_envelope`:
    ``out[i] = max over j <= i of f[j] - sigma[i-j]``.
    """
    return SampledFn(f.grid, _backward_max(f.values, _sigma_table(f, phi), 0))


def holder_lower_envelope(f: SampledFn, phi: ErrorFn) -> SampledFn:
    """Largest Hölder-within-phi function below f.

    ``out[i] = min over all j of f[j] + d(j, i)``, d the grid path cost of the
    module docstring.  Requires the table to vanish at 0.
    """
    return SampledFn(f.grid, _grid_lower(f.values, f, phi)[0])


def holder_upper_envelope(f: SampledFn, phi: ErrorFn) -> SampledFn:
    """Smallest Hölder-within-phi function above f: the negated lower
    envelope of -f, ``out[i] = max over j of f[j] - d(j, i)``."""
    return SampledFn(f.grid, _neg(_grid_lower(_neg(f.values), f, phi)[0]))


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
    best = _max_violation(n, lambda k: (gv[: n - k] - hv[k:]) - sig[k], tol)
    if best is not None:
        k, i = best
        lhs, rhs = float(gv[i]), float(hv[i + k] + sig[k])
        return None, Witness(WitnessKind.SANDWICH, (i, i + k), lhs, rhs)
    return SampledFn(h.grid, _forward_min(hv, sig, 0)), None


def holder_sandwich(
    g: SampledFn, h: SampledFn, phi: ErrorFn, tol: float = DEFAULT_TOL
) -> tuple[SampledFn | None, Witness | None]:
    """Hölder analog of `monotone_sandwich`, over all node pairs.

    Feasible exactly when ``g[i] <= h[j] + d(j, i)`` for every pair, that is
    when g lies below the Hölder lower envelope of h (within tol), which is
    then returned.  Otherwise the witness is the node i where g exceeds the
    envelope most, paired with the root j of its cheapest path:
    ``lhs = g[i]`` and ``rhs = h[j] + d(j, i)``, the envelope at i.
    """
    check_tolerance(tol)
    if not g.grid.compatible(h.grid):
        raise DimensionMismatchError("sandwich bounds must share one grid")
    env, root = _grid_lower(h.values, h, phi)
    gv = g.values
    best = _max_violation(1, lambda _: gv - env, tol)
    if best is not None:
        i = best[1]
        j = int(root[i])
        return None, Witness(WitnessKind.SANDWICH, (i, j), float(gv[i]), float(env[i]))
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
    best = _max_violation(n, lambda i: pv[i:n] - pv[i] - sv[: n - i], tol, 1)
    if best is not None:
        i, k = best
        lhs, rhs = float(pv[i + k]), float(pv[i] + sv[k])
        w = Witness(WitnessKind.MONOTONE, (i, i + k), lhs, rhs)
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
    lower = _backward_max(f.values, sig, 1)
    upper = _forward_min(f.values, sig, 1)
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
    sv = psi.values[:n]
    best = _max_violation(n, lambda u: pv[u] - pv[:n] - _folded_row(sv, u), tol)
    if best is not None:
        u, vpos = best
        rhs = float(pv[vpos] + _folded_row(sv, u)[vpos])
        w = Witness(WitnessKind.HOLDER, (u, vpos), float(pv[u]), rhs)
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
    cut = ErrorFn(phi.grid_step, offsets_table(f, phi))
    alpha = absolutely_subadditive_envelope(cut).values
    v = f.values
    lower = _neg(_shifted_extremum(_neg(v), alpha))
    upper = _shifted_extremum(v, alpha)
    # the offsets |j-i| reachable from node i are 0..max(i, n-1-i)
    ar = np.arange(n)
    gap = 2.0 * np.minimum.accumulate(phi.values[:n])[np.maximum(ar, n - 1 - ar)]
    gap.setflags(write=False)
    return BracketPair(SampledFn(f.grid, lower), SampledFn(f.grid, upper), gap)
