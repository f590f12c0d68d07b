"""Monotone and Hölder envelopes of sampled functions, sandwiches, brackets.

The monotone operators and the Hölder bracket replace the error table by its
subadditive (or absolutely subadditive) envelope, which keeps membership and
makes them idempotent on grids.  The Hölder envelopes and sandwich use
``min over j of f[j] + d(j, i)``, with d(j, i) the cheapest path from node j
to node i through grid nodes, paying ``phi[|u-v|]`` per step u -> v.
The brackets check their table hypotheses with the subadditivity scans of
`error_envelopes`, the companion table psi on the right; no table is scanned here.
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
    _relative_violation,
    _signed_violation,
    absolutely_subadditive_envelope,
    subadditive_envelope,
)
from .scan import _diagonal_violation, _shifted_violation


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
#: quadratic loop (exact near-ties such as ``f[j] = -j * sigma[1]``).
_CANDIDATES_PER_NODE = 8


def _forward_min(v: np.ndarray, sigma: np.ndarray, skip: int) -> np.ndarray:
    """``min over j >= i + skip of v[j] + sigma[j-i]`` for every node i.

    Nodes whose range is empty (the last ``skip``) keep ``v[i]``.  Linear
    sigma takes the O(N) `_forward_linear`, everything else the loop; both
    give the same bits.  A result past the double range raises OverflowError.
    """
    out = _forward_linear(v, sigma, skip)
    out = _forward_min_loop(v, sigma, skip) if out is None else out
    return _finite(out, "monotone envelope")


@np.errstate(over="ignore")  # an inf sum never undercuts a finite one
def _forward_min_loop(v: np.ndarray, sigma: np.ndarray, skip: int) -> np.ndarray:
    """`_forward_min` one row at a time, in O(N^2)."""
    n = len(v)
    out = v.copy()
    for i in range(n - skip):
        out[i] = (v[i + skip :] + sigma[skip : n - i]).min()
    return out


@np.errstate(over="ignore")  # a non-finite quantity sends the call to the loop
def _forward_linear(v: np.ndarray, sigma: np.ndarray, skip: int) -> np.ndarray | None:
    """`_forward_min` in O(N) when ``sigma[k] == fl(k * c)`` for k >= 1, with
    ``c = sigma[1]``; None when that fails or the candidates are too many.

    Why the bits are the loop's: row i is the least rounded sum
    ``fl(v[j] + sigma[j-i])``.  Rounding is monotone, so that is fl of the
    exact least sum, and any subset of j holding an exact argmin gives the
    same value.  Neither sigma[0] nor c carries a sign bit (else None), so
    no sum is -0.0 and equal values have equal bits.  The diagonal
    ``v[i] + sigma[0]`` is always evaluated; the part over j > i is found
    from ``w[j] = fl(v[j] + fl(j * c))`` as follows.

    With u = 2^-53 and eta = 2^-1074 every rounding errs by at most
    ``u*|x| + eta``, so the exact ``v[j] + sigma[j-i]`` is within
    ``4u*(V + N*c) + 3*eta`` of ``w[j] - i*c``, where V = max |v|.  If j* is
    an exact argmin of row i and m the argmin of w over j > i, then
    ``w[j*] - i*c - B <= v[j*] + sigma[j*-i] <= v[m] + sigma[m-i]
    <= w[m] - i*c + B``, hence ``w[j*] <= M[i] + 2B`` with M[i] the least
    w[j] over j > i.  ``B = 2^-50 * (V + sigma[0] + N*c) + 2^-1072`` holds
    that bound with room for the rounding of B itself and of the threshold
    ``fl(M[i] + 2B)``.  M is nondecreasing in i, so the rows admitting j are
    one run ending at j - 1, found by one `searchsorted` per j.
    """
    n = len(v)
    c = sigma[1]
    if np.signbit(sigma[0]) or np.signbit(c):
        return None
    w = np.arange(n, dtype=float)
    w *= c
    if not np.array_equal(w[1:], sigma[1:n]):
        return None
    w += v
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
    if skip == 0:
        out = v + sigma[0]
    else:
        out = np.full(n, np.inf)
        out[n - 1] = v[n - 1]
    np.minimum.at(out, rows, vals)
    return out


@np.errstate(over="ignore")  # an inf sum never undercuts a finite one
def _shifted_extremum(v: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``min over j of v[j] + alpha[|j-i|]`` for every node i.

    Row i of ``alpha[|j-i|]`` is a contiguous slice of the mirrored table.
    """
    n = len(v)
    sym = np.concatenate([alpha[:0:-1], alpha])
    out = np.empty(n)
    for i in range(n):
        out[i] = (v + sym[n - 1 - i : 2 * n - 1 - i]).min()
    return _finite(out, "Hölder envelope")


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
    env = _forward_min(hv, sig, 0)
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
    ``lhs = g[i]`` and ``rhs = h[j] + d(j, i)``, the envelope at i.
    """
    check_tolerance(tol)
    if not g.grid.compatible(h.grid):
        raise DimensionMismatchError("sandwich bounds must share one grid")
    env, root = _grid_lower(h.values, h, phi)
    gv = g.values
    # one row: (g[p] - 0) - env[p] is g[p] - env[p] exactly
    best = _shifted_violation(gv, np.zeros(1), env, tol)
    if best is not None:
        i = best[1]
        j = int(root[i])
        return None, Witness(WitnessKind.SANDWICH, (i, j), float(gv[i]), float(env[i]))
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
    witness ``(i, i+k)``.
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
    lower = _backward_max(f.values, sig, 1)
    upper = _forward_min(f.values, sig, 1)
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
    v = f.values
    lower = _neg(_shifted_extremum(_neg(v), alpha))
    upper = _shifted_extremum(v, alpha)
    # the offsets |j-i| reachable from node i are 0..max(i, n-1-i)
    ar = np.arange(n)
    with np.errstate(over="ignore"):
        gap = 2.0 * np.minimum.accumulate(pv[:n])[np.maximum(ar, n - 1 - ar)]
    _finite(gap, "Hölder bracket gap bound")
    gap.setflags(write=False)
    return BracketPair(SampledFn(f.grid, lower), SampledFn(f.grid, upper), gap)
