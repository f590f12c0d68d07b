"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports the package under test.  Every routine is written from
the mathematical definition, with a different loop order or a different
algorithm from the package where one exists: backward dynamic programs on the
error table itself instead of its subadditive envelope, dense Dijkstra
searches instead of the package's heap-based lattice search, closed forms for
convex power tables, and row-wise scans where the package scans diagonals.
"""
from __future__ import annotations

import numpy as np


def scale(*arrays) -> float:
    """Magnitude that relative comparison tolerances are taken against."""
    return 1.0 + max(float(np.abs(a).max()) for a in arrays)


def close(a, b, rtol: float) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and float(np.abs(a - b).max()) <= rtol * scale(a, b)


# --- error tables -----------------------------------------------------------


def sigma_convex(phi: np.ndarray) -> np.ndarray:
    """Subadditive envelope of a convex table vanishing at 0: k * phi[1]."""
    return phi[1] * np.arange(len(phi))


def sigma_push(phi: np.ndarray) -> np.ndarray:
    """Subadditive envelope by a forward (push) shortest path over offsets."""
    n = len(phi)
    out = phi.astype(float).copy()
    for j in range(1, n - 1):
        np.minimum(out[j + 1 :], out[j] + phi[1 : n - j], out=out[j + 1 :])
    return out


def alpha_lattice(phi: np.ndarray, n: int) -> np.ndarray:
    """Absolutely subadditive envelope of phi truncated to n offsets.

    Dense Dijkstra from 0 over the lattice [-(n-1), n-1] with steps +-j of
    cost phi[j], 0 < j < n.  Any multiset of signed parts can be reordered so
    its running sums stay within the largest part, so the radius n-1 is exact.
    """
    phi = np.asarray(phi[:n], dtype=float)
    r = n - 1
    size = 2 * r + 1
    dist = np.full(size, np.inf)
    dist[r] = 0.0
    open_ = np.ones(size, dtype=bool)
    costs = np.concatenate([phi[:0:-1], [np.inf], phi[1:]])  # index d + r
    for _ in range(size):
        masked = np.where(open_, dist, np.inf)
        u = int(np.argmin(masked))
        du = masked[u]
        if not np.isfinite(du):
            break
        open_[u] = False
        lo = max(0, u - r)
        hi = min(size, u + r + 1)
        cand = du + costs[lo - u + r : hi - u + r]
        np.minimum(dist[lo:hi], cand, out=dist[lo:hi])
    out = dist[r : r + n].copy()
    out[0] = min(float(phi[0]), float((dist[r + 1 : r + n] + phi[1:]).min()))
    return out


def subadditive_margin(phi: np.ndarray) -> float:
    """max over j, k >= 0 with j + k < n of phi[j+k] - phi[j] - phi[k]."""
    n = len(phi)
    best = -np.inf
    for k in range(n):
        best = max(best, float((phi[k:] - phi[: n - k] - phi[k]).max()))
    return best


def abs_subadditive_margin(phi: np.ndarray) -> float:
    """max over signed j, k of phi[|j+k|] - phi[|j|] - phi[|k|], all on the table."""
    n = len(phi)
    ar = np.arange(n)
    best = -np.inf
    for k in range(-(n - 1), n):
        js = ar[np.abs(ar + k) < n]
        best = max(best, float((phi[np.abs(js + k)] - phi[js] - phi[abs(k)]).max()))
    return best


# --- function envelopes -----------------------------------------------------


def mono_lower_dp(f: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Largest f-minorant monotone within phi, by a backward DP on phi itself.

    e[i] = min(f[i], min over j > i of e[j] + phi[j-i]); chaining the steps
    realizes every composition, so no subadditive envelope is needed.
    """
    n = len(f)
    e = f.astype(float).copy()
    for i in range(n - 2, -1, -1):
        e[i] = min(e[i], float((e[i + 1 :] + phi[1 : n - i]).min()))
    return e


def mono_upper_dp(f: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Smallest f-majorant monotone within phi, by a forward DP on phi."""
    n = len(f)
    u = f.astype(float).copy()
    for i in range(1, n):
        u[i] = max(u[i], float((u[:i] - phi[i:0:-1]).max()))
    return u


def mono_lower_convex(f: np.ndarray, c: float) -> np.ndarray:
    """Monotone lower envelope for a table with sigma[k] = c*k: suffix minima."""
    k = c * np.arange(len(f))
    return np.minimum.accumulate((f + k)[::-1])[::-1] - k


def mono_bracket_convex(f: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Monotone bracket for sigma[k] = c*k: strict prefix maxima, suffix minima."""
    k = c * np.arange(len(f))
    g = f + k
    lower = f.astype(float).copy()
    upper = f.astype(float).copy()
    lower[1:] = np.maximum.accumulate(g)[:-1] - k[1:]
    upper[:-1] = np.minimum.accumulate(g[::-1])[::-1][1:] - k[:-1]
    return lower, upper


def grid_exact_lower(f: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Largest function below f that is Hölder within phi on the grid pairs.

    Dense multi-source Dijkstra over the grid nodes with potentials f and
    edge costs phi[|u-v|]: paths never leave the grid, unlike the lattice
    search, so this is the exact largest member.
    """
    n = len(f)
    ar = np.arange(n)
    dist = f.astype(float).copy()
    open_ = np.ones(n, dtype=bool)
    for _ in range(n):
        masked = np.where(open_, dist, np.inf)
        u = int(np.argmin(masked))
        open_[u] = False
        np.minimum(dist, dist[u] + phi[np.abs(ar - u)], out=dist)
    return dist


def table_lower(f: np.ndarray, table: np.ndarray) -> np.ndarray:
    """min over j of f[j] + table[|i-j|], for every node i."""
    n = len(f)
    ar = np.arange(n)
    return np.array([float((f + table[np.abs(ar - i)]).min()) for i in range(n)])


# --- checks and margins -----------------------------------------------------


def mono_margin(f: np.ndarray, table: np.ndarray) -> float:
    """max over i <= j of f[i] - f[j] - table[j-i], scanned row by row."""
    n = len(f)
    return max(float((f[i] - f[i:] - table[: n - i]).max()) for i in range(n))


def holder_margin(f: np.ndarray, table: np.ndarray) -> float:
    """max over all pairs of |f[i] - f[j]| - table[|i-j|], row by row."""
    n = len(f)
    return max(float((np.abs(f[i] - f[i:]) - table[: n - i]).max()) for i in range(n))


def sandwich_margin(g: np.ndarray, h: np.ndarray, table: np.ndarray, holder: bool) -> float:
    """max of g[i] - h[j] - table[j-i] over i <= j (or table[|i-j|], all pairs)."""
    n = len(g)
    ar = np.arange(n)
    if holder:
        return max(float((g - h[j] - table[np.abs(ar - j)]).max()) for j in range(n))
    return max(float((g[: j + 1] - h[j] - table[j::-1]).max()) for j in range(n))


def variation_push(f: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Total discounted variation prefix table by a forward (push) DP."""
    n = len(f)
    best = np.full(n, -np.inf)
    best[0] = 0.0
    for j in range(n - 1):
        np.maximum(
            best[j + 1 :],
            best[j] + (np.abs(f[j + 1 :] - f[j]) - table[1 : n - j]),
            out=best[j + 1 :],
        )
    return best


def individual_tables(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest monotone and Hölder tables of f, accumulated row by row."""
    n = len(f)
    sig = np.zeros(n)
    alp = np.zeros(n)
    for i in range(n - 1):
        d = f[i] - f[i + 1 :]
        np.maximum(sig[1 : n - i], d, out=sig[1 : n - i])
        np.maximum(alp[1 : n - i], np.abs(d), out=alp[1 : n - i])
    return sig, alp
