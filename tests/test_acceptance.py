"""Acceptance suite: one test per release criterion, one printed line each.

Random draws come from the dyadic lattice of helpers.py, which makes every
sum the library forms exact in double precision; the equality-style criteria
(enumeration oracles, concatenation superadditivity, decomposition round
trips) are then meaningful bit-for-bit and the stated tolerances are slack
rather than load-bearing.
"""
import functools
import time

import numpy as np
import pytest

from approxmono import (
    ErrorFn,
    Grid,
    PowerErrorSpec,
    SampledFn,
    absolutely_subadditive_envelope,
    delta_variation_bound,
    holder_bracket,
    holder_lower_envelope,
    holder_sandwich,
    individual_alpha,
    individual_sigma,
    is_absolutely_subadditive,
    is_holder_via_variation,
    is_phi_holder,
    is_phi_monotone,
    is_subadditive,
    jordan_decompose,
    monotone_bracket,
    monotone_lower_envelope,
    monotone_sandwich,
    monotone_upper_envelope,
    power_error,
    subadditive_envelope,
    total_phi_variation,
)
from approxmono.grid import _star_shaped
from helpers import (
    brute_alpha,
    brute_grid_holder_lower,
    brute_sigma,
    brute_variation,
    dyadic,
    mono_member,
    rand_concave_increasing_error,
    rand_error,
    rand_fn,
)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL - {label}")
                raise
            print(f"ACCEPTANCE {num:02d} PASS - {label}")

        return wrapper

    return deco


@criterion(1, "subadditive envelope matches composition enumeration")
def test_c01_sigma_envelope_oracle():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(2, 13))
        phi = rand_error(rng, n, zero_at_origin=bool(rng.integers(0, 2)))
        env = subadditive_envelope(phi).values
        oracle = brute_sigma(phi.values)
        assert np.max(np.abs(env - oracle)) <= 1e-12
    assert time.perf_counter() - started < 10.0


@criterion(2, "power-law subadditivity characterized by the exponent")
def test_c02_power_law_characterization():
    subadditive_exponents = (-1.0, 0.0, 0.5, 1.0)
    superadditive_exponents = (1.5, 2.0, 3.0)
    absolutely_subadditive_exponents = (0.0, 0.5, 1.0)
    for p in subadditive_exponents + superadditive_exponents:
        phi = power_error(PowerErrorSpec(1.0, p), 1.0, 64)
        assert is_subadditive(phi, 0.0)[0] == (p in subadditive_exponents)
        assert (
            is_absolutely_subadditive(phi, 0.0)[0]
            == (p in absolutely_subadditive_exponents)
        )
    # the decreasing table fails absolutely through a long near-cancelling pair
    phi = power_error(PowerErrorSpec(1.0, -1.0), 1.0, 64)
    ok, w = is_absolutely_subadditive(phi, 0.0)
    assert not ok and abs(w.indices[0] + w.indices[1]) < max(
        abs(w.indices[0]), abs(w.indices[1])
    )


@criterion(3, "quadratic table collapses to one unit part per offset")
def test_c03_quadratic_grid_refinement():
    span = 8.0
    envs = {}
    for h in (1.0, 0.5, 0.25):
        count = int(span / h)
        phi = power_error(PowerErrorSpec(1.0, 2.0), h, count)
        env = subadditive_envelope(phi).values
        expect = h * h * np.arange(count)
        assert np.max(np.abs(env - expect)) <= 1e-12
        envs[h] = env
    # halving the step halves the value at a fixed physical offset
    for u in (1.0, 2.0, 4.0):
        v1 = envs[1.0][int(u / 1.0)]
        v2 = envs[0.5][int(u / 0.5)]
        v4 = envs[0.25][int(u / 0.25)]
        assert abs(v2 - 0.5 * v1) <= 1e-12
        assert abs(v4 - 0.5 * v2) <= 1e-12


@criterion(4, "signed envelope matches multiset enumeration")
def test_c04_alpha_envelope_oracle():
    rng = np.random.default_rng(1004)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        vals = dyadic(rng, 0.25, 1.0, n)
        if rng.integers(0, 2):
            vals[0] = 0.0
        phi = ErrorFn(1.0, vals)
        env = absolutely_subadditive_envelope(phi).values
        oracle = brute_alpha(phi.values)
        assert np.max(np.abs(env - oracle)) <= 1e-12


@criterion(5, "membership and envelopes are invariant under the subadditive minorant")
def test_c05_subadditive_replacement_invariance():
    rng = np.random.default_rng(1005)
    grid = Grid(0.0, 1.0, 10)
    for trial in range(200):
        phi = rand_error(rng, 10)
        sigma = subadditive_envelope(phi)
        f = mono_member(rng, grid, phi) if trial % 2 else rand_fn(rng, grid)
        assert is_phi_monotone(f, phi, 0.0)[0] == is_phi_monotone(f, sigma, 0.0)[0]
        assert np.array_equal(
            monotone_lower_envelope(f, phi).values,
            monotone_lower_envelope(f, sigma).values,
        )
        assert np.array_equal(
            monotone_upper_envelope(f, phi).values,
            monotone_upper_envelope(f, sigma).values,
        )


@criterion(6, "lower envelope is the extremal monotone minorant")
def test_c06_envelope_extremality():
    rng = np.random.default_rng(1006)
    grid = Grid(0.0, 1.0, 11)
    for _ in range(200):
        phi = rand_error(rng, 11)
        f = rand_fn(rng, grid)
        env = monotone_lower_envelope(f, phi)
        assert is_phi_monotone(env, phi, 0.0)[0]
        assert np.all(env.values <= f.values)
        assert np.array_equal(monotone_lower_envelope(env, phi).values, env.values)
        noisy = SampledFn(grid, f.values - dyadic(rng, 0, 1, 11))
        minorant = monotone_lower_envelope(noisy, phi)
        assert is_phi_monotone(minorant, phi, 0.0)[0]
        assert np.all(minorant.values <= env.values)


@criterion(7, "sandwich returns a function exactly when the pair inequality holds")
def test_c07_sandwich_soundness_completeness():
    rng = np.random.default_rng(1007)
    grid = Grid(0.0, 1.0, 8)
    n = 8
    feasible = infeasible = 0
    for trial in range(200):
        phi = rand_error(rng, n, hi=0.5)
        h = rand_fn(rng, grid, amp=1.0)
        if trial % 2:
            g = rand_fn(rng, grid, amp=1.0)
        else:
            base = (
                monotone_lower_envelope(h, phi)
                if trial % 4
                else holder_lower_envelope(h, phi)
            )
            g = SampledFn(grid, base.values - dyadic(rng, 0, 0.5, n))
        sigma = subadditive_envelope(phi).values
        mono_holds = all(
            g.values[i] <= h.values[j] + sigma[j - i]
            for i in range(n)
            for j in range(i, n)
        )
        # a Hölder member lies between g and h exactly when g is below the
        # grid-exact envelope of h, the largest member below h
        env = brute_grid_holder_lower(h.values, phi.values)
        hold_holds = bool(np.all(g.values <= env + 1e-9))
        out, w = monotone_sandwich(g, h, phi, 1e-9)
        assert (out is not None) == mono_holds
        if out is not None:
            feasible += 1
            assert is_phi_monotone(out, phi, 1e-9)[0]
            assert np.all(g.values <= out.values + 1e-9)
            assert np.all(out.values <= h.values + 1e-9)
        else:
            infeasible += 1
            assert w is not None
        out, w = holder_sandwich(g, h, phi, 1e-9)
        assert (out is not None) == hold_holds
        if out is not None:
            assert np.array_equal(out.values, env)
            assert is_phi_holder(out, phi, 1e-9)[0]
            assert np.all(g.values <= out.values + 1e-9)
            assert np.all(out.values <= h.values + 1e-9)
    assert feasible >= 20 and infeasible >= 20


@criterion(8, "brackets pin the input between companion-class functions")
def test_c08_bracket_contracts():
    rng = np.random.default_rng(1008)
    n = 9
    grid = Grid(0.0, 1.0, n)
    # decreasing table with the zero companion: halves must be nondecreasing
    for _ in range(60):
        tail = np.sort(dyadic(rng, 0.125, 1.0, n - 1))[::-1]
        phi = ErrorFn(1.0, np.concatenate([[tail[0]], tail]))
        psi = ErrorFn(1.0, np.zeros(n))
        f = mono_member(rng, grid, phi)
        pair = monotone_bracket(f, phi, psi, 1e-9)
        lo, hi = pair.lower.values, pair.upper.values
        sigma = subadditive_envelope(phi).values
        assert np.all(lo <= f.values + 1e-9) and np.all(f.values <= hi + 1e-9)
        assert np.all(np.diff(lo[1:]) >= -1e-9)
        assert np.all(np.diff(hi[:-1]) >= -1e-9)
        for i in range(n):
            for j in range(i + 1, n):
                assert f.values[i] <= lo[j] + sigma[j - i] + 1e-9
                assert hi[i] <= f.values[j] + sigma[j - i] + 1e-9
    # increasing subadditive table used on both sides
    for _ in range(60):
        phi = rand_concave_increasing_error(rng, n)
        f = holder_lower_envelope(rand_fn(rng, grid), phi)
        pair = holder_bracket(f, phi, phi, 1e-9)
        lo, hi, gap = pair.lower.values, pair.upper.values, pair.gap_bound
        alpha = absolutely_subadditive_envelope(phi).values
        assert np.all(lo <= f.values + 1e-9) and np.all(f.values <= hi + 1e-9)
        assert is_phi_holder(pair.lower, phi, 1e-9)[0]
        assert is_phi_holder(pair.upper, phi, 1e-9)[0]
        assert np.all(hi - lo <= gap + 1e-9)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert f.values[i] <= lo[j] + alpha[abs(j - i)] + 1e-9
                    assert hi[i] <= f.values[j] + alpha[abs(j - i)] + 1e-9


@criterion(9, "variation program matches subset enumeration, concatenation superadditive")
def test_c09_variation_oracle_and_superadditivity():
    rng = np.random.default_rng(1009)
    for _ in range(300):
        n = int(rng.integers(2, 15))
        f = rand_fn(rng, Grid(0.0, 1.0, n))
        phi = rand_error(rng, n, hi=0.5, zero_at_origin=False)
        table = total_phi_variation(f, phi)
        for b in range(1, n):
            oracle = brute_variation(f.values, phi.values, 0, b)
            assert abs(table.prefix[b] - oracle) <= 1e-12
        rows = [total_phi_variation(f, phi, a, n - 1).prefix for a in range(n - 1)]
        for a in range(n - 2):
            for b in range(a + 1, n - 1):
                for c in range(b + 1, n):
                    assert rows[a][b - a] + rows[b][c - b] <= rows[a][c - a]


@criterion(10, "variation-based and pairwise Hölder checks agree")
def test_c10_holder_equivalence():
    rng = np.random.default_rng(1010)
    agree_true = agree_false = 0
    for trial in range(300):
        n = int(rng.integers(2, 11))
        grid = Grid(0.0, 1.0, n)
        phi = rand_error(rng, n, zero_at_origin=False)
        if trial % 2:
            f = rand_fn(rng, grid, amp=0.5)
        else:
            zphi = ErrorFn(1.0, np.concatenate([[0.0], phi.values[1:]]))
            f = holder_lower_envelope(rand_fn(rng, grid), zphi)
        direct = is_phi_holder(f, phi, 1e-9)[0]
        assert is_holder_via_variation(f, phi, 1e-9) == direct
        agree_true += direct
        agree_false += not direct
    assert agree_true >= 30 and agree_false >= 30


@criterion(11, "decomposition halves are members and recombine exactly")
def test_c11_jordan_round_trip():
    rng = np.random.default_rng(1011)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        grid = Grid(0.0, 1.0, n)
        phi = rand_error(rng, n)
        g0 = mono_member(rng, grid, phi)
        h0 = mono_member(rng, grid, phi)
        f = SampledFn(grid, g0.values - h0.values)
        anchor = int(rng.integers(0, n - 1))
        pair = jordan_decompose(f, phi, anchor)
        assert np.array_equal(pair.g.values - pair.h.values, f.values[anchor:])
        assert is_phi_monotone(pair.g, phi, 1e-9)[0]
        assert is_phi_monotone(pair.h, phi, 1e-9)[0]
        total, bound = delta_variation_bound(g0, h0, phi, phi, 1e-9)
        assert total <= bound + 1e-9


@criterion(12, "per-function tables are minimal, subadditive memberships")
def test_c12_individual_tables():
    rng = np.random.default_rng(1012)
    for trial in range(300):
        n = int(rng.integers(2, 12))
        grid = Grid(0.0, 1.0, n)
        phi = rand_error(rng, n)
        f = mono_member(rng, grid, phi) if trial % 2 else rand_fn(rng, grid)
        sig = individual_sigma(f)
        alp = individual_alpha(f)
        assert is_phi_monotone(f, sig, 0.0)[0]
        assert is_phi_holder(f, alp, 0.0)[0]
        assert is_subadditive(sig, 0.0)[0]
        if is_phi_monotone(f, phi, 0.0)[0]:
            assert np.all(sig.values <= phi.values)
        if is_phi_holder(f, phi, 0.0)[0]:
            assert np.all(alp.values <= phi.values)


@criterion(13, "quadratic scans at 5000 nodes and the lattice search stay under budget")
def test_c13_performance():
    rng = np.random.default_rng(1013)
    n = 5000
    grid = Grid(0.0, 1.0, n)
    f = SampledFn(grid, np.cumsum(rng.normal(size=n)))
    phi = ErrorFn(1.0, np.abs(rng.normal(size=n)) + 0.01)
    # a table with phi[k] >= k * phi[1] takes the O(N) paths, so the budgets
    # below time the quadratic loops and the bounded scans, which may prune;
    # the two subadditivity checks at the end are worst cases that skip no row
    assert not _star_shaped(phi.values)

    def timed(label, fn, budget=5.0):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"{label} took {elapsed:.2f}s"
        return result

    sigma = timed("sigma envelope", lambda: subadditive_envelope(phi))
    timed("monotone check", lambda: is_phi_monotone(f, phi, 1e-9))
    timed("holder check", lambda: is_phi_holder(f, phi, 1e-9))
    timed("lower envelope", lambda: monotone_lower_envelope(f, phi))
    timed("upper envelope", lambda: monotone_upper_envelope(f, phi))
    timed("variation table", lambda: total_phi_variation(f, phi))
    del sigma

    m = 512
    lattice_phi = ErrorFn(1.0, np.abs(rng.normal(size=m)) + 0.01)
    timed(
        "lattice search",
        lambda: absolutely_subadditive_envelope(lattice_phi),
    )

    # a linear table: every margin is 0, every tile bound above tol
    linear = power_error(PowerErrorSpec(1.0, 1.0), 1.0 / (n - 1), n)
    timed("linear subadditivity", lambda: is_subadditive(linear))
    rough = ErrorFn(1.0, np.concatenate([[0.0], rng.uniform(0.2, 1.0, n - 1)]))
    timed("rough absolute subadditivity", lambda: is_absolutely_subadditive(rough))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
