import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from approxmono import (
    DimensionMismatchError,
    ErrorFn,
    Grid,
    PreconditionError,
    SampledFn,
    WitnessKind,
    absolutely_subadditive_envelope,
    holder_bracket,
    holder_lower_envelope,
    holder_sandwich,
    holder_upper_envelope,
    is_phi_holder,
    is_phi_monotone,
    monotone_bracket,
    monotone_lower_envelope,
    monotone_sandwich,
    monotone_upper_envelope,
    subadditive_envelope,
)
from approxmono import PowerErrorSpec, function_envelopes, power_error
from approxmono import scan
from approxmono.error_envelopes import _nondecreasing_pass, _signed_violation
from approxmono.function_envelopes import (
    _CANDIDATES_PER_NODE,
    _forward_linear,
    _forward_min,
    _linear,
    _ramp_sums,
    _rounding_rows,
    _two_sided_min,
)
from helpers import (
    brute_grid_distances,
    brute_grid_holder_lower,
    count_label_rounds,
    dense_label_setting,
    dyadic,
    loop_holder_lower,
    loop_holder_upper,
    loop_forward_min,
    loop_holder_upper_grid,
    loop_monotone_bracket,
    loop_monotone_upper,
    mono_member,
    rand_concave_increasing_error,
    rand_error,
    rand_fn,
    record_holder_paths,
    record_linear_pairs,
    record_row_tiles,
    record_settled_rows,
    scan_check,
    scan_sandwich,
)


def efn(vals, step=1.0):
    return ErrorFn(step, vals)


def sfn(vals, origin=0.0, step=1.0):
    return SampledFn(Grid(origin, step, len(vals)), vals)


def direct_lower(f, sigma):
    n = f.grid.count
    return np.array(
        [min(f.values[j] + sigma[j - i] for j in range(i, n)) for i in range(n)]
    )


def direct_upper(f, sigma):
    n = f.grid.count
    return np.array(
        [max(f.values[j] - sigma[i - j] for j in range(i + 1)) for i in range(n)]
    )


class TestMonotoneEnvelopes:
    def test_member_is_fixed_point(self):
        rng = np.random.default_rng(51)
        grid = Grid(0.0, 1.0, 10)
        for _ in range(30):
            phi = rand_error(rng, 10)
            f = mono_member(rng, grid, phi)
            assert np.array_equal(monotone_lower_envelope(f, phi).values, f.values)
            assert np.array_equal(monotone_upper_envelope(f, phi).values, f.values)

    def test_two_node_defining_min(self):
        # with a constant-one table the direct value 3+1 loses to 1+1 at node 0
        f = sfn([3.0, 1.0])
        phi = efn([1.0, 1.0])
        out = monotone_lower_envelope(f, phi)
        assert np.array_equal(out.values, direct_lower(f, subadditive_envelope(phi).values))
        assert list(out.values) == [2.0, 2.0]
        up = monotone_upper_envelope(f, phi)
        assert np.array_equal(up.values, direct_upper(f, subadditive_envelope(phi).values))
        assert list(up.values) == [2.0, 2.0]

    def test_dip_filled_from_the_right(self):
        f = sfn([0.0, -5.0, 0.0])
        phi = efn([0.0, 1.0, 2.0])
        out = monotone_lower_envelope(f, phi)
        assert list(out.values) == [-4.0, -5.0, 0.0]

    def test_matches_direct_formula_randomly(self):
        rng = np.random.default_rng(53)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(40):
            phi = rand_error(rng, 9, zero_at_origin=bool(rng.integers(0, 2)))
            f = rand_fn(rng, grid)
            sigma = subadditive_envelope(phi).values
            assert np.array_equal(
                monotone_lower_envelope(f, phi).values, direct_lower(f, sigma)
            )
            assert np.array_equal(
                monotone_upper_envelope(f, phi).values, direct_upper(f, sigma)
            )

    def test_output_membership_and_order(self):
        rng = np.random.default_rng(57)
        grid = Grid(0.0, 1.0, 11)
        for _ in range(40):
            phi = rand_error(rng, 11)
            f = rand_fn(rng, grid)
            lo = monotone_lower_envelope(f, phi)
            hi = monotone_upper_envelope(f, phi)
            assert is_phi_monotone(lo, phi, 0.0)[0]
            assert is_phi_monotone(hi, phi, 0.0)[0]
            assert np.all(lo.values <= f.values)
            assert np.all(hi.values >= f.values)

    def test_idempotent_when_table_vanishes_at_origin(self):
        rng = np.random.default_rng(59)
        grid = Grid(0.0, 1.0, 10)
        for _ in range(30):
            phi = rand_error(rng, 10)
            f = rand_fn(rng, grid)
            lo = monotone_lower_envelope(f, phi)
            assert np.array_equal(monotone_lower_envelope(lo, phi).values, lo.values)

    def test_envelope_unchanged_by_subadditive_replacement(self):
        rng = np.random.default_rng(61)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(30):
            phi = rand_error(rng, 9)
            sigma = subadditive_envelope(phi)
            f = rand_fn(rng, grid)
            assert np.array_equal(
                monotone_lower_envelope(f, phi).values,
                monotone_lower_envelope(f, sigma).values,
            )

    def test_extremality_over_minorants(self):
        rng = np.random.default_rng(63)
        grid = Grid(0.0, 1.0, 10)
        for _ in range(30):
            phi = rand_error(rng, 10)
            f = rand_fn(rng, grid)
            lo = monotone_lower_envelope(f, phi)
            noisy = SampledFn(grid, f.values - dyadic(rng, 0, 1, 10))
            minorant = monotone_lower_envelope(noisy, phi)
            assert np.all(minorant.values <= f.values)
            assert np.all(minorant.values <= lo.values)

    def test_duality_with_reversal(self):
        rng = np.random.default_rng(67)
        grid = Grid(0.0, 1.0, 8)
        for _ in range(30):
            phi = rand_error(rng, 8)
            f = rand_fn(rng, grid)
            up = monotone_upper_envelope(f, phi).values
            flipped = SampledFn(grid, -f.values[::-1])
            lo = monotone_lower_envelope(flipped, phi).values
            assert np.array_equal(up, -lo[::-1])


class TestHolderEnvelopes:
    def test_member_is_fixed_point(self):
        grid = Grid(0.0, 1.0, 3)
        f = SampledFn(grid, [0.0, 0.5, 0.0])
        phi = efn([0.0, 1.0, 2.0])
        assert np.array_equal(holder_lower_envelope(f, phi).values, f.values)
        assert np.array_equal(holder_upper_envelope(f, phi).values, f.values)

    def test_spike_clipped_both_sides(self):
        f = sfn([0.0, 10.0, 0.0])
        phi = efn([0.0, 1.0, 2.0])
        assert list(holder_lower_envelope(f, phi).values) == [0.0, 1.0, 0.0]
        assert list(holder_upper_envelope(f, phi).values) == [9.0, 10.0, 9.0]

    def test_zero_table_forces_constants(self):
        f = sfn([3.0, -1.0, 2.0])
        phi = efn([0.0, 0.0, 0.0])
        assert list(holder_lower_envelope(f, phi).values) == [-1.0, -1.0, -1.0]
        assert list(holder_upper_envelope(f, phi).values) == [3.0, 3.0, 3.0]

    def test_requires_zero_at_origin(self):
        with pytest.raises(PreconditionError):
            holder_lower_envelope(sfn([0.0, 1.0]), efn([0.5, 1.0]))

    def test_sign_symmetry(self):
        rng = np.random.default_rng(71)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(30):
            phi = rand_error(rng, 9)
            f = rand_fn(rng, grid)
            up = holder_upper_envelope(f, phi).values
            lo = holder_lower_envelope(-f, phi).values
            assert np.array_equal(up, -lo)

    def test_membership_and_idempotence(self):
        rng = np.random.default_rng(73)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(30):
            phi = rand_error(rng, 9)
            f = rand_fn(rng, grid)
            lo = holder_lower_envelope(f, phi)
            assert np.all(lo.values <= f.values)
            assert np.array_equal(lo.values, brute_grid_holder_lower(f.values, phi.values))
            assert is_phi_holder(lo, phi, 0.0)[0]
            assert np.array_equal(holder_lower_envelope(lo, phi).values, lo.values)


class TestGridExactHolderEnvelopes:
    """The Hölder envelopes follow grid paths: each step u -> v costs
    phi[|u-v|], and no path composes through offsets off the grid."""

    phi = efn([0.0, 8.0, 4.0, 1.0])
    f = sfn([1.0, 3.0, -7.0, 0.0])

    def test_steps_off_the_grid_do_not_count(self):
        # alpha[1] = 2 composes +3 and -2, which no 4-node path can take from
        # node 1; the member [-3, 1, -7, -2] lies below f
        lo = holder_lower_envelope(self.f, self.phi)
        assert list(lo.values) == [-3.0, 1.0, -7.0, -2.0]
        assert is_phi_holder(lo, self.phi, 0.0)[0]
        out, w = holder_sandwich(SampledFn(lo.grid, lo.values - 0.5), self.f, self.phi)
        assert w is None and np.array_equal(out.values, lo.values)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_floyd_warshall(self, data):
        n = data.draw(st.integers(2, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        table = dyadic(rng, 0, 1, n + data.draw(st.integers(0, 4)))
        table[data.draw(st.lists(st.integers(0, len(table) - 1), max_size=2))] = 0.0
        table[0] = 0.0
        f, phi = rand_fn(rng, Grid(0.0, 1.0, n)), efn(table)
        lower = brute_grid_holder_lower(f.values, table[:n])
        assert same_bits(holder_lower_envelope(f, phi).values, lower)
        upper = holder_upper_envelope(f, phi).values
        assert same_bits(upper, 0.0 - brute_grid_holder_lower(-f.values, table[:n]))

    def test_nondecreasing_tables_keep_the_alpha_envelope(self):
        # alpha = sigma there and every composition is a grid path, so the
        # result equals min_j f[j] + alpha[|j-i|] bit for bit
        rng = np.random.default_rng(211)
        for _ in range(40):
            n = int(rng.integers(2, 16))
            phi = efn(np.concatenate([[0.0], np.sort(dyadic(rng, 0, 1, n - 1))]))
            f = rand_fn(rng, Grid(0.0, 1.0, n))
            alpha = absolutely_subadditive_envelope(phi).values
            shifts = alpha[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
            lower = (f.values + shifts).min(axis=1)
            assert same_bits(holder_lower_envelope(f, phi).values, lower)
            out, w = holder_sandwich(SampledFn(f.grid, lower), f, phi)
            assert w is None and same_bits(out.values, lower)

    @pytest.mark.parametrize("shift", [-0.5, 3.0])
    def test_no_alpha_search(self, monkeypatch, shift):
        def refuse(phi):
            raise AssertionError("the Hölder envelopes need no alpha")

        monkeypatch.setattr(function_envelopes, "absolutely_subadditive_envelope", refuse)
        rng = np.random.default_rng(223)
        grid = Grid(0.0, 1.0, 10)
        phi, f = rand_error(rng, 10), rand_fn(rng, grid)
        holder_upper_envelope(f, phi)
        lo = holder_lower_envelope(f, phi)
        out, w = holder_sandwich(SampledFn(grid, lo.values + shift), f, phi)
        assert (out is None) == (shift > 0)


class TestTableLongerThanGrid:
    """A table with more offsets than the grid acts as the table cut to N."""

    def test_envelopes_and_sandwich_use_the_cut_table(self):
        rng = np.random.default_rng(79)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            grid = Grid(0.0, 1.0, n)
            phi = rand_error(rng, n + int(rng.integers(1, 2 * n + 2)))
            cut = phi.values[:n]
            f = rand_fn(rng, grid)
            lower = brute_grid_holder_lower(f.values, cut)
            upper = -brute_grid_holder_lower(-f.values, cut)
            assert np.array_equal(holder_lower_envelope(f, phi).values, lower)
            assert np.array_equal(holder_upper_envelope(f, phi).values, upper)
            g = SampledFn(grid, lower - 0.5)
            out, w = holder_sandwich(g, f, phi)
            assert w is None
            assert np.array_equal(out.values, lower)


class TestSandwiches:
    def test_shared_member_returned(self):
        rng = np.random.default_rng(77)
        grid = Grid(0.0, 1.0, 9)
        phi = rand_error(rng, 9)
        f = mono_member(rng, grid, phi)
        out, w = monotone_sandwich(f, f, phi)
        assert w is None
        assert np.array_equal(out.values, f.values)

    def test_infeasible_pair_reports_witness(self):
        g = sfn([1.0, 0.0])
        h = sfn([0.0, 0.0])
        phi = efn([0.0, 2.0])
        out, w = monotone_sandwich(g, h, phi)
        assert out is None
        assert w.kind is WitnessKind.SANDWICH
        assert w.indices == (0, 0)
        assert w.lhs == 1.0 and w.rhs == 0.0

    def test_feasible_below_member(self):
        rng = np.random.default_rng(79)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(20):
            phi = rand_error(rng, 9)
            h = mono_member(rng, grid, phi)
            g = SampledFn(grid, h.values - dyadic(rng, 0, 1, 9))
            out, w = monotone_sandwich(g, h, phi)
            assert w is None
            assert np.array_equal(out.values, h.values)

    def test_soundness_and_completeness(self):
        rng = np.random.default_rng(83)
        grid = Grid(0.0, 1.0, 8)
        feasible = infeasible = 0
        for trial in range(120):
            phi = rand_error(rng, 8, hi=0.5)
            h = rand_fn(rng, grid, amp=1.0)
            if trial % 2:
                g = rand_fn(rng, grid, amp=1.0)
            else:
                base = monotone_lower_envelope(h, phi)
                g = SampledFn(grid, base.values - dyadic(rng, 0, 0.5, 8))
            sigma = subadditive_envelope(phi).values
            holds = all(
                g.values[i] <= h.values[j] + sigma[j - i]
                for i in range(8)
                for j in range(i, 8)
            )
            out, w = monotone_sandwich(g, h, phi, 0.0)
            assert (out is not None) == holds
            if out is not None:
                feasible += 1
                assert is_phi_monotone(out, phi, 0.0)[0]
                assert np.all(g.values <= out.values)
                assert np.all(out.values <= h.values)
            else:
                infeasible += 1
                i, j = w.indices
                assert g.values[i] > h.values[j] + sigma[j - i]
        assert feasible and infeasible

    def test_holder_infeasible_example(self):
        g = sfn([2.0, 0.0])
        h = sfn([0.0, 0.0])
        phi = efn([0.0, 1.0])
        out, w = holder_sandwich(g, h, phi)
        assert out is None
        assert w.indices == (0, 0)

    def test_holder_soundness_and_completeness(self):
        rng = np.random.default_rng(89)
        grid = Grid(0.0, 1.0, 8)
        feasible = infeasible = 0
        for trial in range(120):
            phi = rand_error(rng, 8, hi=0.5)
            h = rand_fn(rng, grid, amp=1.0)
            if trial % 2:
                g = rand_fn(rng, grid, amp=1.0)
            else:
                base = holder_lower_envelope(h, phi)
                g = SampledFn(grid, base.values - dyadic(rng, 0, 0.5, 8))
            d = brute_grid_distances(phi.values, 8)
            env = brute_grid_holder_lower(h.values, phi.values)
            holds = bool(np.all(g.values <= env))
            out, w = holder_sandwich(g, h, phi, tol=0.0)
            assert (out is not None) == holds
            if out is not None:
                feasible += 1
                assert np.array_equal(out.values, env)
                assert is_phi_holder(out, phi, 0.0)[0]
                assert np.all(g.values <= out.values)
                assert np.all(out.values <= h.values)
            else:
                infeasible += 1
                i, j = w.indices
                assert w.lhs == g.values[i]
                assert w.rhs == h.values[j] + d[j, i] == env[i]
                assert w.lhs - w.rhs == (g.values - env).max()
        assert feasible and infeasible

    def test_lower_envelope_of_upper_bound_always_fits(self):
        rng = np.random.default_rng(97)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(20):
            phi = rand_error(rng, 9)
            h = rand_fn(rng, grid)
            g = holder_lower_envelope(h, phi)
            out, w = holder_sandwich(g, h, phi)
            assert w is None and out is not None

    def test_grid_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            monotone_sandwich(sfn([0, 1]), sfn([0, 1], origin=2.0), efn([0.0, 1.0]))

    def test_requires_zero_at_origin(self):
        with pytest.raises(PreconditionError):
            monotone_sandwich(sfn([0, 1]), sfn([0, 1]), efn([0.5, 1.0]))


class TestMonotoneBracket:
    def test_constant_function_zero_table(self):
        f = sfn([2.0, 2.0, 2.0, 2.0])
        z = efn([0.0, 0.0, 0.0, 0.0])
        pair = monotone_bracket(f, z, z)
        assert np.array_equal(pair.lower.values, f.values)
        assert np.array_equal(pair.upper.values, f.values)
        assert pair.gap_bound is None

    def test_nondecreasing_zero_table_shifts_to_neighbors(self):
        f = sfn([0.0, 1.0, 3.0, 4.0])
        z = efn([0.0, 0.0, 0.0, 0.0])
        pair = monotone_bracket(f, z, z)
        assert list(pair.lower.values) == [0.0, 0.0, 1.0, 3.0]
        assert list(pair.upper.values) == [1.0, 3.0, 4.0, 4.0]

    def test_rejects_nonmember_with_witness(self):
        f = sfn([2.0, 0.0])
        phi = efn([0.0, 1.0])
        with pytest.raises(PreconditionError) as exc:
            monotone_bracket(f, phi, efn([0.0, 0.0]))
        assert exc.value.witness.indices == (0, 1)

    def test_rejects_increasing_table_against_zero_companion(self):
        phi = efn([0.0, 1.0, 2.0])
        f = mono_member(np.random.default_rng(0), Grid(0.0, 1.0, 3), phi)
        with pytest.raises(PreconditionError) as exc:
            monotone_bracket(f, phi, efn([0.0, 0.0, 0.0]))
        assert exc.value.witness.kind is WitnessKind.MONOTONE

    def test_decreasing_table_zero_companion_regime(self):
        rng = np.random.default_rng(101)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(30):
            tail = np.sort(dyadic(rng, 0.125, 1.0, 8))[::-1]
            phi = ErrorFn(1.0, np.concatenate([[tail[0]], tail]))
            psi = efn(np.zeros(9))
            f = mono_member(rng, grid, phi)
            pair = monotone_bracket(f, phi, psi)
            lo, hi = pair.lower.values, pair.upper.values
            assert np.all(lo <= f.values) and np.all(f.values <= hi)
            # both halves nondecreasing where the defining extrema are nonempty
            assert np.all(np.diff(lo[1:]) >= 0)
            assert np.all(np.diff(hi[:-1]) >= 0)
            sigma = subadditive_envelope(phi).values
            for i in range(9):
                for j in range(i + 1, 9):
                    assert f.values[i] <= lo[j] + sigma[j - i]
                    assert hi[i] <= f.values[j] + sigma[j - i]

    def test_companion_membership_on_formula_range(self):
        rng = np.random.default_rng(103)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(30):
            phi = rand_error(rng, 9)
            # smallest companion under which the negated table is monotone
            pv = phi.values
            comp = np.zeros(9)
            for k in range(1, 8):
                comp[k] = max(0.0, (pv[1 + k :] - pv[1:-k]).max())
            psi = ErrorFn(1.0, comp + dyadic(rng, 0, 0.25, 9))
            f = mono_member(rng, grid, phi)
            pair = monotone_bracket(f, phi, psi)
            assert is_phi_monotone(pair.lower.window(1, 9), psi, 0.0)[0]
            assert is_phi_monotone(pair.upper.window(0, 8), psi, 0.0)[0]


class TestHolderBracket:
    def test_constant_function(self):
        f = sfn([1.0, 1.0, 1.0])
        phi = efn([0.0, 1.0, 1.0])
        pair = holder_bracket(f, phi, phi)
        assert np.array_equal(pair.lower.values, f.values)
        assert np.array_equal(pair.upper.values, f.values)

    def test_zero_at_origin_collapses_gap(self):
        rng = np.random.default_rng(107)
        grid = Grid(0.0, 1.0, 8)
        phi = rand_concave_increasing_error(rng, 8)
        f = holder_lower_envelope(rand_fn(rng, grid), phi)
        pair = holder_bracket(f, phi, phi)
        assert np.array_equal(pair.gap_bound, np.zeros(8))
        assert np.array_equal(pair.lower.values, f.values)
        assert np.array_equal(pair.upper.values, f.values)

    def test_increasing_subadditive_regime(self):
        rng = np.random.default_rng(109)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(30):
            phi = rand_concave_increasing_error(rng, 9)
            raw = rand_fn(rng, grid)
            f = holder_lower_envelope(raw, phi)
            pair = holder_bracket(f, phi, phi)
            lo, hi, gap = pair.lower.values, pair.upper.values, pair.gap_bound
            alpha = absolutely_subadditive_envelope(phi).values
            assert np.all(lo <= f.values) and np.all(f.values <= hi)
            assert is_phi_holder(pair.lower, phi, 0.0)[0]
            assert is_phi_holder(pair.upper, phi, 0.0)[0]
            assert np.all(hi - lo <= gap + 1e-12)
            for i in range(9):
                for j in range(9):
                    if i != j:
                        assert f.values[i] <= lo[j] + alpha[abs(j - i)]
                        assert hi[i] <= f.values[j] + alpha[abs(j - i)]

    def test_rejects_nonmember(self):
        f = sfn([0.0, 5.0])
        phi = efn([0.0, 1.0])
        with pytest.raises(PreconditionError) as exc:
            holder_bracket(f, phi, phi)
        assert exc.value.witness.kind is WitnessKind.HOLDER

    def test_rejects_failed_folded_hypothesis(self):
        # a sharp dip at offset 2 cannot be matched by the zero companion
        phi = efn([0.0, 5.0, 0.0])
        psi = efn([0.0, 0.0, 0.0])
        f = sfn([0.0, 0.0, 0.0])
        with pytest.raises(PreconditionError) as exc:
            holder_bracket(f, phi, psi)
        assert exc.value.witness.kind is WitnessKind.HOLDER


class TestEnvelopeOverflow:
    """A monotone envelope, a bracket half or the gap bound past the double
    range raises OverflowError; a numpy warning would fail the suite."""

    f = sfn([1e308] * 3)

    def test_overflowing_candidates_lose(self):
        phi = efn([0.0, 1e308, 1.5e308])  # not star-shaped: the loop runs
        assert list(monotone_lower_envelope(self.f, phi).values) == [1e308] * 3
        with pytest.raises(OverflowError, match="overflows the double range"):
            monotone_bracket(self.f, phi, phi)

    @pytest.mark.parametrize("side", ["lower", "upper", "holder_bracket"])
    def test_overflowing_envelope(self, side):
        phi = efn([1e308, 1e308, 1.5e308])
        call = {
            "lower": lambda: monotone_lower_envelope(self.f, phi),
            "upper": lambda: monotone_upper_envelope(-self.f, phi),
            "holder_bracket": lambda: holder_bracket(self.f, phi, phi),
        }[side]
        with pytest.raises(OverflowError, match="envelope overflows the double range"):
            call()

    def test_half_row_overflow_keeps_a_finite_bracket(self):
        # row 0 over j <= 0 is 1.5e308 + 0.5e308 = inf, yet the row over
        # every j is finite: the check comes after the halves are combined
        f = sfn([1.5e308, 0.0])
        phi = efn([0.5e308, 1.6e308])
        pair = holder_bracket(f, phi, phi)
        alpha = absolutely_subadditive_envelope(phi).values
        assert same_bits(pair.upper.values, loop_forward_min(f.values, alpha, -1))
        assert same_bits(pair.lower.values, -loop_forward_min(-f.values, alpha, -1))

    def test_overflowing_gap_bound(self):
        phi = efn([1e308, 1e308, 1.5e308])
        with pytest.raises(OverflowError, match="gap bound overflows"):
            holder_bracket(sfn([0.0] * 3), phi, phi)


class TestEnvelopePreservesHypotheses:
    def test_negated_table_membership_survives_envelope(self):
        rng = np.random.default_rng(113)
        checked = 0
        while checked < 30:
            n = int(rng.integers(3, 9))
            phi = rand_error(rng, n, zero_at_origin=False)
            psi = rand_error(rng, n, zero_at_origin=False)
            pv, sv = phi.values, psi.values
            holds = all(
                pv[j] <= pv[i] + sv[j - i]
                for i in range(1, n)
                for j in range(i, n)
            )
            if not holds:
                continue
            checked += 1
            sigma = subadditive_envelope(phi).values
            for i in range(1, n):
                for j in range(i, n):
                    assert sigma[j] <= sigma[i] + sv[j - i] + 1e-12

    def test_folded_holder_membership_survives_envelope(self):
        rng = np.random.default_rng(127)
        checked = 0
        while checked < 30:
            n = int(rng.integers(3, 8))
            phi = rand_error(rng, n, zero_at_origin=False)
            psi = rand_error(rng, n, zero_at_origin=False)
            if _signed_violation(phi.values, psi.values, n, 0.0) is not None:
                continue
            checked += 1
            alpha = absolutely_subadditive_envelope(phi)
            assert _signed_violation(alpha.values, psi.values, n, 1e-12) is None


class TestSigmaOncePerSandwich:
    @pytest.mark.parametrize("shift", [-0.5, 3.0])
    def test_one_sigma_build_per_call(self, monkeypatch, shift):
        calls = []

        def counting(phi):
            calls.append(len(phi))
            return subadditive_envelope(phi)

        monkeypatch.setattr(function_envelopes, "subadditive_envelope", counting)
        rng = np.random.default_rng(97)
        grid = Grid(0.0, 1.0, 12)
        phi = rand_error(rng, 12)
        h = mono_member(rng, grid, phi)
        calls.clear()
        out, w = monotone_sandwich(SampledFn(grid, h.values + shift), h, phi)
        assert (out is None) == (shift > 0)
        assert calls == [12]


def same_bits(a, b):
    """Equal values and equal sign bits, so +0.0 and -0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def settle_and_loop(v, table):
    """`_forward_min` with its O(N) path declined, so that the settle test
    (with the rounding test on a linear table) and the row loop run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(function_envelopes, "_forward_linear", lambda *args: None)
        return _forward_min(v, table)


def strict_table(table):
    """A copy of the table with ``table[0] = inf``, as `monotone_bracket`
    builds it, so that the kernel's rows leave out offset 0."""
    strict = np.array(table, dtype=float)
    strict[0] = np.inf
    return strict


def strict_rows(v, table):
    """``min over j > i of v[j] + table[j-i]``, ``v[-1]`` for the empty last
    row: the kernel on the strict table, as the bracket's upper half."""
    out = _forward_min(v, strict_table(table))
    out[-1] = v[-1]
    return out


def with_strict_node(v, table):
    """The strict rows of the shifted pair (v, table), ``min over j >= i of
    v[j] + table[j-i]``, as rows of the kernel: one node prepended, which
    only the infinite diagonal meets."""
    return np.concatenate([[0.0], v]), np.concatenate([[np.inf], table])


@st.composite
def mirror_case(draw):
    """(f, phi) with phi[0] = 0: dyadic, non-dyadic, small-integer (many
    exact ties, so many zero differences) or all-zero values."""
    kind = draw(st.sampled_from(["dyadic", "real", "integer", "zero"]))
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        vals, table = np.zeros(n), np.zeros(n)
    elif kind == "dyadic":
        vals, table = dyadic(rng, -2, 2, n), dyadic(rng, 0, 1, n)
    elif kind == "real":
        vals, table = rng.uniform(-2, 2, n), rng.uniform(0, 1, n)
    else:
        vals, table = rng.integers(-2, 3, n) * 1.0, rng.integers(0, 3, n) * 1.0
    table[0] = 0.0
    return sfn(vals), efn(table)


def cover(phi):
    """Constant companion table max(phi): both bracket hypotheses hold."""
    return efn(np.full(len(phi), float(phi.values.max())))


class TestMirrorsMatchDirectLoops:
    """The upper sides are derived from the lower-side kernels by negation
    (and reversal); they must equal the direct loops bit for bit."""

    @given(mirror_case())
    @settings(max_examples=200, deadline=None)
    def test_monotone_upper_envelope_and_bracket(self, case):
        f, phi = case
        sig = subadditive_envelope(phi).values
        got = monotone_upper_envelope(f, phi).values
        assert same_bits(got, loop_monotone_upper(f.values, sig))
        member = monotone_lower_envelope(f, phi)
        pair = monotone_bracket(member, phi, cover(phi))
        lower, upper = loop_monotone_bracket(member.values, sig)
        assert same_bits(pair.lower.values, lower)
        assert same_bits(pair.upper.values, upper)

    @given(mirror_case())
    @settings(max_examples=200, deadline=None)
    def test_holder_upper_envelope_and_bracket(self, case):
        f, phi = case
        alpha = absolutely_subadditive_envelope(phi).values
        got = holder_upper_envelope(f, phi).values
        assert same_bits(got, loop_holder_upper_grid(f.values, phi.values))
        member = holder_lower_envelope(f, phi)
        pair = holder_bracket(member, phi, cover(phi))
        assert same_bits(pair.lower.values, loop_holder_upper(member.values, alpha))
        assert same_bits(pair.upper.values, loop_holder_lower(member.values, alpha))

    def test_derived_sides_never_return_negative_zero(self):
        # negation turns +0.0 input into -0.0, which the operators' exit
        # makes +0.0 again; -0.0 input comes out +0.0 too
        for zero in (0.0, -0.0):
            f, phi = sfn(np.full(5, zero)), efn(np.zeros(5))
            outs = [
                monotone_upper_envelope(f, phi).values,
                holder_upper_envelope(f, phi).values,
                monotone_bracket(f, phi, phi).lower.values,
                holder_bracket(f, phi, phi).lower.values,
            ]
            for out in outs:
                assert not np.signbit(out).any()

    def test_holder_bracket_zeros_are_positive(self):
        # the inputs hold zeros of both signs; both halves return +0.0
        f = sfn([0.0, -0.0])
        pair = holder_bracket(f, efn([-0.0, 0.0]), efn([1e3, 1e3]))
        assert same_bits(pair.lower.values, np.zeros(2))
        assert same_bits(pair.upper.values, np.zeros(2))


@st.composite
def signed_zero_case(draw):
    """(f, phi) holding -0.0: quarter-integer values, many of them zeros of
    either sign, and a table of ±0.0 and 0.25 with a zero at offset 0."""
    n = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.choice([0.0, -0.0, 0.25, -0.25, 1.0, -1.0], n)
    table = rng.choice([0.0, -0.0, 0.25], n)
    table[0] = draw(st.sampled_from([0.0, -0.0]))
    return sfn(vals), efn(table)


def negative_zeros(fn):
    """fn with every zero -0.0: the same values, so the same memberships."""
    return SampledFn(fn.grid, np.where(fn.values == 0.0, -0.0, fn.values))


class TestZerosArePositive:
    @given(signed_zero_case())
    @settings(max_examples=300, deadline=None)
    def test_every_returned_zero_is_positive(self, case):
        # the operators' inputs hold -0.0 in f, in the table and, for the
        # sandwiches and brackets, in the members given as bounds
        f, phi = case
        mono = negative_zeros(monotone_lower_envelope(f, phi))
        hold = negative_zeros(holder_lower_envelope(f, phi))
        mono_pair = monotone_bracket(mono, phi, cover(phi))
        hold_pair = holder_bracket(hold, phi, cover(phi))
        outs = [
            monotone_lower_envelope(f, phi),
            monotone_upper_envelope(f, phi),
            holder_lower_envelope(f, phi),
            holder_upper_envelope(f, phi),
            monotone_sandwich(mono, f, phi)[0],
            holder_sandwich(hold, f, phi)[0],
            mono_pair.lower,
            mono_pair.upper,
            hold_pair.lower,
            hold_pair.upper,
        ]
        for out in outs:
            assert not np.signbit(out.values[out.values == 0.0]).any()
        # an infeasible Hölder sandwich takes its witness rhs from the envelope
        _, w = holder_sandwich(SampledFn(f.grid, hold.values + 1.0), f, phi)
        assert w.rhs != 0.0 or math.copysign(1.0, w.rhs) == 1.0


@st.composite
def linear_sigma_case(draw):
    """(v, sigma, skip) with ``sigma[k] = fl(k * sigma[1])`` for k >= 1 and
    any ``sigma[0] >= 0``.  Kinds: dyadic and non-dyadic random walks, sines,
    near-linear ramps ``-j*c`` plus 1e-14 noise, exact plateaus ``-fl(j*c)``
    (w constant), ±0.0 values against a zero table, a table of -0.0, and
    magnitudes near 1e308."""
    kind = draw(
        st.sampled_from(
            ["dyadic", "real", "sine", "ramp", "plateau", "zeros", "negzero", "huge"]
        )
    )
    n = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = float(dyadic(rng, 0, 1, 1)[0]) if kind == "dyadic" else rng.uniform(0, 1)
    if kind == "dyadic":
        v = np.cumsum(dyadic(rng, -1, 1, n))
    elif kind == "real":
        v = np.cumsum(rng.normal(size=n)) / np.sqrt(n)
    elif kind == "sine":
        v = np.sin(np.linspace(0, rng.uniform(1, 20), n)) + 1e-3 * rng.normal(size=n)
    elif kind == "ramp":
        v = -c * np.arange(n) + 1e-14 * rng.normal(size=n)
    elif kind == "plateau":
        v = -(np.arange(n) * c)
    elif kind in ("zeros", "negzero"):
        c = 0.0 if kind == "zeros" else -0.0
        v = rng.choice([0.0, -0.0, 1.0, -1.0], size=n, p=[0.4, 0.4, 0.1, 0.1])
    else:
        c = rng.uniform(0, 1e308 / n)
        v = 1.2e308 * rng.uniform(-1, 1, size=n) - 0.5e308
    sigma = np.arange(n) * c
    sigma[0] = draw(st.sampled_from([0.0, c, 0.75]))
    if kind == "negzero":
        sigma[0] = -0.0
    return kind, v, sigma, draw(st.sampled_from([0, 1]))


class TestLinearSigmaKernel:
    """`_forward_min` on linear sigma must give the quadratic loop's values,
    whether it runs the candidate kernel or falls back to the loop; so must
    the strict bracket row built on it (skip 1).  Values are compared with
    every zero made +0.0, as the operators return them."""

    @given(linear_sigma_case())
    @settings(max_examples=400, deadline=None)
    def test_bit_equal_to_loop(self, case):
        kind, v, sigma, skip = case
        want = loop_forward_min(v, sigma, skip) + 0.0
        got = _forward_min(v, sigma) if skip == 0 else strict_rows(v, sigma)
        assert same_bits(got + 0.0, want)
        table = sigma if skip == 0 else strict_table(sigma)
        assert _linear(table, len(v))
        fast = _forward_linear(v, table)
        n = len(v)
        if kind == "plateau" and n * (n - 1) // 2 > _CANDIDATES_PER_NODE * n:
            assert fast is None  # every pair ties: the loop must take over

    def test_nonlinear_sigma_falls_back(self):
        v = np.array([0.0, 1.0, -1.0, 2.0])
        sigma = np.array([0.0, 1.0, 1.5, 2.0])
        assert not _linear(sigma, len(v))
        assert same_bits(_forward_min(v, sigma), loop_forward_min(v, sigma, 0))

    @pytest.mark.parametrize(
        "v, sigma",
        [
            ([-0.0, 0.0, -0.0, -0.0], [0.5, 0.0, -0.0, -0.0]),
            # here the candidate kernel returns +0.0 where the loop's minimum
            # is -0.0: equal values
            (
                [-0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
                [0.5, 0.0] + [-0.0] * 7,
            ),
        ],
    )
    def test_negative_zero_table_is_linear(self, v, sigma):
        # c = +0.0 with -0.0 further out: its values are linear, so the O(N)
        # path runs
        v, sigma = np.array(v), np.array(sigma)
        assert _linear(sigma, len(v))
        fast = _forward_linear(v, sigma)
        assert fast is not None
        assert same_bits(fast + 0.0, loop_forward_min(v, sigma, 0) + 0.0)

    @pytest.mark.parametrize(
        "v, c, sigma0",
        [
            ([0.0, 1.5e308, 0.0], 0.6e308, 0.0),  # v[j] + j*c overflows
            ([1.7e308] + [-1.7e308] * 19, 5e306, 0.0),  # only max|v| + N*c does
        ],
    )
    def test_overflow_falls_back(self, v, c, sigma0):
        v = np.array(v)
        sigma = np.arange(len(v)) * c
        sigma[0] = sigma0
        assert _linear(sigma, len(v))
        assert _forward_linear(v, sigma) is None
        assert same_bits(_forward_min(v, sigma), loop_forward_min(v, sigma, 0))

    @pytest.mark.parametrize("sigma0", [1e308, np.inf])
    def test_infinite_diagonal_is_accepted(self, sigma0):
        # the bound covers only the sums past the diagonal, which is summed
        # as the loop sums it: v[0] + sigma[0] overflows, or sigma[0] is the
        # strict table's inf, and only the last row keeps its diagonal
        v = np.array([1e308, 0.0, 0.0])
        sigma = np.arange(3.0)
        sigma[0] = sigma0
        fast = _forward_linear(v, sigma)
        assert fast is not None
        assert same_bits(fast, loop_forward_min(v, sigma, 0))
        assert same_bits(fast[:2], np.array([1.0, 1.0]))

    def test_node_at_its_threshold_is_a_candidate(self, monkeypatch):
        # w[1] = v[1] + c equals row 0's threshold fl(min(w[1:]) + 2B)
        # exactly (B = 1 here), so row 0 admits node 1 and its pair comes
        # first, as the search of every node gives it; a strict test
        # w[j] < thr[j-1] would drop it.  The rows keep the loop's bits
        c = 0.25
        v = np.array([2.0**50 - 1, 1.75, -0.5, 4.25])
        sigma = np.arange(4) * c
        w = v + sigma
        bound = 2.0**-50 * (np.abs(v).max() + len(v) * c) + 2.0**-1072
        assert bound == 1.0 and w[1] == w[1:].min() + 2.0 * bound
        pairs = record_linear_pairs(monkeypatch)
        fast = _forward_linear(v, sigma)
        assert same_bits(fast, loop_forward_min(v, sigma, 0))
        [(rows, sums)] = pairs
        assert rows.tolist() == [0, 0, 1, 2]
        assert same_bits(sums, np.array([2.0, 0.0, -0.25, 4.5]))

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.1])
    @pytest.mark.parametrize("sigma0", [0.0, np.inf])
    def test_steep_fall_has_one_candidate_per_row(self, monkeypatch, c, sigma0):
        # w falls by at least 0.75 a node, far more than 2B, so every node
        # but the last lies above its threshold: node N-1 is each row's only
        # candidate, and the pairs are its N-1 sums
        n = 300
        rng = np.random.default_rng(300)
        v = -np.cumsum(rng.uniform(1.0, 2.0, n))
        sigma = np.arange(n) * c
        sigma[0] = sigma0
        pairs = record_linear_pairs(monkeypatch)
        fast = _forward_linear(v, sigma)
        assert same_bits(fast, loop_forward_min(v, sigma, 0))
        [(rows, sums)] = pairs
        assert rows.tolist() == list(range(n - 1))
        assert same_bits(sums, v[-1] + sigma[:0:-1])

    def test_power_table_skips_the_loop(self, monkeypatch):
        n = 5000
        step = 1.0 / (n - 1)
        phi = power_error(PowerErrorSpec(1.0, 1.5), step, n)
        rng = np.random.default_rng(5000)
        f = SampledFn(Grid(0.0, step, n), np.cumsum(rng.normal(size=n)) / np.sqrt(n))
        masks = record_settled_rows(monkeypatch)
        lo = monotone_lower_envelope(f, phi)
        hi = monotone_upper_envelope(f, phi)
        assert masks == []
        sigma = subadditive_envelope(phi).values
        assert same_bits(lo.values, loop_forward_min(f.values, sigma, 0))
        assert same_bits(hi.values, loop_monotone_upper(f.values, sigma))

    def test_exact_plateau_calls_the_loop(self, monkeypatch):
        n = 200
        phi = efn(np.arange(n) * 0.25)
        f = sfn(-(np.arange(n) * 0.25))
        masks = record_settled_rows(monkeypatch)
        out = monotone_lower_envelope(f, phi)
        assert [len(m) for m in masks] == [n]
        assert np.array_equal(out.values, f.values)

    def test_two_node_bracket(self):
        # the strict rows run on two nodes, and `_linear` accepts the strict
        # table [inf, 0.5], whose offset 0 is free
        phi = efn([0.0, 0.5])
        for vals in ([0.0, 0.25], [1.0, 0.5], [-0.0, 0.0]):
            f = sfn(vals)
            pair = monotone_bracket(f, phi, phi)
            lower, upper = loop_monotone_bracket(f.values, phi.values)
            assert same_bits(pair.lower.values, lower + 0.0)
            assert same_bits(pair.upper.values, upper)

    def test_linear_alpha_bracket_skips_the_loop(self, monkeypatch):
        # power:1,1 at a dyadic step: alpha[k] = k * alpha[1] exactly, so
        # both halves of each two-sided row take the linear kernel
        n = 5000
        step = 2.0**-10
        phi = power_error(PowerErrorSpec(1.0, 1.0), step, n)
        rng = np.random.default_rng(5002)
        f = SampledFn(Grid(0.0, step, n), np.cumsum(rng.uniform(-0.5, 0.5, n)) * step)
        masks = record_settled_rows(monkeypatch)
        pair = holder_bracket(f, phi, phi)
        assert masks == []
        alpha = absolutely_subadditive_envelope(phi).values
        assert same_bits(pair.upper.values, loop_forward_min(f.values, alpha, 1 - n))

    def test_strict_rows_of_a_non_envelope_member_skip_the_loop(self, monkeypatch):
        # half a walk's envelope is a member but no envelope: the strict
        # table, sigma with an infinite diagonal, leaves few candidates, so
        # both bracket halves take the linear kernel
        n = 5000
        step = 1.0 / (n - 1)
        phi = power_error(PowerErrorSpec(1.0, 1.0), step, n)
        psi = ErrorFn(step, phi.values[-1] - phi.values[::-1])
        rng = np.random.default_rng(5003)
        walk = SampledFn(Grid(0.0, step, n), np.cumsum(rng.normal(size=n)) / np.sqrt(n))
        member = SampledFn(walk.grid, 0.5 * monotone_lower_envelope(walk, phi).values)
        masks = record_settled_rows(monkeypatch)
        pair = monotone_bracket(member, phi, psi)
        assert masks == []
        sigma = subadditive_envelope(phi).values
        lower, upper = loop_monotone_bracket(member.values, sigma)
        assert same_bits(pair.lower.values, lower + 0.0)
        assert same_bits(pair.upper.values, upper)


@st.composite
def rounding_case(draw):
    """(v, table) with ``table[k] = fl(k * c)`` for k >= 1, on which the
    candidate kernel would mostly decline.  Kinds: the strict (s = 1, the
    table's offset 0 inf) or envelope (s = 0) rows of the monotone envelope
    of a walk or a wave under the linear sigma of ``power:eps,p``, p in
    {1, 1.5, 2}; the same scaled to magnitudes near 1e308; quarter-integer
    ramps with exact ties; and ±0.0 values on a ramp, so that candidates
    vanish.  A strict case is drawn as its shifted pair, ``fl((k+1) * c)``,
    and given its infinite diagonal by `with_strict_node`."""
    kind = draw(st.sampled_from(["walk", "wave", "huge", "ties", "zeros"]))
    s = draw(st.sampled_from([0, 1]))
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = n + s
    if kind in ("walk", "wave", "huge"):
        step = 1.0 / (m - 1)
        p = draw(st.sampled_from([1.0, 1.5, 2.0]))
        scale = 1e307 if kind == "huge" else 1.0
        c = float(power_error(PowerErrorSpec(scale * rng.uniform(0.5, 2.0), p), step, m).values[1])
        sigma = np.arange(m) * c
        t = np.linspace(0.0, 1.0, m)
        if kind == "wave":
            f = np.sin(2 * np.pi * rng.uniform(2, 5) * t) + 0.05 * rng.normal(size=m)
        else:
            f = np.cumsum(rng.normal(size=m)) / np.sqrt(m)
        member = monotone_lower_envelope(sfn(scale * f, step=step), efn(sigma, step))
        v, table = member.values[s:], sigma[s:]
        return with_strict_node(v, table) if s else (v, table)
    c = 0.25
    table = np.arange(s, n + s) * c
    if s == 0:
        table[0] = draw(st.sampled_from([0.0, c, 0.75]))
    if kind == "ties":
        v = c * (rng.integers(-2, 3, n) - np.arange(n))
    else:
        v = rng.choice([0.0, -0.0, c, -c], n) - (np.arange(n) + s) * c
    return with_strict_node(v, table) if s else (v, table)


class TestRoundingTest:
    """`_rounding_rows` settles a row of a linear table only with the loop's
    bits; the proof is in its docstring.  The rows built on it, on the
    strict table (offset 0 inf) and the envelope table, keep the loop's bits
    too."""

    @given(rounding_case())
    @settings(max_examples=400, deadline=None)
    def test_settled_rows_equal_the_loop(self, case):
        v, table = case
        cand, ok = _rounding_rows(v, table)
        # the linear part of row i runs over j > i
        want = loop_forward_min(v, table, 1)[: len(ok)]
        assert same_bits(cand[ok], want[ok])
        full = loop_forward_min(v, table, 0) + 0.0
        assert same_bits(settle_and_loop(v, table) + 0.0, full)
        assert same_bits(_forward_min(v, table) + 0.0, full)

    @staticmethod
    def _band_edge():
        # row 1's lower bound sits exactly on the rounding midpoint below
        # its candidate (d = 0), and a sum that rounds lower exists: a row
        # settled on the wrong side of the band would take the candidate
        c = (1.0 + 3 * 2.0**-52) / 4
        v = 1.5 - np.arange(1, 5) * c + np.array([-3, -1, 3, -1]) * 2.0**-53
        return with_strict_node(v, np.arange(1, 5) * c)

    @staticmethod
    def _unnormalized_edge():
        # W[5] and W[6] lie within an ulp: ordered by the unnormalized pairs
        # (fl(v[j] + fl(j*c)), rest), node 5 comes first although W[6] is
        # smaller, and row 1's bound overshoots
        c = 0.6746251562190962
        v = np.array([100.0] * 5 + [2.0**-53, -float.fromhex("0x1.596877ee0a31ap-1")])
        table = np.arange(7) * c
        table[0] = 0.0
        return v, table

    @pytest.mark.parametrize("edge", ["_band_edge", "_unnormalized_edge"])
    def test_edge_rows_equal_the_loop(self, edge):
        v, table = getattr(self, edge)()
        cand, ok = _rounding_rows(v, table)
        want = loop_forward_min(v, table, 1)[: len(ok)]
        assert same_bits(cand[ok], want[ok])
        full = loop_forward_min(v, table, 0) + 0.0
        assert same_bits(settle_and_loop(v, table) + 0.0, full)

    @pytest.mark.parametrize("s", [0, 1])
    def test_zero_candidate_never_settles(self, s):
        # W[j] = v[j] + (j+s)*c is 3c at every node, so row i's candidate is
        # (3-i)*c, exactly: every row settles but row 3, whose candidate is
        # zero and has no half-gap below it; s = 1 takes the strict table
        c, n = 0.25, 8
        table = np.arange(s, n + s) * c
        zeros = np.array([0.0, -0.0, -0.0, 0.0])
        cases = [(3 * c - table, table), (zeros, zeros)]
        if s:
            cases = [with_strict_node(*case) for case in cases]
        cand, ok = _rounding_rows(*cases[0])
        assert cand[3] == 0.0 and not ok[3]
        assert ok[:3].all() and ok[4:].all()
        assert not _rounding_rows(*cases[1])[1].any()

    @pytest.mark.parametrize("p, share", [(1.0, 0.25), (1.5, 0.9), (2.0, 0.9)])
    def test_member_rows_settle(self, p, share):
        n = 2000
        step = 1.0 / (n - 1)
        phi = power_error(PowerErrorSpec(1.0, p), step, n)
        rng = np.random.default_rng(2000)
        f = sfn(np.cumsum(rng.normal(size=n)) / np.sqrt(n), step=step)
        member = monotone_lower_envelope(f, phi).values
        sigma = subadditive_envelope(phi).values
        for v in (member, 0.0 - member[::-1]):  # the upper and lower halves
            cand, ok = _rounding_rows(v, strict_table(sigma))
            assert ok.mean() >= share
            want = loop_forward_min(v[1:], sigma[1:], 0)
            assert same_bits(cand[ok], want[ok])

    @pytest.mark.parametrize("c", [2.0**-1000, 1e301])
    def test_inexact_products_settle_no_row(self, c):
        # below 2^-969 the product's error term may underflow; near the top
        # of the range Veltkamp's split overflows
        v = np.array([0.5, -0.25, 0.0, 0.75]) * (1.0 if c < 1 else 1e300)
        for s in (0, 1):
            table = np.arange(s, len(v) + s) * c
            w, table = with_strict_node(v, table) if s else (v, table)
            assert not _rounding_rows(w, table)[1].any()
            assert same_bits(_forward_min(w, table), loop_forward_min(w, table, 0))

    @pytest.mark.parametrize("s", [0, 1])
    def test_ramp_sums_are_exact(self, s):
        rng = np.random.default_rng(17 + s)
        n = 40
        cases = [
            (np.cumsum(rng.normal(size=n)) / 7.0, 1.0 / 4999, False),
            (rng.normal(size=n) * 1e5, 3e-20, True),  # W spans more than 106 bits
            (rng.uniform(-1e300, 1e300, n), 1.2345678901234567 * 2.0**-969, True),
            (np.zeros(n), 0.0, False),
        ]
        for v, c, rounded in cases:
            v = np.concatenate([[0.0], v]) if s else v  # the strict rows' node 0
            p, e, hi, lo, r = _ramp_sums(v, c)
            fc = Fraction(c)
            assert len(p) == n + s
            for k in range(n + s):
                assert Fraction(p[k]) + Fraction(e[k]) == k * fc
            for j in range(n + s):
                pair = Fraction(hi[j]) + Fraction(lo[j])
                assert pair + Fraction(r[j]) == Fraction(v[j]) + j * fc
                assert float(pair) == hi[j]  # normalized: hi = fl(hi + lo)
            assert r.any() == rounded
            # table[k] = p[k] for k >= 1, so e[k] is its rounding error, and
            # E the largest of them over a row's offsets
            for k, t in enumerate(np.arange(n + s) * c):
                assert t == p[k]
                assert k * fc - Fraction(t) == Fraction(e[k])


@st.composite
def row_case(draw):
    """(v, table, start) for the row shapes, start in {0, 1, 1 - N}, the
    table up to 3 offsets longer than the grid.  Kinds: tie-heavy
    quarter-integer values with zero costs, ±0.0 values and costs with -0.0
    at offset 0, values near the double range whose sums overflow, and
    normal data."""
    kind = draw(st.sampled_from(["ties", "zeros", "huge", "real"]))
    n = draw(st.integers(2, 24))
    size = n + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        v, table = rng.integers(-4, 5, n) * 0.25, rng.integers(0, 4, size) * 0.25
    elif kind == "zeros":
        v = rng.choice([0.0, -0.0, 0.5, -0.5], n)
        table = rng.choice([0.0, -0.0, 0.5], size)
        table[0] = -0.0
    elif kind == "huge":
        v, table = 1.7e308 * rng.uniform(-1, 1, n), 1.7e308 * rng.uniform(0, 1, size)
    else:
        v, table = rng.normal(size=n), np.abs(rng.normal(size=size))
    return v, table, draw(st.sampled_from([0, 1, 1 - n]))


class TestSettledRows:
    """The row loop takes a row's nearest candidate when no other can
    undercut it, and must keep the full loop's values; so must the strict
    (start 1) and two-sided (start 1 - N) rows built on the kernel.  Values
    are compared with every zero made +0.0, as the operators return them."""

    @given(row_case())
    @settings(max_examples=400, deadline=None)
    def test_bit_equal_to_the_loop(self, case):
        v, table, start = case
        want = loop_forward_min(v, table, start) + 0.0
        if start == 0:
            got = settle_and_loop(v, table)
        elif start == 1:
            got = strict_rows(v, table)
        else:
            got = _two_sided_min(v, table)
        assert same_bits(got + 0.0, want)

    @pytest.mark.parametrize(
        "v, table, start",
        [
            ([0.0, -0.5], [0.0, 0.25], 0),  # the next offset wins: settles
            ([0.0, 0.0, -1.0], [0.0, 0.5, 0.25], 1),  # strict, undercut at offset 2
            ([0.0, 0.0, -0.0], [0.0, 0.0, -0.0], 1),  # a ±0.0 tie past it: settles
            ([0.0, -0.0], [0.0, -0.0], 0),  # +0.0 nearest, -0.0 next: a tie, settles
            ([0.0, 0.0, -1.0], [0.0, 0.5, 0.25], 0),  # undercut at offset 2
            ([0.0, -1.0, 0.0], [0.0, 0.25, 0.5], 1),  # strict, offset 1 wins: settles
        ],
    )
    def test_nearest_candidate_undercut(self, v, table, start):
        # a row stays open exactly when a candidate past its two nearest is
        # strictly below both; start 1 runs on the strict table, whose
        # nearest candidate is the infinite diagonal
        v, table = np.array(v), np.array(table)
        want = loop_forward_min(v, table, start)
        rows = table if start == 0 else strict_table(table)
        near, settled = function_envelopes._settled_rows(v, rows)
        assert settled[0] == (near[0] == want[0])
        got = settle_and_loop(v, table) if start == 0 else strict_rows(v, table)
        assert same_bits(got + 0.0, want + 0.0)

    def test_flat_member_bracket_runs_no_loop_row(self, monkeypatch):
        # the member's oscillation stays below the least off-diagonal cost,
        # so every row's own node wins
        masks = record_settled_rows(monkeypatch)
        rng = np.random.default_rng(1000)
        n = 1000
        step = 1.0 / (n - 1)
        phi = ErrorFn(step, np.concatenate([[0.0], rng.uniform(0.2, 1.0, n - 1)]))
        lo = float(phi.values[1:].min())
        t = np.linspace(0.0, 1.0, n)
        wave = 0.45 * lo * np.sin(6 * np.pi * t) + 0.045 * lo * rng.uniform(-1, 1, n)
        member = SampledFn(Grid(0.0, step, n), wave)
        psi = ErrorFn(step, np.full(n, float(phi.values.max())))
        pair = holder_bracket(member, phi, psi)
        assert len(masks) == 4 and all(m.all() for m in masks)  # two rows per half
        alpha = absolutely_subadditive_envelope(phi).values
        assert same_bits(pair.upper.values, loop_holder_lower(member.values, alpha))

    def test_increasing_bracket_on_a_concave_table_runs_no_loop_row(self, monkeypatch):
        # the strict diagonal is inf and f increases, so each row's next node
        # wins, upper[i] = f[i+1] + sigma[1]; on this concave table, which is
        # not linear, only the settle test can skip the loop
        masks = record_settled_rows(monkeypatch)
        n = 500
        step = 1.0 / (n - 1)
        phi = power_error(PowerErrorSpec(0.5, 0.5), step, n)
        f = SampledFn(Grid(0.0, step, n), np.linspace(0.0, 1.0, n))
        psi = ErrorFn(step, np.full(n, 2.0 * float(phi.values.max()) + 1.0))
        pair = monotone_bracket(f, phi, psi)
        assert len(masks) == 2 and all(m.all() for m in masks)  # one per half
        lower, upper = loop_monotone_bracket(f.values, subadditive_envelope(phi).values)
        assert same_bits(pair.lower.values, lower + 0.0)
        assert same_bits(pair.upper.values, upper)


@st.composite
def sandwich_case(draw):
    """(g, h, phi, tol) on a star-shaped table: g below the envelope of h,
    on it, or pushed over it at one node by a few ulps to 1e-3, with
    non-dyadic data, so the certificate is tried on both sides of tol."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([1.0, 1.5, 2.0]))
    phi = power_error(PowerErrorSpec(rng.uniform(0.01, 0.3), p), 1.0, n)
    h = sfn(np.cumsum(rng.normal(size=n)) / np.sqrt(n))
    env = monotone_lower_envelope(h, phi).values
    g = env - draw(st.sampled_from([0.0, 1e-12, 0.5])) * rng.random(n)
    i = draw(st.integers(0, n - 1))
    g[i] = env[i] + draw(st.sampled_from([0.0, 1e-15, 1e-9, 1e-3]))
    tol = draw(st.sampled_from([0.0, 1e-15, 1e-9, 1e-3]))
    return sfn(g), h, phi, tol


class TestSandwichCertificate:
    @given(sandwich_case())
    @settings(max_examples=300, deadline=None)
    def test_verdict_and_witness_equal_the_scan(self, case):
        g, h, phi, tol = case
        sig = subadditive_envelope(phi).values
        ok, pair = scan_sandwich(g.values, h.values, sig, tol)
        out, w = monotone_sandwich(g, h, phi, tol)
        assert (out is not None) == ok
        if ok:
            assert same_bits(out.values, loop_forward_min(h.values, sig, 0))
        else:
            assert w.indices == pair

    @given(mirror_case(), st.sampled_from([0.0, 1e-9]))
    @settings(max_examples=200, deadline=None)
    def test_mirror_cases_equal_the_scan(self, case, tol):
        # zero and small-integer tables are star-shaped, so both checks may
        # certify a pass here too
        f, phi = case
        sig = subadditive_envelope(phi).values
        member = monotone_lower_envelope(f, phi)
        for x in (f, member):
            for holder, check in ((False, is_phi_monotone), (True, is_phi_holder)):
                ok, w = check(x, phi, tol)
                assert (ok, w and w.indices) == scan_check(x.values, phi.values, tol, holder)
        ok, pair = scan_sandwich(f.values, member.values, sig, tol)
        out, w = monotone_sandwich(f, member, phi, tol)
        assert (out is not None, w and w.indices) == (ok, pair)

    def test_margin_one_ulp_from_tol(self):
        # g = h + d at one node: the only positive margin is d exactly
        h = sfn(np.linspace(0.0, 1.0, 30) ** 2)
        phi = power_error(PowerErrorSpec(1.0, 2.0), 1.0, 30)
        for d in (1e-9, 0.1, 3.0):
            g = h.values.copy()
            g[7] += d
            m = g[7] - h.values[7]
            for tol in (np.nextafter(m, -np.inf), m, np.nextafter(m, np.inf)):
                out, w = monotone_sandwich(sfn(g), h, phi, float(tol))
                assert (out is None) == (m > tol)
                assert (w is None) or w.indices == (7, 7)

    def test_feasible_pair_skips_the_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("scanned a certified sandwich")

        monkeypatch.setattr(scan, "_max_violation", refuse)
        n = 5000
        step = 1.0 / (n - 1)
        phi = power_error(PowerErrorSpec(1.0, 1.5), step, n)
        rng = np.random.default_rng(5001)
        h = SampledFn(Grid(0.0, step, n), np.cumsum(rng.normal(size=n)) / np.sqrt(n))
        env = monotone_lower_envelope(h, phi)
        g = SampledFn(h.grid, env.values - 0.01 * rng.random(n))
        out, w = monotone_sandwich(g, h, phi)
        assert w is None and same_bits(out.values, env.values)


@st.composite
def tile_case(draw, max_size: int = 700):
    """(v, table) for the tiled rows, N up to max_size.  Tables: concave,
    rough, a ramp that turns flat (plateau), quarter-integer (many exact
    ties), ±0.0 and near the double range (sums overflow to inf); offset 0
    holds +0.0, -0.0 or its drawn value.  The values are a walk or noise
    whose spread ranges from far below the table's least step (most rows
    settle without their loop) to far above it (few do)."""
    n = draw(st.integers(2, max_size) | st.integers(max_size // 2, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["concave", "rough", "plateau", "ties", "zeros", "huge"]
    kind = draw(st.sampled_from(kinds))
    k = np.arange(n)
    if kind == "concave":
        table = rng.uniform(0.01, 2.0) * k ** rng.uniform(0.2, 0.9)
    elif kind == "rough":
        table = rng.uniform(0.2, 1.0, n)
    elif kind == "plateau":
        table = rng.uniform(0.01, 1.0) * np.minimum(k, rng.integers(1, n + 1))
    elif kind == "ties":
        table = rng.integers(0, 4, n) * 0.25
    elif kind == "zeros":
        table = rng.choice([0.0, -0.0], n)
    else:
        table = 1.7e308 * rng.uniform(0.0, 1.0, n)
    table[0] = draw(st.sampled_from([0.0, -0.0, float(table[0])]))
    spread = draw(st.sampled_from([1e-3, 0.3, 1.0, 30.0]))
    if kind == "huge":
        v = 1.7e308 * rng.uniform(-1.0, 1.0, n)
    elif kind in ("ties", "zeros"):
        v = rng.integers(-4, 5, n) * 0.25 * (kind == "ties")
        v += rng.choice([0.0, -0.0], n)
    elif draw(st.booleans()):
        v = spread * np.cumsum(rng.normal(size=n)) / np.sqrt(n)
    else:
        v = spread * rng.uniform(-1.0, 1.0, n)
    return v, table


class TestTiledRows:
    """The open rows of `_forward_min` are evaluated on tiles visited in
    order of a lower bound; every row, strict row and two-sided row must
    keep the loop's value (every zero +0.0), at the kernel's own tile side
    and at a side of 5, under which most tiles can be pruned."""

    @given(tile_case())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_the_loop(self, case):
        self.check(*case)

    @given(tile_case(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_at_a_small_side(self, case):
        with (
            mock.patch.object(scan, "_SIDE", 5),
            mock.patch.object(function_envelopes, "_TILE_ROWS", 2),
        ):
            self.check(*case)

    @staticmethod
    def check(v, table):
        n = len(v)
        with mock.patch.object(function_envelopes, "_forward_linear", lambda *a: None):
            got = _forward_min(v, table)
        assert same_bits(got + 0.0, loop_forward_min(v, table, 0) + 0.0)
        strict = strict_rows(v, table) + 0.0
        assert same_bits(strict, loop_forward_min(v, table, 1) + 0.0)
        two = _two_sided_min(v, table) + 0.0
        assert same_bits(two, loop_forward_min(v, table, 1 - n) + 0.0)

    def test_sparse_and_dense_open_rows_in_one_call(self, monkeypatch):
        # a flat stretch settles every row, since no later node is lower by
        # the least step; a high walk at the start leaves its rows open, and
        # so do five spikes in block 4: blocks 0 and 1 are tiled, block 4
        # runs its rows one by one
        n = 700
        rng = np.random.default_rng(2301)
        table = np.concatenate([[0.0], rng.uniform(0.5, 1.0, n - 1)])
        v = 0.01 * rng.uniform(-1.0, 1.0, n)
        v[:200] = 1.0 + np.abs(np.cumsum(rng.normal(size=200)))
        v[[520, 530, 560, 600, 630]] = 2.0
        masks = record_settled_rows(monkeypatch)
        tiles = record_row_tiles(monkeypatch)
        got = _forward_min(v, table)
        open_per_block = np.bincount(np.flatnonzero(~masks[0]) // scan._SIDE)
        assert list(open_per_block) == [128, 72, 0, 0, 5]
        assert {i // scan._SIDE for i, _ in tiles} == {0, 1}
        assert same_bits(got + 0.0, loop_forward_min(v, table, 0) + 0.0)

    def test_concave_walk_evaluates_few_tiles(self, monkeypatch):
        # the Hölder envelope of a 2000-node walk under power:0.5,0.5 is the
        # one-step row, which the table's slack proves exact: one two-sided
        # row, two halves of nb * (nb + 1) / 2 tiles each
        n = 2000
        step = 1.0 / (n - 1)
        phi = power_error(PowerErrorSpec(0.5, 0.5), step, n)
        walk = np.cumsum(np.random.default_rng(2302).normal(0, n**-0.5, n))
        f = SampledFn(Grid(0.0, step, n), walk)
        rounds = count_label_rounds(monkeypatch)
        tiles = record_row_tiles(monkeypatch)
        lower = holder_lower_envelope(f, phi).values
        nb = -(-n // scan._SIDE)
        assert rounds == [] and len(tiles) < 0.35 * 2 * nb * (nb + 1) // 2
        assert same_bits(lower, loop_holder_lower(walk, phi.values) + 0.0)


@st.composite
def certified_case(draw):
    """(f, phi) on tables that `_nondecreasing_pass` certifies or nearly:
    non-dyadic concave power tables, cumulative sums of decreasing gains,
    ramps that turn flat, and near-linear tables ``k*c - e*k^2``, with
    -0.0 at offset 0 at times; the function is a walk or noise, at
    magnitudes up to 1e7 (so that the one-step row may miss its fixpoint)."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(n)
    kind = draw(st.sampled_from(["power", "gains", "plateau", "near-linear"]))
    if kind == "power":
        table = rng.uniform(0.01, 2.0) * (k / (n - 1)) ** rng.uniform(0.1, 0.95)
    elif kind == "gains":
        gains = np.sort(rng.uniform(0.0, 1.0, n - 1))[::-1]
        table = np.concatenate([[0.0], np.cumsum(gains)])
    elif kind == "plateau":
        table = rng.uniform(0.01, 1.0) * np.minimum(k, rng.integers(1, n + 1))
    else:
        table = rng.uniform(0.1, 1.0) * k - 10.0 ** rng.uniform(-14, -8) * k * k
    table[0] = draw(st.sampled_from([0.0, -0.0]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e7]))
    if draw(st.booleans()):
        vals = scale * np.cumsum(rng.normal(size=n)) / np.sqrt(n)
    else:
        vals = scale * rng.uniform(-1.0, 1.0, n)
    return sfn(vals), efn(table)


def grid_labels(v, table):
    """All N rounds of dense label setting over the grid costs."""
    n = len(table)
    sym = np.concatenate([table[:0:-1], table])
    return dense_label_setting(v, lambda u: sym[n - 1 - u : 2 * n - 1 - u])


@st.composite
def slack_case(draw):
    """(f, phi) on tables with subadditive slack: strictly concave power
    tables ``c * k^p`` (0 < p < 1, mostly p = 0.5, exact at perfect
    squares) and constant ones, at magnitudes c = 2^-10 to 2^23 (1e-3 to
    1e7), with +-0.0 at offset 0, under f of four levels spaced by c times
    a power of two, mostly c, so that candidates tie, also at different
    levels and offsets.  Spacings far above ``2^50 * c`` make the slack
    certificate decline."""
    n = draw(st.integers(3, 24))
    c = 2.0 ** draw(st.integers(-10, 23))
    if draw(st.booleans()):
        p = draw(st.sampled_from([0.5, 0.5, draw(st.floats(0.05, 0.95))]))
        table = power_error(PowerErrorSpec(c, p), 1.0, n).values.copy()
    else:
        table = np.full(n, c)
    table[0] = draw(st.sampled_from([0.0, -0.0]))
    spacing = c * 2.0 ** draw(st.sampled_from([-1, 0, 0, 0, 1, 48, 56]))
    levels = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    return sfn(np.array(levels) * spacing), efn(table)


def slack_certified(case) -> bool:
    """Whether `_grid_lower` takes the certificate path on the case."""
    v, t = case[0].values, case[1].values
    return _nondecreasing_pass(t, 0.0) and function_envelopes._slack_pass(
        t, _two_sided_min(v, t)
    )


class TestOneStepHolderRows:
    """On a certified table the Hölder envelopes take the one-step row when
    its slack proves it exact, and label setting otherwise; values and
    sandwich witnesses must stay those of all N rounds of label setting."""

    @given(certified_case())
    @settings(max_examples=300, deadline=None)
    def test_values_and_witnesses_equal_label_setting(self, case):
        f, phi = case
        t = phi.values
        lab, root = grid_labels(f.values, t)
        upper = -grid_labels(-f.values, t)[0]
        assert same_bits(holder_lower_envelope(f, phi).values, lab + 0.0)
        assert same_bits(holder_upper_envelope(f, phi).values, upper + 0.0)
        out, w = holder_sandwich(SampledFn(f.grid, lab - 1.0), f, phi, 0.0)
        assert w is None and same_bits(out.values, lab + 0.0)
        i = int(np.argmax(f.values - lab))
        g = lab.copy()
        g[i] = lab[i] + 1.0
        out, w = holder_sandwich(SampledFn(f.grid, g), f, phi, 0.0)
        assert out is None
        assert w.indices == (i, int(root[i])) and (w.lhs, w.rhs) == (g[i], lab[i] + 0.0)

    @given(slack_case())
    @settings(max_examples=200, deadline=None)
    def test_slack_rows_and_roots_equal_label_setting(self, case):
        # every node in turn is the witness of an infeasible sandwich; where
        # the certificate passes its root comes from the row, elsewhere from
        # label setting
        f, phi = case
        v, t = f.values, phi.values
        lab, root = grid_labels(v, t)
        with pytest.MonkeyPatch.context() as mp:
            paths = record_holder_paths(mp)
            assert same_bits(holder_lower_envelope(f, phi).values, lab + 0.0)
            upper = -grid_labels(-v, t)[0]
            assert same_bits(holder_upper_envelope(f, phi).values, upper + 0.0)
            taken = paths[0]
            assert (taken == "certificate") == slack_certified(case)
            for i in range(len(v)):
                g = lab.copy()
                g[i] = np.nextafter(lab[i], np.inf)
                paths.clear()
                out, w = holder_sandwich(SampledFn(f.grid, g), f, phi, 0.0)
                assert out is None and w.indices == (i, int(root[i]))
                assert (w.lhs, w.rhs) == (g[i], lab[i] + 0.0)
                assert paths == [taken]

    def test_tied_roots_take_the_least_value_then_index(self, monkeypatch):
        # under sqrt(k), node 0 of h is reached at 2 from node 1 (1 + t[1])
        # and from node 4 (0 + t[4]): label setting settles node 4 first, so
        # the root is the least value, not the least index.  In the second
        # case (the CI workflow's peaks under power:1,0.5 at step 0.5) nodes
        # 0 and 2 tie at equal values, and the first index wins
        paths = record_holder_paths(monkeypatch)
        for step, g, h, pair in (
            (1.0, [2.5, 0, 0, 0, 0, 0], [3, 1, 9, 9, 0, 9], (0, 4)),
            (0.5, [0, 1.75, 0, 0, 0], [0, 2, 0, 2, 0], (1, 0)),
        ):
            n = len(h)
            phi = power_error(PowerErrorSpec(1.0, 0.5), step, n)
            root = grid_labels(np.array(h, dtype=float), phi.values)[1]
            grid = Grid(0.0, step, n)
            paths.clear()
            _, w = holder_sandwich(SampledFn(grid, g), SampledFn(grid, h), phi)
            assert w.indices == pair == (pair[0], int(root[pair[0]]))
            assert paths == ["certificate"]

    def test_slack_cases_draw_passes_and_declines(self):
        assert slack_certified(find(slack_case(), slack_certified))
        assert not slack_certified(find(slack_case(), lambda c: not slack_certified(c)))

    def test_certified_power_tables_take_the_row(self, monkeypatch):
        rounds = count_label_rounds(monkeypatch)
        paths = record_holder_paths(monkeypatch)
        rng = np.random.default_rng(2303)
        for n in (2, 3, 50, 400):
            step = 1.0 / (n - 1)
            phi = power_error(PowerErrorSpec(0.5, 0.5), step, n)
            f = SampledFn(Grid(0.0, step, n), np.cumsum(rng.normal(0, n**-0.5, n)))
            env = holder_lower_envelope(f, phi).values
            assert same_bits(env, grid_labels(f.values, phi.values)[0] + 0.0)
        # a two-offset table cannot pass the window certificate at tol 0
        assert paths == ["label setting"] + ["certificate"] * 3 and len(rounds) == 1

    def test_tables_without_slack_decline_the_certificate(self, monkeypatch):
        # power:1,1 on a dyadic step has t[a] + t[b] - t[a+b] = 0 exactly,
        # so the window certificate declines it at tol 0 and label setting
        # runs for every node, roots included.  The sqrt table passes it,
        # but under f near 2^42 its slack (about phi[1] = 0.0625) is below
        # the rounding allowance 2^-50 * N * max|f| = 0.25, so label setting
        # runs there too
        n = 64
        step = 2.0**-6
        grid = Grid(0.0, step, n)
        rng = np.random.default_rng(26)
        rounds = count_label_rounds(monkeypatch)
        paths = record_holder_paths(monkeypatch)
        near_2_42 = 2.0**42 + rng.integers(-8, 9, n) * 2.0**-4
        for (eps, p), vals, want in (
            ((1.0, 1.0), dyadic(rng, -1, 1, n), ["label setting"] * 2),
            ((0.5, 0.5), near_2_42, ["label setting"] * 2),
        ):
            phi = power_error(PowerErrorSpec(eps, p), step, n)
            f = SampledFn(grid, vals)
            lab, root = grid_labels(vals, phi.values)
            paths.clear()
            rounds.clear()
            assert same_bits(holder_lower_envelope(f, phi).values, lab + 0.0)
            i = int(np.argmax(vals - lab))
            assert vals[i] > lab[i]
            g = lab.copy()
            g[i] += 1.0
            _, w = holder_sandwich(SampledFn(grid, g), f, phi, 0.0)
            assert paths == want and len(rounds) == len(want)
            assert w.indices == (i, int(root[i]))

    def test_certified_table_missing_its_fixpoint_runs_label_setting(self, monkeypatch):
        # t[2] is 1e-12 below 2 * t[1], a strict concavity the certificate
        # proves; at -9545999.5 the one-step row gives node 2
        # fl(v[0] + t[2]), while two steps of 0.7 round lower, so the row is
        # no fixpoint and label setting must run; the slack is far below
        # the row's rounding, so the slack certificate declines
        t = np.array([0.0, 0.7, 1.3999999999989998])
        f = sfn([-9545999.5, 0.0, 0.0])
        assert _nondecreasing_pass(t, 0.0)
        one_step = _two_sided_min(f.values, t)
        assert not np.array_equal(_two_sided_min(one_step, t), one_step)
        rounds = count_label_rounds(monkeypatch)
        paths = record_holder_paths(monkeypatch)
        lab, root = grid_labels(f.values, t)
        lower = holder_lower_envelope(f, efn(t)).values
        assert len(rounds) == 1 and same_bits(lower, lab + 0.0)
        assert paths == ["label setting"]
        assert lower[2] < one_step[2] and list(root) == [0, 0, 0]
