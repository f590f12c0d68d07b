import numpy as np
import pytest
from hypothesis import given, settings
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
from approxmono.error_envelopes import _signed_violation
from approxmono.function_envelopes import (
    _CANDIDATES_PER_NODE,
    _forward_linear,
    _forward_min,
    _forward_min_loop,
)
from helpers import (
    brute_grid_distances,
    brute_grid_holder_lower,
    dyadic,
    loop_holder_upper,
    loop_holder_upper_grid,
    loop_monotone_bracket,
    loop_monotone_upper,
    mono_member,
    rand_concave_increasing_error,
    rand_error,
    rand_fn,
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

    def test_derived_sides_never_return_negative_zero(self):
        # without the +0.0 after negation, +0.0 input comes back as -0.0;
        # -0.0 input comes out +0.0, as from the lower sides
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
    """`_forward_min` on linear sigma must give the quadratic loop's bits,
    whether it runs the candidate kernel or falls back to the loop."""

    @given(linear_sigma_case())
    @settings(max_examples=400, deadline=None)
    def test_bit_equal_to_loop(self, case):
        kind, v, sigma, skip = case
        want = _forward_min_loop(v, sigma, skip)
        assert same_bits(_forward_min(v, sigma, skip), want)
        fast = _forward_linear(v, sigma, skip)
        if kind == "negzero":
            assert fast is None  # a -0.0 sum could break a tie's sign
        n = len(v)
        if kind == "plateau" and n * (n - 1) // 2 > _CANDIDATES_PER_NODE * n:
            assert fast is None  # every pair ties: the loop must take over

    def test_nonlinear_sigma_falls_back(self):
        v = np.array([0.0, 1.0, -1.0, 2.0])
        sigma = np.array([0.0, 1.0, 1.5, 2.0])
        assert _forward_linear(v, sigma, 0) is None
        assert same_bits(_forward_min(v, sigma, 0), _forward_min_loop(v, sigma, 0))

    @pytest.mark.parametrize(
        "v, c, sigma0",
        [
            ([0.0, 1.5e308, 0.0], 0.6e308, 0.0),  # v[j] + j*c overflows
            ([1.7e308] + [-1.7e308] * 19, 5e306, 0.0),  # only max|v| + N*c does
            ([1e308, 0.0, 0.0], 1.0, 1e308),  # the diagonal v[i] + sigma[0] does
        ],
    )
    def test_overflow_falls_back(self, v, c, sigma0):
        v = np.array(v)
        sigma = np.arange(len(v)) * c
        sigma[0] = sigma0
        assert _forward_linear(v, sigma, 0) is None
        assert same_bits(_forward_min(v, sigma, 0), _forward_min_loop(v, sigma, 0))

    @staticmethod
    def _count_loop_calls(monkeypatch):
        calls = []

        def counting(v, sigma, skip):
            calls.append(len(v))
            return _forward_min_loop(v, sigma, skip)

        monkeypatch.setattr(function_envelopes, "_forward_min_loop", counting)
        return calls

    def test_power_table_skips_the_loop(self, monkeypatch):
        n = 5000
        step = 1.0 / (n - 1)
        phi = power_error(PowerErrorSpec(1.0, 1.5), step, n)
        rng = np.random.default_rng(5000)
        f = SampledFn(Grid(0.0, step, n), np.cumsum(rng.normal(size=n)) / np.sqrt(n))
        calls = self._count_loop_calls(monkeypatch)
        lo = monotone_lower_envelope(f, phi)
        hi = monotone_upper_envelope(f, phi)
        assert calls == []
        sigma = subadditive_envelope(phi).values
        assert same_bits(lo.values, _forward_min_loop(f.values, sigma, 0))
        assert same_bits(hi.values, loop_monotone_upper(f.values, sigma))

    def test_exact_plateau_calls_the_loop(self, monkeypatch):
        n = 200
        phi = efn(np.arange(n) * 0.25)
        f = sfn(-(np.arange(n) * 0.25))
        calls = self._count_loop_calls(monkeypatch)
        out = monotone_lower_envelope(f, phi)
        assert calls == [n]
        assert np.array_equal(out.values, f.values)


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
            assert same_bits(out.values, _forward_min_loop(h.values, sig, 0))
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
