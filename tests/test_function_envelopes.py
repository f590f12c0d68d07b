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
from approxmono import function_envelopes
from approxmono.function_envelopes import _check_folded_table_holder
from helpers import (
    bellman_ford_alpha,
    dyadic,
    loop_holder_upper,
    loop_monotone_bracket,
    loop_monotone_upper,
    mono_member,
    rand_concave_increasing_error,
    rand_error,
    rand_fn,
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
            alpha = absolutely_subadditive_envelope(phi)
            f = rand_fn(rng, grid)
            lo = holder_lower_envelope(f, phi)
            assert np.all(lo.values <= f.values)
            assert is_phi_holder(lo, alpha, 0.0)[0]
            assert is_phi_holder(lo, phi, 0.0)[0]
            assert np.array_equal(holder_lower_envelope(lo, phi).values, lo.values)


class TestTableLongerThanGrid:
    """A table with more offsets than the grid acts as the table cut to N."""

    def test_envelopes_and_sandwich_use_the_cut_table(self):
        rng = np.random.default_rng(79)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            grid = Grid(0.0, 1.0, n)
            phi = rand_error(rng, n + int(rng.integers(1, 2 * n + 2)))
            alpha = bellman_ford_alpha(phi.values[:n], n - 1)
            shifts = alpha[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
            f = rand_fn(rng, grid)
            lower = (f.values + shifts).min(axis=1)
            upper = (f.values - shifts).max(axis=1)
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
            alpha = absolutely_subadditive_envelope(phi).values
            holds = all(
                g.values[i] <= h.values[j] + alpha[abs(j - i)]
                for i in range(8)
                for j in range(8)
            )
            out, w = holder_sandwich(g, h, phi, tol=0.0)
            assert (out is not None) == holds
            if out is not None:
                feasible += 1
                assert is_phi_holder(out, phi, 0.0)[0]
                assert np.all(g.values <= out.values)
                assert np.all(out.values <= h.values)
            else:
                infeasible += 1
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
            try:
                _check_folded_table_holder(phi, psi, n, 0.0)
            except PreconditionError:
                continue
            checked += 1
            alpha = absolutely_subadditive_envelope(phi)
            _check_folded_table_holder(alpha, psi, n, 1e-12)


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
        assert same_bits(got, loop_holder_upper(f.values, alpha))
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
