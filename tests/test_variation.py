import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxmono import error_envelopes, variation
from approxmono import (
    ErrorFn,
    Grid,
    Partition,
    PowerErrorSpec,
    PreconditionError,
    SampledFn,
    delta_variation_bound,
    is_holder_via_variation,
    is_phi_holder,
    is_phi_monotone,
    jordan_decompose,
    monotone_lower_envelope,
    phi_variation,
    power_error,
    subadditive_envelope,
    total_phi_variation,
)
from helpers import (
    SCALE,
    brute_variation,
    dyadic,
    loop_variation,
    mono_member,
    rand_error,
    rand_fn,
    same_bits,
    star_shaped_table,
)


def efn(vals, step=1.0):
    return ErrorFn(step, vals)


def sfn(vals, origin=0.0, step=1.0):
    return SampledFn(Grid(origin, step, len(vals)), vals)


class TestPartition:
    def test_requires_two_indices(self):
        with pytest.raises(ValueError):
            Partition((3,))

    def test_requires_strict_increase(self):
        with pytest.raises(ValueError):
            Partition((0, 2, 2))

    def test_out_of_grid_rejected_at_use(self):
        f = sfn([0.0, 1.0])
        with pytest.raises(ValueError):
            phi_variation(f, Partition((0, 5)), efn([0.0, 0.0]))


class TestPhiVariation:
    def test_classical_up_down(self):
        f = sfn([0.0, 1.0, 0.0])
        assert phi_variation(f, Partition((0, 1, 2)), efn([0.0, 0.0, 0.0])) == 2.0

    def test_coarse_partition_goes_negative(self):
        f = sfn([0.0, 1.0, 0.0])
        assert phi_variation(f, Partition((0, 2)), efn([0.0, 1.0, 2.0])) == -2.0

    def test_single_interval_nonpositive_for_holder_member(self):
        rng = np.random.default_rng(131)
        grid = Grid(0.0, 1.0, 8)
        for _ in range(20):
            phi = rand_error(rng, 8)
            f = monotone_lower_envelope(rand_fn(rng, grid), phi)
            if not is_phi_holder(f, phi, 0.0)[0]:
                continue
            for a in range(8):
                for b in range(a + 1, 8):
                    assert phi_variation(f, Partition((a, b)), phi) <= 0.0


class TestTotalVariation:
    def test_zero_table_counts_both_moves(self):
        table = total_phi_variation(sfn([0.0, 1.0, 0.0]), efn([0.0, 0.0, 0.0]))
        assert list(table.prefix) == [0.0, 1.0, 2.0]

    def test_allowance_cancels_every_refinement(self):
        table = total_phi_variation(sfn([0.0, 1.0, 0.0]), efn([0.0, 1.0, 2.0]))
        assert list(table.prefix) == [0.0, 0.0, 0.0]

    def test_nondecreasing_telescopes(self):
        f = sfn([0.0, 0.5, 2.0, 2.0, 3.0])
        table = total_phi_variation(f, efn(np.zeros(5)))
        assert np.array_equal(table.prefix, f.values - f.values[0])

    def test_value_accessor(self):
        f = sfn([0.0, 1.0, 0.0, 2.0])
        table = total_phi_variation(f, efn(np.zeros(4)), start=1, end=3)
        assert table.start_index == 1
        assert table.value(1) == 0.0
        assert table.value(3) == table.total
        with pytest.raises(ValueError):
            table.value(0)

    def test_invalid_range(self):
        f = sfn([0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            total_phi_variation(f, efn(np.zeros(3)), start=2, end=2)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(137)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            f = rand_fn(rng, Grid(0.0, 1.0, n))
            phi = rand_error(rng, n, hi=0.5, zero_at_origin=False)
            table = total_phi_variation(f, phi)
            for b in range(1, n):
                assert table.prefix[b] == brute_variation(f.values, phi.values, 0, b)

    def test_superadditive_over_concatenation(self):
        rng = np.random.default_rng(139)
        for _ in range(40):
            n = int(rng.integers(3, 12))
            f = rand_fn(rng, Grid(0.0, 1.0, n))
            phi = rand_error(rng, n, hi=0.5, zero_at_origin=False)
            rows = [total_phi_variation(f, phi, a, n - 1).prefix for a in range(n - 1)]

            def vv(a, b):
                return rows[a][b - a]

            for a in range(n - 2):
                for b in range(a + 1, n - 1):
                    for c in range(b + 1, n):
                        assert vv(a, b) + vv(b, c) <= vv(a, c)


class TestHolderViaVariation:
    def test_examples(self):
        assert not is_holder_via_variation(sfn([0.0, 2.0]), efn([0.0, 1.0]), 0.0)
        assert is_holder_via_variation(sfn([3.0, 3.0, 3.0]), efn([0.0, 0.0, 0.0]), 0.0)

    def test_agrees_with_pairwise_check(self):
        rng = np.random.default_rng(149)
        agree_true = agree_false = 0
        for trial in range(120):
            n = int(rng.integers(2, 10))
            grid = Grid(0.0, 1.0, n)
            phi = rand_error(rng, n, hi=1.0, zero_at_origin=False)
            if trial % 2:
                f = rand_fn(rng, grid, amp=0.5)
            else:
                f = holder_member(rng, grid, phi)
            direct = is_phi_holder(f, phi, 1e-9)[0]
            via = is_holder_via_variation(f, phi, 1e-9)
            assert direct == via
            agree_true += direct
            agree_false += not direct
        assert agree_true and agree_false


def holder_member(rng, grid, phi):
    from approxmono import holder_lower_envelope

    if phi.values[0] != 0.0:
        phi = ErrorFn(phi.grid_step, np.concatenate([[0.0], phi.values[1:]]))
    return holder_lower_envelope(rand_fn(rng, grid), phi)


@st.composite
def any_table_case(draw, max_size=12):
    """(f, phi): a dyadic f and a dyadic table, star-shaped or arbitrary."""
    if draw(st.booleans()):
        vals = draw(star_shaped_table(max_size=max_size))
    else:
        n = draw(st.integers(2, max_size))
        ints = draw(st.lists(st.integers(0, 1 << 17), min_size=n, max_size=n))
        vals = np.array(ints, dtype=float) * SCALE
    n = len(vals)
    ints = draw(st.lists(st.integers(-(1 << 17), 1 << 17), min_size=n, max_size=n))
    return sfn(np.array(ints, dtype=float) * SCALE), efn(vals)


@st.composite
def variation_case(draw):
    """(f, phi, tol) on up to 11 nodes: the dyadic cases above, or
    non-dyadic ones, where rounding can matter.  Kinds: increments within a
    few ulps of phi[1] on a linear (star-shaped) table, plain normal data
    on an arbitrary positive table, and either of them at tol 0, 1e-9 or
    0.5."""
    kind = draw(st.sampled_from(["dyadic", "near", "real"]))
    if kind == "dyadic":
        f, phi = draw(any_table_case(max_size=11))
        return f, phi, draw(st.integers(0, 1 << 18)) * SCALE
    n = draw(st.integers(2, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "near":
        c = rng.uniform(0.1, 2.0)
        steps = c * (1.0 + 1e-15 * rng.integers(-4, 5, n - 1))
        f = rng.uniform(-1, 1) + np.concatenate([[0.0], np.cumsum(steps)])
        table = np.arange(n) * c
    else:
        f, table = rng.normal(size=n), np.abs(rng.normal(size=n))
    return sfn(f), efn(table), draw(st.sampled_from([0.0, 1e-9, 0.5]))


class TestHolderViaVariationContract:
    def test_star_table_rounding_does_not_hide_a_pair(self):
        # phi[k] = k * phi[1]: the unit-step running sum of
        # |f[i] - f[i-1]| - phi[1] rounds to 0.0, yet pair (0, 3) fails by
        # 8.9e-16, and the variation of [0, 3] is at least that margin
        f = sfn([0.8515230085544946, 2.3387764551504606, 3.8260299017464265, 5.3132833483423925])
        phi = efn(np.arange(4) * 1.487253446595966)
        assert not is_phi_holder(f, phi, 0.0)[0]
        assert not is_holder_via_variation(f, phi, 0.0)

    @given(variation_case())
    @settings(max_examples=400, deadline=None)
    def test_verdict_equals_the_loop_over_starts(self, case):
        f, phi, tol = case
        n = f.grid.count
        starts = [loop_variation(f.values, phi.values, a, n - 1)[1:].max() for a in range(n - 1)]
        via = is_holder_via_variation(f, phi, tol)
        assert via == (max(starts) <= tol)
        if via:
            assert is_phi_holder(f, phi, tol)[0]
        if n <= 8:
            ranges = [
                brute_variation(f.values, phi.values, a, b)
                for a in range(n - 1)
                for b in range(a + 1, n)
            ]
            assert max(ranges) == max(starts)

    def test_tolerance_is_not_additive(self):
        # the range [0, 2] has variation 1.8e-9, the sum of its pair margins
        f, phi = sfn([0.0, 0.9e-9, 0.0]), efn([0.0, 0.0, 0.0])
        assert is_phi_holder(f, phi) == (True, None)
        assert not is_holder_via_variation(f, phi)
        assert not is_phi_holder(f, phi, 0.0)[0]
        assert not is_holder_via_variation(f, phi, 0.0)

    @given(any_table_case(), st.integers(0, 1 << 18))
    @settings(max_examples=300, deadline=None)
    def test_true_implies_pair_check_passes(self, case, tol_units):
        f, phi = case
        tol = tol_units * SCALE
        if is_holder_via_variation(f, phi, tol):
            assert is_phi_holder(f, phi, tol)[0]


class TestJordanDecompose:
    def test_nondecreasing_zero_table(self):
        f = sfn([1.0, 2.0, 4.0, 4.5])
        pair = jordan_decompose(f, efn(np.zeros(4)))
        assert np.array_equal(pair.g.values, f.values - f.values[0] / 2)
        assert np.array_equal(pair.h.values, np.full(4, -f.values[0] / 2))
        assert np.array_equal(pair.g.values - pair.h.values, f.values)

    def test_up_down_with_allowance(self):
        f = sfn([0.0, 1.0, 0.0])
        phi = efn([0.0, 1.0, 2.0])
        # variation for the doubled table, by enumeration: [0, -1, -2]
        doubled = 2.0 * phi.values
        v = np.array([brute_variation(f.values, doubled, 0, b) for b in range(1, 3)])
        assert list(v) == [-1.0, -2.0]
        pair = jordan_decompose(f, phi)
        assert list(pair.g.values) == [0.0, 0.0, -1.0]
        assert list(pair.h.values) == [0.0, -1.0, -1.0]
        assert is_phi_monotone(pair.g, phi, 0.0)[0]
        assert is_phi_monotone(pair.h, phi, 0.0)[0]

    def test_anchor_shifts_domain(self):
        f = sfn([5.0, 0.0, 1.0, 0.5])
        pair = jordan_decompose(f, efn(np.ones(4)), anchor=1)
        assert pair.g.grid.count == 3
        assert pair.g.grid.origin == 1.0
        assert np.array_equal(pair.g.values - pair.h.values, f.values[1:])

    def test_table_longer_than_grid(self):
        # offsets past the last node never enter: doubling the whole table
        # would overflow on its last row
        f = sfn([0.0, 1.0, 0.5])
        long_pair = jordan_decompose(f, efn([0.0, 1.0, 1.0, 1e308]))
        pair = jordan_decompose(f, efn([0.0, 1.0, 1.0]))
        assert list(long_pair.g.values) == list(pair.g.values) == [0.0, 0.0, -0.5]
        assert list(long_pair.h.values) == list(pair.h.values)

    def test_anchor_at_last_node_rejected(self):
        f = sfn([0.0, 1.0])
        with pytest.raises(ValueError):
            jordan_decompose(f, efn(np.zeros(2)), anchor=1)

    def test_random_halves_are_members(self):
        rng = np.random.default_rng(151)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            grid = Grid(0.0, 1.0, n)
            f = rand_fn(rng, grid)
            phi = rand_error(rng, n, zero_at_origin=False)
            anchor = int(rng.integers(0, n - 1))
            pair = jordan_decompose(f, phi, anchor)
            assert np.array_equal(pair.g.values - pair.h.values, f.values[anchor:])
            assert is_phi_monotone(pair.g, phi, 1e-9)[0]
            assert is_phi_monotone(pair.h, phi, 1e-9)[0]


class TestDeltaVariationBound:
    def test_equal_halves_cancel(self):
        rng = np.random.default_rng(157)
        grid = Grid(0.0, 1.0, 7)
        phi = rand_error(rng, 7)
        gq = mono_member(rng, grid, phi)
        total, bound = delta_variation_bound(gq, gq, phi, phi)
        assert total <= 0.0 <= bound or (total <= bound)

    def test_telescoping_equality(self):
        gq = sfn([0.0, 1.0, 1.5, 3.0])
        hq = sfn([0.0, 0.0, 0.0, 0.0])
        z = efn(np.zeros(4))
        total, bound = delta_variation_bound(gq, hq, z, z)
        assert total == bound == 3.0

    def test_random_bound_holds(self):
        rng = np.random.default_rng(163)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            grid = Grid(0.0, 1.0, n)
            phi = rand_error(rng, n)
            psi = rand_error(rng, n)
            gq = mono_member(rng, grid, phi)
            hq = mono_member(rng, grid, psi)
            total, bound = delta_variation_bound(gq, hq, phi, psi)
            assert total <= bound + 1e-9

    def test_rejects_nonmember_with_witness(self):
        gq = sfn([1.0, 0.0])
        hq = sfn([0.0, 0.0])
        z = efn(np.zeros(2))
        with pytest.raises(PreconditionError) as exc:
            delta_variation_bound(gq, hq, z, z)
        assert exc.value.witness is not None


class TestOverflow:
    """Sums that leave the double range raise OverflowError, not a
    misleading non-finite-value error from re-wrapping the result."""

    def test_total_variation_and_jordan(self):
        f = sfn([1e308, -1e308, 1e308])
        phi = efn(np.zeros(3))
        with pytest.raises(OverflowError):
            total_phi_variation(f, phi)
        with pytest.raises(OverflowError):
            jordan_decompose(f, phi)

    def test_doubled_table_in_jordan(self):
        with pytest.raises(OverflowError):
            jordan_decompose(sfn([0.0, 1.0, 2.0]), efn([0.0, 1e308, 1e308]))

    def test_partition_variation(self):
        f = sfn([1e308, -1e308, 1e308])
        with pytest.raises(OverflowError, match="overflows the double range"):
            phi_variation(f, Partition((0, 1, 2)), efn(np.zeros(3)))

    def test_delta_bound(self):
        q = sfn([0.0, 0.75e308, 1.5e308])
        zero = efn(np.zeros(3))
        with pytest.raises(OverflowError, match="overflows the double range"):
            delta_variation_bound(q, q, zero, zero)

    def test_large_finite_values_still_pass(self):
        f = sfn([1e307, -1e307, 1e307])
        table = total_phi_variation(f, efn(np.zeros(3)))
        assert list(table.prefix) == [0.0, 2e307, 4e307]


@st.composite
def star_case(draw, max_size=64):
    """(f, phi, start, end): a star-shaped dyadic table and a dyadic f."""
    vals = draw(star_shaped_table(max_size=max_size))
    n = len(vals)
    ints = draw(st.lists(st.integers(-(1 << 17), 1 << 17), min_size=n, max_size=n))
    start = draw(st.integers(0, n - 2))
    end = draw(st.integers(start + 1, n - 1))
    return sfn(np.array(ints, dtype=float) * SCALE), efn(vals), start, end


class TestLinearVariation:
    """With phi[k] >= k * phi[1] the finest partition is optimal, so the
    variation is a running sum; the quadratic program is the oracle."""

    @given(star_case())
    @settings(max_examples=300, deadline=None)
    def test_star_shaped_dyadic_equals_loop(self, case):
        f, phi, start, end = case
        got = total_phi_variation(f, phi, start, end).prefix
        assert same_bits(got, loop_variation(f.values, phi.values, start, end))
        if end - start < 10:
            for i in range(start + 1, end + 1):
                want = brute_variation(f.values, phi.values, start, i)
                assert got[i - start] == want

    @given(star_case())
    @settings(max_examples=200, deadline=None)
    def test_jordan_halves_equal_loop_halves(self, case):
        f, phi, anchor, _ = case
        n = f.grid.count
        prefix = loop_variation(f.values, 2.0 * phi.values, anchor, n - 1)
        seg = f.values[anchor:]
        pair = jordan_decompose(f, phi, anchor)
        assert same_bits(pair.g.values, 0.5 * (prefix + seg))
        assert same_bits(pair.h.values, 0.5 * (prefix - seg))

    @given(star_case(max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_holder_via_variation_agrees_with_pair_check(self, case):
        f, phi, _, _ = case
        assert is_holder_via_variation(f, phi, 0.0) == is_phi_holder(f, phi, 0.0)[0]

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [7, 300, 2000])
    def test_power_tables_within_rounding(self, p, n):
        step = 1.0 / (n - 1)
        rng = np.random.default_rng(int(10 * p) + n)
        f = sfn(np.cumsum(rng.normal(size=n)) * step**0.5, step=step)
        phi = power_error(PowerErrorSpec(0.3, p), step, n)
        got = total_phi_variation(f, phi).prefix
        scale = np.abs(np.diff(f.values)).sum() + n * phi.values[1]
        gap = np.abs(got - loop_variation(f.values, phi.values, 0, n - 1)).max()
        assert gap <= n * 2.0**-52 * scale


class TestStarShapedTablesSkipTheLoops:
    def test_power_1_5_at_5000_nodes(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("quadratic loop entered")

        monkeypatch.setattr(error_envelopes, "_sigma_loop", forbidden)
        monkeypatch.setattr(variation, "_variation_loop", forbidden)
        n = 5000
        step = 1.0 / (n - 1)
        phi = power_error(PowerErrorSpec(1.0, 1.5), step, n)
        f = sfn(np.sin(np.arange(n) * 0.01), step=step)
        subadditive_envelope(phi)
        monotone_lower_envelope(f, phi)
        total_phi_variation(f, phi, 17, n - 1)
        jordan_decompose(f, phi, 3)
        member = monotone_lower_envelope(f, phi)
        delta_variation_bound(member, member, phi, phi)
