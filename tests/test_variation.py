import numpy as np
import pytest

from approxmono import (
    ErrorFn,
    Partition,
    PreconditionError,
    SampledFn,
    delta_variation_bound,
    is_holder_via_variation,
    is_phi_holder,
    is_phi_monotone,
    jordan_decompose,
    make_grid,
    monotone_lower_envelope,
    phi_variation,
    total_phi_variation,
)
from helpers import brute_variation, dyadic, mono_member, rand_error, rand_fn


def efn(vals, step=1.0):
    return ErrorFn(step, vals)


def sfn(vals, origin=0.0, step=1.0):
    return SampledFn(make_grid(origin, step, len(vals)), vals)


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
        grid = make_grid(0.0, 1.0, 8)
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
            f = rand_fn(rng, make_grid(0.0, 1.0, n))
            phi = rand_error(rng, n, hi=0.5, zero_at_origin=False)
            table = total_phi_variation(f, phi)
            for b in range(1, n):
                assert table.prefix[b] == brute_variation(f.values, phi.values, 0, b)

    def test_superadditive_over_concatenation(self):
        rng = np.random.default_rng(139)
        for _ in range(40):
            n = int(rng.integers(3, 12))
            f = rand_fn(rng, make_grid(0.0, 1.0, n))
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
            grid = make_grid(0.0, 1.0, n)
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

    def test_anchor_at_last_node_rejected(self):
        f = sfn([0.0, 1.0])
        with pytest.raises(ValueError):
            jordan_decompose(f, efn(np.zeros(2)), anchor=1)

    def test_random_halves_are_members(self):
        rng = np.random.default_rng(151)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            grid = make_grid(0.0, 1.0, n)
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
        grid = make_grid(0.0, 1.0, 7)
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
            grid = make_grid(0.0, 1.0, n)
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

    def test_large_finite_values_still_pass(self):
        f = sfn([1e307, -1e307, 1e307])
        table = total_phi_variation(f, efn(np.zeros(3)))
        assert list(table.prefix) == [0.0, 2e307, 4e307]
