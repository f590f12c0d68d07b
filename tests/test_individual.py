import numpy as np

from approxmono import (
    ErrorFn,
    Grid,
    SampledFn,
    individual_alpha,
    individual_sigma,
    is_phi_holder,
    is_phi_monotone,
    is_subadditive,
    monotone_lower_envelope,
    subadditive_envelope,
)
from helpers import dyadic, mono_member, rand_error, rand_fn


def sfn(vals, step=1.0):
    return SampledFn(Grid(0.0, step, len(vals)), vals)


class TestIndividualSigma:
    def test_nondecreasing_gives_zero(self):
        out = individual_sigma(sfn([0.0, 1.0, 1.0, 5.0]))
        assert np.array_equal(out.values, np.zeros(4))

    def test_linear_decrease(self):
        h = 0.5
        vals = [-i * h for i in range(6)]
        out = individual_sigma(sfn(vals, step=h))
        assert np.array_equal(out.values, h * np.arange(6))
        assert out.grid_step == h

    def test_dip_and_recovery(self):
        out = individual_sigma(sfn([0.0, -3.0, 1.0]))
        assert list(out.values) == [0.0, 3.0, 0.0]

    def test_membership_at_zero_tolerance(self):
        rng = np.random.default_rng(167)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            f = SampledFn(Grid(0.0, 1.0, n), rng.normal(size=n))
            out = individual_sigma(f)
            assert is_phi_monotone(f, out, 0.0)[0]

    def test_subadditive_and_its_own_envelope(self):
        rng = np.random.default_rng(173)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            f = rand_fn(rng, Grid(0.0, 1.0, n))
            out = individual_sigma(f)
            assert is_subadditive(out, 0.0)[0]
            assert np.array_equal(subadditive_envelope(out).values, out.values)

    def test_minimal_among_passing_tables(self):
        rng = np.random.default_rng(179)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(40):
            phi = rand_error(rng, 9)
            f = mono_member(rng, grid, phi)
            out = individual_sigma(f)
            assert np.all(out.values <= phi.values)
            assert np.all(out.values <= subadditive_envelope(phi).values)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(181)
        grid = Grid(0.0, 1.0, 8)
        for _ in range(30):
            f = rand_fn(rng, grid)
            c = float(dyadic(rng, -4, 4, 1)[0])
            shifted = SampledFn(grid, f.values + c)
            assert np.array_equal(
                individual_sigma(f).values, individual_sigma(shifted).values
            )

    def test_envelope_fixed_point_bound(self):
        rng = np.random.default_rng(191)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(30):
            phi = rand_error(rng, 9)
            f = monotone_lower_envelope(rand_fn(rng, grid), phi)
            out = individual_sigma(f)
            assert np.all(out.values <= subadditive_envelope(phi).values)


class TestIndividualAlpha:
    def test_constant(self):
        out = individual_alpha(sfn([2.0, 2.0, 2.0]))
        assert np.array_equal(out.values, np.zeros(3))

    def test_linear(self):
        h = 0.25
        vals = [i * h for i in range(5)]
        out = individual_alpha(sfn(vals, step=h))
        assert np.array_equal(out.values, h * np.arange(5))

    def test_dip_and_recovery(self):
        out = individual_alpha(sfn([0.0, -3.0, 1.0]))
        assert list(out.values) == [0.0, 4.0, 1.0]

    def test_membership_at_zero_tolerance(self):
        rng = np.random.default_rng(193)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            f = SampledFn(Grid(0.0, 1.0, n), rng.normal(size=n))
            out = individual_alpha(f)
            assert is_phi_holder(f, out, 0.0)[0]

    def test_dominates_sigma(self):
        rng = np.random.default_rng(197)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            f = rand_fn(rng, Grid(0.0, 1.0, n))
            assert np.all(individual_sigma(f).values <= individual_alpha(f).values)

    def test_minimal_among_passing_tables(self):
        rng = np.random.default_rng(199)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(40):
            f = rand_fn(rng, grid, amp=1.0)
            out = individual_alpha(f)
            fatter = ErrorFn(1.0, out.values + dyadic(rng, 0, 1, 9))
            assert is_phi_holder(f, fatter, 0.0)[0]
            assert np.all(out.values <= fatter.values)

    def test_subadditive_on_grid(self):
        rng = np.random.default_rng(211)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            f = rand_fn(rng, Grid(0.0, 1.0, n))
            assert is_subadditive(individual_alpha(f), 0.0)[0]
