import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxmono import error_envelopes
from approxmono import (
    ErrorFn,
    Grid,
    PowerErrorSpec,
    SampledFn,
    WitnessKind,
    absolutely_subadditive_envelope,
    is_absolutely_subadditive,
    is_phi_holder,
    is_phi_monotone,
    is_subadditive,
    monotone_lower_envelope,
    power_error,
    subadditive_envelope,
)
from helpers import (
    SCALE,
    bellman_ford_alpha,
    brute_alpha,
    brute_sigma,
    dyadic,
    heap_alpha,
    loop_sigma,
    rand_concave_increasing_error,
    rand_error,
    rand_fn,
    same_bits,
    separating_step_fn,
    star_shaped_table,
)


class TestPowerError:
    def test_linear(self):
        phi = power_error(PowerErrorSpec(1.0, 1.0), 1.0, 4)
        assert list(phi.values) == [0.0, 1.0, 2.0, 3.0]

    def test_quadratic(self):
        phi = power_error(PowerErrorSpec(1.0, 2.0), 1.0, 3)
        assert list(phi.values) == [0.0, 1.0, 4.0]

    def test_zeroth_power_vanishes_at_origin(self):
        phi = power_error(PowerErrorSpec(0.5, 0.0), 1.0, 3)
        assert list(phi.values) == [0.0, 0.5, 0.5]

    def test_negative_exponent_allowed(self):
        phi = power_error(PowerErrorSpec(1.0, -1.0), 1.0, 5)
        assert phi.values[1] == 1.0 and phi.values[4] == 0.25

    def test_zero_epsilon_any_exponent(self):
        phi = power_error(PowerErrorSpec(0.0, -3.0), 1.0, 4)
        assert np.array_equal(phi.values, np.zeros(4))

    def test_overflow_is_range_error(self):
        with pytest.raises(OverflowError):
            power_error(PowerErrorSpec(1.0, 400.0), 10.0, 3)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            PowerErrorSpec(-1.0, 2.0)


class TestSubadditivityChecks:
    def test_power_characterization(self):
        # exponents at or below 1 give subadditive tables, above 1 they fail
        for p in (-1.0, 0.0, 0.5, 1.0):
            phi = power_error(PowerErrorSpec(1.0, p), 1.0, 64)
            assert is_subadditive(phi, 0.0)[0], p
        for p in (1.5, 2.0, 3.0):
            phi = power_error(PowerErrorSpec(1.0, p), 1.0, 64)
            assert not is_subadditive(phi, 0.0)[0], p

    def test_quadratic_witness_pair(self):
        phi = power_error(PowerErrorSpec(1.0, 2.0), 1.0, 3)
        ok, w = is_subadditive(phi, 0.0)
        assert not ok
        assert w.kind is WitnessKind.SUBADDITIVE
        assert w.indices == (1, 1)
        assert w.lhs == 4.0 and w.rhs == 2.0

    def test_decreasing_is_subadditive(self):
        phi = ErrorFn(1.0, [5.0, 4.0, 3.0, 2.5])
        assert is_subadditive(phi, 0.0)[0]

    def test_absolute_power_characterization(self):
        for p in (0.0, 0.5, 1.0):
            phi = power_error(PowerErrorSpec(1.0, p), 1.0, 64)
            assert is_absolutely_subadditive(phi, 0.0)[0], p
        for p in (-1.0, 1.5, 2.0, 3.0):
            phi = power_error(PowerErrorSpec(1.0, p), 1.0, 64)
            assert not is_absolutely_subadditive(phi, 0.0)[0], p

    def test_negative_exponent_fails_on_long_step_pair(self):
        phi = power_error(PowerErrorSpec(1.0, -1.0), 1.0, 64)
        ok, w = is_absolutely_subadditive(phi, 0.0)
        assert not ok
        j, k = w.indices
        assert abs(j + k) < abs(j) or abs(j + k) < abs(k)
        assert w.lhs > w.rhs

    def test_increasing_subadditive_is_absolutely_subadditive(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            phi = rand_concave_increasing_error(rng, int(rng.integers(3, 12)))
            assert is_subadditive(phi, 0.0)[0]
            assert is_absolutely_subadditive(phi, 0.0)[0]
            # both envelopes leave such a table untouched
            assert np.array_equal(subadditive_envelope(phi).values, phi.values)
            assert np.array_equal(
                absolutely_subadditive_envelope(phi).values, phi.values
            )

    def test_absolute_implies_plain(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            phi = rand_error(rng, 7, zero_at_origin=False)
            if is_absolutely_subadditive(phi, 0.0)[0]:
                assert is_subadditive(phi, 0.0)[0]


class TestSubadditiveEnvelope:
    def test_quadratic_unit_parts(self):
        phi = power_error(PowerErrorSpec(1.0, 2.0), 1.0, 5)
        env = subadditive_envelope(phi)
        assert np.array_equal(env.values, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(env.values, brute_sigma(phi.values))

    def test_subadditive_input_unchanged(self):
        phi = power_error(PowerErrorSpec(1.0, 0.5), 1.0, 9)
        env = subadditive_envelope(phi)
        assert np.array_equal(env.values, phi.values)

    def test_constant_table(self):
        phi = ErrorFn(1.0, np.full(6, 0.75))
        env = subadditive_envelope(phi)
        assert np.array_equal(env.values, phi.values)
        assert np.array_equal(env.values[1:], brute_sigma(phi.values)[1:])

    def test_power_law_closed_form(self):
        # values collapse to one unit part per offset for exponents above 1
        for p in (1.5, 2.0, 3.0):
            for h in (1.0, 0.5):
                eps = 0.75
                phi = power_error(PowerErrorSpec(eps, p), h, 9)
                env = subadditive_envelope(phi)
                expect = eps * h**p * np.arange(9)
                assert np.max(np.abs(env.values - expect)) <= 1e-12

    @given(st.lists(st.integers(0, 1 << 16), min_size=2, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_composition_oracle(self, ints):
        phi = ErrorFn(1.0, np.array(ints, dtype=float) * SCALE)
        env = subadditive_envelope(phi)
        assert np.array_equal(env.values, brute_sigma(phi.values))

    @given(st.lists(st.integers(0, 1 << 16), min_size=2, max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_core_properties(self, ints):
        phi = ErrorFn(1.0, np.array(ints, dtype=float) * SCALE)
        env = subadditive_envelope(phi)
        assert env.values[0] == phi.values[0]
        assert np.all(env.values <= phi.values)
        assert is_subadditive(env, 0.0)[0]
        again = subadditive_envelope(env)
        assert np.array_equal(again.values, env.values)

    def test_monotone_in_argument(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            lo = rand_error(rng, n, zero_at_origin=False)
            hi = ErrorFn(1.0, lo.values + dyadic(rng, 0, 1, n))
            assert np.all(
                subadditive_envelope(lo).values <= subadditive_envelope(hi).values
            )

    def test_nondecreasing_input_gives_nondecreasing_envelope(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            phi = ErrorFn(1.0, np.sort(dyadic(rng, 0, 1, n)))
            env = subadditive_envelope(phi)
            assert np.all(np.diff(env.values) >= 0)
            alpha = absolutely_subadditive_envelope(phi)
            assert np.array_equal(alpha.values, env.values)

    def test_largest_minorant(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            phi = rand_error(rng, n, zero_at_origin=False)
            scale = dyadic(rng, 0, 1, n)
            minorant = subadditive_envelope(ErrorFn(1.0, scale * phi.values))
            assert np.all(minorant.values <= phi.values)
            assert np.all(minorant.values <= subadditive_envelope(phi).values)


class TestAbsolutelySubadditiveEnvelope:
    def test_cheap_long_step_lowers_short_offsets(self):
        phi = ErrorFn(1.0, [0.0, 5.0, 1.0])
        alpha = absolutely_subadditive_envelope(phi)
        # offset 1 needs an odd part, so the direct step stays cheapest
        assert list(alpha.values) == [0.0, 5.0, 1.0]
        assert np.array_equal(alpha.values, bellman_ford_alpha(phi.values, 8))

    def test_two_long_cheap_steps_cancel(self):
        # free longest step: opposite long parts cancel into offset 0
        phi = ErrorFn(1.0, [3.0, 2.0, 1.0, 0.0])
        alpha = absolutely_subadditive_envelope(phi)
        assert list(alpha.values) == [0.0, 1.0, 1.0, 0.0]
        for radius in (3, 6, 12, 24):
            bf = bellman_ford_alpha(phi.values, radius)
            assert np.array_equal(alpha.values, bf)

    def test_decreasing_tail_shrinks_small_offsets(self):
        # long offsets are cheap, so small offsets ride on near-cancelling pairs
        phi = power_error(PowerErrorSpec(1.0, -1.0), 1.0, 64)
        alpha = absolutely_subadditive_envelope(phi)
        assert alpha.values[1] <= phi.values[62] + phi.values[63]
        assert alpha.values[1] < 0.04 < phi.values[1]

    def test_matches_multiset_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            vals = dyadic(rng, 0.25, 1.0, n)
            if rng.integers(0, 2):
                vals[0] = 0.0
            phi = ErrorFn(1.0, vals)
            alpha = absolutely_subadditive_envelope(phi)
            assert np.array_equal(alpha.values, brute_alpha(phi.values))

    def test_matches_label_correcting_oracle_with_zero_costs(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            vals = dyadic(rng, 0, 0.75, n)
            vals[rng.integers(0, n)] = 0.0
            phi = ErrorFn(1.0, vals)
            alpha = absolutely_subadditive_envelope(phi)
            assert np.array_equal(alpha.values, bellman_ford_alpha(vals, 4 * (n - 1)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_heap_search(self, data):
        # dyadic, non-dyadic and small-integer tables (many exact ties), with
        # zero-cost offsets forced in; any value at offset 0
        kind = data.draw(st.sampled_from(["dyadic", "real", "integer"]))
        n = data.draw(st.integers(2, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "dyadic":
            vals = dyadic(rng, 0, 1, n)
        elif kind == "real":
            vals = rng.uniform(0, 1, n)
        else:
            vals = rng.integers(0, 3, n) * 1.0
        zeros = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        vals[zeros] = 0.0
        got = absolutely_subadditive_envelope(ErrorFn(1.0, vals)).values
        assert same_bits(got, heap_alpha(vals))

    def test_radius_independent_above_minimum(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            phi = rand_error(rng, n, zero_at_origin=False)
            alpha = absolutely_subadditive_envelope(phi).values
            for m in (n - 1, 2 * (n - 1), 4 * (n - 1)):
                assert np.array_equal(alpha, bellman_ford_alpha(phi.values, m))

    def test_dominated_by_subadditive_envelope(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            phi = rand_error(rng, n, zero_at_origin=False)
            alpha = absolutely_subadditive_envelope(phi)
            sigma = subadditive_envelope(phi)
            assert np.all(alpha.values <= sigma.values)
            assert np.all(sigma.values <= phi.values)

    def test_output_absolutely_subadditive(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            phi = rand_error(rng, n, zero_at_origin=False)
            alpha = absolutely_subadditive_envelope(phi)
            assert is_absolutely_subadditive(alpha, 0.0)[0]

    def test_multi_term_bound_exhaustive(self):
        # signed tuples up to four parts never beat the summed table values
        rng = np.random.default_rng(31)
        n = 5
        phi = rand_error(rng, n, zero_at_origin=False)
        a = absolutely_subadditive_envelope(phi).values
        offs = range(-(n - 1), n)
        for u1 in offs:
            for u2 in offs:
                for u3 in offs:
                    for u4 in offs:
                        s = u1 + u2 + u3 + u4
                        if abs(s) >= n:
                            continue
                        bound = a[abs(u1)] + a[abs(u2)] + a[abs(u3)] + a[abs(u4)]
                        assert a[abs(s)] <= bound + 1e-12

    def test_largest_minorant(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            phi = rand_error(rng, n, zero_at_origin=False)
            scale = dyadic(rng, 0, 1, n)
            minorant = absolutely_subadditive_envelope(ErrorFn(1.0, scale * phi.values))
            assert np.all(minorant.values <= phi.values)
            assert np.all(
                minorant.values <= absolutely_subadditive_envelope(phi).values
            )


class TestMembershipInvariance:
    def test_membership_agrees_for_table_and_envelope(self):
        rng = np.random.default_rng(41)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(60):
            phi = rand_error(rng, 9)
            sigma = subadditive_envelope(phi)
            f = (
                monotone_lower_envelope(rand_fn(rng, grid), phi)
                if rng.integers(0, 2)
                else rand_fn(rng, grid)
            )
            assert (
                is_phi_monotone(f, phi, 0.0)[0] == is_phi_monotone(f, sigma, 0.0)[0]
            )
            assert is_phi_holder(f, phi, 0.0)[0] == is_phi_holder(f, sigma, 0.0)[0]

    def test_optimal_table_separates_strict_minorants(self):
        # an increasing subadditive table is the unique optimum: any table
        # strictly below it somewhere admits a function telling them apart
        rng = np.random.default_rng(43)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(20):
            phi = rand_concave_increasing_error(rng, 9)
            smaller = phi.values.copy()
            p = int(rng.integers(1, 9))
            smaller[p] = 0.5 * smaller[p]
            psi = ErrorFn(1.0, smaller)
            split = int(rng.integers(0, 9 - p))
            f = separating_step_fn(grid, phi, split)
            assert is_phi_holder(f, phi, 1e-12)[0]
            assert is_phi_monotone(f, phi, 1e-12)[0]
            ok, w = is_phi_monotone(f, psi, 0.0)
            assert not ok
            assert f.values[w.indices[0]] - f.values[w.indices[1]] > psi.values[
                w.indices[1] - w.indices[0]
            ]


class TestLinearSigma:
    """Tables with phi[k] >= k * phi[1] take the closed form
    sigma[k] = k * phi[1]; the quadratic recurrence is the oracle."""

    @given(star_shaped_table())
    @settings(max_examples=300, deadline=None)
    def test_star_shaped_dyadic_equals_loop(self, vals):
        got = subadditive_envelope(ErrorFn(1.0, vals)).values
        assert same_bits(got, loop_sigma(vals))
        if len(vals) <= 10:
            assert same_bits(got, brute_sigma(vals))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [7, 300, 2000])
    def test_power_tables_within_rounding(self, p, n):
        phi = power_error(PowerErrorSpec(0.3, p), 1.0 / (n - 1), n)
        got = subadditive_envelope(phi).values
        gap = np.abs(got - loop_sigma(phi.values)).max()
        assert gap <= n * 2.0**-52 * phi.values.max()
        assert np.all(got <= phi.values)

    def test_one_offset_below_the_ramp_takes_the_loop(self, monkeypatch):
        calls = []
        loop = error_envelopes._sigma_loop
        monkeypatch.setattr(
            error_envelopes, "_sigma_loop", lambda v: calls.append(1) or loop(v)
        )
        vals = np.arange(9) * 0.3  # on the ramp, not dyadic
        assert same_bits(subadditive_envelope(ErrorFn(1.0, vals)).values, vals)
        assert calls == []
        vals[5] = np.nextafter(vals[5], 0.0)
        got = subadditive_envelope(ErrorFn(1.0, vals)).values
        assert calls == [1]
        assert same_bits(got, loop_sigma(vals))

    def test_ramp_past_double_range_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = subadditive_envelope(ErrorFn(1.0, [0.0, 1e308, 1e308])).values
        assert list(got) == [0.0, 1e308, 1e308]

    def test_value_at_origin_is_kept(self):
        got = subadditive_envelope(ErrorFn(1.0, [0.5, 1.0, 2.0, 3.5])).values
        assert list(got) == [0.5, 1.0, 2.0, 3.0]

    def test_zero_unit_step(self):
        got = subadditive_envelope(ErrorFn(1.0, [0.0, 0.0, 1.0, 5.0])).values
        assert same_bits(got, np.zeros(4))
