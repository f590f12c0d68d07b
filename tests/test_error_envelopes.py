import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from approxmono import error_envelopes, function_envelopes, grid, scan
from approxmono import (
    ErrorFn,
    Grid,
    PowerErrorSpec,
    PreconditionError,
    SampledFn,
    WitnessKind,
    absolutely_subadditive_envelope,
    holder_bracket,
    holder_lower_envelope,
    is_absolutely_subadditive,
    is_phi_holder,
    is_phi_monotone,
    is_subadditive,
    monotone_bracket,
    monotone_lower_envelope,
    power_error,
    subadditive_envelope,
)
from approxmono.grid import _star_shaped
from helpers import (
    SCALE,
    bellman_ford_alpha,
    brute_alpha,
    brute_relative_margin,
    brute_sigma,
    brute_signed_margin,
    count_label_rounds,
    dense_label_setting,
    dyadic,
    exact_relative_margin,
    exact_sums,
    heap_alpha,
    largest_margin,
    loop_sigma,
    nudge_across,
    rand_concave_increasing_error,
    rand_error,
    rand_fn,
    relative_rows,
    same_bits,
    scan_relative,
    scan_signed,
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


@st.composite
def companion_case(draw):
    """(v, w, n): tables of at least n <= 9 offsets (up to 3 more), dyadic or
    not, with small integers mixed in for exact ties; w is often v itself."""
    n = draw(st.integers(2, 9))
    if draw(st.booleans()):
        entries = st.integers(0, 1 << 12).map(lambda i: i * 2.0**-8)
    else:
        entries = st.floats(0.0, 16.0, allow_nan=False, allow_infinity=False)
    entries = st.one_of(entries, st.integers(0, 3).map(float))

    def table():
        size = n + draw(st.integers(0, 3))
        return np.array(draw(st.lists(entries, min_size=size, max_size=size)))

    v = table()
    return v, v if draw(st.booleans()) else table(), n


TOLS = st.sampled_from([0.0, 1e-9, 0.5])


class TestTableInequalitiesMatchEnumeration:
    """The subadditivity checks and both bracket hypotheses on the tables
    against enumeration of their index triples: the verdict is "largest
    margin <= tol", and a witness attains that margin."""

    @given(companion_case(), TOLS)
    @settings(max_examples=200, deadline=None)
    def test_is_subadditive(self, case, tol):
        v = case[0]
        most = brute_relative_margin(v, v, len(v), first=0)
        ok, w = is_subadditive(ErrorFn(1.0, v), tol)
        assert ok == (most <= tol)
        if w is not None:
            j, k = w.indices
            assert (w.lhs, w.rhs) == (v[j + k], v[j] + v[k])
            assert (v[j + k] - v[j]) - v[k] == most

    @given(companion_case(), TOLS)
    @settings(max_examples=200, deadline=None)
    def test_is_absolutely_subadditive(self, case, tol):
        v = case[0]
        most = brute_signed_margin(v, v, len(v))
        ok, w = is_absolutely_subadditive(ErrorFn(1.0, v), tol)
        assert ok == (most <= tol)
        if w is not None:
            j, k = w.indices
            assert (w.lhs, w.rhs) == (v[abs(j + k)], v[j] + v[abs(k)])
            assert (v[abs(j + k)] - v[j]) - v[abs(k)] == most

    @given(companion_case(), TOLS)
    @settings(max_examples=200, deadline=None)
    def test_monotone_bracket_hypothesis(self, case, tol):
        v, w, n = case
        f = SampledFn(Grid(0.0, 1.0, n), np.zeros(n))  # a member of every table
        most = brute_relative_margin(v, w, n)
        if most <= tol:
            monotone_bracket(f, ErrorFn(1.0, v), ErrorFn(1.0, w), tol)
            return
        with pytest.raises(PreconditionError, match="companion") as info:
            monotone_bracket(f, ErrorFn(1.0, v), ErrorFn(1.0, w), tol)
        wit = info.value.witness
        i, k = wit.indices[0], wit.indices[1] - wit.indices[0]
        assert wit.kind == WitnessKind.MONOTONE
        assert (wit.lhs, wit.rhs) == (v[i + k], v[i] + w[k])
        assert (v[i + k] - v[i]) - w[k] == most

    @given(companion_case(), TOLS)
    @settings(max_examples=200, deadline=None)
    def test_holder_bracket_hypothesis(self, case, tol):
        v, w, n = case
        f = SampledFn(Grid(0.0, 1.0, n), np.zeros(n))
        most = brute_signed_margin(v, w, n)
        if most <= tol:
            holder_bracket(f, ErrorFn(1.0, v), ErrorFn(1.0, w), tol)
            return
        with pytest.raises(PreconditionError, match="companion") as info:
            holder_bracket(f, ErrorFn(1.0, v), ErrorFn(1.0, w), tol)
        wit = info.value.witness
        u, j = wit.indices
        assert wit.kind == WitnessKind.HOLDER and wit.lhs == v[u]
        # |k| is |u - j| or u + j; the witness takes one whose margin is largest
        margins = {c: (v[u] - v[j]) - w[c] for c in (abs(u - j), u + j) if c < n}
        assert max(margins.values()) == most
        assert wit.rhs in {v[j] + w[c] for c, m in margins.items() if m == most}


@st.composite
def window_case(draw):
    """(v, w, n, tol) for ``v[j+k] <= v[j] + w[k]``: power tables (concave,
    linear or convex) in floats, so convex or concave only up to rounding,
    some nudged by a few ulps per offset or bumped at one offset.  w is v
    (subadditivity), the last-window steps ``v[n-1] - v[n-1-k]`` of the
    monotone bracket's benchmark hypothesis, or v scaled.  tol is fixed, or at the largest float
    margin or one ulp either side of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 64))
    p = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    spec = PowerErrorSpec(rng.uniform(0.1, 2.0), p)
    v = power_error(spec, rng.uniform(0.01, 1.0), n).values.copy()
    shape = draw(st.sampled_from(["plain", "nudged", "bumped"]))
    if shape == "nudged":
        v[1:] *= 1.0 + rng.integers(-4, 5, n - 1) * 2.0**-52
    elif shape == "bumped":
        v[draw(st.integers(1, n - 1))] += draw(st.sampled_from([1e-12, 1e-6, 0.1]))
    companion = draw(st.sampled_from(["self", "tail", "scaled"]))
    if companion == "self":
        w = v
    elif companion == "tail":
        w = np.abs(v[n - 1] - v[::-1])
    else:
        w = v * rng.uniform(0.9, 1.1)
    most = largest_margin(n, relative_rows(v, w, n), 1)
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, "below", "most", "above"]))
    if isinstance(tol, str):
        tol = {"below": np.nextafter(most, -np.inf), "most": most}.get(
            tol, np.nextafter(most, np.inf)
        )
    return v, w, n, max(float(tol), 0.0)


class TestWindowCertificate:
    """`_relative_violation` certifies a pass in O(N) when it can
    (`error_envelopes._window_pass`); its answer must be the row scan's."""

    @given(window_case())
    @settings(max_examples=500, deadline=None)
    def test_verdict_and_witness_equal_the_scan(self, case):
        v, w, n, tol = case
        assert error_envelopes._relative_violation(v, w, n, tol) == scan_relative(
            v, w, n, tol
        )

    def test_fires_on_smooth_passes(self):
        # at tol = 1e-9 every pass of a linear or convex power table against
        # itself or its last-window steps (some scaled up by 1e-6) is
        # certified, and no failure is; at tol = 0 the rounding allowance
        # declines every case whose largest margin with k >= 1 is 0 up to
        # rounding, and a scaled-up w passes only where the scan does
        rng = np.random.default_rng(1301)
        fired = 0
        for _ in range(200):
            n = int(rng.integers(3, 40))
            p = float(rng.choice([1.0, 1.5, 2.0]))
            v = power_error(PowerErrorSpec(1.0, p), 1.0 / (n - 1), n).values
            w = v[n - 1] - v[::-1] if rng.random() < 0.5 else v
            scaled = rng.random() < 0.3
            if scaled:
                w = w * (1.0 + 1e-6 * rng.random(n))
            passed = scan_relative(v, w, n, 1e-9) is None
            assert error_envelopes._window_pass(v, w, n, 1e-9) == passed
            at_zero = error_envelopes._window_pass(v, w, n, 0.0)
            assert not at_zero or (scaled and scan_relative(v, w, n, 0.0) is None)
            fired += passed
        assert fired > 50

    @pytest.mark.parametrize(
        "v, w",
        [
            (
                [0.0, 0.0464203518496914, 0.48940102706487465, 0.7773292489364044],
                [0.0, 0.05395505817304521, 0.568838016797775, 0.9035012268277769],
            ),
            (
                [0.5414199935690467, 0.9553850219503234, 0.21852604095151473,
                 0.954082910311713, 0.6568961004478138],
                [0.6619546469939541, 0.02110417168568446, 0.8075948195928792,
                 0.9166701504875178, 0.9502183244901853],
            ),
        ],
    )
    def test_largest_margin_above_the_float_excess(self, v, w):
        # found by a random search: the largest float margin rounds one ulp
        # above the certificate's float excess, so one ulp below it the
        # scan fails and only the rounding allowance declines the pass
        v, w = np.array(v), np.array(w)
        n = len(v)
        most = largest_margin(n, relative_rows(v, w, n), 1)
        tol = float(np.nextafter(most, -np.inf))
        want = scan_relative(v, w, n, tol)
        assert want is not None
        assert not error_envelopes._window_pass(v, w, n, tol)
        assert error_envelopes._relative_violation(v, w, n, tol) == want

    def test_overflow_declines_without_warnings(self):
        # D = [inf, -1.7e308]: U - D sums to NaN, and the scan's margin
        # v[2] - v[1] overflows; on the valid table the scale overflows, and
        # the scan passes it
        v = np.array([0.0, -1.7e308, 1.7e308, 0.0])
        table = ErrorFn(1.0, [0.0, 1.7e308, 0.0, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not error_envelopes._window_pass(v, v, 4, 1e-9)
            with pytest.raises(OverflowError, match="overflows the double range"):
                error_envelopes._relative_violation(v, v, 4, 1e-9)
            assert not error_envelopes._window_pass(table.values, table.values, 4, 0.0)
            assert is_subadditive(table, 0.0) == (True, None)

    def test_benchmark_passes_scan_no_pair(self, monkeypatch):
        # the monotone bracket's psi hypotheses on the three convex tables
        # and the subadditivity of the linear one; the failing checks of
        # p = 1.5 and p = 2 still scan and keep the row loop's witnesses
        scans = []
        kernel = scan._max_violation
        monkeypatch.setattr(
            scan, "_max_violation", lambda *a: scans.append(1) or kernel(*a)
        )
        n = 5000
        step = 1.0 / (n - 1)
        rng = np.random.default_rng(1303)
        grid = Grid(0.0, step, n)
        walk = SampledFn(grid, np.cumsum(rng.normal(size=n)) / np.sqrt(n))
        for eps, p in ((1.0, 1.0), (1.0, 1.5), (2.0, 2.0)):
            phi = power_error(PowerErrorSpec(eps, p), step, n)
            psi = ErrorFn(step, phi.values[-1] - phi.values[::-1])
            monotone_bracket(monotone_lower_envelope(walk, phi), phi, psi)
            assert scans == [], p
            ok, w = is_subadditive(phi)
            if p == 1.0:
                assert ok and scans == []
            else:
                assert not ok and scans == [1]
                scans.clear()
                assert w.indices == scan_relative(phi.values, phi.values, n, 1e-9)


def own_envelope_values(rng: np.random.Generator, max_size: int = 40) -> np.ndarray:
    """A non-dyadic table at magnitude 1e-3 to 1e6 around the window
    certificate's concave form.  Kinds: power tables with p <= 1 and the
    cumulative sums of nonincreasing steps (concave, nondecreasing); concave
    humps, whose steps turn negative (subadditive, not monotone); plateaus,
    a ramp that turns flat; linear tables.  A third are nudged one ulp
    across subadditivity at one offset, either way; a quarter have a value
    at 0 below phi[1]; a third have every zero as -0.0."""
    n = int(rng.integers(2, max_size + 1))
    scale = 10.0 ** rng.uniform(-3, 6)
    kind = rng.choice(["power", "concave", "hump", "plateau", "linear"])
    if kind == "power":
        spec = PowerErrorSpec(scale, rng.uniform(0.05, 1.0))
        v = power_error(spec, rng.uniform(0.01, 1.0), n).values.copy()
    elif kind in ("concave", "hump"):
        steps = np.sort(rng.uniform(-1.0 if kind == "hump" else 0.0, 1.0, n - 1))
        steps = steps[::-1] * scale
        down = steps < 0
        if steps.sum() < 0:  # keep the end of the hump above 0
            steps[down] *= rng.uniform(0.0, 0.99) * steps[~down].sum() / -steps[down].sum()
        v = np.concatenate([[0.0], np.cumsum(steps)])
    else:
        ramp = np.arange(n, dtype=float)
        if kind == "plateau":
            ramp = np.minimum(ramp, rng.integers(1, n))
        v = ramp * (scale * rng.uniform(0.1, 1.0))
    if n >= 3 and rng.random() < 1 / 3:
        v = nudge_across(v, int(rng.integers(2, n)), bool(rng.random() < 0.5))
    if rng.random() < 0.25:
        v[0] = rng.uniform(0.0, 1.0) * v[1]
    if rng.random() < 1 / 3:
        v[v == 0.0] = -0.0
    return v


def own_envelope_table(max_size: int = 40):
    return st.integers(0, 2**32 - 1).map(
        lambda seed: own_envelope_values(np.random.default_rng(seed), max_size)
    )


@st.composite
def own_window_case(draw):
    """(v, w, n, tol) for the window certificate: an `own_envelope_values`
    table, against itself or itself scaled by up to 1e-6 either way, with
    tol fixed, or at the largest float margin or one ulp either side."""
    v = draw(own_envelope_table(24))
    n = len(v)
    w = v * draw(st.sampled_from([1.0, 1.0 + 1e-6, 1.0 - 1e-6, 1.0 - 1e-15]))
    most = largest_margin(n, relative_rows(v, w, n), 1)
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, "below", "most", "above"]))
    if isinstance(tol, str):
        tol = {"below": np.nextafter(most, -np.inf), "most": most}.get(
            tol, np.nextafter(most, np.inf)
        )
    return v, w, n, max(float(tol), 0.0)


@np.errstate(over="ignore")
def dense_alpha(v) -> np.ndarray:
    """α by all N rounds of dense label setting on the folded rows."""
    start = np.concatenate([[0.0], np.full(len(v) - 1, np.inf)])
    out, _ = dense_label_setting(start, folded_rows(v)[0])
    out[0] = min(float(v[0]), float((out[1:] + v[1:]).min()))
    return out


class TestSubadditiveTablesAreTheirOwnEnvelopes:
    """A table that the window certificate proves subadditive at tol = 0 is
    its own sigma, and its own alpha when it is also nondecreasing; on such
    a table the absolute check is the subadditivity check.  Every output
    must stay the oracles' bit for bit, on tables that take those paths and
    on tables one ulp away from them."""

    @given(own_envelope_table())
    @settings(max_examples=400, deadline=None)
    def test_sigma_equals_the_loop(self, v):
        got = subadditive_envelope(ErrorFn(1.0, v)).values
        if _star_shaped(v):  # the closed form k * phi[1], within rounding
            gap = np.abs(got - loop_sigma(v)).max()
            assert gap <= len(v) * 2.0**-52 * v.max()
            return
        assert same_bits(got, loop_sigma(v))
        if len(v) <= 10:
            assert np.array_equal(got, brute_sigma(v))

    @given(own_envelope_table())
    @example(
        np.array(
            [0.0, 4048.859191815208, 8097.718383630417, 2030.8955479900483, 327.6790632020454]
        )
    )
    @example(np.array([0.0, 1.5, 2.0, 2.25, 3.0]))
    @settings(max_examples=400, deadline=None)
    def test_alpha_equals_dense_label_setting(self, v):
        # the brute search adds its parts in another order, so it gives
        # alpha's bits only where every sum is exact: on the first example,
        # alpha[2] is one ulp below it
        got = absolutely_subadditive_envelope(ErrorFn(1.0, v)).values
        assert same_bits(got, dense_alpha(v))
        if len(v) <= 6 and v[1:].min() > 0:
            want = brute_alpha(v)
            if exact_sums(v):
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= len(v) * 2.0**-52 * v.max()

    @given(own_envelope_table(), st.sampled_from([0.0, 1e-9]))
    @settings(max_examples=400, deadline=None)
    def test_absolute_check_equals_the_scan(self, v, tol):
        n = len(v)
        ok, w = is_absolutely_subadditive(ErrorFn(1.0, v), tol)
        want = scan_signed(v, v, n, tol)
        assert ok == (want is None)
        assert (w is None) == ok
        if w is not None:
            j, k = w.indices
            assert (j, k) == want
            assert (w.lhs, w.rhs) == (v[abs(j + k)], v[j] + v[abs(k)])
        if n <= 12:
            most = brute_signed_margin(v, v, n)
            assert ok == (most <= tol)
            if w is not None:
                assert (v[abs(j + k)] - v[j]) - v[abs(k)] == most

    @given(st.one_of(window_case(), own_window_case()))
    @settings(max_examples=500, deadline=None)
    def test_either_form_passes_only_within_tol(self, case):
        # the certificate passes when either form does, and each form alone
        # is sound: a pass bounds every float margin of the scan and every
        # exact margin by tol
        v, w, n, tol = case
        x = v[1:n]
        scale = grid._magnitude(x) + grid._magnitude(w[: n - 1])
        passes = [
            grid._certified_pass(
                error_envelopes._last_window_excess(y, w, k0), n, scale, tol
            )
            for y, k0 in ((x, 0), (-x[::-1], 1))
        ]
        assert error_envelopes._window_pass(v, w, n, tol) == any(passes)
        if any(passes):
            most = (
                brute_relative_margin(v, w, n)
                if n <= 12
                else largest_margin(n, relative_rows(v, w, n), 1)
            )
            assert most <= tol
            assert exact_relative_margin(v, w, n) <= tol

    def test_paths_taken_and_declined(self):
        # the fast paths fire on a good share of the tables, only where every
        # exact margin with j, k >= 1 is negative; a hump, or a nudge that
        # breaks monotonicity, keeps alpha on label setting
        rng = np.random.default_rng(2201)
        sigma_fast = alpha_fast = 0
        for _ in range(600):
            v = own_envelope_values(rng)
            n = len(v)
            certified = error_envelopes._window_pass(v, v, n, 0.0)
            if certified:
                assert exact_relative_margin(v, v, n) < 0
            if not np.all(v[1:] >= v[:-1]):
                assert not error_envelopes._nondecreasing_pass(v, 0.0)
            sigma_fast += certified and not _star_shaped(v)
            alpha_fast += error_envelopes._nondecreasing_pass(v, 0.0)
        assert sigma_fast > 100 and alpha_fast > 100

    def test_hump_is_its_own_sigma_but_not_its_own_alpha(self, monkeypatch):
        v = np.array([0.0, 2.0, 3.0, 3.5, 3.0, 0.5])
        loop = error_envelopes._sigma_loop
        calls = []
        monkeypatch.setattr(
            error_envelopes, "_sigma_loop", lambda t: calls.append(1) or loop(t)
        )
        assert same_bits(subadditive_envelope(ErrorFn(1.0, v)).values, v)
        assert calls == []
        alpha = absolutely_subadditive_envelope(ErrorFn(1.0, v)).values
        # 4 = 5 - 1 costs 0.5 + 2.0, below v[4] = 3
        assert alpha[4] == 2.5
        assert same_bits(alpha, dense_alpha(v))
        assert np.array_equal(alpha, brute_alpha(v))

    def test_smallest_tables_decline_without_raising(self):
        # N = 2 leaves the concave form no k >= 1: its excess is -inf, which
        # `_certified_pass` declines; the convex form passes [0.5, 0.7],
        # whose one margin, at k = 0, is -0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v, certified in (([0.0, 1.0], False), ([0.0, -0.0], False),
                                 ([0.5, 0.7], True), ([0.0, 0.7, 1.2], True)):
                v = np.array(v)
                n = len(v)
                if n == 2:
                    excess = error_envelopes._last_window_excess(-v[1:][::-1], v, 1)
                    assert excess == -np.inf
                    assert not grid._certified_pass(excess, n, 1.0, 0.0)
                assert error_envelopes._window_pass(v, v, n, 0.0) == certified
                got = subadditive_envelope(ErrorFn(1.0, v)).values
                assert same_bits(got, loop_sigma(v))
                got = absolutely_subadditive_envelope(ErrorFn(1.0, v)).values
                assert same_bits(got, dense_alpha(v))

    def test_linear_tables_and_plateaus_decline_at_zero(self, monkeypatch):
        # fl(2c) = 2c, so the margin (1, 1) of a ramp of two or more steps
        # is exactly 0: no sound certificate passes it at tol = 0; sigma of
        # a plateau runs its loop, a linear table takes the closed form
        loop = error_envelopes._sigma_loop
        calls = []
        monkeypatch.setattr(
            error_envelopes, "_sigma_loop", lambda t: calls.append(1) or loop(t)
        )
        for n in (3, 4, 17, 40):
            for c in (0.1, 0.3, 1 / 3, 7e5 / 3):
                for top in (n, 2, max(2, n // 2)):
                    v = np.minimum(np.arange(n), top) * c
                    assert not error_envelopes._window_pass(v, v, n, 0.0)
                    assert error_envelopes._window_pass(v, v, n, 1e-6 * c)
                    calls.clear()
                    got = subadditive_envelope(ErrorFn(1.0, v)).values
                    if not _star_shaped(v):  # else the closed form k * phi[1]
                        assert calls == [1]
                        assert same_bits(got, loop_sigma(v))

    def test_nondecreasing_sigma_and_alpha_agree_within_rounding(self):
        # equal in exact arithmetic on a nondecreasing table; in floats within
        # N * 2^-52 * max phi, not always bit for bit; and both equal the
        # table when the certificate passes (alpha with +0.0 past offset 0)
        rng = np.random.default_rng(2202)
        differ = 0
        for _ in range(300):
            n = int(rng.integers(3, 40))
            v = np.concatenate([[0.0], np.cumsum(rng.uniform(0, 1, n - 1))])
            v *= 10.0 ** rng.uniform(-3, 6)
            sigma = subadditive_envelope(ErrorFn(1.0, v)).values
            alpha = absolutely_subadditive_envelope(ErrorFn(1.0, v)).values
            assert np.abs(sigma - alpha).max() <= n * 2.0**-52 * v.max()
            differ += not np.array_equal(sigma, alpha)
        assert differ > 0
        for _ in range(300):
            v = own_envelope_values(rng)
            if error_envelopes._nondecreasing_pass(v, 0.0):
                phi = ErrorFn(1.0, v)
                assert same_bits(subadditive_envelope(phi).values, v)
                want = v + 0.0
                want[0] = v[0]
                assert same_bits(absolutely_subadditive_envelope(phi).values, want)


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


@st.composite
def label_case(draw):
    """(labels, table) for label setting.  Kinds: tie-heavy quarter-integer
    values with zero costs; ±0.0 labels and costs, -0.0 at offset 0 and in
    half the cases every cost 0 (cmin = 0); values near the double range,
    whose sums overflow; and α's start, 0 then +inf."""
    kind = draw(st.sampled_from(["ties", "zeros", "huge", "alpha"]))
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zeros":
        labels = rng.choice([0.0, -0.0, 0.5, -0.5], n)
        table = rng.choice([0.0, -0.0] if draw(st.booleans()) else [0.0, -0.0, 0.5], n)
        table[0] = -0.0
    elif kind == "huge":
        labels = 1.7e308 * rng.uniform(-1, 1, n)
        table = 1.7e308 * rng.uniform(0, 1, n)
    else:
        labels = rng.integers(-4, 5, n) * 0.25
        table = rng.integers(0, 4, n) * 0.25
    if kind == "alpha":
        labels = np.concatenate([[0.0], np.full(n - 1, np.inf)])
    return labels, table


def grid_rows(table):
    """The rows of `_grid_lower`: cost ``table[|w-u|]`` from u to w."""
    n = len(table)
    sym = np.concatenate([table[:0:-1], table])
    return (lambda u: sym[n - 1 - u : 2 * n - 1 - u]), float(table[1:].min())


def folded_rows(table):
    """The rows of `absolutely_subadditive_envelope`: cost
    ``min(table[|w-u|], table[u+w])``, inf once u + w leaves the table."""
    n = len(table)
    sym = np.concatenate([table[:0:-1], table, np.full(n - 1, np.inf)])
    m = n - 1
    return (
        lambda u: np.minimum(sym[m - u : m - u + n], sym[m + u : m + u + n])
    ), float(table[1:].min())


class TestLabelSettingExit:
    """`_label_setting` stops once no label can be undercut; its labels and
    roots must stay those of all N dense rounds."""

    @given(label_case(), st.sampled_from([grid_rows, folded_rows]))
    @settings(max_examples=400, deadline=None)
    def test_bit_equal_to_dense_rounds(self, case, rows):
        labels, table = case
        row, cmin = rows(table)
        lab, root = error_envelopes._label_setting(labels, row, cmin)
        want_lab, want_root = dense_label_setting(labels, row)
        assert same_bits(lab, want_lab)
        assert np.array_equal(root, want_root)

    @given(label_case(), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_grid_envelope_with_a_longer_table(self, case, extra):
        # offsets past the grid are cut off before the kernel sees them; the
        # envelope's labels and roots equal label setting's whether they
        # come from it or from the one-step row
        labels, table = case
        assume(np.isfinite(labels).all())
        if table[0] != 0.0:  # the envelope needs a zero there; keep a -0.0
            table[0] = 0.0
        longer = np.concatenate([table, np.zeros(extra)])
        f = SampledFn(Grid(0.0, 1.0, len(labels)), labels)
        t = function_envelopes._grid_table(f, ErrorFn(1.0, longer))
        lab, root = function_envelopes._grid_paths(labels, t)
        want_lab, want_root = dense_label_setting(labels, grid_rows(table)[0])
        assert same_bits(lab, want_lab)
        assert np.array_equal(root, want_root)
        env, env_root = function_envelopes._grid_lower(labels, t)
        assert same_bits(env + 0.0, want_lab + 0.0)
        assert [env_root(i) for i in range(len(labels))] == want_root.tolist()

    def test_exit_waits_for_one_step(self):
        # node 1 at 1.5 is undercut by 0 + 1 after the first round; an exit
        # at L + 2 * cmin would stop before it
        row, cmin = grid_rows(np.array([0.0, 1.0]))
        lab, root = error_envelopes._label_setting(np.array([0.0, 1.5]), row, cmin)
        assert list(lab) == [0.0, 1.0] and list(root) == [0, 0]

    def test_rough_tables_and_windows_exit_early(self, monkeypatch):
        rounds = count_label_rounds(monkeypatch)
        rng = np.random.default_rng(2000)
        n = 2000
        step = 1.0 / (n - 1)
        phi = ErrorFn(step, np.concatenate([[0.0], rng.uniform(0.2, 1.0, n - 1)]))
        walk = SampledFn(Grid(0.0, step, n), np.cumsum(rng.normal(0, n**-0.5, n)))
        absolutely_subadditive_envelope(phi)
        holder_lower_envelope(walk, phi)
        assert len(rounds) == 2 and max(rounds) < n // 4
        # a window of a long signal, with the signal's table: steep offsets
        # up to the window width, cheap ones past it
        rounds.clear()
        steep, cheap = rng.uniform(1, 2, 499), rng.uniform(0.05, 0.1, 700)
        vals = np.concatenate([[0.0], steep, cheap])
        signal = SampledFn(Grid(0.0, 1.0, 1200), np.cumsum(rng.normal(0, 0.1, 1200)))
        win = signal.window(100, 600)
        holder_lower_envelope(win, ErrorFn(1.0, vals))
        absolutely_subadditive_envelope(ErrorFn(1.0, vals[:500]))
        assert len(rounds) == 2 and max(rounds) < 500 // 4

    def test_concave_table_runs_nearly_every_round(self, monkeypatch):
        # phi[1] is the least step and far below the label spread, so the
        # exit cannot fire early.  The table itself runs no round: the
        # window certificate proves it subadditive and it is nondecreasing,
        # so it is its own alpha, and the walk's Hölder envelope is the
        # one-step row, which its slack proves exact.  With its last entry
        # one ulp above the least phi[j] + phi[N-1-j] the certificate
        # declines, and alpha and the envelope run the dense kernel again
        rounds = count_label_rounds(monkeypatch)
        n = 2000
        step = 1.0 / (n - 1)
        phi = power_error(PowerErrorSpec(0.5, 0.5), step, n)
        steps = np.random.default_rng(5).normal(0, n**-0.5, n)
        walk = SampledFn(Grid(0.0, step, n), np.cumsum(steps))
        absolutely_subadditive_envelope(phi)
        holder_lower_envelope(walk, phi)
        assert rounds == []
        nudged = ErrorFn(step, nudge_across(phi.values, n - 1))
        assert not is_subadditive(nudged, 0.0)[0]
        absolutely_subadditive_envelope(nudged)
        holder_lower_envelope(walk, nudged)
        assert len(rounds) == 2 and min(rounds) >= n - 100


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
