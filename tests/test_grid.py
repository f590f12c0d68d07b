import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import approxmono
from approxmono import (
    ConfigurationError,
    DimensionMismatchError,
    ErrorFn,
    Grid,
    GridError,
    IngestionError,
    PowerErrorSpec,
    SampledFn,
    Witness,
    WitnessKind,
    cone_combine,
    ingest_samples,
    is_phi_holder,
    is_phi_monotone,
    holder_sandwich,
    monotone_lower_envelope,
    monotone_sandwich,
    pointwise_extrema,
    power_error,
)
from approxmono import scan
from helpers import (
    SCALE,
    dyadic,
    largest_check_margin,
    mono_member,
    rand_error,
    rand_fn,
    scan_check,
    star_shaped_table,
)


def efn(vals, step=1.0):
    return ErrorFn(step, vals)


def sfn(vals, origin=0.0, step=1.0):
    return SampledFn(Grid(origin, step, len(vals)), vals)


class TestGridConstruction:
    def test_basic_nodes(self):
        g = Grid(0.0, 1.0, 5)
        assert list(g.nodes()) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert g.length == 4.0

    def test_negative_origin(self):
        g = Grid(-1.0, 0.5, 3)
        assert list(g.nodes()) == [-1.0, -0.5, 0.0]

    @pytest.mark.parametrize(
        "origin,step,count",
        [(0.0, 0.0, 5), (0.0, -1.0, 3), (0.0, 1.0, 1), (float("nan"), 1.0, 3)],
    )
    def test_rejects_bad_parameters(self, origin, step, count):
        with pytest.raises(GridError):
            Grid(origin, step, count)

    def test_sampled_fn_rejects_nan(self):
        g = Grid(0.0, 1.0, 3)
        with pytest.raises(GridError):
            SampledFn(g, [0.0, float("nan"), 1.0])

    def test_sampled_fn_rejects_length_mismatch(self):
        g = Grid(0.0, 1.0, 3)
        with pytest.raises(DimensionMismatchError):
            SampledFn(g, [0.0, 1.0])

    def test_error_fn_rejects_negative(self):
        with pytest.raises(GridError):
            ErrorFn(1.0, [0.0, -0.5])

    def test_values_are_immutable(self):
        f = sfn([1.0, 2.0])
        with pytest.raises(ValueError):
            f.values[0] = 3.0


class TestIngest:
    def test_unit_spacing(self):
        f = ingest_samples([(0, 1), (1, 2), (2, 3)])
        assert f.grid == Grid(0.0, 1.0, 3)
        assert list(f.values) == [1.0, 2.0, 3.0]

    def test_two_records(self):
        f = ingest_samples([(0, 1), (2, 2)])
        assert f.grid == Grid(0.0, 2.0, 2)

    def test_nonuniform_rejected(self):
        with pytest.raises(IngestionError, match="record"):
            ingest_samples([(0, 1), (1, 2), (3, 4)])

    def test_nonuniform_names_offending_record(self):
        with pytest.raises(IngestionError, match="record 3"):
            ingest_samples([(0, 1), (1, 2), (2, 2), (3.5, 4), (4, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(IngestionError, match="duplicate"):
            ingest_samples([(0, 1), (0, 2), (1, 3)])

    def test_decreasing_rejected(self):
        with pytest.raises(IngestionError, match="decreasing"):
            ingest_samples([(0, 1), (-1, 2)])

    def test_nan_rejected_with_row(self):
        with pytest.raises(IngestionError, match="record 1"):
            ingest_samples([(0, 1), (1, float("nan")), (2, 3)])

    def test_too_short(self):
        with pytest.raises(IngestionError):
            ingest_samples([(0, 1)])

    def test_overflowing_spacing_names_record(self):
        # RuntimeWarnings fail the suite, so this also requires that none is raised
        with pytest.raises(IngestionError, match="record 1: distance .* overflows"):
            ingest_samples([(-1e308, 0), (1e308, 0)])
        # finite spacings whose sum (the grid's span) overflows
        with pytest.raises(IngestionError, match="record 2: distance .* overflows"):
            ingest_samples([(-1e308, 0), (0, 0), (1e308, 0)])


class TestIngestNamesFirstFault:
    """10k records with two faults of one kind: the message names the first."""

    @staticmethod
    def records():
        return [(0.5 * i, float(i % 7)) for i in range(10_000)]

    def message(self, recs):
        with pytest.raises(IngestionError) as exc:
            ingest_samples(recs)
        return str(exc.value)

    def test_non_finite(self):
        recs = self.records()
        recs[100] = recs[99]  # order faults are checked after finiteness
        recs[3001] = (1500.5, float("nan"))
        recs[7002] = (float("inf"), 2.0)
        assert self.message(recs) == "record 3001: non-finite entry (1500.5, nan)"

    def test_duplicate_then_decreasing(self):
        recs = self.records()
        recs[4000] = (1999.5, 1.0)
        recs[8000] = (3998.0, 1.0)
        assert self.message(recs) == "record 4000: duplicate abscissa 1999.5"
        recs[4000] = (1999.0, 1.0)
        assert self.message(recs) == "record 4000: decreasing abscissa 1999.0"

    def test_spacing(self):
        recs = self.records()
        recs[2500] = (1250.1, 0.0)
        recs[6000] = (3000.2, 0.0)
        d = np.diff([t for t, _ in recs])[2499]
        want = f"record 2500: spacing {d} deviates from inferred step 0.5"
        assert self.message(recs) == want


class TestMembershipOverflow:
    """Margins beyond the double range raise OverflowError, with no numpy
    warning and no infinite witness."""

    f = [1e308, -1e308, 1e308]

    @pytest.mark.parametrize("check", [is_phi_monotone, is_phi_holder])
    def test_checks(self, check):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflows the double range"):
                check(sfn(self.f), efn(np.zeros(3)))

    def test_monotone_sandwich(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflows the double range"):
                monotone_sandwich(sfn(self.f), sfn([-1e308] * 3), efn(np.zeros(3)))

    def test_holder_sandwich(self):
        phi = efn([0.0, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflows the double range"):
                holder_sandwich(sfn(self.f), sfn(self.f), phi)
            out, w = holder_sandwich(sfn(self.f), sfn([1e308] * 3), phi)
        assert w is None and list(out.values) == [1e308] * 3

    def test_large_finite_margin_still_a_witness(self):
        ok, w = is_phi_holder(sfn([1e307, -1e307, 1e307]), efn(np.zeros(3)))
        assert not ok and w.lhs == 2e307


def near_member(rng, table, holder: bool) -> np.ndarray:
    """A member of the check, up to rounding: a monotone envelope of a
    random walk, or (Hölder) steps within the table's slope."""
    n = len(table)
    if holder:
        return np.cumsum(rng.uniform(-table[1], table[1], n))
    walk = sfn(np.cumsum(rng.normal(size=n)) / math.sqrt(n))
    return monotone_lower_envelope(walk, efn(table)).values.copy()


def steep_ramp(rng, n: int):
    """(v, table): v drops by ``c * (1 + 3e-17 * U)`` per step against the
    non-dyadic table ``fl(k * c)``.  Every step excess is an ulp or less, and
    ``fl(v[i] - v[j])`` may round above ``t[k] = fl(k * c)`` by about an ulp
    of k*c more than the summed excess: what the certificate's delta covers."""
    c = rng.uniform(0.01, 0.3)
    steps = c * (1 + 3e-17 * rng.uniform(-1, 1, n - 1))
    v = rng.uniform(-1, 1) - np.concatenate([[0.0], np.cumsum(steps)])
    return v, np.arange(n) * c


def float_excess(v, table, holder: bool) -> float:
    """The excess the certificate computes: sum of max(d_m - table[1], 0)."""
    d = np.diff(v)
    d = np.abs(d) if holder else -d
    return float(np.maximum(d - table[1], 0.0).sum())


@st.composite
def star_check_case(draw):
    """(f, phi, tol, holder), mostly on a table with ``phi[k] >= k * phi[1]``:
    near members, near members pushed over at one node by 1e-15 to 1e-3,
    steep ramps and random values, on dyadic or non-dyadic tables.  tol may
    be the certificate's own excess."""
    holder = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["member", "bumped", "ramp", "random"]))
    if kind == "ramp":
        v, table = steep_ramp(rng, draw(st.integers(2, 48)))
        if holder and draw(st.booleans()):
            v = -v
    else:
        if draw(st.booleans()):
            table = draw(star_shaped_table(max_size=48))
        else:
            n = draw(st.integers(2, 48))
            # p = 0.5 is concave: the star test fails and every pair is scanned
            p = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
            table = power_error(PowerErrorSpec(rng.uniform(0.01, 0.3), p), 1.0, n).values
        if kind == "random":
            v = rng.normal(size=len(table))
        else:
            v = near_member(rng, table, holder)
        if kind == "bumped":
            v[draw(st.integers(0, len(v) - 1))] += draw(st.sampled_from([1e-15, 1e-9, 1e-3]))
    tol = draw(st.sampled_from([0.0, 1e-15, 1e-9, 1e-3, "excess"]))
    if tol == "excess":
        tol = float_excess(v, table, holder)
    return sfn(v), efn(table), tol, holder


class TestCertifiedPass:
    """On star-shaped tables a pass may be certified in O(N); the verdict and
    witness must be the full scan's."""

    @given(star_check_case())
    @settings(max_examples=400, deadline=None)
    def test_verdict_and_witness_equal_the_scan(self, case):
        f, phi, tol, holder = case
        ok, w = (is_phi_holder if holder else is_phi_monotone)(f, phi, tol)
        want_ok, pair = scan_check(f.values, phi.values, tol, holder)
        assert ok == want_ok
        assert (w is None) == ok
        if not ok:
            assert w.indices == pair

    @pytest.mark.parametrize("holder", [False, True])
    def test_margin_one_ulp_from_tol(self, holder):
        # tol at the largest float margin m, one ulp either side of it, and
        # at the certificate's excess, which on steep ramps can sit below m
        rng = np.random.default_rng(1201)
        check = is_phi_holder if holder else is_phi_monotone
        below = 0
        for trial in range(200):
            if trial < 8:
                table = power_error(PowerErrorSpec(0.05, 1.5), 1.0, 200).values
                v = near_member(rng, table, holder)
                v[int(rng.integers(200))] += (0.0, 1e-12, 1e-6, 0.5)[trial % 4]
            else:
                v, table = steep_ramp(rng, int(rng.integers(3, 48)))
            m = largest_check_margin(v, table, holder)
            excess = float_excess(v, table, holder)
            below += excess < m
            for tol in (np.nextafter(m, -np.inf), m, np.nextafter(m, np.inf), excess):
                if tol < 0:
                    continue
                ok, w = check(sfn(v), efn(table), float(tol))
                assert ok == (m <= tol)
                assert (ok, w and w.indices) == scan_check(v, table, float(tol), holder)
        assert below  # some margin exceeds the summed excess

    def test_table_below_the_ramp_is_scanned(self):
        # unit steps stay within phi[1] = 1, but phi[2] = 1.5 < 2 * phi[1]
        f, phi = sfn([2.0, 1.0, 0.0]), efn([0.0, 1.0, 1.5])
        ok, w = is_phi_monotone(f, phi)
        assert not ok and w.indices == (0, 2)
        ok, w = is_phi_holder(f, phi)
        assert not ok and w.indices == (0, 2)

    def test_passing_members_skip_the_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("scanned a certified pass")

        monkeypatch.setattr(scan, "_max_violation", refuse)
        n = 5000
        rng = np.random.default_rng(1202)
        phi = power_error(PowerErrorSpec(1.0, 1.5), 1.0 / (n - 1), n)
        grid = Grid(0.0, 1.0 / (n - 1), n)
        walk = SampledFn(grid, np.cumsum(rng.normal(size=n)) / math.sqrt(n))
        assert is_phi_monotone(monotone_lower_envelope(walk, phi), phi) == (True, None)
        holder_member = SampledFn(grid, near_member(rng, phi.values, holder=True))
        assert is_phi_holder(holder_member, phi) == (True, None)


class TestMonotoneCheck:
    def test_nondecreasing_with_zero_table(self):
        ok, w = is_phi_monotone(sfn([0, 1, 2]), efn([0, 0, 0]))
        assert ok and w is None

    def test_allowance_saves_one_step_drop(self):
        ok, w = is_phi_monotone(sfn([1, 0]), efn([0, 1]))
        assert ok and w is None

    def test_violation_reports_pair(self):
        ok, w = is_phi_monotone(sfn([2, 0]), efn([0, 1]))
        assert not ok
        assert w.kind is WitnessKind.MONOTONE
        assert w.indices == (0, 1)
        assert w.lhs == 2.0 and w.rhs == 1.0

    def test_witness_is_maximal_violation(self):
        # two violations; the larger one (0 -> 3, drop 5.5 vs allowance 0) wins
        f = sfn([5.5, 4.5, 5, 0])
        ok, w = is_phi_monotone(f, efn([0, 0, 0, 0]))
        assert not ok
        assert w.indices == (0, 3)
        assert w.margin == 5.5

    def test_table_must_cover_grid(self):
        with pytest.raises(DimensionMismatchError):
            is_phi_monotone(sfn([0, 1, 2]), efn([0, 1]))

    def test_step_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            is_phi_monotone(sfn([0, 1], step=0.5), efn([0, 1], step=1.0))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            is_phi_monotone(sfn([0, 1]), efn([0, 1]), tol=-1.0)


# every public entry point that takes tol=, called on samples [0, 5, 1] with
# the zero table: the checks fail there, and NaN or infinity would pass them
TOL_ENTRY_POINTS = {
    "is_phi_monotone": lambda f, z, tol: approxmono.is_phi_monotone(f, z, tol),
    "is_phi_holder": lambda f, z, tol: approxmono.is_phi_holder(f, z, tol),
    "is_subadditive": lambda f, z, tol: approxmono.is_subadditive(z, tol),
    "is_absolutely_subadditive": lambda f, z, tol: approxmono.is_absolutely_subadditive(
        z, tol
    ),
    "monotone_sandwich": lambda f, z, tol: approxmono.monotone_sandwich(f, f, z, tol),
    "holder_sandwich": lambda f, z, tol: approxmono.holder_sandwich(f, f, z, tol),
    "monotone_bracket": lambda f, z, tol: approxmono.monotone_bracket(f, z, z, tol),
    "holder_bracket": lambda f, z, tol: approxmono.holder_bracket(f, z, z, tol),
    "delta_variation_bound": lambda f, z, tol: approxmono.delta_variation_bound(
        f, f, z, z, tol
    ),
    "is_holder_via_variation": lambda f, z, tol: approxmono.is_holder_via_variation(
        f, z, tol
    ),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_tolerance_must_be_finite_and_nonnegative(entry, tol):
    with pytest.raises(ConfigurationError):
        TOL_ENTRY_POINTS[entry](sfn([0, 5, 1]), efn([0, 0, 0]), tol)


class TestHolderCheck:
    def test_constant_function(self):
        ok, _ = is_phi_holder(sfn([3, 3, 3]), efn([0, 0, 0]))
        assert ok

    def test_equality_case(self):
        ok, _ = is_phi_holder(sfn([0, 1]), efn([0, 1]))
        assert ok

    def test_violation(self):
        ok, w = is_phi_holder(sfn([0, 2]), efn([0, 1]))
        assert not ok
        assert w.indices == (0, 1)
        assert w.lhs == 2.0 and w.rhs == 1.0
        assert w.kind is WitnessKind.HOLDER


dyadic_vals = st.integers(-(1 << 17), 1 << 17).map(lambda i: i * SCALE)
dyadic_nonneg = st.integers(0, 1 << 17).map(lambda i: i * SCALE)


@st.composite
def fn_and_table(draw):
    n = draw(st.integers(2, 10))
    f = sfn(draw(st.lists(dyadic_vals, min_size=n, max_size=n)))
    phi = efn(draw(st.lists(dyadic_nonneg, min_size=n, max_size=n)))
    return f, phi


class TestHolderMonotoneEquivalence:
    @given(fn_and_table())
    @settings(max_examples=200, deadline=None)
    def test_holder_iff_both_signs_monotone(self, case):
        f, phi = case
        holder, _ = is_phi_holder(f, phi, 0.0)
        fwd, _ = is_phi_monotone(f, phi, 0.0)
        bwd, _ = is_phi_monotone(-f, phi, 0.0)
        assert holder == (fwd and bwd)

    @given(fn_and_table())
    @settings(max_examples=100, deadline=None)
    def test_positive_part_preserves_monotone(self, case):
        f, phi = case
        ok, _ = is_phi_monotone(f, phi, 0.0)
        if ok:
            clipped = SampledFn(f.grid, np.maximum(f.values, 0.0))
            assert is_phi_monotone(clipped, phi, 0.0)[0]

    @given(fn_and_table())
    @settings(max_examples=100, deadline=None)
    def test_abs_preserves_holder(self, case):
        f, phi = case
        ok, _ = is_phi_holder(f, phi, 0.0)
        if ok:
            absf = SampledFn(f.grid, np.abs(f.values))
            assert is_phi_holder(absf, phi, 0.0)[0]


class TestConeCombine:
    @pytest.mark.parametrize(
        "coeffs, which",
        [([1, 1], "function"), ([1, 1], "table"), ([2, -2], "function")],
    )
    def test_overflowing_sums_raise_without_warning(self, coeffs, which):
        # 2e308 - 2e308 is inf - inf: NaN, reported as the same overflow
        big, small = [1e308] * 3, [0.0, 1.0, 2.0]
        f = sfn(big if which == "function" else small)
        phi = efn(big if which == "table" else small)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflows the double range"):
                cone_combine(coeffs, [f, f], [phi, phi], "holder")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            cone_combine([bad], [sfn([0, 1])], [efn([0, 1])], "holder")

    def test_identity(self):
        f = sfn([1, 2, 0])
        phi = efn([0, 2, 2])
        g, psi = cone_combine([1.0], [f], [phi], "monotone")
        assert np.array_equal(g.values, f.values)
        assert np.array_equal(psi.values, phi.values)

    def test_cancellation_in_holder_mode(self):
        f = sfn([0.5, 1, 0.25])
        phi = efn([0, 1, 1])
        g, psi = cone_combine([1.0, 1.0], [f, -f], [phi, phi], "holder")
        assert np.array_equal(g.values, np.zeros(3))
        assert np.array_equal(psi.values, 2 * phi.values)
        assert is_phi_holder(g, psi, 0.0)[0]

    def test_monotone_mode_rejects_negative_coeff(self):
        f = sfn([0, 1])
        with pytest.raises(ValueError):
            cone_combine([-1.0], [f], [efn([0, 1])], "monotone")

    def test_grids_equal_within_spacing_tolerance_combine(self):
        a = sfn([0, 1, 2], step=0.1)
        b = SampledFn(Grid(0.0, 0.1 * (1 + 1e-12), 3), [2, 1, 0])
        g, _ = cone_combine([1.0, 1.0], [a, b], [efn([0, 1, 1], 0.1)] * 2, "holder")
        assert np.array_equal(g.values, [2.0, 2.0, 2.0])
        assert np.array_equal(pointwise_extrema([a, b], "sup").values, [2.0, 1.0, 2.0])
        assert not a.grid.compatible(sfn([0, 1, 2], step=0.1, origin=0.01).grid)
        assert not a.grid.compatible(sfn([0, 1], step=0.1).grid)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            cone_combine(
                [1.0, 1.0],
                [sfn([0, 1]), sfn([0, 1], origin=5.0)],
                [efn([0, 1]), efn([0, 1])],
                "holder",
            )
        with pytest.raises(DimensionMismatchError):
            approxmono.delta_variation_bound(
                sfn([0, 1]), sfn([0, 1], origin=5.0), efn([0, 1]), efn([0, 1])
            )

    def test_random_monotone_combination_stays_member(self):
        rng = np.random.default_rng(7)
        grid = Grid(0.0, 1.0, 8)
        for _ in range(30):
            phi1 = rand_error(rng, 8)
            phi2 = rand_error(rng, 8)
            f1 = mono_member(rng, grid, phi1)
            f2 = mono_member(rng, grid, phi2)
            coeffs = [2.0, 3.0]
            g, psi = cone_combine(coeffs, [f1, f2], [phi1, phi2], "monotone")
            assert is_phi_monotone(g, psi, 1e-9)[0]


class TestPointwiseExtrema:
    def test_singleton(self):
        f = sfn([1, 2, 3])
        assert np.array_equal(pointwise_extrema([f], "sup").values, f.values)

    def test_idempotent_on_duplicates(self):
        f = sfn([1, 2, 3])
        assert np.array_equal(pointwise_extrema([f, f], "inf").values, f.values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pointwise_extrema([], "sup")

    def test_closure_of_membership(self):
        rng = np.random.default_rng(11)
        grid = Grid(0.0, 1.0, 9)
        phi = rand_error(rng, 9)
        fns = [mono_member(rng, grid, phi) for _ in range(4)]
        for which in ("sup", "inf"):
            out = pointwise_extrema(fns, which)
            assert is_phi_monotone(out, phi, 0.0)[0]


def test_witness_invariant_margin_positive():
    rng = np.random.default_rng(3)
    for _ in range(50):
        f = sfn(dyadic(rng, -2, 2, 7))
        phi = rand_error(rng, 7, hi=0.5)
        ok, w = is_phi_monotone(f, phi, 0.0)
        if not ok:
            assert isinstance(w, Witness)
            assert w.lhs > w.rhs
            i, j = w.indices
            assert f.values[i] == w.lhs
