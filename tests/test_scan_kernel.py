"""The bounded violation scan `scan._max_violation` against the row loop.

The kernel evaluates only the tiles whose bound can hold the largest margin.
Each of the five scans that go through it must give what the plain row loop
(`helpers.loop_max_violation`) gives: the verdict, the pair, the witness
bytes, and OverflowError where the loop raises it.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxmono import (
    ErrorFn,
    Grid,
    PowerErrorSpec,
    PreconditionError,
    SampledFn,
    holder_bracket,
    is_absolutely_subadditive,
    is_phi_holder,
    is_phi_monotone,
    is_subadditive,
    monotone_bracket,
    monotone_sandwich,
    power_error,
    subadditive_envelope,
)
from approxmono import scan
from helpers import (
    check_rows,
    largest_margin,
    loop_max_violation,
    relative_rows,
    sandwich_rows,
    scan_check,
    scan_relative,
    scan_sandwich,
    scan_signed,
    signed_rows,
)

# Below 1025 positions a tile has 32 rows and 32 positions: sizes below, at
# and just past one tile, around two and three tiles, and 1057, whose tiles
# have side 33.
SIZES = [2, 3, 31, 32, 33, 63, 64, 65, 97, 1057]

# The default span cost, and 0, which evaluates every run of kept tiles
# apart instead of joining short gaps.
SPAN_COSTS = [scan._SPAN_COST, 0]


def sfn(vals):
    return SampledFn(Grid(0.0, 1.0, len(vals)), vals)


def efn(vals):
    return ErrorFn(1.0, vals)


def bits(*xs) -> bytes:
    return np.array(xs, dtype=float).tobytes()


def outcome(fn):
    """What fn returns, or the OverflowError type if it raises that.  Any
    numpy warning fails the suite (pyproject's filterwarnings)."""
    try:
        return fn()
    except OverflowError:
        return OverflowError


@st.composite
def arrays(draw, n: int, kind: str, table: bool = False) -> np.ndarray:
    """n values of one kind; a table is nonnegative (-0.0 included)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        pool = [0.0, 1.0, 2.0, 3.0] if table else [-3.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    elif kind == "zeros":
        pool = [0.0, -0.0, 1.0] if table else [0.0, -0.0, 1.0, -1.0]
    elif kind == "huge":
        pool = [0.0, 5e307, 1e308] if table else [-1e308, -8e307, 0.0, 8e307, 1e308]
    elif kind == "spikes":  # few nonzero entries: most tiles hold only zeros
        out = np.zeros(n)
        at = rng.integers(0, n, 3)
        out[at] = rng.choice([1.0, 2.0] if table else [-2.0, -1.0, 1.0, 2.0], 3)
        return out
    elif kind == "steep":  # the largest margins sit at tile edges
        k = np.arange(n, dtype=float)
        if table:
            return draw(st.sampled_from([k * k, np.full(n, 3.0), k]))
        scale = draw(st.sampled_from([1.0, -1.0])) * 2.0 ** draw(st.integers(-2, 2))
        return scale * k * k
    else:  # dyadic walk, with or without drift, or a dyadic table around a ramp
        steps = rng.integers(-64, 65, n) * 2.0**-6
        if table:
            slope = draw(st.sampled_from([0.0, 0.25, 1.0]))
            return np.abs(steps) + np.arange(n) * slope
        return np.cumsum(steps + draw(st.sampled_from([0.0, 1.0, -1.0])))
    return rng.choice(pool, n)


@st.composite
def tolerance(draw, largest: float) -> float:
    """0, the default, or the largest margin and one ulp either side of it."""
    pick = draw(st.sampled_from(["zero", "default", "below", "at", "above"]))
    if pick == "zero" or not 0.0 <= largest < math.inf:
        return 0.0
    if pick == "default":
        return 1e-9
    step = {"below": -math.inf, "at": largest, "above": math.inf}[pick]
    return max(float(np.nextafter(largest, step)), 0.0)


@st.composite
def size_and_kind(draw, sizes=SIZES):
    n = draw(st.sampled_from(sizes))
    if n > 100:  # the row-loop oracle is quadratic; keep the big size rare
        n = draw(st.sampled_from([n, 33]))
    kinds = ["ties", "zeros", "huge", "walk", "steep", "spikes"]
    return n, draw(st.sampled_from(kinds))


def largest_or_overflow(rows, margins, first=0) -> float:
    m = largest_margin(rows, margins, first)
    return m if m < math.inf else math.nan


@pytest.mark.parametrize("span_cost", SPAN_COSTS)
class TestShapesMatchTheRowLoop:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_monotone_and_holder_checks(self, span_cost, data):
        n, kind = data.draw(size_and_kind())
        v, table = data.draw(arrays(n, kind)), data.draw(arrays(n, kind, table=True))
        holder = data.draw(st.booleans())
        tol = data.draw(tolerance(largest_or_overflow(n, check_rows(v, table, holder))))
        check = is_phi_holder if holder else is_phi_monotone
        with mock.patch.object(scan, "_SPAN_COST", span_cost):
            got = outcome(lambda: check(sfn(v), efn(table), tol))
        want = outcome(lambda: scan_check(v, table, tol, holder))
        if want is OverflowError:
            assert got is OverflowError
            return
        ok, pair = want
        assert got[0] == ok
        if ok:
            assert got[1] is None
            return
        i, j = pair
        assert got[1].indices == pair
        lhs = abs(v[i] - v[j]) if holder else v[i]
        rhs = table[j - i] if holder else v[j] + table[j - i]
        assert bits(got[1].lhs, got[1].rhs) == bits(lhs, rhs)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_monotone_sandwich(self, span_cost, data):
        n, kind = data.draw(size_and_kind())
        g, h = data.draw(arrays(n, kind)), data.draw(arrays(n, kind))
        phi = data.draw(arrays(n, kind, table=True))
        phi[0] = 0.0
        sig = subadditive_envelope(efn(phi)).values
        tol = data.draw(tolerance(largest_or_overflow(n, sandwich_rows(g, h, sig))))
        with mock.patch.object(scan, "_SPAN_COST", span_cost):
            got = outcome(lambda: monotone_sandwich(sfn(g), sfn(h), efn(phi), tol))
        want = outcome(lambda: scan_sandwich(g, h, sig, tol))
        if want is OverflowError:
            assert got is OverflowError
            return
        ok, pair = want
        assert (got[0] is not None) == ok
        if ok:
            return
        i, j = pair
        assert got[1].indices == pair
        assert bits(got[1].lhs, got[1].rhs) == bits(g[i], h[j] + sig[j - i])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_relative_scan(self, span_cost, data):
        # is_subadditive scans the table against itself, the monotone
        # bracket's hypothesis against psi (f = 0 passes any check)
        n, kind = data.draw(size_and_kind())
        v = data.draw(arrays(n, kind, table=True))
        psi = data.draw(arrays(n, kind, table=True))
        # past the scan a bracket builds envelopes, which may overflow
        bracket = kind != "huge" and data.draw(st.booleans())
        w = psi if bracket else v
        tol = data.draw(tolerance(largest_or_overflow(n, relative_rows(v, w, n), 1)))
        want = outcome(lambda: scan_relative(v, w, n, tol))
        with mock.patch.object(scan, "_SPAN_COST", span_cost):
            if bracket:
                f = sfn(np.zeros(n))
                try:
                    got = outcome(lambda: monotone_bracket(f, efn(v), efn(psi), tol))
                except PreconditionError as exc:
                    got = exc.witness
            else:
                got = outcome(lambda: is_subadditive(efn(v), tol))
        if want is OverflowError:
            assert got is OverflowError
            return
        if bracket:
            if want is None:
                assert got is not OverflowError and not hasattr(got, "indices")
                return
            j, k = want
            assert got.indices == (j, j + k)
        else:
            assert got[0] == (want is None)
            if want is None:
                return
            j, k = want
            got = got[1]
            assert got.indices == (j, k)
        assert bits(got.lhs, got.rhs) == bits(v[j + k], v[j] + w[k])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_signed_scan(self, span_cost, data):
        # is_absolutely_subadditive scans the table against itself, the
        # Hölder bracket's hypothesis against psi (f = 0 passes any check)
        # rows hold 2n - 1 positions: n = 17 already spans two tiles
        n, kind = data.draw(size_and_kind(SIZES[:-1] + [17]))
        v = data.draw(arrays(n, kind, table=True))
        psi = data.draw(arrays(n, kind, table=True))
        # past the scan a bracket builds envelopes, which may overflow
        bracket = kind != "huge" and data.draw(st.booleans())
        w = psi if bracket else v
        tol = data.draw(tolerance(largest_or_overflow(n, signed_rows(v, w, n))))
        want = outcome(lambda: scan_signed(v, w, n, tol))
        with mock.patch.object(scan, "_SPAN_COST", span_cost):
            if bracket:
                f = sfn(np.zeros(n))
                try:
                    got = outcome(lambda: holder_bracket(f, efn(v), efn(psi), tol))
                except PreconditionError as exc:
                    got = exc.witness
            else:
                got = outcome(lambda: is_absolutely_subadditive(efn(v), tol))
        if want is OverflowError:
            assert got is OverflowError
            return
        if bracket:
            if want is None:
                assert got is not OverflowError and not hasattr(got, "indices")
                return
            j, k = want
            assert got.indices == (abs(j + k), j)
        else:
            assert got[0] == (want is None)
            if want is None:
                return
            j, k = want
            got = got[1]
            assert got.indices == (j, k)
        assert bits(got.lhs, got.rhs) == bits(v[abs(j + k)], v[j] + w[abs(k)])


def test_tiles_past_the_row_ends_never_seed_the_scan():
    # tile bounds past a row's last position read padded blocks; here one of
    # them is the largest bound, yet holds no pair
    n = 64
    a, b, c = np.zeros(n), np.zeros(n), np.ones(n)
    a[-1], b[-1], c[-20:] = 100.0, -100.0, 0.0
    want = loop_max_violation(n, lambda r: (a[r:] - b[r]) - c[: n - r], 0.0)
    assert scan._shifted_violation(a, b, c, 0.0) == want == (63, 0)


class TestPrunedWork:
    """The kernel must skip what its bounds rule out; counted by wrapping
    the margins callback."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        counts = []
        kernel = scan._max_violation

        def counting(rows, width, margins, bounds, tol, first=0):
            counts.append(0)

            def counted(r, lo, hi):
                counts[-1] += hi - lo
                return margins(r, lo, hi)

            return kernel(rows, width, counted, bounds, tol, first)

        monkeypatch.setattr(scan, "_max_violation", counting)
        return counts

    def test_failing_walk_check_evaluates_few_pairs(self, evaluated):
        n = 5000
        step = 1.0 / (n - 1)
        rng = np.random.default_rng(1001)
        path = np.cumsum(rng.normal(size=n)) / math.sqrt(n)
        walk = SampledFn(Grid(0.0, step, n), path)
        phi = power_error(PowerErrorSpec(1.0, 1.5), step, n)
        ok, w = is_phi_monotone(walk, phi)
        assert not ok
        assert (ok, w.indices) == scan_check(walk.values, phi.values, 1e-9)
        assert len(evaluated) == 1 and evaluated[0] < 0.05 * n * (n + 1) / 2

    def test_holder_bracket_with_constant_psi_evaluates_none(self, evaluated):
        n = 1000
        step = 1.0 / (n - 1)
        phi = power_error(PowerErrorSpec(1.0, 0.5), step, n)
        psi = ErrorFn(step, np.full(n, phi.values.max()))
        holder_bracket(SampledFn(Grid(0.0, step, n), np.zeros(n)), phi, psi)
        assert evaluated and sum(evaluated) == 0
