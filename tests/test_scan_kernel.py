"""The tiled violation scan `scan._max_violation` against the row loop.

The kernel evaluates only the tiles whose bound can hold the largest margin,
in order of bound.  Each of the five scans that go through it must give what
the plain row loop (`helpers.loop_max_violation`) gives: the verdict, the
pair, the witness bytes, and OverflowError where the loop raises it.
"""
import math

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
    largest_check_margin,
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

# A tile has scan._SIDE = 128 rows and 128 positions: sizes below, at and
# just past one tile, around two tiles, and three tiles.
SIZES = [2, 3, 127, 128, 129, 255, 257, 385]


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
    if n > scan._SIDE + 1:  # the row-loop oracle is quadratic; keep big sizes rare
        n = draw(st.sampled_from([n, 3, 33, 129]))
    kinds = ["ties", "zeros", "huge", "walk", "steep", "spikes"]
    return n, draw(st.sampled_from(kinds))


def largest_or_overflow(rows, margins, first=0) -> float:
    m = largest_margin(rows, margins, first)
    return m if m < math.inf else math.nan


@st.composite
def two_tile_margins(draw):
    """(a, b, c) for `scan._diagonal_violation` with its largest margin, 1,
    planted at (k, i) and at (k, j) in a later position block, and a large
    operand a[x] > 1 in j's block past j + k, with b = a[x] from x on, so
    that no pair of x violates.  The later tile's bound exceeds 1 and it is
    visited first; the earlier one's bound is exactly 1 and it holds the
    first pair.  Dyadic noise elsewhere keeps every other margin below 1."""
    side = scan._SIDE
    n = draw(st.integers(side + 2, 3 * side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j = draw(st.integers(side, n - 2).filter(lambda j: j % side < side - 1))
    end = min(n, (j // side + 1) * side)  # x lies in j's block, past j + k
    k = draw(st.integers(0, end - j - 2))
    x = draw(st.integers(j + k + 1, end - 1))
    i = draw(st.integers(0, (j // side) * side - 1))
    a = rng.integers(-64, 33, n) * 2.0**-6  # at most 0.5
    b = rng.integers(0, 65, n) * 2.0**-6
    c = 0.5 + rng.integers(0, 65, n) * 2.0**-6
    big = draw(st.sampled_from([1.5, 5.0, 1e300]))
    a[[i, j, x]] = 1.0, 1.0, big
    b[[i + k, j + k]] = 0.0
    b[x:] = big
    c[k] = 0.0
    return a, b, c


class TestShapesMatchTheRowLoop:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_monotone_and_holder_checks(self, data):
        n, kind = data.draw(size_and_kind())
        v, table = data.draw(arrays(n, kind)), data.draw(arrays(n, kind, table=True))
        holder = data.draw(st.booleans())
        tol = data.draw(tolerance(largest_or_overflow(n, check_rows(v, table, holder))))
        check = is_phi_holder if holder else is_phi_monotone
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
    def test_monotone_sandwich(self, data):
        n, kind = data.draw(size_and_kind())
        g, h = data.draw(arrays(n, kind)), data.draw(arrays(n, kind))
        phi = data.draw(arrays(n, kind, table=True))
        phi[0] = 0.0
        sig = subadditive_envelope(efn(phi)).values
        tol = data.draw(tolerance(largest_or_overflow(n, sandwich_rows(g, h, sig))))
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

    @given(two_tile_margins(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equal_margins_in_two_tiles(self, case, data):
        # the tie rule at random sizes: the earlier tile's bound equals the
        # best margin once the later tile is evaluated, and its first cell
        # comes before the best pair, so it must not be skipped
        a, b, c = case
        n = len(a)
        tol = data.draw(tolerance(1.0))
        want = loop_max_violation(n, diagonal_rows(a, b, c), tol)
        assert scan._diagonal_violation(a, b, c, tol) == want

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_relative_scan(self, data):
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
    def test_signed_scan(self, data):
        # is_absolutely_subadditive scans the table against itself, the
        # Hölder bracket's hypothesis against psi (f = 0 passes any check)
        # rows hold 2n - 1 positions: n = 65 already spans two tiles
        n, kind = data.draw(size_and_kind([2, 3, 64, 65, 127, 128, 129, 193]))
        v = data.draw(arrays(n, kind, table=True))
        psi = data.draw(arrays(n, kind, table=True))
        # past the scan a bracket builds envelopes, which may overflow
        bracket = kind != "huge" and data.draw(st.booleans())
        w = psi if bracket else v
        tol = data.draw(tolerance(largest_or_overflow(n, signed_rows(v, w, n))))
        want = outcome(lambda: scan_signed(v, w, n, tol))
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
    n = 2 * scan._SIDE
    a, b, c = np.zeros(n), np.zeros(n), np.ones(n)
    a[-1], b[-1], c[-20:] = 100.0, -100.0, 0.0
    want = loop_max_violation(n, lambda r: (a[r:] - b[r]) - c[: n - r], 0.0)
    assert scan._shifted_violation(a, b, c, 0.0) == want == (n - 1, 0)


def diagonal_rows(a, b, c):
    """Row k of `scan._diagonal_violation`'s margins, for the row loop."""
    n = len(a)
    return lambda k: (a[: n - k] - b[k:]) - c[k]


def test_equal_margins_resolve_to_the_first_pair_across_tiles():
    # margin 1 at (0, 0) in tile (0, 0), whose bound is exactly 1, and at
    # (0, 130) in tile (0, 1), whose bound 5 comes from a[200] (every pair of
    # which reads b = 10): the later tile is visited first, and the equal
    # bound of the earlier one must not skip it
    n = 2 * scan._SIDE
    a, b, c = np.zeros(n), np.zeros(n), np.full(n, 0.5)
    a[0] = a[130] = 1.0
    a[200], b[200:], c[0] = 5.0, 10.0, 0.0
    want = loop_max_violation(n, diagonal_rows(a, b, c), 0.0)
    assert scan._diagonal_violation(a, b, c, 0.0) == want == (0, 0)


def test_overflow_in_a_later_tile_of_infinite_bound():
    # tiles (0, 0) and (1, 0) both have bound +inf from a[0] = 1e308 and
    # b[200] = -1e308; the first one visited holds only finite margins, the
    # overflowing one, a[0] - b[200], lies in row 200 of the second
    n = 2 * scan._SIDE
    a, b, c = np.zeros(n), np.zeros(n), np.zeros(n)
    a[0], b[200] = 1e308, -1e308
    with pytest.raises(OverflowError):
        loop_max_violation(n, diagonal_rows(a, b, c), 0.0)
    with pytest.raises(OverflowError, match="overflows the double range"):
        scan._diagonal_violation(a, b, c, 0.0)


class TestPrunedWork:
    """The kernel must skip what its bounds rule out; counted by wrapping
    the tile callback and adding up the cells it returns."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        counts = []
        kernel = scan._max_violation

        def counting(rows, width, tile, bound, tol):
            counts.append(0)

            def counted(r0, r1, lo, hi):
                out = tile(r0, r1, lo, hi)
                counts[-1] += out.size
                return out

            return kernel(rows, width, counted, bound, tol)

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

    def test_holder_check_second_side_evaluates_fewer_pairs(self, evaluated):
        # f fails first; -f then runs with f's largest margin as its
        # tolerance, and evaluates fewer pairs than it does on its own
        n = 5000
        step = 1.0 / (n - 1)
        rng = np.random.default_rng(1002)
        path = np.cumsum(rng.normal(size=n)) / math.sqrt(n)
        walk = SampledFn(Grid(0.0, step, n), path)
        phi = power_error(PowerErrorSpec(1.0, 1.5), step, n)
        ok, w = is_phi_holder(walk, phi)
        assert not ok
        assert (ok, w.indices) == scan_check(walk.values, phi.values, 1e-9, True)
        assert not is_phi_monotone(-walk, phi)[0]
        assert len(evaluated) == 3
        assert evaluated[1] < evaluated[0] and evaluated[1] < evaluated[2]


@st.composite
def two_sided_ties(draw):
    """(v, table): dyadic values from a five-point pool with the pool's
    extremes planted as hi, lo, hi, against a table constant past offset 0,
    so f and -f both reach the largest margin, at different pairs."""
    n = draw(st.sampled_from([3, 4, 5, 31, 33, 65, 97]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], n)
    sign = draw(st.sampled_from([1.0, -1.0]))
    v[np.sort(rng.choice(n, 3, replace=False))] = sign * np.array([1.0, -1.0, 1.0])
    table = np.full(n, draw(st.sampled_from([0.0, 0.25, 1.0, 1.75])))
    table[0] = draw(st.sampled_from([0.0, 0.5]))
    return v, table


class TestHolderIsTwoMonotoneChecks:
    """`is_phi_holder` runs the monotone check on f and on -f; the verdict,
    witness and OverflowError must be the one |f[i] - f[j]| scan's."""

    @given(two_sided_ties(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_first_pair_wins_a_tie_between_sides(self, case, data):
        v, table = case
        up = largest_margin(len(v), check_rows(v, table))
        down = largest_margin(len(v), check_rows(-v, table))
        assert up == down == largest_check_margin(v, table, holder=True)
        tol = data.draw(tolerance(up))
        ok, w = is_phi_holder(sfn(v), efn(table), tol)
        want_ok, pair = scan_check(v, table, tol, holder=True)
        assert ok == want_ok and (w is None) == ok
        if not ok:
            i, j = pair
            assert w.indices == pair
            assert bits(w.lhs, w.rhs) == bits(abs(v[i] - v[j]), table[j - i])

    @pytest.mark.parametrize(
        "values,pair",
        [
            ([1.0, -1.0, 0.0, 1.0], (0, 1)),
            ([-1.0, 1.0, 0.0, -1.0], (0, 1)),
        ],
    )
    def test_either_side_may_hold_the_first_pair(self, values, pair):
        # the largest margin is 2 on both sides; the first pair of the
        # one |f[i] - f[j]| scan wins, whichever side holds it
        v, table = np.array(values), np.zeros(4)
        ok, w = is_phi_holder(sfn(v), efn(table))
        assert (ok, w.indices) == (False, pair) == scan_check(v, table, 0.0, True)

    @pytest.mark.parametrize(
        "values", [[-1e308, 1e308], [-1e308, 1e308, 0.0]], ids=["f passes", "f fails"]
    )
    def test_overflow_on_the_negated_side_only(self, values):
        f, phi = sfn(values), efn(np.zeros(len(values)))
        assert outcome(lambda: is_phi_monotone(f, phi)) is not OverflowError
        assert outcome(lambda: is_phi_monotone(-f, phi)) is OverflowError
        with pytest.raises(OverflowError, match="overflows the double range"):
            is_phi_holder(f, phi)
