"""In-process library workloads: monotone-scan and holder-lattice.

Inputs are drawn from ``numpy.random.default_rng([seed, ...])`` and built with
the package's own constructors.  Every job calls one public function through
the package namespace, looked up at call time so the traced run times it.
"""
from __future__ import annotations

import numpy as np

import reference as ref
from common import RTOL, TOL, Job, Workload, check_close, check_verdict, check_witness, expect

# Inputs of the table-longer-than-grid jobs; fixed so that they fail the same
# way on every seed.
WINDOW_SEED = 190906243
WINDOW_SIGNAL = 1200
WINDOW_WIDTH = 500
WINDOW_STARTS = (100, 650)


def random_walk(rng, n: int, amp: float = 1.0) -> np.ndarray:
    """Brownian path on [0, 1] with standard deviation ``amp`` at t = 1."""
    return np.cumsum(rng.normal(0.0, amp / np.sqrt(n), n))


def wave(rng, n: int) -> np.ndarray:
    """Smooth curve plus noise."""
    t = np.linspace(0.0, 1.0, n)
    return np.sin(2 * np.pi * (2 + 3 * rng.random()) * t) + 0.05 * rng.normal(size=n)


def cone_member(rng, n: int, eps: float) -> np.ndarray:
    """min over cones c + eps*sqrt(|t - s|): Hölder within eps*u**0.5."""
    t = np.linspace(0.0, 1.0, n)
    centers = rng.random(8)
    heights = 0.3 * rng.random(8)
    return np.min(heights[:, None] + eps * np.sqrt(np.abs(t - centers[:, None])), axis=0)


def rough_table(rng, n: int, lo: float = 0.2, hi: float = 1.0) -> np.ndarray:
    """Random non-monotone table vanishing at 0, values in [lo, hi] elsewhere."""
    vals = rng.uniform(lo, hi, n)
    vals[0] = 0.0
    return vals


def flat_member(rng, n: int, lo: float) -> np.ndarray:
    """Oscillation below lo, so Hölder within any table that is >= lo off 0."""
    t = np.linspace(0.0, 1.0, n)
    return 0.45 * lo * np.sin(2 * np.pi * 3 * t) + 0.045 * lo * rng.uniform(-1, 1, n)


class Memo(dict):
    """Reference results shared by the checks of one run."""

    def get_or(self, key, compute):
        if key not in self:
            self[key] = compute()
        return self[key]


def _call(am, name: str, *args):
    return lambda: getattr(am, name)(*args)


# --- monotone-scan ----------------------------------------------------------


def build_monotone_scan(am, ctx) -> list[Job]:
    """Diagonal scans and the sigma recurrence on convex power tables."""
    rng = np.random.default_rng([ctx.seed, 1])
    memo = Memo()
    jobs: list[Job] = []

    def convex(n, p, eps):
        step = 1.0 / (n - 1)
        return am.power_error(am.PowerErrorSpec(eps, p), step, n)

    n = 5000
    grid = am.Grid(0.0, 1.0 / (n - 1), n)
    fns = {"walk": am.SampledFn(grid, random_walk(rng, n)), "wave": am.SampledFn(grid, wave(rng, n))}
    tables = {f"p{p}": convex(n, p, eps) for p, eps in ((1.0, 1.0), (1.5, 1.0), (2.0, 2.0))}
    for tname, phi in tables.items():
        jobs.append(_sigma_job(am, f"5k/{tname}", phi, ref.sigma_convex))
        jobs.append(_subadd_job(am, f"5k/{tname}", phi))
    for fname, f in fns.items():
        jobs.append(_individual_job(am, f"5k/{fname}", f, "individual_sigma"))
    for fname, f in fns.items():
        for tname, phi in tables.items():
            jobs += _monotone_jobs(am, f"5k/{fname}/{tname}", f, phi, fname == "walk", rng, memo)

    n = 20000
    grid = am.Grid(0.0, 1.0 / (n - 1), n)
    walk = am.SampledFn(grid, random_walk(rng, n))
    phi = convex(n, 1.5, 1.0)
    jobs.append(_check_job(am, "20k/walk/p1.5", walk, phi, holder=False))
    jobs.append(_mono_env_job(am, "20k/walk/p1.5", walk, phi, "lower", memo))
    return jobs


def _sigma_job(am, label, phi, reference) -> Job:
    def check(out):
        problems = []
        check_close(problems, "sigma", out.values, reference(phi.values))
        return problems

    return Job(f"{label}/subadditive_envelope", _call(am, "subadditive_envelope", phi), check)


def _subadd_job(am, label, phi) -> Job:
    v = phi.values

    def check(out):
        ok, w = out
        problems = []
        margin = ref.subadditive_margin(v)
        if not check_verdict(problems, "is_subadditive", ok, margin, TOL):
            j, k = w.indices
            check_witness(problems, "is_subadditive", w, v[j + k], v[j] + v[k], margin, TOL)
        return problems

    return Job(f"{label}/is_subadditive", _call(am, "is_subadditive", phi), check)


def _individual_job(am, label, f, name) -> Job:
    pick = 0 if name == "individual_sigma" else 1

    def check(out):
        problems = []
        check_close(problems, name, out.values, ref.individual_tables(f.values)[pick])
        return problems

    return Job(f"{label}/{name}", _call(am, name, f), check)


def _check_job(am, label, f, phi, holder: bool) -> Job:
    name = "is_phi_holder" if holder else "is_phi_monotone"
    x = f.values
    t = phi.values[: len(x)]

    def check(out):
        ok, w = out
        problems = []
        margin = ref.holder_margin(x, t) if holder else ref.mono_margin(x, t)
        if not check_verdict(problems, name, ok, margin, TOL):
            i, j = w.indices
            lhs = abs(x[i] - x[j]) if holder else x[i]
            rhs = t[abs(j - i)] if holder else x[j] + t[j - i]
            check_witness(problems, name, w, lhs, rhs, margin, TOL)
        return problems

    return Job(f"{label}/{name}", _call(am, name, f, phi), check)


def _mono_env_job(am, label, f, phi, side, memo) -> Job:
    name = f"monotone_{side}_envelope"
    dp = ref.mono_lower_dp if side == "lower" else ref.mono_upper_dp

    def check(out):
        problems = []
        want = memo.get_or((label, side), lambda: dp(f.values, phi.values))
        check_close(problems, name, out.values, want)
        return problems

    return Job(f"{label}/{name}", _call(am, name, f, phi), check)


def _monotone_jobs(am, label, f, phi, feasible: bool, rng, memo) -> list[Job]:
    """Checks, envelopes, a sandwich, the bracket and the variation on one pair."""
    n = f.grid.count
    pv = phi.values
    c = float(pv[1])
    member = am.SampledFn(f.grid, ref.mono_lower_convex(f.values, c))
    psi = am.ErrorFn(phi.grid_step, pv[-1] - pv[::-1])  # phi[j] - phi[i] <= psi[j-i]
    if feasible:
        g = am.SampledFn(f.grid, member.values - 0.01 * (1 + rng.random(n)))
    else:
        bump = f.values.copy()
        bump[n // 3] += 1.0
        g = am.SampledFn(f.grid, bump)
    jobs = [
        _check_job(am, f"{label}/member", member, phi, holder=False),
        _check_job(am, label, f, phi, holder=False),
        _mono_env_job(am, label, f, phi, "lower", memo),
        _mono_env_job(am, label, f, phi, "upper", memo),
    ]

    def check_sandwich(out):
        s, w = out
        problems = []
        lower_h = memo.get_or((label, "lower"), lambda: ref.mono_lower_dp(f.values, pv))
        gap = float((g.values - lower_h).max())
        if s is not None:
            expect(problems, w is None, "sandwich: both a result and a witness")
            check_close(problems, "sandwich", s.values, lower_h)
            expect(problems, gap <= TOL, f"sandwich: feasible answer for an infeasible pair ({gap})")
            return problems
        expect(problems, gap > TOL, f"sandwich: reported infeasible, yet g <= envelope(h) ({gap})")
        sig = ref.sigma_convex(pv)
        i, j = w.indices
        margin = ref.sandwich_margin(g.values, f.values, sig, holder=False)
        check_witness(problems, "sandwich", w, g.values[i], f.values[j] + sig[j - i], margin, TOL)
        return problems

    jobs.append(Job(f"{label}/monotone_sandwich", _call(am, "monotone_sandwich", g, f, phi), check_sandwich))

    def check_bracket(out):
        problems = []
        lower, upper = ref.mono_bracket_convex(member.values, c)
        check_close(problems, "bracket lower", out.lower.values, lower)
        check_close(problems, "bracket upper", out.upper.values, upper)
        return problems

    jobs.append(Job(f"{label}/monotone_bracket", _call(am, "monotone_bracket", member, phi, psi), check_bracket))

    def check_variation(out):
        problems = []
        expect(problems, out.start_index == 0, "variation: wrong start")
        check_close(problems, "variation", out.prefix, ref.variation_push(f.values, pv))
        return problems

    jobs.append(Job(f"{label}/total_phi_variation", _call(am, "total_phi_variation", f, phi), check_variation))

    def check_jordan(out):
        problems = []
        gv, hv = out.g.values, out.h.values
        check_close(problems, "jordan g - h", gv - hv, f.values)
        check_close(problems, "jordan g + h", gv + hv, ref.variation_push(f.values, 2.0 * pv))
        s = ref.scale(gv, hv)
        for half, vals in (("g", gv), ("h", hv)):
            m = ref.mono_margin(vals, pv)
            expect(problems, m <= TOL + RTOL * s, f"jordan {half} not monotone (margin {m})")
        return problems

    jobs.append(Job(f"{label}/jordan_decompose", _call(am, "jordan_decompose", f, phi), check_jordan))
    return jobs


# --- holder-lattice ---------------------------------------------------------


def build_holder_lattice(am, ctx) -> list[Job]:
    """Lattice search for alpha, Hölder envelopes and sigma on rough tables."""
    rng = np.random.default_rng([ctx.seed, 2])
    memo = Memo()
    jobs: list[Job] = []
    # Sizes and tables are chosen so that the p50 rank falls among the 1k and
    # window lattice jobs (~80-105 ms) and the p90 rank among the 2k ones.
    for n, tag, kinds in ((1000, "1k", ("rough",)), (2000, "2k", ("rough", "concave"))):
        step = 1.0 / (n - 1)
        grid = am.Grid(0.0, step, n)
        walk = am.SampledFn(grid, random_walk(rng, n))
        jobs.append(_individual_job(am, f"{tag}/walk", walk, "individual_alpha"))
        rough = rough_table(rng, n)
        tables = {
            "rough": (am.ErrorFn(step, rough), flat_member(rng, n, float(rough[1:].min()))),
            "concave": (am.power_error(am.PowerErrorSpec(0.5, 0.5), step, n), cone_member(rng, n, 0.5)),
        }
        for tname in kinds:
            phi, member = tables[tname]
            label = f"{tag}/{tname}"
            jobs += _holder_jobs(am, label, walk, am.SampledFn(grid, member), phi, memo, tname == "rough")

    # Windows of one long signal, each used with the signal's full-length table.
    wrng = np.random.default_rng(WINDOW_SEED)
    vals = np.zeros(WINDOW_SIGNAL)
    vals[1:WINDOW_WIDTH] = wrng.uniform(1.0, 2.0, WINDOW_WIDTH - 1)
    vals[WINDOW_WIDTH:] = wrng.uniform(0.05, 0.1, WINDOW_SIGNAL - WINDOW_WIDTH)
    step = 1.0 / (WINDOW_SIGNAL - 1)
    phi = am.ErrorFn(step, vals)
    signal = am.SampledFn(am.Grid(0.0, step, WINDOW_SIGNAL), random_walk(wrng, WINDOW_SIGNAL, 3.0))
    for start in WINDOW_STARTS:
        win = signal.window(start, start + WINDOW_WIDTH)
        label = f"window{start}"
        jobs.append(_holder_env_job(am, label, win, phi, "lower", memo, known_fault=True))
        jobs.append(_holder_sandwich_job(am, label, win, phi, memo, feasible=True, known_fault=True))
    return jobs


def _refs(memo, label, key, x, phi):
    """Reference bounds for Hölder envelopes of the values x (named key).

    Returns the table cut to x's grid, its alpha, the envelope of x through
    that alpha and the grid-exact largest member below x.
    """
    n = len(x)
    t = phi.values[:n]
    alpha = memo.get_or((label, "alpha"), lambda: ref.alpha_lattice(t, n))
    lo = memo.get_or((label, key, "lo"), lambda: ref.table_lower(x, alpha))
    hi = memo.get_or((label, key, "hi"), lambda: ref.grid_exact_lower(x, t))
    return t, alpha, lo, hi


def _check_holder_lower(problems, name, e, f, t, lo, hi) -> None:
    """e must be a Hölder member below f, between the two extremal bounds.

    ``lo`` is the envelope through the table cut to the grid, ``hi`` the
    grid-exact largest member; both today's alpha and a grid-exact envelope
    fall in between.
    """
    s = ref.scale(e, f)
    slack = TOL + RTOL * s
    expect(problems, float((e - f).max()) <= slack, f"{name}: above f")
    m = ref.holder_margin(e, t)
    expect(problems, m <= slack, f"{name}: not Hölder within the table (margin {m})")
    below = float((lo - e).max())
    expect(problems, below <= slack, f"{name}: below the envelope of the table cut to the grid by {below}")
    above = float((e - hi).max())
    expect(problems, above <= slack, f"{name}: above the grid-exact largest member by {above}")


def _holder_env_job(am, label, f, phi, side, memo, known_fault=False) -> Job:
    name = f"holder_{side}_envelope"
    # the upper envelope of f is minus the lower envelope of -f
    sign = 1.0 if side == "lower" else -1.0
    x = sign * f.values

    def check(out):
        problems = []
        t, _, lo, hi = _refs(memo, label, f"{sign}f", x, phi)
        _check_holder_lower(problems, name, sign * out.values, x, t, lo, hi)
        return problems

    return Job(f"{label}/{name}", _call(am, name, f, phi), check, known_fault=known_fault)


def _holder_sandwich_job(am, label, h, phi, memo, feasible, known_fault=False) -> Job:
    n = h.grid.count
    hv = h.values
    if feasible:  # a member within the constant table min(phi[1:n]) <= alpha
        m0 = float(phi.values[1:n].min())
        gv = np.minimum(hv, hv.min() + m0) - 0.25 * m0
    else:
        gv = hv.copy()
        gv[n // 3] += 1.0
    g = am.SampledFn(h.grid, gv)

    def check(out):
        s, w = out
        problems = []
        t, alpha, lo, hi = _refs(memo, label, "1.0f", hv, phi)
        gap = float((gv - hi).max())  # feasible exactly when g <= grid-exact member of h
        slack = TOL + RTOL * ref.scale(gv, hv)
        if s is not None:
            expect(problems, w is None, "holder_sandwich: both a result and a witness")
            expect(problems, float((gv - s.values).max()) <= slack, "holder_sandwich: result below g")
            _check_holder_lower(problems, "holder_sandwich", s.values, hv, t, lo, hi)
            return problems
        expect(
            problems,
            gap > TOL,
            f"holder_sandwich: reported infeasible, but g lies below the grid-exact member by {-gap}",
        )
        expect(problems, w is not None, "holder_sandwich: infeasible without a witness")
        if w is not None and gap > TOL:
            i, j = w.indices
            margin = w.lhs - w.rhs
            most = ref.sandwich_margin(gv, hv, alpha, holder=True)
            expect(problems, abs(w.lhs - gv[i]) <= slack, "holder_sandwich: witness lhs is not g[i]")
            expect(problems, margin > TOL, "holder_sandwich: witness does not violate")
            expect(
                problems,
                gap - slack <= margin <= most + slack,
                f"holder_sandwich: witness margin {margin} outside [{gap}, {most}]",
            )
        return problems

    return Job(
        f"{label}/holder_sandwich/{'feasible' if feasible else 'infeasible'}",
        _call(am, "holder_sandwich", g, h, phi),
        check,
        known_fault=known_fault,
    )


def _holder_jobs(am, label, walk, member, phi, memo, rough: bool) -> list[Job]:
    """The alpha family on one table; on rough tables also sigma, the monotone
    envelope and the check of a member."""
    n = walk.grid.count
    pv = phi.values
    psi = am.ErrorFn(phi.grid_step, np.full(n, float(pv.max())))  # folded table is Hölder in it

    def check_alpha(out):
        problems = []
        t, alpha, _, _ = _refs(memo, label, "1.0f", walk.values, phi)
        check_close(problems, "alpha", out.values, alpha)
        return problems

    def check_abs(out):
        ok, w = out
        problems = []
        margin = ref.abs_subadditive_margin(pv)
        if not check_verdict(problems, "is_absolutely_subadditive", ok, margin, TOL):
            j, k = w.indices
            check_witness(
                problems, "is_absolutely_subadditive", w, pv[abs(j + k)], pv[j] + pv[abs(k)], margin, TOL
            )
        return problems

    def check_bracket(out):
        problems = []
        x = member.values
        t, _, lo, hi = _refs(memo, label, "member", x, phi)
        _, _, nlo, nhi = _refs(memo, label, "-member", -x, phi)
        s = ref.scale(x)
        slack = TOL + RTOL * s
        up, low = out.upper.values, out.lower.values
        expect(problems, float((lo - up).max()) <= slack and float((up - hi).max()) <= slack,
               "holder_bracket: upper half outside its extremal bounds")
        expect(problems, float((nlo + low).max()) <= slack and float((-low - nhi).max()) <= slack,
               "holder_bracket: lower half outside its extremal bounds")
        ar = np.arange(n)
        gap = 2.0 * np.minimum.accumulate(t)[np.maximum(ar, n - 1 - ar)]
        check_close(problems, "holder_bracket gap_bound", out.gap_bound, gap)
        return problems

    def check_sigma(out):
        problems = []
        check_close(problems, "sigma", out.values, ref.sigma_push(pv))
        return problems

    jobs = [
        Job(f"{label}/absolutely_subadditive_envelope", _call(am, "absolutely_subadditive_envelope", phi), check_alpha),
        Job(f"{label}/is_absolutely_subadditive", _call(am, "is_absolutely_subadditive", phi), check_abs),
        _holder_env_job(am, label, walk, phi, "lower", memo),
        _holder_env_job(am, label, walk, phi, "upper", memo),
        _holder_sandwich_job(am, label, walk, phi, memo, feasible=True),
        _holder_sandwich_job(am, label, walk, phi, memo, feasible=False),
        Job(f"{label}/holder_bracket", _call(am, "holder_bracket", member, phi, psi), check_bracket),
        _check_job(am, label, walk, phi, holder=True),
    ]
    if rough:
        jobs += [
            Job(f"{label}/subadditive_envelope", _call(am, "subadditive_envelope", phi), check_sigma),
            _check_job(am, f"{label}/member", member, phi, holder=True),
            _mono_env_job(am, label, walk, phi, "lower", memo),
        ]
    return jobs


MONOTONE_SCAN = Workload("monotone-scan", build_monotone_scan)
HOLDER_LATTICE = Workload("holder-lattice", build_holder_lattice)
