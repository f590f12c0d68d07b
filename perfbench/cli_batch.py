"""cli-batch: ``python -m approxmono`` invocations, one fresh process at a time.

Set-up writes sample and table CSVs with the package's own formatters into a
work directory inside the benchmark directory; every job runs one subcommand
on them and writes JSON, or CSV with a ``.report.json`` sidecar.  The traced
run starts `cli_child` instead, which times the same invocation per module.
"""
from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import reference as ref
from common import (
    BENCH_DIR, RTOL, SRC, TOL, Job, Workload, check_close, check_verdict, check_witness, expect,
)
from library import cone_member, flat_member, random_walk, rough_table

EPS = 0.5
CONCAVE = f"power:{EPS},0.5"

# (size, subcommand arguments, input, table, output format); "R" is the rough
# file: table of that size, "C" the concave power table.  A 20k invocation
# takes two to three times a 1k one, so with 26, 2 and 6 jobs per size the
# p50 rank falls among the 1k jobs (ranks 0-0.76) and the p90 rank in the
# middle of the 20k ones (0.82-1.0).  The six 20k jobs are of similar cost
# (a check, a sigma or a monotone envelope), so the p90 is a typical one.
JOBS = [
    (1000, ["check", "--mode", "monotone"], "member", "C", "json"),
    (1000, ["check", "--mode", "holder"], "member", "C", "json"),
    (1000, ["check", "--mode", "monotone"], "walk", "C", "json"),
    (1000, ["check", "--mode", "holder"], "walk", "C", "json"),
    (1000, ["check", "--mode", "monotone"], "rmember", "R", "json"),
    (1000, ["check", "--mode", "holder"], "rmember", "R", "json"),
    (1000, ["check", "--mode", "monotone"], "walk", "R", "json"),
    (1000, ["check", "--mode", "holder"], "walk", "R", "json"),
    (1000, ["envelope-error", "--kind", "sigma"], "walk", "C", "csv"),
    (1000, ["envelope-error", "--kind", "sigma"], "walk", "C", "json"),
    (1000, ["envelope-error", "--kind", "sigma"], "walk", "R", "json"),
    (1000, ["envelope", "--mode", "monotone", "--side", "lower"], "walk", "C", "csv"),
    (1000, ["envelope", "--mode", "monotone", "--side", "upper"], "walk", "C", "json"),
    (1000, ["envelope", "--mode", "monotone", "--side", "lower"], "walk", "R", "csv"),
    (1000, ["envelope", "--mode", "monotone", "--side", "upper"], "walk", "R", "csv"),
    (1000, ["variation"], "walk", "C", "csv"),
    (1000, ["variation"], "walk", "R", "json"),
    (1000, ["jordan"], "walk", "C", "csv"),
    (1000, ["jordan"], "walk", "R", "json"),
    (1000, ["individual", "--kind", "sigma"], "walk", None, "csv"),
    (1000, ["individual", "--kind", "alpha"], "walk", None, "json"),
    (1000, ["sandwich", "--mode", "monotone", "--input2", "{walk}"], "low", "C", "csv"),
    (1000, ["sandwich", "--mode", "monotone", "--input2", "{walk}"], "bump", "C", "csv"),
    (1000, ["sandwich", "--mode", "monotone", "--input2", "{walk}"], "rlow", "R", "csv"),
    (1000, ["envelope", "--mode", "holder", "--side", "lower"], "walk", "C", "csv"),
    (1000, ["envelope", "--mode", "holder", "--side", "upper"], "walk", "R", "json"),
    (5000, ["jordan"], "walk", "R", "csv"),
    (5000, ["sandwich", "--mode", "monotone", "--input2", "{walk}"], "low", "C", "csv"),
    (20000, ["check", "--mode", "monotone"], "member", "C", "json"),
    (20000, ["check", "--mode", "monotone"], "walk", "C", "json"),
    (20000, ["check", "--mode", "holder"], "member", "C", "json"),
    (20000, ["check", "--mode", "holder"], "walk", "C", "json"),
    (20000, ["envelope-error", "--kind", "sigma"], "walk", "C", "json"),
    (20000, ["envelope", "--mode", "monotone", "--side", "lower"], "walk", "C", "csv"),
]


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("APPROXMONO_TOL", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def write_inputs(am, ctx) -> None:
    """Write the sample and table CSVs that the jobs read."""
    csvio = importlib.import_module("approxmono.csvio")
    rng = np.random.default_rng([ctx.seed, 3])
    work = ctx.workdir
    work.mkdir(parents=True, exist_ok=True)
    for n in sorted({size for size, *_ in JOBS}):
        grid = am.Grid(0.0, 1.0 / (n - 1), n)
        walk = random_walk(rng, n)
        member = cone_member(rng, n, EPS)
        below = member - (member - walk).max() - 0.01  # a member below walk
        bump = walk.copy()
        bump[n // 3] += 1.0
        rough = rough_table(rng, n)
        vals = {
            "walk": walk,
            "member": member,
            "low": below - 0.01 * (1 + rng.random(n)),
            "bump": bump,
            "rmember": flat_member(rng, n, float(rough[1:].min())),
            "rlow": walk.min() - 0.5 * (1 + rng.random(n)),  # below a constant member
        }
        used = [(inp, table, "{walk}" in args) for size, args, inp, table, _ in JOBS if size == n]
        for name, v in vals.items():
            if any(name == inp or (name == "walk" and input2) for inp, _, input2 in used):
                (work / f"in{n}_{name}.csv").write_text(csvio.samples_to_csv(am.SampledFn(grid, v)))
        if any(table == "R" for _, table, _ in used):
            (work / f"table{n}.csv").write_text(csvio.error_to_csv(am.ErrorFn(grid.step, rough)))


def _load_csv(data: bytes) -> np.ndarray:
    return np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)


def build_cli_batch(am, ctx) -> list[Job]:
    write_inputs(am, ctx)
    env = _child_env()
    jobs = []
    for idx, (n, args, inp, table, fmt) in enumerate(JOBS):
        argv = [a.format(walk=f"in{n}_walk.csv") for a in args]
        argv += ["--input", f"in{n}_{inp}.csv"]
        if table == "C":
            argv += ["--error", CONCAVE]
        elif table == "R":
            argv += ["--error", f"file:table{n}.csv"]
        outdir = f"out/j{idx:02d}"
        argv += ["--format", fmt, "--output", f"{outdir}/r.{fmt}"]
        (ctx.workdir / outdir).mkdir(parents=True, exist_ok=True)
        name = f"{n // 1000}k/{' '.join(args[:3])}/{inp}/{table}/{fmt}".replace("{walk}", "walk")
        jobs.append(_job(ctx, env, idx, name, argv, n, args[0], inp, table))
    return jobs


def _job(ctx, env, idx, name, argv, n, command, inp, table) -> Job:
    work = ctx.workdir
    outdir = work / f"out/j{idx:02d}"
    layers = work / f"layers{idx:02d}.json"
    if ctx.trace:
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(layers), *argv]
    else:
        cmd = [sys.executable, "-m", "approxmono", *argv]

    def call():
        done = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return done.returncode, done.stderr.decode(errors="replace")

    def collect(out):
        if ctx.trace and layers.exists():  # absent when the child failed early
            for key, value in json.loads(layers.read_text()).items():
                ctx.child_layers[key] += value
            layers.unlink()
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        return out[0], out[1], files

    def check(out):
        rc, stderr, files = out
        problems = []
        if rc not in (0, 2):
            return [f"exit {rc}: {stderr.strip()[-300:]}"]
        try:
            _check_outputs(problems, work, argv, n, command, inp, table, rc, files)
        except (KeyError, ValueError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems

    return Job(name, call, check, collect)


def _section(files: dict):
    """(values by column, report) of one output, from JSON or CSV plus sidecar."""
    sidecar = "r.csv.report.json"
    if sidecar not in files:  # JSON output, asked for or forced by a failed verdict
        doc = json.loads(next(iter(files.values())))
        return doc["data"], doc["report"]
    report = json.loads(files[sidecar])
    data = {}
    for fname, blob in files.items():
        if fname.endswith(".csv"):
            key = fname[2:-4] or "main"  # r.csv -> main, r.g.csv -> g
            data[key] = _load_csv(blob)
    return data, report


def _column(data, key, col):
    """One output column: from JSON data[key][col], or CSV column index."""
    if isinstance(data.get(key), dict):
        return np.asarray(data[key][col], dtype=float)
    block = data["main"] if key not in data else data[key]
    return block[:, 1 if col in ("value", "phi") else 0]


def _check_outputs(problems, work, argv, n, command, inp, table, rc, files) -> None:
    data, report = _section(files)
    # input digests: every file the invocation read, hashed here
    read = [argv[i + 1] for i, a in enumerate(argv) if a in ("--input", "--input2")]
    read += [a[5:] for a in argv if a.startswith("file:")]
    want = {p: hashlib.sha256((work / p).read_bytes()).hexdigest() for p in read}
    expect(problems, report["inputs"] == want, "report input digests differ from the files")

    samples = _load_csv((work / f"in{n}_{inp}.csv").read_bytes())
    t, x = samples[:, 0], samples[:, 1]
    step = float(np.median(np.diff(t)))
    if table == "C":
        T = np.concatenate([[0.0], EPS * (step * np.arange(1, n)) ** 0.5])
    elif table == "R":
        T = _load_csv((work / f"table{n}.csv").read_bytes())[:, 1]
    mode = argv[argv.index("--mode") + 1] if "--mode" in argv else None

    if command == "check":
        holder = mode == "holder"
        margin = ref.holder_margin(x, T) if holder else ref.mono_margin(x, T)
        ok = rc == 0
        expect(problems, data["check"]["ok"] is ok, "check: exit code and report disagree")
        if not check_verdict(problems, f"check {mode}", ok, margin, TOL):
            w = report["witnesses"][0]
            i, j = w["indices"]
            lhs = abs(x[i] - x[j]) if holder else x[i]
            rhs = T[abs(j - i)] if holder else x[j] + T[j - i]
            check_witness(problems, f"check {mode}", SimpleNamespace(**w), lhs, rhs, margin, TOL)
        return
    expect(problems, rc == 0 or command == "sandwich", f"{command}: exit {rc}")
    key = {"envelope-error": "envelope", "individual": "individual"}.get(command, command)
    if command in ("envelope-error", "individual"):
        got = _column(data, key, "phi")
        if command == "envelope-error":
            want_vals = ref.sigma_push(T)
        else:
            pick = 0 if argv[argv.index("--kind") + 1] == "sigma" else 1
            want_vals = ref.individual_tables(x)[pick]
        check_close(problems, command, got, want_vals)
        check_close(problems, f"{command} offsets", _column(data, key, "u"), step * np.arange(n))
        return
    if command == "jordan":
        g, h = _column(data, "g", "value"), _column(data, "h", "value")
        check_close(problems, "jordan g - h", g - h, x)
        check_close(problems, "jordan g + h", g + h, ref.variation_push(x, 2.0 * T))
        for half, vals in (("g", g), ("h", h)):
            m = ref.mono_margin(vals, T)
            expect(problems, m <= TOL + RTOL * ref.scale(vals), f"jordan {half} not monotone ({m})")
        check_close(problems, "jordan nodes", _column(data, "g", "t"), t)
        return
    if command == "sandwich":
        h = _load_csv((work / f"in{n}_walk.csv").read_bytes())[:, 1]
        env_h = ref.mono_lower_dp(h, T)
        gap = float((x - env_h).max())
        if rc == 0:
            expect(problems, gap <= TOL, f"sandwich: feasible answer for an infeasible pair ({gap})")
            check_close(problems, "sandwich", _column(data, key, "value"), env_h)
        else:
            expect(problems, data["sandwich"]["feasible"] is False, "sandwich: exit 2 without a verdict")
            expect(problems, gap > TOL, f"sandwich: reported infeasible, yet g <= envelope(h) ({gap})")
            sig = ref.sigma_push(T)
            w = report["witnesses"][0]
            i, j = w["indices"]
            margin = ref.sandwich_margin(x, h, sig, holder=False)
            check_witness(problems, "sandwich", SimpleNamespace(**w), x[i], h[j] + sig[j - i], margin, TOL)
        return
    got = _column(data, key, "value")
    check_close(problems, f"{command} nodes", _column(data, key, "t"), t)
    if command == "variation":
        check_close(problems, "variation", got, ref.variation_push(x, T))
    elif mode == "monotone":
        side = argv[argv.index("--side") + 1]
        dp = ref.mono_lower_dp if side == "lower" else ref.mono_upper_dp
        check_close(problems, f"monotone {side} envelope", got, dp(x, T))
    else:  # Hölder envelope: between the alpha envelope and the grid-exact member
        sign = 1.0 if argv[argv.index("--side") + 1] == "lower" else -1.0
        e, f = sign * got, sign * x
        alpha = ref.alpha_lattice(T, n)
        slack = TOL + RTOL * ref.scale(e, f)
        expect(problems, float((e - f).max()) <= slack, "holder envelope: wrong side of f")
        expect(problems, ref.holder_margin(e, T) <= slack, "holder envelope: not Hölder")
        expect(problems, float((ref.table_lower(f, alpha) - e).max()) <= slack,
               "holder envelope: below the alpha envelope")
        expect(problems, float((e - ref.grid_exact_lower(f, T)).max()) <= slack,
               "holder envelope: above the grid-exact member")


def import_ms(repeats: int = 5) -> dict:
    """Fresh-process import of the CLI minus a bare interpreter start, in ms."""
    env = _child_env()
    bare, full = [], []
    for _ in range(repeats):
        for argv, sink in ((["-c", "pass"], bare), (["-c", "import approxmono.__main__"], full)):
            start = perf_counter()
            subprocess.run([sys.executable, *argv], env=env, check=True)
            sink.append(perf_counter() - start)
    return {"cli.import_ms": 1e3 * (statistics.median(full) - statistics.median(bare))}


def cleanup(ctx) -> None:
    shutil.rmtree(ctx.workdir, ignore_errors=True)


CLI_BATCH = Workload(
    "cli-batch", build_cli_batch, children=True, after_rounds=lambda ctx: import_ms(), cleanup=cleanup
)
