"""Benchmark for approxmono: one workload, one seed, one JSON line of metrics.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: monotone-scan, holder-lattice (in-process library calls) and
cli-batch (``python -m approxmono`` invocations).  Each builds a fixed job
list from the seed, then runs whole rounds of that list, one job after
another in this process or in one child at a time, for about ``--seconds``
seconds and never fewer than 100 jobs.  After the timed phase every output is
checked against computations in `reference` that do not use the package.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same rounds with per-module spans
installed (see `tracing`) and reports the per-layer metrics.

The package is imported from ``src/`` next to this directory; without it the
script exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
from time import perf_counter
from typing import Any

from common import BENCH_DIR, SRC, Context

MIN_JOBS = 100  # enough for a 90th percentile with ten jobs above it
SETUP_REPEATS = 9


class JobError(str):
    """What a job's call raised, kept in place of its output."""


def fingerprint(obj: Any) -> str:
    """Digest of an output, so later rounds can be compared with the first."""
    h = hashlib.sha256()

    def feed(x):
        if hasattr(x, "tobytes"):
            h.update(x.tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(repr(k).encode())
                feed(x[k])
        elif isinstance(x, (tuple, list)):
            for y in x:
                feed(y)
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, enum.Enum):
            h.update(str(x.value).encode())
        else:
            h.update(repr(x).encode())
        h.update(b"|")

    feed(obj)
    return h.hexdigest()


def reference_loop_ms() -> float:
    """A fixed numpy diagonal scan, timed to tell a slow host from a slow program."""
    import numpy as np

    rng = np.random.default_rng(20190913)
    a = rng.random(4000)
    b = rng.random(4000)
    start = perf_counter()
    for k in range(4000):
        (a[k:] - b[: 4000 - k]).max()
    return 1e3 * (perf_counter() - start)


def workloads() -> dict:
    import cli_batch
    import library

    return {w.name: w for w in (library.MONOTONE_SCAN, library.HOLDER_LATTICE, cli_batch.CLI_BATCH)}


def fresh_import():
    """Import the package anew, as a first import in a process would."""
    for name in [m for m in sys.modules if m == "approxmono" or m.startswith("approxmono.")]:
        del sys.modules[name]
    return importlib.import_module("approxmono")


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool, min_jobs: int = MIN_JOBS) -> dict:
    spec = workloads()[workload]
    ctx = Context(seed=seed, trace=trace, workdir=BENCH_DIR / f".work-{workload}-{seed}")
    try:
        return _run(spec, ctx, seconds, min_jobs)
    finally:
        spec.cleanup(ctx)


def _run(spec, ctx: Context, seconds: float, min_jobs: int) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # a first set-up in a fresh process finds no garbage
        start = perf_counter()
        am = fresh_import()
        jobs = spec.build(am, ctx)
        setup_times.append(perf_counter() - start)
    tracer = None
    if ctx.trace and not spec.children:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    min_rounds = max(1, math.ceil(min_jobs / len(jobs)))
    job_times: list[float] = []
    round_times: list[float] = []
    ref_times: list[float] = []
    first_out: list[Any] = []
    first_fp: list[str] = []
    changed = [0] * len(jobs)
    start = perf_counter()
    while True:
        outs = []
        t_round = perf_counter()
        for job in jobs:
            t = perf_counter()
            try:
                outs.append(job.call())
            except Exception as exc:  # a raising operation counts as failed, not fatal
                outs.append(JobError(f"{type(exc).__name__}: {exc}"))
            job_times.append(perf_counter() - t)
        round_times.append(perf_counter() - t_round)
        for i, (job, out) in enumerate(zip(jobs, outs)):
            if not isinstance(out, JobError):
                out = job.collect(out)
            fp = fingerprint(out)
            if len(first_out) <= i:
                first_out.append(out)
                first_fp.append(fp)
            elif fp != first_fp[i]:
                changed[i] += 1
        if ctx.trace:
            ctx.layer_rounds.append(tracer.take() if tracer else ctx.take_child_layers())
        ref_times.append(reference_loop_ms())
        rounds = len(round_times)
        elapsed = perf_counter() - start
        if rounds >= min_rounds and elapsed + statistics.median(round_times) > seconds:
            break

    who = resource.RUSAGE_CHILDREN if spec.children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    extra_layers = spec.after_rounds(ctx) if ctx.trace else {}

    check_start = perf_counter()
    failed = 0
    correct = True
    for i, job in enumerate(jobs):
        out = first_out[i]
        problems = [f"raised {out}"] if isinstance(out, JobError) else job.check(out)
        if problems:
            failed += rounds
            correct = correct and job.known_fault
        elif changed[i]:
            failed += changed[i]
            correct = False
            problems = [f"output differs from the first round in {changed[i]} rounds"]
        if problems:
            print(f"[{spec.name}] {job.name}: {'; '.join(problems)[:400]}", file=sys.stderr)
    attempted = rounds * len(jobs)

    if ctx.trace:
        metrics = layer_metrics(ctx.layer_rounds, extra_layers, ref_times, round_times)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(round_times), "s"),
            "job_p50_ms": (1e3 * statistics.median(job_times), "ms"),
            "job_p90_ms": (1e3 * nearest_rank(job_times, 0.9), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(
        f"[{spec.name}] seed={ctx.seed} rounds={rounds} jobs/round={len(jobs)} "
        f"round_s={[round(t, 3) for t in round_times]} "
        f"ref_loop_ms={statistics.median(ref_times):.2f} failed={failed}/{attempted} "
        f"setup_total_s={sum(setup_times):.2f} check_s={perf_counter() - check_start:.2f}",
        file=sys.stderr,
    )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(layer_rounds, extra, ref_times, round_times) -> dict:
    """Median per round of every layer metric; counts repeat in every round."""
    from tracing import LAYER_METRICS

    out = {}
    for name, unit in LAYER_METRICS:
        if name == "host.ref_loop_ms":
            value = statistics.median(ref_times)
        elif name == "trace.wall_s":
            value = statistics.median(round_times)
        elif name in extra:
            value = extra[name]
        else:
            per_round = [r.get(name, 0.0) for r in layer_rounds]
            value = statistics.median(per_round)
            if unit in ("count", "B") and len(set(per_round)) > 1:
                print(f"perfbench: {name} differs between rounds: {per_round}", file=sys.stderr)
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "approxmono" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads():
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
