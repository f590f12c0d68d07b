"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage: python3 perfbench/spread.py <workload> [--seeds 1-10] [--seconds 25] [--trace 0]

Runs ``run.py`` once per seed, one run at a time, and prints for every metric
the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  The runs
are also written to ``perfbench/results/<workload>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    bounds = {
        m["name"]: m.get("bound")
        for m in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["end_to_end"]
    }
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        done = subprocess.run(cmd, cwd=BENCH_DIR.parent, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} failed/attempted="
              f"{result['failed']}/{result['attempted']} ({share:.6f})", file=sys.stderr)
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(runs, indent=1))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        else:
            spread = "n/a"
        bound = bounds.get(name)
        print(f"{name:40s} median={med:12.4f} iqr/median={spread} bound={bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
