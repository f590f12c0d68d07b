"""Smoke run: one round of every workload, untraced and traced, all checks on.

Usage: python3 perfbench/smoke.py [workload ...]

Exits non-zero when a run is incorrect or when an operation fails other than
the table-longer-than-grid Hölder jobs of holder-lattice.
"""
from __future__ import annotations

import sys

import run


def main(names) -> int:
    if not (run.SRC / "approxmono" / "__init__.py").is_file():
        print(f"smoke: no package sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    status = 0
    for name in names or list(run.workloads()):
        for trace in (False, True):
            result = run.run(name, seed=1, seconds=0, trace=trace, min_jobs=1)
            ok = result["correct"] and (result["failed"] == 0 or name == "holder-lattice")
            print(f"{name} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{'ok' if ok else 'FAIL'}")
            status |= not ok
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
