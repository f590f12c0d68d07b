"""Traced stand-in for ``python -m approxmono``, used by cli-batch's traced run.

Usage: python cli_child.py <layers.json> <approxmono arguments...>

Imports the package the way ``python -m approxmono`` does, installs the
tracer, runs one CLI invocation, writes the layer totals of that invocation
to <layers.json> and exits with the CLI's own status.
"""
from __future__ import annotations

import json
import os
import sys

import approxmono.__main__  # noqa: F401  (same imports as python -m approxmono)
from tracing import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    status, report = sys.modules["approxmono.cli"].run(argv)
    written = 0
    if report is not None:
        written = sum(os.path.getsize(p) for p in report.outputs if p != "-")
    tracer.values["cli.bytes_written"] += written
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.take(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
