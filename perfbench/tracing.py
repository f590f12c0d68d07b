"""Per-module spans and counters, taken from outside the package.

`Tracer.install` replaces each public function listed in `SPANS` by a timing
wrapper, in every ``approxmono`` module namespace that binds it, so calls
between modules are timed too.  It also swaps a counting stand-in for the
``heapq`` module that the lattice search uses.  Nothing under ``src/``
changes; the untraced run installs nothing.

Each span adds either its whole duration (``total``) or its self time
(``self``: the duration minus what its child spans cover) to ``<layer>_ms``.
"""
from __future__ import annotations

import heapq
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, layer metric, time kind)
SPANS = [
    ("grid", "is_phi_monotone", "grid.check", "total"),
    ("grid", "is_phi_holder", "grid.check", "total"),
    ("grid", "ingest_samples", "grid.ingest", "total"),
    ("error_envelopes", "subadditive_envelope", "error_envelopes.sigma", "total"),
    ("error_envelopes", "absolutely_subadditive_envelope", "error_envelopes.alpha", "total"),
    ("error_envelopes", "is_subadditive", "error_envelopes.subadd_check", "total"),
    ("error_envelopes", "is_absolutely_subadditive", "error_envelopes.abs_subadd_check", "total"),
    ("function_envelopes", "monotone_lower_envelope", "function_envelopes.monotone_self", "self"),
    ("function_envelopes", "monotone_upper_envelope", "function_envelopes.monotone_self", "self"),
    ("function_envelopes", "monotone_sandwich", "function_envelopes.monotone_self", "self"),
    ("function_envelopes", "monotone_bracket", "function_envelopes.monotone_self", "self"),
    ("function_envelopes", "holder_lower_envelope", "function_envelopes.holder_self", "self"),
    ("function_envelopes", "holder_upper_envelope", "function_envelopes.holder_self", "self"),
    ("function_envelopes", "holder_sandwich", "function_envelopes.holder_self", "self"),
    ("function_envelopes", "holder_bracket", "function_envelopes.holder_self", "self"),
    ("variation", "total_phi_variation", "variation.dp", "total"),
    ("variation", "jordan_decompose", "variation.jordan_self", "self"),
    ("individual", "individual_sigma", "individual.table", "total"),
    ("individual", "individual_alpha", "individual.table", "total"),
    ("csvio", "samples_from_csv", "csvio.parse", "self"),
    ("csvio", "error_from_csv", "csvio.parse", "self"),
    ("csvio", "samples_to_csv", "csvio.format", "total"),
    ("csvio", "error_to_csv", "csvio.format", "total"),
    ("cli", "run", "cli.self", "self"),
]

CALL_COUNTED = {"error_envelopes.sigma", "error_envelopes.alpha"}

# Per-layer metrics with their units, in the order they are reported.
LAYER_METRICS = [
    ("cli.import_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.bytes_written", "B"),
    ("csvio.parse_ms", "ms"),
    ("csvio.format_ms", "ms"),
    ("csvio.bytes_parsed", "B"),
    ("grid.ingest_ms", "ms"),
    ("grid.check_ms", "ms"),
    ("grid.pairs_checked", "count"),
    ("error_envelopes.sigma_ms", "ms"),
    ("error_envelopes.sigma_calls", "count"),
    ("error_envelopes.alpha_ms", "ms"),
    ("error_envelopes.alpha_calls", "count"),
    ("error_envelopes.heap_pushes", "count"),
    ("error_envelopes.heap_pops", "count"),
    ("error_envelopes.subadd_check_ms", "ms"),
    ("error_envelopes.abs_subadd_check_ms", "ms"),
    ("function_envelopes.monotone_self_ms", "ms"),
    ("function_envelopes.holder_self_ms", "ms"),
    ("variation.dp_ms", "ms"),
    ("variation.jordan_self_ms", "ms"),
    ("individual.table_ms", "ms"),
    ("host.ref_loop_ms", "ms"),
    ("trace.wall_s", "s"),
]


def _pairs_checked(args) -> int:
    """Node pairs a membership check scans: N(N+1)/2, computed from its input."""
    n = args[0].grid.count
    return n * (n + 1) // 2


def _text_bytes(args) -> int:
    return len(args[0].encode("utf-8"))


COUNTERS = {
    "is_phi_monotone": ("grid.pairs_checked", _pairs_checked),
    "is_phi_holder": ("grid.pairs_checked", _pairs_checked),
    "samples_from_csv": ("csvio.bytes_parsed", _text_bytes),
    "error_from_csv": ("csvio.bytes_parsed", _text_bytes),
}


class _CountingHeapq:
    """Stand-in for the ``heapq`` module that counts pushes and pops."""

    def __init__(self, values: dict):
        self._values = values

    def heappush(self, heap, item):
        self._values["error_envelopes.heap_pushes"] += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self._values["error_envelopes.heap_pops"] += 1
        return heapq.heappop(heap)


class Tracer:
    """Accumulates layer times (ms) and counts until `take` is called."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []

    def take(self) -> dict[str, float]:
        out = dict(self.values)
        self.values.clear()
        return out

    def _wrap(self, fn, layer: str, kind: str):
        counter = COUNTERS.get(fn.__name__)
        calls = f"{layer}_calls" if layer in CALL_COUNTED else None
        stack = self._child_time
        values = self.values

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                values[f"{layer}_ms"] += 1e3 * (duration - child if kind == "self" else duration)
                if calls:
                    values[calls] += 1
                if counter:
                    values[counter[0]] += counter[1](args)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every listed function in all loaded ``approxmono`` namespaces.

        Modules the workload never imported (the CLI and CSV layers, in the
        library workloads) are left alone; their metrics then read 0.
        """
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "approxmono" or name.startswith("approxmono.")
        ]
        for module, name, layer, kind in SPANS:
            home = sys.modules.get(f"approxmono.{module}")
            if home is None:
                continue
            original = getattr(home, name)
            traced = self._wrap(original, layer, kind)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)
        sys.modules["approxmono.error_envelopes"].heapq = _CountingHeapq(self.values)
