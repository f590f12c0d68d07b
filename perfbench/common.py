"""Job and workload types shared by the workloads and `run.py`."""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"  # the package under test

TOL = 1e-9  # the package's documented default check tolerance

# Relative tolerance for comparing an output with an independent computation
# made in another order: sums of up to N table values differ by a few ulps
# per term, far below this at N <= 20000.
RTOL = 1e-9


@dataclass
class Job:
    """One timed call: a library function call or one CLI invocation.

    ``collect`` turns the timed call's return value into the full output,
    outside the timed region (cli-batch reads the files the child wrote).
    ``check`` returns the problems found in that output, empty when correct.
    ``known_fault`` marks a job that fails today because of a named program
    fault; its failures count in ``failed`` without making the run incorrect.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    collect: Callable[[Any], Any] = lambda out: out
    known_fault: bool = False


@dataclass
class Context:
    """What one benchmark run shares between set-up, the jobs and `run.py`."""

    seed: int
    trace: bool
    workdir: Path
    layer_rounds: list[dict] = field(default_factory=list)
    child_layers: dict = field(default_factory=lambda: defaultdict(float))

    def take_child_layers(self) -> dict:
        out = dict(self.child_layers)
        self.child_layers.clear()
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Any, Context], list[Job]]
    children: bool = False  # jobs run as child processes
    after_rounds: Callable[[Context], dict] = lambda ctx: {}
    cleanup: Callable[[Context], None] = lambda ctx: None


def expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_close(problems, label, got, want, rtol=RTOL) -> None:
    expect(problems, ref.close(got, want, rtol), f"{label} differs from the reference")


def check_witness(problems, label, witness, lhs, rhs, margin, tol) -> None:
    """A witness must violate its inequality, by the maximal margin found.

    ``lhs``/``rhs`` are the two sides recomputed at the witness's indices and
    ``margin`` the independent maximal violation over all pairs.
    """
    if witness is None:
        problems.append(f"{label}: no witness")
        return
    s = ref.scale([lhs, rhs, margin, witness.lhs, witness.rhs])
    expect(problems, witness.lhs - witness.rhs > tol, f"{label}: witness does not violate")
    expect(
        problems,
        abs(witness.lhs - lhs) <= RTOL * s and abs(witness.rhs - rhs) <= RTOL * s,
        f"{label}: witness sides do not match its indices",
    )
    expect(
        problems,
        abs((witness.lhs - witness.rhs) - margin) <= RTOL * s,
        f"{label}: witness margin {witness.lhs - witness.rhs} is not the maximum {margin}",
    )


def check_verdict(problems, label, ok, margin, tol) -> bool:
    """A check's verdict must agree with the independent maximal margin.

    Returns whether the verdict is a pass; margins within rounding of the
    tolerance accept either verdict.
    """
    slack = RTOL * ref.scale([margin, tol])
    if ok:
        expect(problems, margin <= tol + slack, f"{label}: passed with margin {margin}")
    else:
        expect(problems, margin > tol - slack, f"{label}: failed with margin {margin}")
    return ok
