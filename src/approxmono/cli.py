"""Command-line front end.

Every subcommand reads a sample CSV, builds an error table from a spec
string, dispatches to one library operation, and emits CSV or JSON together
with a machine-readable run report (parameters, input digests, witnesses,
output paths).  Exit status 0 means success, 2 means the requested property
is mathematically false or the construction is infeasible (the witness is in
the report), and 1 means an operational problem with the invocation itself.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .csvio import error_from_csv, error_to_csv, samples_from_csv, samples_to_csv
from .error_envelopes import (
    PowerErrorSpec,
    absolutely_subadditive_envelope,
    power_error,
    subadditive_envelope,
)
from .function_envelopes import (
    holder_bracket,
    holder_lower_envelope,
    holder_sandwich,
    holder_upper_envelope,
    monotone_bracket,
    monotone_lower_envelope,
    monotone_sandwich,
    monotone_upper_envelope,
)
from .grid import (
    DEFAULT_TOL,
    ErrorFn,
    Grid,
    PreconditionError,
    SampledFn,
    Witness,
    check_tolerance,
    is_phi_holder,
    is_phi_monotone,
    offsets_table,
)
from .individual import individual_alpha, individual_sigma
from .variation import jordan_decompose, total_phi_variation

TOL_ENV_VAR = "APPROXMONO_TOL"

BRACKET_BOUNDARY_NOTE = (
    "lower[0] and upper[-1] copy the input because the strict one-sided "
    "ranges are empty there; companion membership holds away from those nodes"
)

# flags that name where data comes from or goes, not how it is computed
_NOT_PARAMETERS = ("command", "input", "input2", "format", "output")


@dataclass
class RunReport:
    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    parameters: dict[str, object] = field(default_factory=dict)
    witnesses: list[Witness] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "parameters": self.parameters,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "outputs": self.outputs,
        }


@dataclass(frozen=True)
class Section:
    """One named output: a sampled function, an error table or a verdict.

    A verdict dict has no CSV form, so a run that emits one writes JSON.
    """

    name: str
    body: SampledFn | ErrorFn | dict

    def csv(self) -> str:
        if isinstance(self.body, SampledFn):
            return samples_to_csv(self.body)
        return error_to_csv(self.body)

    def data(self) -> dict:
        body = self.body
        if isinstance(body, SampledFn):
            return {"t": body.grid.nodes().tolist(), "value": body.values.tolist()}
        if isinstance(body, ErrorFn):
            return {"u": body.offsets().tolist(), "phi": body.values.tolist()}
        return body


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str, report: RunReport) -> str:
    data = Path(path).read_bytes()
    report.inputs[path] = hashlib.sha256(data).hexdigest()
    return data.decode("utf-8")


def _error_table(text: str, grid: Grid, report: RunReport) -> ErrorFn:
    """Table of a spec power:<eps>,<p> | const:<c> | file:<path> on ``grid``.

    Ranges are checked by `PowerErrorSpec` and `ErrorFn`; a file's digest
    goes into ``report.inputs``.
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"error spec {text!r} has no ':' separator")
    if head == "power":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"power spec needs eps,p, got {rest!r}")
        spec = PowerErrorSpec(float(parts[0]), float(parts[1]))
        return power_error(spec, grid.step, grid.count)
    if head == "const":
        return ErrorFn(grid.step, np.full(grid.count, float(rest)))
    if head == "file":
        if not rest:
            raise ValueError("file spec needs a path")
        return error_from_csv(_read_text(rest, report))
    raise ValueError(f"unknown error spec kind {head!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="approxmono", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads, so a misplaced one
    # is a usage error (exit 1) instead of being silently ignored
    def add(name: str, help_text: str) -> _Parser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--input", required=True, help="sample CSV with header t,value")
        if name != "individual":
            sp.add_argument(
                "--error",
                required=True,
                help="error spec: power:<eps>,<p> | const:<c> | file:<path>",
            )
        if name in ("check", "sandwich", "bracket"):
            sp.add_argument(
                "--tolerance",
                type=float,
                default=None,
                help=f"additive check tolerance (default 1e-9, or ${TOL_ENV_VAR})",
            )
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="output path (default stdout)")
        return sp

    sp = add("check", "membership check of the input against an error table")
    sp.add_argument("--mode", choices=("monotone", "holder"), default="holder")

    sp = add("envelope-error", "subadditive or signed minorant of an error table")
    sp.add_argument("--kind", choices=("sigma", "alpha"), default="sigma")

    sp = add("envelope", "monotone or Hölder envelope of the input")
    sp.add_argument("--mode", choices=("monotone", "holder"), default="monotone")
    sp.add_argument("--side", choices=("lower", "upper"), default="lower")

    sp = add("sandwich", "function between two bounds, monotone or Hölder")
    sp.add_argument("--input2", required=True, help="upper bound CSV (t,value)")
    sp.add_argument("--mode", choices=("monotone", "holder"), default="monotone")

    sp = add("bracket", "two-sided bracket of the input")
    sp.add_argument("--mode", choices=("monotone", "holder"), default="monotone")
    sp.add_argument("--error2", default="const:0", help="companion error spec")

    for name, help_text in (
        ("variation", "prefix table of the total discounted variation"),
        ("jordan", "difference-of-monotone decomposition"),
    ):
        sp = add(name, help_text)
        sp.add_argument("--anchor", type=int, default=0, help="start node index")

    sp = add("individual", "smallest error table the input passes")
    sp.add_argument("--kind", choices=("sigma", "alpha"), default="sigma")

    return parser


def _resolve(args, report: RunReport) -> dict:
    """Read --input and --input2, resolve the tolerance, realize the tables.

    Every flag but `_NOT_PARAMETERS` is a parameter; the tolerance resolves
    from the flag, then $APPROXMONO_TOL, then DEFAULT_TOL.  The parameters
    go into ``report.parameters`` with error specs as text.  Returns the
    handler's keyword arguments: the samples ``f`` (and ``h``) and the
    parameters with error specs realized as tables.
    """
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    resolved = {"f": samples_from_csv(_read_text(args.input, report))}
    if "input2" in args:
        resolved["h"] = samples_from_csv(_read_text(args.input2, report))
    if "tolerance" in params:
        tol = args.tolerance
        if tol is None:
            env = os.environ.get(TOL_ENV_VAR)
            tol = DEFAULT_TOL if env is None else float(env)
        params["tolerance"] = check_tolerance(tol)
    report.parameters.update(params)
    resolved.update(params)
    for key in ("error", "error2"):
        if key in params:
            resolved[key] = _error_table(params[key], resolved["f"].grid, report)
    return resolved


def _cmd_check(report, f, error, tolerance, mode):
    check = is_phi_holder if mode == "holder" else is_phi_monotone
    ok, witness = check(f, error, tolerance)
    if witness is not None:
        report.witnesses.append(witness)
    return [Section("check", {"ok": ok, "mode": mode})]


def _cmd_envelope_error(report, f, error, kind):
    op = subadditive_envelope if kind == "sigma" else absolutely_subadditive_envelope
    return [Section("envelope", op(ErrorFn(error.grid_step, offsets_table(f, error))))]


def _cmd_envelope(report, f, error, mode, side):
    op = {
        ("monotone", "lower"): monotone_lower_envelope,
        ("monotone", "upper"): monotone_upper_envelope,
        ("holder", "lower"): holder_lower_envelope,
        ("holder", "upper"): holder_upper_envelope,
    }[mode, side]
    return [Section("envelope", op(f, error))]


def _cmd_sandwich(report, f, h, error, tolerance, mode):
    op = holder_sandwich if mode == "holder" else monotone_sandwich
    fn, witness = op(f, h, error, tolerance)
    if fn is None:
        report.witnesses.append(witness)
        return [Section("sandwich", {"feasible": False})]
    return [Section("sandwich", fn)]


def _cmd_bracket(report, f, error, error2, tolerance, mode):
    if mode == "monotone":
        report.parameters["boundary_note"] = BRACKET_BOUNDARY_NOTE
    op = holder_bracket if mode == "holder" else monotone_bracket
    try:
        pair = op(f, error, error2, tolerance)
    except PreconditionError as exc:
        if exc.witness is None:
            raise
        report.witnesses.append(exc.witness)
        return [Section("bracket", {"feasible": False})]
    sections = [Section("lower", pair.lower), Section("upper", pair.upper)]
    if pair.gap_bound is not None:
        sections.append(Section("gap", SampledFn(f.grid, pair.gap_bound)))
    return sections


def _cmd_variation(report, f, error, anchor):
    table = total_phi_variation(f, error, anchor, f.grid.count - 1)
    sub = Grid(f.grid.node(anchor), f.grid.step, len(table.prefix))
    return [Section("variation", SampledFn(sub, table.prefix))]


def _cmd_jordan(report, f, error, anchor):
    pair = jordan_decompose(f, error, anchor)
    return [Section("g", pair.g), Section("h", pair.h)]


def _cmd_individual(report, f, kind):
    op = individual_sigma if kind == "sigma" else individual_alpha
    return [Section("individual", op(f))]


# each handler takes the report and the resolved values, appends any witness
# to the report and returns its sections; a witness makes the exit status 2
_COMMANDS = {
    "check": _cmd_check,
    "envelope-error": _cmd_envelope_error,
    "envelope": _cmd_envelope,
    "sandwich": _cmd_sandwich,
    "bracket": _cmd_bracket,
    "variation": _cmd_variation,
    "jordan": _cmd_jordan,
    "individual": _cmd_individual,
}


def _derived_path(base: str, name: str) -> str:
    p = Path(base)
    return str(p.with_name(f"{p.stem}.{name}{p.suffix}"))


def _emit(args, report: RunReport, sections: list[Section]) -> None:
    if args.format == "json" or any(isinstance(s.body, dict) for s in sections):
        target = args.output or "-"
        report.outputs = [target]
        doc = {
            "command": report.command,
            "data": {s.name: s.data() for s in sections},
            "report": report.to_dict(),
        }
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return
    if args.output:
        if len(sections) == 1:
            paths = [args.output]
        else:
            paths = [_derived_path(args.output, s.name) for s in sections]
        sidecar = f"{args.output}.report.json"
        report.outputs = paths + [sidecar]
        # serialized first, so a non-finite value leaves no file behind
        text = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
        for path, section in zip(paths, sections):
            Path(path).write_text(section.csv(), encoding="utf-8")
        Path(sidecar).write_text(text + "\n", encoding="utf-8")
    else:
        report.outputs = ["-"]
        sys.stdout.write("\n".join(s.csv() for s in sections))


def run(argv: Sequence[str]) -> tuple[int, RunReport | None]:
    """Parse argv, execute one subcommand, emit outputs; returns (status, report)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(f"approxmono: error: {exc}", file=sys.stderr)
        return 1, None
    except SystemExit as exc:  # --help
        return int(exc.code or 0), None
    report = RunReport(command=args.command)
    try:
        sections = _COMMANDS[args.command](report, **_resolve(args, report))
        _emit(args, report, sections)
        return (2 if report.witnesses else 0), report
    except PreconditionError as exc:
        print(f"approxmono: precondition failed: {exc}", file=sys.stderr)
        return 1, report
    except (ValueError, OverflowError, OSError) as exc:  # ours subclass ValueError
        print(f"approxmono: error: {exc}", file=sys.stderr)
        return 1, report


def main(argv: Sequence[str] | None = None) -> None:
    status, _ = run(sys.argv[1:] if argv is None else list(argv))
    raise SystemExit(status)
