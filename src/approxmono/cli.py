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

from .csvio import error_to_csv, samples_from_csv, samples_to_csv
from .csvio import error_from_csv
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
    ConfigurationError,
    DimensionMismatchError,
    ErrorFn,
    Grid,
    GridError,
    IngestionError,
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


@dataclass(frozen=True)
class ErrorSpec:
    """Parsed error-table spec: power:<eps>,<p> | const:<c> | file:<path>."""

    kind: str
    epsilon: float = 0.0
    p: float = 1.0
    constant: float = 0.0
    path: str = ""

    @staticmethod
    def parse(text: str) -> "ErrorSpec":
        head, sep, rest = text.partition(":")
        if not sep:
            raise ValueError(f"error spec {text!r} has no ':' separator")
        if head == "power":
            parts = rest.split(",")
            if len(parts) != 2:
                raise ValueError(f"power spec needs eps,p, got {rest!r}")
            eps, p = float(parts[0]), float(parts[1])
            if eps < 0:
                raise ValueError(f"power spec epsilon must be >= 0, got {eps}")
            return ErrorSpec("power", epsilon=eps, p=p)
        if head == "const":
            c = float(rest)
            if c < 0:
                raise ValueError(f"const spec value must be >= 0, got {c}")
            return ErrorSpec("constant", constant=c)
        if head == "file":
            if not rest:
                raise ValueError("file spec needs a path")
            return ErrorSpec("table", path=rest)
        raise ValueError(f"unknown error spec kind {head!r}")

    def realize(self, grid: Grid, report: "RunReport") -> ErrorFn:
        if self.kind == "power":
            return power_error(
                PowerErrorSpec(self.epsilon, self.p), grid.step, grid.count
            )
        if self.kind == "constant":
            return ErrorFn(grid.step, np.full(grid.count, self.constant))
        text = _read_text(self.path, report)
        return error_from_csv(text)


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
    name: str
    csv_text: str
    data: dict


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str, report: RunReport) -> str:
    data = Path(path).read_bytes()
    report.inputs[path] = hashlib.sha256(data).hexdigest()
    return data.decode("utf-8")


def _samples_section(name: str, fn: SampledFn) -> Section:
    return Section(
        name,
        samples_to_csv(fn),
        {"t": [float(t) for t in fn.grid.nodes()], "value": [float(v) for v in fn.values]},
    )


def _error_section(name: str, phi: ErrorFn) -> Section:
    return Section(
        name,
        error_to_csv(phi),
        {"u": [float(u) for u in phi.offsets()], "phi": [float(v) for v in phi.values]},
    )


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
    sp.add_argument("--error2", default=None, help="companion error spec")

    for name, help_text in (
        ("variation", "prefix table of the total discounted variation"),
        ("jordan", "difference-of-monotone decomposition"),
    ):
        sp = add(name, help_text)
        sp.add_argument("--anchor", type=int, default=0, help="start node index")

    sp = add("individual", "smallest error table the input passes")
    sp.add_argument("--kind", choices=("sigma", "alpha"), default="sigma")

    return parser


def _resolve_tolerance(args) -> float:
    if args.tolerance is not None:
        tol = args.tolerance
    else:
        env = os.environ.get(TOL_ENV_VAR)
        tol = float(env) if env is not None else DEFAULT_TOL
    return check_tolerance(tol)


def _load_samples(path: str, report: RunReport) -> SampledFn:
    return samples_from_csv(_read_text(path, report))


def _resolve_error(
    spec_text: str, grid: Grid, report: RunReport, label: str
) -> ErrorFn:
    spec = ErrorSpec.parse(spec_text)
    report.parameters[label] = spec_text
    return spec.realize(grid, report)


def _cmd_check(args, report):
    f = _load_samples(args.input, report)
    tol = _resolve_tolerance(args)
    report.parameters.update(tolerance=tol, mode=args.mode)
    phi = _resolve_error(args.error, f.grid, report, "error")
    check = is_phi_holder if args.mode == "holder" else is_phi_monotone
    ok, witness = check(f, phi, tol)
    if witness is not None:
        report.witnesses.append(witness)
    section = Section("check", "", {"ok": ok, "mode": args.mode})
    return (0 if ok else 2), [section], True


def _cmd_envelope_error(args, report):
    f = _load_samples(args.input, report)
    report.parameters.update(kind=args.kind)
    phi = _resolve_error(args.error, f.grid, report, "error")
    cut = ErrorFn(phi.grid_step, offsets_table(f, phi))
    if args.kind == "sigma":
        return 0, [_error_section("envelope", subadditive_envelope(cut))], False
    return 0, [_error_section("envelope", absolutely_subadditive_envelope(cut))], False


def _cmd_envelope(args, report):
    f = _load_samples(args.input, report)
    report.parameters.update(mode=args.mode, side=args.side)
    phi = _resolve_error(args.error, f.grid, report, "error")
    if args.mode == "monotone":
        op = monotone_lower_envelope if args.side == "lower" else monotone_upper_envelope
        out = op(f, phi)
    else:
        op = holder_lower_envelope if args.side == "lower" else holder_upper_envelope
        out = op(f, phi)
    return 0, [_samples_section("envelope", out)], False


def _cmd_sandwich(args, report):
    g = _load_samples(args.input, report)
    h = _load_samples(args.input2, report)
    tol = _resolve_tolerance(args)
    report.parameters.update(tolerance=tol, mode=args.mode)
    phi = _resolve_error(args.error, g.grid, report, "error")
    if args.mode == "monotone":
        fn, witness = monotone_sandwich(g, h, phi, tol)
    else:
        fn, witness = holder_sandwich(g, h, phi, tol)
    if fn is None:
        report.witnesses.append(witness)
        return 2, [Section("sandwich", "", {"feasible": False})], True
    return 0, [_samples_section("sandwich", fn)], False


def _cmd_bracket(args, report):
    f = _load_samples(args.input, report)
    tol = _resolve_tolerance(args)
    report.parameters.update(tolerance=tol, mode=args.mode)
    phi = _resolve_error(args.error, f.grid, report, "error")
    psi = _resolve_error(args.error2 or "const:0", f.grid, report, "error2")
    try:
        if args.mode == "monotone":
            report.parameters["boundary_note"] = BRACKET_BOUNDARY_NOTE
            pair = monotone_bracket(f, phi, psi, tol)
        else:
            pair = holder_bracket(f, phi, psi, tol)
    except PreconditionError as exc:
        if exc.witness is None:
            raise
        report.witnesses.append(exc.witness)
        return 2, [Section("bracket", "", {"feasible": False})], True
    sections = [
        _samples_section("lower", pair.lower),
        _samples_section("upper", pair.upper),
    ]
    if pair.gap_bound is not None:
        sections.append(
            _samples_section("gap", SampledFn(f.grid, pair.gap_bound))
        )
    return 0, sections, False


def _cmd_variation(args, report):
    f = _load_samples(args.input, report)
    report.parameters.update(anchor=args.anchor)
    phi = _resolve_error(args.error, f.grid, report, "error")
    table = total_phi_variation(f, phi, args.anchor, f.grid.count - 1)
    fn = SampledFn(
        Grid(f.grid.node(args.anchor), f.grid.step, len(table.prefix)), table.prefix
    )
    return 0, [_samples_section("variation", fn)], False


def _cmd_jordan(args, report):
    f = _load_samples(args.input, report)
    report.parameters.update(anchor=args.anchor)
    phi = _resolve_error(args.error, f.grid, report, "error")
    pair = jordan_decompose(f, phi, args.anchor)
    return 0, [_samples_section("g", pair.g), _samples_section("h", pair.h)], False


def _cmd_individual(args, report):
    f = _load_samples(args.input, report)
    report.parameters.update(kind=args.kind)
    op = individual_sigma if args.kind == "sigma" else individual_alpha
    return 0, [_error_section("individual", op(f))], False


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


def _emit(args, report: RunReport, sections: list[Section], force_json: bool) -> None:
    as_json = force_json or args.format == "json"
    if as_json:
        target = args.output or "-"
        report.outputs = [target]
        doc = {
            "command": report.command,
            "data": {s.name: s.data for s in sections},
            "report": report.to_dict(),
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
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
        for path, section in zip(paths, sections):
            Path(path).write_text(section.csv_text, encoding="utf-8")
        Path(sidecar).write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    else:
        report.outputs = ["-"]
        sys.stdout.write("\n".join(s.csv_text for s in sections))


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
        status, sections, force_json = _COMMANDS[args.command](args, report)
        _emit(args, report, sections, force_json)
        return status, report
    except PreconditionError as exc:
        print(f"approxmono: precondition failed: {exc}", file=sys.stderr)
        return 1, report
    except (
        IngestionError,
        GridError,
        DimensionMismatchError,
        ConfigurationError,
        OverflowError,
        FileNotFoundError,
        IsADirectoryError,
        PermissionError,
        ValueError,
    ) as exc:
        print(f"approxmono: error: {exc}", file=sys.stderr)
        return 1, report


def main(argv: Sequence[str] | None = None) -> None:
    status, _ = run(sys.argv[1:] if argv is None else list(argv))
    raise SystemExit(status)
