import hashlib
import json
import math

import numpy as np
import pytest

import approxmono
from approxmono import (
    ErrorFn,
    Grid,
    PowerErrorSpec,
    SampledFn,
    is_phi_monotone,
    power_error,
)
from approxmono.cli import RunReport, Section, _build_parser, _emit, _error_table, run
from approxmono.csvio import (
    error_from_csv,
    error_to_csv,
    samples_from_csv,
    samples_to_csv,
)
from helpers import dyadic, rand_fn


def write_samples(path, values, origin=0.0, step=1.0):
    fn = SampledFn(Grid(origin, step, len(values)), values)
    path.write_text(samples_to_csv(fn))
    return fn


@pytest.fixture()
def holder_csv(tmp_path):
    # 0.5-Hölder profile: square root distances from an interior point
    t = np.arange(8) * 1.0
    v = np.sqrt(np.abs(t - 3.0))
    path = tmp_path / "f.csv"
    write_samples(path, v)
    return path


class TestErrorSpec:
    """`_error_table` realizes each spec kind on a grid."""

    grid = Grid(0.0, 0.5, 4)

    def test_power(self):
        phi = _error_table("power:1,0.5", self.grid, RunReport("check"))
        expected = power_error(PowerErrorSpec(1.0, 0.5), 0.5, 4)
        assert phi.grid_step == 0.5
        assert np.array_equal(phi.values, expected.values)

    def test_const(self):
        phi = _error_table("const:2", self.grid, RunReport("check"))
        assert phi.grid_step == 0.5
        assert list(phi.values) == [2.0] * 4

    def test_file(self, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text(error_to_csv(ErrorFn(0.5, [0.0, 1.0, 3.0])))
        report = RunReport("check")
        phi = _error_table(f"file:{path}", self.grid, report)
        assert list(phi.values) == [0.0, 1.0, 3.0]
        assert report.inputs == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}

    @pytest.mark.parametrize(
        "text", ["power:1", "power:-1,2", "const:-3", "file:", "nope:1", "raw"]
    )
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            _error_table(text, self.grid, RunReport("check"))


class TestCsvRoundTrip:
    def test_samples_round_trip_exact(self):
        rng = np.random.default_rng(221)
        fn = SampledFn(Grid(-1.25, 0.3, 40), rng.normal(size=40))
        back = samples_from_csv(samples_to_csv(fn))
        assert np.array_equal(back.values, fn.values)
        assert back.grid.count == fn.grid.count
        assert abs(back.grid.step - fn.grid.step) <= 1e-9 * fn.grid.step

    def test_error_round_trip_exact(self):
        rng = np.random.default_rng(223)
        from approxmono import ErrorFn

        phi = ErrorFn(0.75, np.abs(rng.normal(size=12)))
        back = error_from_csv(error_to_csv(phi))
        assert np.array_equal(back.values, phi.values)

    def test_bad_header(self):
        from approxmono import IngestionError

        with pytest.raises(IngestionError, match="header"):
            samples_from_csv("x,y\n0,1\n")

    def test_bad_row_names_line(self):
        from approxmono import IngestionError

        with pytest.raises(IngestionError, match="line 3"):
            samples_from_csv("t,value\n0,1\n1,abc\n")


class TestRunCheck:
    def test_holder_check_passes(self, holder_csv, capsys):
        status, report = run(
            ["check", "--input", str(holder_csv), "--error", "power:1,0.5"]
        )
        assert status == 0
        assert report.witnesses == []
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["check"]["ok"] is True

    def test_monotone_check_fails_with_witness(self, holder_csv, capsys):
        status, report = run(
            [
                "check",
                "--input",
                str(holder_csv),
                "--error",
                "power:0.1,1",
                "--mode",
                "monotone",
            ]
        )
        assert status == 2
        assert len(report.witnesses) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["witnesses"][0]["kind"] == "monotone-violation"

    def test_tolerance_flag_can_absorb_violation(self, holder_csv):
        status, _ = run(
            [
                "check",
                "--input",
                str(holder_csv),
                "--error",
                "const:0",
                "--mode",
                "monotone",
                "--tolerance",
                "10",
            ]
        )
        assert status == 0

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exit_1(self, tmp_path, monkeypatch, tol):
        path = tmp_path / "f.csv"
        write_samples(path, [0.0, 5.0, 1.0])
        argv = ["check", "--input", str(path), "--error", "const:0", "--mode", "monotone"]
        assert run(argv)[0] == 2
        assert run(argv + ["--tolerance", tol])[0] == 1
        monkeypatch.setenv("APPROXMONO_TOL", tol)
        assert run(argv)[0] == 1

    def test_env_var_overrides_default(self, holder_csv, monkeypatch):
        monkeypatch.setenv("APPROXMONO_TOL", "10")
        status, report = run(
            ["check", "--input", str(holder_csv), "--error", "const:0", "--mode", "monotone"]
        )
        assert status == 0
        assert report.parameters["tolerance"] == 10.0


class TestRunEnvelopeError:
    def test_quadratic_collapses_to_linear(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        write_samples(path, np.zeros(6), step=0.5)
        status, _ = run(["envelope-error", "--input", str(path), "--error", "power:1,2"])
        assert status == 0
        out = capsys.readouterr().out
        phi = error_from_csv(out)
        assert np.array_equal(phi.values, 0.25 * np.arange(6))

    def test_alpha_kind_records_radius(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        write_samples(path, np.zeros(5))
        status, report = run(
            [
                "envelope-error",
                "--input",
                str(path),
                "--error",
                "const:1",
                "--kind",
                "alpha",
                "--format",
                "json",
            ]
        )
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["envelope"]["phi"] == [1.0, 1.0, 1.0, 1.0, 1.0]


class TestRunEnvelopeAndSandwich:
    def test_envelope_outputs_member(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        rng = np.random.default_rng(227)
        fn = write_samples(path, dyadic(rng, -1, 1, 9))
        status, _ = run(
            ["envelope", "--input", str(path), "--error", "power:0.5,1", "--side", "lower"]
        )
        assert status == 0
        out = samples_from_csv(capsys.readouterr().out)
        assert np.all(out.values <= fn.values)

    @pytest.mark.parametrize("mode", ["monotone", "holder"])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_envelope_mode_and_side(self, tmp_path, capsys, mode, side):
        path = tmp_path / "f.csv"
        fn = write_samples(path, dyadic(np.random.default_rng(228), -1, 1, 9))
        argv = ["envelope", "--input", str(path), "--error", "power:0.125,1"]
        assert run(argv + ["--mode", mode, "--side", side])[0] == 0
        op = getattr(approxmono, f"{mode}_{side}_envelope")
        expected = op(fn, power_error(PowerErrorSpec(0.125, 1.0), 1.0, 9))
        out = samples_from_csv(capsys.readouterr().out)
        assert np.array_equal(out.values, expected.values)

    def test_sandwich_feasible(self, tmp_path, capsys):
        rng = np.random.default_rng(229)
        g_path = tmp_path / "g.csv"
        h_path = tmp_path / "h.csv"
        hv = dyadic(rng, -1, 1, 7)
        write_samples(h_path, hv)
        write_samples(g_path, hv - 3.0)
        status, report = run(
            [
                "sandwich",
                "--input",
                str(g_path),
                "--input2",
                str(h_path),
                "--error",
                "power:1,1",
            ]
        )
        assert status == 0
        out = samples_from_csv(capsys.readouterr().out)
        assert np.all(out.values <= hv)
        assert len(report.inputs) == 2

    @pytest.mark.parametrize("mode", ["monotone", "holder"])
    def test_sandwich_grids_equal_within_ingest_tolerance(self, tmp_path, mode):
        # the same 0.1-step grid written two ways ingests to steps that differ
        # in the last bits
        n = 8
        cumulative = [0.0]
        for _ in range(n - 1):
            cumulative.append(cumulative[-1] + 0.1)
        g_path = tmp_path / "g.csv"
        h_path = tmp_path / "h.csv"
        g_path.write_text("t,value\n" + "".join(f"{i * 0.1!r},-1\n" for i in range(n)))
        h_path.write_text("t,value\n" + "".join(f"{t!r},0\n" for t in cumulative))
        g_grid = samples_from_csv(g_path.read_text()).grid
        h_grid = samples_from_csv(h_path.read_text()).grid
        assert g_grid.step != h_grid.step
        status, _ = run(
            [
                "sandwich",
                "--mode",
                mode,
                "--input",
                str(g_path),
                "--input2",
                str(h_path),
                "--error",
                "const:0",
                "--output",
                str(tmp_path / "s.csv"),
            ]
        )
        assert status == 0
        out = samples_from_csv((tmp_path / "s.csv").read_text())
        assert np.array_equal(out.values, np.zeros(n))

    def test_sandwich_infeasible_exit_2(self, tmp_path, capsys):
        g_path = tmp_path / "g.csv"
        h_path = tmp_path / "h.csv"
        write_samples(g_path, [5.0, 0.0])
        write_samples(h_path, [0.0, 0.0])
        status, report = run(
            [
                "sandwich",
                "--input",
                str(g_path),
                "--input2",
                str(h_path),
                "--error",
                "const:0",
            ]
        )
        assert status == 2
        assert report.witnesses[0].kind.value == "sandwich-violation"
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["sandwich"]["feasible"] is False


class TestRunBracketVariationJordan:
    def test_bracket_writes_three_holder_files(self, tmp_path):
        rng = np.random.default_rng(233)
        path = tmp_path / "f.csv"
        # gentle dyadic profile stays Hölder for the linear table
        vals = np.cumsum(dyadic(rng, -0.25, 0.25, 8))
        write_samples(path, vals)
        out = tmp_path / "br.csv"
        status, report = run(
            [
                "bracket",
                "--input",
                str(path),
                "--error",
                "power:1,1",
                "--error2",
                "power:1,1",
                "--mode",
                "holder",
                "--output",
                str(out),
            ]
        )
        assert status == 0
        lower = samples_from_csv((tmp_path / "br.lower.csv").read_text())
        upper = samples_from_csv((tmp_path / "br.upper.csv").read_text())
        gap = samples_from_csv((tmp_path / "br.gap.csv").read_text())
        assert np.all(lower.values <= vals) and np.all(vals <= upper.values)
        assert np.all(upper.values - lower.values <= gap.values + 1e-12)
        sidecar = json.loads((tmp_path / "br.csv.report.json").read_text())
        assert sidecar["command"] == "bracket"

    def test_bracket_precondition_exit_2(self, tmp_path):
        path = tmp_path / "f.csv"
        write_samples(path, [0.0, 5.0, 0.0])
        status, report = run(
            ["bracket", "--input", str(path), "--error", "const:0", "--mode", "holder"]
        )
        assert status == 2
        assert report.witnesses

    def test_variation_values(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        write_samples(path, [0.0, 1.0, 0.0])
        status, _ = run(["variation", "--input", str(path), "--error", "const:0"])
        assert status == 0
        out = samples_from_csv(capsys.readouterr().out)
        assert list(out.values) == [0.0, 1.0, 2.0]

    def test_jordan_round_trip(self, tmp_path):
        rng = np.random.default_rng(239)
        path = tmp_path / "f.csv"
        fn = write_samples(path, dyadic(rng, -1, 1, 9))
        out = tmp_path / "jord.csv"
        status, report = run(
            [
                "jordan",
                "--input",
                str(path),
                "--error",
                "const:0",
                "--output",
                str(out),
            ]
        )
        assert status == 0
        g = samples_from_csv((tmp_path / "jord.g.csv").read_text())
        h = samples_from_csv((tmp_path / "jord.h.csv").read_text())
        assert np.array_equal(g.values - h.values, fn.values)
        zero = __import__("approxmono").ErrorFn(1.0, np.zeros(9))
        assert is_phi_monotone(g, zero, 0.0)[0]
        assert is_phi_monotone(h, zero, 0.0)[0]
        assert str(tmp_path / "jord.g.csv") in report.outputs

    def test_individual_alpha(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        write_samples(path, [0.0, -3.0, 1.0])
        status, _ = run(["individual", "--input", str(path), "--kind", "alpha"])
        assert status == 0
        phi = error_from_csv(capsys.readouterr().out)
        assert list(phi.values) == [0.0, 4.0, 1.0]


class TestOperationalErrors:
    def test_unknown_flag(self, capsys):
        status, report = run(["check", "--nope", "x"])
        assert status == 1 and report is None

    def test_unknown_command(self):
        status, _ = run(["frobnicate"])
        assert status == 1

    def test_missing_file(self, tmp_path):
        status, _ = run(
            ["check", "--input", str(tmp_path / "absent.csv"), "--error", "const:0"]
        )
        assert status == 1

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0,1\noops\n")
        status, _ = run(["check", "--input", str(path), "--error", "const:0"])
        assert status == 1
        assert "line 3" in capsys.readouterr().err

    def test_nonuniform_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0,1\n1,2\n3,4\n")
        status, _ = run(["check", "--input", str(path), "--error", "const:0"])
        assert status == 1

    def test_overflowing_abscissa_span(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text("t,value\n-1e308,0\n1e308,0\n")
        status, _ = run(["check", "--input", str(path), "--error", "const:0"])
        assert status == 1
        err = capsys.readouterr().err
        assert "record 1: distance from the first abscissa overflows" in err

    def test_bad_error_spec(self, holder_csv):
        status, _ = run(["check", "--input", str(holder_csv), "--error", "power:a,b"])
        assert status == 1

    def test_help_exits_zero(self):
        status, _ = run(["--help"])
        assert status == 0


class TestDeterminism:
    def test_stdout_bytes_identical(self, holder_csv, capsys):
        argv = ["check", "--input", str(holder_csv), "--error", "power:1,0.5"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_file_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(241)
        path = tmp_path / "f.csv"
        write_samples(path, rng.normal(size=11))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            status, _ = run(
                [
                    "envelope",
                    "--input",
                    str(path),
                    "--error",
                    "power:1,0.5",
                    "--output",
                    str(out),
                ]
            )
            assert status == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_file_error_spec_round_trips(self, tmp_path, capsys):
        # an envelope written to disk feeds back as a file: spec
        path = tmp_path / "f.csv"
        write_samples(path, np.zeros(6))
        phi_path = tmp_path / "phi.csv"
        status, _ = run(
            [
                "envelope-error",
                "--input",
                str(path),
                "--error",
                "power:1,2",
                "--output",
                str(phi_path),
            ]
        )
        assert status == 0
        status, _ = run(
            ["check", "--input", str(path), "--error", f"file:{phi_path}"]
        )
        assert status == 0


# the optional flags each subcommand reads, and a valid value for each
FLAG_VALUES = {
    "--error": "const:0",
    "--error2": "const:0",
    "--anchor": "1",
    "--tolerance": "0",
}
FLAGS_USED = {
    "check": {"--error", "--tolerance"},
    "envelope-error": {"--error"},
    "envelope": {"--error"},
    "sandwich": {"--error", "--tolerance"},
    "bracket": {"--error", "--error2", "--tolerance"},
    "variation": {"--error", "--anchor"},
    "jordan": {"--error", "--anchor"},
    "individual": set(),
}


def minimal_argv(path, command):
    argv = [command, "--input", str(path)]
    if "--error" in FLAGS_USED[command]:
        argv += ["--error", "const:0"]
    if command == "sandwich":
        argv += ["--input2", str(path)]
    return argv


class TestFlagsOnlyWhereUsed:
    """Each subcommand registers only the flags it reads."""

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, used in FLAGS_USED.items() for f in FLAG_VALUES if f not in used],
    )
    def test_unused_flag_rejected(self, tmp_path, capsys, command, flag):
        path = tmp_path / "f.csv"
        write_samples(path, np.zeros(4))
        argv = minimal_argv(path, command)
        assert run(argv)[0] == 0
        assert run(argv + [flag, FLAG_VALUES[flag]])[0] == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(FLAGS_USED))
    def test_used_flags_accepted(self, tmp_path, command):
        path = tmp_path / "f.csv"
        write_samples(path, np.zeros(4))
        argv = minimal_argv(path, command)
        for flag in sorted(FLAGS_USED[command] - {"--error"}):
            argv += [flag, FLAG_VALUES[flag]]
        assert run(argv)[0] == 0

    @pytest.mark.parametrize(
        "command", ["envelope-error", "envelope", "variation", "jordan"]
    )
    def test_tolerance_read_only_by_checks(self, tmp_path, monkeypatch, command):
        path = tmp_path / "f.csv"
        write_samples(path, np.zeros(4))
        monkeypatch.setenv("APPROXMONO_TOL", "nan")
        status, report = run(minimal_argv(path, command))
        assert status == 0
        assert "tolerance" not in report.parameters


class TestEnvelopeErrorCutsFileTable:
    @pytest.mark.parametrize("kind", ["sigma", "alpha"])
    def test_twelve_row_table_on_five_nodes(self, tmp_path, capsys, kind):
        path = tmp_path / "f.csv"
        write_samples(path, np.zeros(5))
        table = tmp_path / "phi.csv"
        table.write_text(error_to_csv(ErrorFn(1.0, np.arange(12.0))))
        argv = ["envelope-error", "--input", str(path), "--error", f"file:{table}"]
        status, _ = run(argv + ["--kind", kind])
        assert status == 0
        phi = error_from_csv(capsys.readouterr().out)
        assert list(phi.values) == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestOverflowExit1:
    @pytest.mark.parametrize("command", ["variation", "jordan"])
    def test_overflowing_variation(self, tmp_path, capsys, command):
        path = tmp_path / "f.csv"
        write_samples(path, [1e308, -1e308, 1e308])
        status, _ = run([command, "--input", str(path), "--error", "const:0"])
        assert status == 1
        err = capsys.readouterr().err
        assert "overflows the double range" in err
        assert "not finite" not in err

    @pytest.mark.parametrize("kind", ["sigma", "alpha"])
    def test_overflowing_individual(self, tmp_path, capsys, kind):
        path = tmp_path / "f.csv"
        write_samples(path, [1e308, -1e308, 1e308])
        status, _ = run(["individual", "--input", str(path), "--kind", kind])
        assert status == 1
        err = capsys.readouterr().err
        assert "overflows the double range" in err
        assert "not finite" not in err and "Warning" not in err

    def test_overflowing_holder_sandwich(self, tmp_path, capsys):
        g, h = tmp_path / "g.csv", tmp_path / "h.csv"
        write_samples(g, [1e308, -1e308, 1e308])
        write_samples(h, [1e308] * 3)
        argv = ["sandwich", "--mode", "holder", "--error", "power:1,1", "--input", str(g)]
        status, _ = run(argv + ["--input2", str(g)])
        out, err = capsys.readouterr()
        assert status == 1 and out == ""
        assert "overflows the double range" in err and "Warning" not in err
        # only the margin g - env = -inf overflows here, and it is no violation
        status, _ = run(argv + ["--input2", str(h)])
        assert status == 0
        assert "Warning" not in capsys.readouterr().err


class TestCheckOverflowExit1:
    @pytest.mark.parametrize("mode", ["monotone", "holder"])
    def test_overflowing_margins(self, tmp_path, capsys, mode):
        path = tmp_path / "f.csv"
        write_samples(path, [1e308, -1e308, 1e308])
        argv = ["check", "--input", str(path), "--error", "const:0", "--mode", mode]
        status, _ = run(argv)
        out, err = capsys.readouterr()
        assert status == 1
        assert out == ""
        assert "overflows the double range" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_emit_refuses_non_finite_json(self, tmp_path, fmt):
        # a verdict forces JSON; a sampled function in csv format takes the
        # CSV path with its JSON sidecar
        output = tmp_path / "out.csv"
        argv = ["envelope", "--input", "f.csv", "--error", "const:0", "--format", fmt]
        args = _build_parser().parse_args(argv + ["--output", str(output)])
        report = RunReport("envelope", parameters={"tolerance": math.inf})
        body = {"ok": False} if fmt == "json" else SampledFn(Grid(0.0, 1.0, 2), [0, 1])
        with pytest.raises(ValueError):
            _emit(args, report, [Section("envelope", body)])
        assert list(tmp_path.iterdir()) == []


def csv_columns(text):
    rows = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
    return rows[:, 0].tolist(), rows[:, 1].tolist()


class TestJsonMatchesCsv:
    """Every subcommand writes the same sections as JSON and as CSV files."""

    @pytest.mark.parametrize("command", sorted(FLAGS_USED))
    def test_sections_agree(self, tmp_path, capsys, command):
        path = tmp_path / "f.csv"
        write_samples(path, [0.0, 0.75, 0.5, 0.875, 0.625, 0.9375])
        argv = minimal_argv(path, command)
        if command == "bracket":  # the const:0 companion needs a constant table
            argv[argv.index("const:0")] = "const:1"
            argv += ["--mode", "holder"]
        elif "--error" in FLAGS_USED[command]:
            argv[argv.index("const:0")] = "power:1,1"
        status, _ = run(argv + ["--format", "json"])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        data = doc["data"]
        out = tmp_path / "out.csv"
        status, report = run(argv + ["--format", "csv", "--output", str(out)])
        assert status == 0
        if command == "bracket":  # --error2 not given
            assert doc["report"]["parameters"]["error2"] == "const:0"
        if command == "check":  # a verdict has no CSV form: JSON, no sidecar
            assert report.outputs == [str(out)]
            assert json.loads(out.read_text())["data"] == data
            return
        sidecar = json.loads((tmp_path / "out.csv.report.json").read_text())
        assert sidecar["parameters"] == doc["report"]["parameters"]
        paths = [out] if len(data) == 1 else [tmp_path / f"out.{n}.csv" for n in data]
        assert sorted(map(str, paths)) == sorted(report.outputs[:-1])
        for name, written in zip(data, paths):
            keys = ("u", "phi") if "phi" in data[name] else ("t", "value")
            assert csv_columns(written.read_text()) == tuple(data[name][k] for k in keys)
