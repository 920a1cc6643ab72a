"""Command-line behavior: outputs, exit codes, and diagnostics."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membw import cli
from membw.cli import main
from membw.errors import MembwError
from membw.oracles import ENUMERATION_GUARD

STATIC = "scenarios/static_worked_example.json"
DYNAMIC = "scenarios/dynamic_worked_example.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REPO = Path(__file__).resolve().parent.parent


def run_module(*argv):
    """``python -m membw`` in a fresh interpreter, from the repository root."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "membw", *argv],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestModuleEntryPoint:
    # The exit code reaches the shell, and nothing but the answer reaches stdout.
    def test_dynamic_worked_example(self):
        proc = run_module("analyze-dynamic", "--scenario", DYNAMIC)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert (doc["status"], doc["span_periods"], doc["total_stall"]) == ("converged", 7, "61")

    def test_missing_scenario_exits_2(self):
        proc = run_module("analyze-dynamic", "--scenario", "nope.json")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""


class TestAnalyzeStatic:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "analyze-static", "--scenario", STATIC)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "converged"
        assert doc["span_periods"] == 10
        assert doc["length_slots"] == 160
        assert doc["total_stall"] == "85"

    def test_trace_rows(self, capsys):
        code, out, _ = run(capsys, "analyze-static", "--scenario", STATIC, "--trace")
        assert code == 0
        lines = out.strip().splitlines()
        assert "k,W,S" in lines
        tail = lines[lines.index("k,W,S") + 1 :]
        assert tail == ["0,5,0", "1,9,55", "2,10,247/3", "3,10,85"]

    def test_rejects_multi_interval(self, capsys):
        code, _, err = run(capsys, "analyze-static", "--scenario", DYNAMIC)
        assert code == 2
        assert "analyze-dynamic" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze-static", "--scenario", "nope.json")
        assert code == 2
        assert err.startswith("error:")

    def test_core_must_exist(self, capsys):
        code, _, err = run(capsys, "analyze-static", "--scenario", STATIC, "--core", "2")
        assert code == 2
        assert "no workload" in err


class TestAnalyzeDynamic:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "analyze-dynamic", "--scenario", DYNAMIC)
        assert code == 0
        doc = json.loads(out)
        assert doc["span_periods"] == 7
        assert doc["length_slots"] == 112
        assert doc["total_stall"] == "61"

    def test_breakdown_rows(self, capsys):
        code, out, _ = run(capsys, "analyze-dynamic", "--scenario", DYNAMIC, "--breakdown")
        assert code == 0
        lines = out.strip().splitlines()
        tail = lines[lines.index("interval,W,mu,S") + 1 :]
        assert tail == ["1,5,19,45", "2,2,6,16", "3,0,0,0"]


def test_saturated_climb_trace(capsys, tmp_path):
    # Core 1 holds one transaction per period: 8001 iterates, one per period.
    doc = {
        "config": {"P": 41666, "L_max": 1},
        "schedule": [{"budgets": [1, 20000, 21665], "length": "unbounded"}],
        "workloads": [{"core": 1, "E": 50, "mu": 8000}],
    }
    path = _write(tmp_path, json.dumps(doc).encode())
    rows = {}
    for command in ("analyze-static", "analyze-dynamic"):
        code, out, _ = run(capsys, command, "--scenario", path, "--trace")
        assert code == 0
        assert '"iterations": 8001' in out
        lines = out.splitlines()
        rows[command] = lines[lines.index("k,W,S") :]
    assert rows["analyze-static"] == rows["analyze-dynamic"]
    assert len(rows["analyze-static"]) == 1 + 8002
    assert rows["analyze-static"][-1] == "8001,8001,333320000"


def test_a_deadline_is_met_only_when_the_periods_end_by_it(capsys, tmp_path):
    # L_max = 3 does not divide P = 16, so Q = 5 and five slots take 15 s,
    # but a period still lasts 16 s: a span of 2 ends at 32 s.
    for deadline, status in ((30, "deadline-miss"), (32, "converged")):
        doc = {
            "config": {"P": 16, "L_max": 3},
            "schedule": [{"budgets": [2, 3], "length": "unbounded"}],
            "workloads": [{"core": 1, "E": 6, "mu": 0, "D": deadline}],
        }
        path = _write(tmp_path, json.dumps(doc).encode())
        for command in ("analyze-static", "analyze-dynamic"):
            code, out, _ = run(capsys, command, "--scenario", path)
            assert code == 0
            result = json.loads(out)
            assert result["status"] == status
            assert result["span_periods"] == 2


class TestDumpCurve:
    def test_points_golden(self, capsys):
        code, out, _ = run(capsys, "dump-curve", "--scenario", STATIC)
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == [0, 3, 6, 7, 8, 11]
        assert doc["start_points"] == [0, 2]

    def test_interval_selection(self, capsys):
        code, out, _ = run(capsys, "dump-curve", "--scenario", DYNAMIC, "--interval", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["budgets"] == [4, 4, 4, 4]
        assert doc["points"] == [0, 3, 6, 9, 12]

    def test_interval_out_of_range(self, capsys):
        code, _, err = run(capsys, "dump-curve", "--scenario", DYNAMIC, "--interval", "4")
        assert code == 2
        assert "--interval" in err


class TestOracle:
    def test_objectives_match_on_worked_example(self, capsys):
        code, out, _ = run(capsys, "oracle", "--scenario", DYNAMIC)
        assert code == 0
        doc = json.loads(out)
        assert doc["objectives_match"] is True
        assert doc["greedy_objective"] == doc["oracle_objective"] == "61"


# The dynamic worked example with three more intervals, which its 7-period
# span never reaches.
UNREACHED = {
    "config": {"P": 16, "L_max": 1},
    "schedule": [
        {"budgets": [2, 2, 5, 7], "length": 5},
        {"budgets": [2, 3, 7, 4], "length": 3},
        {"budgets": [4, 4, 4, 4], "length": 4},
        {"budgets": [2, 2, 5, 7], "length": 4},
        {"budgets": [2, 3, 7, 4], "length": "unbounded"},
    ],
    "workloads": [{"core": 3, "E": 15, "mu": 25}],
}
UNREACHED_ANALYSIS = {"status": "converged", "span_periods": 7, "length_slots": 112, "total_stall": "61", "iterations": 4}


def test_unreached_intervals_print_zero_rows(capsys, tmp_path):
    path = _write(tmp_path, json.dumps(UNREACHED).encode())
    code, out, _ = run(capsys, "analyze-dynamic", "--scenario", path, "--breakdown")
    assert code == 0
    doc = json.dumps({"command": "analyze-dynamic", "core": 3, **UNREACHED_ANALYSIS}, indent=2)
    assert out == doc + "\ninterval,W,mu,S\n1,5,19,45\n2,2,6,16\n3,0,0,0\n4,0,0,0\n5,0,0,0\n"

    code, out, _ = run(capsys, "oracle", "--scenario", path)
    assert code == 0
    doc = {
        "command": "oracle",
        "core": 3,
        "analysis": UNREACHED_ANALYSIS,
        "greedy_objective": "61",
        "oracle_objective": "61",
        "oracle_assignment": [19, 6, 0, 0, 0],
        "greedy_assignment": [19, 6, 0, 0, 0],
        "objectives_match": True,
    }
    assert out == json.dumps(doc, indent=2) + "\n"


def test_oracle_builds_raw_points_only_for_reached_intervals(capsys, tmp_path, monkeypatch):
    # The span of 7 periods reaches intervals 1 and 2 of 5; the oracle
    # builds raw points, O(q) each, for those two only.
    built, build = [], cli.build_raw_points

    def counting_build(budgets, core):
        built.append(budgets)
        return build(budgets, core)

    monkeypatch.setattr(cli, "build_raw_points", counting_build)
    code, out, _ = run(capsys, "oracle", "--scenario", _write(tmp_path, json.dumps(UNREACHED).encode()))
    assert code == 0
    assert json.loads(out)["objectives_match"] is True
    assert len(built) == 2


def test_oracle_refuses_over_guard_before_building_raw_points(capsys, tmp_path, monkeypatch):
    # Core 2's budget would need 10^8 raw stall points; analyze-dynamic
    # answers the same file at once from the hull vertices alone.
    doc = {
        "config": {"P": 100000000, "L_max": 1},
        "schedule": [{"budgets": [1, 99999999], "length": "unbounded"}],
        "workloads": [{"core": 2, "E": 1, "mu": 1}],
    }

    def refuse(*args):
        pytest.fail("raw stall points built for an over-guard oracle call")

    monkeypatch.setattr(cli, "build_raw_points", refuse)
    code, _, err = run(capsys, "oracle", "--scenario", _write(tmp_path, json.dumps(doc).encode()))
    assert code == 2
    assert "assignment space exceeds" in err


def test_dump_curve_refuses_over_guard_before_building_raw_points(capsys, tmp_path, monkeypatch):
    # Core 2 would have ENUMERATION_GUARD + 1 raw stall points to build and print.
    q = ENUMERATION_GUARD
    doc = {
        "config": {"P": q + 1, "L_max": 1},
        "schedule": [{"budgets": [1, q], "length": "unbounded"}],
        "workloads": [{"core": 2, "E": 1, "mu": 1}],
    }

    def refuse(*args):
        pytest.fail("raw stall points built for an over-guard dump-curve call")

    monkeypatch.setattr(cli, "build_raw_points", refuse)
    code, out, err = run(capsys, "dump-curve", "--scenario", _write(tmp_path, json.dumps(doc).encode()))
    assert code == 2
    assert out == ""
    assert f"{q + 1} raw stall points" in err


class TestExperiment:
    def test_smoke_writes_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MEMBW_THREADS", "1")
        out_file = tmp_path / "smoke.csv"
        code, _, err = run(capsys, "experiment", "--preset", "smoke", "--seed", "7", "--out", str(out_file))
        assert code == 0
        assert "wrote" in err
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "# seed=7"
        assert lines[2] == "policy,m,MIr,U,schedulable,total,ratio,seed"
        assert len(lines) == 3 + 3 * 3  # 3 policies x 3 U points

    def test_smoke_stdout(self, capsys, monkeypatch):
        monkeypatch.setenv("MEMBW_THREADS", "1")
        code, out, _ = run(capsys, "experiment", "--preset", "smoke", "--seed", "7")
        assert code == 0
        assert out.startswith("# seed=7")

    def test_plot_requires_out(self, capsys, monkeypatch):
        monkeypatch.setenv("MEMBW_THREADS", "1")
        code, _, err = run(capsys, "experiment", "--preset", "smoke", "--seed", "7", "--plot")
        assert code == 2
        assert "--plot requires --out" in err

    def test_plot_without_out_refused_before_the_sweep(self, capsys, monkeypatch):
        def no_sweep(sweep):
            pytest.fail("the sweep ran before --plot was checked")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        code, out, err = run(capsys, "experiment", "--preset", "vary-m", "--plot")
        assert code == 2
        assert out == ""
        assert "--plot requires --out" in err

    def test_plot_over_the_csv_refused_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        # --out x.plt names the script's own path: the script would overwrite the CSV.
        def no_sweep(sweep):
            pytest.fail("the sweep ran before the plot path was checked")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        monkeypatch.chdir(tmp_path)
        for out_path in ("x.plt", str(tmp_path / "x.plt")):
            code, out, err = run(capsys, "experiment", "--preset", "smoke", "--seed", "7", "--out", out_path, "--plot")
            assert (code, out) == (2, "")
            assert err.startswith("error: --plot would write its script over the CSV")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        ("out_name", "plot", "unwritable"),
        [
            ("missing/x.csv", False, "missing/x.csv"),
            ("outdir", False, "outdir"),
            ("missing/x.csv", True, "missing/x.csv"),
            # The CSV can be written but its script path is a directory.
            ("x.csv", True, "x.plt"),
        ],
    )
    def test_unwritable_out_refused_before_the_sweep(self, capsys, tmp_path, monkeypatch, out_name, plot, unwritable):
        def no_sweep(sweep):
            pytest.fail("the sweep ran before its outputs were opened")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        (tmp_path / "outdir").mkdir()
        (tmp_path / "x.plt").mkdir()
        with pytest.raises(OSError) as exc:
            open(tmp_path / unwritable, "w")
        argv = ["experiment", "--preset", "vary-m", "--out", str(tmp_path / out_name)]
        code, out, err = run(capsys, *argv, *(["--plot"] if plot else []))
        assert (code, out, err) == (2, "", f"error: {exc.value}\n")

    @pytest.mark.parametrize("existing", [True, False], ids=["existing-csv", "no-csv"])
    @pytest.mark.parametrize("failure", ["plot-path-is-a-directory", "sweep-raises"])
    def test_a_failed_run_leaves_out_as_it_was(self, capsys, tmp_path, monkeypatch, existing, failure):
        # A CSV already at --out keeps its bytes, and a run that created an
        # output removes it.
        def failing_sweep(sweep):
            raise MembwError("the sweep failed")

        def snapshot():
            return {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()}

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        if existing:
            (tmp_path / "x.csv").write_text("# an earlier sweep's\n")
        message = "the sweep failed"
        if failure == "plot-path-is-a-directory":
            (tmp_path / "x.plt").mkdir()
            with pytest.raises(OSError) as exc:
                open(tmp_path / "x.plt", "w")
            message = str(exc.value)
        before = snapshot()
        code, out, err = run(capsys, "experiment", "--preset", "vary-m", "--out", str(tmp_path / "x.csv"), "--plot")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert snapshot() == before

    def test_plot_script_written(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MEMBW_THREADS", "1")
        out_file = tmp_path / "smoke.csv"
        code, _, _ = run(capsys, "experiment", "--preset", "smoke", "--seed", "7", "--out", str(out_file), "--plot")
        assert code == 0
        script = (tmp_path / "smoke.plt").read_text()
        assert "using 4:7" in script
        assert str(out_file) in script


    @pytest.mark.parametrize("name", ["my results", "it's"])
    def test_plot_commands_survive_spaces_and_quotes(self, capsys, tmp_path, monkeypatch, name):
        # Each plot line's gnuplot string, unescaped and run through sh -c,
        # prints exactly its series' CSV rows, in order.
        monkeypatch.setenv("MEMBW_THREADS", "1")
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "experiment", "--preset", "smoke", "--seed", "7", "--out", f"{name}.csv", "--plot")
        assert code == 0
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()[3:]
        series = list(dict.fromkeys(",".join(row.split(",")[:3]) + "," for row in rows))
        plots = [line for line in (tmp_path / f"{name}.plt").read_text().splitlines() if line.startswith('    "')]
        assert len(plots) == len(series) == 3
        for prefix, line in zip(series, plots):
            body = re.match(r'    "((?:[^"\\]|\\.)*)"', line).group(1)
            command = re.sub(r"\\(.)", r"\1", body)
            assert command.startswith("< ")
            shell = subprocess.run(["sh", "-c", command[2:]], cwd=tmp_path, capture_output=True, text=True)
            assert (shell.returncode, shell.stderr) == (0, "")
            assert shell.stdout.splitlines() == [row for row in rows if row.startswith(prefix)]


class TestParserReuse:
    # One parser, built once per process, serves every main call.
    def test_calls_share_one_parser(self, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        for command, path in (("analyze-static", STATIC), ("analyze-dynamic", DYNAMIC)):
            assert run(capsys, command, "--scenario", path)[0] == 0
        assert len(parsers) == 2
        assert parsers[0] is parsers[1] is cli._build_parser()

    def test_help_is_the_same_on_every_call(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["analyze-dynamic", "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: membw analyze-dynamic")

    def test_flags_do_not_leak_into_the_next_call(self, capsys):
        run(capsys, "analyze-dynamic", "--scenario", DYNAMIC, "--trace", "--breakdown")
        run(capsys, "analyze-static", "--scenario", STATIC, "--trace")
        for command, path in (("analyze-dynamic", DYNAMIC), ("analyze-static", STATIC)):
            code, out, _ = run(capsys, command, "--scenario", path)
            assert code == 0
            # The whole of stdout is the JSON answer: no trace or breakdown rows.
            assert json.loads(out)["command"] == command

    @pytest.mark.parametrize(
        "rejected",
        [["analyze-dynamic"], ["analyze-static", "--scenario", STATIC, "--breakdown"], ["dump-curve", "--interval", "x"]],
    )
    def test_valid_call_after_a_rejection(self, capsys, rejected):
        with pytest.raises(SystemExit) as exc:
            main(rejected)
        assert exc.value.code == 2
        code, out, _ = run(capsys, "analyze-dynamic", "--scenario", DYNAMIC)
        assert code == 0
        doc = json.loads(out)
        assert (doc["span_periods"], doc["total_stall"]) == (7, "61")


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _write(directory, data: bytes) -> str:
    path = directory / "scenario.json"
    path.write_bytes(data)
    return str(path)


def _static_with(extra: str) -> bytes:
    """The static worked example with ``extra`` added to its config."""
    with open(STATIC, encoding="utf-8") as fh:
        return fh.read().replace('"L_max": 1', '"L_max": 1, ' + extra).encode()


@pytest.mark.parametrize(
    "make_argv",
    [
        pytest.param(lambda d: ["analyze-static", "--scenario", _write(d, b"\xff\xfe{}")], id="not-utf8"),
        pytest.param(
            lambda d: ["analyze-static", "--scenario", _write(d, b"[" * 100_000 + b"]" * 100_000)], id="deep-nesting"
        ),
        pytest.param(
            lambda d: ["analyze-static", "--scenario", _write(d, b'{"config": {"P": ' + b"9" * 5000 + b"}}")],
            id="huge-int-literal",
        ),
        pytest.param(
            # Valid but for the exponent; parsing it exactly would take a
            # million-digit power of ten.
            lambda d: ["analyze-static", "--scenario", _write(d, _static_with('"L_min": 1e1000000'))],
            id="huge-decimal-exponent",
        ),
        pytest.param(lambda d: ["analyze-static", "--scenario", str(d)], id="scenario-is-directory"),
        pytest.param(lambda d: ["experiment", "--preset", "smoke", "--out", str(d)], id="out-is-directory"),
    ],
)
def test_malformed_input_exits_2(capsys, tmp_path, monkeypatch, make_argv):
    monkeypatch.setenv("MEMBW_THREADS", "1")
    code, _, err = run(capsys, *make_argv(tmp_path))
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    ("extra", "expected_code"),
    [('"L_min": 0.5, "L_size": 3', 0), ('"L_min": 1e-4300', 0), ('"L_size": 1.5', 2)],
)
def test_config_latency_keys(capsys, tmp_path, extra, expected_code):
    code, out, err = run(capsys, "analyze-static", "--scenario", _write(tmp_path, _static_with(extra)))
    assert code == expected_code
    if expected_code == 0:
        assert json.loads(out)["span_periods"] == 10
    else:
        assert "config.L_size must be an integer" in err


@pytest.fixture(scope="module")
def scenario_paths(tmp_path_factory):
    """A valid, missing, directory and malformed --scenario value each."""
    d = tmp_path_factory.mktemp("argv")
    two_cores = {
        "config": {"P": 16, "L_max": 1},
        "schedule": [{"budgets": [2, 2, 5, 7], "length": 4}, {"budgets": [4, 4, 4, 4], "length": 3}],
        "workloads": [{"core": 1, "E": 9, "mu": 20, "D": 80}, {"core": 3, "E": 40, "mu": 35}],
    }
    (d / "two_cores.json").write_text(json.dumps(two_cores))
    (d / "malformed.json").write_text('{"config": {"P": 16, "L_max": 1}, "schedule": [')
    return [STATIC, DYNAMIC, str(d / "two_cores.json"), str(d / "missing.json"), str(d), str(d / "malformed.json")]


HUGE = "1" + "0" * 25
INTS = st.sampled_from(["-" + HUGE, "-1", "0", "1", "2", "3", "4", "5", HUGE, "x"])


OWN_FLAGS = {
    "analyze-static": ("--trace",),
    "analyze-dynamic": ("--trace", "--breakdown"),
    "dump-curve": ("--interval",),
    "oracle": (),
}


@st.composite
def cli_argv(draw, paths):
    if draw(st.integers(0, 9)) == 0:
        argv = ["experiment", "--preset", "smoke", "--seed", draw(st.sampled_from(["-1", "0", "7", HUGE]))]
        out = draw(st.sampled_from([None, paths[-2], paths[-2] + "/smoke.csv"]))
        if out is not None:
            argv += ["--out", out]
        return argv + draw(st.lists(st.just("--plot"), max_size=1))
    command = draw(st.sampled_from(sorted(OWN_FLAGS)))
    argv = [command]
    if draw(st.integers(0, 9)):
        argv += ["--scenario", draw(st.sampled_from(paths))]
    if draw(st.booleans()):
        argv += ["--core", draw(INTS)]
    # Mostly the command's own flags; now and then flags it does not take.
    for flag in OWN_FLAGS[command] if draw(st.integers(0, 4)) else ("--interval", "--trace", "--breakdown"):
        if draw(st.booleans()):
            argv += [flag, draw(INTS)] if flag == "--interval" else [flag]
    return argv


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_any_argv_exits_0_or_2(scenario_paths, data):
    # Whatever the arguments, the CLI answers, reports a diagnostic with exit
    # code 2, or lets argparse reject the command line: never a traceback.
    argv = data.draw(cli_argv(scenario_paths))
    with contextlib.ExitStack() as stack:
        stack.enter_context(pytest.MonkeyPatch.context()).setenv("MEMBW_THREADS", "1")
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert code in (0, 2), argv


@pytest.mark.parametrize(
    ("replace", "message"),
    [
        pytest.param(('"mu": 35}', '"mu": 35, "D": 0}'), "workload: deadline must be > 0", id="zero-deadline"),
        pytest.param(('"length": "unbounded"', '"length": 0'), "budget interval: length must be", id="zero-length"),
    ],
)
def test_invariant_violations_in_a_scenario_exit_2(capsys, tmp_path, replace, message):
    # Rejected by the domain types' own checks, and reported as a scenario
    # problem: one diagnostic line, no traceback.
    with open(STATIC, encoding="utf-8") as fh:
        text = fh.read()
    assert replace[0] in text
    code, out, err = run(capsys, "analyze-static", "--scenario", _write(tmp_path, text.replace(*replace).encode()))
    assert (code, out) == (2, "")
    assert err.startswith("error: scenario: ") and message in err
    assert err.count("\n") == 1
