"""Command-line front end.

Subcommands: analyze-static, analyze-dynamic, dump-curve, oracle, experiment.
Scenario-driven subcommands read a JSON scenario file and print JSON (plus
optional CSV rows); experiment prints CSV. Validation problems exit with
code 2 and a diagnostic naming the violated invariant. The argument
parser is built once per process and serves every :func:`main` call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shlex
import sys
from fractions import Fraction

from .dynamic_analysis import analyze_dynamic
from .errors import MembwError
from .ima import preset_sweep, rows_to_csv, run_sweep
from .oracles import ENUMERATION_GUARD, _check_assignment_space, build_raw_points, oracle_distribute
from .schedule import Scenario, load_scenario
from .static_analysis import analyze_static
from .stall_curve import curve_for_core


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="membw", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="path to a JSON scenario file")
        p.add_argument("--core", type=int, default=None, help="analyzed core (default: the only workload's core)")
        return p

    p = scenario_command("analyze-static", "span analysis under the scenario's single budget vector")
    p.add_argument("--trace", action="store_true", help="also print the iteration trace as CSV rows k,W,S")
    # A static result has no breakdown.
    p.set_defaults(breakdown=False)

    p = scenario_command("analyze-dynamic", "span analysis across the scenario's memory schedule")
    p.add_argument("--trace", action="store_true", help="also print the iteration trace as CSV rows k,W,S")
    p.add_argument("--breakdown", action="store_true", help="also print per-interval CSV rows interval,W,mu,S")

    p = scenario_command("dump-curve", "raw stall points and concave envelope for one core")
    p.add_argument("--interval", type=int, default=1, help="1-based schedule interval to use (default 1)")

    scenario_command("oracle", "cross-check the analysis against brute-force enumeration")

    p = sub.add_parser("experiment", help="run a schedulability sweep and emit CSV")
    p.add_argument("--preset", required=True, choices=["vary-m", "vary-mir", "smoke"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.add_argument("--plot", action="store_true", help="also write a gnuplot script next to --out")
    return parser


def _pick_core(scenario: Scenario, core: int | None) -> int:
    if core is not None:
        return core
    cores = sorted(scenario.workloads)
    if len(cores) != 1:
        raise MembwError(f"scenario has workloads for cores {cores}; pass --core")
    return cores[0]


def _report(args, core: int, result) -> int:
    """Print an analyze-* result as JSON, then the CSV rows its flags ask for."""
    print(json.dumps({"command": args.command, "core": core, **result.to_json_dict()}, indent=2))
    if args.trace:
        # Streamed from the run record: a long climb never builds its trace.
        print("k,W,S")
        for k, (span, num, den) in enumerate(result.iterates()):
            print(f"{k},{span},{Fraction(num, den)}")
    if args.breakdown and result.breakdown is not None:
        print("interval,W,mu,S")
        for row in result.breakdown:
            print(f"{row.interval},{row.span},{row.memory},{row.stall}")
    return 0


def _cmd_analyze_static(args) -> int:
    scenario = load_scenario(args.scenario)
    core = _pick_core(scenario, args.core)
    if len(scenario.schedule.intervals) != 1:
        raise MembwError(
            "analyze-static requires a single-interval schedule "
            f"(got {len(scenario.schedule.intervals)} intervals); use analyze-dynamic"
        )
    workload = scenario.workload_for_core(core)
    budgets = scenario.schedule.intervals[0].budgets
    return _report(args, core, analyze_static(workload, budgets, core, scenario.config))


def _cmd_analyze_dynamic(args) -> int:
    scenario = load_scenario(args.scenario)
    core = _pick_core(scenario, args.core)
    workload = scenario.workload_for_core(core)
    return _report(args, core, analyze_dynamic(workload, scenario.schedule, core, scenario.config))


def _cmd_dump_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    core = _pick_core(scenario, args.core)
    intervals = scenario.schedule.intervals
    if not 1 <= args.interval <= len(intervals):
        raise MembwError(f"--interval {args.interval} outside [1..{len(intervals)}]")
    budgets = intervals[args.interval - 1].budgets
    # The raw points take O(q) time, memory and output, so refuse as many
    # as the oracle would refuse to enumerate.
    points = budgets.budget_of(core) + 1
    if points > ENUMERATION_GUARD:
        raise MembwError(f"dump-curve: core {core} has {points} raw stall points, more than {ENUMERATION_GUARD}")
    raw = build_raw_points(budgets, core)
    curve = curve_for_core(budgets, core)
    doc = {
        "command": "dump-curve",
        "interval": args.interval,
        "budgets": list(budgets.budgets),
        "points": list(raw.values),
        **curve.to_json_dict(),
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    core = _pick_core(scenario, args.core)
    workload = scenario.workload_for_core(core)
    result = analyze_dynamic(workload, scenario.schedule, core, scenario.config)
    doc = {"command": "oracle", "core": core, "analysis": result.to_json_dict()}
    if result.converged:
        # The converged analysis's own split W^j and greedy assignment mu^j.
        # The span reaches a prefix of the intervals.
        rows = result.breakdown
        splits = tuple(row.span for row in rows)
        reached = scenario.schedule.intervals[: len(splits) - splits.count(0)]
        # Raw points take O(q) each: refuse an over-guard enumeration first, and build only the reached ones.
        _check_assignment_space([w * iv.budgets.budget_of(core) for w, iv in zip(splits, reached)])
        raws = tuple(build_raw_points(iv.budgets, core) for iv in reached)
        greedy_value = result.total_stall
        oracle_value, oracle_assign = oracle_distribute(splits, workload.memory, raws)
        doc["greedy_objective"] = str(greedy_value)
        doc["oracle_objective"] = str(oracle_value)
        doc["oracle_assignment"] = list(oracle_assign)
        doc["greedy_assignment"] = [row.memory for row in rows]
        doc["objectives_match"] = greedy_value == oracle_value
    print(json.dumps(doc, indent=2))
    return 0


def _plot_script(rows, csv_path: str) -> str:
    series = []
    seen = set()
    for r in rows:
        key = (r.policy, r.m, float(r.mir))
        if key not in seen:
            seen.add(key)
            series.append(key)
    lines = [
        "set datafile separator ','",
        "set xlabel 'U'",
        "set ylabel 'schedulable ratio'",
        "set yrange [0:1.05]",
        "set key outside",
    ]
    # The path is quoted for the shell, and the command escaped for
    # gnuplot's double-quoted string, so spaces and quotes survive both.
    path = shlex.quote(csv_path)
    plots = []
    for policy, m, mir in series:
        command = f"< grep '^{policy},{m},{mir},' {path}".replace("\\", "\\\\").replace('"', '\\"')
        plots.append(f"    \"{command}\" using 4:7 with linespoints title '{policy} m={m} MIr={mir}'")
    lines.append("plot \\")
    lines.append(", \\\n".join(plots))
    return "\n".join(lines) + "\n"


def _cmd_experiment(args) -> int:
    plot_path = None
    if args.plot:
        if not args.out:
            raise MembwError("--plot requires --out (the script references the CSV file)")
        plot_path = os.path.splitext(args.out)[0] + ".plt"
        if os.path.realpath(plot_path) == os.path.realpath(args.out):
            raise MembwError(f"--plot would write its script over the CSV {args.out}; give --out another extension")
    new = [path for path in (args.out, plot_path) if path and not os.path.exists(path)]
    try:
        # Open the outputs for appending first: an unwritable path fails
        # before the sweep, and a file already there keeps its bytes until
        # the sweep has succeeded.
        for path in filter(None, (args.out, plot_path)):
            open(path, "a", encoding="utf-8").close()
        rows = run_sweep(preset_sweep(args.preset, args.seed))
    except BaseException:
        # A failed run leaves behind no output it created.
        for path in filter(os.path.exists, new):
            os.remove(path)
        raise
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as csv_fh:
        csv_fh.write(rows_to_csv(rows, args.seed))
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    if args.plot:
        with open(plot_path, "w", encoding="utf-8") as plot_fh:
            plot_fh.write(_plot_script(rows, args.out))
        print(f"wrote plot script to {plot_path}", file=sys.stderr)
    return 0


_COMMANDS = {
    "analyze-static": _cmd_analyze_static,
    "analyze-dynamic": _cmd_analyze_dynamic,
    "dump-curve": _cmd_dump_curve,
    "oracle": _cmd_oracle,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MembwError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
