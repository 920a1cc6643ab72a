"""Tiny self-test of the benchmark.

    python3 bench/selftest.py

For every workload it runs bench/run.py at a tiny size (``--ops``), with
tracing off and on, and checks that the run passes and prints exactly the
metric names BENCHMARK.json lists. It then pins the verdict digest a run
printed and checks that a run against that pin passes and a run against a
wrong pin fails. Last, it checks that the benchmark fails, without printing a
result, in a directory that holds only BENCHMARK.json and bench/.
About a minute on one core.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY = {"ima-dy": 9, "ima-static": 12, "scenario-cli": 32}
SEED = 2


def run(workload: str, trace: int, pinned: Path, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace), "--ops", str(TINY[workload]), "--pinned", str(pinned)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    real_pins = json.loads((BENCH / "pinned.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(TINY):
        problems.append("BENCHMARK.json workloads differ from the self-test's")
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build, prefix="selftest-") as tmp:
        pin_path = Path(tmp) / "pinned.json"
        for workload in TINY:
            pin_path.write_text(json.dumps(real_pins))
            for trace in (0, 1):
                code, lines = run(workload, trace, pin_path)
                stamp, result = json.loads(lines[-2])["stamp"], json.loads(lines[-1])
                if code != 0 or not result["correct"]:
                    problems.append(f"{workload} trace {trace}: exit {code}, correct {result['correct']}")
                if set(result["metrics"]) != expected[trace]:
                    diff = set(result["metrics"]) ^ expected[trace]
                    problems.append(f"{workload} trace {trace}: metric names differ from BENCHMARK.json: {sorted(diff)}")
            for digest, should_pass in ((stamp["verdict_sha256"], True), ("0" * 64, False)):
                pin = {"seed": SEED, "ops": TINY[workload], "sha256": digest}
                pin_path.write_text(json.dumps(dict(real_pins, verdicts={workload: pin})))
                code, lines = run(workload, 0, pin_path)
                passed = code == 0 and json.loads(lines[-1])["correct"]
                if passed != should_pass:
                    problems.append(f"{workload}: pinned digest {digest[:8]}... gave exit {code}, expected pass={should_pass}")
            print(f"{workload}: checked", file=sys.stderr)

        bare = Path(tmp) / "bare"
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = run("ima-dy", 0, bare / "bench" / "pinned.json", cwd=bare)
        if code == 0 or any('"correct"' in line for line in lines):
            problems.append(f"a directory without src/ gave exit {code} and output {lines[-1:]}")

    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
