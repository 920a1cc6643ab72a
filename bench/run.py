"""The membw benchmark.

    python3 bench/run.py --workload ima-dy --seed 1 --seconds 25 --trace 0

Run from the repository root (it imports ``src/membw``). Workloads, with the
reason for each in BENCHMARK.json:

* ``ima-dy``: DY schedulability of m=8 partition sets.
* ``ima-static``: SE and SU schedulability at m in {4, 8, 12}.
* ``scenario-cli``: ``membw analyze-*`` calls on generated scenario files.

Set-up imports membw, draws the workload's inputs from ``--seed`` and warms
up on a separate batch from the same distribution. It is done three times,
from a fresh import each time, and ``setup_s`` is the median. The timed
section then runs ops one at a time (a closed loop, one client, in one
process with MEMBW_THREADS=1) until ``--seconds`` have passed and at least
the workload's checked prefix is done, or the generated pool runs out.

Every output is checked: the first ops are re-derived by a reference path
(the static analyzer for SE/SU, a replay of the as-built schedule for DY),
CLI outputs must satisfy the fixed-point identity and their status, the
static/dynamic pairs on single-interval files must agree, and the worked
examples must give their known spans. The verdicts (IMA) or status, span
and stall (CLI) of the checked prefix are hashed; when bench/pinned.json
pins that workload, seed and prefix, the hash must match.

With ``--trace 1`` the run also re-warms from a cleared curve cache and runs
the checked prefix again under ``tracer.Tracer``, which must reproduce the
untraced hash, and then runs the ``smoke`` preset through ``run_sweep``
serially and with one worker per CPU; both CSVs must hash to the pinned
digest.

Times are reported on a nominal machine. A shared virtual machine can switch
for minutes at a time between speed phases (on a 2-CPU VM with Python
3.11.7 they were about 1.4x apart), which moves every time alike and would
swamp the differences the bounds are meant to catch. Without the scaling
below, run-to-run spreads over ten seeds reached 22-31% there; with it,
6-11%. So the run also times a fixed integer loop that runs no membw
code (``ReferenceClock``) every quarter second of the timed section and a few
times after each set-up, and divides every time (multiplies ``ops_per_s``)
by the median loop time over ``NOMINAL_S``. The raw values and the factor
are in the stamp.

Standard output is two JSON lines: a stamp (machine, inputs and counts),
then the result ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("ima", "cli", "dynamic_analysis", "static_analysis", "stall_curve", "schedule")
SETUP_REPS = 3
SMOKE_SEED = 7
NOMINAL_S = 0.004


class ReferenceClock:
    """Machine speed, from a fixed pure-Python loop timed during the run."""

    every_s = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = perf_counter()

    def sample(self) -> None:
        # Integer arithmetic only: nothing the collector tracks is allocated,
        # so the loop's time does not depend on the heap the workload left.
        # Of the loops tried, it followed the phases of membw's own ops best.
        t0 = perf_counter()
        total = 0
        for i in range(60000):
            total += i * i
        self._last = perf_counter()
        self.samples.append(self._last - t0)
        self.spent += self._last - t0

    def tick(self) -> None:
        if perf_counter() - self._last >= self.every_s:
            self.sample()

    @property
    def speed(self) -> float:
        """How many times slower than nominal this machine ran."""
        return statistics.median(self.samples) / NOMINAL_S


def load_membw() -> SimpleNamespace:
    """Import membw afresh, so that each set-up pays the import."""
    for name in [n for n in sys.modules if n == "membw" or n.startswith("membw.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"membw.{m}") for m in MODULES})


def setup(workload, seed: int, pool: int, workdir: Path):
    t0 = perf_counter()
    mb = load_membw()
    ops = workload.inputs(mb, seed, "timed", pool, workdir / "timed")
    warm = workload.inputs(mb, seed, "warmup", workload.warmup, workdir / "warmup")
    for op in warm:
        workload.run(mb, op)
    return perf_counter() - t0, mb, ops, warm


def run_ops(workload, mb, ops, seconds: float, min_ops: int, clock: ReferenceClock | None = None):
    """Run ops until ``seconds`` pass with ``min_ops`` done.

    Returns per-op seconds, outputs, and the section's wall time less the
    time spent in the reference clock.
    """
    latencies: list[float] = []
    outs: list = []
    spent = clock.spent if clock else 0.0
    start = perf_counter()
    stop = start + seconds
    for op in ops:
        t0 = perf_counter()
        try:
            out = workload.run(mb, op)
        except Exception as exc:  # a failed op is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            out = exc
        t1 = perf_counter()
        latencies.append(t1 - t0)
        outs.append(out)
        if t1 >= stop and len(outs) >= min_ops:
            break
        if clock:
            clock.tick()
    return latencies, outs, perf_counter() - start - ((clock.spent if clock else 0.0) - spent)


def failures(workload, mb, ops, outs) -> dict[int, str]:
    """Failed ops by index: those that raised, then those the checks reject."""
    bad = {i: f"raised {out!r}" for i, out in enumerate(outs) if isinstance(out, Exception)}
    good = [out if i not in bad else None for i, out in enumerate(outs)]
    for i, problem in workload.check(mb, ops[: len(outs)], good).items():
        bad.setdefault(i, problem)
    return bad


def digest(workload, ops, outs) -> str:
    h = hashlib.sha256()
    for op, out in zip(ops, outs):
        h.update(("raised\n" if isinstance(out, Exception) else workload.digest_line(op, out)).encode())
    return h.hexdigest()


def smoke_sweeps(mb) -> dict:
    """The smoke preset through run_sweep, serial and with one worker per CPU."""
    sweep = mb.ima.preset_sweep("smoke", SMOKE_SEED)
    result = {}
    for label, threads in (("serial", 1), ("pool", os.cpu_count() or 1)):
        os.environ["MEMBW_THREADS"] = str(threads)
        t0 = perf_counter()
        rows = mb.ima.run_sweep(sweep)
        result[f"{label}_s"] = perf_counter() - t0
        result[f"{label}_sha256"] = hashlib.sha256(mb.ima.rows_to_csv(rows, SMOKE_SEED).encode()).hexdigest()
    os.environ["MEMBW_THREADS"] = "1"
    return result


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile_ms(latencies: list[float], n: int) -> float:
    return statistics.quantiles(latencies, n=n)[-1] * 1000 if len(latencies) > 1 else latencies[0] * 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops, all checked (a small self-test size)")
    parser.add_argument("--pinned", type=Path, default=BENCH / "pinned.json", help="file of pinned digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "membw").is_dir():
        print(f"error: no src/membw under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["MEMBW_THREADS"] = "1"
    pinned = json.loads(args.pinned.read_text())

    workload = WORKLOADS[args.workload]()
    checked = args.ops or workload.checked
    pool = args.ops or workload.pool

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build, prefix=f"{args.workload}-") as tmp:
        workdir = Path(tmp)
        setups = []
        clock = ReferenceClock()
        for _ in range(SETUP_REPS):
            setup_s, mb, ops, warm = setup(workload, args.seed, pool, workdir)
            setups.append(setup_s)
            for _ in range(4):
                clock.sample()
        print(f"set-up {', '.join(f'{s:.3f}' for s in setups)} s; timing", file=sys.stderr)
        # A sweep drops each set once evaluated; keep the held pool out of the
        # collector's full passes so it does not slow the timed ops.
        gc.collect()
        gc.freeze()

        latencies, outs, wall = run_ops(workload, mb, ops, args.seconds, checked, clock)
        problems = [f"op {i}: {p}" for i, p in sorted(failures(workload, mb, ops, outs).items())]
        attempted = len(outs)
        verdicts = digest(workload, ops[:checked], outs[:checked])
        pin = pinned["verdicts"].get(args.workload, {})
        if pin.get("seed") == args.seed and pin.get("ops") == checked and pin["sha256"] != verdicts:
            problems.append(f"verdict digest {verdicts} differs from the pinned {pin['sha256']}")

        raw = {
            "setup_s": statistics.median(setups),
            "ops_per_s": attempted / wall,
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_p90_ms": percentile_ms(latencies, 10),
        }
        speed = clock.speed
        metrics = {
            "setup_s": (raw["setup_s"] / speed, "s"),
            "ops_per_s": (raw["ops_per_s"] * speed, "1/s"),
            "op_p50_ms": (raw["op_p50_ms"] / speed, "ms"),
            "op_p90_ms": (raw["op_p90_ms"] / speed, "ms"),
            "ok_ratio": (1 - len(problems) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        cache_info = mb.stall_curve._cached_curve.cache_info()._asdict()
        stamp = {}
        if args.trace:
            mb.stall_curve._cached_curve.cache_clear()
            for op in warm:
                workload.run(mb, op)
            tracer = Tracer(mb)
            tracer.install()
            try:
                traced_ops = workload.inputs(mb, args.seed, "timed", checked, workdir / "traced")
                traced_lat, traced_outs, _ = run_ops(workload, mb, traced_ops, 0, checked)
            finally:
                tracer.restore()
            layer = tracer.metrics()
            attempted += len(traced_outs)
            problems += [f"traced op {i}: {p}" for i, p in sorted(failures(workload, mb, traced_ops, traced_outs).items())]
            traced = digest(workload, traced_ops, traced_outs)
            if traced != verdicts:
                problems.append(f"traced digest {traced} differs from the untraced {verdicts}")
            sweeps = smoke_sweeps(mb)
            csv_pin = pinned["smoke_csv"]["sha256"]
            if not sweeps["serial_sha256"] == sweeps["pool_sha256"] == csv_pin:
                problems.append(f"smoke CSV digests {sweeps['serial_sha256']} / {sweeps['pool_sha256']} != pinned {csv_pin}")
            metrics = layer
            metrics["cli.stdout_bytes"] = (sum(len(o.encode()) for o in traced_outs if isinstance(o, str)), "bytes")
            metrics["ima.run_sweep.serial_s"] = (sweeps["serial_s"], "s")
            metrics["ima.run_sweep.pool_s"] = (sweeps["pool_s"], "s")
            metrics["trace.overhead_ratio"] = (sum(traced_lat) / sum(latencies[:checked]), "ratio")
            stamp["smoke_csv_sha256"] = sweeps["serial_sha256"]

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    stamp.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": git_sha(),
        "MEMBW_THREADS": os.environ["MEMBW_THREADS"], "params": workload.params,
        "ops": {"timed": len(outs), "pool": pool, "warmup": workload.warmup, "checked": checked},
        "timed_wall_s": wall, "setup_reps_s": setups, "cache_info": cache_info, "verdict_sha256": verdicts,
        "raw": raw, "reference": {"speed": speed, "nominal_s": NOMINAL_S, "samples": len(clock.samples)},
    })
    print(json.dumps({"stamp": stamp}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
