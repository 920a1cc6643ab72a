"""The benchmark's workloads: seeded inputs, the timed op, and output checks.

Every workload draws its inputs in blocks. A block's parameters are
stratified (each block covers every stratum of U, of MIr or m, of the
saturated mu range), so any prefix of whole blocks has nearly the same mix on
every seed, and a run of fixed length measures nearly the same work. Each
block has its own generator, seeded from (seed, workload, stream, block), so
the first n inputs of a stream never depend on how many are drawn after them.

An op is one ``evaluate_schedulability`` call (IMA workloads) or one
``membw.cli.main`` call (``scenario-cli``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GRID_U = tuple(Fraction(10 + k, 100) for k in range(81))
MIRS_DY = (Fraction(15, 100), Fraction(25, 100), Fraction(50, 100))
MS_STATIC = (4, 8, 12)
Q_CLI = 41666
WORKED_DIR = Path(__file__).resolve().parent.parent / "scenarios"
WORKED_EXAMPLES = (
    ("analyze-static", "static_worked_example.json", {"status": "converged", "span_periods": 10, "total_stall": "85"}),
    ("analyze-dynamic", "dynamic_worked_example.json", {"status": "converged", "span_periods": 7, "total_stall": "61"}),
)


def stratified(rng: random.Random, n: int) -> list[float]:
    """n uniform draws in [0, 1), one from each of n equal strata, shuffled."""
    draws = [(j + rng.random()) / n for j in range(n)]
    rng.shuffle(draws)
    return draws


def block_rng(seed: int, workload: str, stream: str, block: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{stream}:{block}")


def grid_u(x: float) -> Fraction:
    return GRID_U[int(x * len(GRID_U))]


@dataclass(frozen=True)
class ImaOp:
    config: object
    pset: object
    policy: str


class ImaWorkload:
    """Shared op, digest and checks of the two IMA workloads."""

    def inputs(self, mb, seed: int, stream: str, count: int, workdir: Path) -> list[ImaOp]:
        ops: list[ImaOp] = []
        for b in range(math.ceil(count / self.block)):
            rng = block_rng(seed, self.name, stream, b)
            for m, mir, u, policies in self.block_params(rng):
                config = mb.ima.ExperimentConfig(m=m, mir=mir, u=u)
                pset = mb.ima.generate_partition_set(config, rng)
                ops.extend(ImaOp(config, pset, p) for p in policies)
        return ops[:count]

    def run(self, mb, op: ImaOp) -> bool:
        return mb.ima.evaluate_schedulability(op.pset, op.policy, op.config)

    def digest_line(self, op: ImaOp, out) -> str:
        return f"{op.policy}:{int(out)}\n"

    def check(self, mb, ops: list[ImaOp], outs: list) -> dict[int, str]:
        bad = {i: f"verdict is {out!r}, not a bool" for i, out in enumerate(outs) if not isinstance(out, bool)}
        for i in range(min(self.referenced, len(outs))):
            if i not in bad:
                problem = self.reference_check(mb, ops[i], outs[i])
                if problem:
                    bad[i] = problem
        return bad


class ImaDy(ImaWorkload):
    name = "ima-dy"
    params = {"policy": "DY", "m": 8, "MIr": [str(x) for x in MIRS_DY], "U": "0.10..0.90 step 0.01",
              "block": "9 sets: one U per ninth of the grid, each MIr three times"}
    block = 9
    pool = 480
    warmup = 9
    checked = 108
    # Replaying costs about one op, so only this prefix is replayed.
    referenced = 12

    def block_params(self, rng):
        mirs = list(MIRS_DY) * 3
        rng.shuffle(mirs)
        return [(8, mir, grid_u(x), ("DY",)) for mir, x in zip(mirs, stratified(rng, 9))]

    def reference_check(self, mb, op: ImaOp, out: bool) -> str | None:
        """Replay the as-built DY schedule: each partition, analyzed from its
        start over the schedule's suffix, must finish at its recorded event."""
        outcome = mb.ima.policy_dy(op.pset, op.config)
        if outcome.schedulable != out:
            return f"policy_dy says {outcome.schedulable}, evaluate_schedulability {out}"
        if not out:
            return None
        reg = op.config.regulation
        horizon = op.config.hyperperiod_periods
        for core in range(1, op.config.m + 1):
            start = 0
            for part in op.pset.by_core(core):
                end = outcome.completions.get(part.id)
                if end is None or end > horizon:
                    return f"partition {part.id} has no completion within H"
                view = schedule_suffix(mb, outcome.schedule, start)
                deadline = (horizon - start) * op.config.period
                result = mb.dynamic_analysis.analyze_dynamic(part.workload(deadline), view, core, reg)
                if not result.converged or start + result.span != end:
                    return f"partition {part.id}: replay gives {result.status.value} {result.span}, recorded {end - start}"
                start = end
        return None


def schedule_suffix(mb, schedule, start: int):
    """The memory schedule as seen from period ``start`` on."""
    intervals = []
    skip = start
    for iv in schedule.intervals:
        if iv.length is not None and skip >= iv.length:
            skip -= iv.length
            continue
        length = None if iv.length is None else iv.length - skip
        intervals.append(mb.schedule.BudgetInterval(budgets=iv.budgets, length=length))
        skip = 0
    return mb.schedule.MemorySchedule(intervals=tuple(intervals))


class ImaStatic(ImaWorkload):
    name = "ima-static"
    params = {"policy": ["SE", "SU"], "m": list(MS_STATIC), "MIr": "0.25", "U": "0.10..0.90 step 0.01",
              "block": "6 sets: one U per sixth of the grid, each m twice; SE then SU on every set"}
    block = 12
    pool = 9600
    warmup = 120
    checked = 600
    referenced = 600

    def block_params(self, rng):
        ms = list(MS_STATIC) * 2
        rng.shuffle(ms)
        return [(m, Fraction(1, 4), grid_u(x), ("SE", "SU")) for m, x in zip(ms, stratified(rng, 6))]

    def reference_check(self, mb, op: ImaOp, out: bool) -> str | None:
        """Recompute the verdict with the static analyzer, a separate engine."""
        expected = static_verdict(mb, op)
        return None if expected == out else f"analyze_static gives {expected}, evaluate_schedulability {out}"


def static_verdict(mb, op: ImaOp) -> bool:
    vector = mb.ima.policy_se(op.config) if op.policy == "SE" else mb.ima.policy_su(op.pset, op.config)
    reg = op.config.regulation
    horizon = op.config.hyperperiod_periods
    for core in range(1, op.config.m + 1):
        start = 0
        for part in op.pset.by_core(core):
            if start >= horizon:
                return False
            deadline = (horizon - start) * op.config.period
            result = mb.static_analysis.analyze_static(part.workload(deadline), vector, core, reg)
            if not result.converged:
                return False
            start += result.span
    return True


@dataclass(frozen=True)
class CliOp:
    """One CLI call; ``expect`` holds what the generator knows of the answer."""

    kind: str
    command: str
    path: str
    beta: int
    deadline: int | None
    bounded_length: int | None
    pair: int | None = None
    expect: tuple = ()


def random_budgets(rng: random.Random, m: int, total: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), m - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def scenario_text(intervals: list[tuple[list[int], int | None]], core: int, e: int, mu: int, deadline: int | None) -> str:
    workload = {"core": core, "E": e, "mu": mu}
    if deadline is not None:
        # Periods last Q seconds of one-second slots, so D is a whole number.
        workload["D"] = deadline * Q_CLI
    doc = {
        "config": {"P": Q_CLI, "L_max": 1},
        "schedule": [{"budgets": b, "length": "unbounded" if n is None else n} for b, n in intervals],
        "workloads": [workload],
    }
    return json.dumps(doc)


class ScenarioCli:
    name = "scenario-cli"
    params = {
        "Q": Q_CLI,
        "saturated": "single interval, analyzed core budget 1, m 2..8, mu 1000..10000 stratified, "
                     "E 1..100; analyze-static and analyze-dynamic on each file",
        "multi": "2..32 intervals of 1..6 periods, m 2..16, fresh budget vectors; "
                 "a third open, a third with a deadline, a third fully bounded",
        "worked": "scenarios/static_worked_example.json, scenarios/dynamic_worked_example.json",
        "block": "32 ops: 4 saturated files x 2 commands, 22 multi-interval, 2 worked examples",
    }
    pool = 2400
    warmup = 32
    checked = 128
    kinds_multi = ("open", "deadline", "bounded")

    def inputs(self, mb, seed: int, stream: str, count: int, workdir: Path) -> list[CliOp]:
        workdir.mkdir(parents=True, exist_ok=True)
        ops: list[CliOp] = []
        b = 0
        while len(ops) < count:
            rng = block_rng(seed, self.name, stream, b)
            block: list[CliOp] = []
            for j, x in enumerate(stratified(rng, 4)):
                path = workdir / f"b{b}-sat{j}.json"
                block.extend(self.saturated(rng, path, 1000 + int(9000 * x), pair=b * 4 + j))
            for j in range(22):
                block.append(self.multi(rng, workdir / f"b{b}-multi{j}.json", self.kinds_multi[j % 3]))
            for command, name, expect in WORKED_EXAMPLES:
                block.append(CliOp("worked", command, str(WORKED_DIR / name), 0, None, None,
                                   expect=tuple(expect.items())))
            rng.shuffle(block)
            ops.extend(block)
            b += 1
        return ops[:count]

    def saturated(self, rng, path: Path, mu: int, pair: int) -> list[CliOp]:
        m = rng.randint(2, 8)
        core = rng.randint(1, m)
        budgets = random_budgets(rng, m - 1, Q_CLI - 1)
        budgets.insert(core - 1, 1)
        e = rng.randint(1, 100)
        path.write_text(scenario_text([(budgets, None)], core, e, mu, None))
        return [CliOp("saturated", cmd, str(path), e + mu, None, None, pair=pair)
                for cmd in ("analyze-static", "analyze-dynamic")]

    def multi(self, rng, path: Path, kind: str) -> CliOp:
        m = rng.randint(2, 16)
        n = rng.randint(2, 32)
        core = rng.randint(1, m)
        lengths = [rng.randint(1, 6) for _ in range(n)]
        total = sum(lengths)
        if kind != "bounded":
            lengths[-1] = None
        intervals = [(random_budgets(rng, m, Q_CLI), n_) for n_ in lengths]
        target = rng.randint(1, total)
        beta = rng.randint(max(2, target * Q_CLI // 4), target * Q_CLI)
        mu = int(beta * rng.uniform(0.02, 0.3))
        deadline = rng.randint(1, 3 * target + 2) if kind == "deadline" else None
        path.write_text(scenario_text(intervals, core, beta - mu, mu, deadline))
        return CliOp(kind, "analyze-dynamic", str(path), beta, deadline, total if kind == "bounded" else None)

    def run(self, mb, op: CliOp) -> str:
        """The CLI's standard output; parsing it is left to the checks."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mb.cli.main([op.command, "--scenario", op.path])
        if code != 0:
            raise RuntimeError(f"{op.command} {op.path} exited {code}")
        return out.getvalue()

    def digest_line(self, op: CliOp, out: str) -> str:
        doc = json.loads(out)
        return f"{doc.get('status')}:{doc.get('span_periods')}:{doc.get('total_stall')}\n"

    def check(self, mb, ops: list[CliOp], outs: list) -> dict[int, str]:
        bad: dict[int, str] = {}
        pairs: dict[int, list[int]] = {}
        docs = [None if out is None else json.loads(out) for out in outs]
        for i, (op, doc) in enumerate(zip(ops, docs)):
            if doc is None:  # the op raised; already counted
                continue
            problem = self.check_one(op, doc)
            if problem:
                bad[i] = problem
            if op.pair is not None:
                pairs.setdefault(op.pair, []).append(i)
        for members in pairs.values():
            if len(members) == 2:
                a, b = (dict(docs[i], command=None) for i in members)
                if a != b:
                    bad[members[1]] = f"analyze-static and analyze-dynamic disagree: {a} vs {b}"
        return bad

    def check_one(self, op: CliOp, out: dict) -> str | None:
        status = out.get("status")
        span = out.get("span_periods")
        if op.kind == "worked":
            got = {k: out.get(k) for k, _ in op.expect}
            return None if got == dict(op.expect) else f"worked example gives {got}"
        if status == "converged":
            stall = Fraction(out["total_stall"])
            if span != math.ceil((op.beta + stall) / Q_CLI) or out["length_slots"] != span * Q_CLI:
                return f"span {span} is not the fixed point of total stall {stall}"
            if op.deadline is not None and span > op.deadline:
                return f"converged span {span} misses deadline {op.deadline}"
            if op.bounded_length is not None and span > op.bounded_length:
                return f"converged span {span} outgrows the schedule ({op.bounded_length})"
            return None
        if op.kind == "saturated":
            return f"saturated instance ends {status}"
        if status == "deadline-miss":
            return None if op.deadline is not None and span > op.deadline else f"spurious deadline miss at {span}"
        if status == "schedule-exhausted":
            shortfall = out.get("shortfall_periods", 0)
            if op.bounded_length is None or shortfall < 1 or span != op.bounded_length + shortfall:
                return f"spurious schedule exhaustion at {span}"
            return None
        return f"unknown status {status!r}"


WORKLOADS = {w.name: w for w in (ImaDy, ImaStatic, ScenarioCli)}
