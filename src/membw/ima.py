"""IMA partition-set generation, budget policies, and schedulability sweeps.

Models an avionics-style system: m cores, each running a fixed sequence of
time-partitioned applications ("partitions") inside a major cycle of H
seconds. The model is fixed: 4 partitions per core, H = 128 ms, and 1 ms
regulation periods of Q = 41,666 transactions. A sweep point varies only m,
the HIGH-intensity ratio MIr and the per-core utilization U. Every partition
is abstracted as one workload (E, mu) with deadline H; a core's partitions
execute back-to-back, each starting at its predecessor's completion period.
A partition set is schedulable under a budget policy iff every core's last
partition completes by H.

Policies:

* SE: the total budget is split evenly across cores, once.
* SU: split once at t = 0, proportionally to each core's memory pressure
  (sum mu / (sum mu + sum E) over its partitions).
* DY: starts from SU's split. At every partition completion, cores whose
  partitions have all finished drop to the 1-transaction floor, and the
  budget so freed is redistributed over the still-active cores in
  proportion to weights recomputed from the unfinished partitions'
  demands. An active core never holds less than its initial share, but
  that does not keep its stall bound within SU's: a set can pass SU and
  fail DY (``tests/test_ima.py::test_dy_can_fail_where_su_passes``).
  The interval boundaries of the resulting memory schedule are the
  completion events. Completions are hypothesized by analyzing each
  running partition against the intervals built since its start plus the
  current vector extended indefinitely; the earliest hypothesis is the next
  event. Same-period completions collapse into a single event. A
  hypothesis is computed at two moments only. When its partition starts,
  the view is the current vector alone. When the vector changes, every
  running partition is re-analyzed, and its view is the intervals built
  since its start and then the new vector, unbounded. Between those moments
  the view, and so the hypothesis, stays the same. The vector stays SU's
  until some core finishes its last partition; from then on any completion
  can shift the live cores' weights and with them the vector.

Every analysis here is of a view that ends in an unbounded vector, and
needs only its span or a miss, so none runs the fixed-point kernel of
:mod:`membw.dynamic_analysis`: each takes a closed-form least root of
:mod:`membw.static_analysis`, called directly. SE and SU analyze every
partition under their one vector with ``_static_span``, as does DY at a
partition's start. DY's view after a vector change takes ``_view_span``
over one interval per run of equal vectors since the partition's start,
whose root lies past the view's history because the partition was still
running when the vector changed. Both give the span the public analyzers
give. SU's weights and DY's reclaim read one helper's per-core sums of mu
and mu + E, which DY keeps for the unfinished partitions as they finish.

Generation per set: partition count 4m with round(MIr * 4m) in HIGH memory-
intensity mode; a random permutation assigns exactly 4 partitions per core;
per-core utilizations come from UUniFast (exact rational sum U); memory
intensity is drawn uniformly from the mode's range. Demands follow as
E = round(u * H * (1 - MI) / slot) clamped >= 1 and mu = round(u * H * MI / slot),
rounding halves up. Every float drawn is dyadic, so both are computed
exactly in integers: UUniFast telescopes on (numerator, denominator) pairs,
H / slot is the integer H in slots, and rounding is one floor division, so
generation builds no Fraction. MI and U only shape the draw: a partition
keeps just its id, its core and (E, mu), which is all a policy reads. The
float bounds of the two MI ranges are taken once per set, and an MI draw is
``random.uniform``'s own lo + (hi - lo) * random(), inlined. The draws are
taken first, in the order below, and then one loop per core telescopes
its UUniFast shares and appends each partition's id, E and mu to the set's
int columns, core by core, so generation builds no Partition record.
Draw order (one seeded generator per set): HIGH-mode sample, core
permutation, per-core UUniFast in core order, per-partition MI in id order.
"""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from hashlib import blake2b
from typing import ClassVar, NamedTuple

from .errors import InvariantError
from .schedule import BudgetInterval, MemorySchedule, RegulationConfig, Workload
from .stall_curve import BudgetVector
from .static_analysis import _static_span, _view_span

POLICIES = ("SE", "SU", "DY")


class Ratio(NamedTuple):
    """An unreduced integer ratio numerator / denominator (a budget weight),
    built without the gcd a :class:`Fraction` takes; read like an int or a
    Fraction weight."""

    numerator: int
    denominator: int


@dataclass(frozen=True, slots=True)
class Partition:
    """One IMA partition on its core: an (E, mu) workload with deadline H.

    A :class:`PartitionSet` keeps no records: ``partitions`` and ``by_core``
    build these on each call.
    """

    id: int
    core: int
    execution: int
    memory: int

    def workload(self, deadline: Fraction) -> Workload:
        return Workload(execution=self.execution, memory=self.memory, deadline=deadline)


@dataclass(frozen=True, slots=True)
class PartitionSet:
    """A partition set as int columns in core-major order.

    ``ids``, ``execution`` and ``memory`` list core 1's partitions in id
    order, then core 2's, and so on; core c's run is
    ``bounds[c - 1]:bounds[c]``. The policies read the columns. Every field
    is a tuple of ints, which the collector stops tracking after its first
    pass, so a held set is one tracked object.
    """

    ids: tuple[int, ...]
    execution: tuple[int, ...]
    memory: tuple[int, ...]
    bounds: tuple[int, ...]

    @classmethod
    def from_partitions(cls, records: Iterable[Partition]) -> PartitionSet:
        """The set of ``records``, whose cores number from 1; a core below
        the largest with no record has an empty run."""
        ordered = sorted(records, key=lambda p: (p.core, p.id))
        if ordered and ordered[0].core < 1:
            raise InvariantError(f"partition {ordered[0].id}: cores number from 1, got {ordered[0].core}")
        cores = [p.core for p in ordered]
        return cls(
            ids=tuple(p.id for p in ordered),
            execution=tuple(p.execution for p in ordered),
            memory=tuple(p.memory for p in ordered),
            bounds=tuple(bisect_right(cores, core) for core in range(cores[-1] + 1 if cores else 1)),
        )

    @property
    def partitions(self) -> tuple[Partition, ...]:
        """Every partition's record, in id order."""
        records = [p for core in range(1, len(self.bounds)) for p in self.by_core(core)]
        return tuple(sorted(records, key=lambda p: p.id))

    def by_core(self, core: int) -> tuple[Partition, ...]:
        """The core's partition records in id order; empty for a core with
        none or out of range."""
        if not 0 < core < len(self.bounds):
            return ()
        return tuple(
            Partition(self.ids[i], core, self.execution[i], self.memory[i])
            for i in range(self.bounds[core - 1], self.bounds[core])
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep point (m, MIr, U) of the fixed IMA model.

    The model is the class constants (H and the period in seconds); the
    slot length, H in periods and in slots and the regulation config follow
    from them. A partition started at period s has H - s periods left.
    m is an int; MIr and U are exact: ints or Fractions, never floats.
    """

    m: int
    mir: Fraction
    u: Fraction

    partitions_per_core: ClassVar[int] = 4
    hyperperiod: ClassVar[Fraction] = Fraction(128, 1000)
    period: ClassVar[Fraction] = Fraction(1, 1000)
    q_total: ClassVar[int] = 41666
    high_range: ClassVar[tuple[Fraction, Fraction]] = (Fraction(1, 2), Fraction(99, 100))
    low_range: ClassVar[tuple[Fraction, Fraction]] = (Fraction(1, 1000), Fraction(1, 10))
    slot: ClassVar[Fraction] = period / q_total
    hyperperiod_periods: ClassVar[int] = int(hyperperiod / period)
    hyperperiod_slots: ClassVar[int] = hyperperiod_periods * q_total
    regulation: ClassVar[RegulationConfig] = RegulationConfig(period=period, l_max=slot, q_total=q_total)

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise InvariantError(f"experiment config: m must be an int, got {self.m!r}")
        for value in (self.mir, self.u):
            if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
                raise InvariantError(f"experiment config: MIr and U must be int or Fraction, got {value!r}")
        if not 2 <= self.m <= self.q_total:
            raise InvariantError("experiment config: m must lie in [2, Q] (>= 1 transaction per core)")
        # An int's numerator is itself over 1, and a Fraction's denominator is
        # positive: numerators compare without Fraction's rich comparison.
        if not 0 <= self.mir.numerator <= self.mir.denominator:
            raise InvariantError("experiment config: MIr must lie in [0, 1]")
        if self.u.numerator <= 0:
            raise InvariantError("experiment config: U must be > 0")


def _round_half_up(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, halves up (num >= 0, den > 0)."""
    return (2 * num + den) // (2 * den)


def generate_partition_set(config: ExperimentConfig, rng: random.Random) -> PartitionSet:
    """Draw one partition set; see the module docstring for the draw order.

    Each draw r = p / d is a dyadic float, so UUniFast telescopes in
    integers: from the utilization left, num / den, a partition takes
    num * (d - p) / (den * d) and leaves num * p / (den * d).
    """
    ppc = config.partitions_per_core
    n = config.m * ppc
    low = tuple(map(float, config.low_range))
    ranges = [low] * n
    high = tuple(map(float, config.high_range))
    for pid in rng.sample(range(n), _round_half_up(config.mir.numerator * n, config.mir.denominator)):
        ranges[pid] = high
    perm = list(range(n))
    rng.shuffle(perm)
    # The rest of the draws: UUniFast's, core by core, as (p, d), then MI by
    # id, random.uniform(lo, hi) inlined as lo + (hi - lo) * random(). Of a
    # core's partitions, the i-th from the end leaves random() ** (1 / i) of
    # what is left to those after it; the last leaves 0 / 1 and draws nothing.
    draw = rng.random
    exponents = (*(1.0 / i for i in range(ppc - 1, 0, -1)), 0)
    left = [(draw() ** e).as_integer_ratio() if e else (0, 1) for _ in range(config.m) for e in exponents]
    mis = [lo + (hi - lo) * draw() for lo, hi in ranges]

    # num / den starts at 2 * U * (H / slot): twice a demand rounds half up
    # in one floor division.
    u_num = 2 * config.hyperperiod_slots * config.u.numerator
    u_den = config.u.denominator
    ids: list[int] = []
    execution: list[int] = []
    memory: list[int] = []
    for pos in range(0, n, ppc):
        num, den = u_num, u_den
        for pid, (p, d) in zip(sorted(perm[pos : pos + ppc]), left[pos : pos + ppc]):
            den *= d
            util = num * (d - p)
            num *= p
            # util / den is 2 * u * (H / slot), so with MI = mi_num / mi_den,
            # demand * MI rounds half up to (util * mi_num + half) // whole.
            mi_num, mi_den = mis[pid].as_integer_ratio()
            half = den * mi_den
            whole = 2 * half
            e = (util * (mi_den - mi_num) + half) // whole
            ids.append(pid)
            execution.append(e if e > 1 else 1)
            memory.append((util * mi_num + half) // whole)
    return PartitionSet(tuple(ids), tuple(execution), tuple(memory), tuple(range(0, n + 1, ppc)))


def _largest_remainder(total: int, weights: Sequence[int | Fraction | Ratio]) -> list[int]:
    """Integer shares of ``total`` in proportion to ``weights``.

    Each share is floored, and the units left over go one each to the
    largest fractional parts, lower index breaking ties. All-zero weights
    fall back to even shares. Over a common denominator the weights are
    integers n_i; share i is total * n_i / sum(n), so its floor and its
    fractional part (the remainder over sum(n)) are one divmod each.
    """
    common = math.lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (common // w.denominator) for w in weights]
    total_w = sum(scaled)
    if total_w == 0:
        scaled = [1] * len(weights)
        total_w = len(weights)
    shares = [divmod(total * n, total_w) for n in scaled]
    floors = [floor for floor, _ in shares]
    order = sorted(range(len(shares)), key=lambda i: (-shares[i][1], i))
    for i in order[: total - sum(floors)]:
        floors[i] += 1
    return floors


def split_budget_by_weights(q_total: int, weights: Sequence[int | Fraction | Ratio]) -> BudgetVector:
    """Integerize a weighted split of the total budget.

    Every core gets a floor of 1 transaction (a zero budget would degenerate
    its stall curve); the remainder is shared proportionally by largest
    fractional part, index breaking ties. All-zero weights fall back to an
    even split.
    """
    m = len(weights)
    if q_total < m:
        raise InvariantError(f"cannot split {q_total} transactions over {m} cores with floor 1")
    return BudgetVector(tuple(1 + share for share in _largest_remainder(q_total - m, weights)))


def policy_se(config: ExperimentConfig) -> BudgetVector:
    """Even split: floor(Q/m) each, remainder to the lowest-index cores."""
    base, rem = divmod(config.q_total, config.m)
    return BudgetVector(tuple(base + (1 if i < rem else 0) for i in range(config.m)))


def _demand_sums(m: int, pset: PartitionSet) -> tuple[list[int], list[int]]:
    """Per core, sum mu and sum (mu + E) over the set's partitions."""
    memory = [0] * m
    demand = [0] * m
    bounds = pset.bounds
    for core in range(1, len(bounds)):
        lo, hi = bounds[core - 1], bounds[core]
        mu = memory[core - 1] = sum(pset.memory[lo:hi])
        demand[core - 1] = mu + sum(pset.execution[lo:hi])
    return memory, demand


def _memory_weights(memory: Sequence[int], demand: Sequence[int]) -> list[Ratio]:
    """Per core sum mu / (sum mu + sum E) from :func:`_demand_sums`; 0 / 1 if none."""
    return [Ratio(mu, t) if t else Ratio(0, 1) for mu, t in zip(memory, demand)]


def policy_su(pset: PartitionSet, config: ExperimentConfig) -> BudgetVector:
    """Weighted split from the memory pressure of the whole set at t = 0."""
    return split_budget_by_weights(config.q_total, _memory_weights(*_demand_sums(config.m, pset)))


@dataclass(frozen=True, slots=True)
class DynamicPolicyOutcome:
    """What the DY co-analysis produced.

    ``schedule`` is the as-built memory schedule (final interval unbounded)
    when the set is schedulable, else None. ``completions`` maps partition id
    to its completion period for every partition that finished within H.
    """

    schedule: MemorySchedule | None
    completions: dict[int, int]

    @property
    def schedulable(self) -> bool:
        return self.schedule is not None


def _reclaim_vector(base: BudgetVector, memory: Sequence[int], demand: Sequence[int]) -> BudgetVector:
    """Budget vector after reclaiming from cores with no unfinished work.

    ``memory`` and ``demand`` are the per-core sums of :func:`_demand_sums`
    over the unfinished partitions, so a core has unfinished work exactly
    when its demand is positive (E >= 1). Such cores keep at least their
    base (initial) budget; finished cores fall to the 1-transaction floor.
    The freed budget is shared over the active cores in proportion to
    weights recomputed from the unfinished demands (largest remainder,
    index ties; even shares when every recomputed weight is zero). m and Q
    are base's.
    """
    live = [core for core, t in enumerate(demand, start=1) if t]
    if not live:
        return base
    budgets = [1] * base.m
    for core in live:
        budgets[core - 1] = base.budget_of(core)
    weights = [Ratio(memory[core - 1], demand[core - 1]) for core in live]
    extras = _largest_remainder(base.total - sum(budgets), weights)
    for core, extra in zip(live, extras):
        budgets[core - 1] += extra
    return BudgetVector(tuple(budgets))


def policy_dy(pset: PartitionSet, config: ExperimentConfig) -> DynamicPolicyOutcome:
    """Event-driven co-analysis of the DY policy.

    The initial vector is SU's. At every completion event the vector is
    rebuilt by ``_reclaim_vector``: active cores keep their initial share and
    split the budget reclaimed from finished cores by weights recomputed from
    the unfinished partitions' remaining demands. Between events budgets are
    constant, so advancing event-to-event is exact.

    The state is one queue per core (the ``(id, E, mu)`` of its unfinished
    partitions, read off the set's columns, the running one last), the
    per-core unfinished sums of mu and mu + E that the reclaim reads, each
    running partition's start period, the vector and length of each
    interval between events, and the runs of equal vectors: each run's
    start period and, once it has ended, its interval. A partition is
    hypothesized when it starts, over the current vector alone, and again
    whenever the vector changes, over one interval per run since its start
    (the first clipped to the start) and then the new vector, unbounded.
    The cores to hypothesize are kept on a to-do list. The earliest
    hypothesis is the next event, and it matches the as-built schedule
    through the completion. The returned schedule is built at the end: one
    interval per event, unmerged, then the unbounded tail.

    A hypothesis is a completion period, or ``never`` (one past H) if the
    partition cannot converge within the H - start periods left. With no
    history (the partition started in the current run) the view is one
    vector, solved by ``_static_span``. Otherwise the vector has changed
    while the partition ran, so no span up to the history's length was a
    root of its previous view, which agrees with this one that far: the
    least root lies past the history, as ``_view_span`` requires. Both
    closed forms give the kernel's least root, and a run of equal vectors
    gives the same root as the intervals it covers.
    """
    horizon = config.hyperperiod_periods
    never = horizon + 1
    ids, execution, bounds = pset.ids, pset.execution, pset.bounds
    queues = {
        core: [(ids[i], execution[i], pset.memory[i]) for i in reversed(range(bounds[core - 1], bounds[core]))]
        for core in range(1, len(bounds))
    }
    memory, demand = _demand_sums(config.m, pset)
    base = split_budget_by_weights(config.q_total, _memory_weights(memory, demand))
    vector = base
    # Runs of equal vectors: start periods, and the interval of each ended run.
    run_starts = [0]
    runs: list[BudgetInterval] = []
    # Start period of each running partition, by core.
    starts = {core: 0 for core, queue in queues.items() if queue}
    todo = list(starts)
    # Completion period hypothesized for each running partition.
    events: dict[int, int] = {}
    # (vector, length) of each interval between events.
    built: list[tuple[BudgetVector, int]] = []
    completions: dict[int, int] = {}
    now = 0

    while starts:
        for core in todo:
            # Generation guarantees E >= 1 and mu >= 0 and every vector here
            # is over the config's Q, so the closed forms run without the
            # public checks.
            (_, e, mu), start = queues[core][-1], starts[core]
            if start >= run_starts[-1]:
                span = _static_span(vector, core, e, mu, horizon - start)
            else:
                first = bisect_right(run_starts, start) - 1
                history = runs[first:]
                if start > run_starts[first]:
                    run = history[0]
                    history[0] = BudgetInterval(run.budgets, run_starts[first + 1] - start)
                span = _view_span(history, vector, core, e, mu, horizon - start)
            events[core] = never if span is None else start + span
        t_next = min(events.values())
        if t_next == never:
            # Every running partition misses under the current vector and no
            # completion will ever change it.
            return DynamicPolicyOutcome(schedule=None, completions=completions)
        if not now < t_next <= horizon:
            raise InvariantError("events must advance within the hyperperiod")
        built.append((vector, t_next - now))
        todo = []
        for core in [c for c, t in events.items() if t == t_next]:
            del events[core], starts[core]
            queue = queues[core]
            pid, e, mu = queue.pop()
            completions[pid] = t_next
            memory[core - 1] -= mu
            demand[core - 1] -= mu + e
            if queue:
                if t_next >= horizon:
                    # Successor would start at (or past) the deadline.
                    return DynamicPolicyOutcome(schedule=None, completions=completions)
                starts[core] = t_next
                todo.append(core)
        # While every core runs, the reclaim gives base. Once none runs, it
        # gives base again, for the unbounded tail.
        if len(starts) < config.m:
            next_vec = _reclaim_vector(base, memory, demand)
            if next_vec != vector:
                runs.append(BudgetInterval(vector, t_next - run_starts[-1]))
                run_starts.append(t_next)
                vector = next_vec
                todo = list(starts)
        now = t_next

    intervals = [BudgetInterval(budgets=vec, length=length) for vec, length in built]
    schedule = MemorySchedule(intervals=(*intervals, BudgetInterval(budgets=vector, length=None)))
    return DynamicPolicyOutcome(schedule=schedule, completions=completions)


def evaluate_schedulability(pset: PartitionSet, policy: str, config: ExperimentConfig) -> bool:
    """True iff every core's last partition completes by H under ``policy``."""
    if policy == "DY":
        return policy_dy(pset, config).schedulable
    if policy == "SE":
        vector = policy_se(config)
    elif policy == "SU":
        vector = policy_su(pset, config)
    else:
        raise InvariantError(f"unknown policy {policy!r}; expected one of {POLICIES}")

    # As in policy_dy, the closed form runs without the public checks.
    horizon = config.hyperperiod_periods
    execution, memory, bounds = pset.execution, pset.memory, pset.bounds
    for core in range(1, len(bounds)):
        start = 0
        for i in range(bounds[core - 1], bounds[core]):
            if start >= horizon:
                return False
            span = _static_span(vector, core, execution[i], memory[i], horizon - start)
            if span is None:
                return False
            start += span
    return True


@dataclass(frozen=True)
class SweepPoint:
    m: int
    mir: Fraction
    sets: int


@dataclass(frozen=True)
class SweepConfig:
    points: tuple[SweepPoint, ...]
    u_values: tuple[Fraction, ...]
    seed: int


@dataclass(frozen=True)
class ExperimentRow:
    policy: str
    m: int
    mir: Fraction
    u: Fraction
    schedulable: int
    total: int

    @property
    def ratio(self) -> float:
        return self.schedulable / self.total


def _derive_seed(master: int, m: int, mir: Fraction, u: Fraction, index: int) -> int:
    key = f"{master}:{m}:{mir}:{u}:{index}".encode()
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


def _run_cell(args: tuple) -> dict[str, int]:
    m, mir, sets, u, seed = args
    config = ExperimentConfig(m=m, mir=mir, u=u)
    counts = {p: 0 for p in POLICIES}
    for index in range(sets):
        rng = random.Random(_derive_seed(seed, m, mir, u, index))
        pset = generate_partition_set(config, rng)
        for p in POLICIES:
            if evaluate_schedulability(pset, p, config):
                counts[p] += 1
    return counts


def _worker_count() -> int:
    env = os.environ.get("MEMBW_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvariantError(f"MEMBW_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def run_sweep(sweep: SweepConfig) -> list[ExperimentRow]:
    """Evaluate every (point, U) cell; deterministic given the seed.

    Cells are independent: per-set generators are seeded from
    (seed, m, MIr, U, set index), so results do not depend on execution
    order or worker count (MEMBW_THREADS caps the process pool).
    """
    cells = [(p.m, p.mir, p.sets, u, sweep.seed) for p in sweep.points for u in sweep.u_values]
    workers = min(_worker_count(), len(cells))
    if workers <= 1:
        cell_counts = [_run_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cell_counts = list(pool.map(_run_cell, cells, chunksize=1))

    return [
        ExperimentRow(policy=policy, m=m, mir=mir, u=u, schedulable=counts[policy], total=sets)
        for (m, mir, sets, u, _), counts in zip(cells, cell_counts)
        for policy in POLICIES
    ]


def rows_to_csv(rows: list[ExperimentRow], seed: int) -> str:
    """CSV with a reproducibility header; floats only appear here."""
    lines = [
        f"# seed={seed}",
        "# rng=blake2b(seed:m:MIr:U:index) -> random.Random per set",
        "policy,m,MIr,U,schedulable,total,ratio,seed",
    ]
    for r in rows:
        lines.append(
            f"{r.policy},{r.m},{float(r.mir)},{float(r.u)},{r.schedulable},{r.total},{r.ratio},{seed}"
        )
    return "\n".join(lines) + "\n"


def preset_sweep(name: str, seed: int) -> SweepConfig:
    """The canned sweeps: 'vary-m', 'vary-mir', and 'smoke'."""
    full_u = tuple(Fraction(10 + k, 100) for k in range(81))
    if name == "vary-m":
        points = (
            SweepPoint(m=4, mir=Fraction(1, 4), sets=1000),
            SweepPoint(m=8, mir=Fraction(1, 4), sets=100),
            SweepPoint(m=12, mir=Fraction(1, 4), sets=100),
        )
        return SweepConfig(points=points, u_values=full_u, seed=seed)
    if name == "vary-mir":
        points = tuple(SweepPoint(m=8, mir=Fraction(15 + 5 * k, 100), sets=100) for k in range(8))
        return SweepConfig(points=points, u_values=full_u, seed=seed)
    if name == "smoke":
        points = (SweepPoint(m=4, mir=Fraction(1, 4), sets=10),)
        return SweepConfig(points=points, u_values=(Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)), seed=seed)
    raise InvariantError(f"unknown preset {name!r}; expected vary-m, vary-mir or smoke")
