"""Workloads, regulation parameters, and memory schedules.

A workload abstracts one deadline-constrained activity on a core: E slots of
pure execution plus mu memory transactions, to finish within D. Time is
discretized into regulation periods of P seconds, each serving at most Q
transactions of worst-case latency L_max (so one transaction occupies one
"slot" and Q slots fit in a period). A memory schedule is the time-ordered
sequence of budget vectors in force, each for a fixed number of periods; a
static assignment is simply a schedule with one unbounded interval.

Scenario files (JSON) bundle a regulation config, a schedule, and workloads;
:func:`load_scenario` parses them with exact rational numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError, ScenarioError, ScheduleExhaustedError
from .stall_curve import BudgetVector


@dataclass(frozen=True, slots=True)
class RegulationConfig:
    """Memory regulation parameters.

    A period lasts ``period`` seconds (P) and serves Q = floor(P / L_max)
    transactions. ``q_total`` overrides that Q for setups whose published
    L_max and Q disagree; it sets only Q and the slot, whose length becomes
    P / q_total. The period stays P either way, so deadlines are converted
    with P.
    """

    period: Fraction
    l_max: Fraction
    q_total: int | None = None

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise InvariantError("regulation config: period must be > 0")
        if self.l_max <= 0:
            raise InvariantError("regulation config: l_max must be > 0")
        if self.q_total is not None and self.q_total < 1:
            raise InvariantError("regulation config: q_total override must be >= 1")
        if self.q_total is None and self.period < self.l_max:
            raise InvariantError("regulation config: period must cover at least one transaction")

    @property
    def transactions_per_period(self) -> int:
        """Total transactions servable per period (the scalar Q)."""
        return self.q_total if self.q_total is not None else self.period // self.l_max


@dataclass(frozen=True, slots=True)
class Workload:
    """One deadline-constrained demand: E execution slots, mu transactions.

    ``deadline`` is relative to the workload's release (a period boundary) in
    seconds; None means the analysis runs to convergence without a deadline
    check. The analyzers' beta = E + mu is the span lower bound in slots:
    even with zero stall the workload occupies that many.
    """

    execution: int
    memory: int
    deadline: Fraction | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.execution, int) or self.execution < 1:
            raise InvariantError("workload: execution demand E must be an integer >= 1")
        if not isinstance(self.memory, int) or self.memory < 0:
            raise InvariantError("workload: memory demand mu must be an integer >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise InvariantError("workload: deadline must be > 0 when given")


@dataclass(frozen=True, slots=True)
class BudgetInterval:
    """A budget vector in force for ``length`` periods (None = unbounded)."""

    budgets: BudgetVector
    length: int | None

    def __post_init__(self) -> None:
        if self.length is not None and (not isinstance(self.length, int) or self.length < 1):
            raise InvariantError("budget interval: length must be an integer >= 1 or unbounded")


@dataclass(frozen=True, slots=True)
class MemorySchedule:
    """Ordered budget intervals, all over the same cores and total budget."""

    intervals: tuple[BudgetInterval, ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise InvariantError("memory schedule: at least one interval required")
        first = self.intervals[0].budgets
        for iv in self.intervals[1:]:
            if iv.budgets.m != first.m:
                raise InvariantError("memory schedule: all intervals must cover the same cores")
            if iv.budgets.total != first.total:
                raise InvariantError("memory schedule: all budget vectors must sum to the same total")
        for iv in self.intervals[:-1]:
            if iv.length is None:
                raise InvariantError("memory schedule: only the final interval may be unbounded")

    @classmethod
    def static(cls, budgets: BudgetVector) -> "MemorySchedule":
        """A static assignment: one unbounded interval."""
        return cls(intervals=(BudgetInterval(budgets=budgets, length=None),))

    @property
    def m(self) -> int:
        return self.intervals[0].budgets.m

    @property
    def q_total(self) -> int:
        return self.intervals[0].budgets.total


def split_span(schedule: MemorySchedule, span: int) -> tuple[int, ...]:
    """Prefix-greedy split of a span over the schedule's intervals.

    Interval j receives W^j = max(0, min(L^j, span - periods already placed)).
    Raises :class:`ScheduleExhaustedError` when a fully bounded schedule is
    shorter than ``span``.
    """
    if span < 0:
        raise InvariantError("split_span: span must be >= 0")
    parts = []
    remaining = span
    for iv in schedule.intervals:
        part = remaining if iv.length is None else min(iv.length, remaining)
        parts.append(part)
        remaining -= part
    if remaining > 0:
        raise ScheduleExhaustedError(shortfall=remaining)
    return tuple(parts)


def deadline_periods(workload: Workload, config: RegulationConfig) -> int:
    """Greatest span (in periods) whose duration still meets the deadline.

    A period lasts P, whether or not ``q_total`` overrides Q, so that is
    floor(D / P): W periods meet the deadline exactly when W * P <= D.
    """
    if workload.deadline is None:
        raise InvariantError("deadline_periods: workload has no deadline")
    return workload.deadline // config.period


@dataclass(frozen=True, slots=True)
class Scenario:
    """A parsed scenario file; ``workloads`` maps core to workload in file order."""

    config: RegulationConfig
    schedule: MemorySchedule
    workloads: dict[int, Workload]

    def workload_for_core(self, core: int) -> Workload:
        try:
            return self.workloads[core]
        except KeyError:
            raise ScenarioError(f"scenario: no workload for core {core}") from None


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ScenarioError(f"scenario: {what} must be a number, got {value!r}")
    return Fraction(value)


def _as_int(value, what: str, *where) -> int:
    """``value`` if it is an int, not a bool. ``what`` names the field, with
    ``where`` formatted into it only for a value that fails."""
    if type(value) is not int:
        raise ScenarioError(f"scenario: {what.format(*where)} must be an integer, got {value!r}")
    return value


MAX_DECIMAL_EXPONENT = 4300
"""Largest exponent magnitude accepted in a decimal literal such as ``1e-9``.

Literals are read exactly, so ``1e1000000`` would build a million-digit power
of ten; the bound matches the interpreter's default limit on integer digits.
"""


def _parse_decimal(literal: str) -> Fraction:
    _, _, exponent = literal.lower().partition("e")
    if exponent and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent {exponent} exceeds {MAX_DECIMAL_EXPONENT} in magnitude")
    return Fraction(literal)


def parse_scenario(text: str) -> Scenario:
    """Parse a JSON scenario, reading all numeric literals exactly.

    Expected shape::

        {
          "config":    {"P": seconds, "L_max": seconds, "Q": optional int,
                        "L_min": optional seconds, "L_size": optional int},
          "schedule":  [{"budgets": [q_1..q_m], "length": periods | "unbounded"}, ...],
          "workloads": [{"core": i, "E": slots, "mu": transactions,
                         "D": optional seconds}, ...]
        }
    """
    try:
        doc = json.loads(text, parse_float=_parse_decimal)
    except RecursionError:
        raise ScenarioError("scenario: malformed JSON: nested too deeply") from None
    except ValueError as exc:
        # JSONDecodeError, an integer literal past the interpreter's digit
        # limit, or a decimal exponent past MAX_DECIMAL_EXPONENT.
        raise ScenarioError(f"scenario: malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: top level must be an object")
    for key in ("config", "schedule", "workloads"):
        if key not in doc:
            raise ScenarioError(f"scenario: missing required key {key!r}")

    cfg = doc["config"]
    if not isinstance(cfg, dict) or "P" not in cfg or "L_max" not in cfg:
        raise ScenarioError("scenario: config must be an object with P and L_max")
    # L_min and L_size are type-checked but unused: the analysis always
    # charges the worst-case latency L_max.
    if "L_min" in cfg:
        _as_fraction(cfg["L_min"], "config.L_min")
    if "L_size" in cfg:
        _as_int(cfg["L_size"], "config.L_size")
    try:
        config = RegulationConfig(
            period=_as_fraction(cfg["P"], "config.P"),
            l_max=_as_fraction(cfg["L_max"], "config.L_max"),
            q_total=_as_int(cfg["Q"], "config.Q") if "Q" in cfg else None,
        )

        if not isinstance(doc["schedule"], list) or not doc["schedule"]:
            raise ScenarioError("scenario: schedule must be a non-empty array")
        intervals = []
        for pos, entry in enumerate(doc["schedule"]):
            if not isinstance(entry, dict) or "budgets" not in entry or "length" not in entry:
                raise ScenarioError(f"scenario: schedule[{pos}] must have budgets and length")
            raw_budgets = entry["budgets"]
            if not isinstance(raw_budgets, list):
                raise ScenarioError(f"scenario: schedule[{pos}].budgets must be an array")
            # The int test is inline, not an _as_int call per budget:
            # budgets are most of a file's integers.
            for i, b in enumerate(raw_budgets):
                if type(b) is not int:
                    _as_int(b, "schedule[{}].budgets[{}]", pos, i)
            budgets = BudgetVector(tuple(raw_budgets))
            length = entry["length"]
            if length == "unbounded":
                length = None
            else:
                _as_int(length, "schedule[{}].length", pos)
            intervals.append(BudgetInterval(budgets=budgets, length=length))
        schedule = MemorySchedule(intervals=tuple(intervals))

        if not isinstance(doc["workloads"], list) or not doc["workloads"]:
            raise ScenarioError("scenario: workloads must be a non-empty array")
        workloads: dict[int, Workload] = {}
        for pos, entry in enumerate(doc["workloads"]):
            if not isinstance(entry, dict) or not {"core", "E", "mu"} <= set(entry):
                raise ScenarioError(f"scenario: workloads[{pos}] must have core, E and mu")
            core = _as_int(entry["core"], "workloads[{}].core", pos)
            if not 1 <= core <= schedule.m:
                raise ScenarioError(f"scenario: workloads[{pos}].core {core} outside [1..{schedule.m}]")
            if core in workloads:
                raise ScenarioError(f"scenario: workloads[{pos}]: duplicate core {core}")
            workloads[core] = Workload(
                execution=_as_int(entry["E"], "workloads[{}].E", pos),
                memory=_as_int(entry["mu"], "workloads[{}].mu", pos),
                deadline=_as_fraction(entry["D"], f"workloads[{pos}].D") if "D" in entry else None,
            )
    except InvariantError as exc:
        # Re-badge so the CLI reports a scenario problem, keeping the
        # invariant-naming message.
        raise ScenarioError(f"scenario: {exc}") from None

    if config.q_total is not None and config.q_total != schedule.q_total:
        raise ScenarioError(
            f"scenario: config.Q = {config.q_total} but schedule budgets sum to {schedule.q_total}"
        )
    return Scenario(config=config, schedule=schedule, workloads=workloads)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"scenario: not valid UTF-8: {exc}") from None
    return parse_scenario(text)
