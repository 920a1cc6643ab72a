"""Brute-force references the analyzers are tested against.

Nothing here is performance-tuned; these exist as ground truth for small
instances. Deliberate asymmetry: the oracles charge the raw per-period stall
values I(k), while the analyzers work with the concave envelope. The
analyzers' results must dominate (bound) the oracles' exact optima; tests
exercise precisely that relationship.

The reference curve comes from all q + 1 raw points:
:func:`build_raw_points` evaluates I(0..q) for one core, and
:func:`concave_envelope` builds their upper convex hull as a
:class:`membw.stall_curve.StallCurve`. :func:`membw.stall_curve.curve_for_core`
builds the same curve from O(m) vertices, and ``dump-curve`` prints the raw
points next to it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .dynamic_analysis import _check_reached_prefix
from .errors import InvariantError, OracleTooLargeError
from .schedule import MemorySchedule, Workload
from .stall_curve import BudgetVector, Segment, StallCurve


@dataclass(frozen=True)
class RawStallPoints:
    """The raw worst-case stall values I(0..q) for one core, in slots."""

    core: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise InvariantError("raw stall points: need q + 1 >= 2 points")
        if self.values[0] != 0:
            raise InvariantError("raw stall points: I(0) must be 0")
        for k in range(1, len(self.values)):
            if self.values[k] < self.values[k - 1]:
                raise InvariantError(f"raw stall points: values must be non-decreasing, I({k}) < I({k - 1})")

    @property
    def q(self) -> int:
        return len(self.values) - 1


def build_raw_points(budgets: BudgetVector, core: int) -> RawStallPoints:
    """Evaluate the raw stall values I(0..q) for ``core`` under ``budgets``, in O(q log m)."""
    q = budgets.budget_of(core)
    others = sorted(budgets.budgets[: core - 1] + budgets.budgets[core:])
    # For k < q, I(k) - I(k - 1) is the number of other budgets >= k.
    values = list(accumulate((len(others) - bisect_left(others, k) for k in range(1, q)), initial=0))
    values.append(budgets.total - q)
    return RawStallPoints(core=core, values=tuple(values))


def _upper_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Upper convex hull of points with strictly increasing x (monotone chain).

    Collinear interior points are dropped, so consecutive hull slopes are
    strictly decreasing.
    """
    hull: list[tuple[int, int]] = []
    for p in points:
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            # cross((a - o), (p - o)) >= 0 means the middle point a is on or
            # below the chord o->p, so it is not an upper-hull vertex.
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def concave_envelope(raw: RawStallPoints) -> StallCurve:
    """Tightest concave piecewise-linear majorant of the raw stall points."""
    vertices = _upper_hull(list(enumerate(raw.values)))
    segments = tuple(
        Segment(start=x0, value=y0, rise=y1 - y0, width=x1 - x0)
        for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])
    )
    return StallCurve(core=raw.core, q=raw.q, segments=segments)


ENUMERATION_GUARD = 10**7


def oracle_max_stall(memory: int, span: int, raw: RawStallPoints) -> int:
    """Exact worst cumulative stall of ``memory`` transactions over ``span``
    periods: max of sum I(k_t) over all per-period counts k_t summing to
    ``memory`` with each k_t <= q. Dynamic program over (periods, memory)."""
    if span < 0 or memory < 0:
        raise InvariantError("oracle_max_stall: span and memory must be >= 0")
    if memory > span * raw.q:
        raise InvariantError(f"oracle_max_stall: {memory} transactions cannot fit in {span} period(s) of budget {raw.q}")
    values = raw.values
    q = raw.q
    prev = [-1] * (memory + 1)
    prev[0] = 0
    for _ in range(span):
        cur = [-1] * (memory + 1)
        for used in range(memory + 1):
            best = -1
            for k in range(min(q, used) + 1):
                below = prev[used - k]
                if below >= 0 and below + values[k] > best:
                    best = below + values[k]
            cur[used] = best
        prev = cur
    if prev[memory] < 0:
        raise InvariantError("oracle_max_stall: no per-period split places all memory")
    return prev[memory]


def _check_assignment_space(caps: list[int]) -> None:
    """Refuse an enumeration over more than ENUMERATION_GUARD assignments.

    ``caps`` are the per-interval capacities W^j * q^j; callers can check
    them before building any raw stall points, which take O(q) each.
    """
    space = 1
    for cap in caps:
        space *= cap + 1
        if space > ENUMERATION_GUARD:
            raise OracleTooLargeError(f"oracle_distribute: assignment space exceeds {ENUMERATION_GUARD}")


def oracle_distribute(
    splits: tuple[int, ...], memory: int, raws: tuple[RawStallPoints, ...]
) -> tuple[Fraction, tuple[int, ...]]:
    """Exhaustive optimum of the per-interval distribution objective.

    Maximizes sum_j envelope_j(mu^j / W^j) * W^j over integer assignments
    with mu^j <= W^j * q^j and sum mu^j <= memory. ``raws`` covers the
    reached prefix, as the greedy's ``curves`` do. Returns (objective,
    assignment); the first maximizer in lexicographic enumeration order wins,
    matching the greedy's lowest-index tie-breaking.
    """
    n = len(splits)
    _check_reached_prefix("oracle_distribute", "raw point set", splits, raws)
    caps = [w * raw.q for w, raw in zip(splits, raws)]
    _check_assignment_space(caps)
    curves = [concave_envelope(raw) for raw in raws]
    tables = [[c.stall_over(w, x) for x in range(min(cap, memory) + 1)] for w, c, cap in zip(splits, curves, caps)]

    best_value = Fraction(-1)
    best_assign: tuple[int, ...] = ()
    assign = [0] * n  # past the prefix W^j = 0, so mu^j stays 0

    def rec(j: int, left: int, value: Fraction) -> None:
        nonlocal best_value, best_assign
        if j == len(tables):
            if value > best_value:
                best_value = value
                best_assign = tuple(assign)
            return
        table = tables[j]
        for x in range(min(len(table) - 1, left) + 1):
            assign[j] = x
            rec(j + 1, left - x, value + table[x])
        assign[j] = 0

    rec(0, memory, Fraction(0))
    return best_value, best_assign


def worst_case_span_by_simulation(
    workload: Workload, schedule: MemorySchedule, core: int, horizon: int
) -> int:
    """Largest completion period over every feasible per-period access pattern.

    A pattern fixes how many transactions the workload issues in each period;
    each period then charges the raw worst-case stall for that count, and the
    remaining slots execute. Patterns that would leave idle slots while
    memory demand and budget remain are impossible (the workload is
    work-conserving) and are skipped. Returns horizon + 1 when some pattern
    fails to complete within ``horizon`` periods.
    """
    if horizon < 1:
        raise InvariantError("simulation horizon must be >= 1")
    per_period: list[tuple[int, tuple[int, ...]]] = []
    for interval in schedule.intervals:
        count = interval.length if interval.length is not None else horizon - len(per_period)
        raw = build_raw_points(interval.budgets, core)
        per_period.extend([(raw.q, raw.values)] * max(0, count))
        if len(per_period) >= horizon:
            break
    per_period = per_period[:horizon]
    q_total = schedule.q_total

    worst = 0

    def rec(t: int, execution: int, memory: int) -> None:
        nonlocal worst
        if execution == 0 and memory == 0:
            if t > worst:
                worst = t
            return
        if t == len(per_period):
            worst = max(worst, horizon + 1)
            return
        q, stall_values = per_period[t]
        for issued in range(min(q, memory) + 1):
            slots = q_total - issued - stall_values[issued]
            if slots < 0:
                raise InvariantError("simulation: stall and issued transactions exceed the period")
            executed = min(execution, slots)
            if slots > executed and memory > issued:
                continue
            rec(t + 1, execution - executed, memory - issued)

    rec(0, workload.execution, workload.memory)
    return worst
