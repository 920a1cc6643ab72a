"""Worst-case span across a memory schedule with per-interval budget vectors.

A span of W periods is first split over the schedule's intervals
(prefix-greedy, :func:`membw.schedule.split_span`); the worst case then needs
the memory demand mu distributed over the intervals so that the summed stall

    S = sum_j I^j(mu^j / W^j) * W^j

is maximized subject to mu^j <= W^j * q^j and sum mu^j <= mu. Because every
per-interval curve is concave, a marginal-slope greedy is exact: always feed
the interval whose curve is steepest at its current rate, jumping rates from
segment start point to segment start point. The greedy,
:func:`distribute_memory`, sorts the reached intervals' segments by slope
once, so a span reaching S segments in all costs O(S log S). It sums S as it
places the memory and returns it with the assignment.

This module also holds the one fixed-point loop, W = ceil((beta + S(W)) / Q),
:func:`_dynamic_span`, and the record it writes, :class:`AnalysisResult`.
The loop runs neither the split nor the greedy: it keeps the greedy's
answer in running sums across iterates (see its docstring), reading each
reached interval's pieces once, as :func:`membw.stall_curve._core_pieces`
gives them. An interval the spans never reach costs nothing. The record
keeps the pieces the loop filled at the fixed point, and its breakdown sums
them per interval when first read; an unreached interval's row reads W = 0,
mu = 0, S = 0. So no analysis and no breakdown read runs
:func:`membw.schedule.split_span`, :func:`membw.stall_curve.curve_for_core`,
:func:`distribute_memory` or :func:`stall_breakdown`: they are the paper's
greedy, kept public as the reference the tests check the loop against.

Both public analyzers run this kernel:
:func:`membw.static_analysis.analyze_static` on a schedule of one unbounded
interval. The loop takes integers and checks the core; the public analyzers
check Q against the config and turn the deadline into periods first. The IMA
policies run no loop: every view they analyze ends in an unbounded vector,
and its least root has a closed form in :mod:`membw.static_analysis`.

Answers are exact. Inside the loop a stall is an integer numerator over an
integer denominator: the width of the one piece the greedy fills in part,
or 1. The next iterate is an integer ceiling division. The result records
the iterates as integers; a :class:`Fraction` is built only when the
result's trace (one per iterate) or breakdown (one per interval) is read.

While mu covers the span's capacity caps(W) = sum W^j * q^j, the greedy
would fill every reached segment, so S(W) = Q * W - caps(W) over 1. The loop
reads caps(W) off the schedule's cumulative ends and capacities with one
bisection, and reads no pieces there. Such a climb is
slow, often one period per iterate, and S is affine in W until the interval
holding W ends or its capacity catches up with mu: a stride. Along a stride
the step to the next iterate never grows, so the loop crosses each run of
equal steps in one jump and records it as one entry. A climb of n iterates
thus costs O(runs) bisections, not O(n), and O(runs) record entries.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate
from operator import mul

from .errors import InvariantError
from .schedule import MemorySchedule, RegulationConfig, Workload, deadline_periods
from .stall_curve import StallCurve, _core_pieces


@dataclass(frozen=True, slots=True)
class MemoryAssignment:
    """Per-interval transaction counts chosen by the distributor, and their stall.

    ``stall`` is the summed stall S as an integer ratio (numerator, den): den
    is the width of the one curve segment the greedy filled in part, or 1
    when it filled whole segments only. ``saturated`` marks the degenerate
    outcome where every interval hit its capacity W^j * q^j before all of mu
    was placed. The analyzers build none: the greedy is the reference their
    results are tested against.
    """

    per_interval: tuple[int, ...]
    saturated: bool
    stall: tuple[int, int]


def _check_reached_prefix(caller: str, what: str, splits: tuple[int, ...], per_interval: tuple) -> None:
    """Raise :class:`InvariantError` unless ``per_interval`` covers the
    reached prefix of ``splits``: at most one entry per split, and one for
    every nonzero split. ``what`` names one entry (a curve, a raw point set)
    for the message."""
    k, n = len(per_interval), len(splits)
    if k > n or any(splits[k:]):
        raise InvariantError(
            f"{caller}: {k} {what}{' does' if k == 1 else 's do'} not cover "
            f"the reached prefix of {n} split{'' if n == 1 else 's'}"
        )


def distribute_memory(splits: tuple[int, ...], memory: int, curves: tuple[StallCurve, ...]) -> MemoryAssignment:
    """Stall-maximizing integral split of ``memory`` over the intervals.

    Greedy on marginal stall slopes: always fill the whole piece (width * W^j
    transactions) of the steepest segment at the head of some reached
    interval, ties going to the lowest interval index, so results are
    reproducible. The stall is summed on the way: rise * W^j per whole piece,
    plus rise * left / width for the piece the memory runs out in.

    Each interval's slopes strictly decrease, so filling the reached
    intervals' segments sorted by (-slope, j), with the slope an exact
    :class:`Fraction`, fills them in the order a scan for the steepest head
    would: O(S log S) for S segments in the reached intervals. No analysis
    and no breakdown read runs it: :func:`_dynamic_span` keeps the same
    assignment in its own filled pieces, and the tests check the two agree.

    ``curves`` covers the reached prefix: it may stop after the last nonzero
    split. A nonzero split without a curve, or more curves than splits,
    raises :class:`InvariantError`.
    """
    n = len(splits)
    if len(curves) != n:
        _check_reached_prefix("distribute_memory", "curve", splits, curves)
    if memory < 0:
        raise InvariantError("distribute_memory: memory must be >= 0")
    for w in splits:
        if w < 0:
            raise InvariantError("distribute_memory: splits must be >= 0")

    assign = [0] * n
    left, num = memory, 0
    # An interval the span does not reach has no piece to fill.
    reached = [
        (-Fraction(rise, width), j, rise, width) for j, w in enumerate(splits) if w for _, _, rise, width in curves[j].segments
    ]
    for _, j, rise, width in sorted(reached):
        if not left:
            break
        w = splits[j]
        piece = width * w
        if left < piece:
            assign[j] += left
            return MemoryAssignment(tuple(assign), False, (num * width + rise * left, width))
        assign[j] += piece
        num += rise * w
        left -= piece
    return MemoryAssignment(tuple(assign), left > 0, (num, 1))


def stall_breakdown(
    splits: tuple[int, ...], assignment: MemoryAssignment, curves: tuple[StallCurve, ...]
) -> tuple[Fraction, ...]:
    """The stalls S^j = I^j(mu^j / W^j) * W^j, one per interval, exactly.

    ``curves`` covers the reached prefix, checked as for
    :func:`distribute_memory`: only intervals with W^j > 0 read their curve,
    the rest have S^j = 0.
    """
    _check_reached_prefix("stall_breakdown", "curve", splits, curves)
    return tuple(
        curves[j].stall_over(splits[j], assignment.per_interval[j]) if splits[j] > 0 else Fraction(0)
        for j in range(len(splits))
    )


def analyze_dynamic(
    workload: Workload, schedule: MemorySchedule, core: int, config: RegulationConfig
) -> AnalysisResult:
    """Fixed-point span analysis of one workload across a memory schedule.

    Converges to an upper bound on the span, or reports a deadline miss (an
    iterate no longer fits the deadline) or schedule exhaustion (an iterate
    outgrew a fully bounded schedule; the result carries the shortfall).
    """
    limit = _limit(workload, schedule, config)
    return _dynamic_span(schedule, core, workload.execution, workload.memory, limit)


def _limit(workload: Workload, schedule: MemorySchedule, config: RegulationConfig) -> int | None:
    """The workload's deadline in periods, or None without one, once the
    budgets' total Q is checked against the config. The loop checks the core
    before its first iterate, as it reads the core's budget per interval."""
    if schedule.q_total != config.transactions_per_period:
        raise InvariantError(
            f"budgets sum to {schedule.q_total} but config provides "
            f"{config.transactions_per_period} transactions per period"
        )
    return deadline_periods(workload, config) if workload.deadline is not None else None


class AnalysisStatus(enum.Enum):
    CONVERGED = "converged"
    DEADLINE_MISS = "deadline-miss"
    SCHEDULE_EXHAUSTED = "schedule-exhausted"


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One fixed-point iterate: span candidate W_(k) and the cumulative stall
    S_(k) computed from the previous iterate (0 for the seed entry k = 0)."""

    k: int
    span: int
    stall: Fraction


@dataclass(frozen=True, slots=True)
class IntervalBreakdown:
    """Converged per-interval detail: periods W^j, memory mu^j, stall S^j."""

    interval: int
    span: int
    memory: int
    stall: Fraction


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of a span analysis: the record :func:`_dynamic_span` wrote.

    ``span`` is the converged worst-case span in periods (CONVERGED), or the
    first deadline-violating iterate (DEADLINE_MISS). ``length_slots`` =
    span * Q, only on convergence. ``shortfall`` is set only for
    SCHEDULE_EXHAUSTED. ``raw`` holds the iterates produced, in order: one
    iterate as the integers (span, stall numerator, stall denominator), a
    run of iterates as (span, stall numerator, stall denominator, span step,
    numerator step, count), whose iterate i, 0 <= i < count, has the span
    span + i * span step and the stall (numerator + i * numerator step) /
    denominator. ``detail`` is what the breakdown needs, on convergence, or
    None: ``(n, lengths, j, part, filled, short)``, that is the schedule's
    interval count and bounded lengths, the index j of the interval holding
    the span's last ``part`` periods, the loop's filled pieces as a heap
    (see :func:`_dynamic_span`) and how many transactions the top one, the
    last filled, holds less than its capacity.

    :meth:`iterates` expands ``raw`` lazily. ``trace`` and ``breakdown`` are
    built from ``raw`` and ``detail`` when first read and cached, so callers
    that read only ``status`` and ``span`` pay for neither. The breakdown
    sums each interval's filled pieces (rise r, width w) over its periods
    W^j (L^j before j, ``part`` in j, 0 after it): mu^j is the sum of
    W^j * w and S^j the sum of W^j * r, less ``short`` and r * short / w in
    the top piece's interval. There is no split, no :class:`StallCurve` and
    no greedy. Equality, hashing, ``repr`` and pickling come from the
    fields, that is from the record, not from the built trace.
    """

    status: AnalysisStatus
    span: int | None
    length_slots: int | None
    raw: tuple[tuple[int, ...], ...] = field(repr=False)
    detail: tuple | None = field(default=None, repr=False)
    shortfall: int | None = None

    def iterates(self) -> Iterator[tuple[int, int, int]]:
        """Every iterate in order, as (span, stall numerator, stall denominator)."""
        for span, num, den, *run in self.raw:
            span_step, num_step, count = run or (0, 0, 1)
            for i in range(count):
                yield span + i * span_step, num + i * num_step, den

    @cached_property
    def trace(self) -> tuple[TraceEntry, ...]:
        return tuple(TraceEntry(k=k, span=s, stall=Fraction(n, d)) for k, (s, n, d) in enumerate(self.iterates()))

    @cached_property
    def breakdown(self) -> tuple[IntervalBreakdown, ...] | None:
        if self.detail is None:
            return None
        n, lengths, j, part, filled, short = self.detail
        splits = (*lengths[:j], part, *[0] * (n - j - 1))
        memory, stall = [0] * n, [0] * n
        for _, back, rise, width in filled:
            memory[-back] += splits[-back] * width
            stall[-back] += splits[-back] * rise
        if short:
            # The greedy stops ``short`` transactions before the end of the
            # last piece it fills, the heap's top.
            _, back, rise, width = filled[0]
            memory[-back] -= short
            stall[-back] -= Fraction(rise * short, width)
        return tuple(IntervalBreakdown(i, *row) for i, row in enumerate(zip(splits, memory, map(Fraction, stall)), 1))

    @property
    def converged(self) -> bool:
        return self.status is AnalysisStatus.CONVERGED

    @property
    def total_stall(self) -> Fraction | None:
        """Cumulative stall at the fixed point."""
        if not self.converged:
            return None
        # The fixed point's entry is a single iterate.
        _, num, den = self.raw[-1]
        return Fraction(num, den)

    def to_json_dict(self) -> dict:
        doc: dict = {"status": self.status.value}
        if self.span is not None:
            doc["span_periods"] = self.span
        if self.length_slots is not None:
            doc["length_slots"] = self.length_slots
        if self.converged:
            doc["total_stall"] = str(self.total_stall)
        if self.shortfall is not None:
            doc["shortfall_periods"] = self.shortfall
        doc["iterations"] = sum(entry[5] if len(entry) > 3 else 1 for entry in self.raw) - 1
        return doc


def _dynamic_span(
    schedule: MemorySchedule, core: int, execution: int, memory: int, limit: int | None
) -> AnalysisResult:
    """:func:`analyze_dynamic` on inputs already known valid: E >= 1,
    mu >= 0, and the deadline as ``limit`` periods (None for none).

    The least fixed point of W = ceil((beta + S(W)) / Q), beta = E + mu and
    Q the budgets' total, with S(W) the split + greedy stall over a span of
    W periods: what :func:`distribute_memory` returns over the curves of the
    reached prefix of :func:`membw.schedule.split_span`, a numerator over a
    positive denominator, both integers. Where mu covers the span's
    capacity, S(W) comes from the schedule alone; elsewhere, from running
    sums that give the greedy's own numerator and denominator with no split
    and no greedy call (both below).

    The loop returns the least root: the least W >= W_(0) = ceil(beta / Q)
    with beta + S(W) <= Q * W. S(W) is the most stall mu transactions can
    cause over W periods, each interval j stalling
    g^j(W^j, mu^j) = W^j * I^j(mu^j / W^j) with mu^j <= W^j * q^j. As I^j is
    concave with I^j(0) = 0, g^j is concave and non-decreasing in W^j, and
    one more period raises it by at most a tangent's intercept, at most
    I^j(q^j) = Q - q^j. Let period W + 1 fall in interval j. An assignment
    optimal at W stays feasible at W + 1, and one optimal at W + 1, cut to
    the capacity W^j * q^j in j, is feasible at W and gives up at most
    Q - q^j. So 0 <= S(W + 1) - S(W) <= Q - q^j. Hence the map
    f(W) = ceil((beta + S(W)) / Q) is monotone, and Q * W - beta - S(W)
    grows by at least q^j >= 1 per period, so the roots are every W from
    the least one, R, on. An iterate below R is no root, so f lifts it by at
    least one period, and f(W) <= f(R) <= R keeps it at most R: the
    iterates climb to R and stop there. The deadline check therefore sees
    a miss exactly when R exceeds the deadline, and then no span up to the
    deadline fits. A bounded schedule that ends below R has no root to
    reach: its first iterate past the end is schedule exhaustion, or a
    miss if it passes the deadline too. The tests check these claims
    against a plain scan.

    Each iterate W first finds, by one bisection into the cumulative ends
    of the bounded intervals, the interval j holding period W; past a
    bounded schedule's end it is schedule exhaustion, short by W less the
    schedule's length. The cumulative capacities sum L^j * q^j then give
    the span's capacity caps = sum of W^j * q^j in O(1). If caps <= mu, the
    greedy would fill every reached segment, and every interval stalls
    Q - q^j per period: S(W) = Q * W - caps over den 1, with no split and no
    greedy. Growing the span then only lengthens j, so S rises by
    rate = Q - q^j per period up to last, the first span where j ends or
    the unplaced memory mu - caps no longer covers q^j more. That is a
    stride: S(W') = num + rate * (W' - W) for every W' in [W, last]. Inside
    a stride the step from W' to its next iterate is
    ceil((r - q^j * (W' - W)) / Q), with r = beta + num - Q * W, so it never
    grows with W'. If the step at W is d, it stays d for the next

        k = min(ceil((r - (d - 1) * Q) / (q^j * d)), (last - W) // d + 1)

    iterates W, W + d, ..., W + (k - 1) * d, and the loop jumps W by k * d
    in O(1). Here ``last`` is clamped to the largest span the loop admits:
    the deadline in periods, or the defensive cap beta + 1 without one. The
    loop takes that path only when the stride holds W + d too, so an iterate
    outside a stride, or at its end, costs one plain step. A run is one
    entry of the result's ``raw`` (see :class:`AnalysisResult`), so a climb
    of n iterates costs O(runs) in time and in record size.

    Where caps > mu, the greedy fills the reached intervals' pieces (rise
    r, width w; capacity w * W^i in interval i) in one static order,
    ``(key, i)`` with the exact slope key of
    :func:`membw.stall_curve._core_pieces`, steepest first and ties to the
    lower interval, until mu runs out. As W grows, a full interval's pieces
    keep the capacity w * L^i, the pieces of the interval holding W grow,
    and new intervals' pieces only join, so the piece the greedy stops in,
    the boundary, only moves toward steeper pieces. The loop therefore keeps
    the pieces up to the boundary, the filled ones, in a heap with the last
    one filled on top, and four sums over them: the L^i-weighted capacity
    and rise of the full intervals' pieces, and the width and rise of the
    pieces of interval c, which holds the span's last W^c periods. Their
    capacity is then full + W^c * width, and their stall full rise +
    W^c * rise. When the span first reaches an interval past c, c's sums
    fold into the full ones with weight L^c, and the pieces of every newly
    reached interval join the heap, each interval's read once. Then, at
    each iterate, the top piece leaves while the filled pieces hold mu
    without it, which also drops the joined pieces flatter than the
    boundary. If the filled pieces hold mu exactly, S(W) is their stall over 1;
    otherwise mu runs out in the top piece (r, w) with ``left`` of it
    placed, and S(W) is ((stall - r * W^i) * w + r * left) / w: the
    greedy's own numerator and denominator, with no split and no sort.
    Every piece joins and leaves the heap at most once, so an unsaturated
    climb costs O(1) per iterate and O(log S) per piece, not a split and a
    greedy per iterate. Only the first span with caps > mu reads pieces,
    so a saturated climb reads none.

    At the fixed point the heap holds exactly the pieces the greedy fills,
    and a tied pair's higher interval on top, as the greedy fills the lower
    one first; every piece is full but the top, which is cap - mu short. So
    the record keeps the interval count, the bounded lengths, j, W^j, the
    heap and cap - mu, from which the result sums its breakdown when it is
    read (see :class:`AnalysisResult`), and its trace from ``raw``. With
    mu = 0 the heap is empty.

    A span with caps <= mu is no fixed point: its next iterate is
    W + ceil((E + mu - caps) / Q) >= W + 1, as E >= 1. Where caps exceeds
    mu the reached pieces hold all of mu, so filled pieces that do not hold
    it raise :class:`InvariantError` ("the greedy saturated a span"), as
    does an iterate below its predecessor. The defensive cap bounds the
    span, so it bounds the iterates however many a run covers.
    """
    intervals = schedule.intervals
    n = len(intervals)
    q_total = schedule.q_total
    beta = execution + memory
    # The core's budget per interval (which checks the core), and from 0 the
    # cumulative ends and capacities sum L^j * q^j of the bounded intervals.
    budgets = [iv.budgets.budget_of(core) for iv in intervals]
    lengths = [iv.length for iv in intervals if iv.length is not None]
    ends = list(accumulate(lengths, initial=0))
    capacities = list(accumulate(map(mul, lengths, budgets), initial=0))
    # The pieces the greedy fills, of the first ``reached`` intervals (a
    # prefix, as spans only grow): a heap of (-key, -interval, rise, width),
    # the last piece filled on top, and the sums over them (see the
    # docstring). Interval reached - 1 holds the span's last periods.
    filled: list[tuple[int, int, int, int]] = []
    reached = full_cap = full_rise = cur_width = cur_rise = 0
    span = -(-beta // q_total)
    raw = [(span, 0, 1)]
    # No iterate may pass top: the deadline, or else the defensive cap. A
    # converging span is at most beta + 1 periods (q >= 1 and Q >= m), so the
    # cap cannot fire on valid input; as every iterate but the last grows
    # the span, it also bounds the number of iterates.
    top = limit if limit is not None else beta + 1
    while span <= top:
        # Period W = span falls in interval j: ends[j] < W, and W <= ends[j + 1]
        # if j is bounded.
        j = bisect_left(ends, span) - 1
        if j == n:
            status = AnalysisStatus.SCHEDULE_EXHAUSTED
            return AnalysisResult(status, span, None, tuple(raw), shortfall=span - ends[-1])
        q = budgets[j]
        caps = capacities[j] + (span - ends[j]) * q
        if caps <= memory:
            # Every reached segment is full: a stride up to the end of j or
            # of the unplaced memory (see the docstring).
            num, den = q_total * span - caps, 1
            rate = q_total - q
            last = min(span + (memory - caps) // q, top, ends[j + 1] if j + 1 < len(ends) else top)
        else:
            part = span - ends[j]
            if j >= reached:
                if reached:
                    # The span has left interval reached - 1: its pieces
                    # now hold L periods each.
                    length = lengths[reached - 1]
                    full_cap += length * cur_width
                    full_rise += length * cur_rise
                    cur_width = cur_rise = 0
                # The reached intervals' pieces join the filled ones; the
                # boundary drops those the greedy does not fill.
                for i in range(reached, j + 1):
                    for _, key, rise, width in _core_pieces(intervals[i].budgets, core):
                        heappush(filled, (-key, -i, rise, width))
                        if i == j:
                            cur_width += width
                            cur_rise += rise
                        else:
                            full_cap += lengths[i] * width
                            full_rise += lengths[i] * rise
                reached = j + 1
            # Move the boundary steeper while the filled pieces hold mu
            # without the last one.
            cap = full_cap + part * cur_width
            while filled:
                _, back, rise, width = filled[0]
                periods = part if back == -j else lengths[-back]
                piece = periods * width
                if cap - piece < memory:
                    break
                heappop(filled)
                cap -= piece
                if back == -j:
                    cur_width -= width
                    cur_rise -= rise
                else:
                    full_cap -= piece
                    full_rise -= periods * rise
            if cap < memory:
                raise InvariantError("the greedy saturated a span whose capacity covers the memory")
            num, den = full_rise + part * cur_rise, 1
            if cap > memory:
                # The greedy stops inside the last filled piece.
                num, den = (num - periods * rise) * width + rise * (memory - cap + piece), width
            rate = last = 0
        beta_den, q_den = beta * den, q_total * den
        nxt = -(-(beta_den + num) // q_den)
        if nxt < span:
            raise InvariantError("span iterates must be non-decreasing")
        if nxt == span:
            raw.append((nxt, num, den))
            detail = (n, tuple(lengths), j, part, tuple(filled), cap - memory)
            return AnalysisResult(AnalysisStatus.CONVERGED, span, span * q_total, tuple(raw), detail)
        if nxt <= last:
            # The stride holds the next iterate too: take the whole run of
            # iterates that keep this step (see the docstring).
            step = nxt - span
            count = min(
                -(-(beta_den + num - q_den * (nxt - 1)) // ((q_den - rate) * step)),
                (last - span) // step + 1,
            )
            raw.append((nxt, num, den, step, rate * step, count))
            span += count * step
        else:
            raw.append((nxt, num, den))
            span = nxt
    if limit is not None:
        return AnalysisResult(AnalysisStatus.DEADLINE_MISS, span, None, tuple(raw))
    raise InvariantError("fixed-point iteration exceeded its defensive cap")
