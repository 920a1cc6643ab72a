"""Greedy memory distribution over intervals and the dynamic fixed point."""

import hashlib
import math
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import membw
from membw import (
    AnalysisStatus,
    BudgetInterval,
    BudgetVector,
    MemoryAssignment,
    MemorySchedule,
    RegulationConfig,
    ScheduleExhaustedError,
    Segment,
    StallCurve,
    TraceEntry,
    Workload,
    analyze_dynamic,
    analyze_static,
    build_raw_points,
    curve_for_core,
    deadline_periods,
    distribute_memory,
    oracle_distribute,
    split_span,
    stall_breakdown,
)
from membw import dynamic_analysis
from membw.errors import InvariantError

CFG16 = RegulationConfig(period=Fraction(16), l_max=Fraction(1))
VECTORS = (BudgetVector((2, 2, 5, 7)), BudgetVector((2, 3, 7, 4)), BudgetVector((4, 4, 4, 4)))
THREE_INTERVALS = MemorySchedule(
    intervals=(
        BudgetInterval(budgets=VECTORS[0], length=5),
        BudgetInterval(budgets=VECTORS[1], length=3),
        BudgetInterval(budgets=VECTORS[2], length=None),
    )
)
CURVES3 = tuple(curve_for_core(v, 3) for v in VECTORS)


class TestDistributeMemory:
    def test_worked_split(self):
        assignment = distribute_memory((5, 1, 0), 25, CURVES3)
        assert assignment.per_interval == (22, 3, 0)
        assert not assignment.saturated
        assert sum(assignment.per_interval) == 25

    def test_worked_split_stalls(self):
        assignment = distribute_memory((5, 1, 0), 25, CURVES3)
        breakdown = stall_breakdown((5, 1, 0), assignment, CURVES3)
        assert breakdown == (50, 8, 0)
        assert sum(breakdown) == 58
        assert Fraction(*assignment.stall) == 58

    def test_zero_memory(self):
        assignment = distribute_memory((5, 1, 0), 0, CURVES3)
        assert assignment.per_interval == (0, 0, 0)

    def test_exact_capacity_is_not_saturated(self):
        # Capacity is 5*5 + 1*7 = 32 own transactions across the two open
        # intervals; exactly filling them still places everything.
        assignment = distribute_memory((5, 1, 0), 32, CURVES3)
        assert not assignment.saturated
        assert assignment.per_interval == (25, 7, 0)
        assert sum(assignment.per_interval) == 32
        # Whole segments only, so the stall is an integer over 1.
        assert assignment.stall[1] == 1

    def test_overflow_reports_saturation(self):
        # One transaction more than fits: the distributor fills every cap and
        # flags the leftover instead of raising, and the span iteration reacts
        # by growing the span.
        assignment = distribute_memory((5, 1, 0), 33, CURVES3)
        assert assignment.saturated
        assert assignment.per_interval == (25, 7, 0)
        assert sum(assignment.per_interval) == 32
        # Every interval at capacity stalls (Q - q^j) * W^j: an integer.
        assert assignment.stall == ((16 - 5) * 5 + (16 - 7) * 1, 1)

    def test_single_interval_all_memory(self):
        assignment = distribute_memory((4,), 9, (CURVES3[0],))
        assert assignment.per_interval == (9,)

    def test_ties_go_to_the_lower_interval(self):
        # Two intervals with the same curve (pieces 2 and 3 wide) and span:
        # every piece goes to interval 1 before its twin in interval 2.
        curve = CURVES3[0]
        placed = {mu: distribute_memory((2, 2), mu, (curve, curve)).per_interval for mu in range(21)}
        assert [placed[mu] for mu in (3, 4, 5, 9, 15, 20)] == [(3, 0), (4, 0), (4, 1), (5, 4), (10, 5), (10, 10)]
        assert all(first >= second for first, second in placed.values())

    @pytest.mark.parametrize(
        ("splits", "curves"),
        [
            # A nonzero split without a curve, at the end and past a zero.
            ((5, 1, 0), CURVES3[:1]),
            ((5, 0, 1), CURVES3[:2]),
            ((5,), ()),
            # More curves than splits.
            ((5, 1), CURVES3),
            ((0,), CURVES3[:2]),
        ],
    )
    def test_curves_must_cover_the_reached_prefix(self, splits, curves):
        message = {
            (5, 1, 0): "1 curve does not cover the reached prefix of 3 splits",
            (5, 0, 1): "2 curves do not cover the reached prefix of 3 splits",
            (5,): "0 curves do not cover the reached prefix of 1 split",
            (5, 1): "3 curves do not cover the reached prefix of 2 splits",
            (0,): "2 curves do not cover the reached prefix of 1 split",
        }[splits]
        with pytest.raises(InvariantError, match="reached prefix") as exc:
            distribute_memory(splits, 25, curves)
        assert str(exc.value) == f"distribute_memory: {message}"
        with pytest.raises(InvariantError, match="reached prefix") as exc:
            stall_breakdown(splits, MemoryAssignment((0,) * len(splits), False, (0, 1)), curves)
        assert str(exc.value) == f"stall_breakdown: {message}"


def _scan_distribute(splits, memory, curves):
    """The greedy as a pass-by-pass scan: each pass looks at the head segment
    of every interval and fills the steepest one, lowest index on ties."""
    n = len(splits)
    assign = [0] * n
    pointers = [0 if w else len(c.segments) for w, c in zip(splits, curves)]
    left, num = memory, 0
    while left:
        best, best_seg = -1, None
        for j in range(n):
            segs = curves[j].segments
            if pointers[j] < len(segs):
                seg = segs[pointers[j]]
                if best < 0 or seg.rise * best_seg.width > best_seg.rise * seg.width:
                    best, best_seg = j, seg
        if best < 0:
            return MemoryAssignment(per_interval=tuple(assign), saturated=True, stall=(num, 1))
        piece = best_seg.width * splits[best]
        if left < piece:
            assign[best] += left
            stall = (num * best_seg.width + best_seg.rise * left, best_seg.width)
            return MemoryAssignment(per_interval=tuple(assign), saturated=False, stall=stall)
        assign[best] += piece
        num += best_seg.rise * splits[best]
        pointers[best] += 1
        left -= piece
    return MemoryAssignment(per_interval=tuple(assign), saturated=False, stall=(num, 1))


Q_BENCH = 41666


@st.composite
def hand_built_curves(draw, near=None):
    """A concave curve over [0, q], q <= 41666, from its segment table.

    Rises may be zero or negative. With a step of 0 the next slope is the
    largest one below the last. With ``near`` (a segment) the first slope is
    the largest one at or below ``near``'s for this width, or the next one
    up. So slopes come as close as integer widths allow, within one curve
    and across curves, where the greedy's order rests on them."""
    if near is None:
        q = draw(st.integers(1, Q_BENCH))
    else:
        q = draw(st.integers(max(1, near.width - 3), min(Q_BENCH, near.width + 3)) | st.integers(1, Q_BENCH))
    cuts = sorted(draw(st.sets(st.integers(1, q - 1), max_size=min(q - 1, draw(st.integers(0, 5)))))) if q > 1 else []
    edges = [0, *cuts, q]
    widths = [b - a for a, b in zip(edges, edges[1:])]
    if near is None:
        rise = draw(st.integers(-3, 3) | st.integers(-(10**6), 10**6))
    else:
        rise = near.rise * widths[0] // near.width + draw(st.integers(0, 1))
    segments, start, value = [], 0, 0
    for i, width in enumerate(widths):
        if i:
            # The largest rise whose slope is below the previous one, less a step.
            rise = -(-rise * width // widths[i - 1]) - 1 - draw(st.integers(0, 3) | st.integers(0, 10**6))
        segments.append(Segment(start=start, value=value, rise=rise, width=width))
        start, value = start + width, value + rise
    return StallCurve(core=1, q=q, segments=tuple(segments))


@st.composite
def budget_curves(draw):
    m = draw(st.integers(2, 16))
    budgets = BudgetVector(tuple(draw(st.integers(1, 3000)) for _ in range(m)))
    return curve_for_core(budgets, draw(st.integers(1, m)))


@st.composite
def greedy_instances(draw):
    # A few curves shared by up to 40 intervals, so equal slopes meet across
    # intervals; zero splits fall anywhere, not only in a suffix.
    base = draw(hand_built_curves() | budget_curves())
    twins = draw(st.lists(hand_built_curves(near=base.segments[0]), max_size=2))
    pool = [base, *twins, *draw(st.lists(hand_built_curves() | budget_curves(), max_size=2))]
    n = draw(st.integers(1, 40))
    curves = tuple(draw(st.sampled_from(pool)) for _ in range(n))
    splits = tuple(draw(st.integers(0, 3) | st.integers(0, 60)) for _ in range(n))
    capacity = sum(w * c.q for w, c in zip(splits, curves))
    memory = draw(
        st.sampled_from((0, capacity, capacity + 1))
        | st.integers(0, capacity + 5)
        | st.integers(max(0, capacity - 5), capacity + 5)
    )
    return splits, memory, curves


@given(greedy_instances())
@settings(max_examples=600, deadline=None)
# Nothing reached, memory 0, exact capacity (14) and saturation.
@example(((0, 0, 0), 0, CURVES3))
@example(((0, 0, 0), 1, CURVES3))
@example(((0, 2, 0), 0, CURVES3))
@example(((0, 2, 0), 14, CURVES3))
@example(((0, 2, 0), 15, CURVES3))
@example(((3, 0, 2), 200, CURVES3))
# One reached interval among zero splits, with memory
# stopping inside its only segment (stall 36 / 4, unreduced), inside its
# second segment, and exactly on a segment boundary.
@example(((0, 0, 2), 3, CURVES3))
@example(((2, 0, 0), 6, CURVES3))
@example(((2, 0, 0), 4, CURVES3))
def test_greedy_matches_the_pass_scan(inst):
    # The whole assignment: every per-interval count, the saturated flag and
    # the stall as the same unreduced numerator and denominator.
    splits, memory, curves = inst
    got = distribute_memory(splits, memory, curves)
    assert got == _scan_distribute(splits, memory, curves)
    assert got.stall[1] >= 1
    # The same assignment from curves cut after the last nonzero split.
    reached = max((j + 1 for j, w in enumerate(splits) if w), default=0)
    assert distribute_memory(splits, memory, curves[:reached]) == got


def _one_segment(rise: int, width: int) -> StallCurve:
    return StallCurve(core=1, q=width, segments=(Segment(start=0, value=0, rise=rise, width=width),))


@pytest.mark.parametrize(
    ("first", "second"),
    [
        # Neighbouring slopes at the widest widths, 1 / (41666 * 41665) apart.
        ((41664, 41665), (41665, 41666)),
        ((1, 41666), (1, 41665)),
        ((-1, 41665), (-1, 41666)),
        ((0, 41666), (1, 41666)),
        # Equal slopes, unreduced alike and not.
        ((20832, 41664), (1, 2)),
    ],
)
def test_greedy_orders_the_closest_slopes(first, second):
    curves = (_one_segment(*first), _one_segment(*second), _one_segment(*first))
    for memory in (1, first[1], first[1] + 1, second[1] + 1):
        assert distribute_memory((1, 1, 1), memory, curves) == _scan_distribute((1, 1, 1), memory, curves)


@st.composite
def distribution_instances(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 4))
    raws = []
    curves = []
    splits = []
    for _ in range(n):
        budgets = BudgetVector(tuple(draw(st.integers(1, 6)) for _ in range(m)))
        core = draw(st.integers(1, m))
        raws.append(build_raw_points(budgets, core))
        curves.append(curve_for_core(budgets, core))
        splits.append(draw(st.integers(0, 4)))
    capacity = sum(w * c.q for w, c in zip(splits, curves))
    memory = draw(st.integers(0, capacity + 5))
    return tuple(splits), memory, tuple(raws), tuple(curves)


class TestGreedyOptimality:
    @given(distribution_instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration_objective(self, inst):
        splits, memory, raws, curves = inst
        assignment = distribute_memory(splits, memory, curves)
        got = sum(stall_breakdown(splits, assignment, curves))
        best, _ = oracle_distribute(splits, memory, raws)
        assert got == best

    @given(distribution_instances())
    @settings(max_examples=150, deadline=None)
    def test_assignment_is_feasible(self, inst):
        # Feasible, saturated exactly when memory overflows the capacity, and
        # carrying the stall that the Fraction path computes for it.
        splits, memory, raws, curves = inst
        assignment = distribute_memory(splits, memory, curves)
        capacity = sum(w * c.q for w, c in zip(splits, curves))
        assert sum(assignment.per_interval) == min(memory, capacity)
        assert assignment.saturated == (memory > capacity)
        assert Fraction(*assignment.stall) == sum(stall_breakdown(splits, assignment, curves))
        for alloc, span, curve in zip(assignment.per_interval, splits, curves):
            assert 0 <= alloc <= span * curve.q

    @given(distribution_instances(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_transaction_exchange_never_helps(self, inst, data):
        splits, memory, raws, curves = inst
        assignment = distribute_memory(splits, memory, curves)
        base = sum(stall_breakdown(splits, assignment, curves))
        n = len(splits)
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        alloc = list(assignment.per_interval)
        if src == dst or alloc[src] == 0 or alloc[dst] >= splits[dst] * curves[dst].q:
            return
        alloc[src] -= 1
        alloc[dst] += 1
        moved = sum(
            c.stall_over(w, a) if w else 0 for w, a, c in zip(splits, alloc, curves)
        )
        assert moved <= base


class TestAnalyzeDynamic:
    def test_worked_example(self):
        result = analyze_dynamic(Workload(execution=15, memory=25), THREE_INTERVALS, 3, CFG16)
        assert result.status is AnalysisStatus.CONVERGED
        assert result.span == 7
        assert result.length_slots == 112
        assert [t.span for t in result.trace] == [3, 5, 6, 7, 7]
        assert [t.stall for t in result.trace] == [0, 33, 55, 58, 61]

    def test_worked_example_breakdown(self):
        result = analyze_dynamic(Workload(execution=15, memory=25), THREE_INTERVALS, 3, CFG16)
        rows = [(b.interval, b.span, b.memory, b.stall) for b in result.breakdown]
        assert rows == [(1, 5, 19, 45), (2, 2, 6, 16), (3, 0, 0, 0)]
        assert result.total_stall == sum(b.stall for b in result.breakdown) == 61

    def test_deadline_miss(self):
        wl = Workload(execution=15, memory=25, deadline=Fraction(96))
        result = analyze_dynamic(wl, THREE_INTERVALS, 3, CFG16)
        assert result.status is AnalysisStatus.DEADLINE_MISS

    @pytest.mark.parametrize(
        ("analyze", "budgets"),
        [(analyze_static, VECTORS[0]), (analyze_dynamic, MemorySchedule.static(VECTORS[0]))],
        ids=["static", "dynamic"],
    )
    def test_core_is_checked_before_the_first_iterate(self, analyze, budgets):
        # The first iterate, 7 periods, misses the 1-period deadline before
        # any curve is built, so no curve's check would see core 9.
        with pytest.raises(InvariantError, match=r"core index 9 outside \[1\.\.4\]"):
            analyze(Workload(execution=100, memory=0, deadline=Fraction(16)), budgets, 9, CFG16)

    def test_schedule_exhaustion_reports_shortfall(self):
        bounded = MemorySchedule(
            intervals=(
                BudgetInterval(budgets=VECTORS[0], length=5),
                BudgetInterval(budgets=VECTORS[1], length=1),
            )
        )
        result = analyze_dynamic(Workload(execution=15, memory=25), bounded, 3, CFG16)
        assert result.status is AnalysisStatus.SCHEDULE_EXHAUSTED
        assert result.shortfall >= 1
        assert not result.converged

    def test_static_schedule_matches_static_analyzer(self):
        wl = Workload(execution=40, memory=35)
        dyn = analyze_dynamic(wl, MemorySchedule.static(VECTORS[0]), 3, CFG16)
        sta = analyze_static(wl, VECTORS[0], 3, CFG16)
        assert dyn.span == sta.span == 10
        _assert_static_recurrence((dyn, sta), wl, VECTORS[0], 3, CFG16)


EXHAUSTING = MemorySchedule(
    intervals=(BudgetInterval(budgets=VECTORS[0], length=5), BudgetInterval(budgets=VECTORS[1], length=1))
)
# The first vector twice: every piece of interval 1 ties in slope with one
# of interval 2.
SAME_TWICE = MemorySchedule(
    intervals=(
        BudgetInterval(budgets=VECTORS[0], length=2),
        BudgetInterval(budgets=VECTORS[0], length=4),
        BudgetInterval(budgets=VECTORS[2], length=None),
    )
)
# Converged spans whose breakdowns take each shape of the loop's filled
# pieces (see test_breakdown_is_the_greedy_at_the_fixed_point).
BREAKDOWN_CASES = {
    "no-memory": (THREE_INTERVALS, Workload(execution=15, memory=0)),
    "exact-fill": (THREE_INTERVALS, Workload(execution=1, memory=28)),
    "tied-partial-top": (SAME_TWICE, Workload(execution=1, memory=13)),
    "unbounded-tail": (THREE_INTERVALS, Workload(execution=1, memory=46)),
}


@pytest.mark.parametrize(
    ("schedule", "workload", "status"),
    [
        (THREE_INTERVALS, Workload(execution=15, memory=25), AnalysisStatus.CONVERGED),
        (THREE_INTERVALS, Workload(execution=15, memory=25, deadline=Fraction(96)), AnalysisStatus.DEADLINE_MISS),
        (EXHAUSTING, Workload(execution=15, memory=25), AnalysisStatus.SCHEDULE_EXHAUSTED),
        *[(schedule, workload, AnalysisStatus.CONVERGED) for schedule, workload in BREAKDOWN_CASES.values()],
    ],
)
def test_result_round_trips_with_trace_and_breakdown_unread(schedule, workload, status):
    # Pickled before its trace or breakdown is read, then compared with the
    # original read afterwards.
    result = analyze_dynamic(workload, schedule, 3, CFG16)
    copy = pickle.loads(pickle.dumps(result))
    assert result.status is copy.status is status
    assert (result.breakdown is not None) == result.converged
    assert copy.trace == result.trace
    assert copy.breakdown == result.breakdown
    assert copy.to_json_dict() == result.to_json_dict()
    assert copy == result
    assert hash(copy) == hash(result)
    with pytest.raises(FrozenInstanceError):
        result.span = 0


# The loop's guards, driven by forged pieces (coeff, key, rise, width) for
# the one interval of a static (5, 5) schedule: E = 10 and Q = 10, so the
# first iterate is W = 2 for mu = 2 or 3, whose capacity 2 * 5 exceeds mu.
@pytest.mark.parametrize(
    ("pieces", "memory", "message"),
    [
        # One piece of width 1 holds 2 of mu = 3 transactions.
        (((0, 0, 1, 1),), 3, "greedy saturated a span"),
        # A flat piece keyed before a steep one: S(2) = 25 sends W to 4,
        # where the flat piece holds mu and the stall falls back to 0.
        (((0, -100, 0, 1), (0, 0, 100, 4)), 3, "non-decreasing"),
        # A piece of rise 100 per transaction: S(2) = 200 sends W past the
        # cap beta + 1 = 13.
        (((0, -1, 100, 1), (0, 0, 0, 4)), 2, "defensive cap"),
    ],
    ids=["stride-at-fixed-point", "falling-stall", "no-fixed-point"],
)
def test_fixed_point_guards(monkeypatch, pieces, memory, message):
    monkeypatch.setattr(dynamic_analysis, "_core_pieces", lambda budgets, core: pieces)
    with pytest.raises(InvariantError, match=message):
        dynamic_analysis._dynamic_span(MemorySchedule.static(BudgetVector((5, 5))), 1, 10, memory, None)


def _count_calls(monkeypatch, module, name):
    """Rebind ``module.name`` to a wrapper that records each call's
    arguments, and return the list it appends them to."""
    calls, fn = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _count_greedy_route(monkeypatch):
    """Count the calls of the split, the curve build and the greedy with its
    stall breakdown, each hooked where it is defined."""
    return [
        _count_calls(monkeypatch, module, name)
        for module, name in (
            (membw.schedule, "split_span"),
            (membw.stall_curve, "curve_for_core"),
            (dynamic_analysis, "distribute_memory"),
            (dynamic_analysis, "stall_breakdown"),
        )
    ]


def _greedy_rows(schedule, core, span, memory):
    """The breakdown rows (interval, W, mu, S) that the split, the reached
    curves and the greedy give at ``span``."""
    splits = split_span(schedule, span)
    curves = tuple(curve_for_core(iv.budgets, core) for iv, w in zip(schedule.intervals, splits) if w)
    assignment = distribute_memory(splits, memory, curves)
    stalls = stall_breakdown(splits, assignment, curves)
    return list(zip(range(1, len(splits) + 1), splits, assignment.per_interval, stalls))


def test_fixed_point_keeps_the_converged_detail(monkeypatch):
    # Neither the loop nor the breakdown read runs a split, a curve build or
    # the greedy: the record keeps the loop's own filled pieces, and the rows
    # summed from them are the greedy's at the converged span.
    route = _count_greedy_route(monkeypatch)
    result = analyze_dynamic(Workload(execution=15, memory=25), THREE_INTERVALS, 3, CFG16)
    assert (result.status, result.span) == (AnalysisStatus.CONVERGED, 7)
    # Three intervals, bounded lengths 5 and 3, and the span's last 2
    # periods in interval 2 (index 1). The filled pieces (-key, -index,
    # rise, width): both intervals' slope-3 pieces and interval 2's slope-2
    # piece are full, and the top, interval 1's slope-5/3 piece of 15
    # transactions, is 6 short.
    n, lengths, j, part, filled, short = result.detail
    assert (n, lengths, j, part, short) == (3, (5, 3), 1, 2, 6)
    assert filled[0] == (426, 0, 5, 3)
    assert sorted(filled) == [(426, 0, 5, 3), (512, -1, 2, 1), (768, -1, 6, 2), (768, 0, 6, 2)]
    rows = result.breakdown
    assert result.breakdown is rows
    assert route == [[], [], [], []]
    assert [(b.interval, b.span, b.memory, b.stall) for b in rows] == _greedy_rows(THREE_INTERVALS, 3, 7, 25)


@pytest.mark.parametrize(
    ("case", "shape"),
    [
        # mu = 0: the loop fills no piece, so the heap is empty.
        ("no-memory", (0, 1, 0, [])),
        # The filled pieces hold mu exactly: the top is full.
        ("exact-fill", (1, 1, 0, [(426, 0, 5, 3)])),
        # The top, interval 2's slope-5/3 piece, is 2 short, and interval
        # 1's piece of the same slope is full: the greedy fills the lower
        # interval first.
        ("tied-partial-top", (1, 1, 2, [(426, -1, 5, 3), (426, 0, 5, 3)])),
        # Converged in the unbounded third interval, 4 short in interval 2's
        # flat piece.
        ("unbounded-tail", (2, 1, 4, [(0, -1, 0, 3)])),
    ],
    ids=list(BREAKDOWN_CASES),
)
def test_breakdown_is_the_greedy_at_the_fixed_point(monkeypatch, case, shape):
    # Each case pins (j, part, short) and the filled pieces at the top's
    # slope, so that it covers the shape it names.
    schedule, workload = BREAKDOWN_CASES[case]
    route = _count_greedy_route(monkeypatch)
    result = analyze_dynamic(workload, schedule, 3, CFG16)
    rows = [(b.interval, b.span, b.memory, b.stall) for b in result.breakdown]
    assert route == [[], [], [], []]
    _, _, j, part, filled, short = result.detail
    assert (j, part, short, sorted(p for p in filled if p[0] == filled[0][0])) == shape
    assert rows == _greedy_rows(schedule, 3, result.span, workload.memory)
    assert sum(row[3] for row in rows) == result.total_stall
    assert all(type(row[3]) is Fraction for row in rows)


def test_the_record_lives_with_the_loop():
    for name in ("AnalysisResult", "AnalysisStatus", "TraceEntry", "IntervalBreakdown"):
        assert getattr(membw, name) is getattr(dynamic_analysis, name)


def test_trace_and_breakdown_are_built_once():
    result = analyze_dynamic(Workload(execution=15, memory=25), THREE_INTERVALS, 3, CFG16)
    assert result.trace is result.trace
    assert result.breakdown is result.breakdown


# Core 1 holds one transaction per period, so the fixed point climbs by one
# period per iterate: the longest trace either analyzer produces on the
# benchmark's saturated files.
SATURATED_BUDGETS = BudgetVector((1, 20000, 21665))
SATURATED_CFG = RegulationConfig(period=Fraction(41666), l_max=Fraction(1))
SATURATED = Workload(execution=50, memory=8000)


def test_saturated_climb_is_pinned():
    sta = analyze_static(SATURATED, SATURATED_BUDGETS, 1, SATURATED_CFG)
    dyn = analyze_dynamic(SATURATED, MemorySchedule.static(SATURATED_BUDGETS), 1, SATURATED_CFG)
    assert sta.span == dyn.span == 8001
    assert len(sta.trace) == len(dyn.trace) == 8002
    expected = {
        0: TraceEntry(k=0, span=1, stall=Fraction(0)),
        4001: TraceEntry(k=4001, span=4002, stall=Fraction(166701665)),
        8001: TraceEntry(k=8001, span=8001, stall=Fraction(333320000)),
    }
    for k, entry in expected.items():
        assert sta.trace[k] == dyn.trace[k] == entry
    # Answers stay exact rationals at the result boundary, whatever the
    # engine computes in between.
    assert all(type(t.stall) is Fraction for t in sta.trace + dyn.trace)
    assert [(b.span, b.memory, b.stall) for b in dyn.breakdown] == [(8001, 8000, 333320000)]
    assert all(type(b.stall) is Fraction for b in dyn.breakdown)
    curve = curve_for_core(SATURATED_BUDGETS, 1)
    assert all(type(curve.stall_over(w, mu)) is Fraction for w, mu in ((0, 0), (8001, 8000), (3, 3)))


CLIMB_CFG = RegulationConfig(period=Fraction(1000), l_max=Fraction(1))
LEAN, RICH = BudgetVector((1, 999)), BudgetVector((2, 998))


@pytest.mark.parametrize(
    ("tail", "workload", "status", "span", "shortfall", "piece_reads", "entries"),
    [
        # Strides over [1, 40], [41, 80] and [81, 110]; converges just past them.
        (None, Workload(execution=1, memory=150), AnalysisStatus.CONVERGED, 111, None, [LEAN, RICH, LEAN], 5),
        # Misses the 60-period deadline inside the second stride.
        (
            None,
            Workload(execution=1, memory=150, deadline=Fraction(60 * 1000)),
            AnalysisStatus.DEADLINE_MISS,
            61,
            None,
            [],
            3,
        ),
        # Saturated to the end of a 120-period schedule.
        (40, Workload(execution=1, memory=500), AnalysisStatus.SCHEDULE_EXHAUSTED, 121, 1, [], 4),
    ],
    ids=["converged", "deadline-miss", "schedule-exhausted"],
)
def test_saturated_climb_across_intervals(monkeypatch, tail, workload, status, span, shortfall, piece_reads, entries):
    # Core 1 holds one transaction per period, then two, then one: each
    # iterate grows the span by one period, so the saturated climb crosses
    # both interval boundaries and its stall slope changes at each.
    schedule = MemorySchedule(
        intervals=(
            BudgetInterval(budgets=LEAN, length=40),
            BudgetInterval(budgets=RICH, length=40),
            BudgetInterval(budgets=LEAN, length=tail),
        )
    )
    greedy = _count_calls(monkeypatch, dynamic_analysis, "distribute_memory")
    reads = _count_calls(monkeypatch, dynamic_analysis, "_core_pieces")
    result = analyze_dynamic(workload, schedule, 1, CLIMB_CFG)
    assert (result.status, result.span, result.shortfall) == (status, span, shortfall)
    # The loop runs no greedy. Only a span whose capacity exceeds mu reads
    # pieces, each reached interval's once; the saturated climb is one
    # record entry per stride, each ending at an interval end.
    assert greedy == []
    assert [budgets for budgets, core in reads] == piece_reads
    assert len(result.raw) == entries
    curves = tuple(curve_for_core(iv.budgets, 1) for iv in schedule.intervals)
    assert [t.span for t in result.trace] == list(range(1, span + 1)) + ([span] if result.converged else [])
    for prev, entry in zip(result.trace, result.trace[1:]):
        splits = split_span(schedule, prev.span)
        stall = sum(stall_breakdown(splits, distribute_memory(splits, workload.memory, curves), curves))
        assert entry.stall == stall
        assert entry.span == math.ceil((workload.execution + workload.memory + stall) / schedule.q_total)


def test_saturated_climb_over_many_intervals_runs_no_greedy(monkeypatch):
    # 2,000 one-period intervals, then the same vector unbounded: the climb
    # stays saturated, one period per iterate, up to the fixed point at 2001,
    # where mu = 2,000 fits. Only that span reads pieces, once per interval,
    # and no span runs the greedy.
    vector = BudgetVector((1, 99999))
    schedule = MemorySchedule(intervals=(*[BudgetInterval(vector, 1)] * 2000, BudgetInterval(vector, None)))
    greedy = _count_calls(monkeypatch, dynamic_analysis, "distribute_memory")
    reads = _count_calls(monkeypatch, dynamic_analysis, "_core_pieces")
    cfg = RegulationConfig(period=Fraction(1), l_max=Fraction(1, 100000))
    result = analyze_dynamic(Workload(execution=1, memory=2000), schedule, 1, cfg)
    assert (result.status, result.span) == (AnalysisStatus.CONVERGED, 2001)
    assert result.to_json_dict()["iterations"] == 2001
    assert greedy == []
    assert reads == [(vector, 1)] * 2001


# E = 1 on a core holding one of Q = 41666 transactions per period: the
# saturated climb takes mu / Q periods per iterate at first, one at the end.
LONG_BUDGETS = BudgetVector((1, 41665))
LONG_CFG = RegulationConfig(period=Fraction(41666), l_max=Fraction(1))


@pytest.mark.parametrize(
    ("memory", "iterations", "total_stall"),
    [(10**6, 157328, 41665000000), (10**7, 252491, 416650000000)],
)
def test_long_saturated_climb_is_pinned(memory, iterations, total_stall):
    wl = Workload(execution=1, memory=memory)
    sta = analyze_static(wl, LONG_BUDGETS, 1, LONG_CFG)
    dyn = analyze_dynamic(wl, MemorySchedule.static(LONG_BUDGETS), 1, LONG_CFG)
    for result in (sta, dyn):
        assert result.span == memory + 1
        assert result.to_json_dict()["iterations"] == iterations
        assert result.total_stall == total_stall
        # One record entry per run of equal steps, not per iterate.
        assert len(result.raw) < 300


def _one_iterate_at_a_time(wl, q_total, cfg, stall):
    """The fixed point by its definition: S(W) evaluated at every iterate.

    Returns (status, span, shortfall, trace as (span, stall) pairs)."""
    limit = deadline_periods(wl, cfg) if wl.deadline is not None else None
    beta = wl.execution + wl.memory
    span = -(-beta // q_total)
    trace = [(span, Fraction(0))]
    while True:
        if limit is not None and span > limit:
            return AnalysisStatus.DEADLINE_MISS, span, None, trace
        try:
            value = stall(span)
        except ScheduleExhaustedError as exc:
            return AnalysisStatus.SCHEDULE_EXHAUSTED, span, exc.shortfall, trace
        nxt = math.ceil((beta + value) / q_total)
        trace.append((nxt, value))
        if nxt == span:
            return AnalysisStatus.CONVERGED, span, None, trace
        span = nxt


def _static_recurrence(wl, budgets, core, cfg):
    """The paper's static iteration W_(k) = ceil((beta + I(min(mu / W, q)) *
    W) / Q) under one vector, S(W) evaluated with :meth:`StallCurve.stall_over`
    at every iterate; returns what :func:`_one_iterate_at_a_time` does."""
    curve = curve_for_core(budgets, core)
    return _one_iterate_at_a_time(wl, budgets.total, cfg, lambda w: curve.stall_over(w, min(wl.memory, w * curve.q)))


def _assert_static_recurrence(results, wl, budgets, core, cfg):
    """Every result's trace and JSON answer is the static recurrence's."""
    expected = _static_recurrence(wl, budgets, core, cfg)
    for result in results:
        assert [(t.span, t.stall) for t in result.trace] == expected[3]
        assert result.to_json_dict() == _expected_json(*expected, budgets.total)


def _expected_json(status, span, shortfall, trace, q_total):
    doc = {"status": status.value, "span_periods": span}
    if status is AnalysisStatus.CONVERGED:
        doc["length_slots"] = span * q_total
        doc["total_stall"] = str(trace[-1][1])
    if shortfall is not None:
        doc["shortfall_periods"] = shortfall
    doc["iterations"] = len(trace) - 1
    return doc


def _runs(result):
    """The record's runs: entries that stand for more than one iterate."""
    return [entry for entry in result.raw if len(entry) == 6 and entry[5] > 1]


def _cut_run(cut, free):
    """True if ``cut`` ends in a run that ``free`` continues further."""
    i, end = len(cut.raw) - 1, cut.raw[-1]
    return len(end) == 6 and len(free.raw) > i and free.raw[i][:5] == end[:5] and free.raw[i][5] > end[5]


def _climb_instance(rng: random.Random):
    """A schedule whose analyzed core 1 holds few transactions per period, so
    that saturated climbs take several periods per iterate, and a workload
    with a deadline."""
    m = rng.randint(2, 4)
    first = (rng.randint(1, 3), *(rng.randint(1, 25) for _ in range(m - 1)))
    total = sum(first)
    n = rng.randint(1, 3)
    vectors = [first] + [_random_composition(rng, total, m) for _ in range(n - 1)]
    lengths = [rng.randint(1, 30) for _ in range(n)]
    schedule = MemorySchedule(
        intervals=tuple(BudgetInterval(budgets=BudgetVector(v), length=n_) for v, n_ in zip(vectors, lengths))
    )
    cfg = RegulationConfig(period=Fraction(total), l_max=Fraction(1))
    deadline = Fraction(rng.randint(1, 120 * total))
    wl = Workload(execution=rng.randint(1, 40), memory=rng.randint(0, 1500), deadline=deadline)
    return schedule, cfg, wl


def test_run_walk_matches_one_iterate_at_a_time():
    # Each instance runs bounded and unbounded, with and without its
    # deadline, under both analyzers; every trace and JSON answer must match
    # a loop that evaluates S(W) afresh at every iterate.
    rng = random.Random(1811)
    seen = {"multi-iterate run": 0, "deadline inside a run": 0, "schedule ends inside a run": 0}
    for _ in range(400):
        bounded, cfg, deadlined = _climb_instance(rng)
        *head, tail = bounded.intervals
        unbounded = MemorySchedule(intervals=(*head, BudgetInterval(budgets=tail.budgets, length=None)))
        free = Workload(execution=deadlined.execution, memory=deadlined.memory)
        q_total = bounded.q_total
        curves = tuple(curve_for_core(iv.budgets, 1) for iv in bounded.intervals)
        budgets = bounded.intervals[0].budgets
        results = {}
        for schedule in (bounded, unbounded):
            for wl in (deadlined, free):

                def dynamic_stall(span, schedule=schedule, wl=wl):
                    splits = split_span(schedule, span)
                    return sum(stall_breakdown(splits, distribute_memory(splits, wl.memory, curves), curves))

                result = results[schedule, wl] = analyze_dynamic(wl, schedule, 1, cfg)
                expected = _one_iterate_at_a_time(wl, q_total, cfg, dynamic_stall)
                assert [(t.span, t.stall) for t in result.trace] == expected[3]
                assert result.to_json_dict() == _expected_json(*expected, q_total)
                if result.converged:
                    # The breakdown is the fixed point's own split and greedy.
                    splits = split_span(schedule, result.span)
                    assignment = distribute_memory(splits, wl.memory, curves)
                    rows = zip(splits, assignment.per_interval, stall_breakdown(splits, assignment, curves))
                    assert [(b.span, b.memory, b.stall) for b in result.breakdown] == list(rows)
        for wl in (deadlined, free):
            _assert_static_recurrence((analyze_static(wl, budgets, 1, cfg),), wl, budgets, 1, cfg)
        seen["multi-iterate run"] += any(_runs(result) for result in results.values())
        seen["deadline inside a run"] += _cut_run(results[unbounded, deadlined], results[unbounded, free])
        seen["schedule ends inside a run"] += _cut_run(results[bounded, free], results[unbounded, free])
    assert min(seen.values()) >= 10, seen


def _greedy_kernel(schedule, core, execution, memory, limit):
    """The fixed point as the kernel found it with the paper's greedy:
    :func:`split_span` and :func:`distribute_memory` over every reached
    curve at each iterate whose capacity exceeds mu, saturated strides
    read off the schedule's prefix capacities as the kernel does.

    Returns the record (status, span, length_slots, raw, shortfall), the
    breakdown rows (interval, W, mu, S) at convergence, else None, and the
    intervals holding the spans that ran the greedy."""
    intervals, q_total, beta = schedule.intervals, schedule.q_total, execution + memory
    budgets = [iv.budgets.budget_of(core) for iv in intervals]
    lengths = [iv.length for iv in intervals if iv.length is not None]
    ends, capacities = [0], [0]
    for length, q in zip(lengths, budgets):
        ends.append(ends[-1] + length)
        capacities.append(capacities[-1] + length * q)
    curves = tuple(curve_for_core(iv.budgets, core) for iv in intervals)
    span = -(-beta // q_total)
    raw = [(span, 0, 1)]
    greedy_intervals = set()
    top = limit if limit is not None else beta + 1
    while span <= top:
        j = sum(end < span for end in ends) - 1
        if j == len(intervals):
            return (AnalysisStatus.SCHEDULE_EXHAUSTED, span, None, tuple(raw), span - ends[-1]), None, greedy_intervals
        q = budgets[j]
        caps = capacities[j] + (span - ends[j]) * q
        if caps <= memory:
            num, den, rate = q_total * span - caps, 1, q_total - q
            last = min(span + (memory - caps) // q, top, ends[j + 1] if j + 1 < len(ends) else top)
        else:
            greedy_intervals.add(j)
            splits = split_span(schedule, span)
            assignment = distribute_memory(splits, memory, curves)
            assert not assignment.saturated
            (num, den), rate, last = assignment.stall, 0, 0
        nxt = -(-(beta * den + num) // (q_total * den))
        assert nxt >= span
        if nxt == span:
            raw.append((nxt, num, den))
            stalls = stall_breakdown(splits, assignment, curves)
            rows = list(zip(range(1, len(splits) + 1), splits, assignment.per_interval, stalls))
            return (AnalysisStatus.CONVERGED, span, span * q_total, tuple(raw), None), rows, greedy_intervals
        if nxt <= last:
            step = nxt - span
            count = min(
                -(-(beta * den + num - q_total * den * (nxt - 1)) // ((q_total * den - rate) * step)),
                (last - span) // step + 1,
            )
            raw.append((nxt, num, den, step, rate * step, count))
            span += count * step
        else:
            raw.append((nxt, num, den))
            span = nxt
    assert limit is not None
    return (AnalysisStatus.DEADLINE_MISS, span, None, tuple(raw), None), None, greedy_intervals


def test_running_sums_are_the_greedy():
    # Random schedules of 1-8 intervals at m 1-8, some vectors giving the
    # analyzed core a budget of 1, bounded and unbounded tails, mu a 0-100%
    # share of the demand, with and without a deadline: the loop's record
    # and breakdown are the greedy's at every iterate.
    rng = random.Random(4343)
    seen = {"greedy": 0, "greedy in two intervals": 0, "deadline miss": 0, "exhausted": 0, "converged": 0}
    for _ in range(2000):
        m = rng.randint(1, 8)
        total = rng.randint(2 * m, 120)
        n = rng.randint(1, 8)
        core = rng.randint(1, m)
        intervals = []
        for j in range(n):
            budgets = list(_random_composition(rng, total, m)) if m > 1 else [total]
            if m > 1 and rng.random() < 0.4 and budgets[core - 1] > 1:
                other = core % m
                budgets[other] += budgets[core - 1] - 1
                budgets[core - 1] = 1
            length = None if j == n - 1 and rng.random() < 0.6 else rng.randint(1, 12)
            intervals.append(BudgetInterval(budgets=BudgetVector(tuple(budgets)), length=length))
        schedule = MemorySchedule(intervals=tuple(intervals))
        bounded = sum(iv.length or 12 for iv in intervals)
        demand = rng.randint(1, bounded * total)
        memory = demand * rng.randint(0, 100) // 100
        execution = max(1, demand - memory)
        limit = rng.choice((None, rng.randint(1, bounded + 8)))
        result = dynamic_analysis._dynamic_span(schedule, core, execution, memory, limit)
        record, rows, greedy_intervals = _greedy_kernel(schedule, core, execution, memory, limit)
        assert (result.status, result.span, result.length_slots, result.raw, result.shortfall) == record
        if rows is None:
            assert result.breakdown is None
        else:
            assert [(b.interval, b.span, b.memory, b.stall) for b in result.breakdown] == rows
            assert sum(b.stall for b in result.breakdown) == result.total_stall
        seen["greedy"] += bool(greedy_intervals)
        seen["greedy in two intervals"] += len(greedy_intervals) > 1
        seen[result.status.value.replace("-", " ").replace("schedule ", "")] += 1
    assert min(seen.values()) >= 50, seen


@st.composite
def workload_and_vector(draw):
    m = draw(st.integers(2, 4))
    budgets = BudgetVector(tuple(draw(st.integers(1, 8)) for _ in range(m)))
    core = draw(st.integers(1, m))
    wl = Workload(execution=draw(st.integers(1, 60)), memory=draw(st.integers(0, 80)))
    return budgets, core, wl


@given(workload_and_vector())
@settings(max_examples=200, deadline=None)
def test_unbounded_single_interval_specializes_to_static(inst):
    budgets, core, wl = inst
    cfg = RegulationConfig(period=Fraction(budgets.total), l_max=Fraction(1))
    dyn = analyze_dynamic(wl, MemorySchedule.static(budgets), core, cfg)
    sta = analyze_static(wl, budgets, core, cfg)
    _assert_static_recurrence((dyn, sta), wl, budgets, core, cfg)


def _draw_vectors(draw, m: int, n: int) -> list[BudgetVector]:
    """n budget vectors over m cores, all summing to the first one's total."""
    first = tuple(draw(st.integers(1, 6)) for _ in range(m))
    total = sum(first)
    vectors = [BudgetVector(first)]
    for _ in range(n - 1):
        # Another m-part composition of the same total, every part >= 1.
        cuts = sorted(draw(st.lists(st.integers(1, total - 1), min_size=m - 1, max_size=m - 1, unique=True)))
        vectors.append(BudgetVector(tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))))
    return vectors


@st.composite
def schedule_and_cut(draw):
    """A random schedule, a workload on one core, and the same schedule with
    one interval cut into two adjacent intervals of the same vector."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    vectors = _draw_vectors(draw, m, n)
    total = vectors[0].total
    lengths = [draw(st.integers(1, 6)) for _ in range(n - 1)]
    lengths.append(draw(st.one_of(st.none(), st.integers(2, 12))))
    intervals = [BudgetInterval(budgets=v, length=length) for v, length in zip(vectors, lengths)]

    # Cut interval j: a bounded one of length >= 2 into two bounded pieces,
    # or a bounded prefix off the unbounded tail.
    j = draw(st.sampled_from([i for i, iv in enumerate(intervals) if iv.length is None or iv.length >= 2]))
    vec, length = intervals[j].budgets, intervals[j].length
    head = draw(st.integers(1, 8 if length is None else length - 1))
    rest = None if length is None else length - head
    pieces = [BudgetInterval(budgets=vec, length=head), BudgetInterval(budgets=vec, length=rest)]
    cut = intervals[:j] + pieces + intervals[j + 1 :]

    core = draw(st.integers(1, m))
    cfg = RegulationConfig(period=Fraction(total), l_max=Fraction(1))
    deadline = draw(st.one_of(st.none(), st.integers(1, 40).map(lambda periods: Fraction(periods * total))))
    wl = Workload(execution=draw(st.integers(1, 60)), memory=draw(st.integers(0, 80)), deadline=deadline)
    return MemorySchedule(intervals=tuple(intervals)), MemorySchedule(intervals=tuple(cut)), core, cfg, wl


@given(schedule_and_cut())
@settings(max_examples=300, deadline=None)
def test_cutting_an_interval_in_two_changes_nothing(inst):
    # DY's as-built schedules hold runs of equal vectors; this pins that
    # the merged and unmerged views give the same analysis.
    merged, cut, core, cfg, wl = inst
    a = analyze_dynamic(wl, merged, core, cfg)
    b = analyze_dynamic(wl, cut, core, cfg)
    assert a.status is b.status
    assert a.span == b.span
    assert a.shortfall == b.shortfall
    assert a.trace == b.trace


@st.composite
def schedule_and_workload(draw, cores=(2, 4), intervals=(1, 6)):
    """A schedule over ``cores`` cores with ``intervals`` intervals (open or
    fully bounded), and a workload with or without a deadline."""
    m = draw(st.integers(*cores))
    n = draw(st.integers(*intervals))
    vectors = _draw_vectors(draw, m, n)
    total = vectors[0].total
    lengths = [draw(st.integers(1, 6)) for _ in range(n - 1)]
    lengths.append(draw(st.one_of(st.none(), st.integers(1, 12))))
    schedule = MemorySchedule(intervals=tuple(BudgetInterval(budgets=v, length=n_) for v, n_ in zip(vectors, lengths)))
    cfg = RegulationConfig(period=Fraction(total), l_max=Fraction(1))
    deadline = draw(st.one_of(st.none(), st.integers(1, 40).map(lambda periods: Fraction(periods * total))))
    wl = Workload(execution=draw(st.integers(1, 60)), memory=draw(st.integers(0, 80)), deadline=deadline)
    return schedule, draw(st.integers(1, m)), cfg, wl


@given(schedule_and_workload())
@settings(max_examples=300, deadline=None)
def test_trace_is_self_consistent(inst):
    # Recompute every iterate from its predecessor with the Fraction-valued
    # split + greedy + breakdown path, independent of how the loop sums.
    schedule, core, cfg, wl = inst
    result = analyze_dynamic(wl, schedule, core, cfg)
    curves = tuple(curve_for_core(iv.budgets, core) for iv in schedule.intervals)
    for prev, entry in zip(result.trace, result.trace[1:]):
        splits = split_span(schedule, prev.span)
        stall = sum(stall_breakdown(splits, distribute_memory(splits, wl.memory, curves), curves))
        assert entry.stall == stall
        assert entry.span == math.ceil((wl.execution + wl.memory + stall) / schedule.q_total)


def _interval_holding(schedule, period):
    """Index of the interval that holds period ``period`` (1-based)."""
    splits = split_span(schedule, period)
    return len(splits) - splits.count(0) - 1


@given(schedule_and_workload(cores=(2, 6), intervals=(1, 5)))
@settings(max_examples=200, deadline=None)
def test_the_span_is_the_least_root(inst):
    # Both analyzers, each against its own S(W) computed afresh: the dynamic
    # one across the schedule, the static one under its first vector.
    schedule, core, cfg, wl = inst
    q_total, beta, memory = schedule.q_total, wl.execution + wl.memory, wl.memory
    curves = tuple(curve_for_core(iv.budgets, core) for iv in schedule.intervals)
    first = curves[0]
    lengths = [iv.length for iv in schedule.intervals]
    limit = None if wl.deadline is None else deadline_periods(wl, cfg)
    cases = [
        (
            analyze_dynamic(wl, schedule, core, cfg),
            lambda w: Fraction(*distribute_memory(split_span(schedule, w), memory, curves).stall),
            lambda period: curves[_interval_holding(schedule, period)].q,
            None if None in lengths else sum(lengths),
        ),
        (
            analyze_static(wl, schedule.intervals[0].budgets, core, cfg),
            lambda w: first.stall_over(w, min(memory, w * first.q)),
            lambda period: first.q,
            None,
        ),
    ]
    for result, stall, q_of, covered in cases:
        # 0 <= S(W + 1) - S(W) <= Q - q^j, period W + 1 in interval j.
        top = result.span + 2 if covered is None else min(result.span + 2, covered - 1)
        for w in range(top + 1):
            assert 0 <= stall(w + 1) - stall(w) <= q_total - q_of(w + 1)
        # A converging span is at most beta + 1 periods, so an open schedule
        # is scanned that far.
        end = beta + 1 if covered is None else covered
        root = next((w for w in range(-(-beta // q_total), end + 1) if beta + stall(w) <= q_total * w), None)
        # Only a bounded schedule can end below every root.
        assert root is not None or covered is not None
        if root is not None and (limit is None or root <= limit):
            assert (result.status, result.span) == (AnalysisStatus.CONVERGED, root)
        elif result.status is AnalysisStatus.DEADLINE_MISS:
            # The first iterate past the deadline, and no iterate passes the root.
            assert limit is not None and limit < result.span
            assert root is None or result.span <= root
        else:
            # The iterates outgrew the schedule before the deadline.
            assert root is None
            assert result.status is AnalysisStatus.SCHEDULE_EXHAUSTED
            assert result.span == covered + result.shortfall > covered
            assert limit is None or result.span <= limit


def test_generous_prefix_budget_never_hurts():
    # Raising core 3's own budget (and so lowering everyone else's) in the
    # first interval gives a pointwise lower stall curve there; the span
    # cannot get worse than running the lean vector throughout.
    lean = BudgetVector((4, 4, 4, 4))
    rich = BudgetVector((2, 2, 10, 2))
    wl = Workload(execution=15, memory=25)
    base = analyze_dynamic(wl, MemorySchedule.static(lean), 3, CFG16)
    boosted = MemorySchedule(
        intervals=(BudgetInterval(budgets=rich, length=4), BudgetInterval(budgets=lean, length=None))
    )
    assert analyze_dynamic(wl, boosted, 3, CFG16).span <= base.span


def test_seeded_regression_batch():
    rng = random.Random(4420)
    spans = []
    for _ in range(10):
        m = rng.randint(2, 4)
        total = None
        intervals = []
        n = rng.randint(1, 3)
        for j in range(n):
            if total is None:
                budgets = tuple(rng.randint(1, 6) for _ in range(m))
                total = sum(budgets)
            else:
                budgets = _random_composition(rng, total, m)
            length = None if j == n - 1 else rng.randint(1, 5)
            intervals.append(BudgetInterval(budgets=BudgetVector(budgets), length=length))
        schedule = MemorySchedule(intervals=tuple(intervals))
        cfg = RegulationConfig(period=Fraction(total), l_max=Fraction(1))
        core = rng.randint(1, m)
        wl = Workload(execution=rng.randint(1, 30), memory=rng.randint(0, 40))
        spans.append(analyze_dynamic(wl, schedule, core, cfg).span)
    assert spans == [41, 1, 3, 20, 7, 9, 39, 5, 10, 8]


def _random_composition(rng: random.Random, total: int, m: int) -> tuple[int, ...]:
    """Random m-part composition of ``total`` with every part >= 1."""
    cuts = sorted(rng.sample(range(1, total), m - 1))
    edges = [0, *cuts, total]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


def _digest_instance(rng: random.Random):
    """A 1-5 interval schedule (open or fully bounded), a core and a workload
    with or without a deadline, drawn from ``rng``."""
    m = rng.randint(2, 4)
    n = rng.randint(1, 5)
    first = tuple(rng.randint(1, 6) for _ in range(m))
    total = sum(first)
    vectors = [first] + [_random_composition(rng, total, m) for _ in range(n - 1)]
    lengths = [rng.randint(1, 6) for _ in range(n - 1)]
    lengths.append(None if rng.random() < 0.5 else rng.randint(1, 12))
    schedule = MemorySchedule(
        intervals=tuple(BudgetInterval(budgets=BudgetVector(v), length=n_) for v, n_ in zip(vectors, lengths))
    )
    cfg = RegulationConfig(period=Fraction(total), l_max=Fraction(1))
    deadline = None if rng.random() < 0.5 else Fraction(rng.randint(1, 40 * total))
    wl = Workload(execution=rng.randint(1, 60), memory=rng.randint(0, 80), deadline=deadline)
    return schedule, rng.randint(1, m), cfg, wl


def _answer(result) -> str:
    # Values go in as str(Fraction), never as the raw record, whose
    # unreduced denominators are the engine's own business.
    trace = [(t.k, t.span, str(t.stall)) for t in result.trace]
    breakdown = None
    if result.breakdown is not None:
        breakdown = [(b.interval, b.span, b.memory, str(b.stall)) for b in result.breakdown]
    return repr((result.status.value, result.span, result.to_json_dict(), trace, breakdown))


def test_answer_digest_is_pinned():
    # Every answer of both analyzers over 3,000 seeded random instances: a
    # change to how either one computes may not move any of them.
    rng = random.Random(20181)
    digest = hashlib.sha256()
    for _ in range(3000):
        schedule, core, cfg, wl = _digest_instance(rng)
        digest.update(_answer(analyze_dynamic(wl, schedule, core, cfg)).encode())
        digest.update(_answer(analyze_static(wl, schedule.intervals[0].budgets, core, cfg)).encode())
    assert digest.hexdigest() == "5f05fd066b0df01e2e3f0abc4ddf2d2498d0f68822650ceaaa1b84713819f57a"


def _long_schedule(rng: random.Random, n: int, m: int = 16):
    """An n-interval schedule over m cores with Q = 41666 and lengths 1-6
    (the last open), and a core and workload whose span passes its end."""
    lengths = [rng.randint(1, 6) for _ in range(n - 1)] + [None]
    schedule = MemorySchedule(
        intervals=tuple(
            BudgetInterval(budgets=BudgetVector(_random_composition(rng, Q_BENCH, m)), length=length)
            for length in lengths
        )
    )
    beta = sum(lengths[:-1]) * Q_BENCH // 2
    return schedule, rng.randint(1, m), Workload(execution=beta - beta // 5, memory=beta // 5)


def test_long_schedule_is_pinned():
    # 512 intervals at m = 16, and a span that passes their end: the loop
    # reads every interval's pieces into its running sums, and the
    # breakdown sums its 512 rows from the loop's filled pieces. The test
    # pins that answer and those rows; it bounds no cost.
    schedule, core, workload = _long_schedule(random.Random(512), 512)
    result = analyze_dynamic(workload, schedule, core, RegulationConfig(period=Fraction(Q_BENCH), l_max=Fraction(1)))
    doc = result.to_json_dict()
    assert (doc["status"], doc["span_periods"], doc["total_stall"], doc["iterations"]) == (
        "converged", 6686, "570701812182/2363", 18
    )
    # The rows as --breakdown prints them.
    rows = "".join(f"{b.interval},{b.span},{b.memory},{b.stall}\n" for b in result.breakdown)
    assert hashlib.sha256(rows.encode()).hexdigest() == "a85d3cc4b8050dabe40d3179316686ccc7fbf66b31350466df3f08885ebf9ad2"


def test_curves_are_built_only_for_reached_intervals(monkeypatch):
    # The span converges at 7 periods, inside the first two intervals, so
    # the last three are never reached: the loop reads no pieces for them,
    # and their breakdown rows are W = 0, mu = 0, S = 0. Neither the loop
    # nor the breakdown read builds a curve.
    reads = _count_calls(monkeypatch, dynamic_analysis, "_core_pieces")
    built = _count_calls(monkeypatch, membw.stall_curve, "curve_for_core")
    schedule = MemorySchedule(
        intervals=(
            BudgetInterval(budgets=VECTORS[0], length=5),
            BudgetInterval(budgets=VECTORS[1], length=3),
            BudgetInterval(budgets=VECTORS[2], length=4),
            BudgetInterval(budgets=VECTORS[0], length=4),
            BudgetInterval(budgets=VECTORS[1], length=None),
        )
    )
    result = analyze_dynamic(Workload(execution=15, memory=25), schedule, 3, CFG16)
    assert (result.status, result.span, result.total_stall) == (AnalysisStatus.CONVERGED, 7, 61)
    assert reads == [(VECTORS[0], 3), (VECTORS[1], 3)]
    assert built == []
    assert [(b.span, b.memory, b.stall) for b in result.breakdown] == [
        (5, 19, 45), (2, 6, 16), (0, 0, 0), (0, 0, 0), (0, 0, 0)
    ]
    assert reads == [(VECTORS[0], 3), (VECTORS[1], 3)]
    assert built == []


@pytest.mark.parametrize(
    ("splits", "memory", "message"),
    [
        pytest.param((5, 3), -1, "memory must be >= 0", id="negative-memory"),
        pytest.param((5, -1), 4, "splits must be >= 0", id="negative-split"),
    ],
)
def test_distribute_memory_rejects_negative_inputs(splits, memory, message):
    with pytest.raises(InvariantError, match=message):
        distribute_memory(splits, memory, CURVES3[:2])
