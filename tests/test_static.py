"""Fixed-point analysis of a workload under one constant budget vector."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from membw import (
    AnalysisStatus,
    BudgetInterval,
    BudgetVector,
    InvariantError,
    MemorySchedule,
    RegulationConfig,
    Segment,
    Workload,
    analyze_dynamic,
    analyze_static,
    build_raw_points,
    curve_for_core,
    oracle_max_stall,
)
from membw import dynamic_analysis, static_analysis
from membw.dynamic_analysis import _dynamic_span
from membw.static_analysis import _static_span, _view_span

CFG16 = RegulationConfig(period=Fraction(16), l_max=Fraction(1))
VEC = BudgetVector((2, 2, 5, 7))


@st.composite
def small_instances(draw):
    m = draw(st.integers(2, 4))
    budgets = BudgetVector(tuple(draw(st.integers(1, 8)) for _ in range(m)))
    core = draw(st.integers(1, m))
    execution = draw(st.integers(1, 60))
    memory = draw(st.integers(0, 80))
    return budgets, core, Workload(execution=execution, memory=memory)


def config_for(budgets: BudgetVector) -> RegulationConfig:
    return RegulationConfig(period=Fraction(budgets.total), l_max=Fraction(1))


class TestWorkedExample:
    def test_converges_to_ten_periods(self):
        result = analyze_static(Workload(execution=40, memory=35), VEC, 3, CFG16)
        assert result.status is AnalysisStatus.CONVERGED
        assert result.span == 10
        assert result.length_slots == 160

    def test_iteration_trace(self):
        result = analyze_static(Workload(execution=40, memory=35), VEC, 3, CFG16)
        assert [t.span for t in result.trace] == [5, 9, 10, 10]
        assert [t.stall for t in result.trace] == [0, 55, Fraction(247, 3), 85]
        assert result.total_stall == 85

    def test_deadline_just_met(self):
        wl = Workload(execution=40, memory=35, deadline=Fraction(160))
        assert analyze_static(wl, VEC, 3, CFG16).converged

    def test_deadline_missed(self):
        wl = Workload(execution=40, memory=35, deadline=Fraction(159))
        result = analyze_static(wl, VEC, 3, CFG16)
        assert result.status is AnalysisStatus.DEADLINE_MISS
        assert not result.converged
        assert result.span == 10  # first iterate past the limit

    def test_even_vector_instance(self):
        vec = BudgetVector((4, 4, 4, 4))
        result = analyze_static(Workload(execution=5, memory=10), vec, 1, CFG16)
        assert result.span == 3
        assert result.total_stall == 30


class TestValidation:
    def test_total_must_match_config(self):
        cfg = RegulationConfig(period=Fraction(20), l_max=Fraction(1))
        with pytest.raises(InvariantError):
            analyze_static(Workload(execution=1, memory=0), VEC, 3, cfg)

    def test_core_in_range(self):
        with pytest.raises(InvariantError):
            analyze_static(Workload(execution=1, memory=0), VEC, 9, CFG16)


class TestProperties:
    @given(small_instances())
    @settings(max_examples=200)
    def test_iterates_never_decrease(self, inst):
        budgets, core, wl = inst
        result = analyze_static(wl, budgets, core, config_for(budgets))
        spans = [t.span for t in result.trace]
        assert all(a <= b for a, b in zip(spans, spans[1:]))
        assert result.converged

    @given(small_instances())
    @settings(max_examples=200)
    def test_converged_span_admits_all_memory(self, inst):
        # At the fixed point the workload's transactions fit strictly inside
        # the span's own-budget capacity, so the rate stays in the curve domain.
        budgets, core, wl = inst
        result = analyze_static(wl, budgets, core, config_for(budgets))
        assert wl.memory < result.span * budgets.budget_of(core)

    @given(small_instances())
    @settings(max_examples=200)
    def test_span_covers_demand_plus_stall(self, inst):
        budgets, core, wl = inst
        result = analyze_static(wl, budgets, core, config_for(budgets))
        assert result.span * budgets.total >= wl.execution + wl.memory + result.total_stall

    @given(small_instances())
    @settings(max_examples=100)
    def test_bound_dominates_per_period_oracle(self, inst):
        budgets, core, wl = inst
        result = analyze_static(wl, budgets, core, config_for(budgets))
        raw = build_raw_points(budgets, core)
        memory = min(wl.memory, result.span * raw.q)
        curve = curve_for_core(budgets, core)
        assert curve.stall_over(result.span, memory) >= oracle_max_stall(memory, result.span, raw)


@given(small_instances())
@settings(max_examples=300, deadline=None)
def test_trace_is_self_consistent(inst):
    # Recompute every iterate from its predecessor with the Fraction-valued
    # curve evaluation, independent of how the loop walks saturated strides.
    budgets, core, wl = inst
    result = analyze_static(wl, budgets, core, config_for(budgets))
    curve = curve_for_core(budgets, core)
    for prev, entry in zip(result.trace, result.trace[1:]):
        stall = curve.stall_over(prev.span, min(wl.memory, prev.span * curve.q))
        assert entry.stall == stall
        assert entry.span == math.ceil((wl.execution + wl.memory + stall) / budgets.total)


def test_saturated_climb_evaluates_the_curve_once_per_stride(monkeypatch):
    # mu >= W * q up to W = 8000: that climb is one run that reads no
    # pieces, and the fixed point at 8001 reads the curve's pieces once and
    # runs no greedy.
    greedy, reads = [], []
    distribute, core_pieces = dynamic_analysis.distribute_memory, dynamic_analysis._core_pieces

    def counting_distribute(*args):
        greedy.append(args)
        return distribute(*args)

    def counting_pieces(*args):
        reads.append(args)
        return core_pieces(*args)

    monkeypatch.setattr(dynamic_analysis, "distribute_memory", counting_distribute)
    monkeypatch.setattr(dynamic_analysis, "_core_pieces", counting_pieces)
    budgets = BudgetVector((1, 20000, 21665))
    result = analyze_static(Workload(execution=50, memory=8000), budgets, 1, config_for(budgets))
    assert (result.span, len(result.trace)) == (8001, 8002)
    assert greedy == []
    assert reads == [(budgets, 1)]
    assert len(result.raw) == 3


def test_seeded_regression_batch():
    # A frozen sample of random instances with their converged spans; guards
    # against silent behavioral drift in the fixed point.
    rng = random.Random(1199)
    spans = []
    for _ in range(12):
        m = rng.randint(2, 4)
        budgets = BudgetVector(tuple(rng.randint(1, 8) for _ in range(m)))
        core = rng.randint(1, m)
        wl = Workload(execution=rng.randint(1, 60), memory=rng.randint(0, 80))
        spans.append(analyze_static(wl, budgets, core, config_for(budgets)).span)
    assert spans == [17, 80, 8, 14, 1, 3, 73, 68, 8, 10, 27, 72]


@pytest.mark.parametrize(
    ("deadline", "status"),
    [(None, AnalysisStatus.CONVERGED), (Fraction(159), AnalysisStatus.DEADLINE_MISS)],
)
def test_static_results_have_no_breakdown(deadline, status):
    # One vector, no intervals to break the stall over; a miss has no stall.
    result = analyze_static(Workload(execution=40, memory=35, deadline=deadline), VEC, 3, CFG16)
    assert result.status is status
    assert result.breakdown is None
    assert (result.total_stall is None) == (status is AnalysisStatus.DEADLINE_MISS)


@st.composite
def closed_form_instances(draw):
    """A vector over 1-8 cores (budgets down to 1), a core, E and mu (zero,
    free, or a saturated start: mu >= ceil(beta / Q) * q), and a limit
    (none, any, or below the first iterate ceil(beta / Q))."""
    m = draw(st.integers(1, 8))
    budgets = BudgetVector(tuple(draw(st.lists(st.one_of(st.just(1), st.integers(1, 300)), min_size=m, max_size=m))))
    core = draw(st.integers(1, m))
    total, q = budgets.total, budgets.budget_of(core)
    execution = draw(st.integers(1, 20 * total))
    kind = draw(st.sampled_from(("zero", "free", "saturated")))
    if kind == "zero":
        memory = 0
    elif kind == "free" or q == total:
        memory = draw(st.integers(0, 20 * total))
    else:
        # The least k with k * q <= k * Q - E, then a mu with ceil(beta / Q) = k
        # and mu >= k * q; whole periods of Q more keep the start saturated.
        k = -(-execution // (total - q))
        memory = max(k * q, (k - 1) * total - execution + 1) + total * draw(st.integers(0, 5))
        assert memory >= -(-(execution + memory) // total) * q
    first = -(-(execution + memory) // total)
    limit = draw(st.one_of(st.none(), st.integers(1, 200), st.integers(1, first)))
    return budgets, core, execution, memory, limit


def _analyzers_agree(budgets, core, execution, memory, limit):
    """_static_span against both analyzers on the equivalent Workload: the
    same converged flag, and the same span when converged."""
    span = _static_span(budgets, core, execution, memory, limit)
    cfg = config_for(budgets)
    deadline = None if limit is None else Fraction(limit * budgets.total)
    wl = Workload(execution=execution, memory=memory, deadline=deadline)
    for result in (
        analyze_static(wl, budgets, core, cfg),
        analyze_dynamic(wl, MemorySchedule.static(budgets), core, cfg),
    ):
        assert result.converged == (span is not None)
        if span is not None:
            assert result.span == span
    return span


@given(closed_form_instances())
@settings(max_examples=300, deadline=None)
def test_closed_form_span_matches_both_analyzers(inst):
    _analyzers_agree(*inst)


def test_closed_form_span_at_ima_scale():
    # Q = 41,666 as in the IMA model, mu up to 10^7, limits within H = 128
    # periods or none: both verdicts occur, and every answer agrees.
    rng = random.Random(22)
    total = 41666
    outcomes = set()
    for _ in range(150):
        m = rng.randint(2, 16)
        cuts = sorted(rng.sample(range(1, total), m - 1))
        budgets = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        # Drop some cores to the 1-transaction floor, as DY's reclaimed
        # vectors do; the last core takes what they held.
        for i in rng.sample(range(m - 1), rng.randint(0, m - 1)):
            budgets[-1] += budgets[i] - 1
            budgets[i] = 1
        vector = BudgetVector(tuple(budgets))
        memory = rng.choice((0, rng.randint(0, 10**7), int(10 ** rng.uniform(0, 7))))
        limit = rng.choice((None, rng.randint(1, 128)))
        span = _analyzers_agree(vector, rng.randint(1, m), rng.randint(1, 64 * total), memory, limit)
        outcomes.add(span is None)
    assert outcomes == {False, True}


def _counting_pieces(monkeypatch) -> list[int]:
    """Hook the closed forms' piece reads; returns the cores read, in order."""
    built = []
    pieces = static_analysis._core_pieces

    def counting(budgets, core):
        built.append(core)
        return pieces(budgets, core)

    monkeypatch.setattr(static_analysis, "_core_pieces", counting)
    return built


def _forged_pieces(monkeypatch) -> None:
    """Make every piece read return a forged curve's pieces under Q = 16.

    No curve built from a vector reads above Q - q, so only a forged one,
    whose second piece starts at 20 > Q = 16, gives that piece the
    coefficient (16 - 20) * 3 + 1 * 2 = -10.
    """
    segments = (Segment(start=0, value=0, rise=20, width=2), Segment(start=2, value=20, rise=1, width=3))
    forged = tuple(((16 - value) * width + rise * start, -(rise * 16**2 // width), rise, width) for start, value, rise, width in segments)
    monkeypatch.setattr(static_analysis, "_core_pieces", lambda budgets, core: forged)


def test_closed_form_miss_at_the_first_iterate_builds_no_curve(monkeypatch):
    built = _counting_pieces(monkeypatch)
    # beta = 33 over Q = 16: the first iterate is 3 periods, the span 5.
    assert _static_span(VEC, 3, 20, 13, 2) is None
    assert built == []
    assert _static_span(VEC, 3, 20, 13, 3) is None
    assert _static_span(VEC, 3, 20, 13, 5) == 5
    assert built == [3, 3]


def test_closed_form_rejects_a_non_positive_coefficient(monkeypatch):
    _forged_pieces(monkeypatch)
    with pytest.raises(InvariantError, match="coefficient -10"):
        _static_span(VEC, 3, 1, 40, None)


def _vector(draw, m: int, total: int) -> BudgetVector:
    """A vector of m budgets >= 1 summing to ``total``: the gaps between m - 1 cuts."""
    cuts = sorted(draw(st.lists(st.integers(1, total - 1), min_size=m - 1, max_size=m - 1, unique=True)))
    return BudgetVector(tuple(b - a for a, b in zip([0, *cuts], [*cuts, total])))


@st.composite
def view_instances(draw):
    """A DY-like view over a small Q: 1-6 history intervals, each holding a
    fresh vector or its predecessor's, then a vector unbounded. Budgets go
    down to 1, and a core whose budget tops the others' by 2 or more has a
    zero-slope segment. mu is 0, free, or large enough to saturate the
    first iterates."""
    m = draw(st.integers(2, 6))
    total = draw(st.integers(m, 4 * m))
    vectors = [_vector(draw, m, total)]
    for _ in range(draw(st.integers(1, 6))):
        vectors.append(vectors[-1] if draw(st.booleans()) else _vector(draw, m, total))
    history = tuple(BudgetInterval(budgets=vec, length=draw(st.integers(1, 4))) for vec in vectors[:-1])
    core = draw(st.integers(1, m))
    execution = draw(st.integers(1, 12 * total))
    memory = draw(st.one_of(st.just(0), st.integers(0, 12 * total), st.integers(12 * total, 60 * total)))
    return history, vectors[-1], core, execution, memory


@given(view_instances())
@settings(max_examples=400, deadline=None)
# Equal adjacent vectors; core 3's budget 5 tops the others' 1, so its curve
# ends in a zero-slope segment; mu = 0; and mu enough to saturate.
@example(((BudgetInterval(BudgetVector((1, 1, 5)), 2), BudgetInterval(BudgetVector((1, 1, 5)), 1)), BudgetVector((2, 3, 2)), 3, 40, 9))
@example(((BudgetInterval(BudgetVector((3, 4)), 1), BudgetInterval(BudgetVector((2, 5)), 2)), BudgetVector((6, 1)), 2, 50, 0))
@example(((BudgetInterval(BudgetVector((1, 4, 2)), 3),), BudgetVector((1, 1, 5)), 1, 3, 300))
def test_view_span_matches_the_kernel(inst):
    # Past the history the closed form is the kernel's least root, at a
    # limit one short of it, at it, and with none. A root within the
    # history breaks _view_span's precondition and must raise.
    history, budgets, core, execution, memory = inst
    schedule = MemorySchedule((*history, BudgetInterval(budgets=budgets, length=None)))
    least = _dynamic_span(schedule, core, execution, memory, None).span
    if least <= sum(iv.length for iv in history):
        with pytest.raises(InvariantError, match="within the"):
            _view_span(history, budgets, core, execution, memory, None)
        return
    for limit in (least - 1, least, None):
        result = _dynamic_span(schedule, core, execution, memory, limit)
        assert _view_span(history, budgets, core, execution, memory, limit) == (result.span if result.converged else None)


def _merged(history):
    """``history`` with each run of equal adjacent vectors as one interval."""
    merged = []
    for iv in history:
        if merged and merged[-1].budgets == iv.budgets:
            iv = BudgetInterval(iv.budgets, merged.pop().length + iv.length)
        merged.append(iv)
    return tuple(merged)


@given(view_instances())
@settings(max_examples=300, deadline=None)
@example(((BudgetInterval(BudgetVector((1, 1, 5)), 2), BudgetInterval(BudgetVector((1, 1, 5)), 1)), BudgetVector((2, 3, 2)), 3, 40, 9))
def test_view_span_is_the_same_over_merged_runs(inst):
    # A run of equal vectors adds its pieces' L_j-weighted sums whether it
    # comes as one interval or several: DY passes one interval per run.
    history, budgets, core, execution, memory = inst
    merged = _merged(history)
    for limit in (None, 60):
        try:
            span = _view_span(history, budgets, core, execution, memory, limit)
        except InvariantError:
            with pytest.raises(InvariantError, match="within the"):
                _view_span(merged, budgets, core, execution, memory, limit)
            continue
        assert _view_span(merged, budgets, core, execution, memory, limit) == span


def test_view_span_rejects_a_history_over_another_total():
    # The pieces' slope keys share the scale Q^2 only when every vector sums
    # to Q.
    history = (BudgetInterval(VEC, 1), BudgetInterval(BudgetVector((2, 2, 5, 8)), 1))
    with pytest.raises(InvariantError, match="sums to 17, the tail to 16"):
        _view_span(history, VEC, 3, 40, 24, None)


def test_view_span_miss_before_any_curve(monkeypatch):
    built = _counting_pieces(monkeypatch)
    history = (BudgetInterval(VEC, 2),)
    # A history that reaches the limit, then a first iterate past it:
    # beta = 64 over Q = 16 is 4 periods.
    assert _view_span(history, VEC, 3, 40, 24, 2) is None
    assert _view_span(history, VEC, 3, 40, 24, 3) is None
    assert built == []
    span = _view_span(history, VEC, 3, 40, 24, None)
    assert built == [3, 3]
    assert span == _dynamic_span(MemorySchedule((*history, BudgetInterval(VEC, None))), 3, 40, 24, None).span


def test_view_span_rejects_a_non_positive_coefficient(monkeypatch):
    # The forged curve of the closed-form test above, as the tail: past its
    # steeper first piece, its second piece reads (16 - 20) * 3 + 1 * 2 = -10.
    _forged_pieces(monkeypatch)
    with pytest.raises(InvariantError, match="coefficient -10"):
        _view_span((BudgetInterval(VEC, 1),), VEC, 3, 1, 40, None)
