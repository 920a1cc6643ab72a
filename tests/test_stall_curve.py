"""Stall-curve construction: raw interference points and their concave envelope."""

import pickle
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from membw import (
    BudgetVector,
    InvariantError,
    RawStallPoints,
    Segment,
    StallCurve,
    build_raw_points,
    concave_envelope,
    curve_for_core,
    stall_curve,
)

VEC = BudgetVector((2, 2, 5, 7))


def _value_at(curve: StallCurve, rate: Fraction) -> Fraction:
    """The curve at ``rate`` in [0, q], exactly: the Fraction reference for
    :meth:`StallCurve.stall_over`'s integer segment search."""
    seg = curve.segments[bisect_right(curve.segments, rate, key=lambda s: s.start) - 1]
    return seg.value + seg.slope * (rate - seg.start)


def budget_vectors(max_m: int = 5, max_q: int = 9):
    return st.lists(st.integers(1, max_q), min_size=2, max_size=max_m).map(
        lambda bs: BudgetVector(tuple(bs))
    )


@st.composite
def vector_and_core(draw, max_m: int = 5, max_q: int = 9):
    vec = draw(budget_vectors(max_m, max_q))
    core = draw(st.integers(1, vec.m))
    return vec, core


@st.composite
def vector_and_order(draw, max_m: int = 6, max_q: int = 40):
    """Budgets drawn from a few values and 1, so that repeats and budgets of
    1 are common, single cores included, and the cores in a drawn order."""
    values = draw(st.lists(st.integers(1, max_q), min_size=1, max_size=4))
    budgets = draw(st.lists(st.sampled_from([1, *values]), min_size=1, max_size=max_m))
    return tuple(budgets), draw(st.permutations(range(1, len(budgets) + 1)))


class TestBudgetVector:
    def test_rejects_empty(self):
        with pytest.raises(InvariantError):
            BudgetVector(())

    def test_rejects_zero_budget(self):
        with pytest.raises(InvariantError):
            BudgetVector((3, 0, 2))

    def test_accessors(self):
        assert VEC.m == 4
        assert VEC.total == 16
        assert VEC.budget_of(3) == 5

    def test_single_core_allowed(self):
        vec = BudgetVector((4,))
        assert (vec.m, vec.total) == (1, 4)
        assert build_raw_points(vec, 1).values == (0, 0, 0, 0, 0)


class TestRawPoints:
    def test_core3_values(self):
        raw = build_raw_points(VEC, 3)
        assert raw.values == (0, 3, 6, 7, 8, 11)
        assert raw.q == 5

    def test_core4_values(self):
        raw = build_raw_points(VEC, 4)
        assert raw.values == (0, 3, 6, 7, 8, 9, 9, 9)

    def test_last_point_is_total_minus_own(self):
        raw = build_raw_points(VEC, 1)
        assert raw.values[-1] == VEC.total - VEC.budget_of(1)

    @given(vector_and_core())
    def test_interior_points_sum_clamped_budgets(self, vc):
        vec, core = vc
        raw = build_raw_points(vec, core)
        for k in range(raw.q):
            others = vec.budgets[: core - 1] + vec.budgets[core:]
            assert raw.values[k] == sum(min(k, q) for q in others)


class TestEnvelope:
    def test_core3_segments(self):
        curve = concave_envelope(build_raw_points(VEC, 3))
        assert [(s.start, s.value, s.slope, s.width) for s in curve.segments] == [
            (0, 0, Fraction(3), 2),
            (2, 6, Fraction(5, 3), 3),
        ]

    def test_core4_is_identity(self):
        # Increments 3,3,1,1,1,0,0 are non-increasing, so the raw curve is
        # already concave and the envelope reproduces it point for point.
        raw = build_raw_points(VEC, 4)
        curve = concave_envelope(raw)
        for k, v in enumerate(raw.values):
            assert curve.stall_over(1, k) == v

    def test_evaluation_golden(self):
        # 17/2 at rate 7/2, 11 at 5 and 0 at 0, each times the span.
        curve = curve_for_core(VEC, 3)
        assert curve.stall_over(2, 7) == 17
        assert curve.stall_over(1, 5) == 11
        assert curve.stall_over(1, 0) == 0

    def test_rejects_out_of_domain(self):
        # Rates 6 and -1 over one period lie outside [0, q = 5].
        curve = curve_for_core(VEC, 3)
        with pytest.raises(InvariantError):
            curve.stall_over(1, 6)
        with pytest.raises(InvariantError):
            curve.stall_over(1, -1)

    @given(vector_and_core())
    def test_envelope_dominates_raw(self, vc):
        vec, core = vc
        raw = build_raw_points(vec, core)
        curve = concave_envelope(raw)
        for k, v in enumerate(raw.values):
            assert curve.stall_over(1, k) >= v

    @given(vector_and_core())
    def test_envelope_touches_raw_at_start_points(self, vc):
        vec, core = vc
        raw = build_raw_points(vec, core)
        curve = concave_envelope(raw)
        for seg in curve.segments:
            assert seg.value == raw.values[seg.start]

    @given(vector_and_core())
    def test_slopes_strictly_decrease(self, vc):
        vec, core = vc
        curve = curve_for_core(vec, core)
        slopes = [seg.slope for seg in curve.segments]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))

    @given(vector_and_core())
    def test_values_never_decrease(self, vc):
        vec, core = vc
        curve = curve_for_core(vec, core)
        assert all(seg.slope >= 0 for seg in curve.segments)

    @given(vector_and_order())
    @example(((1, 2, 3), (2, 3, 1)))  # core 2's (1, 2) is collinear with (0, 0) and (2, 4)
    @example(((1,), (1,)))
    @example(((1, 1, 1), (3, 1, 2)))
    @settings(max_examples=100)
    def test_compressed_construction_matches_full_hull(self, vo):
        # Every core of a fresh vector's table, built in a drawn order,
        # against the hull of all q + 1 raw points.
        budgets, order = vo
        stall_curve._cached_curve.cache_clear()
        vec = BudgetVector(budgets)
        for core in order:
            fast = curve_for_core(vec, core)
            full = concave_envelope(build_raw_points(vec, core))
            assert fast == full
            assert all(type(seg) is Segment for seg in fast.segments)


@given(vector_and_order(max_m=16))
@example(((1,), (1,)))
@example(((1, 1, 1), (3, 1, 2)))
@example(((1, 2, 3), (2, 3, 1)))
@example(((7, 7, 1, 7, 2), (4, 1, 5, 3, 2)))
@settings(max_examples=200)
def test_core_pieces_are_the_curve_segments(vo):
    # Every core's closed-form pieces, read from a fresh table in a drawn
    # order before any curve is built, are its curve's segments, each with
    # coeff (Q - value) * width + rise * start and key -floor(rise * Q^2 / width).
    budgets, order = vo
    stall_curve._cached_curve.cache_clear()
    vec = BudgetVector(budgets)
    q_total = vec.total
    pieces = {core: stall_curve._core_pieces(vec, core) for core in order}
    for core in order:
        assert pieces[core] == tuple(
            ((q_total - value) * width + rise * start, -(rise * q_total**2 // width), rise, width)
            for start, value, rise, width in curve_for_core(vec, core).segments
        )


def test_core_pieces_are_checked():
    # F's pieces are checked as they are first read: a table whose second
    # vertex is forged below the chord has a piece steeper than the one
    # before it. Core 4 (q = 7) reads F's first two pieces, so it meets the
    # forged one; core 3 (q = 5) hulls the forged vertex away and reads none.
    table = stall_curve._CurveTable(VEC.budgets)
    assert (table.xs, table.ys) == ([0, 2, 5, 7], [0, 6, 9, 9])
    table.ys[1] = 2
    assert table.pieces_for(3) == (stall_curve._piece(16, 0, 0, 11, 5, None),)
    assert table.shared == []
    with pytest.raises(InvariantError, match="not strictly flatter"):
        table.pieces_for(4)
    # curve_for_core reads the same checked pieces: on a vector with the
    # forged table pinned, it raises before any StallCurve is built.
    vec = BudgetVector((2, 2, 5, 7))
    object.__setattr__(vec, "_curves", table)
    with pytest.raises(InvariantError, match="not strictly flatter"):
        curve_for_core(vec, 4)
    # Each core's end piece goes through the same check against the piece
    # before it: an equal slope or an empty piece fails.
    before = stall_curve._piece(16, 0, 0, 6, 2, None)
    with pytest.raises(InvariantError, match="not strictly flatter"):
        stall_curve._piece(16, 2, 6, 9, 3, before)
    with pytest.raises(InvariantError, match="empty"):
        stall_curve._piece(16, 2, 6, 0, 0, before)
    with pytest.raises(InvariantError, match="core index"):
        stall_curve._core_pieces(VEC, 5)


class TestStallOver:
    def test_worked_product(self):
        curve = curve_for_core(VEC, 3)
        assert curve.stall_over(9, 35) == Fraction(247, 3)
        assert curve.stall_over(10, 35) == 85

    def test_zero_memory(self):
        assert curve_for_core(VEC, 3).stall_over(4, 0) == 0

    @given(vector_and_core(), st.integers(1, 12), st.data())
    def test_matches_scaled_pointwise_evaluation(self, vc, span, data):
        vec, core = vc
        curve = curve_for_core(vec, core)
        memory = data.draw(st.integers(0, span * curve.q))
        assert curve.stall_over(span, memory) == _value_at(curve, Fraction(memory, span)) * span


def test_curve_serialization_roundtrip_fields():
    curve = curve_for_core(VEC, 3)
    blob = curve.to_json_dict()
    assert blob["q"] == 5
    assert blob["start_points"] == [0, 2]
    assert blob["segments"][1] == {"start": 2, "value": 6, "slope": "5/3", "width": 3}


def test_curve_and_vector_pickle():
    # A vector pickles with the curve table curve_for_core pinned on it.
    vec = BudgetVector(VEC.budgets)
    curve = curve_for_core(vec, 3)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(curve, protocol))
        assert copy == curve
        assert [type(seg) for seg in copy.segments] == [Segment, Segment]
        assert copy.segments[1].slope == Fraction(5, 3)
        twin = pickle.loads(pickle.dumps(vec, protocol))
        assert twin == vec and hash(twin) == hash(vec)
        assert curve_for_core(twin, 3) == curve
        assert curve_for_core(twin, 4) == concave_envelope(build_raw_points(VEC, 4))


def test_segment_stores_integer_rise():
    seg = curve_for_core(VEC, 3).segments[1]
    assert (seg.rise, seg.width, seg.slope) == (5, 3, Fraction(5, 3))
    with pytest.raises(TypeError):
        Segment(2, 6, Fraction(5, 3), 3)


@pytest.mark.parametrize(
    ("q", "segments", "message"),
    [
        (6, ((0, 0, 3, 2), (2, 3, 6, 4)), "concavity"),  # slopes 3/2 and 6/4 are equal
        (5, ((0, 0, 3, 2), (2, 4, 1, 3)), "continuous"),  # the first piece ends at 3, not 4
    ],
)
def test_curve_rejects_bad_segments(q, segments, message):
    pieces = tuple(Segment(start=x, value=y, rise=r, width=w) for x, y, r, w in segments)
    with pytest.raises(InvariantError, match=message):
        StallCurve(core=1, q=q, segments=pieces)


def test_single_core_curve_is_zero():
    curve = curve_for_core(BudgetVector((4,)), 1)
    assert curve.stall_over(1, 4) == 0
    assert curve.stall_over(3, 12) == 0


def test_curve_requires_valid_core():
    with pytest.raises(InvariantError):
        curve_for_core(VEC, 5)
    with pytest.raises(InvariantError):
        curve_for_core(VEC, 0)


def test_envelope_instance_is_stall_curve():
    assert isinstance(curve_for_core(VEC, 3), StallCurve)


def _curve(q, segments):
    return StallCurve(core=1, q=q, segments=tuple(Segment(start=x, value=y, rise=r, width=w) for x, y, r, w in segments))


@pytest.mark.parametrize(
    ("build", "message"),
    [
        pytest.param(lambda: RawStallPoints(core=1, values=(0,)), "need q", id="raw-one-point"),
        pytest.param(lambda: RawStallPoints(core=1, values=(1, 2)), r"I\(0\) must be 0", id="raw-nonzero-origin"),
        pytest.param(lambda: RawStallPoints(core=1, values=(0, 3, 2)), "non-decreasing", id="raw-decreasing"),
        pytest.param(lambda: _curve(2, ()), "at least one segment", id="curve-empty"),
        pytest.param(lambda: _curve(2, ((0, 1, 2, 2),)), r"must start at \(0, 0\)", id="curve-off-origin"),
        pytest.param(lambda: _curve(3, ((0, 0, 2, 1), (2, 2, 1, 1))), "without gaps", id="curve-gap"),
        pytest.param(lambda: _curve(2, ((0, 0, 2, 2), (2, 2, 1, 0))), "widths must be >= 1", id="curve-zero-width"),
        pytest.param(lambda: _curve(3, ((0, 0, 2, 2),)), "domain is", id="curve-short-domain"),
        pytest.param(lambda: curve_for_core(VEC, 3).stall_over(2, -1), "outside feasible range", id="ratio-negative"),
        pytest.param(lambda: curve_for_core(VEC, 3).stall_over(2, 11), "outside feasible range", id="ratio-over-q"),
        pytest.param(lambda: curve_for_core(VEC, 3).stall_over(0, 5), "outside feasible range", id="ratio-span-zero"),
    ],
)
def test_invariant_checks(build, message):
    with pytest.raises(InvariantError, match=message):
        build()
