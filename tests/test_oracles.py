"""Brute-force references: per-period stall DP, distribution enumeration,
and exhaustive access-pattern simulation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membw import (
    BudgetInterval,
    BudgetVector,
    InvariantError,
    MemorySchedule,
    OracleTooLargeError,
    RegulationConfig,
    Workload,
    analyze_dynamic,
    build_raw_points,
    curve_for_core,
    oracle_distribute,
    oracle_max_stall,
    worst_case_span_by_simulation,
)

EVEN4 = BudgetVector((4, 4, 4, 4))
VEC = BudgetVector((2, 2, 5, 7))


class TestMaxStallDP:
    def test_even_vector_golden(self):
        raw = build_raw_points(EVEN4, 1)
        # Worst placement of 10 transactions over 3 periods of budget 4:
        # (4,4,2) -> 12+12+6 = 30.
        assert oracle_max_stall(10, 3, raw) == 30

    def test_zero_memory(self):
        assert oracle_max_stall(0, 5, build_raw_points(VEC, 3)) == 0

    def test_rejects_memory_beyond_capacity(self):
        with pytest.raises(InvariantError):
            oracle_max_stall(16, 3, build_raw_points(VEC, 3))

    def test_envelope_strictly_above_dp_when_mixture_fractional(self):
        # One period, 3 transactions on the {2,2,5,7} core-3 curve: the raw
        # value I(3) = 7 but the envelope interpolates to 23/3. The analyzers
        # are allowed to be conservative here; the DP is the exact optimum.
        raw = build_raw_points(VEC, 3)
        curve = curve_for_core(VEC, 3)
        assert oracle_max_stall(3, 1, raw) == 7
        assert curve.stall_over(1, 3) == Fraction(23, 3)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_dominated_by_envelope_bound(self, data):
        m = data.draw(st.integers(2, 4))
        budgets = BudgetVector(tuple(data.draw(st.integers(1, 6)) for _ in range(m)))
        core = data.draw(st.integers(1, m))
        span = data.draw(st.integers(1, 8))
        raw = build_raw_points(budgets, core)
        memory = data.draw(st.integers(0, span * raw.q))
        bound = curve_for_core(budgets, core).stall_over(span, memory)
        assert bound >= oracle_max_stall(memory, span, raw)


class TestDistributeEnumeration:
    def test_worked_instance(self):
        raws = tuple(
            build_raw_points(v, 3)
            for v in (VEC, BudgetVector((2, 3, 7, 4)), EVEN4)
        )
        best, assign = oracle_distribute((5, 1, 0), 25, raws)
        assert best == 58
        assert assign == (22, 3, 0)
        # The same optimum from raw points cut after the last nonzero split.
        assert oracle_distribute((5, 1, 0), 25, raws[:2]) == (best, assign)

    def test_guard_trips_on_huge_spaces(self):
        big = BudgetVector((2000, 2000))
        raws = (build_raw_points(big, 1),) * 3
        with pytest.raises(OracleTooLargeError):
            oracle_distribute((2, 2, 2), 6000, raws)

    def test_split_count_must_match(self):
        with pytest.raises(InvariantError):
            oracle_distribute((1, 1), 0, (build_raw_points(VEC, 3),))

    @pytest.mark.parametrize(
        ("splits", "count"),
        [
            # A nonzero split without raw points, at the end and past a zero.
            ((5, 1, 0), 1),
            ((5, 0, 1), 2),
            ((5,), 0),
            # More raw points than splits.
            ((5, 1), 3),
            ((0,), 2),
        ],
    )
    def test_raws_must_cover_the_reached_prefix(self, splits, count):
        message = {
            (5, 1, 0): "1 raw point set does not cover the reached prefix of 3 splits",
            (5, 0, 1): "2 raw point sets do not cover the reached prefix of 3 splits",
            (5,): "0 raw point sets do not cover the reached prefix of 1 split",
            (5, 1): "3 raw point sets do not cover the reached prefix of 2 splits",
            (0,): "2 raw point sets do not cover the reached prefix of 1 split",
        }[splits]
        raws = tuple(build_raw_points(v, 3) for v in (VEC, BudgetVector((2, 3, 7, 4)), EVEN4))
        with pytest.raises(InvariantError, match="reached prefix") as exc:
            oracle_distribute(splits, 25, raws[:count])
        assert str(exc.value) == f"oracle_distribute: {message}"


class TestSimulation:
    def test_even_vector_reaches_the_bound(self):
        cfg = RegulationConfig(period=Fraction(16), l_max=Fraction(1))
        wl = Workload(execution=5, memory=10)
        schedule = MemorySchedule.static(EVEN4)
        bound = analyze_dynamic(wl, schedule, 1, cfg).span
        assert bound == 3
        assert worst_case_span_by_simulation(wl, schedule, 1, horizon=bound) == 3

    def test_sentinel_when_horizon_too_short(self):
        wl = Workload(execution=5, memory=10)
        schedule = MemorySchedule.static(EVEN4)
        assert worst_case_span_by_simulation(wl, schedule, 1, horizon=2) == 3

    def test_pure_execution(self):
        wl = Workload(execution=17, memory=0)
        schedule = MemorySchedule.static(EVEN4)
        # 17 slots at 16 per period: two periods, no stall possible.
        assert worst_case_span_by_simulation(wl, schedule, 1, horizon=4) == 2

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(InvariantError):
            worst_case_span_by_simulation(Workload(execution=1, memory=0), MemorySchedule.static(EVEN4), 1, horizon=0)


def test_simulation_never_exceeds_analysis_batch():
    # Small seeded end-to-end soundness sample (the acceptance suite runs the
    # full 200-scenario version).
    rng = random.Random(909)
    for _ in range(25):
        m = rng.randint(2, 3)
        n = rng.randint(1, 3)
        total = None
        intervals = []
        for j in range(n):
            if total is None:
                budgets = tuple(rng.randint(1, 4) for _ in range(m))
                total = sum(budgets)
            else:
                budgets = _composition(rng, total, m)
            length = None if j == n - 1 else rng.randint(1, 4)
            intervals.append(BudgetInterval(budgets=BudgetVector(budgets), length=length))
        schedule = MemorySchedule(intervals=tuple(intervals))
        cfg = RegulationConfig(period=Fraction(total), l_max=Fraction(1))
        core = rng.randint(1, m)
        wl = Workload(execution=rng.randint(1, 6), memory=rng.randint(0, 8))
        bound = analyze_dynamic(wl, schedule, core, cfg).span
        assert worst_case_span_by_simulation(wl, schedule, core, horizon=bound) <= bound


def _composition(rng: random.Random, total: int, m: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, total), m - 1))
    edges = [0, *cuts, total]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize(("memory", "span"), [(-1, 2), (3, -1)])
def test_max_stall_rejects_negative_inputs(memory, span):
    with pytest.raises(InvariantError, match="must be >= 0"):
        oracle_max_stall(memory, span, build_raw_points(EVEN4, 1))
