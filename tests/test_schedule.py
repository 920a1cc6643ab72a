"""Regulation config, workloads, memory schedules, and scenario parsing."""

import dataclasses
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membw import (
    BudgetInterval,
    BudgetVector,
    InvariantError,
    MemorySchedule,
    RegulationConfig,
    Scenario,
    ScenarioError,
    ScheduleExhaustedError,
    Workload,
    deadline_periods,
    parse_scenario,
    split_span,
)

VEC = BudgetVector((2, 2, 5, 7))
THREE_INTERVALS = MemorySchedule(
    intervals=(
        BudgetInterval(budgets=VEC, length=5),
        BudgetInterval(budgets=BudgetVector((2, 3, 7, 4)), length=3),
        BudgetInterval(budgets=BudgetVector((4, 4, 4, 4)), length=None),
    )
)


class TestRegulationConfig:
    def test_holds_only_its_three_parameters(self):
        cfg = RegulationConfig(period=Fraction(16), l_max=Fraction(3))
        assert [f.name for f in dataclasses.fields(cfg)] == ["period", "l_max", "q_total"]
        twin = RegulationConfig(period=Fraction(16), l_max=Fraction(3))
        assert pickle.loads(pickle.dumps(cfg)) == cfg == twin
        assert hash(cfg) == hash(twin)
        assert cfg != RegulationConfig(period=Fraction(16), l_max=Fraction(3), q_total=5)

    def test_q_defaults_to_period_over_latency(self):
        cfg = RegulationConfig(period=Fraction(16), l_max=Fraction(1))
        assert cfg.transactions_per_period == 16

    def test_q_default_floors(self):
        cfg = RegulationConfig(period=Fraction(1, 1000), l_max=Fraction(24, 10_000_000))
        assert cfg.transactions_per_period == 416

    def test_explicit_q_overrides_and_rescales_slot(self):
        cfg = RegulationConfig(period=Fraction(1, 1000), l_max=Fraction(24, 10_000_000), q_total=41666)
        assert cfg.transactions_per_period == 41666

    def test_rejects_nonpositive(self):
        with pytest.raises(InvariantError):
            RegulationConfig(period=Fraction(0), l_max=Fraction(1))
        with pytest.raises(InvariantError):
            RegulationConfig(period=Fraction(1), l_max=Fraction(-1))


class TestWorkload:
    def test_requires_some_execution(self):
        with pytest.raises(InvariantError):
            Workload(execution=0, memory=5)

    def test_memory_may_be_zero(self):
        assert Workload(execution=1, memory=0).memory == 0


class TestMemorySchedule:
    def test_static_is_one_unbounded_interval(self):
        sched = MemorySchedule.static(VEC)
        assert len(sched.intervals) == 1
        assert sched.intervals[0].length is None

    def test_rejects_mismatched_core_counts(self):
        with pytest.raises(InvariantError):
            MemorySchedule(
                intervals=(
                    BudgetInterval(budgets=VEC, length=2),
                    BudgetInterval(budgets=BudgetVector((8, 8)), length=None),
                )
            )

    def test_rejects_mismatched_totals(self):
        with pytest.raises(InvariantError):
            MemorySchedule(
                intervals=(
                    BudgetInterval(budgets=VEC, length=2),
                    BudgetInterval(budgets=BudgetVector((1, 1, 1, 1)), length=None),
                )
            )

    def test_rejects_interval_after_unbounded(self):
        with pytest.raises(InvariantError):
            MemorySchedule(
                intervals=(
                    BudgetInterval(budgets=VEC, length=None),
                    BudgetInterval(budgets=VEC, length=2),
                )
            )

    def test_rejects_empty(self):
        with pytest.raises(InvariantError):
            MemorySchedule(intervals=())


class TestSplitSpan:
    def test_prefix_greedy(self):
        assert split_span(THREE_INTERVALS, 7) == (5, 2, 0)
        assert split_span(THREE_INTERVALS, 3) == (3, 0, 0)
        assert split_span(THREE_INTERVALS, 20) == (5, 3, 12)

    def test_zero_span(self):
        assert split_span(THREE_INTERVALS, 0) == (0, 0, 0)

    def test_exhaustion_reports_shortfall(self):
        bounded = MemorySchedule(
            intervals=(
                BudgetInterval(budgets=VEC, length=5),
                BudgetInterval(budgets=VEC, length=3),
            )
        )
        with pytest.raises(ScheduleExhaustedError) as exc:
            split_span(bounded, 9)
        assert exc.value.shortfall == 1

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_splits_are_monotone_in_span(self, a, b):
        lo, hi = sorted((a, b))
        s_lo = split_span(THREE_INTERVALS, lo)
        s_hi = split_span(THREE_INTERVALS, hi)
        assert sum(s_lo) == lo and sum(s_hi) == hi
        assert all(x <= y for x, y in zip(s_lo, s_hi))


def test_deadline_periods_floors():
    cfg = RegulationConfig(period=Fraction(16), l_max=Fraction(1))
    wl = Workload(execution=4, memory=4, deadline=Fraction(100))
    assert deadline_periods(wl, cfg) == 6


POSITIVE = st.fractions(min_value=Fraction(1, 10**9), max_value=10**6, max_denominator=10**9)


@pytest.mark.parametrize("override", [False, True])
@given(
    l_max=POSITIVE,
    ratio=st.fractions(min_value=1, max_value=10**5, max_denominator=10**6),
    q=st.integers(1, 10**6),
    deadline=POSITIVE,
)
def test_deadline_periods_matches_fraction_division(override, l_max, ratio, q, deadline):
    cfg = RegulationConfig(period=l_max * ratio, l_max=l_max, q_total=q if override else None)
    wl = Workload(execution=1, memory=0, deadline=deadline)
    assert deadline_periods(wl, cfg) == int(deadline / cfg.period)


def test_deadline_periods_requires_deadline():
    cfg = RegulationConfig(period=Fraction(16), l_max=Fraction(1))
    with pytest.raises(InvariantError):
        deadline_periods(Workload(execution=4, memory=4), cfg)


STATIC_SCENARIO = """
{
  "config": {"P": 16, "L_max": 1},
  "schedule": [{"budgets": [2, 2, 5, 7], "length": "unbounded"}],
  "workloads": [{"core": 3, "E": 40, "mu": 35}]
}
"""


class TestScenarioParsing:
    def test_parses_static_example(self):
        sc = parse_scenario(STATIC_SCENARIO)
        assert sc.config.transactions_per_period == 16
        assert sc.schedule.intervals[0].budgets == VEC
        wl = sc.workload_for_core(3)
        assert (wl.execution, wl.memory, wl.deadline) == (40, 35, None)

    def test_decimal_latency_is_exact(self):
        sc = parse_scenario(
            '{"config": {"P": 0.001, "L_max": 2.4e-6, "Q": 41666},'
            ' "schedule": [{"budgets": [20833, 20833], "length": "unbounded"}],'
            ' "workloads": [{"core": 1, "E": 5, "mu": 5}]}'
        )
        assert sc.config.period == Fraction(1, 1000)
        assert sc.config.l_max == Fraction(24, 10_000_000)

    def test_deadline_parses_to_fraction(self):
        sc = parse_scenario(
            '{"config": {"P": 16, "L_max": 1},'
            ' "schedule": [{"budgets": [8, 8], "length": "unbounded"}],'
            ' "workloads": [{"core": 1, "E": 5, "mu": 5, "D": 160}]}'
        )
        assert sc.workload_for_core(1).deadline == 160

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"config": {"P": 16}}',
            '{"config": {"P": 16, "L_max": 1}, "schedule": [], "workloads": []}',
            # budgets do not sum to the configured total
            '{"config": {"P": 16, "L_max": 1, "Q": 20},'
            ' "schedule": [{"budgets": [2, 2, 5, 7], "length": "unbounded"}],'
            ' "workloads": [{"core": 1, "E": 1, "mu": 0}]}',
            # workload core outside the vector
            '{"config": {"P": 16, "L_max": 1},'
            ' "schedule": [{"budgets": [8, 8], "length": "unbounded"}],'
            ' "workloads": [{"core": 3, "E": 1, "mu": 0}]}',
            # duplicate workload core
            '{"config": {"P": 16, "L_max": 1},'
            ' "schedule": [{"budgets": [8, 8], "length": "unbounded"}],'
            ' "workloads": [{"core": 1, "E": 1, "mu": 0}, {"core": 1, "E": 2, "mu": 0}]}',
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    @pytest.mark.parametrize(
        ("schedule", "workloads", "message"),
        [
            (
                [{"budgets": [8, 8], "length": "unbounded"}],
                [{"core": 1, "E": 1, "mu": 0}, {"core": 2, "E": 1, "mu": 0}, {"core": 1, "E": 2, "mu": 0}],
                "scenario: workloads[2]: duplicate core 1",
            ),
            ([{"budgets": [8, True, 1.5], "length": "unbounded"}], None, "scenario: schedule[0].budgets[1] must be an integer, got True"),
            (
                [{"budgets": [8, 8], "length": 2}, {"budgets": [4, 4, "x"], "length": "unbounded"}],
                None,
                "scenario: schedule[1].budgets[2] must be an integer, got 'x'",
            ),
            ([{"budgets": [16, None], "length": "unbounded"}], None, "scenario: schedule[0].budgets[1] must be an integer, got None"),
            ([{"budgets": [8, 0], "length": "unbounded"}], None, "scenario: budget vector: every budget must be an integer >= 1, got q_2 = 0"),
            ([{"budgets": [], "length": "unbounded"}], None, "scenario: budget vector: at least one core required"),
            ([{"budgets": 16, "length": "unbounded"}], None, "scenario: schedule[0].budgets must be an array"),
        ],
    )
    def test_rejection_messages(self, schedule, workloads, message):
        # The first bad budget or repeated core is the one named.
        doc = {"config": {"P": 16, "L_max": 1}, "schedule": schedule, "workloads": workloads or [{"core": 1, "E": 1, "mu": 0}]}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(doc))
        assert str(exc.value) == message

    def test_rejects_invalid_json(self):
        with pytest.raises(ScenarioError):
            parse_scenario("{not json")


# Values of every JSON type the parser can meet.
_LEAVES = st.one_of(
    st.integers(-2, 20),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.just("unbounded"),
)
_VALUES = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=6)
_SMALL = st.integers(1, 20)


def _mostly(plausible, other):
    """``plausible`` three times in four, else ``other``, so that documents
    often get deep into validation."""
    return st.sampled_from((plausible, plausible, plausible, other)).flatmap(lambda strategy: strategy)


def _field(plausible):
    return _mostly(plausible, _VALUES)


def _objects(required: dict, optional: dict | None = None):
    """Mostly objects with the required keys; else any subset of all keys, or a stray value."""
    optional = optional or {}
    anything = st.one_of(st.fixed_dictionaries({}, optional={**required, **optional}), _VALUES)
    return _mostly(st.fixed_dictionaries(required, optional=optional), anything)


_DOCUMENTS = _objects(
    {
        "config": _objects(
            {"P": _field(st.integers(8, 100)), "L_max": _field(st.just(1))},
            {"Q": _field(st.integers(8, 100)), "L_min": _field(_SMALL), "L_size": _field(_SMALL)},
        ),
        "schedule": _field(
            st.lists(
                _objects({"budgets": _field(st.lists(_SMALL, min_size=1, max_size=4)),
                          "length": _field(st.one_of(_SMALL, st.just("unbounded")))}),
                min_size=1,
                max_size=3,
            )
        ),
        "workloads": _field(
            st.lists(
                _objects({"core": _field(st.integers(0, 5)), "E": _field(_SMALL), "mu": _field(_SMALL)}, {"D": _field(st.integers(1, 500))}),
                min_size=1,
                max_size=3,
            )
        ),
    }
)


@given(_DOCUMENTS)
@settings(max_examples=500, deadline=None)
def test_parse_scenario_fuzz(doc):
    # Every document is either a scenario or a ScenarioError, never a
    # traceback from deeper down.
    try:
        assert isinstance(parse_scenario(json.dumps(doc)), Scenario)
    except ScenarioError:
        pass


def test_repo_scenarios_parse(tmp_path):
    from membw import load_scenario

    for name in ("static_worked_example.json", "dynamic_worked_example.json"):
        sc = load_scenario(f"scenarios/{name}")
        assert sc.config.transactions_per_period == 16


@pytest.mark.parametrize(
    ("build", "message"),
    [
        pytest.param(lambda: Workload(execution=1, memory=-1), "mu must be an integer >= 0", id="negative-mu"),
        pytest.param(lambda: Workload(execution=1, memory=0, deadline=Fraction(0)), "deadline must be > 0", id="zero-deadline"),
        pytest.param(lambda: BudgetInterval(budgets=VEC, length=0), "length must be an integer >= 1", id="zero-length"),
        pytest.param(
            lambda: RegulationConfig(period=Fraction(16), l_max=Fraction(1), q_total=0), "q_total override", id="zero-q"
        ),
        pytest.param(
            lambda: RegulationConfig(period=Fraction(1), l_max=Fraction(2)), "at least one transaction", id="latency-over-period"
        ),
        pytest.param(lambda: split_span(THREE_INTERVALS, -1), "span must be >= 0", id="negative-span"),
    ],
)
def test_invariant_checks(build, message):
    with pytest.raises(InvariantError, match=message):
        build()
