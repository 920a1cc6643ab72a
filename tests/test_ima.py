"""Partition-set generation, budget policies, and the schedulability sweep."""

import dataclasses
import gc
import hashlib
import itertools
import random
from fractions import Fraction
from typing import ClassVar

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from membw import (
    AnalysisStatus,
    BudgetInterval,
    BudgetVector,
    IntervalBreakdown,
    MemorySchedule,
    RegulationConfig,
    TraceEntry,
    Workload,
    analyze_dynamic,
    analyze_static,
    deadline_periods,
    worst_case_span_by_simulation,
)
from membw import ima
from membw.errors import InvariantError
from membw.ima import (
    POLICIES,
    DynamicPolicyOutcome,
    ExperimentConfig,
    Partition,
    PartitionSet,
    Ratio,
    SweepConfig,
    SweepPoint,
    _derive_seed,
    _largest_remainder,
    _round_half_up,
    evaluate_schedulability,
    generate_partition_set,
    policy_dy,
    policy_se,
    policy_su,
    preset_sweep,
    rows_to_csv,
    run_sweep,
    _demand_sums,
    _reclaim_vector,
    split_budget_by_weights,
)
from membw.static_analysis import _static_span

CFG = ExperimentConfig(m=4, mir=Fraction(1, 4), u=Fraction(1, 2))


def _set(seed: int = 42, config: ExperimentConfig = CFG):
    return generate_partition_set(config, random.Random(seed))


def _drawn(seed: int = 42, config: ExperimentConfig = CFG) -> dict[int, tuple[Fraction, Fraction]]:
    """Each partition's exact (MI, U) by id, from a Fraction replay of the
    draw order the ima module documents: the HIGH-mode sample, the core
    permutation, UUniFast per core in core order, then MI per id."""
    rng = random.Random(seed)
    ppc = config.partitions_per_core
    n = config.m * ppc
    high = set(rng.sample(range(n), int(config.mir * n + Fraction(1, 2))))
    perm = list(range(n))
    rng.shuffle(perm)
    util = {}
    for pos in range(0, n, ppc):
        left = Fraction(config.u)
        for i, pid in zip(range(ppc - 1, -1, -1), sorted(perm[pos : pos + ppc])):
            kept = Fraction(rng.random() ** (1.0 / i)) if i else Fraction(0)
            util[pid], left = left * (1 - kept), left * kept
    high_range, low_range = tuple(map(float, config.high_range)), tuple(map(float, config.low_range))
    return {pid: (Fraction(rng.uniform(*(high_range if pid in high else low_range))), util[pid]) for pid in range(n)}


def _assert_replayed(pset: PartitionSet, seed: int, config: ExperimentConfig) -> None:
    """Each partition's (E, mu) is its replayed demand rounded half up, E at
    least 1, and each core's replayed utilizations sum to U."""
    drawn = _drawn(seed, config)
    for p in pset.partitions:
        mi, util = drawn[p.id]
        demand = util * config.hyperperiod / config.slot
        assert p.execution == max(1, int(demand * (1 - mi) + Fraction(1, 2)))
        assert p.memory == int(demand * mi + Fraction(1, 2))
    for core in range(1, config.m + 1):
        assert sum(drawn[p.id][1] for p in pset.by_core(core)) == config.u


@pytest.fixture(scope="module")
def edge_sets():
    """60 seeded sets at each edge point: m 2/16 x MIr 0/1 x U 1/100, 1, 3/2,
    each with its replayed (MI, U) by id.

    At U = 1/100 UUniFast yields a few utilizations so small that E rounds
    to 0 and is clamped to 1, or mu rounds to 0.
    """
    sets = []
    us = (Fraction(1, 100), Fraction(1), Fraction(3, 2))
    for m, mir, u in itertools.product((2, 16), (Fraction(0), Fraction(1)), us):
        cfg = ExperimentConfig(m=m, mir=mir, u=u)
        for index in range(60):
            seed = _derive_seed(1, m, mir, u, index)
            sets.append((cfg, generate_partition_set(cfg, random.Random(seed)), _drawn(seed, cfg)))
    return sets


class TestExperimentConfig:
    def test_model_constants_and_inputs(self):
        # A sweep point sets only (m, MIr, U); the model's constants must
        # agree with each other, and m must leave each core >= 1 transaction.
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == ["m", "mir", "u"]
        assert ExperimentConfig.hyperperiod_periods * ExperimentConfig.period == ExperimentConfig.hyperperiod
        assert ExperimentConfig.slot * ExperimentConfig.q_total == ExperimentConfig.period
        assert ExperimentConfig.regulation.transactions_per_period == ExperimentConfig.q_total
        assert ExperimentConfig.hyperperiod_slots * ExperimentConfig.slot == ExperimentConfig.hyperperiod
        for m in (1, ExperimentConfig.q_total + 1):
            with pytest.raises(InvariantError):
                ExperimentConfig(m=m, mir=Fraction(1, 4), u=Fraction(1, 2))

    def test_mir_and_u_must_be_exact(self):
        # A float (or a bool) passes the range checks but would make the
        # generated utilizations inexact.
        half = Fraction(1, 2)
        for mir, u in ((0.25, half), (half, 0.5), (True, half), (half, True)):
            with pytest.raises(InvariantError):
                ExperimentConfig(m=4, mir=mir, u=u)
        # An int is exact and draws the same set as the equal Fraction; the
        # range's ends are accepted as ints and as Fractions.
        for mir, u in ((0, 1), (1, 2)):
            as_int = ExperimentConfig(m=4, mir=mir, u=u)
            as_fraction = ExperimentConfig(m=4, mir=Fraction(mir), u=Fraction(u))
            assert generate_partition_set(as_int, random.Random(5)) == generate_partition_set(as_fraction, random.Random(5))
        for mir in (0, 1, Fraction(0), Fraction(1)):
            assert ExperimentConfig(m=4, mir=mir, u=Fraction(1, 2)).mir == mir

    def test_m_must_be_an_int(self):
        # A float or bool m passes the range check, and a float m would
        # fail later, inside generation, with a TypeError.
        for m in (4.0, Fraction(4), True):
            with pytest.raises(InvariantError, match="m must be an int"):
                ExperimentConfig(m=m, mir=Fraction(1, 4), u=Fraction(1, 2))


@pytest.mark.parametrize(
    ("mir", "u", "message"),
    [
        pytest.param(Fraction(-1, 4), Fraction(1, 2), r"MIr must lie in \[0, 1\]", id="mir-below-0"),
        pytest.param(Fraction(5, 4), Fraction(1, 2), r"MIr must lie in \[0, 1\]", id="mir-above-1"),
        pytest.param(Fraction(-1, 100), Fraction(1, 2), r"MIr must lie in \[0, 1\]", id="mir-just-below-0"),
        pytest.param(Fraction(101, 100), Fraction(1, 2), r"MIr must lie in \[0, 1\]", id="mir-just-above-1"),
        pytest.param(-1, Fraction(1, 2), r"MIr must lie in \[0, 1\]", id="mir-int-below-0"),
        pytest.param(2, Fraction(1, 2), r"MIr must lie in \[0, 1\]", id="mir-int-above-1"),
        pytest.param(Fraction(1, 4), 0, "U must be > 0", id="u-zero"),
        pytest.param(Fraction(1, 4), Fraction(-1, 2), "U must be > 0", id="u-negative"),
        pytest.param(Fraction(1, 4), Fraction(-1, 100), "U must be > 0", id="u-just-below-0"),
        pytest.param(Fraction(1, 4), Fraction(0), "U must be > 0", id="u-fraction-zero"),
        pytest.param(Fraction(1, 4), -1, "U must be > 0", id="u-int-negative"),
    ],
)
def test_experiment_config_rejects_out_of_range_points(mir, u, message):
    with pytest.raises(InvariantError, match=message):
        ExperimentConfig(m=4, mir=mir, u=u)


class TestGeneration:
    def test_shape(self):
        pset = _set()
        assert len(pset.partitions) == 16
        for core in range(1, 5):
            assert len(pset.by_core(core)) == 4

    def test_per_core_utilization_is_exact(self):
        pset, drawn = _set(), _drawn()
        for core in range(1, 5):
            assert sum(drawn[p.id][1] for p in pset.by_core(core)) == Fraction(1, 2)

    def test_high_mode_count(self):
        drawn = _drawn()
        high = [mi for mi, _ in drawn.values() if mi >= Fraction(1, 2)]
        low = [mi for mi, _ in drawn.values() if mi <= Fraction(1, 10)]
        assert len(high) == 4  # round(0.25 * 16)
        assert len(high) + len(low) == 16

    def test_demands_positive(self):
        pset = _set()
        for p in pset.partitions:
            assert p.execution >= 1
            assert p.memory >= 0

    def test_demand_arithmetic(self):
        # The replayed MI and U give every partition's E and mu.
        pset, drawn = _set(7), _drawn(7)
        slot = CFG.slot
        for p in pset.partitions:
            mi, util = drawn[p.id]
            demand = util * CFG.hyperperiod / slot
            assert p.execution == max(1, int(demand * (1 - mi) + Fraction(1, 2)))
            assert p.memory == int(demand * mi + Fraction(1, 2))

    def test_demand_arithmetic_at_edge_points(self, edge_sets):
        # test_demand_arithmetic's Fraction reference over the edge points,
        # which include E clamped to 1 and mu rounded to 0.
        clamped = zeroed = 0
        for cfg, pset, drawn in edge_sets:
            for p in pset.partitions:
                mi, util = drawn[p.id]
                demand = util * cfg.hyperperiod / cfg.slot
                rounded_execution = int(demand * (1 - mi) + Fraction(1, 2))
                assert p.execution == max(1, rounded_execution)
                assert p.memory == int(demand * mi + Fraction(1, 2))
                clamped += rounded_execution == 0
                zeroed += p.memory == 0
            for core in range(1, cfg.m + 1):
                assert sum(drawn[p.id][1] for p in pset.by_core(core)) == cfg.u
        assert clamped and zeroed

    def test_edge_digest_is_pinned(self, edge_sets):
        # Every partition of the edge sets, with its replayed MI and U: a
        # change to generation may not move any of them.
        digest = hashlib.sha256()
        for _, pset, drawn in edge_sets:
            for p in pset.partitions:
                mi, util = drawn[p.id]
                digest.update(f"{p.id},{p.core},{mi},{util},{p.execution},{p.memory};".encode())
        assert digest.hexdigest() == "41fccb6c8e4109ae8589862088cde89caee8eeabbd951094f9e8fe14935cb442"

    def test_interior_digest_is_pinned(self):
        # One seeded set per interior point the benchmark draws from (m
        # 4/8/12 x MIr 0.15/0.25/0.50 x U 0.10-0.90 step 0.01, 729 sets):
        # a change to generation may not move any partition. Every ninth
        # set is also checked against the Fraction replay of its draws.
        digest = hashlib.sha256()
        mirs = (Fraction(15, 100), Fraction(1, 4), Fraction(1, 2))
        us = tuple(Fraction(10 + k, 100) for k in range(81))
        replayed = 0
        for i, (m, mir, u) in enumerate(itertools.product((4, 8, 12), mirs, us)):
            cfg = ExperimentConfig(m=m, mir=mir, u=u)
            seed = _derive_seed(1, m, mir, u, 0)
            pset = generate_partition_set(cfg, random.Random(seed))
            for p in pset.partitions:
                digest.update(f"{p.id},{p.core},{p.execution},{p.memory};".encode())
            if i % 9 == 0:
                _assert_replayed(pset, seed, cfg)
                replayed += 1
            digest.update(b"|")
        assert replayed == 81
        assert digest.hexdigest() == "2bbe50ceb18a252cbd3b49eb0e49fd5eddbfebf920f5bf9b4701af2dd711bf43"

    def test_generation_builds_no_fraction(self, monkeypatch):
        # Generation computes E and mu in integers and keeps no MI or U, so
        # drawing a set constructs no Fraction through the module's name.
        configs = [ExperimentConfig(m=m, mir=Fraction(1, 4), u=Fraction(1, 2)) for m in (2, 8)]
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return Fraction(*args, **kwargs)

        monkeypatch.setattr(ima, "Fraction", counting)
        for cfg in configs:
            generate_partition_set(cfg, random.Random(5))
        assert built == []

    def test_partitions_carry_no_instance_dict(self):
        # The records that partitions and by_core build on each call stay
        # slotted and frozen, and so does the set.
        pset = _set()
        assert not hasattr(pset, "__dict__")
        assert not any(hasattr(p, "__dict__") for p in pset.partitions)
        for p in pset.partitions[:3]:
            for name in ("id", "core", "execution", "memory"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(p, name, 0)
        assert pset.partitions[0] == Partition(*dataclasses.astuple(pset.partitions[0]))

    def test_by_core_builds_records_in_id_order(self):
        # Each call builds the core's records from the columns; nothing is
        # cached on the set.
        pset = _set(11)
        for core in range(1, CFG.m + 1):
            group = pset.by_core(core)
            assert group == tuple(p for p in pset.partitions if p.core == core)
            assert pset.by_core(core) == group and pset.by_core(core) is not group
            assert [p.id for p in group] == sorted(p.id for p in group)
        assert pset.by_core(0) == pset.by_core(-1) == pset.by_core(CFG.m + 1) == ()
        assert [p.id for p in pset.partitions] == list(range(len(pset.partitions)))
        assert pset == _set(11)
        # A core below the largest with no partition has an empty run.
        records = [Partition(id=pid, core=core, execution=10, memory=pid) for pid, core in enumerate((4, 1, 3))]
        sparse = PartitionSet.from_partitions(records)
        assert sparse.bounds == (0, 1, 1, 2, 3)
        assert sparse.by_core(2) == sparse.by_core(5) == ()
        assert sparse.by_core(4) == (records[0],)
        assert sparse.partitions == tuple(records)
        assert PartitionSet.from_partitions([]) == PartitionSet((), (), (), (0,))
        with pytest.raises(InvariantError):
            PartitionSet.from_partitions([Partition(id=0, core=0, execution=1, memory=0)])

    def test_set_is_int_columns(self):
        # A generated set is four tuples of ints in core-major order. No
        # Partition is reachable from it, and once the collector has run it
        # tracks none of the columns: a held set is one tracked object.
        pset = _set(11, ExperimentConfig(m=8, mir=Fraction(1, 4), u=Fraction(1, 2)))
        assert [f.name for f in dataclasses.fields(PartitionSet)] == ["ids", "execution", "memory", "bounds"]
        assert pset.bounds == tuple(range(0, 33, 4))
        assert sorted(pset.ids) == list(range(32))
        reachable, todo = [], [pset]
        while todo:
            for ref in gc.get_referents(todo.pop()):
                if not isinstance(ref, type):
                    reachable.append(ref)
                    todo.append(ref)
        assert not any(isinstance(obj, Partition) for obj in reachable)
        columns = [getattr(pset, f.name) for f in dataclasses.fields(pset)]
        assert all(type(column) is tuple and all(type(v) is int for v in column) for column in columns)
        gc.collect()
        assert gc.is_tracked(pset)
        assert not any(gc.is_tracked(column) for column in columns)

    def test_generation_and_policies_build_no_partition(self, monkeypatch):
        # Generation appends to the columns and every policy reads them, so
        # neither constructs a Partition through the module's name; the
        # counter sees what by_core builds.
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return Partition(*args, **kwargs)

        monkeypatch.setattr(ima, "Partition", counting)
        for m, u in ((2, Fraction(1, 2)), (8, Fraction(1, 2)), (8, Fraction(3, 10))):
            cfg = ExperimentConfig(m=m, mir=Fraction(1, 4), u=u)
            pset = generate_partition_set(cfg, random.Random(5))
            for policy in POLICIES:
                evaluate_schedulability(pset, policy, cfg)
        assert built == []
        assert len(pset.by_core(1)) == len(built) == 4

    def test_from_partitions_round_trips(self, edge_sets):
        for _, pset, _ in edge_sets:
            assert PartitionSet.from_partitions(pset.partitions) == pset
        dy_loses = PartitionSet.from_partitions(Partition(*row) for row in DY_LOSES)
        assert PartitionSet.from_partitions(dy_loses.partitions) == dy_loses
        assert [dataclasses.astuple(p) for p in dy_loses.partitions] == list(DY_LOSES)

    def test_round_half_up_on_ties(self):
        assert [_round_half_up(n, d) for n, d in ((5, 2), (0, 1), (1, 2), (3, 2), (7, 4), (5, 4), (1, 3))] == [
            3, 0, 1, 2, 2, 1, 0,
        ]

    def test_same_seed_same_set(self):
        assert _set(99) == _set(99)

    def test_different_seeds_differ(self):
        assert _set(1) != _set(2)

    def test_odd_high_count_rounds(self):
        cfg = ExperimentConfig(m=8, mir=Fraction(15, 100), u=Fraction(1, 4))
        high = [mi for mi, _ in _drawn(5, cfg).values() if mi >= Fraction(1, 2)]
        assert len(high) == 5  # round(0.15 * 32) = round(4.8)


class TestBudgetSplitting:
    def test_even_policy_remainder_to_low_cores(self):
        assert policy_se(CFG).budgets == (10417, 10417, 10416, 10416)

    def test_even_policy_m8(self):
        cfg = ExperimentConfig(m=8, mir=Fraction(1, 4), u=Fraction(1, 2))
        budgets = policy_se(cfg).budgets
        assert sum(budgets) == 41666
        assert budgets == (5209, 5209, 5208, 5208, 5208, 5208, 5208, 5208)

    def test_weighted_split_sums_to_total(self):
        vec = split_budget_by_weights(41666, [Fraction(1, 100), Fraction(49, 100), Fraction(13, 100), Fraction(37, 100)])
        assert sum(vec.budgets) == 41666
        assert all(b >= 1 for b in vec.budgets)
        # Proportional within the rounding unit.
        assert vec.budgets[1] > vec.budgets[3] > vec.budgets[2] > vec.budgets[0]

    def test_all_zero_weights_falls_back_to_even(self):
        vec = split_budget_by_weights(10, [Fraction(0), Fraction(0)])
        assert vec.budgets == (5, 5)

    def test_too_small_total_rejected(self):
        with pytest.raises(InvariantError):
            split_budget_by_weights(1, [Fraction(1), Fraction(1)])

    def test_su_vector_shape(self):
        vec = policy_su(_set(), CFG)
        assert sum(vec.budgets) == 41666
        assert all(b >= 1 for b in vec.budgets)

    def test_reclaim_vector_worked_case(self):
        # Core 2 has finished and falls to the floor of 1. Live cores 1, 3
        # and 4 have only memory-free partitions, so every live weight is 0
        # and the 4 reclaimed transactions (20 - (5 + 1 + 6 + 4)) split
        # evenly: 4/3 each, a three-way tie in fractional parts that core 1
        # wins by index.
        unfinished = [
            Partition(id=pid, core=core, execution=10, memory=0)
            for pid, core in enumerate((1, 3, 4))
        ]
        sums = _demand_sums(4, PartitionSet.from_partitions(unfinished))
        assert _reclaim_vector(BudgetVector((5, 5, 6, 4)), *sums).budgets == (7, 1, 7, 5)


def _largest_remainder_fraction(total: int, weights: list[Fraction]) -> list[int]:
    """The largest-remainder split computed over Fractions: the reference."""
    total_w = sum(weights)
    if total_w == 0:
        weights = [Fraction(1)] * len(weights)
        total_w = len(weights)
    shares = [total * w / total_w for w in weights]
    floors = [int(s) for s in shares]
    order = sorted(range(len(shares)), key=lambda i: (-(shares[i] - floors[i]), i))
    for i in order[: total - sum(floors)]:
        floors[i] += 1
    return floors


WEIGHT = st.tuples(st.one_of(st.just(0), st.integers(0, 10**7)), st.integers(1, 10**7))


@st.composite
def weight_pairs(draw):
    """1-16 unreduced (num, den) weights: any, drawn from a pool of at most
    three (exact ties, some unreduced alike), or all zero."""
    n = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["any", "ties", "zeros"]))
    if kind == "zeros":
        return [(0, draw(st.integers(1, 50))) for _ in range(n)]
    if kind == "ties":
        pool = draw(st.lists(WEIGHT, min_size=1, max_size=3))
        picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), min_size=n, max_size=n))
        return [(a * k, b * k) for (a, b), k in picks]
    return draw(st.lists(WEIGHT, min_size=n, max_size=n))


@given(total=st.integers(0, 41666), pairs=weight_pairs())
@settings(max_examples=400, deadline=None)
@example(total=4, pairs=[(0, 1), (0, 7), (0, 3)])
@example(total=7, pairs=[(1, 3), (2, 6), (1, 3), (3, 9)])
@example(total=41662, pairs=[(1, 2), (0, 1), (5, 10), (1, 1)])
def test_largest_remainder_matches_the_fraction_form(total, pairs):
    # Same floors and the same remainder order, lower index breaking ties,
    # whether the weights come as unreduced integer ratios or as Fractions.
    expected = _largest_remainder_fraction(total, [Fraction(a, b) for a, b in pairs])
    assert sum(expected) == total
    assert _largest_remainder(total, [Ratio(a, b) for a, b in pairs]) == expected
    assert _largest_remainder(total, [Fraction(a, b) for a, b in pairs]) == expected


class TestDynamicPolicy:
    def test_initial_vector_matches_su(self):
        pset = _set(3)
        outcome = policy_dy(pset, CFG)
        if outcome.schedule is not None:
            assert outcome.schedule.intervals[0].budgets == policy_su(pset, CFG)

    def test_schedule_intervals_are_valid_vectors(self):
        outcome = policy_dy(_set(3), CFG)
        assert outcome.schedulable
        for interval in outcome.schedule.intervals:
            assert sum(interval.budgets.budgets) == 41666
            assert all(b >= 1 for b in interval.budgets.budgets)

    def test_outcome_reads_schedulable_off_its_schedule(self):
        ok = policy_dy(_set(3), CFG)
        failed = DynamicPolicyOutcome(schedule=None, completions={})
        assert (ok.schedulable, failed.schedulable) == (True, False)
        assert [f.name for f in dataclasses.fields(ok)] == ["schedule", "completions"]
        assert not hasattr(ok, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ok.schedule = None

    def test_active_cores_never_drop_below_initial_share(self):
        pset = _set(3)
        outcome = policy_dy(pset, CFG)
        assert outcome.schedulable
        base = outcome.schedule.intervals[0].budgets
        # Reconstruct which cores are still active at each interval boundary
        # from the completion events.
        events = sorted(set(outcome.completions.values()))
        finished_at = {}
        for pid, t in outcome.completions.items():
            core = next(p.core for p in pset.partitions if p.id == pid)
            finished_at.setdefault(core, []).append(t)
        done_after = {core: max(ts) for core, ts in finished_at.items() if len(ts) == 4}
        start = 0
        for interval in outcome.schedule.intervals:
            for core in range(1, CFG.m + 1):
                if core not in done_after or start < done_after[core]:
                    assert interval.budgets.budget_of(core) >= base.budget_of(core)
            if interval.length is None:
                break
            start += interval.length

    @pytest.mark.parametrize(
        ("m", "mir", "u", "seed"),
        [
            pytest.param(4, Fraction(1, 4), Fraction(1, 2), 3, id="m4-mir0.25-u0.50-seed3"),
            pytest.param(4, Fraction(15, 100), Fraction(1, 2), 3, id="m4-mir0.15-u0.50-seed3"),
            pytest.param(4, Fraction(1, 2), Fraction(3, 10), 3, id="m4-mir0.50-u0.30-seed3"),
            pytest.param(8, Fraction(15, 100), Fraction(1, 2), 0, id="m8-mir0.15-u0.50-seed0"),
            pytest.param(8, Fraction(1, 2), Fraction(1, 5), 1, id="m8-mir0.50-u0.20-seed1"),
            pytest.param(12, Fraction(15, 100), Fraction(3, 10), 2, id="m12-mir0.15-u0.30-seed2"),
            pytest.param(12, Fraction(1, 2), Fraction(3, 20), 3, id="m12-mir0.50-u0.15-seed3"),
        ],
    )
    def test_completions_match_reanalysis_of_built_schedule(self, m, mir, u, seed):
        # Soundness of the event construction: every recorded completion must
        # equal what the analyzer says when run over the final as-built
        # schedule from the partition's actual start period. The hypotheses
        # came from closed forms; this replay runs the kernel over the
        # unmerged as-built schedule.
        cfg = ExperimentConfig(m=m, mir=mir, u=u)
        pset = _set(seed, cfg)
        outcome = policy_dy(pset, cfg)
        assert outcome.schedulable
        # The as-built schedule stays unmerged: one interval per event plus
        # the unbounded tail.
        assert len(outcome.schedule.intervals) == len(set(outcome.completions.values())) + 1
        reg = cfg.regulation
        horizon = cfg.hyperperiod_periods
        for core in range(1, cfg.m + 1):
            start = 0
            for part in pset.by_core(core):
                view = _tail(outcome.schedule, start)
                res = analyze_dynamic(part.workload((horizon - start) * cfg.period), view, core, reg)
                assert res.status is AnalysisStatus.CONVERGED
                assert start + res.span == outcome.completions[part.id]
                start += res.span
            assert start <= horizon

    def test_hypotheses_are_computed_at_start_or_after_a_vector_change(self, monkeypatch):
        # A partition's first view, at the event it starts, is the current
        # vector alone: a _static_span call, once per partition. It is
        # viewed again only when the vector changes: a _view_span call,
        # whose intervals built since its start end in a vector other than
        # the unbounded tail's. A hypothesis computed at any other moment
        # breaks one of these. The view holds one interval per run of equal
        # vectors, so no two adjacent intervals share a vector.
        views = []
        static_span, view_span = ima._static_span, ima._view_span

        def at_start(budgets, core, execution, memory, limit):
            views[-1].append((None, budgets, (core, execution, memory)))
            return static_span(budgets, core, execution, memory, limit)

        def later_view(history, budgets, core, execution, memory, limit):
            views[-1].append((history, budgets, (core, execution, memory)))
            return view_span(history, budgets, core, execution, memory, limit)

        monkeypatch.setattr(ima, "_static_span", at_start)
        monkeypatch.setattr(ima, "_view_span", later_view)
        mirs = (Fraction(15, 100), Fraction(1, 4), Fraction(1, 2))
        us = tuple(Fraction(10 + 8 * k, 100) for k in range(11))
        for m, mir, u in itertools.product((4, 8, 12), mirs, us):
            cfg = ExperimentConfig(m=m, mir=mir, u=u)
            views.append([])
            policy_dy(generate_partition_set(cfg, random.Random(_derive_seed(1, m, mir, u, 0))), cfg)
        starts = later = 0
        for set_views in views:
            started = set()
            for history, tail, demand in set_views:
                if history is None:
                    starts += 1
                    assert demand not in started
                    started.add(demand)
                else:
                    later += 1
                    assert demand in started
                    assert history and history[-1].budgets != tail
                    # One interval per run of equal vectors.
                    assert all(a.budgets != b.budgets for a, b in zip(history, history[1:]))
        assert starts > later > 0

    def test_unschedulable_set_reports_no_schedule(self):
        cfg = ExperimentConfig(m=4, mir=Fraction(1, 4), u=Fraction(95, 100))
        outcome = policy_dy(generate_partition_set(cfg, random.Random(3)), cfg)
        assert not outcome.schedulable
        assert outcome.schedule is None

    def test_no_sample_set_passes_su_and_fails_dy(self):
        wins = ties = losses = 0
        cfg = ExperimentConfig(m=4, mir=Fraction(1, 4), u=Fraction(55, 100))
        for seed in range(25):
            pset = generate_partition_set(cfg, random.Random(seed))
            su = evaluate_schedulability(pset, "SU", cfg)
            dy = evaluate_schedulability(pset, "DY", cfg)
            wins += dy and not su
            losses += su and not dy
            ties += su == dy
        assert losses == 0


# (id, core, E, mu) of a set that SU passes and DY fails: DY is not a
# dominance refinement of SU. Partition 20's E is the largest at which SU
# still passes.
DY_LOSES = (
    (0, 2, 407309, 15222), (1, 5, 441877, 8711), (2, 1, 430135, 8166), (3, 6, 134904, 7267),
    (4, 5, 1039594, 44645), (5, 3, 522223, 33934), (6, 5, 497066, 16053), (7, 4, 424879, 22071),
    (8, 4, 915805, 15351), (9, 1, 1373, 37), (10, 3, 322048, 25179), (11, 4, 221924, 14560),
    (12, 1, 230370, 18604), (13, 5, 183239, 8780), (14, 6, 374394, 710930), (15, 3, 106141, 7065),
    (16, 1, 126642, 1424636), (17, 6, 877933, 90834), (18, 2, 564758, 38932), (19, 2, 78921, 3750),
    (20, 6, 644478, 2118), (21, 3, 1182019, 41357), (22, 2, 1092207, 38866), (23, 4, 607118, 18256),
)


def test_dy_can_fail_where_su_passes():
    cfg = ExperimentConfig(m=6, mir=Fraction(1, 10), u=Fraction(21, 50))
    pset = PartitionSet.from_partitions(
        Partition(id=pid, core=core, execution=e, memory=mu) for pid, core, e, mu in DY_LOSES
    )
    assert [evaluate_schedulability(pset, policy, cfg) for policy in POLICIES] == [False, True, False]
    vector = policy_su(pset, cfg)
    assert vector.budgets == (24749, 1651, 1834, 1199, 1334, 10899)
    # Under SU core 6 ends its last partition exactly at H = 128.
    horizon = cfg.hyperperiod_periods
    start, su = 0, {}
    for part in pset.by_core(6):
        workload = part.workload((horizon - start) * cfg.period)
        start += analyze_dynamic(workload, MemorySchedule.static(vector), 6, cfg.regulation).span
        su[part.id] = start
    assert su == {3: 5, 14: 80, 17: 112, 20: 128}
    # Under DY partition 17 ends one period later, and 20 misses H.
    completions = policy_dy(pset, cfg).completions
    assert {pid: completions[pid] for pid in su if pid in completions} == {3: 5, 14: 80, 17: 113}


def _tail(schedule: MemorySchedule, start: int) -> MemorySchedule:
    """The suffix of a schedule beginning ``start`` periods in."""
    remaining = start
    intervals = []
    for interval in schedule.intervals:
        if not intervals and interval.length is not None:
            if remaining >= interval.length:
                remaining -= interval.length
                continue
            if remaining:
                intervals.append(BudgetInterval(budgets=interval.budgets, length=interval.length - remaining))
                remaining = 0
                continue
        intervals.append(interval)
    return MemorySchedule(intervals=tuple(intervals))



class TinyConfig(ExperimentConfig):
    """The IMA model shrunk for the brute-force simulation: 2 partitions per
    core, Q = 9, and H = 8 periods of 1 s, with the slot, the H counts and
    the regulation config re-derived. Generation and the policies read only
    these class constants, so they run unmodified."""

    partitions_per_core: ClassVar[int] = 2
    hyperperiod: ClassVar[Fraction] = Fraction(8)
    period: ClassVar[Fraction] = Fraction(1)
    q_total: ClassVar[int] = 9
    slot: ClassVar[Fraction] = period / q_total
    hyperperiod_periods: ClassVar[int] = int(hyperperiod / period)
    hyperperiod_slots: ClassVar[int] = hyperperiod_periods * q_total
    regulation: ClassVar[RegulationConfig] = RegulationConfig(period=period, l_max=slot, q_total=q_total)


def _bound_the_simulation(pset: PartitionSet, cfg: TinyConfig) -> tuple[set[str], bool, int]:
    """Check each policy's spans on ``pset`` against an oracle that shares
    nothing with the closed forms: every per-period access pattern over the
    schedule from the partition's start, each period charged its raw
    worst-case stall. No pattern may finish later than the span. SE and SU
    are checked under their one vector, DY over its as-built schedule, each
    for a set it calls schedulable.

    Returns the policies that call the set schedulable, whether DY's
    schedule changes vector, and how many DY partitions were checked."""
    horizon = cfg.hyperperiod_periods
    passed = set()
    for policy, vector in (("SE", policy_se(cfg)), ("SU", policy_su(pset, cfg))):
        if not evaluate_schedulability(pset, policy, cfg):
            continue
        passed.add(policy)
        static = MemorySchedule.static(vector)
        for core in range(1, cfg.m + 1):
            start = 0
            for part in pset.by_core(core):
                span = _static_span(vector, core, part.execution, part.memory, horizon - start)
                workload = Workload(execution=part.execution, memory=part.memory)
                assert worst_case_span_by_simulation(workload, static, core, horizon - start) <= span
                start += span
    outcome = policy_dy(pset, cfg)
    if not outcome.schedulable:
        return passed, False, 0
    passed.add("DY")
    checked = 0
    for core in range(1, cfg.m + 1):
        start = 0
        for part in pset.by_core(core):
            end = outcome.completions[part.id]
            workload = Workload(execution=part.execution, memory=part.memory)
            view = _tail(outcome.schedule, start)
            assert worst_case_span_by_simulation(workload, view, core, horizon - start) <= end - start
            checked += 1
            start = end
    return passed, len({iv.budgets for iv in outcome.schedule.intervals}) > 1, checked


def test_dy_completions_bound_the_simulated_worst_case():
    # Every policy against the brute-force simulation on 300 seeded sets.
    schedulable = changed = checked = 0
    static_sets = {"SE": 0, "SU": 0}
    for index in range(300):
        cfg = TinyConfig(m=3, mir=(Fraction(0), Fraction(1, 2), Fraction(1))[index % 3], u=Fraction(3 + index % 7, 10))
        passed, vector_changed, dy_checked = _bound_the_simulation(generate_partition_set(cfg, random.Random(index)), cfg)
        for policy in static_sets:
            static_sets[policy] += policy in passed
        schedulable += "DY" in passed
        changed += vector_changed
        checked += dy_checked
    # Both kinds of set occur, and a vector change sends some views through
    # _view_span.
    assert 0 < schedulable < 300
    assert changed > 0
    assert checked == 6 * schedulable
    assert 0 < static_sets["SE"] < 300 and 0 < static_sets["SU"] < 300


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    mir=st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1))),
    u=st.integers(3, 9),
)
def test_every_policy_bounds_the_simulated_worst_case_on_a_drawn_seed(seed, mir, u):
    cfg = TinyConfig(m=3, mir=mir, u=Fraction(u, 10))
    _bound_the_simulation(generate_partition_set(cfg, random.Random(seed)), cfg)


def test_tiny_model_draws_the_replayed_sets():
    # Generation reads the model from the config it is given: with 2
    # partitions per core, each core's UUniFast still sums to U, and every
    # (E, mu) is the Fraction replay's, so the simulation tests above check
    # UUniFast sets.
    for index in range(60):
        cfg = TinyConfig(m=2 + index % 3, mir=(Fraction(0), Fraction(1, 2), Fraction(1))[index // 3 % 3], u=Fraction(3 + index % 7, 10))
        pset = generate_partition_set(cfg, random.Random(index))
        assert [len(pset.by_core(core)) for core in range(1, cfg.m + 1)] == [2] * cfg.m
        _assert_replayed(pset, index, cfg)


class TestEvaluation:
    def test_policies_agree_on_trivial_load(self):
        cfg = ExperimentConfig(m=4, mir=Fraction(1, 4), u=Fraction(1, 100))
        pset = generate_partition_set(cfg, random.Random(0))
        for policy in POLICIES:
            assert evaluate_schedulability(pset, policy, cfg)

    def test_all_policies_fail_overload(self):
        cfg = ExperimentConfig(m=4, mir=Fraction(1, 4), u=Fraction(99, 100))
        pset = generate_partition_set(cfg, random.Random(0))
        for policy in POLICIES:
            assert not evaluate_schedulability(pset, policy, cfg)

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvariantError):
            evaluate_schedulability(_set(), "XX", CFG)

    def test_answer_digest_is_pinned(self):
        # Every generated partition and every policy outcome over 297 seeded
        # sets (m 4/8/12 x MIr 0.15/0.25/0.50 x 11 U values x 3 sets): a
        # change to generation or to a policy may not move any of them.
        digest = hashlib.sha256()
        mirs = (Fraction(15, 100), Fraction(1, 4), Fraction(1, 2))
        us = tuple(Fraction(10 + 8 * k, 100) for k in range(11))
        for m, mir, u, index in itertools.product((4, 8, 12), mirs, us, range(3)):
            cfg = ExperimentConfig(m=m, mir=mir, u=u)
            pset = generate_partition_set(cfg, random.Random(_derive_seed(1, m, mir, u, index)))
            drawn = _drawn(_derive_seed(1, m, mir, u, index), cfg)
            for p in pset.partitions:
                mi, util = drawn[p.id]
                digest.update(f"{p.id},{p.core},{mi},{util},{p.execution},{p.memory};".encode())
            se = evaluate_schedulability(pset, "SE", cfg)
            su = evaluate_schedulability(pset, "SU", cfg)
            dy = policy_dy(pset, cfg)
            intervals = dy.schedule.intervals if dy.schedule is not None else ()
            built = [(iv.budgets.budgets, iv.length) for iv in intervals]
            digest.update(f"{se},{su},{dy.schedulable},{sorted(dy.completions.items())},{built}|".encode())
        assert digest.hexdigest() == "fdf0d44fa804bef34cc35be0f08ca124d762d4e911c8e42d84832504f2223f00"

    def test_policies_build_no_trace_or_breakdown(self, monkeypatch):
        # The policies read only status and span, so no analysis they run
        # may construct a trace entry or breakdown row.
        built = []
        for cls in (TraceEntry, IntervalBreakdown):
            monkeypatch.setattr(cls, "__init__", _counting(cls.__init__, built))
        cfg = ExperimentConfig(m=8, mir=Fraction(1, 4), u=Fraction(1, 2))
        pset = generate_partition_set(cfg, random.Random(3))
        for policy in POLICIES:
            evaluate_schedulability(pset, policy, cfg)
        assert built == []
        # The counter sees what a reader of the results builds.
        part = pset.by_core(1)[0]
        result = analyze_dynamic(part.workload(cfg.hyperperiod), MemorySchedule.static(policy_se(cfg)), 1, cfg.regulation)
        assert len(result.trace) + len(result.breakdown) == len(built) > 0

    def test_deadline_is_the_periods_left_in_the_hyperperiod(self):
        horizon = CFG.hyperperiod_periods
        for start in range(horizon):
            workload = Workload(execution=1, memory=0, deadline=(horizon - start) * CFG.period)
            assert deadline_periods(workload, CFG.regulation) == horizon - start

    def test_policies_call_the_kernel_with_checked_inputs(self, monkeypatch):
        # The policies hand the two closed forms E, mu and a limit of
        # H - start periods and build no Workload; each call must give the
        # very answer the public analyzers give on the Workload and the view
        # it stands for.
        built, view_calls, static_calls = [], [], []
        monkeypatch.setattr(Workload, "__init__", _counting(Workload.__init__, built))

        def recording(solver, record):
            def recorded(*args):
                result = solver(*args)
                record.append((args, result))
                return result

            return recorded

        monkeypatch.setattr(ima, "_view_span", recording(ima._view_span, view_calls))
        monkeypatch.setattr(ima, "_static_span", recording(ima._static_span, static_calls))
        for m, u in ((4, Fraction(27, 50)), (8, Fraction(19, 50)), (12, Fraction(3, 10))):
            cfg = ExperimentConfig(m=m, mir=Fraction(1, 4), u=u)
            for index in range(2):
                pset = generate_partition_set(cfg, random.Random(_derive_seed(1, m, cfg.mir, u, index)))
                for policy in POLICIES:
                    evaluate_schedulability(pset, policy, cfg)
        assert built == []
        assert view_calls and static_calls
        statuses = set()
        for (history, budgets, core, execution, memory, limit), span in view_calls:
            workload = Workload(execution=execution, memory=memory, deadline=limit * ExperimentConfig.period)
            schedule = MemorySchedule((*history, BudgetInterval(budgets=budgets, length=None)))
            result = analyze_dynamic(workload, schedule, core, ExperimentConfig.regulation)
            assert result.converged == (span is not None)
            if result.converged:
                assert result.span == span
            statuses.add(result.status)
        for (budgets, core, execution, memory, limit), span in static_calls:
            workload = Workload(execution=execution, memory=memory, deadline=limit * ExperimentConfig.period)
            for result in (
                analyze_dynamic(workload, MemorySchedule.static(budgets), core, ExperimentConfig.regulation),
                analyze_static(workload, budgets, core, ExperimentConfig.regulation),
            ):
                assert result.converged == (span is not None)
                if result.converged:
                    assert result.span == span
                statuses.add(result.status)
        assert statuses == {AnalysisStatus.CONVERGED, AnalysisStatus.DEADLINE_MISS}


def _counting(init, built: list):
    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    return counted


class TestSweep:
    def test_rows_cover_grid_in_order(self):
        sweep = SweepConfig(
            points=(SweepPoint(m=4, mir=Fraction(1, 4), sets=2),),
            u_values=(Fraction(1, 10), Fraction(1, 2)),
            seed=3,
        )
        rows = run_sweep(sweep)
        assert [(r.policy, float(r.u)) for r in rows] == [
            ("SE", 0.1), ("SU", 0.1), ("DY", 0.1),
            ("SE", 0.5), ("SU", 0.5), ("DY", 0.5),
        ]
        assert all(r.total == 2 for r in rows)

    def test_sweep_is_deterministic(self):
        sweep = preset_sweep("smoke", seed=7)
        assert rows_to_csv(run_sweep(sweep), 7) == rows_to_csv(run_sweep(sweep), 7)

    def test_csv_shape(self):
        sweep = SweepConfig(
            points=(SweepPoint(m=4, mir=Fraction(1, 4), sets=1),),
            u_values=(Fraction(1, 10),),
            seed=5,
        )
        text = rows_to_csv(run_sweep(sweep), 5)
        lines = text.strip().splitlines()
        assert lines[0] == "# seed=5"
        assert lines[2] == "policy,m,MIr,U,schedulable,total,ratio,seed"
        assert len(lines) == 3 + 3  # header + one row per policy

    def test_presets(self):
        assert [p.m for p in preset_sweep("vary-m", 1).points] == [4, 8, 12]
        mirs = [p.mir for p in preset_sweep("vary-mir", 1).points]
        assert mirs == [Fraction(15 + 5 * k, 100) for k in range(8)]
        assert len(preset_sweep("smoke", 1).u_values) == 3
        with pytest.raises(InvariantError):
            preset_sweep("bogus", 1)

    def test_worker_env_parsing(self, monkeypatch):
        from membw.ima import _worker_count

        monkeypatch.setenv("MEMBW_THREADS", "3")
        assert _worker_count() == 3
        monkeypatch.setenv("MEMBW_THREADS", "zero")
        with pytest.raises(InvariantError):
            _worker_count()
