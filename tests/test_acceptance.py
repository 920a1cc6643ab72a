"""Acceptance gate: one test per shipping criterion.

`pytest -v tests/test_acceptance.py` emits exactly one PASSED/FAILED line per
criterion; with -s each also prints a summary line with measured numbers.
Tolerances are pinned in-line and are not configurable.
"""

import filecmp
import hashlib
import random
import time
from fractions import Fraction

from membw import (
    BudgetInterval,
    BudgetVector,
    MemorySchedule,
    RegulationConfig,
    Workload,
    analyze_dynamic,
    analyze_static,
    build_raw_points,
    curve_for_core,
    distribute_memory,
    oracle_distribute,
    oracle_max_stall,
    stall_breakdown,
    worst_case_span_by_simulation,
)
from membw.cli import main as cli_main
from membw.ima import SweepConfig, SweepPoint, rows_to_csv, run_sweep

CFG16 = RegulationConfig(period=Fraction(16), l_max=Fraction(1))
VEC = BudgetVector((2, 2, 5, 7))


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _composition(rng: random.Random, total: int, m: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, total), m - 1))
    edges = [0, *cuts, total]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


def test_criterion_1_golden_fixed_point():
    wl = Workload(execution=40, memory=35)
    result = analyze_static(wl, VEC, 3, CFG16)
    assert result.converged
    assert result.span == 10
    assert result.length_slots == 160
    assert [t.span for t in result.trace][:3] == [5, 9, 10]

    curve_for_core(VEC, 3)  # warm the curve cache; timing covers the analysis
    laps = []
    for _ in range(10):
        t0 = time.perf_counter()
        analyze_static(wl, VEC, 3, CFG16)
        laps.append(time.perf_counter() - t0)
    best = min(laps)
    assert best < 0.001, f"golden analysis took {best * 1e3:.3f} ms (budget 1 ms)"
    _report("1 golden fixed point", f"W=10, 160 slots, trace 5->9->10, {best * 1e6:.0f} us")


def test_criterion_2_curve_goldens():
    raw3 = build_raw_points(VEC, 3)
    assert raw3.values == (0, 3, 6, 7, 8, 11)
    raw4 = build_raw_points(VEC, 4)
    curve4 = curve_for_core(VEC, 4)
    increments = [b - a for a, b in zip(raw4.values, raw4.values[1:])]
    assert all(x >= y for x, y in zip(increments, increments[1:])), "core 4 raw curve must be concave"
    for k, v in enumerate(raw4.values):
        assert curve4.stall_over(1, k) == v
    _report("2 curve goldens", "core-3 points [0,3,6,7,8,11]; core-4 envelope identical to raw")


def test_criterion_3_per_period_soundness():
    rng = random.Random(108)
    t0 = time.perf_counter()
    trials = 10_000
    raw_cache = {}
    for _ in range(trials):
        budgets = BudgetVector(tuple(rng.randint(1, 6) for _ in range(4)))
        core = rng.randint(1, 4)
        key = (budgets.budgets, core)
        raw = raw_cache.get(key)
        if raw is None:
            raw = raw_cache[key] = build_raw_points(budgets, core)
        span = rng.randint(1, 8)
        memory = rng.randint(0, span * raw.q)
        bound = curve_for_core(budgets, core).stall_over(span, memory)
        exact = oracle_max_stall(memory, span, raw)
        assert bound >= exact, (budgets, core, span, memory, bound, exact)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"soundness sweep took {elapsed:.1f} s (budget 60 s)"
    _report("3 per-period soundness", f"{trials} instances, zero violations, {elapsed:.1f} s")


def test_criterion_4_greedy_matches_enumeration():
    rng = random.Random(204)
    t0 = time.perf_counter()
    trials = 1_000
    for _ in range(trials):
        n = rng.randint(1, 3)
        m = rng.randint(2, 4)
        raws, curves, splits = [], [], []
        for _ in range(n):
            budgets = BudgetVector(tuple(rng.randint(1, 6) for _ in range(m)))
            core = rng.randint(1, m)
            raws.append(build_raw_points(budgets, core))
            curves.append(curve_for_core(budgets, core))
            splits.append(rng.randint(0, 4))
        splits = tuple(splits)
        capacity = sum(w * c.q for w, c in zip(splits, curves))
        memory = rng.randint(0, capacity)
        assignment = distribute_memory(splits, memory, tuple(curves))
        greedy_value = sum(stall_breakdown(splits, assignment, tuple(curves)))
        oracle_value, _ = oracle_distribute(splits, memory, tuple(raws))
        assert greedy_value == oracle_value, (splits, memory, greedy_value, oracle_value)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"greedy/oracle sweep took {elapsed:.1f} s (budget 60 s)"
    _report("4 greedy optimality", f"{trials} instances, exact objective match, {elapsed:.1f} s")


def _static_recurrence(wl: Workload, budgets: BudgetVector, core: int) -> list[tuple[int, Fraction]]:
    """The paper's static iteration, W_(0) = ceil(beta / Q) and
    W_(k) = ceil((beta + I(min(mu / W_(k-1), q)) * W_(k-1)) / Q), run to its
    fixed point with exact stalls; returns every iterate's (W, S)."""
    curve = curve_for_core(budgets, core)
    beta = wl.execution + wl.memory
    span = -(-beta // budgets.total)
    trace = [(span, Fraction(0))]
    while True:
        stall = curve.stall_over(span, min(wl.memory, span * curve.q))
        trace.append((-(-(beta + stall) // budgets.total), stall))
        if trace[-1][0] == span:
            return trace
        span = trace[-1][0]


def test_criterion_5_dynamic_specializes_to_static():
    rng = random.Random(500)
    trials = 1_000
    for _ in range(trials):
        m = rng.randint(2, 4)
        budgets = BudgetVector(tuple(rng.randint(1, 8) for _ in range(m)))
        core = rng.randint(1, m)
        wl = Workload(execution=rng.randint(1, 60), memory=rng.randint(0, 80))
        cfg = RegulationConfig(period=Fraction(budgets.total), l_max=Fraction(1))
        expected = _static_recurrence(wl, budgets, core)
        for result in (
            analyze_static(wl, budgets, core, cfg),
            analyze_dynamic(wl, MemorySchedule.static(budgets), core, cfg),
        ):
            assert result.converged
            assert [(t.span, t.stall) for t in result.trace] == expected, (budgets, core, wl)
    _report("5 specialization", f"{trials} workloads, both traces equal the static recurrence's")


def test_criterion_6_monotonicity_properties():
    rng = random.Random(606)
    trials = 10_000
    for _ in range(trials):
        m = rng.randint(2, 5)
        budgets = BudgetVector(tuple(rng.randint(1, 9) for _ in range(m)))
        core = rng.randint(1, m)
        curve = curve_for_core(budgets, core)
        x = rng.randint(1, 12)
        y = x + rng.randint(1, 6)
        memory = rng.randint(0, x * curve.q)
        assert curve.stall_over(x, memory) <= curve.stall_over(y, memory), (budgets, core, x, y, memory)

    for _ in range(trials):
        m = rng.randint(2, 5)
        budgets = BudgetVector(tuple(rng.randint(1, 9) for _ in range(m)))
        core = rng.randint(1, m)
        curve = curve_for_core(budgets, core)
        a4, b4 = sorted(rng.sample(range(1, 4 * curve.q + 1), 2))
        a, b = Fraction(a4, 4), Fraction(b4, 4)
        # The curve at rates a and b: a span of 4 periods, over 4.
        fa, fb = curve.stall_over(4, a4) / 4, curve.stall_over(4, b4) / 4
        assert fa - a * (fb - fa) / (b - a) >= 0, (budgets, core, a, b)
    _report("6 monotonicity properties", f"{trials} trials per property, zero counterexamples")


def test_criterion_7_end_to_end_soundness():
    rng = random.Random(77)
    t0 = time.perf_counter()
    scenarios = 200
    for _ in range(scenarios):
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
        simulated = worst_case_span_by_simulation(wl, schedule, core, horizon=bound)
        assert simulated <= bound, (schedule, core, wl, simulated, bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"end-to-end sweep took {elapsed:.1f} s (budget 300 s)"
    _report("7 end-to-end soundness", f"{scenarios} scenarios, all patterns within bound, {elapsed:.1f} s")


def test_criterion_8_experiment_trends():
    u_values = tuple(Fraction(10 + 5 * k, 100) for k in range(17))
    points = (
        SweepPoint(m=8, mir=Fraction(25, 100), sets=100),
        SweepPoint(m=8, mir=Fraction(15, 100), sets=100),
        SweepPoint(m=8, mir=Fraction(50, 100), sets=100),
    )
    t0 = time.perf_counter()
    rows = run_sweep(SweepConfig(points=points, u_values=u_values, seed=7))
    elapsed = time.perf_counter() - t0
    # The sweep's every byte, pinned; criterion 9 makes it independent of the
    # worker count.
    digest = hashlib.sha256(rows_to_csv(rows, 7).encode()).hexdigest()
    assert digest == "637ea183b6f1412b8a1f13f5839b97e1b237529c32f2e0ef4e225ff2dc2a4488"

    curve = {}
    for r in rows:
        curve.setdefault((r.policy, r.mir), []).append(r.ratio)

    mir25 = Fraction(25, 100)
    means = {p: sum(curve[(p, mir25)]) / len(u_values) for p in ("SE", "SU", "DY")}
    assert means["DY"] >= means["SU"], means
    assert means["DY"] >= means["SE"], means

    for policy in ("SE", "SU", "DY"):
        ratios = curve[(policy, mir25)]
        for i, (a, b) in enumerate(zip(ratios, ratios[1:])):
            assert b <= a + 0.03, f"{policy} rises {a:.2f}->{b:.2f} at U={float(u_values[i + 1])}"

    for policy in ("SE", "SU", "DY"):
        lo = curve[(policy, Fraction(15, 100))]
        hi = curve[(policy, Fraction(50, 100))]
        for u, a, b in zip(u_values, lo, hi):
            assert b <= a, f"{policy} at U={float(u)}: MIr=0.50 ratio {b:.2f} > MIr=0.15 ratio {a:.2f}"

    assert elapsed < 900, f"trend sweep took {elapsed:.0f} s (budget 900 s)"
    _report(
        "8 experiment trends",
        f"means SE={means['SE']:.3f} SU={means['SU']:.3f} DY={means['DY']:.3f}, "
        f"monotone within 0.03, MIr ordering pointwise, {elapsed:.0f} s",
    )


def test_criterion_9_experiment_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MEMBW_THREADS", "1")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli_main(["experiment", "--preset", "smoke", "--seed", "7", "--out", str(first)]) == 0
    assert cli_main(["experiment", "--preset", "smoke", "--seed", "7", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert filecmp.cmp(first, second, shallow=False)
    _report("9 determinism", "smoke preset CSV byte-identical across runs")
