"""Worst-case span analysis for memory-bandwidth-regulated multicores.

Public surface: stall curves (:mod:`membw.stall_curve`), the schedule model
(:mod:`membw.schedule`), the static and dynamic analyzers, brute-force oracles
(:mod:`membw.oracles`), and the IMA experiment harness (:mod:`membw.ima`).
"""

from .dynamic_analysis import (
    AnalysisResult,
    AnalysisStatus,
    IntervalBreakdown,
    MemoryAssignment,
    TraceEntry,
    analyze_dynamic,
    distribute_memory,
    stall_breakdown,
)
from .errors import (
    InvariantError,
    MembwError,
    OracleTooLargeError,
    ScenarioError,
    ScheduleExhaustedError,
)
from .oracles import (
    RawStallPoints,
    build_raw_points,
    concave_envelope,
    oracle_distribute,
    oracle_max_stall,
    worst_case_span_by_simulation,
)
from .schedule import (
    BudgetInterval,
    MemorySchedule,
    RegulationConfig,
    Scenario,
    Workload,
    deadline_periods,
    load_scenario,
    parse_scenario,
    split_span,
)
from .static_analysis import analyze_static
from .stall_curve import BudgetVector, Segment, StallCurve, curve_for_core

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "AnalysisStatus",
    "BudgetInterval",
    "BudgetVector",
    "IntervalBreakdown",
    "InvariantError",
    "MembwError",
    "MemoryAssignment",
    "MemorySchedule",
    "OracleTooLargeError",
    "RawStallPoints",
    "RegulationConfig",
    "Scenario",
    "ScenarioError",
    "ScheduleExhaustedError",
    "Segment",
    "StallCurve",
    "TraceEntry",
    "Workload",
    "analyze_dynamic",
    "analyze_static",
    "build_raw_points",
    "concave_envelope",
    "curve_for_core",
    "deadline_periods",
    "distribute_memory",
    "load_scenario",
    "oracle_distribute",
    "oracle_max_stall",
    "parse_scenario",
    "split_span",
    "stall_breakdown",
    "worst_case_span_by_simulation",
]
