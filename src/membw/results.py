"""Result types shared by the static and dynamic analyzers."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction


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


@dataclass(frozen=True, slots=True)
class AnalysisResult:
    """Outcome of a span analysis.

    ``span`` is the converged worst-case span in periods (CONVERGED), or the
    first deadline-violating iterate (DEADLINE_MISS). ``length_slots`` =
    span * Q, only on convergence. ``shortfall`` is set only for
    SCHEDULE_EXHAUSTED. The trace always holds every iterate produced.
    """

    status: AnalysisStatus
    span: int | None
    length_slots: int | None
    trace: tuple[TraceEntry, ...]
    breakdown: tuple[IntervalBreakdown, ...] | None = None
    shortfall: int | None = None

    @property
    def converged(self) -> bool:
        return self.status is AnalysisStatus.CONVERGED

    @property
    def total_stall(self) -> Fraction | None:
        """Cumulative stall at the fixed point."""
        if not self.converged:
            return None
        return self.trace[-1].stall

    def to_json_dict(self) -> dict:
        doc: dict = {"status": self.status.value}
        if self.span is not None:
            doc["span_periods"] = self.span
        if self.length_slots is not None:
            doc["length_slots"] = self.length_slots
        if self.converged:
            doc["total_stall"] = str(self.trace[-1].stall)
        if self.shortfall is not None:
            doc["shortfall_periods"] = self.shortfall
        doc["iterations"] = len(self.trace) - 1
        return doc
