"""Result types shared by the static and dynamic analyzers."""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property


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
    """Outcome of a span analysis: the record the fixed-point loop computed.

    ``span`` is the converged worst-case span in periods (CONVERGED), or the
    first deadline-violating iterate (DEADLINE_MISS). ``length_slots`` =
    span * Q, only on convergence. ``shortfall`` is set only for
    SCHEDULE_EXHAUSTED. ``raw`` holds the iterates produced, in order: one
    iterate as the integers (span, stall numerator, stall denominator), a
    run of iterates as (span, stall numerator, stall denominator, span step,
    numerator step, count), whose iterate i, 0 <= i < count, has the span
    span + i * span step and the stall (numerator + i * numerator step) /
    denominator. ``detail`` is the converged dynamic term's ``(splits,
    assignment, curves)``, curves for the reached prefix only, or None.

    :meth:`iterates` expands ``raw`` lazily. ``trace`` and ``breakdown`` are
    built from ``raw`` and ``detail`` when first read and cached, so callers
    that read only ``status`` and ``span`` pay for neither. Equality,
    hashing, ``repr`` and pickling come from the fields, that is from the
    record, not from the built trace.
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
        # Imported here: dynamic_analysis imports this module.
        from .dynamic_analysis import stall_breakdown

        splits, assignment, curves = self.detail
        stalls = stall_breakdown(splits, assignment, curves)
        return tuple(
            IntervalBreakdown(interval=j + 1, span=splits[j], memory=assignment.per_interval[j], stall=stalls[j])
            for j in range(len(splits))
        )

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
