"""Result types shared by the static and dynamic analyzers."""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Any


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


class AnalysisResult:
    """Outcome of a span analysis.

    ``span`` is the converged worst-case span in periods (CONVERGED), or the
    first deadline-violating iterate (DEADLINE_MISS). ``length_slots`` =
    span * Q, only on convergence. ``shortfall`` is set only for
    SCHEDULE_EXHAUSTED. The trace always holds every iterate produced.

    The analyzers record each iterate as plain integers (span, stall
    numerator, stall denominator). ``trace`` builds its :class:`TraceEntry`
    tuple from that record when first read, and ``breakdown`` builds its
    :class:`IntervalBreakdown` rows from the converged split and assignment
    when first read; both are cached. Callers that read only ``status`` and
    ``span`` pay for neither. Equality, hashing and ``repr`` use the built
    trace and breakdown, and a pickled result keeps its record and
    breakdown data, so it unpickles whether or not they were read.
    """

    __slots__ = ("status", "span", "length_slots", "shortfall", "_raw", "_trace", "_detail", "_breakdown")

    def __init__(
        self,
        status: AnalysisStatus,
        span: int | None,
        length_slots: int | None,
        trace: tuple[TraceEntry, ...],
        breakdown: tuple[IntervalBreakdown, ...] | None = None,
        shortfall: int | None = None,
    ) -> None:
        trace = tuple(trace)
        raw = [(t.span, t.stall.numerator, t.stall.denominator) for t in trace]
        _init(self, status, span, length_slots, shortfall, raw, trace, None, breakdown)

    @property
    def trace(self) -> tuple[TraceEntry, ...]:
        trace = self._trace
        if trace is None:
            trace = tuple(TraceEntry(k=k, span=s, stall=Fraction(n, d)) for k, (s, n, d) in enumerate(self._raw))
            object.__setattr__(self, "_trace", trace)
        return trace

    @property
    def breakdown(self) -> tuple[IntervalBreakdown, ...] | None:
        detail = self._detail
        if detail is not None:
            # Imported here: dynamic_analysis imports this module.
            from .dynamic_analysis import stall_breakdown

            splits, assignment, curves = detail
            stalls = stall_breakdown(splits, assignment, curves).per_interval
            rows = tuple(
                IntervalBreakdown(interval=j + 1, span=splits[j], memory=assignment.per_interval[j], stall=stalls[j])
                for j in range(len(splits))
            )
            object.__setattr__(self, "_breakdown", rows)
            object.__setattr__(self, "_detail", None)
        return self._breakdown

    @property
    def converged(self) -> bool:
        return self.status is AnalysisStatus.CONVERGED

    @property
    def total_stall(self) -> Fraction | None:
        """Cumulative stall at the fixed point."""
        if not self.converged:
            return None
        _, num, den = self._raw[-1]
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
        doc["iterations"] = len(self._raw) - 1
        return doc

    def _fields(self) -> tuple:
        return (self.status, self.span, self.length_slots, self.trace, self.breakdown, self.shortfall)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        names = ("status", "span", "length_slots", "trace", "breakdown", "shortfall")
        return "AnalysisResult(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields())) + ")"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        state = (self.status, self.span, self.length_slots, self._raw, self._detail, self.shortfall, self._trace, self._breakdown)
        return _from_raw, state


def _init(result, status, span, length_slots, shortfall, raw, trace, detail, breakdown) -> None:
    setattr_ = object.__setattr__
    setattr_(result, "status", status)
    setattr_(result, "span", span)
    setattr_(result, "length_slots", length_slots)
    setattr_(result, "shortfall", shortfall)
    setattr_(result, "_raw", raw)
    setattr_(result, "_trace", trace)
    setattr_(result, "_detail", detail)
    setattr_(result, "_breakdown", breakdown)


def _from_raw(
    status: AnalysisStatus,
    span: int | None,
    length_slots: int | None,
    raw: list[tuple[int, int, int]],
    detail: Any = None,
    shortfall: int | None = None,
    trace: tuple[TraceEntry, ...] | None = None,
    breakdown: tuple[IntervalBreakdown, ...] | None = None,
) -> AnalysisResult:
    """The analyzers' constructor (and pickle's).

    ``raw`` holds (span, stall numerator, stall denominator) per iterate;
    ``detail`` is the converged ``(splits, assignment, curves)`` that the
    breakdown is built from, or None for no breakdown. ``trace`` and
    ``breakdown`` are given only when already built.
    """
    result = object.__new__(AnalysisResult)
    _init(result, status, span, length_slots, shortfall, raw, trace, detail, breakdown)
    return result
