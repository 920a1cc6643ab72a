"""Per-core memory stall curves under budget regulation.

Each core i of an m-core system gets a budget q_i of memory transactions per
regulation period, with sum(q_i) = Q, the total number of transactions the
memory system can serve in one period. A core issuing k transactions in a
period can be stalled by the other cores' regulated traffic (round-robin
arbitration) and, at k = q_i, by depletion of its own budget. The worst-case
per-period stall, in transaction slots, is

    I(k) = sum over other cores j of min(k, q_j)    for k < q_i,
    I(q_i) = Q - q_i                                (blocked to period end).

The analyzers need a concave majorant of these q_i + 1 points, because a
concave curve lets the worst case over a whole span be bounded by evaluating
at the mean per-period rate. :func:`concave_envelope` builds the upper convex
hull of the raw points; :class:`StallCurve` stores it as a segment table of
integer rises over integer widths and evaluates it exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .errors import InvariantError


@dataclass(frozen=True, slots=True)
class BudgetVector:
    """Per-core memory budgets (transactions per regulation period).

    Core indices are 1-based throughout the package. The scalar total is the
    per-period transaction capacity Q of the memory system; the model assumes
    the budgets exhaust it. Single-entry vectors are accepted so degenerate
    no-interference curves can be built in tests.
    """

    budgets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.budgets) < 1:
            raise InvariantError("budget vector: at least one core required")
        for i, q in enumerate(self.budgets, start=1):
            if not isinstance(q, int) or q < 1:
                raise InvariantError(f"budget vector: every budget must be an integer >= 1, got q_{i} = {q!r}")

    @property
    def m(self) -> int:
        return len(self.budgets)

    @property
    def total(self) -> int:
        """Total transactions per period (the scalar Q)."""
        return sum(self.budgets)

    def budget_of(self, core: int) -> int:
        self._check_core(core)
        return self.budgets[core - 1]

    def others(self, core: int) -> tuple[int, ...]:
        """Budgets of every core except ``core``."""
        self._check_core(core)
        return self.budgets[: core - 1] + self.budgets[core:]

    def _check_core(self, core: int) -> None:
        if not 1 <= core <= self.m:
            raise InvariantError(f"core index {core} outside [1..{self.m}]")


@dataclass(frozen=True)
class RawStallPoints:
    """The raw worst-case stall values I(0..q) for one core, in slots."""

    core: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise InvariantError("raw stall points: need q + 1 >= 2 points")
        if self.values[0] != 0:
            raise InvariantError("raw stall points: I(0) must be 0")
        for k in range(1, len(self.values)):
            if self.values[k] < self.values[k - 1]:
                raise InvariantError(f"raw stall points: values must be non-decreasing, I({k}) < I({k - 1})")

    @property
    def q(self) -> int:
        return len(self.values) - 1


def build_raw_points(budgets: BudgetVector, core: int) -> RawStallPoints:
    """Evaluate the raw stall values I(0..q) for ``core`` under ``budgets``, in O(q log m)."""
    q = budgets.budget_of(core)
    others = sorted(budgets.others(core))
    # For k < q, I(k) - I(k - 1) is the number of other budgets >= k.
    values = list(accumulate((len(others) - bisect_left(others, k) for k in range(1, q)), initial=0))
    values.append(budgets.total - q)
    return RawStallPoints(core=core, values=tuple(values))


@dataclass(frozen=True, slots=True, kw_only=True)
class Segment:
    """One linear piece of a stall curve: value(r) = value + rise * (r - start) / width.

    The piece runs from (start, value) to (start + width, value + rise).
    Fields are keyword-only, so that a positional (start, value, slope,
    width) call fails instead of reading a slope as a rise.
    """

    start: int
    value: int
    rise: int
    width: int

    @property
    def slope(self) -> Fraction:
        return Fraction(self.rise, self.width)


@dataclass(frozen=True, slots=True)
class StallCurve:
    """Concave piecewise-linear upper bound on per-period stall vs. memory rate.

    The domain is [0, q]; ``segments`` tile it, slopes strictly decreasing.
    Segment start points are the curve's "start points": the only places a
    maximizing assignment ever needs to land between, which is what the
    greedy distributor exploits by jumping from one start point to the next.
    """

    core: int
    q: int
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        segs = self.segments
        if not segs:
            raise InvariantError("stall curve: at least one segment required")
        if segs[0].start != 0 or segs[0].value != 0:
            raise InvariantError("stall curve: must start at (0, 0)")
        pos = 0
        for i, s in enumerate(segs):
            if s.start != pos:
                raise InvariantError("stall curve: segments must tile the domain without gaps")
            if s.width < 1:
                raise InvariantError("stall curve: segment widths must be >= 1")
            if i > 0:
                prev = segs[i - 1]
                # s.rise / s.width >= prev.rise / prev.width, widths positive.
                if s.rise * prev.width >= prev.rise * s.width:
                    raise InvariantError("stall curve: slopes must be strictly decreasing (concavity)")
                if prev.value + prev.rise != s.value:
                    raise InvariantError("stall curve: segment values must be continuous")
            pos += s.width
        if pos != self.q:
            raise InvariantError(f"stall curve: segments cover [0, {pos}] but domain is [0, {self.q}]")

    def value_at(self, r: int | Fraction) -> Fraction:
        """Evaluate the envelope at rate ``r`` (transactions per period), exactly.

        Only tests call this: it is their ``Fraction`` reference for
        :meth:`stall_over`'s integer segment search.
        """
        if r < 0 or r > self.q:
            raise InvariantError(f"rate {r} outside curve domain [0, {self.q}]")
        seg = self.segments[bisect_right(self.segments, r, key=lambda s: s.start) - 1]
        return seg.value + seg.slope * (r - seg.start)

    def stall_over(self, span: int, memory: int) -> Fraction:
        """Exact span-cumulative stall: value_at(memory / span) * span.

        Requires 0 <= memory <= span * q. The stall is value * span + rise *
        (memory - start * span) / width on the segment that ``memory / span``
        falls on, found by comparing integers. A span of 0 holds no memory:
        its stall is 0.
        """
        if memory < 0 or memory > span * self.q:
            raise InvariantError(f"memory {memory} outside feasible range [0, {span * self.q}] for span {span}")
        # The segment whose scaled domain [start * span, end * span] holds
        # ``memory``. Segment tables are tiny (at most m distinct
        # breakpoints), so a linear scan beats bisect here.
        segs = self.segments
        k = 0
        while k + 1 < len(segs) and segs[k + 1].start * span <= memory:
            k += 1
        seg = segs[k]
        return Fraction(seg.value * span * seg.width + seg.rise * (memory - seg.start * span), seg.width)

    def to_json_dict(self) -> dict:
        return {
            "core": self.core,
            "q": self.q,
            "start_points": [s.start for s in self.segments],
            "segments": [
                {"start": s.start, "value": s.value, "slope": str(s.slope), "width": s.width}
                for s in self.segments
            ],
        }


def _upper_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Upper convex hull of points with strictly increasing x (monotone chain).

    Collinear interior points are dropped, so consecutive hull slopes are
    strictly decreasing.
    """
    hull: list[tuple[int, int]] = []
    for p in points:
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            # cross((a - o), (p - o)) >= 0 means the middle point a is on or
            # below the chord o->p, so it is not an upper-hull vertex.
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _curve_from_vertices(core: int, q: int, vertices: list[tuple[int, int]]) -> StallCurve:
    segments = []
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        segments.append(Segment(start=x0, value=y0, rise=y1 - y0, width=x1 - x0))
    return StallCurve(core=core, q=q, segments=tuple(segments))


def concave_envelope(raw: RawStallPoints) -> StallCurve:
    """Tightest concave piecewise-linear majorant of the raw stall points."""
    points = list(enumerate(raw.values))
    return _curve_from_vertices(raw.core, raw.q, _upper_hull(points))


def curve_for_core(budgets: BudgetVector, core: int) -> StallCurve:
    """Stall curve for ``core`` without materializing all q + 1 raw points.

    On [0, q-1] the raw function is a sum of min(k, q_j) terms, hence already
    concave with breakpoints only at other cores' budget values; the single
    appended point (q, Q - q) is the only possible convexity. Hulling the
    breakpoint vertices therefore equals hulling every integer point, in
    O(m log m) (a sort, then one prefix-sum pass) instead of O(q). Matters
    because real configurations have budgets in the tens of thousands.
    """
    return _cached_curve(budgets, core)


@lru_cache(maxsize=2048)
def _cached_curve(budgets: BudgetVector, core: int) -> StallCurve:
    """The curves of recently used (budgets, core) pairs.

    2048 entries cover the working set with room to spare: one IMA partition
    set touches at most about m x (number of DY events) curves, under 600 at
    m = 12; one CLI call touches one curve per schedule interval; and across
    sets only SE's handful of even-split curves repeat. A larger cache only
    holds curves that are never asked for again.
    """
    q = budgets.budget_of(core)
    others = sorted(budgets.others(core))
    vertices = []
    # I(x) = (sum of the i budgets <= x) + x * (number of budgets > x).
    below = i = 0
    for x in sorted({0, q - 1, *(qj for qj in others if qj < q)}):
        while i < len(others) and others[i] <= x:
            below += others[i]
            i += 1
        vertices.append((x, below + x * (len(others) - i)))
    vertices.append((q, budgets.total - q))
    return _curve_from_vertices(core, q, _upper_hull(vertices))
