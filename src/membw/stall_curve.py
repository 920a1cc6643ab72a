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
at the mean per-period rate. :class:`StallCurve` stores the upper convex
hull of the raw points as a segment table of integer rises over integer
widths and evaluates it exactly. The brute-force hull of all q_i + 1 points
is in :mod:`membw.oracles`.

Budgets run to tens of thousands, so a vector's curve table hulls O(m)
vertices instead of the q + 1 raw points, from one pass per vector. Let

    F(x) = sum over all cores j of min(x, q_j) - x.

Every core of a vector shares F: below q_i the core's own term is x, so
I(k) = F(k) for k < q_i. F is piecewise linear with vertices at 0 and at
the distinct budgets, and its slope, one less than the number of budgets
above x, falls strictly at each of them, so F is concave. The raw points up
to q_i - 1 are therefore concave already: their hull is F's vertices below
q_i and the end point (q_i - 1, F(q_i - 1)). Only the appended point
(q_i, Q - q_i) can break concavity, so the hull pops from the end of that
list only. The end point, when it is not one of F's vertices, is always
popped: it lies on F's last piece below q_i, whose slope s is the number of
other budgets >= q_i, and the one-step chord from it to (q_i, Q - q_i)
rises by the sum of (q_j - q_i + 1) over those budgets, at least s, so it
lies on or below the chord from the vertex before it. So core i's curve is
F's vertices below q_i, then (q_i, Q - q_i), hulled by popping from the
end.

:meth:`_CurveTable.pieces_for` is the one builder of a core's segments. It
pops that hull and gives the segments as pieces (coeff, key, rise, width):
F's first pieces, up to the core's last hull vertex below q_i, shared by
the vector's cores, and one end piece to (q_i, Q - q_i). A vector's F takes
one sort; the table builds F's pieces only as far as a request reads them,
each once, and checks that each, the end piece too, has a width >= 1 and a
slope strictly below the one before; a core that reads further extends
them. So a vector read for one core, as the loop reads each interval of a
CLI scenario, pays for that core's pieces only, not for all m. The closed
forms of :mod:`membw.static_analysis` and the fixed-point loop of
:mod:`membw.dynamic_analysis` read the pieces (:func:`_core_pieces`), and
:func:`curve_for_core` lays them end to end into a :class:`StallCurve`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantError


@dataclass(frozen=True, slots=True)
class BudgetVector:
    """Per-core memory budgets (transactions per regulation period).

    Core indices are 1-based throughout the package. The scalar ``total``,
    summed once at construction, is the per-period transaction capacity Q of
    the memory system; the model assumes the budgets exhaust it.
    Single-entry vectors are accepted so degenerate no-interference curves
    can be built in tests.

    :func:`_core_pieces`, which :func:`curve_for_core` reads through, pins
    the vector's curve table on the instance on its first call, so later
    calls on it skip the cache lookup.
    """

    budgets: tuple[int, ...]
    total: int = field(init=False, repr=False, compare=False)
    _curves: _CurveTable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.budgets) < 1:
            raise InvariantError("budget vector: at least one core required")
        for i, q in enumerate(self.budgets, start=1):
            if not isinstance(q, int) or q < 1:
                raise InvariantError(f"budget vector: every budget must be an integer >= 1, got q_{i} = {q!r}")
        object.__setattr__(self, "total", sum(self.budgets))

    @property
    def m(self) -> int:
        return len(self.budgets)

    def budget_of(self, core: int) -> int:
        _check_core(self.m, core)
        return self.budgets[core - 1]


def _check_core(m: int, core: int) -> None:
    if not 1 <= core <= m:
        raise InvariantError(f"core index {core} outside [1..{m}]")


class Segment(namedtuple("_SegmentFields", "start value rise width")):
    """One linear piece of a stall curve: value(r) = value + rise * (r - start) / width.

    The piece runs from (start, value) to (start + width, value + rise). It is
    an immutable int tuple (start, value, rise, width), which the solvers
    unpack. The constructor is keyword-only, so that a positional (start,
    value, slope, width) call fails instead of reading a slope as a rise;
    the curve builder calls ``tuple.__new__`` directly.
    """

    __slots__ = ()

    def __new__(cls, *, start: int, value: int, rise: int, width: int) -> Segment:
        return tuple.__new__(cls, (start, value, rise, width))

    def __getnewargs_ex__(self) -> tuple[tuple, dict[str, int]]:
        return (), self._asdict()

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
        for start, value, rise, width in segs:
            if start != pos:
                raise InvariantError("stall curve: segments must tile the domain without gaps")
            if width < 1:
                raise InvariantError("stall curve: segment widths must be >= 1")
            if pos:
                # rise / width >= prev_rise / prev_width, widths positive.
                if rise * prev_width >= prev_rise * width:
                    raise InvariantError("stall curve: slopes must be strictly decreasing (concavity)")
                if end != value:
                    raise InvariantError("stall curve: segment values must be continuous")
            pos += width
            prev_rise, prev_width, end = rise, width, value + rise
        if pos != self.q:
            raise InvariantError(f"stall curve: segments cover [0, {pos}] but domain is [0, {self.q}]")

    def stall_over(self, span: int, memory: int) -> Fraction:
        """Exact span-cumulative stall: the curve's value at rate
        ``memory / span``, times ``span``.

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
        for seg in self.segments:
            if seg.start * span > memory:
                break
            start, value, rise, width = seg
        return Fraction(value * span * width + rise * (memory - start * span), width)

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


# A closed-form piece of a curve segment: (coeff, key, rise, width).
Piece = tuple[int, int, int, int]


def curve_for_core(budgets: BudgetVector, core: int) -> StallCurve:
    """Stall curve for ``core`` without materializing all q + 1 raw points:
    its checked pieces (:func:`_core_pieces`) laid end to end, each
    segment starting where the one before it ends."""
    start = value = 0
    segments = []
    for _, _, rise, width in _core_pieces(budgets, core):
        segments.append(tuple.__new__(Segment, (start, value, rise, width)))
        start += width
        value += rise
    return StallCurve(core=core, q=start, segments=tuple(segments))


def _core_pieces(budgets: BudgetVector, core: int) -> tuple[Piece, ...]:
    """``core``'s curve segments as pieces (coeff, key, rise, width),
    steepest first, from the vector's table, which the first call on a
    vector instance takes from :func:`_cached_curve` and pins on it.

    A segment (start, value, rise, width) of the curve under Q = the
    vector's total has ``coeff`` = (Q - value) * width + rise * start and
    ``key`` = -floor(rise * Q^2 / width). The key orders the slopes of every
    vector summing to Q exactly: every width is at most Q, so two distinct
    slopes a/w and b/v differ by at least 1/(w * v) >= 1/Q^2, their scaled
    values by at least 1, and so their floors differ; equal slopes get
    equal keys.
    """
    table = budgets._curves
    if table is None:
        table = _cached_curve(budgets)
        object.__setattr__(budgets, "_curves", table)
    pieces = table.pieces.get(core)
    return table.pieces_for(core) if pieces is None else pieces


class _CurveTable:
    """One vector's F and the pieces read from it so far.

    ``xs`` and ``ys`` list F's vertices (see the module docstring): x = 0,
    then each distinct budget in increasing order. ``shared`` holds F's
    pieces built so far, a prefix, and ``pieces`` each core's, for
    :func:`_core_pieces`.
    """

    __slots__ = ("budgets", "total", "xs", "ys", "shared", "pieces")

    def __init__(self, budgets: tuple[int, ...]) -> None:
        self.budgets = budgets
        below, above = 0, len(budgets)
        xs, ys = [0], [0]
        for q in sorted(budgets):
            below += q
            above -= 1
            # F(q) = (sum of the budgets <= q) + q * (budgets above q) - q,
            # once every budget equal to q is counted.
            if q == xs[-1]:
                ys[-1] = below + q * (above - 1)
            else:
                xs.append(q)
                ys.append(below + q * (above - 1))
        self.total, self.xs, self.ys = below, xs, ys
        self.shared: list[Piece] = []
        self.pieces: dict[int, tuple[Piece, ...]] = {}

    def __reduce__(self) -> tuple:
        # A pickled vector carries only its budgets; the copy's table builds
        # its pieces again on request.
        return _CurveTable, (self.budgets,)

    def pieces_for(self, core: int) -> tuple[Piece, ...]:
        """Build, check and keep ``core``'s pieces (see :func:`_core_pieces`).

        The curve is F's first n vertices, then (q, Q - q). F's pieces are
        built and checked only as far as this core reads them, its first
        n - 1; a later core that reads further extends them.
        """
        _check_core(len(self.budgets), core)
        xs, ys, q_total, shared = self.xs, self.ys, self.total, self.shared
        q = self.budgets[core - 1]
        top = q_total - q
        # F's vertices below q, then (q, Q - q): drop the last vertex while
        # it lies on or below the chord from its predecessor to (q, Q - q).
        n = bisect_left(xs, q)
        while n > 1:
            ox, oy, ax, ay = xs[n - 2], ys[n - 2], xs[n - 1], ys[n - 1]
            if (ax - ox) * (top - oy) - (ay - oy) * (q - ox) < 0:
                break
            n -= 1
        for k in range(len(shared), n - 1):
            x, y = xs[k], ys[k]
            shared.append(_piece(q_total, x, y, ys[k + 1] - y, xs[k + 1] - x, shared[-1] if shared else None))
        x, y = xs[n - 1], ys[n - 1]
        end = _piece(q_total, x, y, top - y, q - x, shared[n - 2] if n > 1 else None)
        pieces = self.pieces[core] = (*shared[: n - 1], end)
        return pieces


def _piece(q_total: int, start: int, value: int, rise: int, width: int, before: Piece | None) -> Piece:
    """The piece (coeff, key, rise, width) of a segment, checked to be
    non-empty and strictly flatter than the piece ``before`` it."""
    if width < 1 or (before is not None and rise * before[3] >= before[2] * width):
        raise InvariantError(f"stall curve table: the piece at {start} is empty or not strictly flatter than the one before")
    return (q_total - value) * width + rise * start, -(rise * q_total * q_total // width), rise, width


@lru_cache(maxsize=256)
def _cached_curve(budgets: BudgetVector) -> _CurveTable:
    """The curve tables of recently used vectors, by value.

    Each vector instance asks once (:func:`_core_pieces` pins the table on
    it), so the cache serves equal vectors built anew: SE's even split for
    every set, and a DY or SU vector that an earlier set or event already
    built. An m = 8 DY set touches 2.8 vectors on average and 12 at most,
    and the 1,245 vectors of a 480-set ``ima-dy`` pool are nearly all
    distinct. At 256 that pool misses 1,251 times and the 567-set sample
    under all three policies 1,333 times, against 1,245 and 1,331 with no
    bound, so a larger cache only holds tables never asked for again.
    """
    return _CurveTable(budgets.budgets)
