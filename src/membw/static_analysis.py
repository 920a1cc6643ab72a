"""Worst-case span under a single static budget vector, and past a history.

The span of a workload (E, mu) on core i is the least number of regulation
periods W covering E execution slots, mu transactions, and the worst-case
stall those transactions can suffer. A static assignment is a memory
schedule of one unbounded interval, so :func:`analyze_static` runs the
dynamic analysis's fixed-point kernel on that schedule (see
:mod:`membw.dynamic_analysis`). There the split gives the whole span to the
one interval and the greedy fills its one curve, so S(W) = W * I(min(mu / W,
q)), and the loop is the paper's static iteration

    W_(0) = ceil(beta / Q)
    W_(k) = ceil((beta + I(min(mu / W_(k-1), q)) * W_(k-1)) / Q)

with beta = E + mu. One vector has no intervals to break the stall over, so
a static result's ``breakdown`` is None.

The loop's span is the least root of beta + S(W) <= Q * W (the argument is
in :func:`membw.dynamic_analysis._dynamic_span`'s docstring), and under one
unbounded vector that root has a closed form, :func:`_static_span`. No
saturated span W < mu / q is a root: there S(W) = (Q - q) * W and
beta >= mu > q * W. For W >= mu / q the rate mu / W lies in the curve's
domain, where a concave piecewise-linear curve is the minimum of its
segments' lines. The line of segment e (start s, value y, rise r, width w)
reads y + r * (rho - s) / w at rate rho, so

    S(W) = min over e of (y * W + r * (mu - s * W) / w),

and such a W is a root exactly when some segment e has

    beta * w + r * mu <= W * coeff_e,   coeff_e = (Q - y) * w + r * s.

The coefficient is w times Q less the line's intercept y - r * s / w, which
lies in [0, Q - q] (the curve is concave, non-decreasing, with I(0) = 0 and
at most Q - q), so it is at least w * q > 0, and segment e admits every W
from one ceiling division on. Nor is any W that segment e admits below
ceil(beta / Q) or saturated. The inequality reads beta + W * line(mu / W)
<= Q * W, and the line lies on or above the concave curve and does not
fall, so it reads at least 0 at every rate and at least I(q) = Q - q past
q. So W >= beta / Q, and mu / W <= q, since a rate past q would give
beta <= q * W < mu. The least root is therefore

    R = min over e of ceil((beta * w + r * mu) / coeff_e),

O(m) for a curve of at most m segments, with no iteration, result or trace.
It reads the segments as :func:`membw.stall_curve._core_pieces` gives them,
with coeff_e computed once per vector and core, and checks coeff_e > 0.

The same argument, read as LP duality, gives the least root of a view that
runs history intervals j (lengths L_j, L in all) and then a vector unbounded,
for spans past the history, :func:`_view_span`. A span W = L + T, T >= 0,
fills every history interval, so the kernel's S(W) is a fractional knapsack:
each segment (rise r_i, width w_i) of history curve j is a piece of
capacity L_j * w_i, each segment of the tail's curve a piece of capacity
T * w_i, and piece i yields r_i / w_i stall per transaction, mu transactions
in all. Its LP dual is

    D(lambda) = lambda * mu + sum over pieces of cap_i * max(0, r_i / w_i - lambda),

for lambda >= 0, and S(W) <= D(lambda) for every lambda. D is convex and
piecewise linear with its breaks at the pieces' slopes, so when the pieces
hold mu (W unsaturated) its minimum, equal to S(W), falls on some piece
slope lambda = r / w: where its slope mu - (capacity steeper than lambda)
turns non-negative, or at lambda = 0, a slope only a zero-slope piece can
give when the pieces steeper than 0 do not hold mu. A saturated W is no
root, as above, and D(lambda) >= S(W) there too. So W is a root exactly when
beta + D(r / w) <= Q * W for some piece (r, w); times w, that reads

    beta * w + r * mu + sum_hist L_j * max(0, r_i * w - w_i * r) - Q * w * L
        <= T * (Q * w - sum_tail max(0, r_i * w - w_i * r)).

The sums run over the pieces strictly steeper than r / w: a piece of equal
slope adds 0. The coefficient of T is w times Q less the tail curve's
tangent intercept at slope r / w, at least w * q_tail > 0, so each piece
admits every T from one ceiling division on, and

    R = L + min over pieces of ceil(N / coeff)

with N the left-hand side. Sorted by slope, the two sums are running sums of
rises and widths, so the view costs O(S log S) for S pieces, and a run of
equal vectors gives the same root whether it comes as one interval or as
several: its pieces only tie, and tied pieces add their L_j-weighted rises
and widths. So DY passes one interval per run. Each core's pieces come
sorted and keyed from :func:`membw.stall_curve._core_pieces`, under the key
scale Q^2 of their own vector, so the merge of the tail's and the history's
pieces is exact only when every vector sums to the tail's Q; a history
vector over another total raises :class:`InvariantError`. With no history the
running sums of the tail's segments steeper than e are e's value and start,
and the formula is :func:`_static_span`'s. The formula holds for W >= L
only, so it needs R > L: the minimum is <= 0 exactly when W = L is a root,
and that raises :class:`InvariantError`. DY meets it, since it views a
history only for a running partition, whose previous view agrees with this
one up to L periods and had no root there.
"""

from __future__ import annotations

from collections.abc import Sequence

from .dynamic_analysis import AnalysisResult, _dynamic_span, _limit
from .errors import InvariantError
from .schedule import BudgetInterval, MemorySchedule, RegulationConfig, Workload
from .stall_curve import BudgetVector, _core_pieces


def analyze_static(workload: Workload, budgets: BudgetVector, core: int, config: RegulationConfig) -> AnalysisResult:
    """Fixed-point span analysis for one workload under a static assignment.

    On convergence the result carries the span bound W and its length in
    slots (W * Q). If a deadline is set and an iterate exceeds it, the result
    is a deadline miss carrying the first violating iterate.
    """
    schedule = MemorySchedule.static(budgets)
    limit = _limit(workload, schedule, config)
    result = _dynamic_span(schedule, core, workload.execution, workload.memory, limit)
    # The record without the breakdown's detail: the constructor costs half
    # of dataclasses.replace.
    return AnalysisResult(result.status, result.span, result.length_slots, result.raw, shortfall=result.shortfall)


def _static_span(budgets: BudgetVector, core: int, execution: int, memory: int, limit: int | None) -> int | None:
    """:func:`analyze_static`'s converged span in closed form, or None where
    it misses ``limit`` periods (None for no deadline).

    Inputs are already known valid: E >= 1, mu >= 0. See the module
    docstring for the formula. A first iterate past ``limit`` is a miss
    before any curve is built, as in the loop.
    """
    q_total = budgets.total
    beta = execution + memory
    if limit is not None and -(-beta // q_total) > limit:
        return None
    # The least piece root, kept as the loop goes: collecting the roots
    # for min() measured slower on IMA's calls.
    least = None
    for coeff, _, rise, width in _core_pieces(budgets, core):
        if coeff <= 0:
            raise InvariantError(f"closed-form span: a piece of slope {rise}/{width} has coefficient {coeff} <= 0")
        root = -(-(beta * width + rise * memory) // coeff)
        least = root if least is None or root < least else least
    return least if limit is None or least <= limit else None


def _view_span(
    history: Sequence[BudgetInterval],
    budgets: BudgetVector,
    core: int,
    execution: int,
    memory: int,
    limit: int | None,
) -> int | None:
    """The kernel's span over ``history`` (bounded intervals) and then
    ``budgets`` unbounded, in closed form, or None where it misses ``limit``
    periods (None for no deadline).

    Inputs are already known valid, as for :func:`_static_span`, and the
    least root must lie past the history; see the module docstring for the
    formula and this precondition, whose breach raises
    :class:`InvariantError`. A history that reaches ``limit``, or a first
    iterate past it, is a miss before any curve is built.
    """
    q_total = budgets.total
    beta = execution + memory
    length = 0
    for iv in history:
        if iv.budgets.total != q_total:
            raise InvariantError(f"closed-form view span: a history vector sums to {iv.budgets.total}, the tail to {q_total}")
        length += iv.length
    if limit is not None and (length >= limit or -(-beta // q_total) > limit):
        return None
    # Every piece tagged with its interval's L_j, 0 for the tail, in the
    # greedy's exact slope order: the keys share the scale Q^2, since every
    # vector sums to Q.
    pieces = [(key, 0, rise, width) for _, key, rise, width in _core_pieces(budgets, core)]
    for iv in history:
        periods = iv.length
        pieces += [(key, periods, rise, width) for _, key, rise, width in _core_pieces(iv.budgets, core)]
    pieces.sort()
    # Running sums over the pieces steeper than the current one: rises and
    # widths, history pieces weighted by L_j, tail pieces unweighted.
    hist_rise = hist_width = tail_rise = tail_width = 0
    excess = beta - q_total * length
    least = key = None
    for piece_key, periods, rise, width in pieces:
        tail = not periods
        if piece_key != key:
            # The first piece of a slope: its ties would add 0, so one
            # evaluation serves them all.
            key = piece_key
            coeff = (q_total - tail_rise) * width + tail_width * rise
            if coeff <= 0:
                raise InvariantError(f"closed-form view span: slope {rise}/{width} has coefficient {coeff} <= 0")
            root = -(-(excess * width + rise * memory + hist_rise * width - hist_width * rise) // coeff)
            least = root if least is None or root < least else least
        hist_rise += periods * rise
        hist_width += periods * width
        tail_rise += tail * rise
        tail_width += tail * width
    if least <= 0:
        raise InvariantError(f"closed-form view span: the least root lies within the {length}-period history")
    span = length + least
    return span if limit is None or span <= limit else None
