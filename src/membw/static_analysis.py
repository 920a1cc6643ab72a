"""Worst-case span under a single static budget vector.

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
in :func:`membw.dynamic_analysis._fixed_point`'s docstring), and under one
unbounded vector that root has a closed form, :func:`_static_span`. No
saturated span W < mu / q is a root: there S(W) = (Q - q) * W and
beta >= mu > q * W. For W >= mu / q the rate mu / W lies in the curve's
domain, where a concave piecewise-linear curve is the minimum of its
segments' lines. The line of segment e (start s, value y, rise r, width w)
reads y + r * (rho - s) / w at rate rho, so

    S(W) = min over e of (y * W + r * (mu - s * W) / w),

and W is a root exactly when some segment e has

    beta * w + r * mu <= W * coeff_e,   coeff_e = (Q - y) * w + r * s.

The coefficient is w times Q less the line's intercept y - r * s / w, which
lies in [0, Q - q] (the curve is concave, non-decreasing, with I(0) = 0 and
at most Q - q), so it is at least w * q > 0, and segment e admits every W
from one ceiling division on. The least root is therefore

    R = max(ceil(beta / Q), ceil(mu / q), min over e of
            ceil((beta * w + r * mu) / coeff_e)),

O(m) for a curve of at most m segments, with no iteration, result or trace.
"""

from __future__ import annotations

from dataclasses import replace

from .dynamic_analysis import AnalysisResult, _dynamic_span, _limit
from .errors import InvariantError
from .schedule import MemorySchedule, RegulationConfig, Workload
from .stall_curve import BudgetVector, curve_for_core


def analyze_static(workload: Workload, budgets: BudgetVector, core: int, config: RegulationConfig) -> AnalysisResult:
    """Fixed-point span analysis for one workload under a static assignment.

    On convergence the result carries the span bound W and its length in
    slots (W * Q). If a deadline is set and an iterate exceeds it, the result
    is a deadline miss carrying the first violating iterate.
    """
    schedule = MemorySchedule.static(budgets)
    limit = _limit(workload, schedule, core, config)
    return replace(_dynamic_span(schedule, core, workload.execution, workload.memory, limit), detail=None)


def _static_span(budgets: BudgetVector, core: int, execution: int, memory: int, limit: int | None) -> int | None:
    """:func:`analyze_static`'s converged span in closed form, or None where
    it misses ``limit`` periods (None for no deadline).

    Inputs are already known valid: E >= 1, mu >= 0. See the module
    docstring for the formula. A first iterate past ``limit`` is a miss
    before any curve is built, as in the loop.
    """
    q_total = budgets.total
    beta = execution + memory
    span = -(-beta // q_total)
    if limit is not None and span > limit:
        return None
    curve = curve_for_core(budgets, core)
    # The least segment root, kept as the loop goes: collecting the roots
    # for min() measured slower on IMA's calls.
    least = None
    for seg in curve.segments:
        coeff = (q_total - seg.value) * seg.width + seg.rise * seg.start
        if coeff <= 0:
            raise InvariantError(f"closed-form span: segment at {seg.start} has coefficient {coeff} <= 0")
        root = -(-(beta * seg.width + seg.rise * memory) // coeff)
        least = root if least is None or root < least else least
    root = max(span, -(-memory // curve.q), least)
    return root if limit is None or root <= limit else None
