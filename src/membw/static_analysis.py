"""Worst-case span under a single static budget vector.

The span of a workload (E, mu) on core i is the least number of regulation
periods W covering E execution slots, mu transactions, and the worst-case
stall those transactions can suffer. Concavity of the stall curve bounds the
stall of any W-period window at mean rate mu/W, giving the fixed-point
iteration

    W_(0) = ceil(beta / Q)
    W_(k) = ceil((beta + I(min(mu / W_(k-1), q)) * W_(k-1)) / Q)

with beta = E + mu, evaluated exactly (integer numerators over the curve
segment's width; see :meth:`membw.stall_curve.StallCurve.stall_ratio`). The
sequence is non-decreasing and integer, so it either converges or crosses the
deadline. While mu >= W * q the rate is pinned at q, where I(q) = Q - q, so
S(W) = (Q - q) * W up to W = mu // q; the term hands that stretch to the loop
as a stride, which walks it without evaluating the curve. It reports a stride
exactly when mu >= W * q, so the loop's stride guard is also this analyzer's
convergence check: a fixed point leaves budget headroom (mu < W * q).

Both analyzers share one iteration loop (in :mod:`membw.dynamic_analysis`);
this module supplies only its own single-curve stall term, which the tests
and the benchmark use as the independent reference for the dynamic split +
greedy stall term on one-interval schedules. The term carries no breakdown
detail, so a static result's ``breakdown`` is None.

The loop's span is the least root of beta + S(W) <= Q * W (the argument is
in :func:`membw.dynamic_analysis._fixed_point`'s docstring: the roots are
every W from the least one on), and under one unbounded vector that root
has a closed form, :func:`_static_span`. On the curve segment (start s,
value y, rise r, width w) that the rate mu / W falls on, s * W <= mu and
S(W) = y * W + r * (mu - s * W) / w, so W is a root exactly when

    beta * w + r * mu <= W * (Q * w - y * w + r * s).

The coefficient is w times Q less the tangent's intercept y - r * s / w,
which lies in [0, Q - q] (the curve is concave, non-decreasing, with I(0) = 0
and at most Q - q), so it is at least w * q > 0 and the piece's least root is
one ceiling division. No root is saturated (there S(W) = (Q - q) * W and
beta > q * W), so the solve starts at W = max(ceil(beta / Q), ceil(mu / q))
on the last segment. Where a piece's least root lies past its range
(s * W > mu), no W in that range is a root, and the solve moves to
W = ceil(mu / s) and the segments below. The first segment has s = 0, so
the walk ends there at the latest: O(m) steps for a curve of at most m
segments, and no loop, result or trace.
"""

from __future__ import annotations

from .dynamic_analysis import AnalysisResult, _fixed_point, _limit
from .errors import InvariantError
from .schedule import RegulationConfig, Workload
from .stall_curve import BudgetVector, curve_for_core


def analyze_static(workload: Workload, budgets: BudgetVector, core: int, config: RegulationConfig) -> AnalysisResult:
    """Fixed-point span analysis for one workload under a static assignment.

    On convergence the result carries the span bound W and its length in
    slots (W * Q). If a deadline is set and an iterate exceeds it, the result
    is a deadline miss carrying the first violating iterate.
    """
    curve = curve_for_core(budgets, core)
    q = curve.q
    memory = workload.memory

    def stall_term(span: int) -> tuple[int, int, None, tuple[int, int] | None]:
        num, den = curve.stall_ratio(span, min(memory, span * q))
        if memory < span * q:
            return num, den, None, None
        # Saturated: the rate sits at q, where the curve reads Q - q, so
        # S(W') = (Q - q) * W' on the last segment for every W' <= mu // q.
        return num, den, None, ((budgets.total - q) * den, memory // q)

    return _fixed_point(workload.beta, _limit(workload, budgets.total, config), budgets.total, stall_term)


def _static_span(budgets: BudgetVector, core: int, execution: int, memory: int, limit: int | None) -> int | None:
    """:func:`analyze_static`'s converged span in closed form, or None where
    it misses ``limit`` periods (None for no deadline).

    Inputs are already known valid: E >= 1, mu >= 0. See the module
    docstring for the solve. A first iterate past ``limit`` is a miss
    before any curve is built, as in the loop.
    """
    q_total = budgets.total
    beta = execution + memory
    span = -(-beta // q_total)
    if limit is not None and span > limit:
        return None
    curve = curve_for_core(budgets, core)
    span = max(span, -(-memory // curve.q))
    for seg in reversed(curve.segments):
        if seg.start * span > memory:
            # The rate mu / span lies below this segment.
            continue
        coeff = (q_total - seg.value) * seg.width + seg.rise * seg.start
        if coeff <= 0:
            raise InvariantError(f"closed-form span: segment at {seg.start} has coefficient {coeff} <= 0")
        root = max(span, -(-(beta * seg.width + seg.rise * memory) // coeff))
        if seg.start * root <= memory:
            break
        span = -(-memory // seg.start)
    return root if limit is None or root <= limit else None
