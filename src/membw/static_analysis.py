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
"""

from __future__ import annotations

from .dynamic_analysis import AnalysisResult, _fixed_point, _limit
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
