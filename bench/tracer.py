"""Per-layer counters and times, taken from outside the program.

``Tracer.install`` rebinds public membw functions, in every membw module that
holds them, to timing wrappers; ``restore`` puts the originals back. Span
wrappers keep a stack, so each span's self time is its duration minus the time
its child spans cover. The hottest calls (``stall_over``, ``split_span``,
``curve_for_core``) are only counted and timed: they take no part in the stack,
and their time stays in the self time of the span that called them.
Nothing is kept per call, so memory stays bounded however long the run.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (metric prefix, module, attribute); spans first, then counted-only calls.
SPANS = (
    ("cli.main", "cli", "main"),
    ("ima.evaluate_schedulability", "ima", "evaluate_schedulability"),
    ("ima.policy_dy", "ima", "policy_dy"),
    ("dynamic_analysis.analyze_dynamic", "dynamic_analysis", "analyze_dynamic"),
    ("static_analysis.analyze_static", "static_analysis", "analyze_static"),
    ("dynamic_analysis.distribute_memory", "dynamic_analysis", "distribute_memory"),
    ("dynamic_analysis.stall_breakdown", "dynamic_analysis", "stall_breakdown"),
)
COUNTED = (
    ("stall_curve.curve_for_core", "stall_curve", "curve_for_core"),
    ("schedule.split_span", "schedule", "split_span"),
    ("schedule.parse_scenario", "schedule", "parse_scenario"),
    ("ima.generate_partition_set", "ima", "generate_partition_set"),
    ("ima.split_budget_by_weights", "ima", "split_budget_by_weights"),
)
STATUSES = ("converged", "deadline_miss", "schedule_exhausted")


class Tracer:
    def __init__(self, mb):
        self.mb = mb
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.intervals_max = 0
        self._stack: list[list] = []
        self._undo: list[tuple] = []
        self._cache_before = None

    def install(self) -> None:
        mb = self.mb
        hooks = {
            "ima.policy_dy": self._on_policy_dy,
            "dynamic_analysis.analyze_dynamic": self._on_analyze_dynamic,
            "static_analysis.analyze_static": self._on_analyze_static,
        }
        for name, module, attr in SPANS:
            fn = getattr(getattr(mb, module), attr)
            self._rebind(fn, self._span(name, fn, hooks.get(name)))
        for name, module, attr in COUNTED:
            fn = getattr(getattr(mb, module), attr)
            self._rebind(fn, self._counted(name, fn))
        curve_cls = mb.stall_curve.StallCurve
        stall_over = curve_cls.stall_over
        curve_cls.stall_over = self._counted("stall_curve.stall_over", stall_over)
        self._undo.append((curve_cls, "stall_over", stall_over))
        self._cache_before = mb.stall_curve._cached_curve.cache_info()

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, fn, wrapper) -> None:
        """Replace ``fn`` in every membw module that has bound it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "membw" and not mod_name.startswith("membw."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def _span(self, name, fn, on_result):
        stack, calls, busy, self_time = self._stack, self.calls, self.busy, self.self_time

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                busy[name] += elapsed
                self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls, busy = self.calls, self.busy

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls[name] += 1
                busy[name] += perf_counter() - t0

        return wrapper

    def _on_policy_dy(self, args, outcome) -> None:
        self.counts["ima.policy_dy.events"] += len(set(outcome.completions.values()))

    def _on_analyze_dynamic(self, args, result) -> None:
        prefix = "dynamic_analysis.analyze_dynamic"
        if self._stack and self._stack[-1][0] == "ima.policy_dy":
            self.counts["ima.policy_dy.hypotheses"] += 1
        intervals = len(args[1].intervals)
        self.counts[f"{prefix}.intervals"] += intervals
        self.intervals_max = max(self.intervals_max, intervals)
        self.counts[f"{prefix}.iterates"] += len(result.trace) - 1
        self.counts[f"{prefix}.status.{result.status.value.replace('-', '_')}"] += 1

    def _on_analyze_static(self, args, result) -> None:
        self.counts["static_analysis.analyze_static.iterates"] += len(result.trace) - 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        calls, busy, counts = self.calls, self.busy, self.counts
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.busy_s"] = (busy[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for name in ("stall_curve.stall_over", *(n for n, _, _ in COUNTED)):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.busy_s"] = (busy[name], "s")
        dy, ad = "ima.policy_dy", "dynamic_analysis.analyze_dynamic"
        out[f"{dy}.hypotheses"] = (counts[f"{dy}.hypotheses"], "count")
        out[f"{dy}.events"] = (counts[f"{dy}.events"], "count")
        out[f"{dy}.hypotheses_per_event"] = (_ratio(counts[f"{dy}.hypotheses"], counts[f"{dy}.events"]), "ratio")
        out[f"{ad}.iterates"] = (counts[f"{ad}.iterates"], "count")
        out[f"{ad}.intervals_mean"] = (_ratio(counts[f"{ad}.intervals"], calls[ad]), "count")
        out[f"{ad}.intervals_max"] = (self.intervals_max, "count")
        for status in STATUSES:
            out[f"{ad}.status.{status}"] = (counts[f"{ad}.status.{status}"], "count")
        out["static_analysis.analyze_static.iterates"] = (counts["static_analysis.analyze_static.iterates"], "count")
        now = self.mb.stall_curve._cached_curve.cache_info()
        hits = now.hits - self._cache_before.hits
        misses = now.misses - self._cache_before.misses
        out["stall_curve.cache.hits"] = (hits, "count")
        out["stall_curve.cache.misses"] = (misses, "count")
        out["stall_curve.cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
