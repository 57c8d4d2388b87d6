"""Per-layer spans for the traced pass.

``traced(recorder)`` rebinds the names tracecheck's callers look up
(module globals and class attributes) to wrappers that record a span
around each call, and restores every original on exit.  Nothing in
``src/`` changes, and an untraced run never installs a wrapper.

Spans are aggregated in memory as they close: per span name, the
number of calls, the total time and the self time (a span's duration
minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

SPAN, COUNT = "span", "count"


class SpanRecorder:
    """Aggregates nested spans and plain counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: list[list[Any]] = []    # [name, start, child time]
        self.calls: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self._clock() - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration


def _len_into(key: str):
    def observe(rec: SpanRecorder, result) -> None:
        rec.counts[key] += len(result)
    return observe


def _verdict(rec: SpanRecorder, verdict) -> None:
    rec.counts["explorer.nodes"] += verdict.distinct_states
    rec.counts["explorer.edges"] += len(verdict.edges)


def _matches(rec: SpanRecorder, result) -> None:
    matches, attempts = result
    rec.counts["explorer.matches"] += len(matches)
    rec.counts["explorer.attempts"] += len(attempts)


# (owner, attribute, span name, kind, result observer).  An owner is a
# module path, or "module:Class" for a method.  Each entry is a name
# some caller looks up at call time.
TARGETS = (
    ("tracecheck.cli", "main", "cli", SPAN, None),
    ("tracecheck.cli", "run_twophase", "protocols", SPAN, None),
    ("tracecheck.cli", "run_tokenring", "protocols", SPAN, None),
    ("tracecheck.tracer:Tracer", "log", "tracer.log", SPAN, None),
    ("tracecheck.tracer:Tracer", "notify_change", "tracer.notify", COUNT,
     None),
    ("tracecheck.traces", "parse_ndjson", "traces.parse", SPAN,
     _len_into("traces.parse_entries")),
    ("tracecheck.cli", "merge", "traces.merge", SPAN,
     _len_into("traces.merge_entries")),
    ("tracecheck.protocols.common", "merge", "traces.merge", SPAN,
     _len_into("traces.merge_entries")),
    ("tracecheck.protocols.common", "write_trace_file", "traces.write",
     SPAN, None),
    ("tracecheck.cli", "validate", "explorer.validate", SPAN, _verdict),
    ("tracecheck.explorer", "match_entry", "explorer.match_entry", SPAN,
     _matches),
    ("tracecheck.explorer", "step", "machine.step", SPAN, None),
    ("tracecheck.explorer", "apply_entry_updates",
     "values.apply_entry_updates", SPAN, None),
    ("tracecheck.values", "value_to_json", "values.value_to_json", SPAN,
     None),
    ("tracecheck.explorer", "value_to_json", "values.value_to_json", SPAN,
     None),
    ("tracecheck.machine", "value_to_json", "values.value_to_json", SPAN,
     None),
    ("tracecheck.machine:SpecState", "fingerprint", "machine.fingerprint",
     SPAN, None),
    ("tracecheck.values:Value", "canonical", "values.canonical", COUNT,
     None),
    ("tracecheck.cli", "explain", "explorer.report", SPAN, None),
    ("tracecheck.explorer:Verdict", "to_jsonable", "explorer.report", SPAN,
     None),
)


def resolve_owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _wrap(orig, rec: SpanRecorder, name: str, kind: str, observe):
    if kind == COUNT:
        counts = rec.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        return counted

    @functools.wraps(orig)
    def spanned(*args, **kwargs):
        rec.enter(name)
        try:
            result = orig(*args, **kwargs)
        except BaseException:
            rec.raised[name] += 1
            raise
        finally:
            rec.exit()
        if observe is not None:
            observe(rec, result)
        return result
    return spanned


@contextmanager
def traced(rec: SpanRecorder, targets=TARGETS) -> Iterator[SpanRecorder]:
    """Install span wrappers for the duration of the block."""
    saved = []
    try:
        for owner_path, attr, name, kind, observe in targets:
            owner = resolve_owner(owner_path)
            orig = vars(owner)[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _wrap(orig, rec, name, kind, observe))
        yield rec
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer numbers from a recorder, keyed by metric name."""
    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    c, n, t, s = rec.calls, rec.counts, rec.total, rec.self_time
    matches, attempts = n["explorer.matches"], n["explorer.attempts"]
    return {
        "protocols.runs": c["protocols"],
        "protocols.self_s": s["protocols"],
        "tracer.log_calls": c["tracer.log"],
        "tracer.notify_calls": n["tracer.notify"],
        "tracer.log_self_s": s["tracer.log"],
        "tracer.log_per_s": per(c["tracer.log"], t["tracer.log"]),
        "traces.parse_entries": n["traces.parse_entries"],
        "traces.parse_self_s": s["traces.parse"],
        "traces.parse_entries_per_s": per(n["traces.parse_entries"],
                                          t["traces.parse"]),
        "traces.merge_entries": n["traces.merge_entries"],
        "traces.merge_self_s": s["traces.merge"],
        "traces.write_self_s": s["traces.write"],
        "values.apply_entry_updates_calls": c["values.apply_entry_updates"],
        "values.apply_entry_updates_self_s":
            s["values.apply_entry_updates"],
        "values.value_to_json_calls": c["values.value_to_json"],
        "values.value_to_json_self_s": s["values.value_to_json"],
        "values.canonical_calls": n["values.canonical"],
        "machine.step_calls": c["machine.step"],
        "machine.step_self_s": s["machine.step"],
        "machine.steps_per_s": per(c["machine.step"], t["machine.step"]),
        "machine.guard_fail_ratio": per(rec.raised["machine.step"],
                                        c["machine.step"]),
        "machine.fingerprint_calls": c["machine.fingerprint"],
        "machine.fingerprint_self_s": s["machine.fingerprint"],
        "explorer.nodes": n["explorer.nodes"],
        "explorer.edges": n["explorer.edges"],
        "explorer.match_entry_calls": c["explorer.match_entry"],
        "explorer.match_entry_self_us": per(s["explorer.match_entry"] * 1e6,
                                            c["explorer.match_entry"]),
        "explorer.nodes_per_s": per(n["explorer.nodes"],
                                    t["explorer.validate"]),
        "explorer.match_yield": per(matches, matches + attempts),
        "explorer.attempts": attempts,
        "explorer.validate_self_s": s["explorer.validate"],
        "explorer.report_self_s": s["explorer.report"],
        "cli.self_s": s["cli"],
    }
