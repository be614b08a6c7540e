"""Structured span tracing over the simulated clock.

Spans, instants, and counter tracks are recorded against *simulated*
milliseconds and exported in the Chrome trace-event JSON format, so a
fleet run opens directly in ``chrome://tracing`` or Perfetto.  Because the
clock is simulated, the same seed produces a byte-identical trace file —
something wall-clock tracers cannot offer.

Export is canonicalised: events are sorted by a total-order key before
serialisation, so two engines that *emit* the same events in different
orders (the event loop interleaves per arrival, the columnar engine per
replica sweep) still render the same bytes.
"""

from __future__ import annotations

import json
from itertools import groupby
from typing import Dict, List, Optional

__all__ = ["Tracer"]

_PID = 0  # single simulated process; replicas map to threads


def _event_head(event: Dict) -> tuple:
    # Metadata first (ts -1), then by timestamp / thread / phase / name /
    # duration.
    return (
        event.get("ts", -1.0),
        event.get("tid", 0),
        event.get("ph", ""),
        event.get("name", ""),
        event.get("dur", 0.0),
    )


def _event_sort_key(event: Dict) -> tuple:
    # The head, then the canonical args — a total order over everything
    # we emit.
    return _event_head(event) + (
        json.dumps(event.get("args", {}), sort_keys=True),
    )


class Tracer:
    """Collect trace events in Chrome trace-event form.

    Timestamps arrive in simulated milliseconds and are stored in the
    microseconds the trace-event format expects (``ms * 1000.0`` — one
    IEEE multiply, identical on every engine).
    """

    def __init__(self) -> None:
        self.events: List[Dict] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add_span(
        self,
        name: str,
        start_ms: float,
        duration_ms: float,
        tid: int = 0,
        args: Optional[Dict] = None,
    ) -> None:
        event = {
            "name": name,
            "ph": "X",
            "ts": float(start_ms) * 1000.0,
            "dur": float(duration_ms) * 1000.0,
            "pid": _PID,
            "tid": int(tid),
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def add_instant(
        self, name: str, ts_ms: float, tid: int = 0, args: Optional[Dict] = None
    ) -> None:
        event = {
            "name": name,
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "ts": float(ts_ms) * 1000.0,
            "pid": _PID,
            "tid": int(tid),
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def add_counter(self, name: str, ts_ms: float, values: Dict[str, float]) -> None:
        self.events.append(
            {
                "name": name,
                "ph": "C",
                "ts": float(ts_ms) * 1000.0,
                "pid": _PID,
                "tid": 0,
                "args": {key: float(values[key]) for key in values},
            }
        )

    def add_thread_name(self, tid: int, label: str) -> None:
        self.events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": int(tid),
                "args": {"name": label},
            }
        )

    # ------------------------------------------------------------------
    # shard-partial plumbing (mirrors ShardPartial merge in the columnar
    # engine: children drain their buffers, the parent absorbs)
    # ------------------------------------------------------------------
    def take(self) -> List[Dict]:
        events, self.events = self.events, []
        return events

    def absorb(self, events: List[Dict]) -> None:
        self.events.extend(events)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_chrome(self) -> Dict:
        # Equal to sorted(events, key=_event_sort_key): sort on the head,
        # then re-sort only runs of equal heads by the full key.  Both sorts
        # are stable, so the args are serialised only for tied events.
        ordered: List[Dict] = []
        for _, group in groupby(sorted(self.events, key=_event_head), key=_event_head):
            run = list(group)
            if len(run) > 1:
                run.sort(key=_event_sort_key)
            ordered.extend(run)
        return {"displayTimeUnit": "ms", "traceEvents": ordered}

    def to_json(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True) + "\n"
