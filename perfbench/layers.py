"""The traced run: per-layer self times from spans around public functions.

Every function in :data:`SPANS` is replaced, for the duration of one
iteration and only inside the benchmark process, by
``repro.perf.Profiler(trace=True).wrap``.  Self times come from interval
nesting over the profiler's entries: a span's self time is its duration
minus the time its direct children cover.  The whole iteration runs under
a ``root`` span, so root self time is the wall no layer span claimed.

Counts (rows, MACs, calls) are accumulated in place by the wrappers, at
the call boundary, so trace memory holds only span intervals.
"""

from __future__ import annotations

import collections
import math
from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np

import repro.fleet.columnar as columnar
import repro.fleet.runner as runner
import repro.quant.integer_model as integer_model
import repro.quant.intgemm as intgemm
from repro.fleet.autoscale import Autoscaler
from repro.fleet.fleet import Fleet
from repro.fleet.scenarios import Scenario
from repro.obs import FleetObserver
from repro.obs.windows import WindowTracker
from repro.perf.profiler import Profiler
from repro.perf.workloads import HashTokenizer
from repro.quant.fixedpoint import FixedPointMultiplier, VectorFixedPointMultiplier
from repro.quant.integer_model import GeluLUT, IntegerBertForSequenceClassification, IntegerLayerNorm
from repro.quant.intgemm import CachedMatmul
from repro.serve import ServingEngine
from workloads import sweep_path

# (span name, owner, attribute).  Module-level functions are patched in
# the module that calls them, because callers bind them at import.
SPANS: List[Tuple[str, object, str]] = [
    ("quant.encode", IntegerBertForSequenceClassification, "encode"),
    ("quant.classify", IntegerBertForSequenceClassification, "classify_rows"),
    ("quant.gemm", CachedMatmul, "__call__"),
    ("quant.gemm", integer_model, "exact_matmul"),
    ("quant.gemm", intgemm, "exact_matmul"),
    ("quant.requant", FixedPointMultiplier, "apply"),
    ("quant.requant", VectorFixedPointMultiplier, "apply"),
    ("quant.saturate", integer_model, "saturate"),
    ("quant.softmax", integer_model, "quantized_softmax"),
    ("quant.layernorm", IntegerLayerNorm, "forward"),
    ("quant.gelu", GeluLUT, "forward"),
    ("serve.tokenize", HashTokenizer, "encode"),
    *[
        ("serve.engine", ServingEngine, name)
        for name in (
            "__init__", "submit", "advance", "drain", "run_trace", "stats",
            "cancel_pending", "evict_pending",
        )
    ],
    ("scenarios.generate", Scenario, "generate_columns"),
    ("scenarios.generate", Scenario, "generate"),
    ("columnar.prepare", columnar, "run_scenario_columnar"),
    ("columnar.sweep", columnar.ColumnarFleetEngine, "run_window"),
    ("columnar.drain", columnar.ColumnarFleetEngine, "drain"),
    ("columnar.drain", columnar.ColumnarFleetEngine, "drain_retries"),
    ("columnar.merge", columnar, "merge_shard_partials"),
    ("columnar.finalize", columnar.ColumnarFleetEngine, "finalize"),
    ("metrics.stats", runner, "build_fleet_stats"),
    ("metrics.stats", columnar, "build_fleet_stats_columns"),
    ("fleet.loop", runner, "run_scenario"),
    ("fleet.submit", Fleet, "submit"),
    ("fleet.submit", Fleet, "submit_resilient"),
    ("fleet.advance", Fleet, "advance"),
    ("fleet.retry", Fleet, "retry_attempt"),
    ("autoscale.tick", Autoscaler, "tick"),
    *[
        ("obs.hook", FleetObserver, name)
        for name in sorted(vars(FleetObserver))
        if name.startswith("on_")
    ],
    # FleetObserver binds its per-request on_* hooks to these at
    # construction (on_batch is a bare list append and is not wrapped).
    *[
        ("obs.hook", WindowTracker, f"record_{name}")
        for name in ("arrival", "arrivals", "shed", "sheds", "completion", "completions")
    ],
    ("obs.advance", FleetObserver, "advance"),
    ("obs.finalize", FleetObserver, "finalize"),
    ("obs.export", FleetObserver, "render_prometheus"),
    ("obs.export", FleetObserver, "window_lines"),
    ("obs.export", FleetObserver, "trace_json"),
]

# Spans entered once per request or per simulated event.  They are summed
# into the metrics but left out of the Chrome trace file, which would
# otherwise hold one event per call.
PER_REQUEST = {"serve.tokenize", "serve.engine", "fleet.submit", "fleet.advance",
               "fleet.retry", "autoscale.tick", "obs.hook", "obs.advance"}


UNITS = {
    **{name: "s" for name in (
        "quant.encode_s", "quant.gemm_s", "quant.requant_s", "quant.saturate_s",
        "quant.softmax_s", "quant.layernorm_s", "quant.gelu_s", "quant.encode_self_s",
        "quant.classify_s", "serve.tokenize_s", "serve.engine_self_s",
        "scenarios.generate_s", "columnar.prepare_s", "columnar.sweep_s",
        "columnar.sweep_max_window_s", "columnar.drain_s", "columnar.merge_s",
        "columnar.finalize_self_s", "metrics.stats_s", "fleet.submit_s", "fleet.advance_s",
        "fleet.retry_s", "fleet.loop_self_s", "autoscale.tick_s", "obs.hook_s",
        "obs.advance_s", "obs.finalize_s", "obs.export_s",
    )},
    **{name: "count" for name in (
        "quant.encode_calls", "columnar.windows", "fleet.submit_calls", "obs.hook_calls",
        "sim.submitted", "sim.retries", "sim.timeouts", "sim.breaker_opens",
        "sim.scale_events", "sim.alert_transitions",
    )},
    **{name: "ratio" for name in (
        "serve.cache_hit_rate", "serve.padding_efficiency", "columnar.native_window_share",
        "sim.shed_share", "trace.overhead_ratio", "trace.unattributed_share",
    )},
    "quant.rows_per_call": "rows",
    "quant.gemm_gmac_per_s": "GMAC/s",
    "serve.mean_batch_size": "rows",
    "scenarios.rows": "rows",
    "obs.stream_bytes": "bytes",
}


def _gemm_macs(args) -> int:
    """MACs of one GEMM call, from operand shapes."""
    if isinstance(args[0], CachedMatmul):  # CachedMatmul.__call__(self, a)
        plan, a = args
        return a.size * plan.b_i64.shape[1]
    a, b = args
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return math.prod(batch) * a.shape[-2] * a.shape[-1] * b.shape[-1]


def _rows_generated(attr, args, result) -> int:
    # Scenario.generate wraps generate_columns, whose rows are counted.
    return result.num_requests if attr == "generate_columns" else 0


# span name -> (counter, increment as a function of (attribute, args, result))
COUNTERS = {
    "quant.encode": ("quant.rows", lambda attr, args, result: args[1].shape[0]),
    "quant.gemm": ("quant.macs", lambda attr, args, result: _gemm_macs(args)),
    "scenarios.generate": ("scenarios.rows", _rows_generated),
}


class Tracer:
    """One traced iteration's profiler, counters and window paths."""

    def __init__(self):
        self.profiler = Profiler(trace=True)
        self.counts: Dict[str, int] = collections.Counter()
        self.paths: List[Dict] = []

    def _wrap(self, name: str, attr: str, fn):
        timed = self.profiler.wrap(name, fn)
        if name not in COUNTERS:
            return timed
        key, increment = COUNTERS[name]
        counts = self.counts

        def wrapped(*args, **kwargs):
            result = timed(*args, **kwargs)
            counts[key] += increment(attr, args, result)
            return result

        return wrapped

    @contextmanager
    def patched(self):
        """Install every span wrapper; restore the originals on exit."""
        saved = []
        try:
            for name, owner, attr in SPANS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, attr, original))
            with record_paths() as self.paths, self.profiler.span("root"):
                yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


@contextmanager
def record_paths():
    """Record the sweep path of every columnar window run inside the block."""
    engine_cls = columnar.ColumnarFleetEngine
    original = vars(engine_cls)["run_window"]
    paths: List[Dict] = []

    def run_window(engine, *args, **kwargs):
        paths.append(sweep_path(engine))
        return original(engine, *args, **kwargs)

    engine_cls.run_window = run_window
    try:
        yield paths
    finally:
        engine_cls.run_window = original


def self_times(entries) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float], collections.Counter]:
    """Self, inclusive and largest single self time (s) and calls per span name.

    Entries are ``(name, start_ms, duration_ms)`` from one thread, so
    spans nest properly; a stack sweep in start order finds each span's
    direct children.
    """
    self_s = collections.defaultdict(float)
    incl_s = collections.defaultdict(float)
    max_self_s = collections.defaultdict(float)
    calls = collections.Counter()
    stack: List[list] = []  # [name, end_ms, duration_ms, children_ms]

    def close(frame):
        name, _, duration, children = frame
        own = (duration - children) / 1e3
        self_s[name] += own
        incl_s[name] += duration / 1e3
        max_self_s[name] = max(max_self_s[name], own)
        calls[name] += 1

    for name, start, duration in sorted(entries, key=lambda e: (e[1], -e[2])):
        while stack and start >= stack[-1][1]:
            close(stack.pop())
        if stack:
            stack[-1][3] += duration
        stack.append([name, start + duration, duration, 0.0])
    while stack:
        close(stack.pop())
    return self_s, incl_s, max_self_s, calls


def chrome_trace(tracer: Tracer) -> str:
    """The iteration's Chrome trace, without the per-request spans."""
    kept = Profiler(trace=True)
    kept.entries = [e for e in tracer.profiler.entries if e[0] not in PER_REQUEST]
    return kept.chrome_trace_json()


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers of one traced iteration (sim.* and ratios added by the caller)."""
    self_s, incl_s, max_self_s, calls = self_times(tracer.profiler.entries)
    counts = tracer.counts
    windows = len(tracer.paths)
    gemm_s = self_s["quant.gemm"]
    return {
        "quant.encode_s": incl_s["quant.encode"],
        "quant.encode_calls": calls["quant.encode"],
        "quant.rows_per_call": counts["quant.rows"] / calls["quant.encode"] if calls["quant.encode"] else 0.0,
        "quant.gemm_s": gemm_s,
        "quant.gemm_gmac_per_s": counts["quant.macs"] / gemm_s / 1e9 if gemm_s else 0.0,
        "quant.requant_s": self_s["quant.requant"],
        "quant.saturate_s": self_s["quant.saturate"],
        "quant.softmax_s": self_s["quant.softmax"],
        "quant.layernorm_s": self_s["quant.layernorm"],
        "quant.gelu_s": self_s["quant.gelu"],
        "quant.encode_self_s": self_s["quant.encode"],
        "quant.classify_s": self_s["quant.classify"],
        "serve.tokenize_s": self_s["serve.tokenize"],
        "serve.engine_self_s": self_s["serve.engine"],
        "scenarios.generate_s": self_s["scenarios.generate"],
        "scenarios.rows": counts["scenarios.rows"],
        "columnar.prepare_s": self_s["columnar.prepare"],
        "columnar.sweep_s": self_s["columnar.sweep"],
        "columnar.sweep_max_window_s": max_self_s["columnar.sweep"],
        "columnar.windows": windows,
        "columnar.native_window_share": (
            sum(p["path"] == "native" for p in tracer.paths) / windows if windows else 0.0
        ),
        "columnar.drain_s": self_s["columnar.drain"],
        "columnar.merge_s": self_s["columnar.merge"],
        "columnar.finalize_self_s": self_s["columnar.finalize"],
        "metrics.stats_s": self_s["metrics.stats"],
        "fleet.submit_s": self_s["fleet.submit"],
        "fleet.submit_calls": calls["fleet.submit"],
        "fleet.advance_s": self_s["fleet.advance"],
        "fleet.retry_s": self_s["fleet.retry"],
        "fleet.loop_self_s": self_s["fleet.loop"],
        "autoscale.tick_s": self_s["autoscale.tick"],
        "obs.hook_s": self_s["obs.hook"],
        "obs.hook_calls": calls["obs.hook"],
        "obs.advance_s": self_s["obs.advance"],
        "obs.finalize_s": self_s["obs.finalize"],
        "obs.export_s": self_s["obs.export"],
        "trace.unattributed_share": self_s["root"] / incl_s["root"],
    }
