"""Columnar analytic fleet engine: 100M-request traces, byte-exact reports.

The event-loop runner (:func:`repro.fleet.runner.run_scenario` with
``analytic=True``) walks a Python object per arrival — allocation, dict
traffic, and interpreter dispatch dominate, capping throughput around a
million requests per half minute.  This module re-expresses the *same*
simulation over columns:

- the trace is numpy arrays (arrival times, bucket indices, per-request
  SLOs, tenant indices) straight from
  :meth:`~repro.fleet.scenarios.Scenario.generate_columns`;
- every service time a run can dispatch is a memoized per-(design point,
  bucket, batch size) price table
  (:func:`repro.serve.router.service_table`);
- replica state is a handful of scalars and tiny per-bucket FIFOs;
- the per-arrival decision sweep — project, admit or shed, enqueue,
  flush — runs either as a tight pure-Python loop over local lists or as
  a runtime-compiled C kernel (:mod:`repro.fleet._native`) that performs
  the identical IEEE-754 operations in the identical order.

**Exactness.** The sweep replicates the event-loop engine decision for
decision: admission projections accumulate queued-batch prices in bucket
first-use order, routing keeps the lowest-id replica on ties via a
strict ``<``, deadline flushes fire in ``(deadline, bucket)`` order with
the deadline as flush time, autoscaler signals read the same windows and
format the same reason strings, failovers migrate queues in enqueue
order.  Because every floating-point operation has the same operands in
the same order, reports are *byte-identical* to the event-loop analytic
(and therefore executed) mode — a property the differential test suite
asserts across every scenario class.

**Sharding.** A trace can be split on time boundaries into shards that
run independently and hand a compact, picklable
:class:`ColumnarFleetState` from one to the next; each shard emits a
:class:`ShardPartial` (its completions and sheds), and
:func:`merge_shard_partials` scatters them into the final columns.  The
split points are pure checkpoints of the same globally ordered event
sequence, so any shard count — and running each shard in a forked
subprocess — produces the same bytes, which the property tests check
for shard counts 1, 2, 5, and 7.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..serve.metrics import percentile
from ..serve.router import service_table
from .autoscale import SCALE_DOWN, SCALE_UP, AutoscalePolicy, ScaleEvent
from .chaos import (
    SHED_BREAKER,
    SHED_TIMEOUT,
    BrownoutLadder,
    ChaosPlan,
    ChaosStats,
    CircuitBreaker,
    GrayWindow,
    ResiliencePolicy,
    RetryBudget,
    backoff_delay_ms,
)
from .fleet import (
    SHED_NO_CAPACITY,
    SHED_OVERLOAD,
    FleetConfig,
    ReplicaSpec,
    reference_bucket,
)
from .metrics import build_fleet_stats_columns, build_replica_stats
from .runner import (
    _ARRIVAL,
    _FAIL,
    _GRAY_END,
    _GRAY_START,
    _RECOVER,
    _TICK,
    FailureEvent,
    FleetReport,
    control_events,
)
from .scenarios import (
    ColumnarTrace,
    FleetRequest,
    Scenario,
    _tune_malloc_for_giant_traces,
    builtin_scenarios,
)
from . import _native

# Shed codes in the completion columns (0 = completed).
SHED_CODE_OVERLOAD = 1
SHED_CODE_NO_CAPACITY = 2
SHED_CODE_BREAKER = 3
SHED_CODE_TIMEOUT = 4
SHED_REASON_OF_CODE = {
    SHED_CODE_OVERLOAD: SHED_OVERLOAD,
    SHED_CODE_NO_CAPACITY: SHED_NO_CAPACITY,
    SHED_CODE_BREAKER: SHED_BREAKER,
    SHED_CODE_TIMEOUT: SHED_TIMEOUT,
}


def native_available() -> bool:
    """Whether the compiled C sweep is usable in this process."""
    return _native.available()


# ----------------------------------------------------------------------
# state
# ----------------------------------------------------------------------
@dataclass
class _Rep:
    """One replica's complete simulation state (picklable)."""

    rid: int
    spec: ReplicaSpec
    # the spec's price tables, bound once at add time (specs never change);
    # replicas sharing a design point share one object
    tables: _DesignTables
    added_ms: float
    busy_until: float = 0.0
    busy_ms: float = 0.0
    batches: int = 0
    requests: int = 0
    live: bool = True
    retired_ms: Optional[float] = None
    failures: int = 0
    downtime_ms: float = 0.0
    # down because of a fail-stop (vs scaled away) — recover guard,
    # mirroring Replica.failed
    failed: bool = False
    # gray-window service multiplier (DeviceRouter.slowdown's twin);
    # 1.0 costs no float op
    slowdown: float = 1.0
    # per-replica straggle detector when the resilience policy enables it
    breaker: Optional[CircuitBreaker] = None
    pending: int = 0
    # Per-bucket FIFO queues of (request index, enqueue ms); `order` lists
    # bucket slots in first-use order (the batcher's dict insertion order,
    # which fixes the float accumulation order of admission projections).
    queues: List[List[Tuple[int, float]]] = field(default_factory=list)
    order: List[int] = field(default_factory=list)
    seen: List[bool] = field(default_factory=list)
    next_dl: Optional[float] = None
    # (finish, engine latency) per completion in execution order; only
    # maintained when the autoscaler needs its window-p99 signal, pruned
    # to the unsampled suffix every tick.
    hist: Optional[List[Tuple[float, float]]] = None


@dataclass
class ColumnarFleetState:
    """Everything a shard hands to the next one (compact, picklable)."""

    replicas: List[_Rep] = field(default_factory=list)
    live: List[int] = field(default_factory=list)
    next_id: int = 0
    now: float = 0.0
    min_slo: Optional[float] = None
    migrations: int = 0
    # autoscaler state
    cooldown: int = 0
    last_tick: float = 0.0
    busy_snapshot: float = 0.0
    events: List[ScaleEvent] = field(default_factory=list)
    # chaos-layer state (rides the shard pickle like everything else)
    chaos: ChaosStats = field(default_factory=ChaosStats)
    budget: Optional[RetryBudget] = None
    brownout: Optional[BrownoutLadder] = None
    # scheduled backoff retries: min-heap of (due_ms, seq, idx, attempt);
    # seq increments in scheduling order, matching the event loop's
    # event-sequence numbering of _RETRY events (same relative order).
    retry_heap: List[Tuple[float, int, int, int]] = field(default_factory=list)
    retry_seq: int = 0
    # hedged pairs: (rid, request idx) -> (twin rid, shared bucket slot),
    # both directions, plus the set of primary keys (for hedge_wins).
    hedge: Dict[Tuple[int, int], Tuple[int, int]] = field(default_factory=dict)
    hedge_primary: Set[Tuple[int, int]] = field(default_factory=set)


@dataclass
class ShardPartial:
    """One shard's contribution to the final report: completions + sheds."""

    done_idx: np.ndarray    # int64 — request indices completed in this shard
    done_fin: np.ndarray    # float64 — their finish times
    shed_idx: np.ndarray    # int64 — request indices shed in this shard
    shed_code: np.ndarray   # uint8 — their shed codes

    @property
    def num_done(self) -> int:
        return int(self.done_idx.shape[0])

    @property
    def num_shed(self) -> int:
        return int(self.shed_idx.shape[0])


def merge_shard_partials(
    partials: Sequence[ShardPartial], num_requests: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter shard partials into full completion columns.

    Explicit about the degenerate cases the property tests pin: an empty
    partial list, empty shards, and all-shed shards all merge cleanly
    (the scatter of an empty index array is a no-op), and a request
    claimed by two shards — a drop/double-count bug — is detected and
    rejected rather than silently overwritten.

    Args:
        partials: Shard outputs, any order (indices are global).
        num_requests: Total submitted requests (column length).

    Returns:
        ``(finish_ms, shed_code)`` float64/uint8 columns; rows neither
        completed nor shed (impossible after a full run, possible for a
        prefix of shards) have ``shed_code == 0`` and ``finish_ms == 0``.

    Raises:
        ValueError: If any request index is out of range or claimed twice.
    """
    finish = np.zeros(num_requests, dtype=np.float64)
    shed = np.zeros(num_requests, dtype=np.uint8)
    claimed = np.zeros(num_requests, dtype=bool)
    total = 0
    for part in partials:
        for idx in (part.done_idx, part.shed_idx):
            if idx.shape[0] == 0:
                continue  # empty shard contribution — explicitly legal
            if int(idx.min()) < 0 or int(idx.max()) >= num_requests:
                raise ValueError("shard partial names an out-of-range request")
            claimed[idx] = True
            total += int(idx.shape[0])
        finish[part.done_idx] = part.done_fin
        shed[part.shed_idx] = part.shed_code
    # Overlap detection by counting: scattering `total` indices into a
    # clean mask marks `total` cells iff no index repeats — one O(n)
    # count instead of a gather per partial, and it works on prefixes too.
    if int(np.count_nonzero(claimed)) != total:
        raise ValueError("shard partials overlap — a request was double-counted")
    return finish, shed


# ----------------------------------------------------------------------
# prepared run
# ----------------------------------------------------------------------
@dataclass
class _DesignTables:
    """Per-(design point) pricing: plain Python floats for the hot loop."""

    price_full: List[float]        # full-batch price per bucket slot
    ref_price: float               # price of the admission reference bucket
    svc: List[List[float]]         # [bucket slot][batch size] service ms
    cold_ms: float                 # cold-start window


@dataclass
class _Prepared:
    """One run's immutable inputs: trace columns, events, pricing."""

    name: str
    seed: int
    duration_ms: float
    tenant_names: List[str]
    tenant_idx: np.ndarray         # int64  [n] (zero-stride: one tenant)
    slo: np.ndarray                # float64 [n] (zero-stride: one tenant)
    uniform_slo: float             # the single SLO value, 0.0 when mixed
    arrival: np.ndarray            # float64 [n]
    bucket_idx: np.ndarray         # int32  [n]
    events: List[tuple]            # time-sorted control events
    specs: List[ReplicaSpec]
    config: FleetConfig
    autoscale: Optional[AutoscalePolicy]
    scale_spec: Optional[ReplicaSpec]
    model_config: object
    resilience: Optional[ResiliencePolicy] = None
    has_grays: bool = False          # any gray window in the event stream
    chaos_active: bool = False       # attach the report's chaos section

    @property
    def num_requests(self) -> int:
        return int(self.arrival.shape[0])


def _encode_length(tokenizer, text_a, text_b, max_seq_len: int) -> int:
    """True token count of one text pair — the engine's ``Encoding.length``."""
    _, mask, _ = tokenizer.encode(text_a, text_b, max_length=max_seq_len)
    return int(mask.sum())


def _prepare(
    scenario: Union[str, Scenario, ColumnarTrace, Sequence[FleetRequest]],
    model,
    tokenizer,
    specs: List[ReplicaSpec],
    fleet_config: FleetConfig,
    autoscale: Optional[AutoscalePolicy],
    scale_spec: Optional[ReplicaSpec],
    failures: Sequence[FailureEvent],
    seed: int,
    rate_scale: float,
    duration_scale: float,
    grays: Sequence[GrayWindow] = (),
    resilience: Optional[ResiliencePolicy] = None,
    chaos_active: bool = False,
) -> _Prepared:
    policy = fleet_config.serving
    if policy.max_seq_len > model.config.max_position_embeddings:
        raise ValueError(
            f"max_seq_len {policy.max_seq_len} exceeds the model's "
            f"max_position_embeddings {model.config.max_position_embeddings}"
        )
    if not specs:
        raise ValueError("a fleet needs at least one initial replica")

    if isinstance(scenario, str):
        catalog = builtin_scenarios()
        if scenario not in catalog:
            raise ValueError(
                f"unknown scenario {scenario!r}; choose from {sorted(catalog)}"
            )
        scenario = catalog[scenario]
    if isinstance(scenario, Scenario):
        scenario = scenario.generate_columns(
            seed=seed, rate_scale=rate_scale, duration_scale=duration_scale
        )

    if isinstance(scenario, ColumnarTrace):
        cols = scenario
        # A prebuilt giant trace skipped generate_columns' allocator
        # tuning; the sweep/merge columns downstream churn just as much.
        _tune_malloc_for_giant_traces(cols.num_requests)
        name = cols.name
        seed = cols.seed  # the trace knows the seed it was generated with
        duration_ms = cols.duration_ms
        tenant_names = [t.name for t in cols.tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ValueError("tenant names must be unique")
        tenant_idx = cols.tenant_idx
        tenant_slos = np.asarray(
            [t.slo_ms for t in cols.tenants], dtype=np.float64
        )
        if len(cols.tenants) == 1:
            # One tenant: every row has its SLO, so a zero-stride view
            # stands in for the constant column (the C kernel reads
            # uniform_slo instead).
            slo = np.broadcast_to(tenant_slos[0], (cols.num_requests,))
        else:
            slo = tenant_slos[tenant_idx]
        # Bucketing is a pure function of the text, and every text comes
        # from a small per-tenant pool — so tokenize and bucket each pool
        # entry once, then gather per-request bucket indices through a
        # flattened pool table.  One integer gather over the trace instead
        # of a 100M-row tokenize + searchsorted.
        batching = policy.batching_policy()
        pool_buckets = [
            batching.bucket_indices(
                np.asarray(
                    [
                        _encode_length(tokenizer, text, None, policy.max_seq_len)
                        for text in pool
                    ],
                    dtype=np.int64,
                )
            ).astype(np.int32)
            for pool in cols.pools()
        ]
        if len(pool_buckets) == 1:
            bucket_idx = pool_buckets[0][cols.draw]
        else:
            offsets = np.zeros(len(pool_buckets), dtype=np.int64)
            for tid in range(1, len(pool_buckets)):
                offsets[tid] = offsets[tid - 1] + pool_buckets[tid - 1].shape[0]
            flat = np.concatenate(pool_buckets)
            bucket_idx = flat[offsets[tenant_idx] + cols.draw]
        arrival = cols.arrival_ms
        uniform_slo = (
            float(tenant_slos[0]) if np.unique(tenant_slos).size == 1 else 0.0
        )
    else:
        # A pre-built FleetRequest trace (the runner's third input form).
        trace = sorted(scenario, key=lambda r: r.arrival_ms)
        name = "custom-trace"
        duration_ms = trace[-1].arrival_ms if trace else 0.0
        tenant_names = []
        tid_of: Dict[str, int] = {}
        length_of: Dict[Tuple[str, Optional[str]], int] = {}
        n = len(trace)
        tenant_idx = np.empty(n, dtype=np.int64)
        slo = np.empty(n, dtype=np.float64)
        arrival = np.empty(n, dtype=np.float64)
        lengths = np.empty(n, dtype=np.int64)
        for i, request in enumerate(trace):
            tid = tid_of.get(request.tenant)
            if tid is None:
                tid = tid_of[request.tenant] = len(tenant_names)
                tenant_names.append(request.tenant)
            tenant_idx[i] = tid
            slo[i] = request.slo_ms
            arrival[i] = request.arrival_ms
            key = (request.text_a, request.text_b)
            length = length_of.get(key)
            if length is None:
                length = length_of[key] = _encode_length(
                    tokenizer, request.text_a, request.text_b, policy.max_seq_len
                )
            lengths[i] = length
        bucket_idx = (
            policy.batching_policy().bucket_indices(lengths).astype(np.int32)
        )
        del lengths
        uniform_slo = (
            float(slo[0]) if n and bool((slo == slo[0]).all()) else 0.0
        )

    events = sorted(
        control_events(
            duration_ms,
            autoscale,
            failures,
            first_seq=arrival.shape[0],
            grays=grays,
        ),
        key=lambda e: (e[0], e[1], e[2]),
    )
    return _Prepared(
        name=name,
        seed=seed,
        duration_ms=duration_ms,
        tenant_names=tenant_names,
        tenant_idx=tenant_idx,
        slo=slo,
        uniform_slo=uniform_slo,
        arrival=arrival,
        bucket_idx=bucket_idx,
        events=events,
        specs=list(specs),
        config=fleet_config,
        autoscale=autoscale,
        scale_spec=scale_spec,
        model_config=model.config,
        resilience=resilience,
        has_grays=bool(grays),
        chaos_active=chaos_active,
    )


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class _Accum:
    """Per-shard completion/shed accumulator (arrays and lists mix)."""

    def __init__(self):
        self.done_idx_py: List[int] = []
        self.done_fin_py: List[float] = []
        self.done_parts: List[Tuple[np.ndarray, np.ndarray]] = []
        self.shed_idx_py: List[int] = []
        self.shed_code_py: List[int] = []
        self.shed_parts: List[Tuple[np.ndarray, np.ndarray]] = []

    def to_partial(self) -> ShardPartial:
        done_idx, done_fin = self._columns(
            self.done_idx_py, self.done_fin_py, self.done_parts, np.float64
        )
        shed_idx, shed_code = self._columns(
            self.shed_idx_py, self.shed_code_py, self.shed_parts, np.uint8
        )
        return ShardPartial(
            done_idx=done_idx, done_fin=done_fin,
            shed_idx=shed_idx, shed_code=shed_code,
        )

    @staticmethod
    def _columns(idx_py, val_py, parts, val_dtype):
        """One (index, value) column pair from list rows and array parts.

        A lone part is handed through as is; only several pieces are
        concatenated.  Every array part is already int64/``val_dtype``.
        """
        if idx_py or not parts:
            rows = (
                np.asarray(idx_py, dtype=np.int64),
                np.asarray(val_py, dtype=val_dtype),
            )
            parts = [rows] + parts
        if len(parts) == 1:
            return parts[0]
        idx, val = zip(*parts)
        return np.concatenate(idx), np.concatenate(val)


class ColumnarFleetEngine:
    """The columnar twin of :class:`~repro.fleet.fleet.Fleet` + runner."""

    def __init__(
        self,
        prep: _Prepared,
        use_native: Optional[bool] = None,
        obs=None,
    ):
        self.prep = prep
        # Observability sink (repro.obs.FleetObserver) or None.  Falsy
        # sinks normalize to None so the sweeps stay seam-free when off.
        self.obs = obs or None
        policy = prep.config.serving
        self.B = len(policy.buckets)
        self.M = policy.max_batch_size
        self.wait = policy.max_wait_ms
        self.factor = prep.config.admit_slo_factor
        self.bucket_values = list(policy.buckets)
        self.ref_idx = self.bucket_values.index(reference_bucket(policy.buckets))
        self.track_hist = prep.autoscale is not None
        self.resilience = prep.resilience
        self.resilient = (
            prep.resilience is not None and prep.resilience.enabled
        )
        self._hedging = self.resilient and prep.resilience.hedge
        # The per-arrival resilient path needs the live state from inside
        # _flush (hedge cancellation, breaker telemetry); the engine
        # stashes the current state here for the duration of a window.
        self._cur_state: Optional[ColumnarFleetState] = None
        self._tables: Dict[Tuple[object, object], _DesignTables] = {}
        if use_native is None:
            use_native = _native.available()
        # The C kernel covers the arrival sweep only; the autoscaler's
        # history bookkeeping keeps those runs on the (still exact)
        # Python sweep.  Gray windows stretch realized service inside the
        # flush, which the kernel does not model — they force the (still
        # exact) Python sweep too.
        self.use_native = (
            bool(use_native) and _native.available() and not prep.has_grays
        )
        # Global scratch for the native kernel (allocated lazily).
        self._finish_scratch: Optional[np.ndarray] = None
        self._shed_scratch: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # pricing
    # ------------------------------------------------------------------
    def tables_for(self, spec: ReplicaSpec) -> _DesignTables:
        key = (spec.accel_config, spec.device)
        tables = self._tables.get(key)
        if tables is None:
            policy = self.prep.config.serving
            table = service_table(
                self.prep.model_config,
                spec.accel_config,
                spec.device,
                policy.buckets,
                self.M,
            )
            svc = table.tolist()
            price_full = [row[self.M] for row in svc]
            tables = self._tables[key] = _DesignTables(
                price_full=price_full,
                ref_price=price_full[self.ref_idx],
                svc=svc,
                cold_ms=self.prep.config.cold_start_batches * svc[self.B - 1][self.M],
            )
        return tables

    # ------------------------------------------------------------------
    # state lifecycle (mirrors Fleet.add/fail/recover/remove)
    # ------------------------------------------------------------------
    def initial_state(self) -> ColumnarFleetState:
        state = ColumnarFleetState()
        policy = self.prep.resilience
        if policy is not None:
            state.budget = RetryBudget.from_policy(policy)
            if policy.brownout:
                state.brownout = BrownoutLadder.from_policy(policy)
        for spec in self.prep.specs:
            self._add_replica(state, spec, now=0.0, cold=False)
        # Autoscaler construction snapshots total busy time (zero at t=0).
        state.busy_snapshot = 0.0
        return state

    def _add_replica(
        self, state: ColumnarFleetState, spec: ReplicaSpec, now: float, cold: bool
    ) -> _Rep:
        tables = self.tables_for(spec)
        rep = _Rep(
            rid=state.next_id,
            spec=spec,
            tables=tables,
            added_ms=now,
            # engine starts idle; a cold start blocks the device until
            # now + cold_ms (router.block_until's max against zero).
            busy_until=(now + tables.cold_ms) if cold else 0.0,
            queues=[[] for _ in range(self.B)],
            seen=[False] * self.B,
            hist=[] if self.track_hist else None,
        )
        policy = self.prep.resilience
        if policy is not None and policy.breaker:
            rep.breaker = CircuitBreaker.from_policy(policy)
        state.next_id += 1
        state.replicas.append(rep)
        self._rebuild_live(state)
        if self.obs is not None:
            self.obs.on_replica(
                rep.rid, spec.label, now, tables.cold_ms if cold else 0.0
            )
        return rep

    @staticmethod
    def _rebuild_live(state: ColumnarFleetState) -> None:
        state.live = [r.rid for r in state.replicas if r.live]

    def _fail(self, state: ColumnarFleetState, rid: int, now: float, acc: _Accum):
        rep = state.replicas[rid] if rid < len(state.replicas) else None
        if rep is None or not rep.live:
            return  # unknown or already down — no-op, like Fleet.fail_replica
        rep.live = False
        rep.retired_ms = now
        rep.failures += 1
        rep.failed = True
        self._rebuild_live(state)
        if self.obs is not None:
            self.obs.on_failure(rep.rid, now)
        self._migrate(state, rep, now, acc)

    def _recover(self, state: ColumnarFleetState, rid: int, now: float):
        # Same down-cause guard as Fleet.recover_replica: only a replica
        # that is down *because it failed* comes back; one the autoscaler
        # scaled away while down stays retired (see the fleet docstring
        # contract and tests/fleet/test_chaos.py).
        rep = state.replicas[rid] if rid < len(state.replicas) else None
        if rep is None or rep.live or not rep.failed:
            return
        rep.failed = False
        cold = rep.tables.cold_ms
        rep.busy_until = max(rep.busy_until, now + cold)
        if self.obs is not None:
            self.obs.on_recovery(rep.rid, now, cold)
        rep.live = True
        if rep.retired_ms is not None:
            rep.downtime_ms += now - rep.retired_ms
        rep.retired_ms = None
        self._rebuild_live(state)

    def _remove(self, state: ColumnarFleetState, rep: _Rep, now: float, acc: _Accum):
        rep.live = False
        rep.retired_ms = now
        self._rebuild_live(state)
        self._migrate(state, rep, now, acc)

    # ------------------------------------------------------------------
    # per-replica primitives (mirror DynamicBatcher + engine dispatch)
    # ------------------------------------------------------------------
    def _projection(self, rep: _Rep, now: float) -> float:
        backlog = rep.busy_until - now
        if backlog < 0.0:
            backlog = 0.0
        queued = 0.0
        M = self.M
        tables = rep.tables
        price = tables.price_full
        for b in rep.order:
            depth = len(rep.queues[b])
            if depth:
                queued += ((depth + M - 1) // M) * price[b]
        return backlog + queued + tables.ref_price + self.wait

    def _flush(self, rep: _Rep, b: int, flush_ms: float, acc: _Accum) -> None:
        queue = rep.queues[b]
        take = min(len(queue), self.M)
        requests, rep.queues[b] = queue[:take], queue[take:]
        rep.pending -= take
        # `nominal` is the memoized simulator price (the router estimate);
        # a gray window stretches the *realized* service exactly like
        # DeviceRouter.dispatch — same multiply, same operands.
        nominal = rep.tables.svc[b][take]
        service = nominal if rep.slowdown == 1.0 else nominal * rep.slowdown
        start = flush_ms if flush_ms > rep.busy_until else rep.busy_until
        fin = start + service
        rep.busy_until = fin
        rep.busy_ms += service
        rep.batches += 1
        rep.requests += take
        done_idx = acc.done_idx_py
        done_fin = acc.done_fin_py
        hist = rep.hist
        for idx, enq in requests:
            done_idx.append(idx)
            done_fin.append(fin)
            if hist is not None:
                hist.append((fin, fin - enq))
        obs = self.obs
        if obs is not None:
            arrival = self.prep.arrival
            slo = self.prep.slo
            latencies = []
            met = 0
            # Worst-request critical path, same multiset min/max as the
            # event-loop hook: arr is the fleet arrival column, enq the
            # queue tuple's enqueue time — identical IEEE operands.
            worst_arr = worst_enq = float("inf")
            last_enq = float("-inf")
            for idx, enq in requests:
                arr = float(arrival[idx])
                lat = fin - arr
                latencies.append(lat)
                if lat <= float(slo[idx]):
                    met += 1
                if arr < worst_arr or (arr == worst_arr and enq < worst_enq):
                    worst_arr = arr
                    worst_enq = enq
                if enq > last_enq:
                    last_enq = enq
            obs.on_batch((
                rep.rid, self.bucket_values[b], take, start, service,
                fin - worst_arr, worst_enq - worst_arr,
                last_enq - worst_enq, start - last_enq,
            ))
            obs.on_completions(fin, latencies, met)
        # Same consumer order as Fleet._install_batch_hook: observer,
        # then circuit breaker, then hedge cancellation.
        breaker = rep.breaker
        if breaker is not None:
            transition = breaker.observe(
                fin,
                service > self.resilience.breaker_straggle_factor * nominal,
            )
            # opens/closes roll up from the breakers at finalize (the
            # live counters the event loop keeps are the same sums).
            if transition is not None and obs is not None:
                obs.on_breaker(rep.rid, fin, transition)
        if self._hedging:
            state = self._cur_state
            for idx, _enq in requests:
                key = (rep.rid, idx)
                twin = state.hedge.pop(key, None)
                if twin is None:
                    continue
                twin_rid, twin_b = twin
                del state.hedge[(twin_rid, idx)]
                # cancel the still-queued twin copy (DynamicBatcher.cancel)
                twin_rep = state.replicas[twin_rid]
                twin_q = twin_rep.queues[twin_b]
                pos = -1
                for j, (qidx, _qenq) in enumerate(twin_q):
                    if qidx == idx:
                        pos = j
                        break
                if pos < 0:
                    raise RuntimeError(
                        f"hedged twin of request {idx} on replica "
                        f"{twin_rid} was not cancellable — hedge "
                        f"bookkeeping out of sync"
                    )
                del twin_q[pos]
                twin_rep.pending -= 1
                if pos == 0:
                    nd = None
                    wait = self.wait
                    for b2 in twin_rep.order:
                        q = twin_rep.queues[b2]
                        if q:
                            cand = q[0][1] + wait
                            if nd is None or cand < nd:
                                nd = cand
                    twin_rep.next_dl = nd
                if key in state.hedge_primary:
                    state.hedge_primary.discard(key)
                else:
                    state.chaos.hedge_wins += 1
                    state.hedge_primary.discard((twin_rid, idx))
        # recompute the earliest pending deadline (batcher invariant)
        nd = None
        wait = self.wait
        for b2 in rep.order:
            q = rep.queues[b2]
            if q:
                cand = q[0][1] + wait
                if nd is None or cand < nd:
                    nd = cand
        rep.next_dl = nd

    def _fire_dues(self, rep: _Rep, now: float, acc: _Accum) -> None:
        """``DynamicBatcher.due_batches``: collect, sort, flush at deadlines."""
        if rep.next_dl is None or now < rep.next_dl:
            return
        wait = self.wait
        values = self.bucket_values
        due = []
        for b in rep.order:
            q = rep.queues[b]
            if q:
                deadline = q[0][1] + wait
                if deadline <= now:
                    due.append((deadline, values[b], b))
        due.sort()
        for deadline, _, b in due:
            self._flush(rep, b, deadline, acc)

    def _enqueue(
        self, rep: _Rep, b: int, idx: int, now: float, acc: _Accum
    ) -> bool:
        """Enqueue one request; returns True when it flushed on the spot.

        The return value mirrors the event loop's ``engine_rid not in
        engine.results`` probe after submit: a full batch flushes inside
        the enqueue and executes the request immediately (hedging only
        duplicates requests that are still queued).
        """
        queue = rep.queues[b]
        queue.append((idx, now))
        rep.pending += 1
        if len(queue) == 1:
            if not rep.seen[b]:
                rep.seen[b] = True
                rep.order.append(b)
            deadline = now + self.wait
            if rep.next_dl is None or deadline < rep.next_dl:
                rep.next_dl = deadline
        if len(queue) >= self.M:
            self._flush(rep, b, now, acc)
            return True
        return False

    def _advance(self, state: ColumnarFleetState, now: float, acc: _Accum) -> None:
        """``Fleet.advance``: fire due deadlines on live replicas, id order."""
        for rid in state.live:
            rep = state.replicas[rid]
            if rep.next_dl is not None and rep.next_dl <= now:
                self._fire_dues(rep, now, acc)
        if now > state.now:
            state.now = now

    def _migrate(
        self, state: ColumnarFleetState, rep: _Rep, now: float, acc: _Accum
    ) -> None:
        """``Fleet._migrate_pending``: evict in enqueue order, resubmit at now."""
        evicted: List[Tuple[int, float, int]] = []
        for b in rep.order:
            queue = rep.queues[b]
            if queue:
                evicted.extend((idx, enq, b) for idx, enq in queue)
                queue.clear()
        if not evicted:
            rep.pending = 0
            rep.next_dl = None
            return
        rep.pending = 0
        rep.next_dl = None
        evicted.sort(key=lambda e: e[1])  # stable, like evict_all
        replicas = state.replicas
        hedging = self._hedging
        for idx, _enq, b in evicted:
            if hedging:
                twin = state.hedge.pop((rep.rid, idx), None)
                if twin is not None:
                    # One copy of a hedged pair was queued here; the twin
                    # (still queued elsewhere) carries the request alone —
                    # drop this copy instead of migrating it, exactly like
                    # Fleet._migrate_pending.
                    del state.hedge[(twin[0], idx)]
                    state.hedge_primary.discard((rep.rid, idx))
                    state.hedge_primary.discard((twin[0], idx))
                    continue
            survivors = state.live
            if not survivors:
                acc.shed_idx_py.append(idx)
                acc.shed_code_py.append(SHED_CODE_NO_CAPACITY)
                if self.obs is not None:
                    # Bucketed at migration time, like Fleet._migrate_pending.
                    self.obs.on_shed(now, SHED_NO_CAPACITY)
                continue
            best = None
            best_key = None
            for rid in survivors:
                candidate = replicas[rid]
                key = (self._projection(candidate, now), rid)
                if best is None or key < best_key:
                    best = candidate
                    best_key = key
            # engine.submit fires the target's due deadlines at `now`
            # before enqueueing (matters when max_wait_ms == 0).
            self._fire_dues(best, now, acc)
            self._enqueue(best, b, idx, now, acc)
            state.migrations += 1

    # ------------------------------------------------------------------
    # autoscaler tick (mirrors Autoscaler.tick)
    # ------------------------------------------------------------------
    def _tick(self, state: ColumnarFleetState, now: float, acc: _Accum) -> None:
        policy = self.prep.autoscale
        replicas = state.replicas
        live_n = len(state.live)
        window = now - state.last_tick
        total_busy = 0.0
        for rep in replicas:  # creation order == id order, like _total_busy_ms
            total_busy += rep.busy_ms
        if window <= 0 or live_n == 0:
            utilization = 0.0
        else:
            utilization = min(
                1.0, (total_busy - state.busy_snapshot) / (window * live_n)
            )
        samples: List[float] = []
        for rep in replicas:
            hist = rep.hist
            if hist:
                last = state.last_tick
                for fin, lat in hist:
                    if fin <= last:
                        continue
                    if fin <= now:
                        samples.append(lat)
        if not samples:
            p99_ratio = 0.0
        else:
            floor = state.min_slo
            p99_ratio = 0.0 if not floor else percentile(samples, 99) / floor
        depth = 0
        for rid in state.live:
            depth += replicas[rid].pending
        if self.obs is not None:
            # Same floats as Autoscaler.tick: busy/window accounting and the
            # sorted-percentile p99 are order-insensitive, so the counter
            # track is byte-identical across engines.
            self.obs.on_tick(now, utilization, p99_ratio, depth)
        state.last_tick = now
        state.busy_snapshot = total_busy
        # prune sampled history: entries finishing at or before this tick
        # can never be sampled again (finish times are non-decreasing).
        for rep in replicas:
            hist = rep.hist
            if hist:
                cut = 0
                for fin, _ in hist:
                    if fin <= now:
                        cut += 1
                    else:
                        break
                if cut:
                    del hist[:cut]

        if state.cooldown > 0:
            state.cooldown -= 1
            return
        batch = self.M
        event: Optional[ScaleEvent] = None
        if live_n < policy.max_replicas and (
            utilization > policy.utilization_high
            or p99_ratio > policy.slo_headroom
            or depth > live_n * batch
        ):
            if utilization > policy.utilization_high:
                reason = (
                    f"utilization {utilization:.2f} > {policy.utilization_high:.2f}"
                )
            elif p99_ratio > policy.slo_headroom:
                reason = f"p99 {p99_ratio:.2f}x SLO > {policy.slo_headroom:.2f}x"
            else:
                reason = f"queue depth {depth} > {live_n * batch}"
            scale_spec = self.prep.scale_spec or replicas[0].spec
            self._add_replica(state, scale_spec, now=now, cold=True)
            event = ScaleEvent(now, SCALE_UP, reason, live_n + 1)
        elif live_n > policy.min_replicas and (
            utilization < policy.utilization_low
            and p99_ratio <= 1.0
            and depth == 0
        ):
            victim = min(
                (replicas[rid] for rid in state.live),
                key=lambda r: (r.pending, -r.rid),
            )
            self._remove(state, victim, now, acc)
            event = ScaleEvent(
                now,
                SCALE_DOWN,
                f"utilization {utilization:.2f} < {policy.utilization_low:.2f}",
                live_n - 1,
            )
        if event is not None:
            state.events.append(event)
            state.cooldown = policy.cooldown_ticks
            if self.obs is not None:
                self.obs.on_scale(event)

    # ------------------------------------------------------------------
    # arrival sweeps
    # ------------------------------------------------------------------
    def _run_arrivals(
        self, state: ColumnarFleetState, lo: int, hi: int, acc: _Accum
    ) -> None:
        if hi <= lo:
            return
        if self.resilient:
            # The resilient admission path is inherently per-arrival
            # (breaker probes, brownout hysteresis, retries racing the
            # trace) — and even the no-live-replica case must route
            # through it so sheds can become scheduled retries.
            self._run_arrivals_resilient(state, lo, hi, acc)
            return
        if not state.live:
            # No live replica: every arrival sheds with no-capacity, and
            # with no queues there are no deadlines to fire (vectorized).
            acc.shed_parts.append(
                (
                    np.arange(lo, hi, dtype=np.int64),
                    np.full(hi - lo, SHED_CODE_NO_CAPACITY, dtype=np.uint8),
                )
            )
            if self.obs is not None:
                window = self.prep.arrival[lo:hi]
                self.obs.on_arrivals(window)
                self.obs.on_sheds(window, SHED_NO_CAPACITY)
            if state.min_slo is None:
                pass  # min_accepted_slo only updates on admission
            state.now = max(state.now, float(self.prep.arrival[hi - 1]))
            return
        # The C kernel has no observability seams; an attached observer
        # forces the (byte-identical) Python sweep, like track_hist does.
        if self.use_native and not self.track_hist and self.obs is None:
            self._run_arrivals_native(state, lo, hi, acc)
        else:
            self._run_arrivals_python(state, lo, hi, acc)
        state.now = max(state.now, float(self.prep.arrival[hi - 1]))
        # min_accepted_slo: tightest SLO among *accepted* requests.  The
        # sweep records sheds, so accepted = range minus sheds; taking the
        # running min of accepted SLOs in order equals the event loop's
        # incremental update.
        self._update_min_slo(state, lo, hi, acc)

    def _update_min_slo(
        self, state: ColumnarFleetState, lo: int, hi: int, acc: _Accum
    ) -> None:
        if not self.track_hist and self.prep.autoscale is None:
            # min_accepted_slo only feeds the autoscaler's p99 floor; skip
            # the bookkeeping entirely on fixed fleets.
            return
        slo = self.prep.slo
        shed_in_range = set()
        for idx in acc.shed_idx_py:
            if lo <= idx < hi:
                shed_in_range.add(idx)
        for idx_arr, _ in acc.shed_parts:
            if idx_arr.shape[0]:
                in_range = idx_arr[(idx_arr >= lo) & (idx_arr < hi)]
                shed_in_range.update(int(x) for x in in_range)
        current = state.min_slo
        for i in range(lo, hi):
            if i in shed_in_range:
                continue
            value = float(slo[i])
            if current is None or value < current:
                current = value
        state.min_slo = current

    def _run_arrivals_python(
        self, state: ColumnarFleetState, lo: int, hi: int, acc: _Accum
    ) -> None:
        """The pure-Python sweep: exact event-loop semantics on local lists."""
        replicas = state.replicas
        live = state.live
        lreps = [replicas[rid] for rid in live]
        L = len(lreps)
        M = self.M
        wait = self.wait
        factor = self.factor
        values = self.bucket_values
        inf = math.inf
        busy_until = [r.busy_until for r in lreps]
        busy_ms = [r.busy_ms for r in lreps]
        batches = [r.batches for r in lreps]
        served = [r.requests for r in lreps]
        queues = [r.queues for r in lreps]          # shared mutable lists
        order = [r.order for r in lreps]            # shared mutable lists
        seen = [r.seen for r in lreps]
        next_dl = [inf if r.next_dl is None else r.next_dl for r in lreps]
        tabs = [r.tables for r in lreps]
        price = [t.price_full for t in tabs]
        ref = [t.ref_price for t in tabs]
        svc = [t.svc for t in tabs]
        # Gray-window multipliers are control-event state: they can only
        # change between sweeps, so a local snapshot is exact.
        slows = [r.slowdown for r in lreps]
        hists = [r.hist for r in lreps]
        done_idx = acc.done_idx_py
        done_fin = acc.done_fin_py
        shed_idx = acc.shed_idx_py
        shed_code = acc.shed_code_py
        obs = self.obs
        rids = [r.rid for r in lreps]
        arrival_col = self.prep.arrival
        slo_col = self.prep.slo

        def flush(k: int, b: int, flush_ms: float) -> None:
            queue = queues[k][b]
            take = len(queue) if len(queue) < M else M
            requests, queues[k][b] = queue[:take], queue[take:]
            service = svc[k][b][take]
            if slows[k] != 1.0:
                service = service * slows[k]
            bu = busy_until[k]
            start = flush_ms if flush_ms > bu else bu
            fin = start + service
            busy_until[k] = fin
            busy_ms[k] += service
            batches[k] += 1
            served[k] += take
            hist = hists[k]
            for idx, enq in requests:
                done_idx.append(idx)
                done_fin.append(fin)
                if hist is not None:
                    hist.append((fin, fin - enq))
            if obs is not None:
                latencies = []
                met = 0
                worst_arr = worst_enq = inf
                last_enq = -inf
                for idx, enq in requests:
                    arr = float(arrival_col[idx])
                    lat = fin - arr
                    latencies.append(lat)
                    if lat <= float(slo_col[idx]):
                        met += 1
                    if arr < worst_arr or (arr == worst_arr and enq < worst_enq):
                        worst_arr = arr
                        worst_enq = enq
                    if enq > last_enq:
                        last_enq = enq
                obs.on_batch((
                    rids[k], values[b], take, start, service,
                    fin - worst_arr, worst_enq - worst_arr,
                    last_enq - worst_enq, start - last_enq,
                ))
                obs.on_completions(fin, latencies, met)
            nd = inf
            q_k = queues[k]
            for b2 in order[k]:
                q = q_k[b2]
                if q:
                    cand = q[0][1] + wait
                    if cand < nd:
                        nd = cand
            next_dl[k] = nd

        def fire_dues(k: int, now: float) -> None:
            due = []
            q_k = queues[k]
            for b in order[k]:
                q = q_k[b]
                if q:
                    deadline = q[0][1] + wait
                    if deadline <= now:
                        due.append((deadline, values[b], b))
            due.sort()
            for deadline, _, b in due:
                flush(k, b, deadline)

        if obs is not None and hi > lo:
            # Bulk-record the span's arrivals upfront — the same move the
            # event-loop runner makes over the whole trace.  Watermark-safe:
            # recording early only makes records available sooner than any
            # flush that could close their window.
            obs.on_arrivals(arrival_col[lo:hi])

        g = min(next_dl) if next_dl else inf
        step = 1 << 20
        pos = lo
        while pos < hi:
            end = min(pos + step, hi)
            ts = self.prep.arrival[pos:end].tolist()
            bs = self.prep.bucket_idx[pos:end].tolist()
            ss = self.prep.slo[pos:end].tolist()
            for k2 in range(end - pos):
                t = ts[k2]
                if t >= g:
                    for k in range(L):
                        if next_dl[k] <= t:
                            fire_dues(k, t)
                    g = min(next_dl)
                # admission projection, strict < keeps lowest id on ties
                best = 0
                bestp = 0.0
                for k in range(L):
                    backlog = busy_until[k] - t
                    if backlog < 0.0:
                        backlog = 0.0
                    queued = 0.0
                    price_k = price[k]
                    q_k = queues[k]
                    for b in order[k]:
                        depth = len(q_k[b])
                        if depth:
                            queued += ((depth + M - 1) // M) * price_k[b]
                    proj = backlog + queued + ref[k] + wait
                    if k == 0 or proj < bestp:
                        bestp = proj
                        best = k
                i = pos + k2
                if bestp > factor * ss[k2]:
                    shed_idx.append(i)
                    shed_code.append(SHED_CODE_OVERLOAD)
                    if obs is not None:
                        obs.on_shed(t, SHED_OVERLOAD)
                    continue
                b = bs[k2]
                queue = queues[best][b]
                queue.append((i, t))
                if len(queue) == 1:
                    if not seen[best][b]:
                        seen[best][b] = True
                        order[best].append(b)
                    deadline = t + wait
                    if deadline < next_dl[best]:
                        next_dl[best] = deadline
                        if deadline < g:
                            g = deadline
                if len(queue) >= M:
                    flush(best, b, t)
                    g = min(next_dl)
            pos = end

        for k, rep in enumerate(lreps):
            rep.busy_until = busy_until[k]
            rep.busy_ms = busy_ms[k]
            rep.batches = batches[k]
            rep.requests = served[k]
            rep.next_dl = None if next_dl[k] == inf else next_dl[k]
            rep.pending = sum(len(q) for q in queues[k])

    def _run_arrivals_native(
        self, state: ColumnarFleetState, lo: int, hi: int, acc: _Accum
    ) -> None:
        """Pack state, run the C kernel, unpack — identical decisions."""
        lib = _native.load()
        replicas = state.replicas
        live = state.live
        lreps = [replicas[rid] for rid in live]
        L = len(lreps)
        B = self.B
        M = self.M
        n = self.prep.num_requests
        if self._finish_scratch is None:
            self._finish_scratch = np.zeros(n, dtype=np.float64)
            self._shed_scratch = np.zeros(n, dtype=np.uint8)

        busy_until = np.array([r.busy_until for r in lreps], dtype=np.float64)
        busy_ms = np.array([r.busy_ms for r in lreps], dtype=np.float64)
        batches = np.array([r.batches for r in lreps], dtype=np.int64)
        served = np.array([r.requests for r in lreps], dtype=np.int64)
        tabs = [r.tables for r in lreps]
        price_full = np.array([t.price_full for t in tabs], dtype=np.float64)
        ref_price = np.array([t.ref_price for t in tabs], dtype=np.float64)
        svc = np.array([t.svc for t in tabs], dtype=np.float64)
        depth = np.zeros((L, B), dtype=np.int32)
        qidx = np.zeros((L, B, M), dtype=np.int64)
        qenq = np.zeros((L, B, M), dtype=np.float64)
        seen = np.zeros((L, B), dtype=np.uint8)
        order = np.zeros((L, B), dtype=np.int32)
        order_n = np.zeros(L, dtype=np.int32)
        next_dl = np.full(L, np.inf, dtype=np.float64)
        for k, rep in enumerate(lreps):
            for j, b in enumerate(rep.order):
                order[k, j] = b
            order_n[k] = len(rep.order)
            for b in range(B):
                if rep.seen[b]:
                    seen[k, b] = 1
                queue = rep.queues[b]
                depth[k, b] = len(queue)
                for j, (idx, enq) in enumerate(queue):
                    qidx[k, b, j] = idx
                    qenq[k, b, j] = enq
            if rep.next_dl is not None:
                next_dl[k] = rep.next_dl
        carried = int(depth.sum())
        done_log = np.empty((hi - lo) + carried + 8, dtype=np.int64)
        done_n = np.zeros(1, dtype=np.int64)
        bucket_value = np.array(self.bucket_values, dtype=np.int64)
        due_dl = np.empty(B, dtype=np.float64)
        due_bv = np.empty(B, dtype=np.int64)
        due_b = np.empty(B, dtype=np.int64)

        slo = self.prep.slo
        if self.prep.uniform_slo > 0.0:
            # The kernel then compares against admit_factor * uniform_slo
            # and never reads slo[i], so a zero-stride column crosses as
            # its one element.
            slo = slo[:1]

        lib.arrival_run(
            lo, hi,
            self.prep.arrival, self.prep.bucket_idx, slo,
            L, B, M,
            self.wait, self.factor, self.prep.uniform_slo,
            busy_until, busy_ms, batches, served,
            price_full.reshape(-1), ref_price, svc.reshape(-1),
            depth.reshape(-1), qidx.reshape(-1), qenq.reshape(-1),
            seen.reshape(-1), order.reshape(-1), order_n,
            next_dl, bucket_value,
            self._shed_scratch, self._finish_scratch,
            done_log, done_n,
            due_dl, due_bv, due_b,
        )

        count = int(done_n[0])
        done = done_log[:count].copy()
        # The log is sized for every row of the window; free it before
        # the unpack below allocates, so the two never coexist.
        del done_log
        acc.done_parts.append((done, self._finish_scratch[done]))
        window = self._shed_scratch[lo:hi]
        shed = np.flatnonzero(window)
        if shed.shape[0]:
            # Fancy indexing already copies the codes; the row numbers are
            # shifted to global indices in place.
            codes = window[shed]
            shed += lo
            acc.shed_parts.append((shed.astype(np.int64, copy=False), codes))
        for k, rep in enumerate(lreps):
            rep.busy_until = float(busy_until[k])
            rep.busy_ms = float(busy_ms[k])
            rep.batches = int(batches[k])
            rep.requests = int(served[k])
            rep.order = [int(b) for b in order[k, : int(order_n[k])]]
            rep.seen = [bool(seen[k, b]) for b in range(B)]
            rep.queues = [
                [
                    (int(qidx[k, b, j]), float(qenq[k, b, j]))
                    for j in range(int(depth[k, b]))
                ]
                for b in range(B)
            ]
            rep.pending = int(depth[k].sum())
            nd = float(next_dl[k])
            rep.next_dl = None if math.isinf(nd) else nd

    # ------------------------------------------------------------------
    # resilient request path (chaos layer) — mirrors Fleet._attempt
    # ------------------------------------------------------------------
    def _run_arrivals_resilient(
        self, state: ColumnarFleetState, lo: int, hi: int, acc: _Accum
    ) -> None:
        """Per-arrival resilient sweep, retries interleaved on the clock.

        A retry due strictly before an arrival fires first; one due at
        the same instant fires after every arrival of that instant —
        the event loop's ``_ARRIVAL < _RETRY`` kind ordering.
        """
        arrival = self.prep.arrival
        if self.obs is not None and hi > lo:
            self.obs.on_arrivals(arrival[lo:hi])
        policy = self.prep.resilience
        accrue = policy.max_retries > 0
        budget = state.budget
        heap = state.retry_heap
        heappop = heapq.heappop
        step = 1 << 20
        pos = lo
        while pos < hi:
            end = min(pos + step, hi)
            ts = arrival[pos:end].tolist()
            for k2 in range(end - pos):
                t = ts[k2]
                while heap and heap[0][0] < t:
                    due, _seq, idx, attempt = heappop(heap)
                    self._advance(state, due, acc)
                    self._attempt_resilient(state, idx, attempt, due, acc)
                self._advance(state, t, acc)
                if accrue:
                    budget.accrue()
                self._attempt_resilient(state, pos + k2, 0, t, acc)
            pos = end

    def _fire_retries(
        self,
        state: ColumnarFleetState,
        acc: _Accum,
        limit: float,
        inclusive: bool,
    ) -> None:
        """Fire scheduled retries up to ``limit`` (their due instants).

        ``inclusive`` matches the event-kind ordering against the control
        event being processed: retries at a tick's instant precede the
        tick (``_RETRY < _TICK``) but follow fail/recover/gray events.
        """
        heap = state.retry_heap
        heappop = heapq.heappop
        while heap and (heap[0][0] <= limit if inclusive else heap[0][0] < limit):
            due, _seq, idx, attempt = heappop(heap)
            self._advance(state, due, acc)
            self._attempt_resilient(state, idx, attempt, due, acc)

    def _attempt_resilient(
        self,
        state: ColumnarFleetState,
        idx: int,
        attempt: int,
        now: float,
        acc: _Accum,
    ) -> None:
        """One admission attempt — the exact twin of ``Fleet._attempt``."""
        policy = self.prep.resilience
        obs = self.obs
        replicas = state.replicas
        live = state.live
        if not live:
            self._shed_or_retry(state, idx, attempt, now, acc, SHED_CODE_NO_CAPACITY)
            return
        if policy.breaker:
            candidates = []
            for rid in live:
                rep = replicas[rid]
                breaker = rep.breaker
                before = breaker.state
                ok = breaker.allows(now)
                if breaker.state is not before and obs is not None:
                    obs.on_breaker(rid, now, breaker.state)
                if ok:
                    candidates.append(rep)
            if not candidates:
                self._shed_or_retry(state, idx, attempt, now, acc, SHED_CODE_BREAKER)
                return
        else:
            candidates = [replicas[rid] for rid in live]
        best = candidates[0]
        projected = self._projection(best, now)
        second: Optional[_Rep] = None
        second_proj = math.inf
        for rep in candidates[1:]:
            challenger = self._projection(rep, now)
            if challenger < projected:
                second = best
                second_proj = projected
                best = rep
                projected = challenger
            elif challenger < second_proj:
                second = rep
                second_proj = challenger
        if policy.timeout_ms is not None and projected > policy.timeout_ms:
            state.chaos.timeouts += 1
            self._shed_or_retry(state, idx, attempt, now, acc, SHED_CODE_TIMEOUT)
            return
        slo = float(self.prep.slo[idx])
        base = self.factor * slo
        ladder = state.brownout
        if ladder is None:
            if projected > base:
                self._shed_or_retry(state, idx, attempt, now, acc, SHED_CODE_OVERLOAD)
                return
        else:
            if (
                ladder.level > 0
                and now - ladder.last_change_ms >= ladder.dwell_ms
                and projected <= base * ladder.levels[ladder.level - 1]
            ):
                ladder.level -= 1
                ladder.last_change_ms = now
                ladder.deescalations += 1
                state.chaos.brownout_deescalations += 1
                if obs is not None:
                    obs.on_brownout(now, ladder.level)
            bound = base * ladder.levels[ladder.level]
            top = len(ladder.levels) - 1
            while projected > bound and ladder.level < top:
                ladder.level += 1
                ladder.last_change_ms = now
                ladder.escalations += 1
                state.chaos.brownout_escalations += 1
                if obs is not None:
                    obs.on_brownout(now, ladder.level)
                bound = base * ladder.levels[ladder.level]
            if projected > bound:
                self._shed_or_retry(state, idx, attempt, now, acc, SHED_CODE_OVERLOAD)
                return
        b = int(self.prep.bucket_idx[idx])
        flushed = self._enqueue(best, b, idx, now, acc)
        if self.track_hist and (state.min_slo is None or slo < state.min_slo):
            state.min_slo = slo
        if (
            policy.hedge
            and second is not None
            and projected > policy.hedge_factor * slo
            and not flushed
        ):
            # Bookkeeping before the twin enqueue: the twin itself may
            # flush immediately and win on the spot (cancelling the
            # still-queued primary through _flush).
            primary_key = (best.rid, idx)
            state.hedge[primary_key] = (second.rid, b)
            state.hedge[(second.rid, idx)] = (best.rid, b)
            state.hedge_primary.add(primary_key)
            state.chaos.hedges += 1
            self._enqueue(second, b, idx, now, acc)

    def _shed_or_retry(
        self,
        state: ColumnarFleetState,
        idx: int,
        attempt: int,
        now: float,
        acc: _Accum,
        code: int,
    ) -> None:
        """Schedule a backoff retry, or make the shed final."""
        policy = self.prep.resilience
        if policy.max_retries > 0 and attempt < policy.max_retries:
            if state.budget.spend():
                delay = backoff_delay_ms(policy, self.prep.seed, idx, attempt + 1)
                state.chaos.retries += 1
                heapq.heappush(
                    state.retry_heap,
                    (now + delay, state.retry_seq, idx, attempt + 1),
                )
                state.retry_seq += 1
                return
            state.chaos.retry_budget_exhausted += 1
        acc.shed_idx_py.append(idx)
        acc.shed_code_py.append(code)
        if self.obs is not None:
            self.obs.on_shed(now, SHED_REASON_OF_CODE[code])

    # ------------------------------------------------------------------
    # windows, drain, report
    # ------------------------------------------------------------------
    def run_window(
        self,
        state: ColumnarFleetState,
        alo: int,
        ahi: int,
        events: Sequence[tuple],
    ) -> ShardPartial:
        """Process one time window: arrivals [alo, ahi) + control events."""
        acc = _Accum()
        self._cur_state = state
        arrival = self.prep.arrival
        resilient = self.resilient
        pos = alo
        for event in events:
            time_ms, kind = event[0], event[1]
            # arrivals strictly before the control event — and also the
            # arrivals *at* a tick's timestamp (arrival kind < tick kind;
            # every other control kind precedes arrivals at its instant).
            side = "right" if kind > _ARRIVAL else "left"
            j = int(np.searchsorted(arrival[pos:ahi], time_ms, side=side)) + pos
            self._run_arrivals(state, pos, j, acc)
            pos = j
            if resilient:
                # Retries due before this event fire first; ones due *at*
                # its instant precede only a tick (_RETRY < _TICK, but
                # recover/gray/fail kinds < _RETRY).
                self._fire_retries(state, acc, time_ms, inclusive=kind == _TICK)
            self._advance(state, time_ms, acc)
            if kind == _TICK:
                self._tick(state, time_ms, acc)
            elif kind == _FAIL:
                self._fail(state, event[3], time_ms, acc)
            elif kind == _GRAY_START:
                rid, slowdown, end_ms = event[3]
                # Unknown ids are a no-op, like Fleet.set_slowdown — but
                # the trace instant is still recorded (the plan said so).
                if rid < len(state.replicas):
                    state.replicas[rid].slowdown = slowdown
                if self.obs is not None:
                    self.obs.on_gray(rid, time_ms, end_ms, slowdown)
            elif kind == _GRAY_END:
                rid = event[3]
                if rid < len(state.replicas):
                    state.replicas[rid].slowdown = 1.0
            else:  # _RECOVER
                self._recover(state, event[3], time_ms)
            if time_ms > state.now:
                state.now = time_ms
        self._run_arrivals(state, pos, ahi, acc)
        self._cur_state = None
        return acc.to_partial()

    def drain_retries(self, state: ColumnarFleetState) -> ShardPartial:
        """Fire every retry still scheduled past the last window's events.

        The event loop's heap empties itself — retries are first-class
        events — so the columnar run drains the retry heap explicitly
        before the final queue drain.
        """
        acc = _Accum()
        self._cur_state = state
        self._fire_retries(state, acc, math.inf, inclusive=True)
        self._cur_state = None
        return acc.to_partial()

    def drain(self, state: ColumnarFleetState) -> ShardPartial:
        """``Fleet.drain``: flush remaining queues, all replicas, id order."""
        acc = _Accum()
        self._cur_state = state
        for rep in state.replicas:
            if rep.pending == 0:
                continue
            now = state.now
            while rep.pending:
                deadline = rep.next_dl
                now = max(now, deadline)
                self._fire_dues(rep, now, acc)
            rep.next_dl = None
        self._cur_state = None
        return acc.to_partial()

    def finalize(
        self, state: ColumnarFleetState, partials: List[ShardPartial]
    ) -> FleetReport:
        """Merge the shard partials and build the report.

        Consumes ``partials``: the list is emptied once merged, so the
        shard columns are freed before the stats pass.  The native
        sweep's scratch columns are released first, since the merge
        rebuilds the same columns from the partials.
        """
        self._finish_scratch = self._shed_scratch = None
        prep = self.prep
        n = prep.num_requests
        finish, shed = merge_shard_partials(partials, n)
        total = sum(p.num_done + p.num_shed for p in partials)
        if total != n:
            raise RuntimeError(
                f"accepted requests never completed: {n - total} of {n} "
                "rows missing from shard partials — the fleet lost work"
            )
        # max over the shard partials' finish columns == max over the
        # merged completed rows (same multiset; max is exact).
        last_finish = 0.0
        for part in partials:
            if part.num_done:
                last_finish = max(last_finish, float(part.done_fin.max()))
        partials.clear()
        duration = max(prep.duration_ms, last_finish)
        replica_rows = [
            build_replica_stats(
                rep.rid,
                rep.spec.label,
                rep.added_ms,
                rep.retired_ms,
                rep.failures,
                rep.busy_ms,
                rep.batches,
                rep.requests,
                rep.downtime_ms,
                duration,
            )
            for rep in state.replicas
        ]
        chaos = None
        if prep.chaos_active:
            # Breaker transitions were counted inside each breaker (no
            # shared counter is reachable from _flush); the rollup here
            # equals the event loop's live tally — observe() increments
            # its own opens/closes alongside the fleet's.
            chaos = state.chaos
            for rep in state.replicas:
                if rep.breaker is not None:
                    chaos.breaker_opens += rep.breaker.opens
                    chaos.breaker_closes += rep.breaker.closes
        stats = build_fleet_stats_columns(
            duration_ms=duration,
            tenant_names=prep.tenant_names,
            tenant_idx=prep.tenant_idx,
            slo_ms=prep.slo,
            arrival_ms=prep.arrival,
            finish_ms=finish,
            shed_code=shed,
            shed_reasons=SHED_REASON_OF_CODE,
            migrations=state.migrations,
            replicas=replica_rows,
            scale_events=list(state.events),
            chaos=chaos,
        )
        return FleetReport(
            scenario=prep.name,
            seed=prep.seed,
            num_initial_replicas=len(prep.specs),
            autoscaled=prep.autoscale is not None,
            stats=stats,
        )


# ----------------------------------------------------------------------
# shard orchestration
# ----------------------------------------------------------------------
def shard_windows(
    prep: _Prepared, shards: int
) -> List[Tuple[int, int, List[tuple]]]:
    """Deterministic time-boundary decomposition of the event sequence.

    Window ``k`` owns every event (arrival or control) with
    ``duration * k / shards <= time < duration * (k+1) / shards``; the
    last window additionally owns everything at or past the horizon
    (ticks can land exactly on it).  Because windows are contiguous
    slices of the globally ordered event sequence, running them in turn
    with the state handed across boundaries replays exactly the
    single-shard run — shard counts are a pure checkpointing choice.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    arrival = prep.arrival
    n = int(arrival.shape[0])
    windows: List[Tuple[int, int, List[tuple]]] = []
    alo = 0
    clo = 0
    events = prep.events
    for k in range(1, shards + 1):
        if k < shards:
            edge = prep.duration_ms * k / shards
            ahi = int(np.searchsorted(arrival, edge, side="left"))
            chi = clo
            while chi < len(events) and events[chi][0] < edge:
                chi += 1
        else:
            ahi = n
            chi = len(events)
        windows.append((alo, ahi, list(events[clo:chi])))
        alo, clo = ahi, chi
    return windows


_WORKER_CTX: Optional[tuple] = None


def _window_worker(conn, window_index: int) -> None:
    engine, state, windows = _WORKER_CTX
    alo, ahi, events = windows[window_index]
    partial = engine.run_window(state, alo, ahi, events)
    # Observability state crosses the fork like ShardPartial does: the
    # worker drains its live buffers into a picklable partial; the parent
    # absorbs.  (The parent drained its own live buffers before forking,
    # so this partial holds exactly this window's records.)
    obs_partial = engine.obs.take_partial() if engine.obs is not None else None
    conn.send((partial, state, obs_partial))
    conn.close()


def _run_windows_in_processes(engine, state, windows):
    """Run each window in its own forked worker, state handed via pickle.

    Sequential by construction — window k+1 needs window k's final state —
    so this demonstrates cross-process determinism (each worker computes
    in a fresh address space) rather than parallel speedup.
    """
    import multiprocessing

    global _WORKER_CTX
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = None
    if ctx is None:
        partials = [
            engine.run_window(state, alo, ahi, events)
            for alo, ahi, events in windows
        ]
        return partials, state
    if engine.obs is not None:
        # Park any pre-fork records (initial replica metadata) in the
        # master store so no child re-ships them.
        engine.obs.absorb(engine.obs.take_partial())
    partials = []
    for k in range(len(windows)):
        _WORKER_CTX = (engine, state, windows)
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_window_worker, args=(child, k))
        proc.start()
        child.close()
        try:
            partial, state, obs_partial = parent.recv()
        except EOFError:
            # The worker died before sending: report its exit code by name.
            proc.join()
            raise RuntimeError(f"shard worker {k} exited {proc.exitcode}") from None
        finally:
            parent.close()
            _WORKER_CTX = None
        proc.join()
        if proc.exitcode != 0:
            raise RuntimeError(f"shard worker {k} exited {proc.exitcode}")
        if obs_partial is not None:
            engine.obs.absorb(obs_partial)
        partials.append(partial)
    return partials, state


def run_scenario_columnar(
    scenario: Union[str, Scenario, ColumnarTrace, Sequence[FleetRequest]],
    model,
    tokenizer,
    specs: List[ReplicaSpec],
    fleet_config: FleetConfig = FleetConfig(),
    autoscale: Optional[AutoscalePolicy] = None,
    scale_spec: Optional[ReplicaSpec] = None,
    failures: Sequence[FailureEvent] = (),
    seed: int = 0,
    rate_scale: float = 1.0,
    duration_scale: float = 1.0,
    shards: int = 1,
    shard_processes: bool = False,
    native: Optional[bool] = None,
    obs=None,
    chaos: Optional[ChaosPlan] = None,
    resilience: Optional[ResiliencePolicy] = None,
) -> FleetReport:
    """Columnar twin of :func:`repro.fleet.runner.run_scenario`.

    Same arguments, same report — byte-identical ``render()`` and
    ``to_json()`` output for equal inputs (the differential suite pins
    this against the event-loop analytic engine on every scenario
    class).  The model's weights are never touched: the columnar engine
    is inherently analytic, pricing every batch from the accelerator
    simulator's memoized schedule, exactly like ``analytic=True``.

    Args:
        scenario: Built-in name, :class:`Scenario`,
            :class:`~repro.fleet.scenarios.ColumnarTrace`, or a pre-built
            :class:`FleetRequest` sequence.
        model: Served model (only its config shapes the price tables).
        tokenizer: Tokenizer (prices text lengths, not contents).
        specs: Initial replica design points.
        fleet_config: Cluster policy.
        autoscale: Autoscaler policy (``None`` = fixed fleet).
        scale_spec: Design point for scale-up replicas.
        failures: Planned replica failures/recoveries.
        seed: Trace seed (ignored for pre-built traces).
        rate_scale: Rate multiplier for scenario generation.
        duration_scale: Duration multiplier for scenario generation.
        shards: Split the run into this many deterministic time windows.
        shard_processes: Run each window in a forked subprocess (state
            crosses via pickle; sequential, determinism demo — see
            ``docs/scaling.md``).
        native: Force the C kernel on/off; default auto-detects.  Results
            are identical either way.
        obs: Optional :class:`repro.obs.FleetObserver`.  Never changes a
            report byte; metric streams are byte-identical to the
            event-loop runner's at any shard count (the C kernel is
            bypassed while an observer is attached).
        chaos: Optional :class:`~repro.fleet.chaos.ChaosPlan` — same
            semantics as the event-loop runner's parameter (fail-stops,
            zone outages, gray windows).
        resilience: Optional :class:`~repro.fleet.chaos.ResiliencePolicy`
            — enables the per-arrival resilient admission path (timeout,
            breaker, brownout, retries, hedging), byte-identical to the
            event loop's at any shard count.

    Returns:
        The :class:`FleetReport`.
    """
    obs = obs or None
    grays: Sequence[GrayWindow] = ()
    if chaos is not None:
        failures = tuple(failures) + chaos.failure_events()
        grays = chaos.grays
    prep = _prepare(
        scenario,
        model,
        tokenizer,
        specs,
        fleet_config,
        autoscale,
        scale_spec,
        failures,
        seed,
        rate_scale,
        duration_scale,
        grays=grays,
        resilience=resilience,
        chaos_active=chaos is not None or resilience is not None,
    )
    engine = ColumnarFleetEngine(prep, use_native=native, obs=obs)
    state = engine.initial_state()
    windows = shard_windows(prep, shards)
    if shard_processes:
        partials, state = _run_windows_in_processes(engine, state, windows)
    else:
        partials = []
        for k, (alo, ahi, events) in enumerate(windows):
            partials.append(engine.run_window(state, alo, ahi, events))
            if obs is not None and k + 1 < len(windows):
                # Stream closed windows at each shard edge.  The watermark
                # backs off to the earliest pending batching deadline:
                # a queue carried across the boundary may still flush
                # (and finish) before the edge itself.
                edge = prep.duration_ms * (k + 1) / shards
                pending = [
                    rep.next_dl
                    for rep in state.replicas
                    if rep.next_dl is not None
                ]
                if state.retry_heap:
                    # A scheduled retry may still shed (or admit work
                    # that flushes) at its due instant — hold the
                    # watermark back to it.
                    pending.append(state.retry_heap[0][0])
                obs.advance(min([edge] + pending))
    if engine.resilient:
        partials.append(engine.drain_retries(state))
    partials.append(engine.drain(state))
    report = engine.finalize(state, partials)
    if obs is not None:
        obs.finalize(report)
    return report
