"""Fleet-level metrics: per-tenant and per-replica views, goodput, sheds.

Every aggregate here is **empty-safe**: a trace where everything was shed
(or nothing arrived) summarizes to zeros instead of raising — degenerate
traces are legitimate outcomes of overload scenarios, and the report must
describe them, not crash on them.  All quantities come from the simulated
clock, so reports are byte-identical across runs of the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..serve.metrics import percentile, percentile_sorted
from .autoscale import ScaleEvent
from .chaos import ChaosStats
from .fleet import Replica, RequestRecord


def safe_percentile(values: Sequence[float], q: float) -> float:
    """:func:`repro.serve.metrics.percentile`, but 0.0 for an empty input.

    Emptiness is checked with ``len()`` (not truthiness) so numpy latency
    columns — including the degenerate single-element and empty shards the
    merge path produces — take the same branches as plain lists.
    """
    if len(values) == 0:
        return 0.0
    return percentile(values, q)


@dataclass
class TenantStats:
    """One tenant's slice of a fleet run."""

    tenant: str
    submitted: int
    completed: int
    shed: int
    slo_met: int
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    mean_latency_ms: float
    goodput_rps: float          # SLO-met completions per simulated second

    @property
    def shed_rate(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def slo_attainment(self) -> float:
        """SLO-met fraction of *submitted* traffic (sheds count against it)."""
        return self.slo_met / self.submitted if self.submitted else 1.0


@dataclass
class ReplicaStats:
    """One replica's service record over the run."""

    replica_id: int
    spec_label: str
    added_ms: float
    retired_ms: float           # < 0 when still live at the end
    failures: int
    busy_ms: float
    batches_served: int
    requests_served: int
    utilization: float          # busy fraction of its live time


@dataclass
class FleetStats:
    """Aggregate view of one fleet run (the runner's report payload)."""

    duration_ms: float
    submitted: int
    completed: int
    shed: int
    migrations: int
    slo_met: int
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    mean_latency_ms: float
    max_latency_ms: float
    throughput_rps: float       # completions per simulated second
    goodput_rps: float          # SLO-met completions per simulated second
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    replicas: List[ReplicaStats] = field(default_factory=list)
    scale_events: List[ScaleEvent] = field(default_factory=list)
    # Resilience counters; None unless a ResiliencePolicy was active, so
    # plain runs render/serialize their exact pre-chaos bytes.
    chaos: Optional[ChaosStats] = None

    @property
    def shed_rate(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def slo_attainment(self) -> float:
        return self.slo_met / self.submitted if self.submitted else 1.0

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Deterministic human-readable report (the loadtest CLI output)."""
        lines = [
            f"requests:       {self.submitted} submitted, {self.completed} "
            f"completed, {self.shed} shed ({self.shed_rate * 100:.1f}%)",
            f"migrations:     {self.migrations}",
            f"duration:       {self.duration_ms:.2f} ms (simulated)",
            f"throughput:     {self.throughput_rps:.2f} req/s",
            f"goodput:        {self.goodput_rps:.2f} req/s (SLO-met completions)",
            f"SLO attainment: {self.slo_attainment * 100:.1f}% of submitted",
            f"latency p50/p95/p99: {self.p50_latency_ms:.2f} / "
            f"{self.p95_latency_ms:.2f} / {self.p99_latency_ms:.2f} ms",
            f"latency mean/max:    {self.mean_latency_ms:.2f} / "
            f"{self.max_latency_ms:.2f} ms",
        ]
        for reason in sorted(self.shed_by_reason):
            lines.append(f"shed[{reason}]:  {self.shed_by_reason[reason]}")
        if self.chaos is not None:
            lines.extend(self.chaos.render())
        for name in sorted(self.tenants):
            t = self.tenants[name]
            lines.append(
                f"tenant {name}: {t.submitted} req, shed {t.shed_rate * 100:.1f}%, "
                f"p99 {t.p99_latency_ms:.2f} ms, goodput {t.goodput_rps:.2f} req/s, "
                f"SLO {t.slo_attainment * 100:.1f}%"
            )
        for r in self.replicas:
            state = "live" if r.retired_ms < 0 else f"retired@{r.retired_ms:.2f}"
            lines.append(
                f"replica {r.replica_id} [{r.spec_label}] {state}: "
                f"{r.requests_served} req in {r.batches_served} batches, "
                f"util {r.utilization * 100:.1f}%, failures {r.failures}"
            )
        for event in self.scale_events:
            lines.append(event.render())
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-ready stable dict (sorted keys downstream)."""
        doc = self._base_dict()
        if self.chaos is not None:
            doc["chaos"] = self.chaos.to_dict()
        return doc

    def _base_dict(self) -> Dict:
        return {
            "duration_ms": self.duration_ms,
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "migrations": self.migrations,
            "slo_met": self.slo_met,
            "slo_attainment": self.slo_attainment,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "mean_latency_ms": self.mean_latency_ms,
            "max_latency_ms": self.max_latency_ms,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "tenants": {
                name: {
                    "submitted": t.submitted,
                    "completed": t.completed,
                    "shed": t.shed,
                    "shed_rate": t.shed_rate,
                    "slo_met": t.slo_met,
                    "slo_attainment": t.slo_attainment,
                    "p50_latency_ms": t.p50_latency_ms,
                    "p95_latency_ms": t.p95_latency_ms,
                    "p99_latency_ms": t.p99_latency_ms,
                    "mean_latency_ms": t.mean_latency_ms,
                    "goodput_rps": t.goodput_rps,
                }
                for name, t in sorted(self.tenants.items())
            },
            "replicas": [
                {
                    "replica_id": r.replica_id,
                    "spec": r.spec_label,
                    "added_ms": r.added_ms,
                    "retired_ms": r.retired_ms,
                    "failures": r.failures,
                    "busy_ms": r.busy_ms,
                    "batches_served": r.batches_served,
                    "requests_served": r.requests_served,
                    "utilization": r.utilization,
                }
                for r in self.replicas
            ],
            "scale_events": [
                {
                    "time_ms": e.time_ms,
                    "action": e.action,
                    "reason": e.reason,
                    "replicas_after": e.replicas_after,
                }
                for e in self.scale_events
            ],
        }


def _latency_block(latencies: List[float]) -> Dict[str, float]:
    """Percentiles/mean/max of one latency list, sorting exactly once.

    The mean still sums the *unsorted* list (same accumulation order as
    before the single-sort change), so outputs stay byte-identical to the
    seed implementation — the property the determinism tests pin.
    """
    if not latencies:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    ordered = sorted(latencies)
    return {
        "p50": percentile_sorted(ordered, 50),
        "p95": percentile_sorted(ordered, 95),
        "p99": percentile_sorted(ordered, 99),
        "mean": sum(latencies) / len(latencies),
        "max": ordered[-1],
    }


def build_fleet_stats(
    records: List[RequestRecord],
    replicas: List[Replica],
    scale_events: List[ScaleEvent],
    duration_ms: float,
    chaos: Optional[ChaosStats] = None,
) -> FleetStats:
    """Aggregate a finished fleet run into :class:`FleetStats`.

    Args:
        records: All request records (collected — completions filled in).
        replicas: Every replica that ever existed (live and retired).
        scale_events: The autoscaler's audit trail (empty if disabled).
        duration_ms: Denominator for throughput/goodput — the scenario
            duration or the last completion, whichever is later.
        chaos: Resilience counters when a policy was active, else ``None``
            (the report then keeps its pre-chaos bytes).

    Returns:
        The empty-safe :class:`FleetStats`.
    """
    # One pass over the records fills every aggregate: the per-tenant views
    # used to re-scan the full record list once per tenant, which is the
    # difference between O(N) and O(N * tenants) on million-request traces.
    completed: List[RequestRecord] = []
    num_shed = 0
    slo_met = 0
    migrations = 0
    shed_by_reason: Dict[str, int] = {}
    by_tenant: Dict[str, List[RequestRecord]] = {}
    for r in records:
        by_tenant.setdefault(r.tenant, []).append(r)
        migrations += r.migrations
        if r.completed:
            completed.append(r)
            if r.slo_met:
                slo_met += 1
        if r.shed:
            num_shed += 1
            shed_by_reason[r.shed_reason] = shed_by_reason.get(r.shed_reason, 0) + 1
    latencies = [r.latency_ms for r in completed]
    overall = _latency_block(latencies)
    seconds = duration_ms / 1000.0 if duration_ms > 0 else 0.0

    tenants: Dict[str, TenantStats] = {}
    for name in sorted(by_tenant):
        t_records = by_tenant[name]
        t_completed = [r for r in t_records if r.completed]
        t_latencies = [r.latency_ms for r in t_completed]
        t_block = _latency_block(t_latencies)
        t_slo_met = sum(r.slo_met for r in t_completed)
        tenants[name] = TenantStats(
            tenant=name,
            submitted=len(t_records),
            completed=len(t_completed),
            shed=sum(r.shed for r in t_records),
            slo_met=t_slo_met,
            p50_latency_ms=t_block["p50"],
            p95_latency_ms=t_block["p95"],
            p99_latency_ms=t_block["p99"],
            mean_latency_ms=t_block["mean"],
            goodput_rps=t_slo_met / seconds if seconds else 0.0,
        )

    replica_stats: List[ReplicaStats] = []
    for replica in sorted(replicas, key=lambda r: r.replica_id):
        devices = replica.engine.router.devices
        busy = sum(d.busy_ms for d in devices)
        end = replica.retired_ms if replica.retired_ms is not None else duration_ms
        # Failure downtime is not live time — a replica down for a third of
        # the run should not have its utilization diluted by the outage.
        lifetime = max(0.0, end - replica.added_ms - replica.downtime_ms)
        replica_stats.append(
            ReplicaStats(
                replica_id=replica.replica_id,
                spec_label=replica.spec.label,
                added_ms=replica.added_ms,
                retired_ms=replica.retired_ms if replica.retired_ms is not None else -1.0,
                failures=replica.failures,
                busy_ms=busy,
                batches_served=sum(d.batches_served for d in devices),
                requests_served=sum(d.requests_served for d in devices),
                utilization=min(1.0, busy / lifetime) if lifetime > 0 else 0.0,
            )
        )

    return FleetStats(
        duration_ms=duration_ms,
        submitted=len(records),
        completed=len(completed),
        shed=num_shed,
        migrations=migrations,
        slo_met=slo_met,
        p50_latency_ms=overall["p50"],
        p95_latency_ms=overall["p95"],
        p99_latency_ms=overall["p99"],
        mean_latency_ms=overall["mean"],
        max_latency_ms=overall["max"],
        throughput_rps=len(completed) / seconds if seconds else 0.0,
        goodput_rps=slo_met / seconds if seconds else 0.0,
        shed_by_reason=shed_by_reason,
        tenants=tenants,
        replicas=replica_stats,
        scale_events=list(scale_events),
        chaos=chaos,
    )


# ----------------------------------------------------------------------
# columnar aggregation: same numbers, array inputs
# ----------------------------------------------------------------------
def _latency_block_columns(latencies: np.ndarray) -> Dict[str, float]:
    """:func:`_latency_block` over a float64 column, bit-identical.

    ``np.sort`` is a permutation of the same doubles, ``np.cumsum`` is the
    same left-to-right accumulation as ``sum(list)`` (both pinned by
    tests), and :func:`percentile_sorted` interpolates identically on
    numpy scalars — so every field matches the list path exactly.
    """
    n = int(latencies.shape[0])
    if n == 0:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    # Only seven order statistics are ever read (p50/p95/p99 bracket
    # pairs + max), so one introselect pass places exactly those instead
    # of fully sorting the column — the kth element of a partition is the
    # same double sorting would put there.
    brackets = {}
    wanted = {n - 1}
    for q in (50, 95, 99):
        rank = (q / 100.0) * (n - 1)
        lower = int(rank)
        upper = min(lower + 1, n - 1)
        brackets[q] = (rank, lower, upper)
        wanted.update((lower, upper))
    kth = sorted(wanted)
    part = np.partition(latencies, kth)

    def interp(q: int) -> float:
        rank, lower, upper = brackets[q]
        frac = rank - lower
        # identical arithmetic to percentile_sorted on the same scalars
        return float(part[lower] * (1.0 - frac) + part[upper] * frac)

    p50, p95, p99 = interp(50), interp(95), interp(99)
    peak = float(part[n - 1])
    # The order statistics are read, so the partition buffer is dead:
    # the running sum reuses it instead of allocating an n-length cumsum.
    mean = float(np.cumsum(latencies, out=part)[-1]) / n
    return {"p50": p50, "p95": p95, "p99": p99, "mean": mean, "max": peak}


def build_replica_stats(
    replica_id: int,
    spec_label: str,
    added_ms: float,
    retired_ms: Optional[float],
    failures: int,
    busy_ms: float,
    batches_served: int,
    requests_served: int,
    downtime_ms: float,
    duration_ms: float,
) -> ReplicaStats:
    """One :class:`ReplicaStats` row from scalar counters.

    The exact arithmetic of :func:`build_fleet_stats`'s replica loop,
    factored out so the columnar engine (which carries these counters in
    its shard state instead of live ``Replica`` objects) produces the
    same rows bit for bit.
    """
    end = retired_ms if retired_ms is not None else duration_ms
    # Failure downtime is not live time — a replica down for a third of
    # the run should not have its utilization diluted by the outage.
    lifetime = max(0.0, end - added_ms - downtime_ms)
    return ReplicaStats(
        replica_id=replica_id,
        spec_label=spec_label,
        added_ms=added_ms,
        retired_ms=retired_ms if retired_ms is not None else -1.0,
        failures=failures,
        busy_ms=busy_ms,
        batches_served=batches_served,
        requests_served=requests_served,
        utilization=min(1.0, busy_ms / lifetime) if lifetime > 0 else 0.0,
    )


def build_fleet_stats_columns(
    *,
    duration_ms: float,
    tenant_names: Sequence[str],
    tenant_idx: np.ndarray,
    slo_ms: np.ndarray,
    arrival_ms: np.ndarray,
    finish_ms: np.ndarray,
    shed_code: np.ndarray,
    shed_reasons: Mapping[int, str],
    migrations: int,
    replicas: List[ReplicaStats],
    scale_events: List[ScaleEvent],
    chaos: Optional[ChaosStats] = None,
) -> FleetStats:
    """:func:`build_fleet_stats` over columns instead of record objects.

    One row per submitted request, in submission order: ``shed_code == 0``
    means completed (then ``finish_ms`` holds the completion time);
    non-zero codes map to shed reasons via ``shed_reasons``.  Latency is
    computed as ``finish - arrival`` exactly as ``RequestRecord.collect``
    does, per-tenant slices preserve submission order (boolean masks are
    order-preserving), and every reduction uses the accumulation order the
    record path uses — the outputs are bit-identical by construction and
    pinned by the differential suite.

    Args:
        duration_ms: Denominator for throughput/goodput — the scenario
            duration or the last completion, whichever is later.
        tenant_names: Tenant name per tenant index (declaration order).
        tenant_idx: Tenant index column, int per request (a zero-stride
            view when every row has the same tenant).
        slo_ms: Per-request SLO column (float64; a zero-stride view when
            every row has the same SLO).
        arrival_ms: Per-request arrival column (float64).
        finish_ms: Per-request completion time; only read where completed.
        shed_code: Per-request shed code (0 = completed).
        shed_reasons: Maps non-zero shed codes to reason strings.
        migrations: Total successful queue migrations.
        replicas: Prebuilt :class:`ReplicaStats` rows, id order.
        scale_events: The autoscaler's audit trail (empty if disabled).

    Returns:
        The empty-safe :class:`FleetStats`.
    """
    submitted = int(arrival_ms.shape[0])
    completed_mask = shed_code == 0
    num_completed = int(completed_mask.sum())
    num_shed = submitted - num_completed
    # Latency of the completed rows only, in submission order: the
    # identical subtraction the record path performs, without a
    # full-length column that is mostly shed rows.
    all_lat = finish_ms[completed_mask]
    np.subtract(all_lat, arrival_ms[completed_mask], out=all_lat)
    if slo_ms.strides[0] == 0:
        # A single-tenant zero-stride view: slicing keeps it one value
        # wide in memory instead of gathering a constant column.
        comp_slo = slo_ms[:num_completed]
    else:
        comp_slo = slo_ms[completed_mask]
    slo_met = int((all_lat <= comp_slo).sum())
    overall = _latency_block_columns(all_lat)
    seconds = duration_ms / 1000.0 if duration_ms > 0 else 0.0

    shed_by_reason: Dict[str, int] = {}
    if num_shed:
        counts = np.bincount(shed_code)
        for code in range(1, counts.shape[0]):
            if counts[code]:
                shed_by_reason[shed_reasons[code]] = int(counts[code])

    if not submitted:
        present = np.zeros(len(tenant_names), dtype=np.int64)
    elif len(tenant_names) == 1:
        # One declared tenant: every request is its (skip the 100M bincount).
        present = np.array([submitted], dtype=np.int64)
    else:
        present = np.bincount(tenant_idx, minlength=len(tenant_names))
    tenants: Dict[str, TenantStats] = {}
    order = sorted(
        (name, tid) for tid, name in enumerate(tenant_names) if present[tid]
    )
    single_tenant = len(order) == 1 and int(present.sum()) == submitted
    if not single_tenant:
        # Tenant of each completed row, aligned with all_lat.
        comp_tid = tenant_idx[completed_mask]
    for name, tid in order:
        if single_tenant:
            # One tenant owning every request: its slices are the overall
            # columns, so reuse the reductions instead of repeating a
            # 100M-row mask + sort (identical arrays, identical bytes).
            t_lat = all_lat
            t_block = overall
            t_slo_met = slo_met
            t_submitted, t_completed = submitted, num_completed
        else:
            t_comp = comp_tid == tid
            t_lat = all_lat[t_comp]
            t_block = _latency_block_columns(t_lat)
            t_slo_met = int((t_lat <= comp_slo[t_comp]).sum())
            t_submitted = int(present[tid])
            t_completed = int(t_lat.shape[0])
        tenants[name] = TenantStats(
            tenant=name,
            submitted=t_submitted,
            completed=t_completed,
            shed=t_submitted - t_completed,
            slo_met=t_slo_met,
            p50_latency_ms=t_block["p50"],
            p95_latency_ms=t_block["p95"],
            p99_latency_ms=t_block["p99"],
            mean_latency_ms=t_block["mean"],
            goodput_rps=t_slo_met / seconds if seconds else 0.0,
        )

    return FleetStats(
        duration_ms=duration_ms,
        submitted=submitted,
        completed=num_completed,
        shed=num_shed,
        migrations=migrations,
        slo_met=slo_met,
        p50_latency_ms=overall["p50"],
        p95_latency_ms=overall["p95"],
        p99_latency_ms=overall["p99"],
        mean_latency_ms=overall["mean"],
        max_latency_ms=overall["max"],
        throughput_rps=num_completed / seconds if seconds else 0.0,
        goodput_rps=slo_met / seconds if seconds else 0.0,
        shed_by_reason=shed_by_reason,
        tenants=tenants,
        replicas=list(replicas),
        scale_events=list(scale_events),
        chaos=chaos,
    )
