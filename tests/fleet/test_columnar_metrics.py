"""Degenerate-shard stats paths: empty, single-request, all-shed columns.

The columnar stats builder (:func:`build_fleet_stats_columns`) and the
record-path builder (:func:`build_fleet_stats`) must agree bit for bit on
the degenerate inputs the shard merge can produce — an empty shard, a
single completed request, a window where everything was shed — and the
percentile helpers must accept numpy latency columns on the same branches
as plain lists.  These were previously incidental behaviors; this module
makes them contractual.
"""

import numpy as np

from repro.fleet import RequestRecord, build_fleet_stats, safe_percentile
from repro.fleet.columnar import SHED_REASON_OF_CODE
from repro.fleet.metrics import (
    _latency_block,
    _latency_block_columns,
    build_fleet_stats_columns,
)

TENANTS = ("default",)


def _records(arrival, finish, shed_code, slo):
    """RequestRecords exactly as Fleet.collect would fill them."""
    records = []
    for i, (a, f, code) in enumerate(zip(arrival, finish, shed_code)):
        r = RequestRecord(
            index=i, tenant="default", slo_ms=slo[i], arrival_ms=a
        )
        if code:
            r.shed = True
            r.shed_reason = SHED_REASON_OF_CODE[code]
        else:
            r.finish_ms = f
            r.latency_ms = f - a
            r.slo_met = r.latency_ms <= r.slo_ms
            r.completed = True
        records.append(r)
    return records


def _both_stats(arrival, finish, shed_code, slo, duration_ms, views=False):
    """Record-path and column-path stats; ``views`` passes the tenant and
    SLO columns as zero-stride broadcasts (``slo`` must then be one value)."""
    arrival = np.asarray(arrival, dtype=np.float64)
    finish = np.asarray(finish, dtype=np.float64)
    shed_code = np.asarray(shed_code, dtype=np.uint8)
    n = arrival.shape[0]
    if views:
        slo = np.broadcast_to(np.float64(slo), (n,))
        tenant_idx = np.broadcast_to(np.int64(0), (n,))
    else:
        slo = np.asarray(slo, dtype=np.float64)
        tenant_idx = np.zeros(n, dtype=np.int64)
    by_records = build_fleet_stats(
        _records(arrival, finish, shed_code, slo),
        replicas=[],
        scale_events=[],
        duration_ms=duration_ms,
    )
    by_columns = build_fleet_stats_columns(
        duration_ms=duration_ms,
        tenant_names=list(TENANTS),
        tenant_idx=tenant_idx,
        slo_ms=slo,
        arrival_ms=arrival,
        finish_ms=finish,
        shed_code=shed_code,
        shed_reasons=SHED_REASON_OF_CODE,
        migrations=0,
        replicas=[],
        scale_events=[],
    )
    return by_records, by_columns


class TestDegenerateColumns:
    def test_empty_columns(self):
        """Zero submitted requests: all-zero stats, no division, no crash."""
        ref, got = _both_stats([], [], [], [], duration_ms=0.0)
        assert got.to_dict() == ref.to_dict()
        assert got.submitted == 0
        assert got.p99_latency_ms == 0.0
        assert got.tenants == {}

    def test_single_request(self):
        """One completed request: every percentile is that one latency."""
        ref, got = _both_stats(
            [10.0], [35.0], [0], [100.0], duration_ms=1000.0
        )
        assert got.to_dict() == ref.to_dict()
        assert got.p50_latency_ms == 25.0
        assert got.p99_latency_ms == 25.0
        assert got.mean_latency_ms == 25.0

    def test_all_shed(self):
        """Every request shed: zero latencies, shed reasons still counted."""
        ref, got = _both_stats(
            [1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1, 2, 1],
            [50.0, 50.0, 50.0], duration_ms=500.0,
        )
        assert got.to_dict() == ref.to_dict()
        assert got.completed == 0
        assert got.p99_latency_ms == 0.0
        assert got.shed_by_reason == {
            SHED_REASON_OF_CODE[1]: 2,
            SHED_REASON_OF_CODE[2]: 1,
        }
        # an all-shed tenant still reports its submission count
        assert got.tenants["default"].submitted == 3
        assert got.tenants["default"].completed == 0

    def test_mixed_shed_and_completed(self):
        ref, got = _both_stats(
            [0.0, 1.0, 2.0, 3.0], [5.0, 0.0, 9.0, 0.0], [0, 1, 0, 2],
            [6.0, 6.0, 6.0, 6.0], duration_ms=100.0,
        )
        assert got.to_dict() == ref.to_dict()
        assert got.completed == 2
        assert got.shed == 2
        # 5.0 <= 6.0 met, 7.0 > 6.0 missed
        assert got.slo_met == 1


class TestPercentileColumns:
    def test_safe_percentile_accepts_numpy_columns(self):
        assert safe_percentile(np.array([]), 99) == 0.0
        assert safe_percentile(np.array([4.0]), 50) == 4.0
        column = np.array([3.0, 1.0, 2.0])
        assert safe_percentile(column, 50) == safe_percentile([3.0, 1.0, 2.0], 50)

    def test_latency_block_columns_matches_list_path(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 7, 100, 101, 1000):
            column = rng.exponential(10.0, size=n)
            by_list = _latency_block(list(column))
            by_column = _latency_block_columns(column)
            assert by_column == by_list  # bit-identical, not approx

    def test_latency_block_columns_empty(self):
        block = _latency_block_columns(np.array([]))
        assert block == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0
        }


class TestZeroStrideColumns:
    """Single-tenant runs pass ``tenant_idx`` and ``slo`` as broadcasts."""

    def test_views_equal_the_record_path(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 2, 50, 5000):
            arrival = np.sort(rng.uniform(0.0, 100.0, size=n))
            finish = arrival + rng.exponential(20.0, size=n)
            shed_code = rng.choice([0, 0, 0, 1, 2], size=n)
            for slo in (15.0, 25.0):
                ref, got = _both_stats(
                    arrival, finish, shed_code, slo, duration_ms=120.0,
                    views=True,
                )
                assert got.to_dict() == ref.to_dict()
                if n >= 50:
                    assert 0 < got.slo_met < got.completed

    def test_views_equal_full_columns(self):
        rng = np.random.default_rng(6)
        arrival = np.sort(rng.uniform(0.0, 100.0, size=1000))
        finish = arrival + rng.exponential(20.0, size=1000)
        shed_code = rng.choice([0, 0, 1], size=1000)
        _, full = _both_stats(arrival, finish, shed_code, [18.0] * 1000, 100.0)
        _, views = _both_stats(
            arrival, finish, shed_code, 18.0, 100.0, views=True
        )
        assert views.to_dict() == full.to_dict()


class TestMultiTenantColumns:
    def test_per_row_slos_equal_the_record_path(self):
        """Tenants with different SLOs: each row is judged by its own."""
        rng = np.random.default_rng(8)
        n = 3000
        names = ["interactive", "standard", "batch"]
        tenant_idx = rng.integers(0, 3, size=n)
        slo = np.array([10.0, 20.0, 40.0])[tenant_idx]
        arrival = np.sort(rng.uniform(0.0, 100.0, size=n))
        finish = arrival + rng.exponential(20.0, size=n)
        shed_code = rng.choice([0, 0, 0, 1], size=n).astype(np.uint8)
        records = _records(arrival, finish, shed_code, slo)
        for r, tid in zip(records, tenant_idx):
            r.tenant = names[tid]
        ref = build_fleet_stats(
            records, replicas=[], scale_events=[], duration_ms=120.0
        )
        got = build_fleet_stats_columns(
            duration_ms=120.0,
            tenant_names=names,
            tenant_idx=tenant_idx,
            slo_ms=slo,
            arrival_ms=arrival,
            finish_ms=finish,
            shed_code=shed_code,
            shed_reasons=SHED_REASON_OF_CODE,
            migrations=0,
            replicas=[],
            scale_events=[],
        )
        assert got.to_dict() == ref.to_dict()
        met = [got.tenants[name].slo_met / got.tenants[name].completed
               for name in names]
        assert met[0] < met[1] < met[2] < 1.0

