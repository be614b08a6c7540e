"""Property-based shard tests: any split of the trace, the same bytes.

Sharding is a pure checkpointing of one globally ordered event sequence,
so the merged report must be bit-exact under *any* shard count, any
scenario, any seed — including when requests are still queued (in flight)
as the clock crosses a window boundary, and when a window is degenerate
(no arrivals at all).  Hypothesis drives seeded randomized scenarios
through shard counts 1, 2, 5, and 7; the merge layer's bookkeeping
(drop / double-count detection, empty merges) is pinned directly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.accel import AcceleratorConfig
from repro.fleet import (
    AutoscalePolicy,
    ChaosPlan,
    FailureEvent,
    FleetRequest,
    GrayWindow,
    ReplicaSpec,
    ResiliencePolicy,
    ShardPartial,
    ZoneOutage,
    merge_shard_partials,
    run_scenario_columnar,
)
from repro.fleet.columnar import (
    _Accum,
    _prepare,
    native_available,
    shard_windows,
)
from repro.obs import FleetObserver

SHARD_COUNTS = (1, 2, 5, 7)


class TestShardInvariance:
    # the fixtures are immutable value objects, so not resetting them
    # between generated inputs is safe
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        scenario=st.sampled_from(
            ["steady", "diurnal", "flash-crowd", "ramp", "multi-tenant"]
        ),
        seed=st.integers(min_value=0, max_value=999),
        rate_scale=st.floats(min_value=0.05, max_value=0.8),
    )
    def test_shard_count_invariance(
        self, scenario, seed, rate_scale,
        cluster_model, hash_tokenizer, weak_spec, fleet_config,
    ):
        """1, 2, 5, and 7 shards merge to the same bytes."""
        reports = [
            run_scenario_columnar(
                scenario, cluster_model, hash_tokenizer, [weak_spec] * 2,
                fleet_config, seed=seed, rate_scale=rate_scale,
                duration_scale=0.4, shards=shards,
            )
            for shards in SHARD_COUNTS
        ]
        baseline = reports[0].to_json()
        for report in reports[1:]:
            assert report.to_json() == baseline
        # nothing dropped, nothing double-counted
        stats = reports[0].stats
        assert stats.completed + stats.shed == stats.submitted

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=99))
    def test_shards_with_autoscale_and_failures(
        self, seed, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """Control events (ticks, failures) land in the right windows."""
        from repro.fleet import AutoscalePolicy

        kw = dict(
            autoscale=AutoscalePolicy(
                min_replicas=1, max_replicas=4, interval_ms=150.0
            ),
            scale_spec=weak_spec,
            failures=(FailureEvent(replica_id=0, fail_ms=200.0, recover_ms=700.0),),
            seed=seed, rate_scale=0.4, duration_scale=0.5,
        )
        reports = [
            run_scenario_columnar(
                "flash-crowd", cluster_model, hash_tokenizer, [weak_spec] * 2,
                fleet_config, shards=shards, **kw,
            )
            for shards in SHARD_COUNTS
        ]
        baseline = reports[0].to_json()
        for report in reports[1:]:
            assert report.to_json() == baseline

    def test_in_flight_across_boundary(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """Requests queued as the clock crosses a window edge are neither
        dropped nor double-counted — the shard state hands them across."""
        # A dense burst right before the midpoint of the trace: on a weak
        # replica these are still queued (in flight) when a 2-shard split
        # cuts the window at half the duration.
        trace = [
            FleetRequest(
                arrival_ms=490.0 + i, tenant="default", slo_ms=10_000.0,
                text_a="payload " * 3, text_b=None,
            )
            for i in range(32)
        ] + [
            FleetRequest(
                arrival_ms=1000.0, tenant="default", slo_ms=10_000.0,
                text_a="tail", text_b=None,
            )
        ]
        single = run_scenario_columnar(
            trace, cluster_model, hash_tokenizer, [weak_spec], fleet_config,
        )
        for shards in (2, 5, 7):
            split = run_scenario_columnar(
                trace, cluster_model, hash_tokenizer, [weak_spec],
                fleet_config, shards=shards,
            )
            assert split.to_json() == single.to_json()
        assert single.stats.submitted == 33
        assert single.stats.completed + single.stats.shed == 33

    def test_windows_partition_the_arrivals(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """Window [alo, ahi) ranges tile 0..n with no gap or overlap."""
        prep = _prepare(
            "diurnal", cluster_model, hash_tokenizer, [weak_spec],
            fleet_config, None, None, (), 3, 0.5, 0.5,
        )
        for shards in SHARD_COUNTS + (3, 11):
            windows = shard_windows(prep, shards)
            assert len(windows) == shards
            pos = 0
            for alo, ahi, _events in windows:
                assert alo == pos
                assert ahi >= alo
                pos = ahi
            assert pos == prep.num_requests

    def test_process_mode_same_bytes(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        in_process = run_scenario_columnar(
            "steady", cluster_model, hash_tokenizer, [weak_spec] * 2,
            fleet_config, seed=6, rate_scale=0.5, shards=3,
        )
        forked = run_scenario_columnar(
            "steady", cluster_model, hash_tokenizer, [weak_spec] * 2,
            fleet_config, seed=6, rate_scale=0.5, shards=3,
            shard_processes=True,
        )
        assert forked.to_json() == in_process.to_json()

    def test_worker_dying_before_sending_is_named(self, monkeypatch):
        """A forked worker that exits without a result raises by shard index."""
        import multiprocessing
        import os
        import types

        from repro.fleet import columnar

        try:
            multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("no fork start method on this platform")

        def dying_worker(conn, window_index):
            os._exit(3)

        monkeypatch.setattr(columnar, "_window_worker", dying_worker)
        engine = types.SimpleNamespace(obs=None)
        with pytest.raises(RuntimeError, match=r"^shard worker 0 exited 3$"):
            columnar._run_windows_in_processes(engine, None, [(0, 0, [])])
        assert columnar._WORKER_CTX is None


# An autoscaled chaos drill: a zone outage and a fail-stop that both
# recover, a gray window, resilience on, and scale-ups of a design point
# the initial fleet does not use.
_DRILL_PLAN = ChaosPlan(
    name="tables-drill",
    zones=(("east", (0,)),),
    grays=(GrayWindow(replica_id=1, start_ms=40.0, end_ms=250.0, slowdown=4.0),),
    outages=(ZoneOutage(zone="east", at_ms=80.0, recover_ms=200.0),),
    failures=(FailureEvent(replica_id=1, fail_ms=400.0, recover_ms=450.0),),
)
_DRILL_POLICY = ResiliencePolicy(
    max_retries=2, backoff_base_ms=3.0, retry_budget_ratio=1.0,
    retry_budget_burst=20.0, timeout_ms=400.0, breaker=True,
    breaker_straggle_factor=2.0, breaker_window=6, breaker_min_samples=3,
    breaker_open_ms=30.0,
)


def _run_drill(model, tokenizer, weak_spec, fleet_config, **kw):
    scale_spec = ReplicaSpec(
        accel_config=AcceleratorConfig(num_pus=4, num_pes=2, num_multipliers=8),
        name="strong",
    )
    obs = FleetObserver()
    report = run_scenario_columnar(
        "multi-tenant", model, tokenizer, [weak_spec] * 2, fleet_config,
        autoscale=AutoscalePolicy(
            min_replicas=1, max_replicas=5, interval_ms=100.0, cooldown_ticks=1
        ),
        scale_spec=scale_spec, chaos=_DRILL_PLAN, resilience=_DRILL_POLICY,
        seed=7, rate_scale=4.0, duration_scale=0.5, shards=3, obs=obs, **kw,
    )
    return report.to_json(), obs.render_prometheus(), obs.trace_json()


class TestReplicaTables:
    def test_every_replica_holds_the_memoised_tables(
        self, monkeypatch, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """Initial, scaled-up and recovered replicas all price from the
        engine's one memoised table object per design point."""
        from repro.fleet import columnar

        finals = []
        finalize = columnar.ColumnarFleetEngine.finalize

        def spy(engine, state, partials):
            finals.append((engine, state))
            return finalize(engine, state, partials)

        monkeypatch.setattr(columnar.ColumnarFleetEngine, "finalize", spy)
        _run_drill(cluster_model, hash_tokenizer, weak_spec, fleet_config)
        ((engine, state),) = finals
        reps = state.replicas
        assert len(reps) > 2, "the autoscaler added no replica"
        assert any(r.failures and not r.failed for r in reps), "none recovered"
        for rep in reps:
            assert rep.tables is engine.tables_for(rep.spec)
        designs = {(r.spec.accel_config, r.spec.device) for r in reps}
        assert len(designs) == 2
        assert len({id(r.tables) for r in reps}) == len(designs)

    def test_forked_shards_match_in_process(
        self, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """Replicas cross the fork with their tables; the bytes agree."""
        in_process = _run_drill(
            cluster_model, hash_tokenizer, weak_spec, fleet_config
        )
        forked = _run_drill(
            cluster_model, hash_tokenizer, weak_spec, fleet_config,
            shard_processes=True,
        )
        assert forked == in_process


class TestZeroStrideViews:
    """Single-tenant runs carry tenant and SLO columns as broadcasts."""

    @pytest.mark.parametrize(
        "native",
        [
            pytest.param(
                True,
                marks=pytest.mark.skipif(
                    not native_available(), reason="no C kernel"
                ),
            ),
            False,
        ],
    )
    def test_forked_single_tenant_run_matches_in_process(
        self, native, cluster_model, hash_tokenizer, weak_spec, fleet_config
    ):
        """Views cross the fork: same report bytes as the in-process run."""
        import multiprocessing

        try:
            multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("no fork start method on this platform")
        args = ("flash-crowd", cluster_model, hash_tokenizer, [weak_spec] * 2)
        kw = dict(seed=8, rate_scale=6.0, shards=3, native=native)
        prep = _prepare(
            "flash-crowd", cluster_model, hash_tokenizer, [weak_spec] * 2,
            fleet_config, None, None, (), 8, 6.0, 1.0,
        )
        assert prep.tenant_idx.strides == (0,)
        assert prep.slo.strides == (0,)
        in_process = run_scenario_columnar(*args, fleet_config, **kw)
        forked = run_scenario_columnar(
            *args, fleet_config, shard_processes=True, **kw
        )
        assert in_process.stats.shed > 0
        assert forked.to_json() == in_process.to_json()

    def test_one_part_accum_hands_arrays_through(self):
        """A lone array part reaches the partial uncopied."""
        acc = _Accum()
        done = (np.array([4, 2], dtype=np.int64), np.array([9.0, 7.5]))
        shed = (np.array([3], dtype=np.int64), np.array([1], dtype=np.uint8))
        acc.done_parts.append(done)
        acc.shed_parts.append(shed)
        partial = acc.to_partial()
        assert partial.done_idx is done[0]
        assert partial.done_fin is done[1]
        assert partial.shed_idx is shed[0]
        assert partial.shed_code is shed[1]

    def test_accum_concatenates_rows_then_parts(self):
        """List rows come first, then array parts, in append order."""
        acc = _Accum()
        acc.done_idx_py += [5, 6]
        acc.done_fin_py += [1.0, 2.0]
        acc.done_parts.append((np.array([0], dtype=np.int64), np.array([3.0])))
        acc.shed_parts.append(
            (np.array([1], dtype=np.int64), np.array([2], dtype=np.uint8))
        )
        acc.shed_parts.append(
            (np.array([7], dtype=np.int64), np.array([1], dtype=np.uint8))
        )
        partial = acc.to_partial()
        assert partial.done_idx.tolist() == [5, 6, 0]
        assert partial.done_fin.tolist() == [1.0, 2.0, 3.0]
        assert partial.shed_idx.tolist() == [1, 7]
        assert partial.shed_code.tolist() == [2, 1]
        assert partial.shed_code.dtype == np.uint8
        empty = _Accum().to_partial()
        assert (empty.num_done, empty.num_shed) == (0, 0)
        assert empty.done_idx.dtype == np.int64
        assert empty.done_fin.dtype == np.float64
        assert empty.shed_code.dtype == np.uint8


class TestMergeShardPartials:
    def _partial(self, done=(), fins=(), shed=(), codes=()):
        return ShardPartial(
            done_idx=np.asarray(done, dtype=np.int64),
            done_fin=np.asarray(fins, dtype=np.float64),
            shed_idx=np.asarray(shed, dtype=np.int64),
            shed_code=np.asarray(codes, dtype=np.uint8),
        )

    def test_empty_partial_list(self):
        """No shards at all merge to all-zero columns (explicitly legal)."""
        finish, shed = merge_shard_partials([], 4)
        assert finish.tolist() == [0.0] * 4
        assert shed.tolist() == [0] * 4

    def test_empty_and_degenerate_shards(self):
        """Empty, single-request, and all-shed shards merge cleanly."""
        parts = [
            self._partial(),                                   # empty shard
            self._partial(done=[2], fins=[50.0]),              # single request
            self._partial(shed=[0, 1], codes=[1, 2]),          # all shed
        ]
        finish, shed = merge_shard_partials(parts, 3)
        assert finish.tolist() == [0.0, 0.0, 50.0]
        assert shed.tolist() == [1, 2, 0]

    def test_double_count_rejected(self):
        """The same request claimed by two shards is an error, not a wish."""
        parts = [
            self._partial(done=[1], fins=[10.0]),
            self._partial(shed=[1], codes=[1]),
        ]
        with pytest.raises(ValueError, match="double-counted"):
            merge_shard_partials(parts, 3)

    def test_double_count_within_one_shard_rejected(self):
        parts = [self._partial(done=[2, 2], fins=[10.0, 11.0])]
        with pytest.raises(ValueError, match="double-counted"):
            merge_shard_partials(parts, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            merge_shard_partials([self._partial(done=[3], fins=[1.0])], 3)
        with pytest.raises(ValueError, match="out-of-range"):
            merge_shard_partials([self._partial(shed=[-1], codes=[1])], 3)

    def test_prefix_merge_leaves_unclaimed_rows_zero(self):
        """Merging a prefix of shards is legal: unclaimed rows stay 0."""
        finish, shed = merge_shard_partials(
            [self._partial(done=[0], fins=[5.0])], 3
        )
        assert finish.tolist() == [5.0, 0.0, 0.0]
        assert shed.tolist() == [0, 0, 0]
