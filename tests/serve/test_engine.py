"""End-to-end serving engine: bit-exactness, bucketing, caching, timing."""

import dataclasses
import json

import numpy as np
import pytest

from repro.serve import (
    ServingConfig,
    ServingEngine,
    TraceRequest,
    generate_trace,
)
from repro.serve import engine as engine_module
from repro.serve.engine import Encoding, true_width

BUCKETS = (8, 12, 16)


def make_engine(integer_model, serve_tokenizer, **overrides):
    kwargs = dict(
        max_batch_size=4, max_wait_ms=5.0, buckets=BUCKETS, num_devices=2
    )
    kwargs.update(overrides)
    return ServingEngine(integer_model, serve_tokenizer, ServingConfig(**kwargs))


class TestHeterogeneousEngine:
    def test_device_specs_build_mixed_fleet(
        self, integer_model, serve_tokenizer, serve_pool
    ):
        """``device_specs`` plumbs per-device design points into the router
        and the engine balances across them (logits stay bit-exact — timing
        heterogeneity never touches values)."""
        from repro.accel import AcceleratorConfig
        from repro.accel.devices import ZCU102, ZCU111

        engine = ServingEngine(
            integer_model,
            serve_tokenizer,
            ServingConfig(max_batch_size=2, max_wait_ms=5.0, buckets=BUCKETS),
            device_specs=[
                (AcceleratorConfig(num_pus=2, num_pes=2, num_multipliers=4), ZCU102),
                (AcceleratorConfig.zcu102_n8_m16(), ZCU111),
            ],
        )
        assert engine.router.num_devices == 2
        # A simultaneous burst: the fast device's queue must grow deep
        # enough that earliest-finish dispatch spills onto the slow one.
        trace = [
            TraceRequest(text_a=text_a, text_b=text_b, arrival_ms=0.0)
            for text_a, text_b in (serve_pool * 3)[:48]
        ]
        results = engine.run_trace(trace)
        assert {r.device_id for r in results} == {0, 1}
        slow = engine.router.estimate_latency_ms(BUCKETS[0], 2, device_id=0)
        fast = engine.router.estimate_latency_ms(BUCKETS[0], 2, device_id=1)
        assert fast < slow
        by_device = {0: 0, 1: 0}
        for r in results:
            by_device[r.device_id] += 1
        assert by_device[1] > by_device[0]


class TestBitExactness:
    def test_logits_match_unbatched_inference(
        self, integer_model, serve_tokenizer, serve_pool
    ):
        """The acceptance criterion: engine logits are bit-identical to
        one-at-a-time integer-model inference on the same requests, even
        though the engine batches, buckets, and pads differently."""
        engine = make_engine(integer_model, serve_tokenizer)
        trace = generate_trace(serve_pool, num_requests=24, seed=11)
        results = engine.run_trace(trace)
        assert len(results) == 24
        for result, item in zip(results, sorted(trace, key=lambda t: t.arrival_ms)):
            ids, mask, segments = serve_tokenizer.encode(
                item.text_a, item.text_b, max_length=max(BUCKETS)
            )
            solo = integer_model.forward(ids[None], mask[None], segments[None])[0]
            np.testing.assert_array_equal(result.logits, solo)
            assert result.prediction == int(solo.argmax())

    def test_deterministic_across_runs(
        self, integer_model, serve_tokenizer, serve_pool
    ):
        trace = generate_trace(serve_pool, num_requests=16, seed=3)
        runs = []
        for _ in range(2):
            engine = make_engine(integer_model, serve_tokenizer)
            results = engine.run_trace(trace)
            runs.append((results, engine.stats()))
        (res_a, stats_a), (res_b, stats_b) = runs
        assert stats_a == stats_b
        for a, b in zip(res_a, res_b):
            np.testing.assert_array_equal(a.logits, b.logits)
            assert (a.latency_ms, a.device_id, a.batch_id) == (
                b.latency_ms,
                b.device_id,
                b.batch_id,
            )


def _record_widths(monkeypatch, model):
    """Record the width of every batch the engine encodes."""
    widths = []
    encode = model.encode

    def recording(input_ids, attention_mask=None, token_type_ids=None):
        widths.append(input_ids.shape[1])
        return encode(input_ids, attention_mask, token_type_ids)

    monkeypatch.setattr(model, "encode", recording)
    return widths


def _bucket_width_logits(model, tokenizer, result, text_a, text_b):
    ids, mask, segments = tokenizer.encode(text_a, text_b, max_length=max(BUCKETS))
    b = result.bucket
    return model.forward(ids[None, :b], mask[None, :b], segments[None, :b])[0]


class TestTrueWidth:
    """Host compute runs at the batch's true width; timing models the bucket."""

    def test_true_width(self):
        mask = np.array([[1, 1, 0, 0, 0], [1, 1, 1, 0, 0]])
        assert true_width(mask) == 3
        assert true_width(np.array([[1, 0, 1, 0]])) == 3  # a hole is not the end
        assert true_width(np.ones((2, 4), dtype=np.int64)) == 4
        assert true_width(np.zeros((2, 4), dtype=np.int64)) == 4

    def test_pair_inputs_match_bucket_width_forward(
        self, integer_model, serve_tokenizer, serve_pool, monkeypatch
    ):
        widths = _record_widths(monkeypatch, integer_model)
        texts = [text_a for text_a, _ in serve_pool]
        pairs = [(" ".join(texts[i].split()[:3]), texts[i + 1]) for i in range(0, 24, 2)]
        trace = [
            TraceRequest(text_a=a, text_b=b, arrival_ms=0.5 * i)
            for i, (a, b) in enumerate(pairs)
        ]
        engine = make_engine(integer_model, serve_tokenizer)
        results = engine.run_trace(trace)
        assert all(
            serve_tokenizer.encode(a, b, max_length=max(BUCKETS))[2].any() for a, b in pairs
        )
        for result, item in zip(results, trace):
            expected = _bucket_width_logits(
                integer_model, serve_tokenizer, result, item.text_a, item.text_b
            )
            np.testing.assert_array_equal(result.logits, expected)
        assert max(r.batch_size for r in results) > 1
        assert any(w not in BUCKETS for w in widths)  # some batch was trimmed

    def test_batch_whose_longest_row_fills_the_bucket(
        self, integer_model, serve_tokenizer, serve_pool, monkeypatch
    ):
        widths = _record_widths(monkeypatch, integer_model)
        words = " ".join(text_a for text_a, _ in serve_pool).split()
        long_text = " ".join(words[:40])  # truncated to the largest bucket
        trace = [TraceRequest(text_a=long_text, text_b=None, arrival_ms=0.0)] + [
            TraceRequest(text_a=" ".join(words[i : i + 11]), text_b=None, arrival_ms=0.0)
            for i in range(3)
        ]
        engine = make_engine(integer_model, serve_tokenizer)
        results = engine.run_trace(trace)
        assert {r.bucket for r in results} == {max(BUCKETS)}
        assert results[0].length == max(BUCKETS)
        assert widths == [max(BUCKETS)]
        for result, item in zip(results, trace):
            expected = _bucket_width_logits(
                integer_model, serve_tokenizer, result, item.text_a, item.text_b
            )
            np.testing.assert_array_equal(result.logits, expected)

    def test_single_token_row(self, integer_model, serve_tokenizer, monkeypatch):
        """A row whose only valid token is [CLS] encodes at width 1."""
        widths = _record_widths(monkeypatch, integer_model)
        ids, mask, segments = serve_tokenizer.encode("", None, max_length=max(BUCKETS))
        mask = np.zeros_like(mask)
        mask[0] = 1
        engine = make_engine(integer_model, serve_tokenizer)
        engine.cache.put(("lone", None), Encoding(ids, mask, segments, length=1))
        engine.submit("lone", arrival_ms=0.0)
        (result,) = engine.drain()
        assert result.cache_hit and result.bucket == BUCKETS[0]
        assert widths == [1]
        b = result.bucket
        expected = integer_model.forward(ids[None, :b], mask[None, :b], segments[None, :b])[0]
        np.testing.assert_array_equal(result.logits, expected)

    def test_timing_and_stats_match_untrimmed_run(
        self, integer_model, serve_tokenizer, serve_pool, monkeypatch
    ):
        """Trimming moves no timing field, no stats byte and no logit bit."""
        trace = generate_trace(serve_pool, num_requests=40, seed=21)
        trimmed = make_engine(integer_model, serve_tokenizer)
        trimmed_results = trimmed.run_trace(trace)
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "true_width", lambda mask: mask.shape[1])
            widths = _record_widths(patch, integer_model)
            untrimmed = make_engine(integer_model, serve_tokenizer)
            untrimmed_results = untrimmed.run_trace(trace)
        assert set(widths) <= set(BUCKETS)  # the untrimmed run saw only buckets

        def stats_bytes(engine):
            return json.dumps(dataclasses.asdict(engine.stats()), sort_keys=True)

        assert stats_bytes(trimmed) == stats_bytes(untrimmed)
        assert len(trimmed_results) == len(untrimmed_results) == 40
        for a, b in zip(trimmed_results, untrimmed_results):
            fields_a, fields_b = dataclasses.asdict(a), dataclasses.asdict(b)
            logits_a, logits_b = fields_a.pop("logits"), fields_b.pop("logits")
            assert repr(fields_a) == repr(fields_b)
            assert logits_a.tobytes() == logits_b.tobytes()
        assert any(r.length < r.bucket for r in trimmed_results)


class TestBucketing:
    def test_bucketing_beats_naive_padding(
        self, integer_model, serve_tokenizer, serve_pool
    ):
        """Length bucketing strictly reduces padded tokens vs padding every
        request to max_seq_len (given the pool has short requests)."""
        trace = generate_trace(serve_pool, num_requests=32, seed=7)
        bucketed = make_engine(integer_model, serve_tokenizer)
        bucketed.run_trace(trace)
        naive = make_engine(integer_model, serve_tokenizer, buckets=(max(BUCKETS),))
        naive.run_trace(trace)
        # Sanity: the trace actually contains sub-max-length requests.
        lengths = [r.length for r in bucketed.results.values()]
        assert any(length <= BUCKETS[-2] for length in lengths)
        assert (
            bucketed.stats().padding_efficiency > naive.stats().padding_efficiency
        )

    def test_requests_padded_to_their_bucket(
        self, integer_model, serve_tokenizer, serve_pool
    ):
        engine = make_engine(integer_model, serve_tokenizer)
        engine.run_trace(generate_trace(serve_pool, num_requests=16, seed=5))
        for result in engine.results.values():
            assert result.bucket in BUCKETS
            assert result.length <= result.bucket


class TestBatchingBehavior:
    def test_full_batch_executes_immediately(
        self, integer_model, serve_tokenizer, serve_pool
    ):
        engine = make_engine(integer_model, serve_tokenizer, buckets=(16,))
        text = serve_pool[0][0]
        for _ in range(4):  # max_batch_size = 4, same bucket
            engine.submit(text, arrival_ms=1.0)
        assert engine.batcher.pending == 0      # flushed by size, no deadline
        results = engine.drain()
        assert all(r.batch_size == 4 and r.start_ms == 1.0 for r in results)
        assert all(r.queue_ms == 0.0 for r in results)

    def test_partial_batch_waits_for_deadline(
        self, integer_model, serve_tokenizer, serve_pool
    ):
        engine = make_engine(integer_model, serve_tokenizer)
        engine.submit(serve_pool[0][0], arrival_ms=2.0)
        (result,) = engine.drain()
        assert result.start_ms == 7.0           # arrival + max_wait_ms
        assert result.queue_ms == 5.0
        assert result.latency_ms == pytest.approx(5.0 + result.service_ms)

    def test_no_batch_exceeds_max_size(
        self, integer_model, serve_tokenizer, serve_pool
    ):
        engine = make_engine(integer_model, serve_tokenizer, max_batch_size=3)
        engine.run_trace(generate_trace(serve_pool, num_requests=25, seed=9))
        assert all(r.batch_size <= 3 for r in engine.results.values())

    def test_arrivals_must_be_monotonic(
        self, integer_model, serve_tokenizer, serve_pool
    ):
        engine = make_engine(integer_model, serve_tokenizer)
        engine.submit(serve_pool[0][0], arrival_ms=5.0)
        with pytest.raises(ValueError):
            engine.submit(serve_pool[1][0], arrival_ms=4.0)

    def test_oversized_bucket_rejected(self, integer_model, serve_tokenizer):
        max_pos = integer_model.config.max_position_embeddings
        with pytest.raises(ValueError):
            ServingEngine(
                integer_model,
                serve_tokenizer,
                ServingConfig(buckets=(max_pos + 8,)),
            )


class TestCaching:
    def test_repeat_text_hits_cache(self, integer_model, serve_tokenizer, serve_pool):
        engine = make_engine(integer_model, serve_tokenizer)
        text = serve_pool[0][0]
        first = engine.submit(text, arrival_ms=0.0)
        second = engine.submit(text, arrival_ms=1.0)
        results = {r.request_id: r for r in engine.drain()}
        assert not results[first].cache_hit
        assert results[second].cache_hit
        np.testing.assert_array_equal(results[first].logits, results[second].logits)

    def test_hit_rate_reported(self, integer_model, serve_tokenizer, serve_pool):
        engine = make_engine(integer_model, serve_tokenizer)
        # A pool of 3 texts over 24 requests guarantees heavy repetition.
        trace = generate_trace(serve_pool[:3], num_requests=24, seed=2)
        engine.run_trace(trace)
        stats = engine.stats()
        assert stats.cache_hit_rate >= 21 / 24

    def test_eviction_under_tiny_capacity(
        self, integer_model, serve_tokenizer, serve_pool
    ):
        engine = make_engine(integer_model, serve_tokenizer, cache_capacity=1)
        a, b = serve_pool[0][0], serve_pool[1][0]
        engine.submit(a, arrival_ms=0.0)
        engine.submit(b, arrival_ms=1.0)   # evicts a
        engine.submit(a, arrival_ms=2.0)   # miss again
        results = engine.drain()
        assert not any(r.cache_hit for r in results)
        assert engine.cache.evictions >= 1


class TestStatsAndSlo:
    def test_stats_shape(self, integer_model, serve_tokenizer, serve_pool):
        engine = make_engine(integer_model, serve_tokenizer)
        engine.run_trace(generate_trace(serve_pool, num_requests=16, seed=1))
        stats = engine.stats()
        assert stats.num_requests == 16
        assert stats.num_batches >= 16 / 4
        assert stats.makespan_ms > 0
        assert stats.throughput_rps > 0
        assert 0 < stats.padding_efficiency <= 1
        assert set(stats.device_busy_ms) == {0, 1}
        assert stats.p50_latency_ms <= stats.p99_latency_ms

    def test_stats_without_traffic_rejected(self, integer_model, serve_tokenizer):
        with pytest.raises(ValueError):
            make_engine(integer_model, serve_tokenizer).stats()

    def test_slo_accounting(self, integer_model, serve_tokenizer, serve_pool):
        trace = generate_trace(serve_pool, num_requests=12, seed=4)
        strict = make_engine(integer_model, serve_tokenizer, slo_ms=1e-6)
        strict.run_trace(trace)
        assert strict.stats().slo_attainment == 0.0
        loose = make_engine(integer_model, serve_tokenizer, slo_ms=1e9)
        loose.run_trace(trace)
        assert loose.stats().slo_attainment == 1.0

    def test_predictions_match_model_predict(
        self, integer_model, serve_tokenizer, serve_pool
    ):
        engine = make_engine(integer_model, serve_tokenizer)
        trace = generate_trace(serve_pool, num_requests=8, seed=6)
        results = engine.run_trace(trace)
        for result, item in zip(results, sorted(trace, key=lambda t: t.arrival_ms)):
            ids, mask, segments = serve_tokenizer.encode(
                item.text_a, item.text_b, max_length=max(BUCKETS)
            )
            assert result.prediction == int(
                integer_model.predict(ids[None], mask[None], segments[None])[0]
            )


class TestTraceGeneration:
    def test_deterministic(self, serve_pool):
        assert generate_trace(serve_pool, 10, seed=0) == generate_trace(
            serve_pool, 10, seed=0
        )

    def test_arrivals_increase(self, serve_pool):
        trace = generate_trace(serve_pool, 20, seed=1)
        arrivals = [t.arrival_ms for t in trace]
        assert arrivals == sorted(arrivals)

    def test_validation(self, serve_pool):
        with pytest.raises(ValueError):
            generate_trace(serve_pool, 0)
        with pytest.raises(ValueError):
            generate_trace([], 4)
