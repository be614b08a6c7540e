"""The four benchmark workloads: inputs, one timed iteration, checks.

Each workload is a small class with the same surface:

- ``setup()`` builds the frozen model and fills the memoized price tables
  and weight plans that a first iteration would otherwise fill (and, for
  the columnar workloads, builds the C kernel);
- ``iterate()`` is one timed iteration: it calls the program's public
  entry point on inputs derived from the seed and returns the raw result;
- ``requests`` is the number of requests one iteration processes;
- ``hot_code`` is the kind of work most of an iteration's wall goes to,
  ``"numpy"`` or ``"interpreter"``: it picks the calibration kernel that
  ``run.py`` scales the walls by;
- ``digests(raw)`` hashes every output the iteration produced;
- ``cross_check(raw)`` compares the outputs with an independent path of
  the program (the seed reference kernels, the sibling engine, or the
  pure-Python sweep) and returns the mismatches by name;
- ``facts(raw)`` reads the simulated work counts from the report;
- ``guards(facts, paths)`` names every way the workload went vacuous
  (``paths`` holds the sweep path of every columnar window).

Program functions are looked up on their modules at call time (never
bound at import), so the traced run's patches in :mod:`layers` see every
call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List

import numpy as np

import repro.fleet as fleet
import repro.fleet.columnar as columnar
import repro.fleet.runner as runner
import repro.serve as serve
from repro.accel.config import AcceleratorConfig
from repro.bert.config import BertConfig
from repro.fleet import _native
from repro.obs import FleetObserver
from repro.perf.bench import cluster_model_config
from repro.perf.reference import reference_encode
from repro.perf.workloads import HashTokenizer, build_synthetic_integer_model
from repro.serve.router import service_table

MODEL_SEED = 0  # the model is the program under test; inputs vary by seed


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def warm_price_tables(model_config, specs, serving) -> None:
    """Fill the simulator memo every batch price of these design points uses."""
    for spec in {(s.accel_config, s.device) for s in specs}:
        service_table(model_config, spec[0], spec[1], serving.buckets, serving.max_batch_size)


def sweep_path(engine) -> Dict:
    """Which arrival sweep a columnar engine runs, and why.

    Mirrors the dispatch in ``ColumnarFleetEngine._run_arrivals``: the
    resilient admission path, the autoscaler's history bookkeeping, an
    attached observer and gray windows each keep the sweep in Python.
    """
    if not _native.available():
        return {"path": "python", "reasons": ["no C compiler (or REPRO_COLUMNAR_NATIVE=0)"]}
    reasons = [
        reason
        for reason, forced in (
            ("observer", engine.obs is not None),
            ("autoscaler", engine.track_hist),
            ("gray window", engine.prep.has_grays),
            ("resilience", engine.resilient),
        )
        if forced
    ]
    return {"path": "python" if reasons else "native", "reasons": reasons}


class ServeExecuted:
    """``ServingEngine.run_trace`` with real integer forwards."""

    name = "serve-executed"
    engine = "serving engine"
    hot_code = "numpy"  # the integer kernels: BLAS GEMM and numpy element-wise ops

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.requests = 24 if toy else 400
        self.config = BertConfig(
            vocab_size=512,
            hidden_size=192,
            num_hidden_layers=4,
            num_attention_heads=12,
            intermediate_size=768,
            max_position_embeddings=128,
            num_labels=2,
        )
        self.serving = serve.ServingConfig(
            max_batch_size=8,
            max_wait_ms=8.0,
            buckets=(16, 32, 64),
            num_devices=2,
            cache_capacity=256,
            slo_ms=400.0,
        )
        self.reference_stride = 8

    def sizes(self) -> Dict:
        return {
            "requests": self.requests,
            "distinct_texts": self.requests - self.requests // 10,
            "model": "hidden 192, 4 layers, 12 heads",
            "devices": self.serving.num_devices,
            "buckets": list(self.serving.buckets),
            "max_batch": self.serving.max_batch_size,
        }

    def make_trace(self) -> List:
        """A Poisson trace whose token total does not depend on the seed.

        The distinct texts' lengths are fixed quantiles of a clipped
        exponential (2..60 words, mostly short, long enough to reach every
        bucket); the seed picks the words, the order and the arrival gaps.
        One request in ten repeats an earlier text, so the tokenization
        cache and the batch dedup see hits.
        """
        rng = np.random.default_rng([self.seed, 1])
        n = self.requests
        distinct = n - n // 10
        quantiles = (np.arange(distinct) + 0.5) / distinct
        lengths = np.minimum(60, 2 + np.floor(-10.0 * np.log1p(-quantiles))).astype(int)
        texts = [
            " ".join(f"w{w}" for w in rng.integers(0, 5000, size=length))
            for length in rng.permutation(lengths)
        ]
        texts += [texts[i] for i in rng.integers(0, distinct, size=n - distinct)]
        arrivals = np.cumsum(rng.exponential(2.0, size=n))
        return [
            serve.TraceRequest(text_a=texts[i], text_b=None, arrival_ms=float(at))
            for i, at in zip(rng.permutation(n), arrivals)
        ]

    def setup(self) -> None:
        self.model = build_synthetic_integer_model(self.config, seed=MODEL_SEED)
        self.tokenizer = HashTokenizer(vocab_size=self.config.vocab_size)
        self.trace = self.make_trace()
        warm_price_tables(self.config, [fleet.ReplicaSpec()], self.serving)
        for bucket in self.serving.buckets:  # weight plans + per-shape numpy paths
            ids = np.ones((2, bucket), dtype=np.int64)
            self.model.classify_rows(self.model.encode(ids, np.ones_like(ids)))

    def iterate(self):
        engine = serve.ServingEngine(self.model, self.tokenizer, self.serving)
        results = engine.run_trace(self.trace)
        return results, engine.stats()

    def digests(self, raw) -> Dict[str, str]:
        results, stats = raw
        return {
            "report": sha256(json.dumps(dataclasses.asdict(stats), sort_keys=True)),
            "logits": sha256(np.stack([r.logits for r in results]).tobytes()),
            "predictions": sha256(np.array([r.prediction for r in results]).tobytes()),
        }

    def cross_check(self, raw) -> List[str]:
        """Served logit rows equal ``reference_forward`` on that row alone.

        Every ``reference_stride``-th request is checked (all of them when
        pinning): the seed kernels are slow native int64 loops.  The seed
        encoder runs once per bucket over the checked rows: it is exact
        int64 arithmetic, so its rows do not depend on the batch, and the
        float head then runs on one row at a time as in a batch of one.
        """
        results, _ = raw
        trace = sorted(self.trace, key=lambda t: t.arrival_ms)  # request id order
        rows: Dict[int, list] = {}
        stride = self.reference_stride
        for request, result in list(zip(trace, results))[::stride]:
            b = result.bucket
            ids, mask, types = self.tokenizer.encode(
                request.text_a, request.text_b, max_length=self.serving.max_seq_len
            )
            rows.setdefault(b, []).append((result, ids[:b], mask[:b], types[:b]))
        for group in rows.values():
            for start in range(0, len(group), 8):  # bounded memory: int64 attention
                chunk = group[start : start + 8]
                codes = reference_encode(
                    self.model, *(np.stack([row[i] for row in chunk]) for i in (1, 2, 3))
                )
                for i, (result, *_) in enumerate(chunk):
                    if not np.array_equal(self.model.classify(codes[i : i + 1])[0], result.logits):
                        return [
                            f"serve-executed: logits of request {result.request_id} "
                            "differ from reference_forward"
                        ]
        return []

    def facts(self, raw) -> Dict:
        results, stats = raw
        return {
            "submitted": len(results),
            "buckets": sorted({r.bucket for r in results}),
            "max_batch": max(r.batch_size for r in results),
            "cache_hit_rate": stats.cache_hit_rate,
            "padding_efficiency": stats.padding_efficiency,
            "mean_batch_size": stats.mean_batch_size,
        }

    def guards(self, facts, paths) -> List[str]:
        failures = []
        if facts["buckets"] != list(self.serving.buckets):
            failures.append(f"serve-executed.buckets: hit only {facts['buckets']}")
        if facts["max_batch"] <= 1:
            failures.append("serve-executed.batching: no batch had more than one row")
        return failures


class _FleetWorkload:
    """Shared set-up of the simulated-fleet workloads (frozen small model)."""

    def setup(self) -> None:
        self.model_config = cluster_model_config()
        self.model = build_synthetic_integer_model(self.model_config, seed=MODEL_SEED)
        self.tokenizer = HashTokenizer(vocab_size=self.model_config.vocab_size)
        self.serving = self.fleet_config.serving
        warm_price_tables(self.model_config, self.price_specs, self.serving)
        if self.uses_columnar:
            _native.available()  # builds the C kernel once per process

    def report_facts(self, report) -> Dict:
        stats = report.stats
        chaos = stats.chaos
        return {
            "submitted": stats.submitted,
            "shed": stats.shed,
            "shed_share": stats.shed / stats.submitted if stats.submitted else 0.0,
            "retries": chaos.retries if chaos else 0,
            "timeouts": chaos.timeouts if chaos else 0,
            "breaker_opens": chaos.breaker_opens if chaos else 0,
            "scale_events": len(stats.scale_events),
        }


class FlashNative(_FleetWorkload):
    """``run_scenario_columnar`` on flash-crowd, 8 replicas, C kernel."""

    name = "flash-native"
    engine = "columnar"
    hot_code = "numpy"  # trace generation, merge and stats; the sweep is the C kernel
    uses_columnar = True

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.rate_scale = 640.0
        self.duration_scale = 0.665 if toy else 66.5
        self.replicas = 8
        self.shards = 4
        self.fleet_config = fleet.FleetConfig(
            serving=serve.ServingConfig(
                max_batch_size=8,
                max_wait_ms=5.0,
                buckets=(16, 32, 64),
                num_devices=1,
                cache_capacity=512,
            )
        )
        self.specs = [fleet.ReplicaSpec()] * self.replicas
        self.price_specs = self.specs
        # Arrivals are Poisson, so the count varies with the seed; it is
        # fixed from the first iteration's report.
        self.requests = None

    def sizes(self) -> Dict:
        return {
            "scenario": "flash-crowd",
            "rate_scale": self.rate_scale,
            "duration_scale": self.duration_scale,
            "replicas": self.replicas,
            "shards": self.shards,
            "requests": self.requests,
        }

    def run(self, native=None, duration_scale=None):
        return columnar.run_scenario_columnar(
            "flash-crowd",
            self.model,
            self.tokenizer,
            self.specs,
            self.fleet_config,
            seed=self.seed,
            rate_scale=self.rate_scale,
            duration_scale=duration_scale or self.duration_scale,
            shards=self.shards,
            native=native,
        )

    def iterate(self):
        return self.run()

    def digests(self, raw) -> Dict[str, str]:
        return {"report": sha256(raw.to_json())}

    def cross_check(self, raw) -> List[str]:
        """The C kernel agrees with the pure-Python sweep on a 1% trace."""
        small = self.duration_scale / 100.0
        if self.run(native=True, duration_scale=small).to_json() != self.run(
            native=False, duration_scale=small
        ).to_json():
            return ["flash-native: C kernel and Python sweep reports differ on the 1% trace"]
        return []

    def facts(self, raw) -> Dict:
        return self.report_facts(raw)

    def guards(self, facts, paths) -> List[str]:
        failures = []
        if facts["shed"] == 0:
            failures.append("flash-native.shed: no request was shed")
        if not paths or any(p["path"] != "native" for p in paths):
            failures.append(
                "flash-native.native: a window ran the Python sweep "
                f"({sorted({r for p in paths for r in p['reasons']})})"
            )
        return failures


class Drill(_FleetWorkload):
    """The chaos drill on multi-tenant with an observer, on one engine."""

    def __init__(self, seed: int, kind: str, toy: bool = False):
        self.seed = seed
        self.kind = kind  # "columnar" or "eventloop"
        self.name = f"drill-{kind}"
        self.uses_columnar = kind == "columnar"
        self.engine = "columnar" if self.uses_columnar else "event loop"
        self.hot_code = "interpreter"  # the per-arrival Python sweep or the event loop
        self.rate_scale = 3.0
        self.duration_scale = 6.0 if toy else 60.0
        horizon = 240.0 * self.duration_scale  # multi-tenant lasts 240 ms
        # Three outage cycles, each over 1/15 of the horizon, so the
        # autoscaler's and breaker's seed-dependent reactions average out.
        outages = [(horizon * (3 * k + 1) / 10, horizon * (3 * k + 1) / 10 + horizon / 15) for k in range(3)]
        self.weak = fleet.ReplicaSpec(
            accel_config=AcceleratorConfig(num_pus=2, num_pes=2, num_multipliers=4),
            name="weak",
        )
        self.fleet_config = fleet.FleetConfig(
            serving=serve.ServingConfig(
                max_batch_size=8,
                max_wait_ms=5.0,
                buckets=(16, 32, 64),
                num_devices=1,
                cache_capacity=512,
            ),
            admit_slo_factor=1.0,
        )
        self.plan = fleet.ChaosPlan(
            name="drill-zone-outage",
            zones=(("zone-a", (0, 1)),),
            outages=tuple(
                fleet.ZoneOutage(zone="zone-a", at_ms=start, recover_ms=end) for start, end in outages
            ),
            grays=tuple(
                fleet.GrayWindow(replica_id=2, start_ms=start, end_ms=end, slowdown=4.0)
                for start, end in outages
            ),
        )
        self.policy = fleet.ResiliencePolicy(
            max_retries=2,
            backoff_base_ms=3.0,
            retry_budget_ratio=1.0,
            retry_budget_burst=20.0,
            breaker=True,
            breaker_straggle_factor=2.0,
            breaker_window=6,
            breaker_min_samples=3,
            breaker_open_ms=30.0,
            timeout_ms=25.0,
        )
        self.autoscale = fleet.AutoscalePolicy(
            min_replicas=1, max_replicas=6, interval_ms=50.0, cooldown_ticks=1
        )
        self.price_specs = [self.weak]
        self.requests = None

    def sizes(self) -> Dict:
        return {
            "scenario": "multi-tenant",
            "rate_scale": self.rate_scale,
            "duration_scale": self.duration_scale,
            "replicas": 3,
            "zone_outages_ms": [[o.at_ms, o.recover_ms] for o in self.plan.outages],
            "requests": self.requests,
        }

    def run(self, kind: str):
        obs = FleetObserver()
        kwargs = dict(
            seed=self.seed,
            rate_scale=self.rate_scale,
            duration_scale=self.duration_scale,
            scale_spec=self.weak,
            autoscale=self.autoscale,
            chaos=self.plan,
            resilience=self.policy,
            obs=obs,
        )
        args = ("multi-tenant", self.model, self.tokenizer, [self.weak] * 3, self.fleet_config)
        if kind == "columnar":
            report = columnar.run_scenario_columnar(*args, **kwargs)
        else:
            report = runner.run_scenario(*args, analytic=True, **kwargs)
        streams = (obs.render_prometheus(), obs.window_lines(), obs.trace_json())
        return report, obs, streams

    def iterate(self):
        return self.run(self.kind)

    def digests(self, raw) -> Dict[str, str]:
        report, _, (prometheus, windows, trace) = raw
        return {
            "report": sha256(report.to_json()),
            "prometheus": sha256(prometheus),
            "windows": sha256("".join(line + "\n" for line in windows)),
            "trace": sha256(trace),
        }

    def cross_check(self, raw) -> List[str]:
        """The sibling engine produces the same report and obs streams."""
        sibling = "eventloop" if self.uses_columnar else "columnar"
        ours, theirs = self.digests(raw), self.digests(self.run(sibling))
        return [
            f"{self.name}: {name} differs from the {sibling} engine's"
            for name in sorted(ours)
            if ours[name] != theirs[name]
        ]

    def facts(self, raw) -> Dict:
        report, obs, streams = raw
        facts = self.report_facts(report)
        facts["alert_transitions"] = len(obs.alerts.transitions)
        facts["stream_bytes"] = sum(
            len(s.encode("utf-8")) for s in (streams[0], streams[2])
        ) + sum(len(line.encode("utf-8")) + 1 for line in streams[1])
        return facts

    def guards(self, facts, paths) -> List[str]:
        return [
            f"{self.name}.{key}: none in the run"
            for key in ("retries", "timeouts", "breaker_opens", "shed", "scale_events", "alert_transitions")
            if facts[key] == 0
        ]


WORKLOADS = ("serve-executed", "flash-native", "drill-columnar", "drill-eventloop")


def make(name: str, seed: int, toy: bool = False):
    if name == "serve-executed":
        return ServeExecuted(seed, toy)
    if name == "flash-native":
        return FlashNative(seed, toy)
    if name in ("drill-columnar", "drill-eventloop"):
        return Drill(seed, name.split("-", 1)[1], toy)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
