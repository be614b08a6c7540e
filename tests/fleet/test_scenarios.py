"""Scenario generator: determinism, rate shapes, tenant mixes."""

import numpy as np
import pytest

from repro.fleet import SCENARIO_NAMES, Scenario, TenantSpec, builtin_scenarios


class TestCatalog:
    def test_five_builtins(self):
        assert SCENARIO_NAMES == (
            "diurnal", "flash-crowd", "multi-tenant", "ramp", "steady",
        )

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_builtin_generates(self, name):
        trace = builtin_scenarios()[name].generate(seed=3, rate_scale=0.3)
        assert trace, f"{name} generated an empty trace at rate_scale=0.3"
        arrivals = [r.arrival_ms for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(r.slo_ms > 0 and r.text_a for r in trace)

    def test_same_seed_identical_trace(self):
        scenario = builtin_scenarios()["multi-tenant"]
        assert scenario.generate(seed=11) == scenario.generate(seed=11)

    def test_different_seeds_differ(self):
        scenario = builtin_scenarios()["steady"]
        assert scenario.generate(seed=1) != scenario.generate(seed=2)

    def test_scenarios_decorrelated_at_equal_seed(self):
        """Two scenarios with the same seed must not replay the same
        arrival sequence (the name is folded into the rng stream)."""
        steady = builtin_scenarios()["steady"].generate(seed=5)
        diurnal = builtin_scenarios()["diurnal"].generate(seed=5)
        assert [r.arrival_ms for r in steady[:10]] != [
            r.arrival_ms for r in diurnal[:10]
        ]


class TestRateShapes:
    def test_flash_crowd_bursts(self):
        scenario = builtin_scenarios()["flash-crowd"]
        trace = scenario.generate(seed=0)
        arrivals = np.array([r.arrival_ms for r in trace])
        window = scenario.flash_end_ms - scenario.flash_start_ms
        in_burst = (
            (arrivals >= scenario.flash_start_ms) & (arrivals < scenario.flash_end_ms)
        ).sum()
        out = len(arrivals) - in_burst
        burst_rate = in_burst / window
        base_rate = out / (scenario.duration_ms - window)
        assert burst_rate > 4 * base_rate

    def test_ramp_rate_increases(self):
        trace = builtin_scenarios()["ramp"].generate(seed=0)
        arrivals = np.array([r.arrival_ms for r in trace])
        duration = builtin_scenarios()["ramp"].duration_ms
        first_half = (arrivals < duration / 2).sum()
        second_half = (arrivals >= duration / 2).sum()
        assert second_half > 1.5 * first_half

    def test_diurnal_peaks_and_troughs(self):
        scenario = builtin_scenarios()["diurnal"]
        # rate curve itself: peak at period/4, trough at 3*period/4
        peak = scenario.rate_rps(scenario.diurnal_period_ms / 4)
        trough = scenario.rate_rps(3 * scenario.diurnal_period_ms / 4)
        assert peak == pytest.approx(
            scenario.base_rate_rps * (1 + scenario.diurnal_amplitude)
        )
        assert trough == pytest.approx(
            scenario.base_rate_rps * (1 - scenario.diurnal_amplitude)
        )

    def test_rate_scale_scales_volume(self):
        scenario = builtin_scenarios()["steady"]
        small = len(scenario.generate(seed=4, rate_scale=0.5))
        large = len(scenario.generate(seed=4, rate_scale=2.0))
        assert large > 2 * small

    def test_duration_scale_stretches_flash_window(self):
        scenario = builtin_scenarios()["flash-crowd"]
        trace = scenario.generate(seed=0, duration_scale=2.0)
        arrivals = np.array([r.arrival_ms for r in trace])
        assert arrivals.max() > scenario.duration_ms  # trace extends
        # burst window stretches with the duration: dense region near 2x
        in_burst = (
            (arrivals >= 2 * scenario.flash_start_ms)
            & (arrivals < 2 * scenario.flash_end_ms)
        ).sum()
        assert in_burst > len(arrivals) * 0.4


class TestTenants:
    def test_multi_tenant_shares_and_slos(self):
        scenario = builtin_scenarios()["multi-tenant"]
        trace = scenario.generate(seed=9)
        by_tenant = {}
        for r in trace:
            by_tenant.setdefault(r.tenant, []).append(r)
        assert set(by_tenant) == {"interactive", "standard", "batch"}
        assert len(by_tenant["interactive"]) > len(by_tenant["batch"])
        slos = {t: rs[0].slo_ms for t, rs in by_tenant.items()}
        assert slos["interactive"] < slos["standard"] < slos["batch"]

    def test_tenant_lengths_respect_spec(self):
        scenario = builtin_scenarios()["multi-tenant"]
        trace = scenario.generate(seed=9)
        for r in trace:
            spec = next(t for t in scenario.tenants if t.name == r.tenant)
            words = len(r.text_a.split())
            assert spec.min_words <= words <= spec.max_words

    def test_tenant_pools_are_finite(self):
        """Texts repeat (that is what the tokenization caches exploit)."""
        scenario = builtin_scenarios()["steady"]
        trace = scenario.generate(seed=2)
        distinct = {r.text_a for r in trace}
        assert len(distinct) <= scenario.tenants[0].pool_size


class TestValidation:
    def test_bad_profile_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="x", description="", duration_ms=10, base_rate_rps=1,
                     profile="sawtooth")

    def test_flash_window_must_fit(self):
        with pytest.raises(ValueError):
            Scenario(name="x", description="", duration_ms=10, base_rate_rps=1,
                     profile="flash", flash_start_ms=5, flash_end_ms=20,
                     flash_multiplier=2)

    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", share=0.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", min_words=5, max_words=3)
        # NaN compares false against 0, so it needs its own rejection:
        # single-tenant runs read the SLO as one uniform threshold.
        for slo in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="slo_ms"):
                TenantSpec(name="t", slo_ms=slo)

    def test_bad_scales_rejected(self):
        scenario = builtin_scenarios()["steady"]
        with pytest.raises(ValueError):
            scenario.generate(seed=0, rate_scale=0.0)
        with pytest.raises(ValueError):
            scenario.generate(seed=0, duration_scale=-1.0)


class TestMallocTuning:
    """The giant-trace allocator knob stays gated and best-effort."""

    def test_small_traces_never_tune(self, monkeypatch):
        from repro.fleet import scenarios as S

        monkeypatch.setattr(S, "_malloc_tuned", False)
        S._tune_malloc_for_giant_traces(S._GIANT_TRACE_CANDIDATES - 1)
        assert S._malloc_tuned is False

    def test_giant_trace_tunes_once_and_survives_missing_libc(self, monkeypatch):
        from repro.fleet import scenarios as S

        monkeypatch.setattr(S, "_malloc_tuned", False)
        # Simulate a platform without a loadable libc: must not raise.
        import ctypes

        def boom(*a, **k):
            raise OSError("no libc here")

        monkeypatch.setattr(ctypes, "CDLL", boom)
        S._tune_malloc_for_giant_traces(S._GIANT_TRACE_CANDIDATES)
        assert S._malloc_tuned is True
        # Second call is a no-op (one-way switch, no repeated work).
        S._tune_malloc_for_giant_traces(S._GIANT_TRACE_CANDIDATES)
        assert S._malloc_tuned is True


class TestRngStreamEquivalence:
    """Pins the numpy RNG identities the columnar generator's fast paths
    lean on.  ``generate_columns`` replaces three historical draws with
    cheaper calls that must consume the *identical* stream: if any of
    these stop holding on a numpy upgrade, traces silently change and
    every byte-exactness contract downstream breaks — so they are pinned
    here, not assumed."""

    def test_random_equals_uniform(self):
        """Generator.random(n) == Generator.uniform(size=n), bit for bit."""
        import numpy as np

        a = np.random.default_rng(5).random(10_000)
        b = np.random.default_rng(5).uniform(size=10_000)
        assert (a == b).all()

    def test_chunked_random_equals_one_shot(self):
        """Filling a scratch buffer chunk by chunk draws the same doubles
        (and leaves the stream at the same position) as one big call."""
        import numpy as np

        one_shot = np.random.default_rng(9).random(10_000)
        rng = np.random.default_rng(9)
        buf = np.empty(1024)
        chunks = []
        pos = 0
        while pos < 10_000:
            m = min(1024, 10_000 - pos)
            rng.random(out=buf[:m])
            chunks.append(buf[:m].copy())
            pos += m
        assert (np.concatenate(chunks) == one_shot).all()
        follow = np.random.default_rng(9)
        follow.random(10_000)
        assert rng.integers(1 << 62) == follow.integers(1 << 62)

    def test_single_outcome_choice_equals_random_burn(self):
        """choice(1, size=n, p=[1.0]) returns zeros and consumes exactly
        n doubles — so burning n doubles + zeros() is a pure fast path."""
        import numpy as np

        rng_choice = np.random.default_rng(13)
        picks = rng_choice.choice(1, size=500, p=[1.0])
        assert picks.dtype == np.int64
        assert not picks.any()
        rng_burn = np.random.default_rng(13)
        rng_burn.random(500)
        # both streams must now be at the same position
        assert rng_choice.integers(1 << 62) == rng_burn.integers(1 << 62)

    def test_single_tenant_trace_unchanged_by_fast_paths(self):
        """End to end: a single-tenant scenario's trace is identical to
        the naive draw order (choice + masked per-tenant scatter)."""
        import numpy as np

        scenario = builtin_scenarios()["flash-crowd"]
        assert len(scenario.tenants) == 1
        cols = scenario.generate_columns(seed=4, rate_scale=0.5)
        # replay the historical draw sequence by hand
        from repro.fleet.scenarios import _stable_hash

        rng = np.random.default_rng([4, _stable_hash(scenario.name)])
        peak_per_ms = scenario.peak_rate_rps() * 0.5 / 1000.0
        duration = scenario.duration_ms
        chunk = int(duration * peak_per_ms * 1.05) + 64
        blocks = [rng.exponential(1.0 / peak_per_ms, size=chunk)]
        total = float(blocks[0].sum())
        while total < duration:
            block = rng.exponential(1.0 / peak_per_ms, size=chunk)
            blocks.append(block)
            total += float(block.sum())
        times = np.cumsum(np.concatenate(blocks))
        times = times[: int(np.searchsorted(times, duration, side="left"))]
        uniforms = rng.uniform(size=times.shape[0])
        rates = scenario.rate_rps_array(times) * (0.5 / 1000.0)
        arrival = times[uniforms * peak_per_ms <= rates]
        count = arrival.shape[0]
        tenant_idx = rng.choice(1, size=count, p=[1.0])
        draw = np.zeros(count, dtype=np.int64)
        mine = tenant_idx == 0
        draw[mine] = rng.integers(scenario.tenants[0].pool_size, size=int(mine.sum()))
        assert (cols.arrival_ms == arrival).all()
        assert (cols.tenant_idx == tenant_idx).all()
        assert (cols.draw == draw).all()
