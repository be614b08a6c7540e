"""Bit-exactness of the optimized kernels against the seed reference.

The vectorization pass (float32/float64-BLAS exact GEMM, cached weight plans,
pre-widened LN parameters, shared LUTs) must be invisible in the outputs:
every kernel is compared code-for-code against the seed implementations
preserved in ``repro.perf.reference``, on random inputs and on adversarial
max-magnitude inputs that stress the exactness bounds.
"""

import numpy as np
import pytest

from repro.bert.config import BertConfig
from repro.perf import (
    build_synthetic_integer_model,
    reference_attention_forward,
    reference_encode,
    reference_forward,
    reference_layer_forward,
    reference_layernorm_forward,
    reference_linear_forward,
)
from repro.quant.fixedpoint import FixedPointMultiplier, VectorFixedPointMultiplier
from repro.quant.integer_model import IntegerLinear
from repro.quant import intgemm
from repro.quant.intgemm import (
    EXACT_F32_LIMIT,
    EXACT_F64_LIMIT,
    CachedMatmul,
    exact_matmul,
    max_abs,
)

SMALL_CONFIG = BertConfig(
    vocab_size=64,
    hidden_size=32,
    num_hidden_layers=2,
    num_attention_heads=4,
    intermediate_size=64,
    max_position_embeddings=32,
    num_labels=2,
)


@pytest.fixture(scope="module")
def model():
    return build_synthetic_integer_model(SMALL_CONFIG, seed=3)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(11)


def _activation_codes(rng, shape, regime):
    """Input generators: random 8-bit codes or adversarial extremes."""
    if regime == "random":
        return rng.integers(-128, 128, size=shape).astype(np.int64)
    if regime == "max_magnitude":
        # Alternate the two saturation rails so accumulators see the
        # worst-case mix of +127 and -128 products.
        flat = np.arange(int(np.prod(shape)))
        return np.where(flat % 2 == 0, 127, -128).reshape(shape).astype(np.int64)
    if regime == "all_negative_rail":
        return np.full(shape, -128, dtype=np.int64)
    raise ValueError(regime)


REGIMES = ["random", "max_magnitude", "all_negative_rail"]


class TestLinearEquivalence:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("shape", [(4, 32), (2, 8, 32), (8, 1, 32)])
    def test_matches_reference(self, model, rng, regime, shape):
        linear = model.layers[0].ffn1
        x = _activation_codes(rng, shape, regime)
        np.testing.assert_array_equal(
            linear.forward(x), reference_linear_forward(linear, x)
        )

    @pytest.mark.parametrize("regime", REGIMES)
    def test_per_channel_requant(self, rng, regime):
        """The vector-requant variant goes through the same exact GEMM."""
        out_dim, in_dim = 6, 16
        linear = IntegerLinear(
            weight_codes=rng.integers(-7, 8, size=(out_dim, in_dim)).astype(np.int64),
            bias_codes=rng.integers(-500, 501, size=out_dim).astype(np.int64),
            requant=VectorFixedPointMultiplier.from_floats(
                rng.uniform(0.001, 0.01, size=out_dim)
            ),
            in_scale=20.0,
            weight_scale=7.0,
            out_scale=20.0,
        )
        x = _activation_codes(rng, (5, in_dim), regime)
        np.testing.assert_array_equal(
            linear.forward(x), reference_linear_forward(linear, x)
        )

    def test_no_bias(self, rng):
        linear = IntegerLinear(
            weight_codes=rng.integers(-7, 8, size=(4, 8)).astype(np.int64),
            bias_codes=None,
            requant=FixedPointMultiplier.from_float(0.004),
            in_scale=20.0,
            weight_scale=7.0,
            out_scale=20.0,
        )
        x = _activation_codes(rng, (3, 8), "max_magnitude")
        np.testing.assert_array_equal(
            linear.forward(x), reference_linear_forward(linear, x)
        )

    def test_invalidate_cache_tracks_weight_edits(self, rng):
        linear = IntegerLinear(
            weight_codes=rng.integers(-7, 8, size=(4, 8)).astype(np.int64),
            bias_codes=None,
            requant=FixedPointMultiplier.from_float(0.004),
            in_scale=20.0,
            weight_scale=7.0,
            out_scale=20.0,
        )
        x = rng.integers(-128, 128, size=(3, 8)).astype(np.int64)
        linear.forward(x)  # builds the plan
        linear.weight_codes[0, 0] = 7 if linear.weight_codes[0, 0] != 7 else -7
        linear.invalidate_cache()
        np.testing.assert_array_equal(
            linear.forward(x), reference_linear_forward(linear, x)
        )


class TestLayerNormEquivalence:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("shape", [(4, 32), (2, 3, 32)])
    def test_matches_reference(self, model, rng, regime, shape):
        ln = model.layers[0].attention_layernorm
        a = _activation_codes(rng, shape, regime)
        b = _activation_codes(rng, shape, "random" if regime != "random" else regime)
        np.testing.assert_array_equal(
            ln.forward(a, b), reference_layernorm_forward(ln, a, b)
        )

    def test_invalidate_cache_tracks_param_edits(self, model, rng):
        ln = model.layers[1].output_layernorm
        a = _activation_codes(rng, (2, 32), "random")
        b = _activation_codes(rng, (2, 32), "random")
        ln.forward(a, b)  # builds the caches
        original = ln.gamma_codes[0]
        try:
            ln.gamma_codes[0] = original + 1
            ln.invalidate_cache()
            np.testing.assert_array_equal(
                ln.forward(a, b), reference_layernorm_forward(ln, a, b)
            )
        finally:
            ln.gamma_codes[0] = original
            ln.invalidate_cache()


class TestAttentionEquivalence:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_reference(self, model, rng, regime, masked):
        attn = model.layers[0].attention
        x = _activation_codes(rng, (3, 8, 32), regime)
        mask = None
        if masked:
            lengths = np.array([8, 5, 1])
            mask = (np.arange(8)[None, :] < lengths[:, None]).astype(np.int64)
        np.testing.assert_array_equal(
            attn.forward(x, mask), reference_attention_forward(attn, x, mask)
        )


class TestModelEquivalence:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_layer_forward(self, model, rng, regime):
        layer = model.layers[1]
        x = _activation_codes(rng, (2, 6, 32), regime)
        np.testing.assert_array_equal(
            layer.forward(x, None), reference_layer_forward(layer, x, None)
        )

    def test_encode_and_forward(self, model, rng):
        ids = rng.integers(0, SMALL_CONFIG.vocab_size, size=(8, 16))
        lengths = rng.integers(4, 17, size=8)
        mask = (np.arange(16)[None, :] < lengths[:, None]).astype(np.int64)
        np.testing.assert_array_equal(
            model.encode(ids, mask), reference_encode(model, ids, mask)
        )
        np.testing.assert_array_equal(
            model.forward(ids, mask), reference_forward(model, ids, mask)
        )

    def test_chunked_forward_bit_identical(self, model, rng):
        ids = rng.integers(0, SMALL_CONFIG.vocab_size, size=(7, 16))
        np.testing.assert_array_equal(
            model.forward(ids, chunk_size=3), model.forward(ids)
        )

    def test_classify_rows_matches_per_row_classify(self, model, rng):
        ids = rng.integers(0, SMALL_CONFIG.vocab_size, size=(5, 16))
        codes = model.encode(ids)
        per_row = np.concatenate(
            [model.classify(codes[i : i + 1]) for i in range(codes.shape[0])]
        )
        np.testing.assert_array_equal(model.classify_rows(codes), per_row)


class TestExactGemm:
    def test_matches_int64_matmul(self, rng):
        a = rng.integers(-128, 128, size=(5, 16)).astype(np.int64)
        b = rng.integers(-7, 8, size=(16, 9)).astype(np.int64)
        out = exact_matmul(a, b)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, a @ b)

    def test_batched_operands(self, rng):
        a = rng.integers(-128, 128, size=(2, 3, 4, 16)).astype(np.int64)
        b = rng.integers(-128, 128, size=(2, 3, 16, 5)).astype(np.int64)
        np.testing.assert_array_equal(exact_matmul(a, b), a @ b)

    def test_falls_back_beyond_f64_limit(self):
        """Magnitudes that float64 cannot certify use the int64 path."""
        a = np.full((1, 1), 2 ** 31, dtype=np.int64)
        b = np.full((1, 1), 2 ** 31, dtype=np.int64)
        assert max_abs(a) * max_abs(b) * 1 >= EXACT_F64_LIMIT
        np.testing.assert_array_equal(exact_matmul(a, b), a @ b)

    def test_cached_matmul_matches_and_freezes_operand(self, rng):
        """Both float plans are frozen; the float64 one is built on first need."""
        b = rng.integers(-7, 8, size=(16, 9)).astype(np.int64)
        plan = CachedMatmul(b)
        a = rng.integers(-128, 128, size=(4, 16)).astype(np.int64)
        np.testing.assert_array_equal(plan(a), a @ b)
        assert plan._b_f64 is None  # the float32 tier never builds it
        with pytest.raises(ValueError):
            plan.b_f32[0, 0] = 1.0
        # Past the float32 limit the float64 plan is built, then reused.
        wide = np.full((4, 16), 2 ** 20, dtype=np.int64)
        np.testing.assert_array_equal(plan(wide), wide @ b)
        built = plan._b_f64
        assert built is not None and plan.b_f64 is built
        with pytest.raises(ValueError):
            plan.b_f64[0, 0] = 1.0

    def test_cached_matmul_fallback(self):
        plan = CachedMatmul(np.full((1, 1), 2 ** 31, dtype=np.int64))
        a = np.full((1, 1), 2 ** 31, dtype=np.int64)
        np.testing.assert_array_equal(plan(a), np.array([[2 ** 62]], dtype=np.int64))

    def test_cached_matmul_fallback_uses_exact_integer_operand(self):
        """The fallback must not round-trip b through the lossy f64 copy."""
        b = np.array([[2 ** 60 + 1]], dtype=np.int64)  # not f64-representable
        plan = CachedMatmul(b)
        out = plan(np.array([[1]], dtype=np.int64))
        np.testing.assert_array_equal(out, np.array([[2 ** 60 + 1]], dtype=np.int64))

    def test_int64_min_does_not_defeat_the_guard(self):
        """np.abs(INT64_MIN) overflows; the guard must still force int64."""
        int64_min = np.iinfo(np.int64).min
        a = np.array([[int64_min, 1]], dtype=np.int64)
        b = np.array([[1], [1]], dtype=np.int64)
        assert max_abs(a) == 2 ** 63
        np.testing.assert_array_equal(exact_matmul(a, b), a @ b)

    class _TierProbe(np.ndarray):
        """Records the dtype each ``@`` it takes part in runs in."""

        tiers = []

        def __matmul__(self, other):
            type(self).tiers.append(np.result_type(self, other))
            return np.matmul(np.asarray(self), np.asarray(other))

    @pytest.mark.parametrize(
        "a_value, b_value, tier",
        [
            (4095, 4097, np.float32),  # bound 2**24 - 1
            (4096, 4096, np.float64),  # bound 2**24
            (6361 * 69431, 20394401, np.float64),  # bound 2**53 - 1
            (2 ** 26, 2 ** 27, np.int64),  # bound 2**53
        ],
    )
    def test_tier_boundaries(self, a_value, b_value, tier):
        """Each limit is exclusive: a bound equal to it takes the next tier."""
        a = np.array([[a_value]], dtype=np.int64)
        b = np.array([[b_value]], dtype=np.int64)
        bound = intgemm.product_bound(a_value, b_value, 1)
        assert bound in (EXACT_F32_LIMIT - 1, EXACT_F32_LIMIT, EXACT_F64_LIMIT - 1, EXACT_F64_LIMIT)
        probe = a.view(self._TierProbe)
        for product in (lambda: exact_matmul(probe, b), lambda: CachedMatmul(b)(probe)):
            self._TierProbe.tiers.clear()
            out = product()
            assert out.dtype == np.int64
            assert int(out[0, 0]) == bound
            assert self._TierProbe.tiers == [np.dtype(tier)]

    def test_float32_tier_adversarial_rails(self):
        """All-±127 x ±7 operands at the largest K the float32 guard admits."""
        k = (EXACT_F32_LIMIT - 1) // (127 * 7)
        assert intgemm.product_bound(127, 7, k) < EXACT_F32_LIMIT
        assert intgemm.product_bound(127, 7, k + 1) >= EXACT_F32_LIMIT
        flat = np.arange(3 * k)
        a = np.where(flat % 3 == 0, -127, 127).reshape(3, k).astype(np.int64)
        a[0] = 127  # one row of pure +rails: the accumulator hits the bound
        b = np.where(np.arange(k * 4) % 5 == 0, -7, 7).reshape(k, 4).astype(np.int64)
        b[:, 0] = 7
        expected = a @ b
        assert expected[0, 0] == 127 * 7 * k
        np.testing.assert_array_equal(exact_matmul(a, b), expected)
        np.testing.assert_array_equal(CachedMatmul(b)(a), expected)
        # One more term crosses the float32 limit, and the float64 tier
        # still returns the exact product.
        a1 = np.full((1, k + 1), 127, dtype=np.int64)
        b1 = np.full((k + 1, 1), 7, dtype=np.int64)
        np.testing.assert_array_equal(exact_matmul(a1, b1), a1 @ b1)

    def test_float32_tier_batched_operands(self, rng):
        """4-D attention-shaped products (scores and context) on the float32 tier."""
        q = rng.integers(-128, 128, size=(3, 12, 64, 16)).astype(np.int64)
        k = rng.integers(-128, 128, size=(3, 12, 16, 64)).astype(np.int64)
        assert intgemm.product_bound(128, 128, 16) < EXACT_F32_LIMIT
        np.testing.assert_array_equal(exact_matmul(q, k), q @ k)
        probs = rng.integers(0, 256, size=(3, 12, 64, 64)).astype(np.int64)
        v = np.full((3, 12, 64, 16), -128, dtype=np.int64)
        assert intgemm.product_bound(255, 128, 64) < EXACT_F32_LIMIT
        np.testing.assert_array_equal(exact_matmul(probs, v), probs @ v)

    def test_int64_min_forces_int64_in_cached_plan(self):
        int64_min = np.iinfo(np.int64).min
        plan = CachedMatmul(np.array([[1], [1]], dtype=np.int64))
        a = np.array([[int64_min, 1]], dtype=np.int64)
        np.testing.assert_array_equal(plan(a), a @ plan.b_i64)
        assert plan._b_f64 is None  # int64 fallback never builds the f64 plan

    def test_empty_operands(self):
        a = np.zeros((0, 4), dtype=np.int64)
        b = np.zeros((4, 3), dtype=np.int64)
        assert exact_matmul(a, b).shape == (0, 3)
        assert max_abs(a) == 0
