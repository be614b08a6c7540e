"""Integer-only inference engine for FQ-BERT.

This is the deployable form of the model: after QAT, every scale is frozen
and folded into fixed-point requantization multipliers (Eq. 5), weights are
stored as 4-bit codes, biases as int32 (Eq. 4), and the whole encoder runs
in integer arithmetic — the same arithmetic the FPGA accelerator executes.
The embedding block and the task layer run "on the host CPU" in float,
matching the paper's deployment split (Sec. III-A).

The conversion consumes a trained
:class:`repro.quant.qbert.QuantBertForSequenceClassification` and the engine
is validated against it: predictions must agree because the fake-quant
forward was designed to follow this exact datapath.

The engine is the serving hot path, so its kernels are fully batched and
tuned without changing a single output bit:

- every matmul runs through :mod:`repro.quant.intgemm`, which certifies a
  magnitude bound and executes on the float32 BLAS path (exact on small
  integers: every product here stays below 2^24) instead of numpy's slow
  native int64 loop;
- weight operands are transposed and cast **once per model** at conversion
  (:class:`~repro.quant.intgemm.CachedMatmul`), not per forward call;
- the softmax-exp and GELU lookup tables are built once per distinct scale
  and shared across layers;
- layer-norm parameter codes are pre-widened once instead of per call.

``tests/perf/test_reference_equivalence.py`` locks every kernel to the seed
implementation (kept in :mod:`repro.perf.reference`) bit-for-bit.

The inference surface is split for serving: :meth:`encode` runs the batched
integer encoder, :meth:`classify` / :meth:`classify_rows` run the float
host head, and :meth:`forward` composes them (optionally chunking the
encoder pass — the integer arithmetic makes any chunking bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autograd import no_grad
from ..autograd import functional as F
from ..autograd.tensor import Tensor
from ..bert.config import BertConfig
from .fixedpoint import (
    FixedPointMultiplier,
    LN_PARAM_FORMAT,
    VectorFixedPointMultiplier,
    integer_isqrt,
    saturate,
)
from .intgemm import CachedMatmul, exact_matmul
from .qat import QuantConfig
from .qbert import QuantBertForSequenceClassification
from .quantizer import int_range
from .softmax_lut import OUTPUT_LEVELS, build_exp_lut, quantized_softmax

ACT_BITS = 8
LN_FRAC_BITS = 15


@dataclass
class IntegerLinear:
    """A linear layer frozen to integer parameters.

    ``forward`` computes Eq. 5 exactly:
    ``y_I = clamp(requant(acc), -127, 127)`` with
    ``acc = x_I @ W_I^T + b_I`` in int32/int64 arithmetic.

    ``weight_codes`` is treated as frozen after the first forward call: the
    transposed operand is cached (:class:`~repro.quant.intgemm.CachedMatmul`)
    so the per-call transpose copy and dtype cast of the seed implementation
    happen once per model instead of once per batch.
    """

    weight_codes: np.ndarray          # (out, in) integer weight codes
    bias_codes: Optional[np.ndarray]  # (out,) int32-range codes at s_a * s_w
    requant: FixedPointMultiplier     # s_y / (s_a * s_w)
    in_scale: float
    weight_scale: float
    out_scale: float
    out_bits: int = ACT_BITS

    @cached_property
    def _matmul(self) -> CachedMatmul:
        """The frozen ``x @ W^T`` plan (built lazily, reused every call)."""
        return CachedMatmul(np.asarray(self.weight_codes, dtype=np.int64).T)

    def invalidate_cache(self) -> None:
        """Drop the cached matmul plan after an in-place ``weight_codes`` edit.

        Only needed by callers that deliberately mutate frozen parameters
        (e.g. failure injection); normal inference never requires it.
        """
        self.__dict__.pop("_matmul", None)

    def forward(self, x_codes: np.ndarray) -> np.ndarray:
        """Apply the layer to activation codes.

        Args:
            x_codes: Integer activation codes, shape ``(..., in_features)``.

        Returns:
            Output codes saturated to ``out_bits``, bit-identical to the
            seed int64 implementation.
        """
        acc = self._matmul(x_codes)
        if self.bias_codes is not None:
            acc = acc + self.bias_codes
        return saturate(self.requant.apply(acc), self.out_bits)

    @property
    def weight_bits(self) -> int:
        max_code = int(np.abs(self.weight_codes).max()) if self.weight_codes.size else 0
        return max(2, max_code.bit_length() + 1)


@dataclass
class IntegerLayerNorm:
    """Fixed-point Add&LN, the arithmetic of the accelerator's LN core.

    Stage 1 aligns the two inputs (each with its own scale — exactly the
    "two input vectors with two scaling factors" of Sec. III-B) onto a
    common Q.15 grid and computes the mean; stage 2 subtracts the mean and
    computes the variance; stage 3 applies the 8-bit fixed-point gamma/beta
    and requantizes to the 8-bit output buffer.
    """

    gamma_codes: np.ndarray  # Q3.4 codes
    beta_codes: np.ndarray   # Q3.4 codes
    align_a: FixedPointMultiplier  # codes_a -> Q.15
    align_b: FixedPointMultiplier  # codes_b -> Q.15
    out_requant: FixedPointMultiplier  # Q.(15+4) -> output codes
    out_scale: float
    eps_fx: int

    @cached_property
    def _gamma_i64(self) -> np.ndarray:
        """Gamma codes pre-widened to int64 (frozen after first forward)."""
        return np.asarray(self.gamma_codes, dtype=np.int64)

    @cached_property
    def _beta_aligned(self) -> np.ndarray:
        """Beta codes pre-shifted onto the Q.(15+4) accumulator grid."""
        return np.asarray(self.beta_codes, dtype=np.int64) << LN_FRAC_BITS

    def invalidate_cache(self) -> None:
        """Drop pre-widened parameter caches after an in-place gamma/beta edit.

        Only needed by callers that deliberately mutate frozen parameters
        (e.g. failure injection); normal inference never requires it.
        """
        self.__dict__.pop("_gamma_i64", None)
        self.__dict__.pop("_beta_aligned", None)

    def forward(self, codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
        """Fused Add&LN over the last axis of a code batch.

        Args:
            codes_a: Integer codes of the first addend (any leading shape).
            codes_b: Integer codes of the second addend, same shape.

        Returns:
            8-bit output codes, bit-identical to the seed implementation.
        """
        # Stage 1: align and add, then the row mean.
        v = self.align_a.apply(codes_a.astype(np.int64)) + self.align_b.apply(
            codes_b.astype(np.int64)
        )
        n = v.shape[-1]
        total = v.sum(axis=-1, keepdims=True)
        mean = np.rint(total / n).astype(np.int64)
        # Stage 2: center and the variance (2*LN_FRAC_BITS fractional bits).
        centered = v - mean
        var = (centered * centered).sum(axis=-1, keepdims=True) // n
        std = integer_isqrt(var + self.eps_fx)  # back to LN_FRAC_BITS frac
        # Stage 3: normalize, scale by gamma, add beta, requantize.
        normalized = (centered << LN_FRAC_BITS) // np.maximum(std, 1)
        acc = normalized * self._gamma_i64 + self._beta_aligned
        return saturate(self.out_requant.apply(acc), ACT_BITS)


@dataclass
class FloatLayerNorm:
    """Float LN used when the QAT config left LN parameters unquantized."""

    gamma: np.ndarray
    beta: np.ndarray
    in_scale_a: float
    in_scale_b: float
    out_scale: float
    eps: float

    def forward(self, codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
        x = codes_a / self.in_scale_a + codes_b / self.in_scale_b
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        y = self.gamma * (x - mu) / np.sqrt(var + self.eps) + self.beta
        qmin, qmax = int_range(ACT_BITS)
        return np.clip(np.rint(y * self.out_scale), qmin, qmax).astype(np.int64)


@dataclass
class GeluLUT:
    """256-entry GELU lookup table: 8-bit input codes -> 8-bit output codes.

    Like the softmax exp table, an 8-bit-in/8-bit-out elementwise function
    is exactly a 256-entry ROM; this is how the accelerator evaluates GELU
    without DSPs.
    """

    table: np.ndarray  # indexed by code + 127
    in_scale: float
    out_scale: float

    @classmethod
    def build(cls, in_scale: float, out_scale: float) -> "GeluLUT":
        qmin, qmax = int_range(ACT_BITS)
        codes = np.arange(qmin, qmax + 1, dtype=np.int64)
        x = codes / in_scale
        gelu = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))
        out = np.clip(np.rint(gelu * out_scale), qmin, qmax).astype(np.int64)
        return cls(table=out, in_scale=in_scale, out_scale=out_scale)

    def forward(self, codes: np.ndarray) -> np.ndarray:
        qmin, _ = int_range(ACT_BITS)
        return self.table[np.asarray(codes, dtype=np.int64) - qmin]


@dataclass
class IntegerSelfAttention:
    """Integer multi-head attention with LUT softmax.

    ``exp_lut`` may be *shared* between layers whose score scales are
    equal (:func:`convert_to_integer` builds each distinct table once), so
    an in-place edit of one layer's table — e.g. failure injection —
    affects every layer aliasing it; assign a fresh array to mutate one
    layer independently.
    """

    query: IntegerLinear
    key: IntegerLinear
    value: IntegerLinear
    num_heads: int
    score_requant: FixedPointMultiplier  # folds 1/sqrt(d) and s_score/(s_q s_k)
    score_scale: float
    exp_lut: np.ndarray
    context_requant: FixedPointMultiplier  # s_ctx / (OUTPUT_LEVELS * s_v)
    context_scale: float

    def forward(
        self, x_codes: np.ndarray, attention_mask: Optional[np.ndarray]
    ) -> np.ndarray:
        """Batched attention over all heads and rows at once.

        Args:
            x_codes: Integer hidden codes, shape ``(batch, seq, hidden)``.
            attention_mask: Optional 0/1 validity mask, ``(batch, seq)``.

        Returns:
            Context codes, shape ``(batch, seq, hidden)``.
        """
        q = _split_heads_np(self.query.forward(x_codes), self.num_heads)
        k = _split_heads_np(self.key.forward(x_codes), self.num_heads)
        v = _split_heads_np(self.value.forward(x_codes), self.num_heads)

        score_acc = exact_matmul(q, k.swapaxes(-1, -2))
        score_codes = saturate(self.score_requant.apply(score_acc), ACT_BITS)

        mask = attention_mask[:, None, None, :] if attention_mask is not None else None
        prob_codes, _ = quantized_softmax(
            score_codes, self.score_scale, lut=self.exp_lut, mask=mask
        )

        context_acc = exact_matmul(prob_codes, v)
        context_codes = saturate(self.context_requant.apply(context_acc), ACT_BITS)
        return _merge_heads_np(context_codes)


@dataclass
class IntegerBertLayer:
    """One encoder layer frozen to integer arithmetic."""

    attention: IntegerSelfAttention
    attention_output: IntegerLinear
    attention_layernorm: object  # IntegerLayerNorm | FloatLayerNorm
    ffn1: IntegerLinear
    gelu: GeluLUT
    ffn2: IntegerLinear
    output_layernorm: object

    def forward(
        self, x_codes: np.ndarray, attention_mask: Optional[np.ndarray]
    ) -> np.ndarray:
        context = self.attention.forward(x_codes, attention_mask)
        projected = self.attention_output.forward(context)
        attended = self.attention_layernorm.forward(projected, x_codes)

        intermediate = self.ffn1.forward(attended)
        activated = self.gelu.forward(intermediate)
        ffn_out = self.ffn2.forward(activated)
        return self.output_layernorm.forward(ffn_out, attended)


class IntegerBertForSequenceClassification:
    """End-to-end integer FQ-BERT: host embedding -> integer encoder -> host head."""

    def __init__(
        self,
        config: BertConfig,
        layers: List[IntegerBertLayer],
        embed_fn,
        head_fn,
        input_scale: float,
    ):
        self.config = config
        self.layers = layers
        self._embed_fn = embed_fn
        self._head_fn = head_fn
        self.input_scale = input_scale

    def encode(
        self,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        token_type_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run host embedding + the integer encoder; return final codes."""
        codes = self._embed_fn(input_ids, token_type_ids)
        for layer in self.layers:
            codes = layer.forward(codes, attention_mask)
        return codes

    def classify(self, codes: np.ndarray) -> np.ndarray:
        """Host-side head on final encoder codes: dequantize, pool, classify.

        Split out of :meth:`forward` so callers that batch the integer
        encoder (e.g. the serving engine) can run the float head per row:
        the encoder's integer arithmetic is exact and therefore invariant
        to batch composition, while float BLAS reductions need not be.
        """
        final_scale = self.layers[-1].output_layernorm.out_scale if self.layers else self.input_scale
        return self._head_fn(codes / final_scale)

    def classify_rows(self, codes: np.ndarray) -> np.ndarray:
        """Run the float host head independently on each encoder row.

        Args:
            codes: Final encoder codes, shape ``(batch, seq, hidden)``.

        Returns:
            Logits of shape ``(batch, num_labels)``; row ``i`` is
            bit-identical to ``classify(codes[i:i+1])[0]``.

        The serving engine uses this instead of :meth:`classify` on the
        whole batch: float BLAS reductions need not be invariant to batch
        composition, so per-row head execution is what keeps served logits
        bit-identical to one-at-a-time inference.  Dequantization is
        elementwise (hence batch-invariant) and hoisted out of the loop.
        """
        final_scale = self.layers[-1].output_layernorm.out_scale if self.layers else self.input_scale
        hidden = codes / final_scale
        return np.concatenate(
            [self._head_fn(hidden[i : i + 1]) for i in range(hidden.shape[0])]
        )

    def forward(
        self,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        token_type_ids: Optional[np.ndarray] = None,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        """Logits for a batch; ``chunk_size`` bounds the working-set size.

        Chunking splits the *encoder* pass into groups of at most
        ``chunk_size`` rows executed back to back — the encoder dominates
        memory (attention is O(seq^2) per row) and its exact integer
        arithmetic makes the codes bit-identical under any chunking.  The
        (tiny) float head then runs once over all rows, so chunked and
        unchunked calls return bit-identical logits.
        """
        if chunk_size is not None:
            if chunk_size < 1:
                raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
            input_ids = np.asarray(input_ids)
            pieces = []
            for start in range(0, input_ids.shape[0], chunk_size):
                stop = start + chunk_size
                pieces.append(
                    self.encode(
                        input_ids[start:stop],
                        None if attention_mask is None else attention_mask[start:stop],
                        None if token_type_ids is None else token_type_ids[start:stop],
                    )
                )
            codes = np.concatenate(pieces, axis=0)
        else:
            codes = self.encode(input_ids, attention_mask, token_type_ids)
        return self.classify(codes)

    def predict(
        self,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        token_type_ids: Optional[np.ndarray] = None,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        return self.forward(
            input_ids, attention_mask, token_type_ids, chunk_size=chunk_size
        ).argmax(axis=-1)


# ----------------------------------------------------------------------
# conversion from the trained QAT model
# ----------------------------------------------------------------------

def _split_heads_np(x: np.ndarray, num_heads: int) -> np.ndarray:
    batch, seq, hidden = x.shape
    return x.reshape(batch, seq, num_heads, hidden // num_heads).transpose(0, 2, 1, 3)


def _merge_heads_np(x: np.ndarray) -> np.ndarray:
    batch, heads, seq, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)


def _convert_linear(qlinear, in_scale: float) -> IntegerLinear:
    """Freeze a QuantLinear: weight codes, int32 bias, requant multiplier(s).

    With per-channel weight scales the requantizer becomes a per-channel
    multiplier table (:class:`VectorFixedPointMultiplier`); the datapath is
    otherwise unchanged.
    """
    w_scale = qlinear.weight_quantizer.current_scale(qlinear.weight)
    qmin, qmax = int_range(qlinear.config.weight_bits)
    with no_grad():
        w_q, _ = qlinear.weight_quantizer(qlinear.weight)
    weight_codes = np.clip(np.rint(w_q.data * w_scale), qmin, qmax).astype(np.int64)

    per_channel = isinstance(w_scale, np.ndarray) and w_scale.size > 1
    w_scale_rows = np.asarray(w_scale, dtype=np.float64).reshape(-1)

    bias_codes = None
    if qlinear.bias is not None:
        s_bias = in_scale * (w_scale_rows if per_channel else float(w_scale))
        bias_codes = np.rint(qlinear.bias.data.astype(np.float64) * s_bias).astype(np.int64)

    out_scale = qlinear.output_quantizer.scale
    if per_channel:
        requant = VectorFixedPointMultiplier.from_floats(
            out_scale / (in_scale * w_scale_rows)
        )
        stored_scale = w_scale_rows
    else:
        requant = FixedPointMultiplier.from_float(out_scale / (in_scale * float(w_scale)))
        stored_scale = float(w_scale)
    return IntegerLinear(
        weight_codes=weight_codes,
        bias_codes=bias_codes,
        requant=requant,
        in_scale=in_scale,
        weight_scale=stored_scale,
        out_scale=out_scale,
    )


def _convert_layernorm(qln, scale_a: float, scale_b: float):
    """Freeze a QuantLayerNorm into the fixed-point (or float) LN."""
    out_scale = qln.output_quantizer.scale
    if qln.config.quantize_layernorm:
        fmt = LN_PARAM_FORMAT
        gamma_codes = fmt.to_fixed(qln.weight.data)
        beta_codes = fmt.to_fixed(qln.bias.data)
        two_f = 2.0 ** LN_FRAC_BITS
        return IntegerLayerNorm(
            gamma_codes=gamma_codes,
            beta_codes=beta_codes,
            align_a=FixedPointMultiplier.from_float(two_f / scale_a),
            align_b=FixedPointMultiplier.from_float(two_f / scale_b),
            out_requant=FixedPointMultiplier.from_float(
                out_scale / 2.0 ** (LN_FRAC_BITS + fmt.frac_bits)
            ),
            out_scale=out_scale,
            eps_fx=int(round(qln.eps * 2.0 ** (2 * LN_FRAC_BITS))),
        )
    return FloatLayerNorm(
        gamma=qln.weight.data.astype(np.float64),
        beta=qln.bias.data.astype(np.float64),
        in_scale_a=scale_a,
        in_scale_b=scale_b,
        out_scale=out_scale,
        eps=qln.eps,
    )


def convert_to_integer(
    qmodel: QuantBertForSequenceClassification,
) -> IntegerBertForSequenceClassification:
    """Freeze a trained FQ-BERT into the integer-only engine.

    Requires activation quantization to have been enabled during QAT (the
    engine needs a frozen scale at every buffer point).

    Lookup tables depend only on their scales, so each distinct exp/GELU
    table is built once and *shared by reference* across layers with equal
    scales (they are read-only in the forward pass).  Callers that mutate
    a layer's LUT in place (failure injection) should assign that layer a
    fresh copy first.
    """
    qconfig: QuantConfig = qmodel.qconfig
    if not qconfig.quantize_activations:
        raise ValueError(
            "integer conversion requires quantize_activations=True "
            "(every buffer point needs a frozen scale)"
        )
    qmodel.eval()
    config = qmodel.config

    input_scale = qmodel.embeddings.layer_norm.output_quantizer.scale
    layers: List[IntegerBertLayer] = []
    current_scale = input_scale

    # LUTs depend only on their scales; build each distinct table once and
    # share it across layers (they are read-only in the forward pass).
    exp_luts: Dict[float, np.ndarray] = {}
    gelu_luts: Dict[Tuple[float, float], GeluLUT] = {}

    def shared_exp_lut(score_scale: float) -> np.ndarray:
        lut = exp_luts.get(score_scale)
        if lut is None:
            lut = exp_luts[score_scale] = build_exp_lut(score_scale)
        return lut

    def shared_gelu_lut(in_scale: float, out_scale: float) -> GeluLUT:
        key = (in_scale, out_scale)
        lut = gelu_luts.get(key)
        if lut is None:
            lut = gelu_luts[key] = GeluLUT.build(in_scale, out_scale)
        return lut

    for qlayer in qmodel.encoder.layers:
        attn = qlayer.attention.self_attention
        q_lin = _convert_linear(attn.query, current_scale)
        k_lin = _convert_linear(attn.key, current_scale)
        v_lin = _convert_linear(attn.value, current_scale)

        score_scale = attn.score_quantizer.scale
        inv_sqrt_d = attn.inv_sqrt_d
        score_requant = FixedPointMultiplier.from_float(
            score_scale * inv_sqrt_d / (q_lin.out_scale * k_lin.out_scale)
        )
        context_scale = attn.context_quantizer.scale
        context_requant = FixedPointMultiplier.from_float(
            context_scale / (OUTPUT_LEVELS * v_lin.out_scale)
        )
        integer_attention = IntegerSelfAttention(
            query=q_lin,
            key=k_lin,
            value=v_lin,
            num_heads=attn.num_heads,
            score_requant=score_requant,
            score_scale=score_scale,
            exp_lut=shared_exp_lut(score_scale),
            context_requant=context_requant,
            context_scale=context_scale,
        )

        attn_out = _convert_linear(qlayer.attention.output_dense, context_scale)
        attn_ln = _convert_layernorm(
            qlayer.attention.layer_norm, attn_out.out_scale, current_scale
        )
        attended_scale = attn_ln.out_scale

        ffn1 = _convert_linear(qlayer.feed_forward.ffn1, attended_scale)
        gelu_scale = qlayer.feed_forward.gelu_quantizer.scale
        gelu = shared_gelu_lut(ffn1.out_scale, gelu_scale)
        ffn2 = _convert_linear(qlayer.feed_forward.ffn2, gelu_scale)
        out_ln = _convert_layernorm(
            qlayer.feed_forward.layer_norm, ffn2.out_scale, attended_scale
        )

        layers.append(
            IntegerBertLayer(
                attention=integer_attention,
                attention_output=attn_out,
                attention_layernorm=attn_ln,
                ffn1=ffn1,
                gelu=gelu,
                ffn2=ffn2,
                output_layernorm=out_ln,
            )
        )
        current_scale = out_ln.out_scale

    def embed_fn(input_ids: np.ndarray, token_type_ids: Optional[np.ndarray]) -> np.ndarray:
        """Host-side embedding: float compute, 8-bit codes out (the AXI stream)."""
        with no_grad():
            x, scale = qmodel.embeddings(np.asarray(input_ids), token_type_ids)
        qmin, qmax = int_range(ACT_BITS)
        return np.clip(np.rint(x.data * scale), qmin, qmax).astype(np.int64)

    def head_fn(hidden: np.ndarray) -> np.ndarray:
        """Host-side pooler + classifier on the dequantized encoder output."""
        with no_grad():
            pooled = qmodel.pooler(Tensor(hidden.astype(np.float32)), current_scale)
            logits = qmodel.classifier(pooled)
        return logits.data

    return IntegerBertForSequenceClassification(
        config=config,
        layers=layers,
        embed_fn=embed_fn,
        head_fn=head_fn,
        input_scale=input_scale,
    )
