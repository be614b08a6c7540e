"""Exact integer matrix multiplication on the float BLAS paths.

numpy dispatches integer ``@`` to a generic (non-BLAS) inner loop, which is
an order of magnitude slower than BLAS.  But float arithmetic is *exact* on
integers as long as every product and partial sum stays inside the
format's contiguous integer range, so small-integer GEMMs — and every
matmul in the integer FQ-BERT datapath is an 8-bit-by-4-bit or
8-bit-by-8-bit code product — can run on BLAS and cast back to int64
without changing a single bit.  ``exact_matmul`` and :class:`CachedMatmul`
dispatch each product to the cheapest tier a magnitude guard certifies:

- bound below ``2**24``: float32 (sgemm) — every FQ-BERT GEMM, the largest
  being K=768 at ``768 * 127 * 7`` ≈ 6.8e5;
- bound below ``2**53``: float64 (dgemm);
- otherwise: the native int64 loop.

Results are bit-identical to ``a @ b`` in all cases.

The guard is conservative by construction: it bounds the *accumulated*
magnitude by ``k * max|a| * max|b|``, the worst case over any summation
order, so BLAS reordering of the dot products cannot introduce rounding.
"""

from __future__ import annotations

import numpy as np

# Largest integer magnitudes float32 / float64 represent exactly (contiguously).
EXACT_F32_LIMIT = 2 ** 24
EXACT_F64_LIMIT = 2 ** 53


def max_abs(codes: np.ndarray) -> int:
    """Largest absolute value in an integer code array (0 when empty).

    Computed from the min/max as Python ints rather than ``np.abs`` —
    ``np.abs(INT64_MIN)`` overflows back to a negative value, which would
    silently defeat the exactness guard.

    Args:
        codes: Integer array of any shape.

    Returns:
        ``max(|codes|)`` as an exact Python int, or 0 for an empty array.
    """
    if codes.size == 0:
        return 0
    return max(-int(codes.min()), int(codes.max()), 0)


def product_bound(a_bound: int, b_bound: int, contract_dim: int) -> int:
    """Worst-case accumulator magnitude of a length-``contract_dim`` dot product.

    Args:
        a_bound: Bound on ``|a|`` entries.
        b_bound: Bound on ``|b|`` entries.
        contract_dim: Dot-product length K.

    Returns:
        ``contract_dim * a_bound * b_bound`` — an upper bound on every
        partial sum under any summation order.
    """
    return int(contract_dim) * int(a_bound) * int(b_bound)


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matmul ``a @ b``, bit-identical to int64, BLAS-fast when safe.

    Args:
        a: Integer codes, shape ``(..., m, k)``.
        b: Integer codes, shape ``(..., k, n)``.

    Returns:
        ``a @ b`` as int64 — computed via float32 sgemm or float64 dgemm
        when the magnitude guard certifies exactness, via the native int64
        loop otherwise.
    """
    bound = product_bound(max_abs(a), max_abs(b), a.shape[-1])
    if bound < EXACT_F32_LIMIT:
        return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.int64)
    if bound < EXACT_F64_LIMIT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a.astype(np.int64) @ b.astype(np.int64)


class CachedMatmul:
    """One fixed right-hand operand, pre-cast once for repeated matmuls.

    The integer model's weight matrices never change after conversion, so
    each :class:`~repro.quant.integer_model.IntegerLinear` builds one plan
    and reuses it every forward — eliminating the per-call transpose copy
    and ``astype`` of the seed implementation.  The float32 copy is built
    eagerly (every FQ-BERT GEMM takes that tier); the float64 copy only on
    the first product that needs it, so a plan normally holds one float
    copy, not two.
    """

    def __init__(self, b: np.ndarray):
        """Pre-cast the static operand.

        Args:
            b: Integer codes of shape ``(k, n)`` (already transposed for
               left-multiplication by activations).
        """
        b_i64 = np.ascontiguousarray(b, dtype=np.int64)
        if b_i64 is b:
            b_i64 = b_i64.copy()  # never freeze (or alias) the caller's array
        self.b_i64 = b_i64
        self.b_i64.flags.writeable = False
        self.b_f32 = self.b_i64.astype(np.float32)
        self.b_f32.flags.writeable = False
        self._b_f64 = None
        self.b_bound = max_abs(self.b_i64)
        self.contract_dim = self.b_i64.shape[0]

    @property
    def b_f64(self) -> np.ndarray:
        """The float64 copy of the operand, built (and frozen) on first use."""
        if self._b_f64 is None:
            b_f64 = self.b_i64.astype(np.float64)
            b_f64.flags.writeable = False
            self._b_f64 = b_f64
        return self._b_f64

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """Compute ``a @ b`` exactly (int64 result).

        Args:
            a: Integer activation codes, shape ``(..., k)``.

        Returns:
            int64 product, bit-identical to the native int64 matmul.
        """
        bound = product_bound(max_abs(a), self.b_bound, self.contract_dim)
        if bound < EXACT_F32_LIMIT:
            return (a.astype(np.float32) @ self.b_f32).astype(np.int64)
        if bound < EXACT_F64_LIMIT:
            return (a.astype(np.float64) @ self.b_f64).astype(np.int64)
        # Fallback must use the original integer operand: the float copies
        # are lossy exactly in this large-magnitude regime.
        return a.astype(np.int64) @ self.b_i64
