"""Fixed-point arithmetic helpers.

The accelerator performs all post-accumulator arithmetic (requantization by
``s_f``, layer-norm statistics, softmax normalization) in fixed point.  This
module provides a small Q-format toolbox: conversion to/from fixed point,
fixed-point multiply-with-shift requantization (the int32 ``s_f`` of Eq. 5),
and an integer inverse-square-root for the LN core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format with ``int_bits`` + ``frac_bits`` + sign."""

    int_bits: int
    frac_bits: int

    @property
    def total_bits(self) -> int:
        return self.int_bits + self.frac_bits + 1

    @property
    def max_value(self) -> float:
        return (2 ** (self.int_bits + self.frac_bits) - 1) / 2 ** self.frac_bits

    @property
    def min_value(self) -> float:
        return -(2 ** (self.int_bits + self.frac_bits)) / 2 ** self.frac_bits

    @property
    def resolution(self) -> float:
        return 2.0 ** -self.frac_bits

    def to_fixed(self, x: np.ndarray) -> np.ndarray:
        """Real -> integer raw codes, saturating at the format limits."""
        codes = np.rint(np.asarray(x, dtype=np.float64) * 2 ** self.frac_bits)
        low = -(2 ** (self.int_bits + self.frac_bits))
        high = 2 ** (self.int_bits + self.frac_bits) - 1
        return np.clip(codes, low, high).astype(np.int64)

    def from_fixed(self, codes: np.ndarray) -> np.ndarray:
        """Integer raw codes -> real values."""
        return np.asarray(codes, dtype=np.float64) / 2 ** self.frac_bits

    def round_trip(self, x: np.ndarray) -> np.ndarray:
        """Quantize real values to this format's representable grid."""
        return self.from_fixed(self.to_fixed(x))


# The 8-bit fixed-point format used for layer-norm parameters (Sec. II-B).
LN_PARAM_FORMAT = QFormat(int_bits=3, frac_bits=4)


@dataclass(frozen=True)
class FixedPointMultiplier:
    """The paper's 32-bit integer ``s_f``: a multiplier ``m * 2^-shift``.

    Eq. 5 requantizes the int32 accumulator with ``y_I = acc * s_f`` where
    ``s_f = s_y / (s_a * s_w)`` is stored as a 32-bit integer.  Hardware
    realizes this as a widening multiply by ``m`` followed by an arithmetic
    right shift — the standard "fixed-point multiplier" of integer inference
    runtimes (cf. gemmlowp / TFLite).
    """

    multiplier: int  # int32 mantissa
    shift: int       # right-shift amount

    @classmethod
    def from_float(cls, value: float, mantissa_bits: int = 31) -> "FixedPointMultiplier":
        """Encode a positive real factor as (mantissa, shift)."""
        if value <= 0:
            raise ValueError(f"requant factor must be positive, got {value}")
        # Normalize into [2^(bits-1), 2^bits) so the mantissa uses full width.
        shift = 0
        mantissa = float(value)
        while mantissa >= 2 ** mantissa_bits:
            mantissa /= 2.0
            shift -= 1
        while mantissa < 2 ** (mantissa_bits - 1):
            mantissa *= 2.0
            shift += 1
        quantized = int(np.rint(mantissa))
        if quantized == 2 ** mantissa_bits:
            quantized //= 2
            shift -= 1
        return cls(multiplier=quantized, shift=shift)

    def to_float(self) -> float:
        return self.multiplier * 2.0 ** -self.shift

    def apply(self, accumulator: np.ndarray) -> np.ndarray:
        """Apply the multiplier with round-to-nearest on the dropped bits.

        ``(acc * m + half) >> shift`` — the add-half-then-arithmetic-shift
        idiom rounds half toward +inf for both signs, exactly what the
        hardware's requantization pipeline does.  The rounding is defined
        in two stages, a shift by ``pre = max(0, shift - 31)`` and then by
        ``post = shift - pre``, each adding half its divisor first.  One
        shift by ``shift`` with the combined constant
        ``half_pre + (half_post << pre)`` is bit-identical to the two,
        because ``floor(floor(x / 2^a) / 2^b) == floor(x / 2^(a+b))`` for
        integers.  Nothing leaves int64 while ``|acc| < 2^31``,
        ``m < 2^31`` and ``shift <= 62``.
        """
        acc = np.asarray(accumulator, dtype=np.int64)
        shift = self.shift
        if shift <= 0:
            return acc * self.multiplier * (2 ** -shift)
        half = (1 << (shift - 1)) + ((1 << (shift - 32)) if shift > 31 else 0)
        return (acc * self.multiplier + half) >> shift


@dataclass(frozen=True)
class VectorFixedPointMultiplier:
    """Per-channel fixed-point multipliers (one (m, shift) pair per channel).

    The per-channel extension of Eq. 5: when weights carry one scale per
    output row, the requantization factor differs per row.  Hardware
    supports this naturally — the quantization module already processes one
    PE output at a time, so it simply indexes a small multiplier table.
    ``apply`` broadcasts over leading axes; the channel axis is the last.
    """

    multipliers: np.ndarray  # (channels,) int64 mantissas
    shifts: np.ndarray       # (channels,) int64 right-shift amounts

    @classmethod
    def from_floats(cls, values: np.ndarray, mantissa_bits: int = 31) -> "VectorFixedPointMultiplier":
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if np.any(values <= 0):
            raise ValueError("requant factors must be positive")
        pairs = [FixedPointMultiplier.from_float(float(v), mantissa_bits) for v in values]
        return cls(
            multipliers=np.array([p.multiplier for p in pairs], dtype=np.int64),
            shifts=np.array([p.shift for p in pairs], dtype=np.int64),
        )

    def to_floats(self) -> np.ndarray:
        return self.multipliers * np.power(2.0, -self.shifts.astype(np.float64))

    def apply(self, accumulator: np.ndarray) -> np.ndarray:
        """Per-channel ``(acc * m + half) >> shift`` over the last axis."""
        acc = np.asarray(accumulator, dtype=np.int64)
        if acc.shape[-1] != self.multipliers.shape[0]:
            raise ValueError(
                f"last axis ({acc.shape[-1]}) must match channels "
                f"({self.multipliers.shape[0]})"
            )
        # One shift per channel with the two-stage rounding's combined
        # constant, as in FixedPointMultiplier.apply.  A non-positive shift
        # leaves the product as it is.
        shifts = np.maximum(self.shifts, 0)
        one = np.int64(1)
        half = np.where(shifts > 0, one << np.maximum(shifts - 1, 0), 0)
        half += np.where(shifts > 31, one << np.maximum(shifts - 32, 0), 0)
        return (acc * self.multipliers + half) >> shifts


def integer_isqrt(values: np.ndarray) -> np.ndarray:
    """Integer floor square root (Newton's method on int64 arrays).

    Used by the LN core model to compute ``sqrt(variance)`` without floating
    point: the hardware implements the same iteration in fixed point.
    """
    values = np.asarray(values, dtype=np.int64)
    if np.any(values < 0):
        raise ValueError("integer_isqrt requires non-negative inputs")
    result = np.zeros_like(values)
    nonzero = values > 0
    if not np.any(nonzero):
        return result
    x = values.copy()
    # Initial guess: 2^(ceil(bits/2)) via float sqrt, then Newton refine —
    # float sqrt of int64 is exact enough to land within 1 ulp, and two
    # Newton steps certify the floor value in pure integer arithmetic.
    guess = np.floor(np.sqrt(values.astype(np.float64))).astype(np.int64)
    guess = np.maximum(guess, 1)
    for _ in range(4):
        guess = (guess + values // np.maximum(guess, 1)) // 2
    # Certify: adjust down/up so that guess^2 <= v < (guess+1)^2.
    too_big = guess * guess > values
    guess = np.where(too_big, guess - 1, guess)
    too_small = (guess + 1) * (guess + 1) <= values
    guess = np.where(too_small, guess + 1, guess)
    result[nonzero] = guess[nonzero]
    return result


def saturate(values: np.ndarray, bits: int, signed: bool = True) -> np.ndarray:
    """Clamp integer values into the representable ``bits``-wide range."""
    if signed:
        low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    else:
        low, high = 0, 2 ** bits - 1
    return np.clip(np.asarray(values, dtype=np.int64), low, high)


def bit_width_of(value: int) -> int:
    """Minimum two's-complement width that holds ``value``."""
    if value >= 0:
        return int(value).bit_length() + 1
    return int(~value).bit_length() + 1
