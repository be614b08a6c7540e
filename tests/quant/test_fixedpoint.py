"""Fixed-point arithmetic: Q-formats, the Eq. 5 multiplier, integer isqrt."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import FixedPointMultiplier, LN_PARAM_FORMAT, QFormat, integer_isqrt, saturate
from repro.quant.fixedpoint import VectorFixedPointMultiplier, bit_width_of


class TestQFormat:
    def test_q3_4_bounds(self):
        fmt = LN_PARAM_FORMAT
        assert fmt.total_bits == 8
        assert fmt.max_value == pytest.approx(7.9375)
        assert fmt.min_value == -8.0
        assert fmt.resolution == 0.0625

    def test_roundtrip_on_grid(self):
        fmt = QFormat(3, 4)
        values = np.arange(-8.0, 8.0, 0.0625)
        np.testing.assert_allclose(fmt.round_trip(values), values)

    def test_saturates(self):
        fmt = QFormat(3, 4)
        assert fmt.round_trip(np.array([100.0]))[0] == fmt.max_value
        assert fmt.round_trip(np.array([-100.0]))[0] == fmt.min_value

    def test_rounding_error_bound(self, rng):
        fmt = QFormat(3, 4)
        x = rng.uniform(-7.9, 7.9, size=100)
        assert np.abs(fmt.round_trip(x) - x).max() <= fmt.resolution / 2 + 1e-12


class TestFixedPointMultiplier:
    def test_roundtrip_accuracy(self):
        for value in (1e-6, 0.37, 1.0, 17.3, 1e6):
            fpm = FixedPointMultiplier.from_float(value)
            assert fpm.to_float() == pytest.approx(value, rel=1e-8)

    def test_mantissa_normalized(self):
        fpm = FixedPointMultiplier.from_float(0.123)
        assert 2 ** 30 <= fpm.multiplier < 2 ** 31

    def test_apply_matches_float_rounding(self, rng):
        fpm = FixedPointMultiplier.from_float(0.0037)
        acc = rng.integers(-(2 ** 24), 2 ** 24, size=1000)
        applied = fpm.apply(acc)
        expected = np.rint(acc * 0.0037)
        # off-by-one allowed at exact rounding boundaries
        assert np.abs(applied - expected).max() <= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedPointMultiplier.from_float(0.0)

    def test_apply_zero(self):
        fpm = FixedPointMultiplier.from_float(3.7)
        assert fpm.apply(np.array([0]))[0] == 0

    def test_large_factor(self):
        fpm = FixedPointMultiplier.from_float(1000.0)
        result = fpm.apply(np.array([123]))
        assert result[0] == pytest.approx(123000, abs=1)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-(2 ** 30), max_value=2 ** 30),
)
def test_multiplier_relative_error_property(factor, acc):
    """Requantization error is at most 1 code + 2^-30 relative (Eq. 5 s_f)."""
    fpm = FixedPointMultiplier.from_float(factor)
    applied = int(fpm.apply(np.array([acc]))[0])
    exact = acc * factor
    assert abs(applied - exact) <= 1.0 + abs(exact) * 2 ** -30


def _staged_requant(acc, multiplier, shift):
    """The two-stage rounding ``apply`` is defined by, one Python int at a time.

    Shift by ``pre = max(0, shift - 31)`` and then by ``shift - pre``,
    each adding half its divisor first; a non-positive shift is skipped.
    Python ints never overflow, so this is the exact definition.
    """
    product = acc * multiplier
    pre = max(0, shift - 31)
    post = shift - pre
    if pre > 0:
        product = (product + (1 << (pre - 1))) >> pre
    if post > 0:
        product = (product + (1 << (post - 1))) >> post
    return product


INT32_EXTREMES = [-(2 ** 31), -(2 ** 31) + 1, -(2 ** 30), -1, 0, 1, 2 ** 30, 2 ** 31 - 1]
accumulators = st.lists(
    st.one_of(
        st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
        st.sampled_from(INT32_EXTREMES),
    ),
    min_size=1,
    max_size=16,
)
mantissas = st.one_of(
    st.integers(min_value=2 ** 30, max_value=2 ** 31 - 1),
    st.sampled_from([1, 2 ** 30, 2 ** 31 - 1]),
)
shifts = st.one_of(st.integers(min_value=1, max_value=62), st.integers(min_value=28, max_value=35))


@settings(max_examples=400, deadline=None)
@given(accumulators, mantissas, shifts)
def test_single_shift_requant_equals_staged(accs, multiplier, shift):
    fpm = FixedPointMultiplier(multiplier=multiplier, shift=shift)
    applied = fpm.apply(np.array(accs, dtype=np.int64))
    assert applied.tolist() == [_staged_requant(a, multiplier, shift) for a in accs]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_shift_vector_requant_equals_staged(data):
    channels = data.draw(st.integers(min_value=1, max_value=8))
    multipliers = data.draw(st.lists(mantissas, min_size=channels, max_size=channels))
    channel_shifts = data.draw(
        st.lists(
            st.one_of(shifts, st.integers(min_value=-3, max_value=0)),
            min_size=channels,
            max_size=channels,
        )
    )
    channel_row = accumulators.map(lambda values: (values * channels)[:channels])
    rows = data.draw(st.lists(channel_row, min_size=1, max_size=4))
    vfpm = VectorFixedPointMultiplier(
        multipliers=np.array(multipliers, dtype=np.int64),
        shifts=np.array(channel_shifts, dtype=np.int64),
    )
    applied = vfpm.apply(np.array(rows, dtype=np.int64))
    expected = [
        [_staged_requant(a, m, s) for a, m, s in zip(row, multipliers, channel_shifts)]
        for row in rows
    ]
    assert applied.tolist() == expected


def test_single_shift_requant_on_rounding_ties():
    """Products exactly on (and one step off) a half, for every shift."""
    for shift in range(1, 63):
        multiplier = 1 << min(30, shift - 1)
        tie = (1 << (shift - 1)) // multiplier  # tie * multiplier == 2^(shift-1)
        accs = [
            a for a in (tie, -tie, tie - 1, -tie + 1, tie + 1, -tie - 1)
            if -(2 ** 31) <= a < 2 ** 31
        ]
        fpm = FixedPointMultiplier(multiplier=multiplier, shift=shift)
        applied = fpm.apply(np.array(accs, dtype=np.int64))
        assert applied.tolist() == [_staged_requant(a, multiplier, shift) for a in accs]


class TestIntegerIsqrt:
    def test_exhaustive_small(self):
        values = np.arange(0, 4096)
        roots = integer_isqrt(values)
        assert np.all(roots * roots <= values)
        assert np.all((roots + 1) * (roots + 1) > values)

    def test_perfect_squares(self):
        values = np.arange(0, 1000) ** 2
        np.testing.assert_array_equal(integer_isqrt(values), np.arange(0, 1000))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            integer_isqrt(np.array([-1]))

    def test_zero(self):
        assert integer_isqrt(np.array([0]))[0] == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 52))
def test_isqrt_floor_property(value):
    root = int(integer_isqrt(np.array([value]))[0])
    assert root * root <= value < (root + 1) * (root + 1)


class TestSaturate:
    def test_signed_8bit(self):
        out = saturate(np.array([-1000, -128, 0, 127, 1000]), 8)
        np.testing.assert_array_equal(out, [-128, -128, 0, 127, 127])

    def test_unsigned(self):
        out = saturate(np.array([-5, 0, 255, 300]), 8, signed=False)
        np.testing.assert_array_equal(out, [0, 0, 255, 255])


class TestBitWidth:
    def test_positive(self):
        assert bit_width_of(0) == 1
        assert bit_width_of(1) == 2
        assert bit_width_of(127) == 8
        assert bit_width_of(128) == 9

    def test_negative(self):
        assert bit_width_of(-1) == 1
        assert bit_width_of(-128) == 8
        assert bit_width_of(-129) == 9
