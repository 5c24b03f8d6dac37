"""Integer block transforms: matrix structure, clipping, roundtrip accuracy."""

import numpy as np
import pytest

from cpdtlab.transform import (
    TRANSFORM_SIZES,
    forward_transform,
    inverse_transform,
    _MATRICES,
    _blocks,
    _inverse_rows,
    _rows,
    orthonormal_gain,
)

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


def _round_shift(x, shift):
    return (x + (1 << (shift - 1))) >> shift


def _clip16(x):
    return np.clip(x, -32768, 32767)


def _reference_forward(block):
    """The transform as plain int64 matmul, independent of the float path."""
    t = _MATRICES[block.shape[-1]]
    log2n = block.shape[-1].bit_length() - 1
    stage1 = _clip16(_round_shift(np.matmul(t, block.astype(np.int64)), log2n - 1))
    return _clip16(_round_shift(np.matmul(stage1, t.T), log2n + 6))


def _reference_inverse(coeff):
    t = _MATRICES[coeff.shape[-1]]
    stage1 = _clip16(_round_shift(np.matmul(t.T, coeff.astype(np.int64)), 7))
    return np.clip(_round_shift(np.matmul(stage1, t), 12), -256, 255)


class TestMatrices:
    def test_t4_rows(self):
        t4 = _MATRICES[4]
        expected = np.array(
            [
                [64, 64, 64, 64],
                [83, 36, -36, -83],
                [64, -64, -64, 64],
                [36, -83, 83, -36],
            ]
        )
        assert np.array_equal(t4, expected)

    def test_t4_near_orthogonality(self):
        t4 = _MATRICES[4]
        gram = t4 @ t4.T
        off = gram - np.diag(np.diag(gram))
        assert np.all(off == 0)
        assert np.diag(gram).tolist() == [16384, 16370, 16384, 16370]

    def test_t8_near_orthogonality(self):
        t8 = _MATRICES[8]
        gram = t8 @ t8.T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 50
        diag = np.diag(gram)
        assert diag.max() == 32768
        assert diag.min() == 32740

    def test_gain(self):
        assert orthonormal_gain(4) == 32.0
        assert orthonormal_gain(8) == 16.0

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            orthonormal_gain(16)


class TestForward:
    @pytest.mark.parametrize("size", TRANSFORM_SIZES)
    @pytest.mark.parametrize("value", [-128, 1, 100, 127])
    def test_constant_block_concentrates_in_dc(self, size, value):
        block = np.full((size, size), value, dtype=np.int64)
        coeff = forward_transform(block)
        assert coeff[0, 0] == 128 * value
        ac = coeff.copy()
        ac[0, 0] = 0
        assert np.all(ac == 0)

    @pytest.mark.parametrize("size", TRANSFORM_SIZES)
    def test_zero_block(self, size):
        block = np.zeros((size, size), dtype=np.int64)
        assert np.all(forward_transform(block) == 0)
        assert np.all(inverse_transform(block) == 0)

    def test_clipping_engages_at_extreme_input(self):
        # A constant block at the int16 ceiling would map its DC to
        # 128 * 32767 without clipping; each stage saturates at 32767.
        block = np.full((4, 4), 32767, dtype=np.int64)
        coeff = forward_transform(block)
        assert coeff[0, 0] == 32767
        assert coeff.max() <= 32767 and coeff.min() >= -32768

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            forward_transform(np.zeros((4, 8), dtype=np.int64))
        with pytest.raises(ValueError):
            forward_transform(np.zeros((5, 5), dtype=np.int64))
        with pytest.raises(TypeError):
            forward_transform(np.zeros((4, 4), dtype=np.float64))

    @pytest.mark.parametrize("fn", [forward_transform, inverse_transform])
    @pytest.mark.parametrize(
        "value, dtype",
        [(INT32_MAX + 1, np.int64), (INT32_MIN - 1, np.int64), (INT32_MAX + 1, np.uint32)],
    )
    def test_rejects_values_outside_32_bits(self, fn, value, dtype):
        block = np.zeros((4, 4), dtype=dtype)
        block[1, 2] = value
        with pytest.raises(ValueError, match="signed 32 bits"):
            fn(block)


class TestInverse:
    @pytest.mark.parametrize("size", TRANSFORM_SIZES)
    def test_output_stays_in_residual_range(self, size):
        rng = np.random.default_rng(7)
        coeff = rng.integers(-32768, 32768, size=(200, size, size), dtype=np.int64)
        recon = inverse_transform(coeff)
        assert recon.min() >= -256
        assert recon.max() <= 255

    def test_residual_range_values(self):
        # A full-scale DC coefficient reaches both ends of the 9-bit residual
        # range: 32767 would decode to 256 unclipped, -32768 decodes to -256.
        for size in TRANSFORM_SIZES:
            dc = np.zeros((2, size, size), dtype=np.int64)
            dc[:, 0, 0] = 32767, -32768
            recon = inverse_transform(dc)
            assert np.all(recon[0] == 255)
            assert np.all(recon[1] == -256)


class TestRoundtrip:
    def test_4x4_is_exact_on_residual_inputs(self):
        rng = np.random.default_rng(99)
        blocks = rng.integers(-255, 256, size=(20000, 4, 4), dtype=np.int64)
        recon = inverse_transform(forward_transform(blocks))
        assert np.array_equal(recon, blocks)

    def test_8x8_is_near_lossless(self):
        rng = np.random.default_rng(99)
        blocks = rng.integers(-255, 256, size=(5000, 8, 8), dtype=np.int64)
        recon = inverse_transform(forward_transform(blocks))
        err = np.abs(recon - blocks)
        assert err.max() <= 2
        assert err.max() >= 1  # the chain is not exact at this size

    @pytest.mark.parametrize("size", TRANSFORM_SIZES)
    def test_batched_matches_per_block(self, size):
        rng = np.random.default_rng(11)
        blocks = rng.integers(-255, 256, size=(32, size, size), dtype=np.int64)
        batched = inverse_transform(forward_transform(blocks))
        for i in range(32):
            single = inverse_transform(forward_transform(blocks[i]))
            assert np.array_equal(batched[i], single)

    @pytest.mark.parametrize("size", TRANSFORM_SIZES)
    def test_approximate_linearity(self, size):
        # T(a) + T(b) vs T(a + b) after the full chain: rounding in each
        # stage breaks exact additivity by at most a couple of counts.
        rng = np.random.default_rng(42)
        a = rng.integers(-127, 128, size=(2500, size, size), dtype=np.int64)
        b = rng.integers(-127, 128, size=(2500, size, size), dtype=np.int64)
        f = lambda x: inverse_transform(forward_transform(x))
        discrepancy = np.abs(f(a + b) - (f(a) + f(b)))
        assert discrepancy.max() <= 2

    def test_double_roundtrip_error_bound(self):
        rng = np.random.default_rng(3)
        blocks = rng.integers(-255, 256, size=(3000, 8, 8), dtype=np.int64)
        f = lambda x: inverse_transform(forward_transform(x))
        once = np.abs(f(blocks) - blocks).max()
        twice = np.abs(f(f(blocks)) - blocks).max()
        assert twice <= 2 * once


class TestInt64Reference:
    @pytest.mark.parametrize("size", TRANSFORM_SIZES)
    def test_matches_int64_reference(self, size):
        # Full-range 32-bit blocks, their extremes, and residual-sized blocks:
        # the float64 products must give the exact integers of int64 matmul.
        rng = np.random.default_rng(size)
        wide = rng.integers(INT32_MIN, INT32_MAX, size=(300, size, size), endpoint=True)
        wide[:100].flat[rng.integers(0, 100 * size * size, 400)] = INT32_MAX
        wide[:100].flat[rng.integers(0, 100 * size * size, 400)] = -INT32_MAX
        wide[100:150] = rng.choice([-INT32_MAX, INT32_MAX, INT32_MIN], size=(50, size, size))
        residual = rng.integers(-256, 255, size=(300, size, size), endpoint=True)
        coeff = rng.integers(-32768, 32767, size=(300, size, size), endpoint=True)
        for blocks in (wide, residual, coeff):
            assert np.array_equal(forward_transform(blocks), _reference_forward(blocks))
            assert np.array_equal(inverse_transform(blocks), _reference_inverse(blocks))

    @pytest.mark.parametrize("size", TRANSFORM_SIZES)
    @pytest.mark.parametrize("bias", [0, 128])
    def test_float32_inverse_on_16_bit_extremes(self, size, bias):
        # Each coefficient column at +32767 or -32768 with the signs of the
        # matrix column it meets in the first pass, so every first-pass sum
        # reaches the column's L1 norm times 2^15; then the negated signs,
        # the transposes and full-range 16-bit blocks.
        t = _MATRICES[size]
        worst = np.where(t > 0, 32767, -32768)
        negated = np.where(t > 0, -32768, 32767)
        rng = np.random.default_rng(size + bias)
        coeff = rng.integers(-32768, 32767, size=(200, size, size), endpoint=True)
        blocks = np.concatenate([np.stack([worst, negated, worst.T, negated.T]), coeff])
        x = _rows(blocks, np.float32)
        _inverse_rows(x, np.empty_like(x), bias)
        stage1 = _clip16(_round_shift(np.matmul(t.T, blocks), 7))
        expected = _round_shift(np.matmul(stage1, t) + (bias << 12), 12)
        assert np.array_equal(_blocks(x, blocks.shape), expected)
