"""Integer block transforms: matrix structure, clipping, roundtrip accuracy."""

import numpy as np
import pytest

from cpdtlab.transform import (
    TRANSFORM_SIZES,
    forward_transform,
    inverse_transform,
    _INVERSE,
    _MATRICES,
    _blocks,
    _first_pass_fits,
    _rows,
    _transform_rows,
    orthonormal_gain,
)


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


def _column_sign_extremes(t):
    """Coefficient blocks whose columns sit at the 16-bit ends with the signs
    of the matrix column each meets in the inverse's first pass, so every
    first-pass sum reaches the column's L1 norm times 2^15; then the negated
    signs and the transposes."""
    worst = np.where(t > 0, 32767, -32768)
    negated = np.where(t > 0, -32768, 32767)
    return np.stack([worst, negated, worst.T, negated.T])


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

    @pytest.mark.parametrize("size", TRANSFORM_SIZES)
    def test_minimum_residual_block_has_dc_minus_32768(self, size):
        # 128 * -256 is the 16-bit floor: the forward reaches it, unclipped.
        coeff = forward_transform(np.full((size, size), -256, dtype=np.int64))
        assert coeff[0, 0] == -32768
        coeff[0, 0] = 0
        assert np.all(coeff == 0)

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            forward_transform(np.zeros((4, 8), dtype=np.int64))
        with pytest.raises(ValueError):
            forward_transform(np.zeros((5, 5), dtype=np.int64))
        with pytest.raises(TypeError):
            forward_transform(np.zeros((4, 4), dtype=np.float64))


class TestDomains:
    """Each direction takes the values it meets in an 8-bit codec: the
    forward 9-bit residuals, the inverse 16-bit coefficients."""

    @pytest.mark.parametrize(
        "fn, value, dtype",
        [
            (forward_transform, -257, np.int64),
            (forward_transform, 256, np.int64),
            (forward_transform, -257, np.int16),
            (forward_transform, 256, np.int16),
            (inverse_transform, 32768, np.int64),
            (inverse_transform, -32769, np.int64),
            (inverse_transform, 32768, np.int32),
            (inverse_transform, -32769, np.int32),
            (inverse_transform, 32768, np.uint16),
        ],
    )
    def test_refuses_values_outside_its_domain(self, fn, value, dtype):
        block = np.zeros((4, 4), dtype=dtype)
        block[1, 2] = value
        with pytest.raises(ValueError, match=r"values must lie in \["):
            fn(block)

    @pytest.mark.parametrize(
        "fn, reference, lo, hi",
        [
            (forward_transform, _reference_forward, -256, 255),
            (inverse_transform, _reference_inverse, -32768, 32767),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.int64, np.int16])
    def test_accepts_both_ends_of_its_domain(self, fn, reference, lo, hi, dtype):
        block = np.zeros((2, 4, 4), dtype=dtype)
        block[0] = lo
        block[1, 1::2] = hi
        assert np.array_equal(fn(block), reference(block))


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


class TestFirstPassCertificate:
    """_first_pass_fits(reach): sum_i |T[i, r]| * reach[i] <= 32767 * 128 for
    every output row r of the inverse's first pass."""

    @pytest.mark.parametrize("size", TRANSFORM_SIZES)
    def test_edge(self, size):
        # T's DC row is all 64s: 65534 on row 0 alone sums to 32767 * 128 in
        # every output row, and one more does not fit.
        reach = np.zeros((2, size), dtype=np.int64)
        reach[:, 0] = [65534, 65535]
        assert _first_pass_fits(reach).tolist() == [True, False]
        assert _first_pass_fits(reach[0]) and not _first_pass_fits(reach[1])

    def test_input_rows_meet_matrix_rows(self):
        # Input row i meets T's row i; T's columns differ, so each verdict
        # flips with T transposed.  Column 0 holds 89 (83 at 4 points);
        # rows 1 and 2 sum to 172 at column 0, while no row of T has
        # entries of columns 1 and 2 summing past 166.
        assert _first_pass_fits([65534, 0, 0, 0, 0, 0, 0, 0])
        assert _first_pass_fits([65534, 0, 0, 0])
        assert not _first_pass_fits([0, 25000, 25000, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("size", TRANSFORM_SIZES)
    def test_certified_blocks_stay_in_16_bits(self, size):
        # Blocks whose rows stay within a certified reach never leave 16 bits
        # in the int64 first pass.
        t = _MATRICES[size]
        rng = np.random.default_rng(size)
        reach = rng.integers(0, 32769, size=(400, size)) >> rng.integers(0, 4, size=(400, 1))
        fits = _first_pass_fits(reach)
        assert 0 < fits.sum() < fits.size
        coeff = rng.integers(-reach[fits, :, None], reach[fits, :, None], endpoint=True,
                             size=(int(fits.sum()), size, size))
        coeff[:, :, 0] = reach[fits] * np.sign(t[:, 0])
        stage1 = _round_shift(np.matmul(t.T, coeff), 7)
        assert stage1.min() >= -32768 and stage1.max() <= 32767


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
        # The float32 products must give the exact integers of int64 matmul.
        # The forward sees random residual blocks; for each output (i, j) the
        # blocks with X[m, k] = 255 or -256 by the sign of T[i, m] * T[j, k],
        # in both polarities; and the constant blocks at both ends.
        t = _MATRICES[size]
        rng = np.random.default_rng(size)
        positive = np.einsum("im,jk->ijmk", t, t).reshape(-1, size, size) > 0
        residual = np.concatenate(
            [
                rng.integers(-256, 255, size=(300, size, size), endpoint=True),
                np.where(positive, 255, -256),
                np.where(positive, -256, 255),
                np.full((1, size, size), -256),
                np.full((1, size, size), 255),
            ]
        )
        assert np.array_equal(forward_transform(residual), _reference_forward(residual))
        # The inverse sees those blocks, random 16-bit ones and the
        # column-sign 16-bit extremes.
        coeff = np.concatenate(
            [
                residual,
                rng.integers(-32768, 32767, size=(300, size, size), endpoint=True),
                _column_sign_extremes(t),
            ]
        )
        assert np.array_equal(inverse_transform(coeff), _reference_inverse(coeff))

    @pytest.mark.parametrize("size", TRANSFORM_SIZES)
    @pytest.mark.parametrize("bias", [0, 128])
    def test_float32_inverse_on_16_bit_extremes(self, size, bias):
        # The codec's target kernel: the inverse rows without the output
        # clip, with a bias in the last shift, on the column-sign extremes
        # and full-range 16-bit blocks.
        t = _MATRICES[size]
        rng = np.random.default_rng(size + bias)
        coeff = rng.integers(-32768, 32767, size=(200, size, size), endpoint=True)
        blocks = np.concatenate([_column_sign_extremes(t), coeff])
        x = _rows(blocks, np.float32)
        _transform_rows(x, np.empty_like(x), _INVERSE, bias)
        stage1 = _clip16(_round_shift(np.matmul(t.T, blocks), 7))
        expected = _round_shift(np.matmul(stage1, t) + (bias << 12), 12)
        assert np.array_equal(_blocks(x, blocks.shape), expected)
