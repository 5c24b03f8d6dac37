"""Toy intra codec: synthesis, encode/decode, rate and distortion measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_chain import _transform_plane, encode
from cpdtlab.codec import (
    DEFAULT_BLOCK_SIZE,
    MAX_PIXELS,
    PIXEL_MAX,
    PSNR_CAP,
    ContentSpec,
    EncodedPlane,
    _MID_GREY,
    _SSE_CHUNK,
    _Scorer,
    _tile,
    coeff_qstep,
    decode_plane,
    encode_plane,
    estimate_rate,
    psnr,
    synth_content,
)
from cpdtlab.cpdt import build_rd_curve, full_sweep
from cpdtlab.quantizer import QP_RANGE, qp_to_qstep
from cpdtlab.transform import (
    COEFF_MAX,
    COEFF_MIN,
    _FORWARD,
    _INVERSE,
    _INVERSE_SHIFTS,
    _MATRICES,
    _RESIDUAL_MAX,
    _RESIDUAL_MIN,
    _rows,
    orthonormal_gain,
)


class TestSynthContent:
    def test_deterministic(self):
        spec = ContentSpec(seed=9, complexity=0.5, width=48, height=40)
        a = synth_content(spec)
        b = synth_content(spec)
        assert a.dtype == np.uint8
        assert a.shape == (40, 48)
        assert np.array_equal(a, b)

    def test_seed_changes_content(self):
        a = synth_content(ContentSpec(seed=1, complexity=0.5, width=64, height=64))
        b = synth_content(ContentSpec(seed=2, complexity=0.5, width=64, height=64))
        assert not np.array_equal(a, b)

    def test_complexity_raises_rate(self):
        low = synth_content(ContentSpec(seed=3, complexity=0.1, width=96, height=96))
        high = synth_content(ContentSpec(seed=3, complexity=0.9, width=96, height=96))
        r_low = estimate_rate(encode(low, 28))
        r_high = estimate_rate(encode(high, 28))
        assert r_low < r_high
        assert r_low == pytest.approx(1.001, abs=0.05)
        assert r_high == pytest.approx(3.359, abs=0.05)

    def test_complexity_lowers_psnr(self):
        smooth = synth_content(ContentSpec(seed=3, complexity=0.0, width=96, height=96))
        busy = synth_content(ContentSpec(seed=3, complexity=1.0, width=96, height=96))
        p_smooth = psnr(smooth, decode_plane(encode(smooth, 28)))
        p_busy = psnr(busy, decode_plane(encode(busy, 28)))
        assert p_busy < p_smooth

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentSpec(seed=1, complexity=1.5)
        with pytest.raises(ValueError):
            ContentSpec(seed=1, complexity=0.5, width=0)

    def test_pixel_cap(self):
        # Only specs are built: no plane of this size is ever synthesized.
        assert 1920 * 1080 < MAX_PIXELS
        ContentSpec(seed=1, complexity=0.5, width=MAX_PIXELS, height=1)
        with pytest.raises(ValueError, match="limit"):
            ContentSpec(seed=1, complexity=0.5, width=MAX_PIXELS + 1, height=1)


class TestEncodeDecode:
    def test_qp0_is_near_lossless(self, plane64):
        recon = decode_plane(encode(plane64, 0))
        mse = float(np.mean((recon.astype(np.float64) - plane64) ** 2))
        assert mse < 0.1
        assert psnr(plane64, recon) > 50.0

    def test_uniform_plane_codes_to_zero_levels(self):
        plane = np.full((32, 32), 128, dtype=np.uint8)
        enc = encode(plane, 30)
        assert np.all(enc.levels == 0)
        assert np.array_equal(decode_plane(enc), plane)
        assert estimate_rate(enc) == 0.0

    def test_non_multiple_dimensions_crop_back(self):
        rng = np.random.default_rng(17)
        plane = rng.integers(0, 256, size=(50, 70), dtype=np.uint8)
        enc = encode(plane, 20)
        recon = decode_plane(enc)
        assert recon.shape == plane.shape
        assert recon.dtype == np.uint8

    def test_block_size_4_path(self, plane64):
        enc = encode(plane64, 24, block_size=4)
        assert enc.levels.shape == (16, 16, 4, 4)
        recon = decode_plane(enc)
        assert recon.shape == plane64.shape
        assert psnr(plane64, recon) > 30.0

    def test_coarser_qp_zeroes_more_levels(self, plane64):
        n22 = int(np.count_nonzero(encode(plane64, 22).levels))
        n51 = int(np.count_nonzero(encode(plane64, 51).levels))
        assert n51 < n22
        assert n22 == 2657
        assert n51 == 81

    def test_qstep_includes_transform_gain(self):
        assert coeff_qstep(12) == qp_to_qstep(12) * orthonormal_gain(DEFAULT_BLOCK_SIZE)
        assert coeff_qstep(12, 4) == qp_to_qstep(12) * orthonormal_gain(4)

    def test_validation(self, plane64):
        coeff = _transform_plane(plane64, DEFAULT_BLOCK_SIZE)
        with pytest.raises(ValueError):
            encode_plane(coeff, 52, plane64.shape)
        with pytest.raises(ValueError):
            encode_plane(coeff, -1, plane64.shape)
        for entry in (build_rd_curve, lambda p, **kw: full_sweep(p, [30], [30], **kw)):
            with pytest.raises(ValueError, match="unsupported transform size"):
                entry(plane64, block_size=16)
            with pytest.raises(TypeError, match="must be uint8"):
                entry(plane64.astype(np.int32))


class TestTile:
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 19), (19, 1), (7, 9), (13, 30), (8, 8), (16, 24), (5, 16), (24, 3)]
    )
    def test_matches_edge_padding(self, n, shape):
        plane = np.random.default_rng(n).integers(0, 256, size=shape, dtype=np.uint8)
        h, w = shape
        padded = np.pad(plane, ((0, -h % n), (0, -w % n)), mode="edge")
        expected = padded.reshape(padded.shape[0] // n, n, -1, n).swapaxes(1, 2)
        tiled = _tile(plane, n)
        assert tiled.dtype == plane.dtype
        assert np.array_equal(tiled, expected)
        # A plane of whole blocks is split without a copy.
        assert np.shares_memory(tiled, plane) == (h % n == 0 and w % n == 0)


class TestEstimateRate:
    def test_two_symbol_plane_is_one_bit(self):
        levels = np.zeros((1, 1, 8, 8), dtype=np.int64)
        levels[0, 0, :, :4] = 5  # half one level, half another
        enc = EncodedPlane(qp=20, width=8, height=8, levels=levels)
        assert estimate_rate(enc) == 1.0

    def test_rate_decreases_with_qp(self, plane64):
        assert estimate_rate(encode(plane64, 38)) < estimate_rate(encode(plane64, 22))

    def test_rate_is_positive_zero_for_flat_input(self):
        # All-zero levels give entropy -(1 * log2(1)) == -0.0 before
        # normalization; the CSV writers must never see "-0".
        plane = np.full((16, 16), 128, dtype=np.uint8)
        rate = estimate_rate(encode(plane, 40))
        assert rate == 0.0
        assert str(rate) == "0.0"  # not -0.0

    def test_off_center_flat_plane_keeps_dc_levels(self):
        plane = np.full((16, 16), 77, dtype=np.uint8)
        enc = encode(plane, 40)
        assert int(np.count_nonzero(enc.levels)) == 4  # one DC level per block
        assert estimate_rate(enc) > 0.0


class TestPsnr:
    def test_identical_hits_cap(self, plane64):
        assert psnr(plane64, plane64) == PSNR_CAP

    def test_unit_mse_reference_value(self):
        a = np.zeros((100, 100), dtype=np.uint8)
        b = a.copy()
        b[::2, :] = 1  # exactly half the pixels off by one
        expected = 10 * np.log10(255.0**2 / 0.5)
        assert psnr(a, b) == pytest.approx(expected, abs=1e-9)
        c = a.copy()
        c[:, :] = 1  # MSE exactly 1
        assert psnr(a, c) == pytest.approx(48.1308036086791, abs=1e-4)

    def test_symmetry(self, plane64):
        other = decode_plane(encode(plane64, 30))
        assert psnr(plane64, other) == psnr(other, plane64)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8))


class TestRdMonotonicity:
    def test_full_curve_monotone_on_fixture(self, curve64):
        qps = [s.qp for s in curve64.samples]
        assert qps == list(QP_RANGE)
        rates = [s.rate for s in curve64.samples]
        psnrs = [s.psnr for s in curve64.samples]
        for hi, lo in zip(rates, rates[1:]):
            assert lo < hi - 1e-9
        for hi, lo in zip(psnrs, psnrs[1:]):
            assert lo < hi - 1e-9


def _plain_chain(plane, coeff, qp):
    enc = encode_plane(coeff, qp, plane.shape)
    return estimate_rate(enc), psnr(plane, decode_plane(enc))


# Coefficient magnitudes: all-zero levels at every qp (|c| < 2/3 of the
# smallest step), a moderate spread, and the 16-bit range with its +-32768
# extremes, which overflow the inverse transform's first stage.
_COEFF_SPANS = {"zero-levels": 6, "moderate": 3000, "full": 32768}


class TestScorerMatchesPlainChain:
    """_Scorer gives the plain quantize/decode/rate/PSNR chain's numbers, bit for bit."""

    @given(
        block_size=st.sampled_from([4, 8]),
        height=st.integers(1, 21),
        width=st.integers(1, 21),
        span=st.sampled_from(sorted(_COEFF_SPANS)),
        extremes=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        qps=st.lists(st.sampled_from(QP_RANGE), min_size=1, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_coefficient_fields(self, block_size, height, width, span, extremes, seed, qps):
        rng = np.random.default_rng(seed)
        plane = rng.integers(0, 255, size=(height, width), endpoint=True).astype(np.uint8)
        by, bx = -(-height // block_size), -(-width // block_size)
        limit = _COEFF_SPANS[span]
        coeff = rng.integers(-limit, limit, size=(by, bx, block_size, block_size), endpoint=True)
        if extremes:
            coeff.flat[rng.integers(0, coeff.size, coeff.size // 2 + 1)] = rng.choice(
                [-32768, 32768], coeff.size // 2 + 1
            )
        got = _Scorer(plane, block_size).score(_rows(coeff), qps)
        assert got == [_plain_chain(plane, coeff, qp) for qp in qps]

    @pytest.mark.parametrize("block_size", [4, 8])
    def test_stage_one_clip(self, block_size):
        # Every coefficient at +32768: the first inverse stage overflows 16 bits.
        coeff = np.full((2, 3, block_size, block_size), 32768)
        plane = np.zeros((2 * block_size - 1, 3 * block_size - 1), dtype=np.uint8)
        qps = [0, 51]
        assert _Scorer(plane, block_size).score(_rows(coeff), qps) == [
            _plain_chain(plane, coeff, qp) for qp in qps
        ]

    @pytest.mark.parametrize("block_size", [4, 8])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_16_bit_extremes_with_matrix_column_signs(self, block_size, sign):
        # Every coefficient at +32767 or -32768 with the sign of its matrix
        # column (then the negated field): at low qps these dequantize to the
        # extremes, where the float32 inverse's first-pass sums are largest.
        t = _MATRICES[block_size]
        field = np.where(sign * t > 0, 32767, -32768)
        coeff = np.broadcast_to(field, (2, 3, block_size, block_size))
        rng = np.random.default_rng(block_size)
        plane = rng.integers(0, 256, size=(2 * block_size - 1, 3 * block_size), dtype=np.uint8)
        assert _Scorer(plane, block_size).score(_rows(coeff), QP_RANGE) == [
            _plain_chain(plane, coeff, qp) for qp in QP_RANGE
        ]

    @pytest.mark.parametrize(
        "block",
        [
            [[19424, -15168, -19040, 0], [26368, -13792, -8864, 1376], [0, 0, 0, 0],
             [21184, 3040, 14176, -9504]],
            [[22480, -6704, 0, -13696, -15216, 19344, -22272, -18976],
             [-4608, 1232, 32, -4224, -592, -560, 2176, 0],
             [14080, -3296, 11424, -8128, -2960, 0, -11568, 1488],
             [-2672, 2608, -960, 0, 0, 512, 1296, -1952],
             [5008, 1600, 2288, 4128, -2800, -2128, -4144, 0],
             [-12784, 0, 0, -4928, 7552, 5056, 0, -8880],
             [464, -432, 176, 144, 0, 0, 0, -80], [0] * 8],
        ],
        ids=[4, 8],
    )
    def test_first_pass_on_32768(self, block):
        # At qp 4 this block dequantizes to itself, and one stage-1 value
        # rounds to 32768: the clip must bite, and its 1 moves a pixel.  The
        # certificate's bound lies between 32767 * 128 and 32768 * 128, so a
        # limit one step too loose would skip that clip.
        coeff = np.array(block)
        t = _MATRICES[coeff.shape[0]]
        assert ((t.T @ coeff + 64) >> 7).max() == 32768
        bound = (np.abs(coeff).max(axis=1) @ np.abs(t)).max()
        assert 32767 * 128 < bound <= 32768 * 128
        coeff = np.stack([coeff, -coeff])[None]
        plane = np.random.default_rng(0).integers(0, 256, (len(block), 2 * len(block)), np.uint8)
        assert _Scorer(plane, len(block)).score(_rows(coeff), [4, 5]) == [
            _plain_chain(plane, coeff, qp) for qp in [4, 5]
        ]

    @pytest.mark.parametrize("shape", [(64, 64), (128, 128), (255, 257), (256, 256)])
    @pytest.mark.parametrize("field", ["zero", "own", "negated"])
    def test_squared_error_above_2_to_24(self, shape, field):
        # A random reference decoded from zero levels (mid-grey) has a sum of
        # squared errors above 2^24, past what one float32 sum holds exactly.
        plane = np.random.default_rng(shape[1]).integers(0, 256, size=shape, dtype=np.uint8)
        assert int(((plane.astype(np.int64) - _MID_GREY) ** 2).sum()) > 2**24
        own = _transform_plane(plane, 8)
        coeff = {"zero": np.zeros_like(own), "own": own, "negated": -own}[field]
        qps = range(0, 52, 3)
        assert _Scorer(plane, 8).score(_rows(coeff), qps) == [
            _plain_chain(plane, coeff, qp) for qp in qps
        ]

    @pytest.mark.parametrize("block_size", [4, 8])
    def test_constant_plane(self, block_size):
        # Mid-grey transforms to all-zero coefficients: one distinct value,
        # zero rate, and a lossless decode.
        plane = np.full((13, 11), 128, dtype=np.uint8)
        coeff = _transform_plane(plane, block_size)
        assert np.unique(coeff).tolist() == [0]
        scores = _Scorer(plane, block_size).score(_rows(coeff), QP_RANGE)
        assert scores == [(0.0, PSNR_CAP)] * len(QP_RANGE)
        assert scores == [_plain_chain(plane, coeff, qp) for qp in QP_RANGE]


class TestFloat32Bounds:
    """The bounds that make the float32 transforms and the scorer exact
    (transform's module docstring and _Scorer): every sum below 2^24 steps."""

    exact = 2 ** (np.finfo(np.float32).nmant + 1)

    def test_inverse_sums(self):
        first, second = _INVERSE_SHIFTS
        for n, t in _MATRICES.items():
            # Each first-pass sum meets one matrix column; the second pass
            # reads clipped 16-bit values and adds the bias and the rounding.
            column_l1 = int(np.abs(t).sum(axis=0).max())
            assert column_l1 * -COEFF_MIN + (1 << (first - 1)) < self.exact
            assert column_l1 * -COEFF_MIN + (_MID_GREY << second) + (1 << (second - 1)) < self.exact
            # The kernel adds those through the DC inputs, which T's all-64
            # DC row weights by 1/2 and 2^-6: 1 into pass 1, and
            # (1/2 + 128) * 2^6 = 8224 into pass 2, onto 16-bit values.
            assert [operand[:, 0].tolist() for operand in _INVERSE[n]] == [[0.5] * n, [2**-6] * n]
            assert (0.5 + _MID_GREY) * 2**6 == 8224
            reach = np.full(n, -COEFF_MIN)
            for dc in (COEFF_MAX + 1, COEFF_MAX + 8224):
                reach[0] = dc
                assert int((reach @ np.abs(t)).max()) < self.exact
        assert int(np.abs(_MATRICES[8]).sum(axis=0).max()) == 479

    def test_forward_sums(self):
        def shift(x, s):
            return (x + (1 << (s - 1))) >> s

        for n, t in _MATRICES.items():
            # The operands carry HEVC's shifts log2(N) - 1, then log2(N) + 6.
            shifts = first, second = n.bit_length() - 2, n.bit_length() + 5
            for operand, s in zip(_FORWARD[n], shifts):
                assert np.array_equal(operand, t * 2.0**-s)
            up, down = np.where(t > 0, t, 0).sum(axis=1), np.where(t < 0, t, 0).sum(axis=1)
            # Pass 1 meets one matrix row per sum, on residuals; its extremes
            # by row set the range of each value pass 2 reads in that row.
            top = up * _RESIDUAL_MAX + down * _RESIDUAL_MIN
            bottom = up * _RESIDUAL_MIN + down * _RESIDUAL_MAX
            assert max(top.max(), -bottom.min()) + (1 << (first - 1)) < self.exact
            top, bottom = shift(top, first), shift(bottom, first)
            assert COEFF_MIN <= bottom.min() and top.max() <= COEFF_MAX  # no first clip
            # Pass 2: output (i, j) meets row i of pass 1 and matrix row j.  A
            # row's sum and rounding are multiples of the gcd of its entries
            # and the rounding: 64 for the rows of +-64, a power of two that
            # frees six mantissa bits, and 1 elsewhere.
            high = np.outer(top, up) + np.outer(bottom, down)
            low = np.outer(bottom, up) + np.outer(top, down)
            steps = np.gcd.reduce(np.abs(t), axis=1, initial=1 << (second - 1))
            assert set(steps.tolist()) == {1, 64}
            assert np.all((np.maximum(high, -low) + (1 << (second - 1))) // steps < self.exact)
            # The output needs no clip: it reaches -32768 but not +32768.
            assert shift(low, second).min() == COEFF_MIN
            assert shift(high, second).max() <= COEFF_MAX
        flat = np.all(np.abs(_MATRICES[8]) == 64, axis=1)
        assert int(np.abs(_MATRICES[8][~flat]).sum(axis=1).max()) == 476

    def test_squared_error_chunks(self):
        assert _SSE_CHUNK * PIXEL_MAX**2 < self.exact
