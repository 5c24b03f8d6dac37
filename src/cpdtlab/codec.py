"""A deliberately small intra-only block codec for transcoding experiments.

The pipeline is the minimum that still exhibits real rate-distortion
behavior: tile the plane into NxN blocks (edge replication padding), center
samples by 128, integer-transform each block, dead-zone quantize every
coefficient with step qp_to_qstep(qp) * orthonormal_gain(N) and a 1/3 intra
dead-zone offset, and count the cost of the level symbols with a zeroth-order
entropy model.  No prediction, no in-loop filters, no signal-dependent
adaptation, so that cascaded re-encoding isolates exactly the requantization
and clipping effects under study.

Rate is an estimate (Shannon entropy of the level histogram, bits/sample),
not a real bitstream; it is deterministic and monotone enough in qp to build
rate-distortion curves.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .quantizer import qp_to_qstep
from .transform import (
    COEFF_MAX,
    COEFF_MIN,
    _INVERSE,
    _rows,
    _transform_rows,
    forward_transform,
    inverse_transform,
    orthonormal_gain,
)

__all__ = [
    "PIXEL_MAX",
    "PSNR_CAP",
    "CODEC_DEADZONE_OFFSET",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_PLANE_SIZE",
    "MAX_PIXELS",
    "EncodedPlane",
    "ContentSpec",
    "coeff_qstep",
    "encode_plane",
    "decode_plane",
    "estimate_rate",
    "psnr",
    "synth_content",
]

PIXEL_MAX = 255

# PSNR sentinel for identical (or indistinguishably close) planes.
PSNR_CAP = 99.99

# Intra-style dead-zone rounding offset used by the codec path.
CODEC_DEADZONE_OFFSET = 1.0 / 3.0

DEFAULT_BLOCK_SIZE = 8

# Mid-grey: samples are centred by it before the transform and restored after.
_MID_GREY = 128

# Width and height of a synthetic plane unless the caller picks others.
DEFAULT_PLANE_SIZE = 256

# Largest synthetic plane: 2048x2048, room for 1920x1080.  synth_content holds
# several float64 arrays of this many values.
MAX_PIXELS = 1 << 22


@dataclass(frozen=True)
class EncodedPlane:
    """Quantized transform levels for one plane.

    levels has shape (blocks_y, blocks_x, N, N); together with qp and the
    block size it fully determines the decoded plane.
    """

    qp: int
    block_size: int
    width: int
    height: int
    levels: np.ndarray


@dataclass(frozen=True)
class ContentSpec:
    """Parameters of the synthetic test content generator; at most MAX_PIXELS
    samples, so a typo in a dimension fails at once instead of allocating."""

    seed: int
    complexity: float
    width: int = DEFAULT_PLANE_SIZE
    height: int = DEFAULT_PLANE_SIZE

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.complexity <= 1.0:
            raise ValueError(f"complexity must be in [0, 1], got {self.complexity}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"bad dimensions {self.width}x{self.height}")
        if self.width * self.height > MAX_PIXELS:
            raise ValueError(
                f"{self.width}x{self.height} has {self.width * self.height} pixels; "
                f"the limit is {MAX_PIXELS}"
            )


def _check_plane(plane: np.ndarray, name: str = "plane") -> np.ndarray:
    plane = np.asarray(plane)
    if plane.ndim != 2 or plane.size == 0:
        raise ValueError(f"{name} must be 2-D with at least one sample, got shape {plane.shape}")
    if plane.dtype != np.uint8:
        raise TypeError(f"{name} must be uint8, got {plane.dtype}")
    return plane


def coeff_qstep(qp: int, block_size: int = DEFAULT_BLOCK_SIZE) -> float:
    """Quantization step in integer-coefficient units.

    qp_to_qstep(qp) is defined on the orthonormal-coefficient scale; the
    integer transform carries a gain of orthonormal_gain(N) over that scale,
    so the coefficient-domain step is the product of the two.
    """
    return qp_to_qstep(qp) * orthonormal_gain(block_size)


def _tile(plane: np.ndarray, n: int) -> np.ndarray:
    """Pad to multiples of n with edge replication and split into blocks.

    A plane already a multiple of n is split as a view, without a copy.
    """
    for axis, size in enumerate(plane.shape):
        if size % n:
            plane = plane.take(np.arange(-(-size // n) * n), axis=axis, mode="clip")
    by, bx = plane.shape[0] // n, plane.shape[1] // n
    return plane.reshape(by, n, bx, n).swapaxes(1, 2)


def _untile(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    by, bx, n, _ = blocks.shape
    full = blocks.swapaxes(1, 2).reshape(by * n, bx * n)
    return full[:height, :width]


def _transform_plane(plane: np.ndarray, block_size: int) -> np.ndarray:
    """Tile a uint8 plane, center it by _MID_GREY and forward-transform every block.

    The coefficients do not depend on qp, so a caller scoring one plane at
    many qps transforms it once.
    """
    plane = _check_plane(plane)
    orthonormal_gain(block_size)  # the size check, before _tile divides by it
    return forward_transform(_tile(plane, block_size).astype(np.int16) - _MID_GREY)


def _quantize(coeff: np.ndarray, qp: int, block_size: int) -> np.ndarray:
    """The dead-zone law sign(c) * floor(|c| / step + offset), as int32 levels."""
    # In place on one float array.
    scaled = np.abs(coeff) / coeff_qstep(qp, block_size)
    scaled += CODEC_DEADZONE_OFFSET
    np.floor(scaled, out=scaled)
    scaled *= np.sign(coeff)
    return scaled.astype(np.int32)


def _dequantize(levels: np.ndarray, qp: int, block_size: int) -> np.ndarray:
    """Reconstructed coefficients rint(level * step), clipped to 16 bits, as float64."""
    coeff = levels * coeff_qstep(qp, block_size)
    np.rint(coeff, out=coeff)
    return np.clip(coeff, COEFF_MIN, COEFF_MAX, out=coeff)


def _quantize_plane(coeff: np.ndarray, qp: int, shape: tuple[int, int]) -> EncodedPlane:
    """Dead-zone quantize _transform_plane coefficients of a plane of `shape` at qp."""
    block_size = coeff.shape[-1]
    h, w = shape
    return EncodedPlane(
        qp=qp, block_size=block_size, width=w, height=h, levels=_quantize(coeff, qp, block_size)
    )


def encode_plane(
    plane: np.ndarray, qp: int, block_size: int = DEFAULT_BLOCK_SIZE
) -> EncodedPlane:
    """Transform and quantize a uint8 plane.

    Quantization is the dead-zone law level = sign(c) * floor(|c|/step + 1/3)
    on the integer transform coefficients; the step follows coeff_qstep(qp).
    """
    coeff = _transform_plane(plane, block_size)
    return _quantize_plane(coeff, qp, np.shape(plane))


def decode_plane(enc: EncodedPlane) -> np.ndarray:
    """Reconstruct a uint8 plane from quantized levels."""
    coeff = _dequantize(enc.levels, enc.qp, enc.block_size).astype(np.int16)
    residual = inverse_transform(coeff)
    # In place: fresh plane-sized temporaries cost more than the arithmetic on them.
    residual += _MID_GREY
    pixels = np.clip(residual, 0, PIXEL_MAX, out=residual).astype(np.uint8)
    return _untile(pixels, enc.height, enc.width)


def _rate_from_counts(counts: np.ndarray, symbols: int, samples: int) -> float:
    """Entropy rate in bits per sample from a level histogram in ascending level order."""
    probs = counts / symbols
    entropy = float(-(probs * np.log2(probs)).sum()) + 0.0  # -0.0 -> 0.0
    return entropy * symbols / samples


def estimate_rate(enc: EncodedPlane) -> float:
    """Zeroth-order entropy of the level symbols, in bits per source sample.

    An all-zero level field costs exactly 0 by this model.  Padding blocks
    are included in the histogram, so the symbol count is normalized by the
    true sample count of the plane.
    """
    levels = enc.levels.ravel()
    _, counts = np.unique(levels, return_counts=True)
    return _rate_from_counts(counts, levels.size, enc.width * enc.height)


def _psnr_from_sse(sse: int, samples: int) -> float:
    """PSNR in dB from an exact sum of squared 8-bit errors over `samples` samples."""
    mse = sse / samples
    if mse == 0.0:
        return PSNR_CAP
    return float(min(10.0 * np.log10(PIXEL_MAX * PIXEL_MAX / mse), PSNR_CAP))


def psnr(reference: np.ndarray, test: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 planes.

    Identical planes return the 99.99 dB sentinel; any computed value is
    capped there so the sentinel is the scale's top.
    """
    a = _check_plane(reference, "reference")
    b = _check_plane(test, "test")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    # Squares of 8-bit differences summed in float64: exact below 2^53, that
    # is for any plane under 2^37 samples, whatever order BLAS sums in.
    diff = np.subtract(a, b, dtype=np.float64).ravel()
    return _psnr_from_sse(int(diff @ diff), diff.size)


def _distinct_values(coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of an integer block array in ascending order, their
    counts, and each value's index among them in the (row, col, block) layout.

    One sort finds the values.  The indices come through a table over the
    value span that is written only at the distinct values, so no step costs
    O(span) however few samples the plane has.
    """
    ordered = np.sort(coeff, axis=None).astype(np.intp, copy=False)
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    values, counts = ordered[starts], np.diff(starts, append=ordered.size)
    lowest = values[0]
    table = np.empty(values[-1] - lowest + 1, dtype=np.intp)
    table[values - lowest] = np.arange(values.size)
    offsets = _rows(coeff, np.intp)
    offsets -= lowest
    return values, counts, np.take(table, offsets)


# The squared errors of a target are summed in float32 chunks of this many
# samples: a chunk's sum is at most 256 * 255^2 < 2^24, so it is exact.
_SSE_CHUNK = 256


class _Scorer:
    """Rate and PSNR of coefficient planes against one reference plane.

    score(coeff, qps) gives, for each qp, exactly the pair
    (estimate_rate(enc), psnr(reference, decode_plane(enc))) with
    enc = _quantize_plane(coeff, qp, reference.shape), but quantizes and
    dequantizes only the distinct coefficient values.  The same float
    formulas run on the same values, so:

    - the dequantized values, gathered as float32 into the transform's
      (row, col, block) layout, give decode_plane's pixels: they are clipped
      to 16 bits, where the float32 inverse is exact (see transform), and
      +_MID_GREY is folded into the last shift;
    - the dead-zone law is monotone, so merging the counts of neighbouring
      values with equal levels gives the level histogram in ascending level
      order, the order estimate_rate sums it in;
    - the squared error is an exact integer sum against the reference, tiled
      once into the same layout as float32 with the padding samples zeroed:
      each difference is at most 255, so its square is exact in float32; one
      float32 GEMV sums the squares in chunks of _SSE_CHUNK, each exact below
      2^24, and the chunk sums are added in float64.

    The work buffers live for one score() call.
    """

    def __init__(self, reference: np.ndarray, block_size: int):
        plane = _check_plane(reference, "reference")
        h, w = plane.shape
        blocks = _tile(plane, block_size)
        by, bx = blocks.shape[:2]
        outside = np.ones((by * block_size, bx * block_size), dtype=bool)
        outside[:h, :w] = False
        self.samples = h * w
        self.rows = _rows(blocks, np.float32)
        self.padding = np.flatnonzero(_rows(_tile(outside, block_size)))

    def score(self, coeff: np.ndarray, qps: Iterable[int]) -> list[tuple[float, float]]:
        """(rate, PSNR) of the coefficient plane at each qp, in order."""
        block_size = coeff.shape[-1]
        values, counts, gather = _distinct_values(coeff)
        # x is the head of a buffer zero-padded to whole chunks; the tail stays zero.
        buffer = np.zeros(-(-gather.size // _SSE_CHUNK) * _SSE_CHUNK, dtype=np.float32)
        x = buffer[: gather.size].reshape(gather.shape)
        work = np.empty_like(x)
        chunks = buffer.reshape(-1, _SSE_CHUNK)
        ones = np.ones(_SSE_CHUNK, dtype=np.float32)
        new_level = np.empty(values.size, dtype=bool)
        new_level[0] = True
        scores = []
        for qp in qps:
            levels = _quantize(values, qp, block_size)
            np.not_equal(levels[1:], levels[:-1], out=new_level[1:])
            histogram = np.add.reduceat(counts, np.flatnonzero(new_level))
            rate = _rate_from_counts(histogram, coeff.size, self.samples)
            table = _dequantize(levels, qp, block_size).astype(np.float32)
            np.take(table, gather, out=x, mode="clip")
            _transform_rows(x, work, _INVERSE, bias=_MID_GREY)
            np.clip(x, 0, PIXEL_MAX, out=x)
            x -= self.rows
            np.square(x, out=x)
            buffer[self.padding] = 0.0
            sse = int(np.sum(chunks @ ones, dtype=np.float64))
            scores.append((rate, _psnr_from_sse(sse, self.samples)))
        return scores


def synth_content(spec: ContentSpec) -> np.ndarray:
    """Deterministic synthetic plane: shaped noise over a diagonal gradient.

    White noise is low-pass filtered with a cutoff that rises with the
    complexity knob (0 = smooth blobs, 1 = full-band texture), scaled to a
    fixed variance, and added to a gradient that overdrives the 8-bit range,
    so every plane carries saturated plateaus at 0 and 255.  Those plateaus
    matter: coherent clipping at their borders is what keeps re-encoding a
    decoded plane honestly lossy.  Same spec, same platform -> identical
    planes.
    """
    h, w = spec.height, spec.width
    rng = np.random.default_rng(spec.seed)
    noise = rng.standard_normal((h, w))

    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    radius = np.hypot(fy, fx) / 0.5  # 1.0 at the Nyquist corner
    cutoff = 0.03 + 0.97 * spec.complexity
    response = 1.0 / (1.0 + (radius / cutoff) ** 8)
    shaped = np.fft.irfft2(np.fft.rfft2(noise) * response, s=(h, w))
    shaped /= max(float(shaped.std()), 1e-12)

    yy = np.linspace(0.0, 1.0, h)[:, None]
    xx = np.linspace(0.0, 1.0, w)[None, :]
    gradient = -24.0 + 304.0 * (0.62 * xx + 0.38 * yy)

    img = gradient + 44.0 * shaped
    return np.clip(np.rint(img), 0, PIXEL_MAX).astype(np.uint8)
