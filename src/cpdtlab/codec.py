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

from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quantizer import qp_to_qstep
from .transform import (
    COEFF_MAX,
    COEFF_MIN,
    _FORWARD,
    _INVERSE,
    _blocks,
    _first_pass_fits,
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

    levels has shape (blocks_y, blocks_x, N, N); together with qp it fully
    determines the decoded plane.
    """

    qp: int
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


def _qstep(qp, block_size: int):
    """coeff_qstep(qp, block_size), or for a list of qps a column of their steps."""
    if isinstance(qp, list):
        return np.array([coeff_qstep(q, block_size) for q in qp])[:, None]
    return coeff_qstep(qp, block_size)


def _quantize(coeff: np.ndarray, qp, block_size: int) -> np.ndarray:
    """The dead-zone law sign(c) * floor(|c| / step + offset), as int32 levels;
    for a list of qps and 1-D coeff, row k holds the levels at qp[k]."""
    # In place on one float array.
    scaled = np.abs(coeff) / _qstep(qp, block_size)
    scaled += CODEC_DEADZONE_OFFSET
    np.floor(scaled, out=scaled)
    scaled *= np.sign(coeff)
    return scaled.astype(np.int32)


def _dequantize(levels: np.ndarray, qp, block_size: int) -> np.ndarray:
    """Reconstructed coefficients rint(level * step), clipped to 16 bits, as
    float64; qp is a qp, or a list of qps for _quantize's rows of levels."""
    coeff = levels * _qstep(qp, block_size)
    np.rint(coeff, out=coeff)
    return np.clip(coeff, COEFF_MIN, COEFF_MAX, out=coeff)


def encode_plane(coeff: np.ndarray, qp: int, shape: tuple[int, int]) -> EncodedPlane:
    """Quantize the (blocks_y, blocks_x, N, N) coefficients of a plane of `shape` at qp.

    Quantization is the dead-zone law level = sign(c) * floor(|c|/step + 1/3)
    on the integer transform coefficients; the step follows coeff_qstep(qp, N)
    for the coefficients' block size N.
    """
    h, w = shape
    return EncodedPlane(qp=qp, width=w, height=h, levels=_quantize(coeff, qp, coeff.shape[-1]))


def decode_plane(enc: EncodedPlane) -> np.ndarray:
    """Reconstruct a uint8 plane from quantized levels."""
    coeff = _dequantize(enc.levels, enc.qp, enc.levels.shape[-1]).astype(np.int16)
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
    """The distinct values of (N, N * blocks) rows of integers (of an integer
    dtype, or exact in float32) in ascending order, as intp, their counts,
    and each value's index among them, in the rows' layout.

    One sort finds the values.  The indices come through a table over the
    value span that is written only at the distinct values, so no step costs
    O(span) however few samples the plane has.
    """
    ordered = np.sort(coeff, axis=None).astype(np.intp, copy=False)
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    values, counts = ordered[starts], np.empty_like(starts)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1] = ordered.size - starts[-1]
    lowest = values[0]
    table = np.empty(values[-1] - lowest + 1, dtype=np.intp)
    table[values - lowest] = np.arange(values.size)
    offsets = coeff.astype(np.intp)
    offsets -= lowest
    return values, counts, np.take(table, offsets)


# The squared errors of a target are summed in float32 chunks of this many
# samples: a chunk's sum is at most 256 * 255^2 < 2^24, so it is exact.
_SSE_CHUNK = 256

# Most (qp, distinct value) entries that one law block quantizes and
# dequantizes at once.
_LAW_BLOCK = 1 << 15


class _Scorer:
    """Rate and PSNR of coefficient rows against the one plane it owns.

    It checks the block size and the plane, tiles the plane once into the
    transform's (row, col, block) layout, and holds the plane's coefficient
    rows, coeff, from one forward_transform.  Coefficients go in and come
    out as (N, N * blocks) rows in that layout (transform._rows of blocks).

    score(coeff, qps) gives, for each qp, exactly the pair
    (estimate_rate(enc), psnr(plane, decode_plane(enc))), enc being the
    encode_plane of coeff's blocks at qp, but quantizes and dequantizes only
    the distinct coefficient values, for a block of qps at a time
    (_law_block: one call each of _quantize and _dequantize on a column of
    qps, at most _LAW_BLOCK (qp, value) entries).  The same float formulas
    run on the same values, so:

    - the dequantized values, gathered as float32 into the rows, give
      decode_plane's pixels: they are clipped to 16 bits, where the float32
      inverse is exact (see transform), and +_MID_GREY is folded into the
      last shift;
    - in a block of two or more qps, each qp's stage-1 clip is skipped when
      transform._first_pass_fits certifies it cannot bite.  The table does
      not decrease along the values, so a coefficient row's largest |value|
      sits at its least or greatest value index, found once per call.  A
      one-qp block keeps its clip: the test would cost more than it saves;
    - the dead-zone law is monotone, so merging the counts of neighbouring
      values with equal levels gives the level histogram in ascending level
      order, the order estimate_rate sums it in;
    - the squared error is an exact integer sum against the plane's rows,
      held as float32 with the padding samples zeroed: each difference is
      at most 255, so its square is exact in float32; one stacked float32
      dot per chunk of _SSE_CHUNK samples sums them, every partial sum an
      integer below 2^24, and the chunk sums are added in float64.

    _scores(coeff, qps, source_qps) runs the same per-qp body as a generator,
    and at each qp in source_qps it also hands back the reconstruction's
    coefficient rows: those of decode_plane(enc), tiled, centred and
    forward-transformed, as float32 rows that score() and _scores() take
    like any other.  They are built from the clipped rows before the
    squared error overwrites them, and they are exact:

    - the clipped rows hold decode_plane's pixels, integers in [0, 255];
    - subtracting _MID_GREY out of place leaves float32 values in
      [-128, 127], inside the forward transform's domain;
    - one scatter copies into each padding position the edge sample _tile
      copies there (edges, built once per scorer, holds one index per
      padding position; a plane of whole blocks has none);
    - _transform_rows(..., _FORWARD) is the body forward_transform runs on
      the same float32 values, and its outputs are integers.

    The work buffers live as long as one score() call or one _scores()
    generator; handed-back rows live as long as their caller holds them.
    """

    def __init__(self, plane: np.ndarray, block_size: int):
        orthonormal_gain(block_size)  # the size check, before _tile divides by it
        plane = _check_plane(plane)
        h, w = plane.shape
        blocks = _tile(plane, block_size)
        self.samples = h * w
        self.rows = _rows(blocks, np.float32)
        self.coeff = _rows(forward_transform(blocks.astype(np.int16) - _MID_GREY))
        # The rows position of the sample _tile copies to each position:
        # itself inside the plane, an edge sample in the padding.
        layout = np.arange(self.rows.size).reshape(self.rows.shape)
        replicate = _rows(_tile(_untile(_blocks(layout, blocks.shape), h, w), block_size))
        self.padding = np.flatnonzero(replicate != layout)
        self.edges = replicate.ravel()[self.padding]

    def score(self, coeff: np.ndarray, qps: Iterable[int]) -> list[tuple[float, float]]:
        """(rate, PSNR) of the coefficient rows at each qp, in order."""
        return [(rate, db) for rate, db, _ in self._scores(coeff, qps)]

    def _scores(
        self, coeff: np.ndarray, qps: Iterable[int], source_qps: Container[int] = ()
    ) -> Iterator[tuple[float, float, Optional[np.ndarray]]]:
        """(rate, PSNR, source) of the coefficient rows at each qp, in order;
        source is the reconstruction's coefficient rows at a qp in
        source_qps, else None."""
        values, counts, gather = _distinct_values(coeff)
        # x is the head of a buffer zero-padded to whole chunks; the tail stays zero.
        buffer = np.zeros(-(-gather.size // _SSE_CHUNK) * _SSE_CHUNK, dtype=np.float32)
        x = buffer[: gather.size].reshape(gather.shape)
        work = np.empty_like(x)
        chunks = buffer.reshape(-1, _SSE_CHUNK)
        left, right = chunks[:, None, :], chunks[:, :, None]
        dots = np.empty((chunks.shape[0], 1, 1), dtype=np.float32)
        qps = list(qps)
        # Each coefficient row's least and greatest value index: the reach of its recon.
        ends = np.stack([gather.min(axis=1), gather.max(axis=1)]) if len(qps) > 1 else None
        per_block = max(1, _LAW_BLOCK // values.size)
        for start in range(0, len(qps), per_block):
            block = qps[start : start + per_block]
            for qp, (rate, table, fit) in zip(block, self._law_block(values, counts, block, ends)):
                np.take(table, gather, out=x, mode="clip")
                _transform_rows(x, work, _INVERSE, bias=_MID_GREY, clip=not fit)
                np.clip(x, 0, PIXEL_MAX, out=x)
                source = None
                if qp in source_qps:
                    source = x - _MID_GREY
                    flat = source.reshape(-1)
                    flat[self.padding] = flat[self.edges]
                    _transform_rows(source, work, _FORWARD)
                x -= self.rows
                buffer[self.padding] = 0.0
                np.matmul(left, right, out=dots)
                sse = int(np.sum(dots, dtype=np.float64))
                yield rate, _psnr_from_sse(sse, self.samples), source

    def _law_block(self, values: np.ndarray, counts: np.ndarray, block: list, ends) -> list:
        """(rate, float32 recon table, clip-free) of the distinct values with
        these counts at each qp of block; ends are the rows' value index bounds."""
        n, symbols = self.rows.shape[0], self.rows.size
        qp = block if len(block) > 1 else block[0]
        levels = _quantize(values, qp, n).reshape(len(block), -1)
        recon = _dequantize(levels, qp, n)
        fits = [False] * len(block)
        if len(block) > 1:
            fits = _first_pass_fits(np.abs(recon[:, ends]).max(axis=1))
        new_level = np.empty(levels.shape, dtype=bool)
        new_level[:, 0] = True
        np.not_equal(levels[:, 1:], levels[:, :-1], out=new_level[:, 1:])
        histograms = [np.add.reduceat(counts, np.flatnonzero(row)) for row in new_level]
        rates = [_rate_from_counts(h, symbols, self.samples) for h in histograms]
        return list(zip(rates, recon.astype(np.float32), fits))


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
