"""Integer core transform (4x4 and 8x8) with 16-bit staged clipping.

The matrices and shift schedule follow the H.265/HEVC core transform
(ISO/IEC 23008-2 section 8.6; transformation process for scaled transform
coefficients): two separable one-dimensional passes, a rounded right-shift
after each pass, and every intermediate clipped to signed 16 bits, sign bit
included.  For 8-bit video (9-bit residuals in [-256, 255]):

    forward shifts:  log2(N) - 1, then log2(N) + 6
    inverse shifts:  7, then 12

The integer chain carries a fixed gain over the orthonormal DCT-II:
``orthonormal_gain(N) = 128 / N`` (16 for 8x8, 32 for 4x4), so a constant
block of value v transforms to a DC coefficient of 128 * v at either size.
Because of the staged shifts the 8x8 chain is deliberately not lossless: a
forward/inverse round trip may move a sample by one or two codes.  The 4x4
chain is exact on 8-bit residuals.

The work runs on a (row, col, block) layout: blocks of shape (..., N, N)
become one contiguous float array of shape (N, N * blocks), where column
j * blocks + b of row i holds sample (i, j) of block b.  The first pass,
which multiplies every block from the left by M, is then one flat 2-D GEMM,
M @ rows.  The second multiplies every block from the right by M'; on the
(N, N, blocks) view of the rows that is M @ rows[i] for each row i, a stack
of N GEMMs.  So both passes of a direction multiply by one matrix from the
left: the forward's, and the inverse's transpose.  One routine runs the two
passes of either direction in place on buffers the caller owns, for
forward_transform, inverse_transform, codec's target kernel (inverse) and
codec's source hand-back (forward, on the kernel's own clipped pixels less
128) alike.

Each pass's rounded right shift (x + 2^(s-1)) >> s is folded into its GEMM
operand: the operand is the matrix times 2^-s, so the GEMM gives x * 2^-s,
and a forward pass reads "GEMM, add 1/2, floor".  The inverse adds to its
DC inputs instead: T's DC row is all 64s, so column 0 of its operands is
1/2 and 2^-6, and 1 added to input row 0 of pass 1, and (1/2 + bias) * 2^6
(8224 at the kernel's bias 128) to pass 2's, put 1/2 (+bias) into every
sum, at 1/N of the cost of adding to the output.  The scale is a power of
two, so the scaled matrix and every product are exact, and every partial
sum is an integer multiple of 2^-s.  Such a sum is exact in a float whose
mantissa holds its number of steps of 2^-s, whatever order BLAS sums in;
floor then gives the arithmetic shift and the clips compare exact values.
So every result is the integer of the int64 reference definition.  Both
directions run in float32 (24-bit mantissa), each on the input domain it
has in an 8-bit codec, and each refuses values outside it:

- forward_transform takes residuals in [-256, 255], the inverse's own
  output range.  A first-pass sum takes at most 512 * 2^8 = 2^17 steps.  In
  the second pass the rows whose entries are all +-64 (rows 0 and 4; rows 0
  and 2 at 4 points) give multiples of 64, and every other row has L1 norm
  at most 476, so its sum takes at most 476 * 2^15 + 2^8 < 2^24 steps.  No
  stage leaves signed 16 bits: the output reaches -32768 (the DC of a
  constant -256 block) but not +32768, because the domain is asymmetric,
  so neither the forward's first pass nor its output needs a clip.
- inverse_transform takes 16-bit coefficients in [-32768, 32767], as does
  codec's target kernel.  Every column of the 8-point matrix has L1 norm
  479 (247 at 4 points), so a sum takes at most
  479 * 2^15 + 2^19 + 2^11 = 16,222,208 < 2^24 steps: the GEMM, the bias
  128 * 2^12 that the kernel adds in the last shift, and its rounding 2^11.
  The folded DC inputs stay inside it: 32767 + 1 into pass 1, whose sums
  then take at most 479 * 2^15 steps, and 32767 + 8224 into pass 2, which
  adds exactly 64 * 8224 = 2^19 + 2^11.

The inverse's stage-1 clip bites only where a rounded pass-1 value leaves
16 bits.  Pass-1 output row r is sum_i T[i, r] * x[i] over coefficient rows
i, so if |x[i]| <= reach[i] for every value of row i and
sum_i |T[i, r]| * reach[i] <= 32767 * 128 for every r, every value already
lies in [-32767, 32767] and the clip changes nothing (_first_pass_fits).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "COEFF_MIN",
    "COEFF_MAX",
    "TRANSFORM_SIZES",
    "orthonormal_gain",
    "forward_transform",
    "inverse_transform",
]

COEFF_MIN = -32768
COEFF_MAX = 32767

# Rows follow the even/odd butterfly structure of the 8-point core transform,
# generated from the constants {64, 83, 36, 89, 75, 50, 18}.
_A, _B, _C = 64, 83, 36
_D, _E, _F, _G = 89, 75, 50, 18
_T8 = np.array(
    [
        [_A, _A, _A, _A, _A, _A, _A, _A],
        [_D, _E, _F, _G, -_G, -_F, -_E, -_D],
        [_B, _C, -_C, -_B, -_B, -_C, _C, _B],
        [_E, -_G, -_D, -_F, _F, _D, _G, -_E],
        [_A, -_A, -_A, _A, _A, -_A, -_A, _A],
        [_F, -_D, _G, _E, -_E, -_G, _D, -_F],
        [_C, -_B, _B, -_C, -_C, _B, -_B, _C],
        [_G, -_F, _E, -_D, _D, -_E, _F, -_G],
    ],
    dtype=np.int64,
)

# HEVC's core matrices nest: the 4-point one is the 8-point one's even rows, left half.
_MATRICES = {4: _T8[::2, :4], 8: _T8}
TRANSFORM_SIZES = tuple(_MATRICES)
_INVERSE_SHIFTS = (7, 12)


def _operands(m: np.ndarray, shifts: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """A direction's float32 GEMM operands: its matrix times 2^-s for each
    pass's rounded right shift s."""
    return tuple(np.ascontiguousarray(m * 2.0**-s, dtype=np.float32) for s in shifts)


_FORWARD = {  # shifts log2(N) - 1, then log2(N) + 6
    n: _operands(t, (n.bit_length() - 2, n.bit_length() + 5)) for n, t in _MATRICES.items()
}
_INVERSE = {n: _operands(t.T, _INVERSE_SHIFTS) for n, t in _MATRICES.items()}

# The forward's input domain and the inverse's output range: the signed 9-bit
# residual of 8-bit video.
_RESIDUAL_MIN = -256
_RESIDUAL_MAX = 255


def orthonormal_gain(size: int) -> float:
    """Gain of the forward integer chain relative to the orthonormal DCT-II."""
    if size not in _MATRICES:
        raise ValueError(f"unsupported transform size {size}; choose from {TRANSFORM_SIZES}")
    return 128.0 / size


def _clip16(x: np.ndarray) -> np.ndarray:
    return np.clip(x, COEFF_MIN, COEFF_MAX, out=x)


def _first_pass_fits(reach: np.ndarray) -> np.ndarray:
    """The clip test of the module docstring, exact in int64, for each row of
    reach: (..., N) bounds on |x[i]| for the values of coefficient row i."""
    reach = np.asarray(reach, dtype=np.int64)
    t = np.abs(_MATRICES[reach.shape[-1]])
    return np.all(reach @ t <= COEFF_MAX << _INVERSE_SHIFTS[0], axis=-1)


def _rows(blocks: np.ndarray, dtype=None) -> np.ndarray:
    """Blocks (..., N, N) as a new contiguous (N, N * blocks) array in the
    (row, col, block) layout."""
    lead = blocks.ndim - 2
    rows = blocks.transpose(lead, lead + 1, *range(lead))
    return np.array(rows, dtype=dtype, order="C").reshape(blocks.shape[-1], -1)


def _blocks(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The (..., N, N) view of `shape` onto (row, col, block) rows; undoes _rows."""
    lead = len(shape) - 2
    rows = rows.reshape(shape[-2], shape[-1], *shape[:-2])
    return rows.transpose(*range(2, lead + 2), 0, 1)


def _transform_rows(
    x: np.ndarray, work: np.ndarray, direction: dict, bias: int = 0, clip: bool = True
) -> None:
    """One direction's two passes over float32 (row, col, block) rows x, in
    place and without an output clip; the last shift adds `bias`.

    direction is _FORWARD or _INVERSE, and x must hold values of its input
    domain (see the module docstring); work is scratch of x's shape.  The
    forward never needs its stage-1 clip; clip=False skips the inverse's,
    where _first_pass_fits holds.
    """
    n = x.shape[0]
    first, second = direction[n]
    work3 = work.reshape(n, n, -1)
    if direction is _INVERSE:
        # The operands' DC columns are 1/2 and 2^-6: these adds put 1/2,
        # then 1/2 + bias, into every sum.
        x[0] += 1.0
        np.matmul(first, x, out=work)
        np.floor(work, out=work)
        if clip:
            _clip16(work)
        work3[:, 0] += (bias + 0.5) * 64.0
        np.matmul(second, work3, out=x.reshape(n, n, -1))
    else:
        np.matmul(first, x, out=work)
        work += 0.5
        np.floor(work, out=work)
        np.matmul(second, work3, out=x.reshape(n, n, -1))
        x += 0.5 + bias
    np.floor(x, out=x)


def _check_block(block: np.ndarray, name: str, lo: int, hi: int) -> np.ndarray:
    block = np.asarray(block)
    if block.ndim < 2 or block.shape[-1] != block.shape[-2]:
        raise ValueError(f"{name} must be (..., N, N), got shape {block.shape}")
    orthonormal_gain(block.shape[-1])  # the one transform-size check
    if not np.issubdtype(block.dtype, np.integer):
        raise TypeError(f"{name} must be an integer array, got dtype {block.dtype}")
    info = np.iinfo(block.dtype)
    if (info.min < lo or info.max > hi) and block.size and (block.min() < lo or block.max() > hi):
        raise ValueError(f"{name} values must lie in [{lo}, {hi}]")
    return block


def forward_transform(block: np.ndarray) -> np.ndarray:
    """Forward 2-D integer transform of residual block(s).

    Args:
        block: integer array of shape (..., N, N), N in TRANSFORM_SIZES, of
            9-bit residuals in [-256, 255].

    Returns:
        int64 coefficient array of the same shape, in [-32768, 32767]: on
        residual input no stage leaves signed 16 bits.

    Raises:
        ValueError: a value lies outside [-256, 255], or the block shape is
            out of range.
    """
    block = _check_block(block, "block", _RESIDUAL_MIN, _RESIDUAL_MAX)
    x = _rows(block, np.float32)
    _transform_rows(x, np.empty_like(x), _FORWARD)
    return _blocks(x, block.shape).astype(np.int64, order="C")


def inverse_transform(coeff: np.ndarray) -> np.ndarray:
    """Inverse 2-D integer transform of coefficient block(s).

    coeff holds 16-bit coefficients in [-32768, 32767], and a ValueError
    names any value outside them; the shape rules are forward_transform's.
    The int64 output is clipped to the residual range [-256, 255].
    """
    coeff = _check_block(coeff, "coeff", COEFF_MIN, COEFF_MAX)
    x = _rows(coeff, np.float32)
    _transform_rows(x, np.empty_like(x), _INVERSE)
    np.clip(x, _RESIDUAL_MIN, _RESIDUAL_MAX, out=x)
    return _blocks(x, coeff.shape).astype(np.int64, order="C")
