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

The work runs on a (row, block, col) layout: blocks of shape (..., N, N)
become one contiguous float64 array of shape (N, blocks * N), where column
b * N + j of row i holds sample (i, j) of block b.  Each pass is then one
flat 2-D GEMM: the first pass is M @ rows, which multiplies every block from
the left at once, and the second is rows.reshape(-1, N) @ M', whose rows are
the block rows.  Both run in place on buffers the caller owns.

Every value stays an exact integer.  The inputs lie in signed 32 bits (both
directions check this), so every product and partial sum is an integer below
2^31 * 8 * 89 < 2^41, which float64 holds exactly whatever order BLAS sums in.
The rounded right shift (x + 2^(s-1)) >> s then runs as
floor((x + 2^(s-1)) * 2^-s): the addition is exact below 2^53, scaling by a
power of two only moves the exponent, and floor of x / 2^s is the arithmetic
shift.  The clips compare exact integers.  So every result is the integer of
the int64 reference definition.
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
# Each matrix and its transpose as contiguous float64, the GEMM operands.
_FLOAT_MATRICES = {
    n: (t.astype(np.float64), t.T.astype(np.float64, order="C")) for n, t in _MATRICES.items()
}

# Inverse output range: the signed 9-bit residual of 8-bit video.
_RESIDUAL_MIN = -256
_RESIDUAL_MAX = 255

# Inputs must fit in signed 32 bits, far beyond any residual or 16-bit
# coefficient; the bound keeps every GEMM exact (see the module docstring).
_INPUT_MIN = -(1 << 31)
_INPUT_MAX = (1 << 31) - 1


def orthonormal_gain(size: int) -> float:
    """Gain of the forward integer chain relative to the orthonormal DCT-II."""
    if size not in _MATRICES:
        raise ValueError(f"unsupported transform size {size}; choose from {TRANSFORM_SIZES}")
    return 128.0 / size


def _shift(x: np.ndarray, shift: int, bias: int = 0) -> np.ndarray:
    """The rounded right shift (x + 2^(shift-1)) >> shift, plus bias, in place.

    x holds integers below 2^41 in magnitude (see the module docstring); the
    bias is folded into the addition as bias * 2^shift.
    """
    x += (1 << (shift - 1)) + (bias << shift)
    x *= 2.0**-shift
    return np.floor(x, out=x)


def _clip16(x: np.ndarray) -> np.ndarray:
    return np.clip(x, COEFF_MIN, COEFF_MAX, out=x)


def _rows(blocks: np.ndarray, dtype=None) -> np.ndarray:
    """Blocks (..., N, N) as a new contiguous (N, blocks * N) array in the
    (row, block, col) layout."""
    lead = blocks.ndim - 2
    rows = blocks.transpose(lead, *range(lead), lead + 1)
    return np.array(rows, dtype=dtype, order="C").reshape(blocks.shape[-1], -1)


def _blocks(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The (..., N, N) view of `shape` onto (row, block, col) rows; undoes _rows."""
    lead = len(shape) - 2
    rows = rows.reshape(shape[-2], *shape[:-2], shape[-1])
    return rows.transpose(*range(1, lead + 1), 0, lead + 1)


def _inverse_rows(x: np.ndarray, work: np.ndarray, bias: int = 0) -> None:
    """Inverse transform of float64 (row, block, col) rows in place, without
    the output clip; the last shift adds `bias`.  work is scratch of x's shape."""
    n = x.shape[0]
    t, t_transposed = _FLOAT_MATRICES[n]
    np.matmul(t_transposed, x, out=work)
    _clip16(_shift(work, 7))
    np.matmul(work.reshape(-1, n), t, out=x.reshape(-1, n))
    _shift(x, 12, bias)


def _check_block(block: np.ndarray, name: str) -> np.ndarray:
    block = np.asarray(block)
    if block.ndim < 2 or block.shape[-1] != block.shape[-2]:
        raise ValueError(f"{name} must be (..., N, N), got shape {block.shape}")
    orthonormal_gain(block.shape[-1])  # the one transform-size check
    if not np.issubdtype(block.dtype, np.integer):
        raise TypeError(f"{name} must be an integer array, got dtype {block.dtype}")
    info = np.iinfo(block.dtype)
    if (info.min < _INPUT_MIN or info.max > _INPUT_MAX) and block.size and (
        block.min() < _INPUT_MIN or block.max() > _INPUT_MAX
    ):
        raise ValueError(f"{name} values must lie in signed 32 bits [{_INPUT_MIN}, {_INPUT_MAX}]")
    return block


def forward_transform(block: np.ndarray) -> np.ndarray:
    """Forward 2-D integer transform of residual block(s).

    Args:
        block: integer array of shape (..., N, N), N in TRANSFORM_SIZES.

    Returns:
        int64 coefficient array of the same shape, every stage clipped to
        [-32768, 32767].

    Raises:
        ValueError: a value lies outside signed 32 bits, or the block shape
            is out of range.
    """
    block = _check_block(block, "block")
    size = block.shape[-1]
    t, t_transposed = _FLOAT_MATRICES[size]
    log2n = size.bit_length() - 1
    x = _rows(block, np.float64)
    work = np.empty_like(x)
    np.matmul(t, x, out=work)
    _clip16(_shift(work, log2n - 1))
    np.matmul(work.reshape(-1, size), t_transposed, out=x.reshape(-1, size))
    _clip16(_shift(x, log2n + 6))
    return _blocks(x, block.shape).astype(np.int64, order="C")


def inverse_transform(coeff: np.ndarray) -> np.ndarray:
    """Inverse 2-D integer transform of coefficient block(s).

    Output is clipped to the residual range [-256, 255]; the input values
    are bounded as in forward_transform.
    """
    coeff = _check_block(coeff, "coeff")
    x = _rows(coeff, np.float64)
    _inverse_rows(x, np.empty_like(x))
    np.clip(x, _RESIDUAL_MIN, _RESIDUAL_MAX, out=x)
    return _blocks(x, coeff.shape).astype(np.int64, order="C")
