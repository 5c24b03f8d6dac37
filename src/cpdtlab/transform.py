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

The matrix products run as float64 BLAS and the shifts and clips as int64,
so every result is the exact integer of the reference definition.  Input
values must lie in signed 32 bits for that to hold (see _stage).
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

TRANSFORM_SIZES = (4, 8)

_T4 = np.array(
    [
        [64, 64, 64, 64],
        [83, 36, -36, -83],
        [64, -64, -64, 64],
        [36, -83, 83, -36],
    ],
    dtype=np.int64,
)

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

_MATRICES = {4: _T4, 8: _T8}
# Each matrix and its transpose as contiguous float64, the operands of _stage.
_FLOAT_MATRICES = {
    n: (t.astype(np.float64), t.T.astype(np.float64, order="C")) for n, t in _MATRICES.items()
}

# Inverse output range: the signed 9-bit residual of 8-bit video.
_RESIDUAL_MIN = -256
_RESIDUAL_MAX = 255

# Inputs must fit in signed 32 bits, far beyond any residual or 16-bit
# coefficient; the bound keeps _stage exact.
_INPUT_MIN = -(1 << 31)
_INPUT_MAX = (1 << 31) - 1


def orthonormal_gain(size: int) -> float:
    """Gain of the forward integer chain relative to the orthonormal DCT-II."""
    if size not in _MATRICES:
        raise ValueError(f"unsupported transform size {size}; choose from {TRANSFORM_SIZES}")
    return 128.0 / size


def _stage(a: np.ndarray, b: np.ndarray, shift: int) -> np.ndarray:
    """One pass: the integer product a @ b with a rounded right shift, as int64.

    The product runs as float64 BLAS on integer-valued operands and is exact:
    one operand is a transform matrix (|entry| <= 89, N <= 8 terms per sum),
    the other holds integers with |x| <= 2^31, so every product and partial
    sum is an integer of magnitude at most 2^31 * 8 * 89 < 2^41 < 2^53, which
    float64 holds exactly whatever order BLAS sums in.  The shift stays in
    int64 and works in place: fresh large temporaries cost more here than the
    arithmetic on them.
    """
    x = np.matmul(a, b).astype(np.int64)
    x += 1 << (shift - 1)
    x >>= shift
    return x


def _clip16(x: np.ndarray) -> np.ndarray:
    return np.clip(x, COEFF_MIN, COEFF_MAX, out=x)


def _check_block(block: np.ndarray, name: str) -> tuple[np.ndarray, int]:
    block = np.asarray(block)
    if block.ndim < 2 or block.shape[-1] != block.shape[-2]:
        raise ValueError(f"{name} must be (..., N, N), got shape {block.shape}")
    size = block.shape[-1]
    if size not in _MATRICES:
        raise ValueError(f"unsupported transform size {size}; choose from {TRANSFORM_SIZES}")
    if not np.issubdtype(block.dtype, np.integer):
        raise TypeError(f"{name} must be an integer array, got dtype {block.dtype}")
    info = np.iinfo(block.dtype)
    if (info.min < _INPUT_MIN or info.max > _INPUT_MAX) and block.size and (
        block.min() < _INPUT_MIN or block.max() > _INPUT_MAX
    ):
        raise ValueError(f"{name} values must lie in signed 32 bits [{_INPUT_MIN}, {_INPUT_MAX}]")
    return block.astype(np.float64), size


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
    x, size = _check_block(block, "block")
    t, t_transposed = _FLOAT_MATRICES[size]
    log2n = size.bit_length() - 1
    x = _clip16(_stage(t, x, log2n - 1)).astype(np.float64)
    return _clip16(_stage(x, t_transposed, log2n + 6))


def inverse_transform(coeff: np.ndarray) -> np.ndarray:
    """Inverse 2-D integer transform of coefficient block(s).

    Output is clipped to the residual range [-256, 255]; the input values
    are bounded as in forward_transform.
    """
    c, size = _check_block(coeff, "coeff")
    t, t_transposed = _FLOAT_MATRICES[size]
    c = _clip16(_stage(t_transposed, c, 7)).astype(np.float64)
    residual = _stage(c, t, 12)
    return np.clip(residual, _RESIDUAL_MIN, _RESIDUAL_MAX, out=residual)
