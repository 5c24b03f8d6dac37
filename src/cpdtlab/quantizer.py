"""Dead-zone uniform scalar quantization with exact rational arithmetic.

The quantizer law is

    level = sign(x) * floor(|x| / step + offset)
    recon = level * step

with ``offset`` in [0, 1).  offset=0 is magnitude truncation (the widest dead
zone), offset=1/2 is round-to-nearest, and 1/3 / 1/6 are the HEVC-style intra /
inter dead zones.  ``step`` and ``offset`` are kept as exact rationals so that
decision boundaries, pointwise errors, and two-stage requantization chains can
be compared with zero floating-point slack.

Tie handling: when |x|/step + offset lands exactly on an integer k, the input
sits on a decision boundary.  With offset=0 that boundary is itself a
reconstruction point (|x| = k*step), so both tie-break modes return k and exact
multiples of step reconstruct losslessly.  With offset>0 the boundary lies
strictly between the reconstructions (k-1)*step and k*step and the tie_break
mode decides: "toward-zero" picks k-1, "away-from-zero" picks k (plain floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "TOWARD_ZERO",
    "AWAY_FROM_ZERO",
    "Quantizer",
    "QP_RANGE",
    "qp_to_qstep",
    "as_fraction",
]

TOWARD_ZERO = "toward-zero"
AWAY_FROM_ZERO = "away-from-zero"

_TIE_BREAKS = (TOWARD_ZERO, AWAY_FROM_ZERO)

RationalLike = Union[int, float, str, Fraction]

# Valid quantization parameters, HEVC's 0..51.
QP_RANGE = range(0, 52)

# Every exact integer formed in int64 stays below this in magnitude; larger
# ones are formed from Python ints (object dtype) instead.
_INT64_SAFE = 1 << 62


def _exact_ints(arr: np.ndarray, scale: int, extra: int = 0) -> np.ndarray:
    """arr as int64 if the caller's exact arithmetic on it fits there, else as
    Python ints (object dtype).

    The caller promises that, with m = max|arr|, nothing it forms from arr,
    Python-int operands included, exceeds (m + 1)*scale + extra in magnitude;
    the +1 counts a multiplier even when arr is all zero.  Object input is
    returned unscanned, and an int64 result is not copied.
    """
    if arr.dtype == object:
        return arr
    m = max(int(arr.max(initial=0)), -int(arr.min(initial=0)))
    fits = (m + 1) * scale + extra < _INT64_SAFE
    return arr.astype(np.int64 if fits else object, copy=False)


def as_fraction(value: RationalLike) -> Fraction:
    """Convert a step/offset argument to an exact Fraction.

    Floats are interpreted by their shortest decimal representation, so 2.5
    means exactly 5/2 and 0.1 means exactly 1/10 (what the caller typed, not
    the binary expansion).  A numpy integer goes by its text too, so no int64
    numerator can wrap in the exact arithmetic.
    """
    return Fraction(str(value) if isinstance(value, (float, np.integer)) else value)


@dataclass(frozen=True)
class Quantizer:
    """A dead-zone uniform scalar quantizer.

    Attributes:
        step: quantization step size, a positive rational.
        offset: dead-zone rounding offset in [0, 1). 0 = truncation,
            1/2 = round-to-nearest, 1/3 and 1/6 = HEVC-style intra/inter.
        tie_break: how to resolve inputs exactly on a decision boundary
            (only observable for offset > 0; see module docstring).
    """

    step: Fraction
    offset: Fraction = Fraction(0)
    tie_break: str = TOWARD_ZERO

    def __init__(
        self,
        step: RationalLike,
        offset: RationalLike = 0,
        tie_break: str = TOWARD_ZERO,
    ):
        object.__setattr__(self, "step", as_fraction(step))
        object.__setattr__(self, "offset", as_fraction(offset))
        object.__setattr__(self, "tie_break", tie_break)
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not (0 <= self.offset < 1):
            raise ValueError(f"offset must be in [0, 1), got {self.offset}")
        if tie_break not in _TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}")

    # -- scalar reference implementation (exact) ----------------------------

    def quantize(self, x: RationalLike) -> int:
        """Map a value to its signed quantization level."""
        xf = as_fraction(x)
        t = abs(xf) / self.step + self.offset
        mag = math.floor(t)
        if t == mag and self.offset > 0 and self.tie_break == TOWARD_ZERO:
            mag -= 1
        return -mag if xf < 0 else mag

    def dequantize(self, level: int) -> Fraction:
        """Reconstruction for a level: level * step."""
        return level * self.step

    # -- vectorized exact path ----------------------------------------------

    def quantize_scaled(self, num: np.ndarray) -> np.ndarray:
        """Exact vectorized quantize of an integer array (int64 or Python ints).

        Levels come back as int64 where _exact_ints allows, else as Python ints.

        t = |num| / (sp/sq) + op/oq = (|num|*sq*oq + op*sp) / (sp*oq)
        """
        sp, sq = self.step.numerator, self.step.denominator
        op, oq = self.offset.numerator, self.offset.denominator
        num_mul = sq * oq
        num_add = op * sp
        full_den = sp * oq
        absn = _exact_ints(np.abs(num), num_mul, num_add + full_den)
        t_num = absn * num_mul + num_add
        levels = t_num // full_den
        if self.offset > 0 and self.tie_break == TOWARD_ZERO:
            levels = levels - (t_num % full_den == 0)
        return np.where(num < 0, -levels, levels)

    def run_starts(self, levels: np.ndarray) -> np.ndarray:
        """Least magnitude |x| whose level magnitude is at least j, for each j >= 1.

        The law's inverse: the level reaches j where |x| >= (j - f)*step, or
        strictly past that point under a toward-zero tie with f > 0.  Exact
        like quantize_scaled, and int64 where _exact_ints allows.

        (j - f)*step = (j*oq - op)*sp / (oq*sq)
        """
        sp, sq = self.step.numerator, self.step.denominator
        op, oq = self.offset.numerator, self.offset.denominator
        num_mul = oq * sp
        num_sub = op * sp
        full_den = oq * sq
        t_num = _exact_ints(levels, num_mul, num_sub + full_den) * num_mul - num_sub
        if self.offset > 0 and self.tie_break == TOWARD_ZERO:
            return t_num // full_den + 1
        return -(-t_num // full_den)


def qp_to_qstep(qp: int) -> float:
    """HEVC-style step size for a quantization parameter: 2**((qp-4)/6).

    Built from an exact power of two times 2**(r/6) for the residue r, so a
    +6 increment doubles the step bit-exactly.

    Args:
        qp: integer quantization parameter in QP_RANGE.

    Returns:
        The positive step size as a float; qp=4 -> 1.0.
    """
    if not isinstance(qp, (int, np.integer)):
        raise TypeError(f"qp must be an integer, got {type(qp).__name__}")
    if qp not in QP_RANGE:
        raise ValueError(f"qp must lie in {QP_RANGE.start}..{QP_RANGE.stop - 1}, got {qp}")
    quot, rem = divmod(qp - 4, 6)
    return math.ldexp(2.0 ** (rem / 6.0), quot)
