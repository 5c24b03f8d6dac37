"""Exhaustive requantization error analysis for dead-zone quantizer chains.

Compares the one-stage error of quantizing source values directly with a
target step against the two-stage error of quantizing with a source step,
reconstructing, and requantizing the reconstruction with the target step:

    E_a = metric of |x - deq_t(quant_t(x))|                    (direct)
    E_b = metric of |x - deq_t(quant_t(deq_s(quant_s(x))))|    (two-stage)

Every value in the coefficient domain is evaluated (no sampling), and all
arithmetic is exact integer/rational, so structural identities such as
"E_b/E_a == 1 when the target step is an integer multiple of the source step
at offset 0" hold with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .quantizer import TOWARD_ZERO, Quantizer, RationalLike, _exact_ints
from .transform import COEFF_MAX, COEFF_MIN

__all__ = [
    "MEAN_ABS",
    "RMS",
    "MSE",
    "METRICS",
    "UNDEFINED_RATIO",
    "CoefficientDomain",
    "DEFAULT_DOMAIN",
    "MAX_DOMAIN_SIZE",
    "RequantPoint",
    "OverlapReport",
    "error_ratio",
    "pointwise_errors",
    "sweep_qstep_t",
    "error_surface",
    "boundary_overlap",
    "convention_audit",
    "matches_reference",
]

MEAN_ABS = "mean-abs"
RMS = "rms"
MSE = "mse"
METRICS = (MEAN_ABS, RMS, MSE)

UNDEFINED_RATIO = "undefined_ratio"

# Largest CoefficientDomain: 16 times the 16-bit default, 8 MB per int64 array.
MAX_DOMAIN_SIZE = 1 << 20


@dataclass(frozen=True)
class CoefficientDomain:
    """Inclusive integer range of source values to evaluate exhaustively.

    At most MAX_DOMAIN_SIZE values, so a typo in a bound fails at once
    instead of allocating arrays without bound.  Both bounds lie in
    +-(2**63 - 1): the values are int64, and np.abs wraps -2**63.
    """

    lo: int
    hi: int

    def __post_init__(self):
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise TypeError("domain bounds must be integers")
        if max(abs(self.lo), abs(self.hi)) >= 1 << 63:
            raise ValueError(f"domain bounds must lie in +-(2**63 - 1): [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"empty domain: [{self.lo}, {self.hi}]")
        if self.size > MAX_DOMAIN_SIZE:
            raise ValueError(
                f"domain [{self.lo}, {self.hi}] has {self.size} values; the limit is "
                f"{MAX_DOMAIN_SIZE}"
            )

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def values(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1, dtype=np.int64)


# Full 16-bit signed coefficient range, sign bit included.
DEFAULT_DOMAIN = CoefficientDomain(COEFF_MIN, COEFF_MAX)


@dataclass(frozen=True)
class RequantPoint:
    """One (source step, target step) comparison.

    ratio is e_b / e_a, or None (with flag "undefined_ratio") when e_a == 0,
    e.g. a unit target step with offset 0 on an integer domain.
    """

    qstep_s: float
    qstep_t: float
    e_a: float
    e_b: float
    ratio: Optional[float]
    metric: str
    offset: float
    flag: Optional[str] = None


@dataclass(frozen=True)
class OverlapReport:
    """Decision-boundary alignment between a source and target quantizer.

    aligned_fraction: fraction of target-step decision boundaries in the
        domain that coincide exactly with source-step boundaries.
    split_bin_period: human-readable description of which source bins are
        split by unaligned target boundaries, derived from the reduced
        step ratio.
    max_extra_error: how much the two-stage chain's worst-case pointwise
        error over the domain exceeds the direct chain's worst case
        (max|err_two_stage| - max|err_direct|, exact).
    """

    qstep_s: float
    qstep_t: float
    offset: float
    aligned_fraction: float
    split_bin_period: str
    max_extra_error: float


def _require_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")


def _step_float(step: Fraction) -> float:
    """A step as the reports print it; ValueError if its double overflows or rounds to 0."""
    try:
        if float(step):
            return float(step)
    except OverflowError:
        pass
    raise ValueError("step lies outside the range of a double (4.9e-324 to 1.8e308)")


def _metric_fraction(err_num: np.ndarray, den: int, metric: str) -> Fraction:
    """Exact metric value; for rms this is the mean-square (pre-sqrt)."""
    n = err_num.size
    power = 1 if metric == MEAN_ABS else 2
    err = _exact_ints(err_num, n, power=power)
    return Fraction(int((err if power == 1 else err * err).sum()), n * den**power)


def _metric_float(frac: Fraction, metric: str) -> float:
    """A _metric_fraction value (or a ratio of two) as reported: rms takes the root."""
    return math.sqrt(float(frac)) if metric == RMS else float(frac)


def _error_numerators(
    x: np.ndarray, levels: np.ndarray, step: Fraction
) -> tuple[np.ndarray, int]:
    """Exact |x - levels*step| for integer x, as (numerators, shared_den).

    With step = p/q the error is |x*q - levels*p| / q; integer numerators keep
    downstream sums exact.  _exact_ints keeps each int64 product below 2^62,
    so the difference of two of them fits in int64 too.
    """
    p, q = step.numerator, step.denominator
    return np.abs(_exact_ints(x, q) * q - _exact_ints(levels, p) * p), q


def _chain_levels(q_s: Quantizer, q_t: Quantizer, x: np.ndarray) -> np.ndarray:
    """Target levels of the quantize-dequantize-requantize chain.

    Requantizing the reconstruction level*s with step t is quantizing the
    level with step t/s: |level*s|/t = |level|/(t/s), so the tie test is the
    same too.
    """
    q_ts = Quantizer(q_t.step / q_s.step, q_t.offset, q_t.tie_break)
    return q_ts.quantize_scaled(q_s.quantize_scaled(x))


def pointwise_errors(
    q_s: Quantizer,
    q_t: Quantizer,
    domain: CoefficientDomain = DEFAULT_DOMAIN,
) -> tuple[np.ndarray, np.ndarray, int]:
    """(direct, two-stage) error numerators over the domain plus shared denominator.

    Exact integer numerators; err/den gives the absolute error of each value.
    """
    x = domain.values()
    e_a, den = _error_numerators(x, q_t.quantize_scaled(x), q_t.step)
    e_b, _ = _error_numerators(x, _chain_levels(q_s, q_t, x), q_t.step)
    return e_a, e_b, den


def error_ratio(
    q_s: Quantizer,
    q_t: Quantizer,
    domain: CoefficientDomain = DEFAULT_DOMAIN,
    metric: str = MEAN_ABS,
) -> RequantPoint:
    """E_a, E_b and their ratio for one (source, target) pair.

    The ratio is computed from the exact rational error values, so structural
    equalities (e.g. integer-multiple steps at offset 0) yield exactly 1.0.
    """
    _require_metric(metric)
    e_a_num, e_b_num, den = pointwise_errors(q_s, q_t, domain)
    frac_a = _metric_fraction(e_a_num, den, metric)
    frac_b = _metric_fraction(e_b_num, den, metric)
    if frac_a == 0:
        ratio, flag = None, UNDEFINED_RATIO
    else:
        ratio, flag = _metric_float(frac_b / frac_a, metric), None
    return RequantPoint(
        qstep_s=_step_float(q_s.step),
        qstep_t=_step_float(q_t.step),
        e_a=_metric_float(frac_a, metric),
        e_b=_metric_float(frac_b, metric),
        ratio=ratio,
        metric=metric,
        offset=float(q_t.offset),
        flag=flag,
    )


def sweep_qstep_t(
    qstep_s: RationalLike,
    qstep_t_values: Sequence[RationalLike],
    domain: CoefficientDomain = DEFAULT_DOMAIN,
    metric: str = MEAN_ABS,
    offset: RationalLike = 0,
    tie_break: str = TOWARD_ZERO,
) -> list[RequantPoint]:
    """Hold the source step fixed and sweep the target step."""
    _require_metric(metric)
    q_s = Quantizer(qstep_s, offset, tie_break)
    return [
        error_ratio(q_s, Quantizer(qt, offset, tie_break), domain, metric)
        for qt in qstep_t_values
    ]


def error_surface(
    qstep_s_values: Sequence[RationalLike],
    qstep_t_values: Sequence[RationalLike],
    domain: CoefficientDomain = DEFAULT_DOMAIN,
    metric: str = MEAN_ABS,
    offset: RationalLike = 0,
    tie_break: str = TOWARD_ZERO,
) -> list[list[RequantPoint]]:
    """Dense (qstep_s, qstep_t) grid of error ratios, indexed [s][t]: one
    target sweep per source step."""
    return [
        sweep_qstep_t(qs, qstep_t_values, domain, metric, offset, tie_break)
        for qs in qstep_s_values
    ]


def _aligned_residue(ratio: Fraction, f: Fraction) -> Optional[int]:
    """Residue k0 (mod q) of the target boundaries that are source boundaries, or None.

    With ratio = target step / source step = p/q, target boundary k >= 1 lies
    at (k - f)*p/q + f = (k*p - g)/q source steps, g = f*(p - q).  That is a
    positive integer, so a source boundary, exactly when g is an integer and
    k*p = g (mod q): one residue class per period of q target bins, or none.
    """
    p, q = ratio.numerator, ratio.denominator
    g = f * (p - q)
    return int(g) * pow(p, -1, q) % q if g.denominator == 1 else None


def _aligned_fraction(
    q_t: Quantizer, q: int, k0: Optional[int], domain: CoefficientDomain
) -> Fraction:
    """Fraction of q_t decision boundaries in the domain that are also source
    boundaries, where every q-th target boundary from k0 on is one."""
    t, f = q_t.step, q_t.offset
    total = aligned = 0
    # Boundary k >= 1 lies at +-(k - f)*t; the negative side mirrors [-hi, -lo].
    for lo, hi in ((domain.lo, domain.hi), (-domain.hi, -domain.lo)):
        k_lo, k_hi = max(1, math.ceil(lo / t + f)), math.floor(hi / t + f)
        if k_hi >= k_lo:
            total += k_hi - k_lo + 1
            if k0 is not None:
                aligned += (k_hi - k0) // q - (k_lo - 1 - k0) // q
    if not total:
        raise ValueError("domain contains no target-step decision boundaries")
    return Fraction(aligned, total)


def _split_bin_description(ratio: Fraction, f: Fraction, k0: Optional[int]) -> str:
    """Describe which source bins are split, from the reduced step ratio p/q."""
    p, q = ratio.numerator, ratio.denominator
    if q == 1 and f == 0:
        return f"none: target boundaries all align (target step = {p} x source step)"
    # One period holds q target bins over p source bins.  A finer target puts
    # an unaligned boundary inside every source bin; a coarser one splits one
    # source bin per unaligned boundary.
    split = p if p < q else q - (k0 is not None)
    if not split:
        return f"none: target boundaries all align (period {p} source bins = {q} target bins)"
    suffix = "" if k0 is not None else " (no boundary alignment)"
    return (
        f"{split} of every {p} source bins split by unaligned target "
        f"boundaries (period {p} source bins = {q} target bins){suffix}"
    )


def boundary_overlap(
    q_s: Quantizer,
    q_t: Quantizer,
    domain: CoefficientDomain = DEFAULT_DOMAIN,
) -> OverlapReport:
    """Exact boundary-alignment report for a source/target quantizer pair.

    Requires equal offsets on both quantizers so boundary grids are
    comparable like-with-like.
    """
    if q_s.offset != q_t.offset:
        raise ValueError(
            f"offsets must match to compare boundary grids: {q_s.offset} != {q_t.offset}"
        )
    ratio = q_t.step / q_s.step
    k0 = _aligned_residue(ratio, q_s.offset)
    frac_aligned = _aligned_fraction(q_t, ratio.denominator, k0, domain)
    e_a, e_b, den = pointwise_errors(q_s, q_t, domain)
    extra = Fraction(int(e_b.max()) - int(e_a.max()), den)
    return OverlapReport(
        qstep_s=_step_float(q_s.step),
        qstep_t=_step_float(q_t.step),
        offset=float(q_s.offset),
        aligned_fraction=float(frac_aligned),
        split_bin_period=_split_bin_description(ratio, q_s.offset, k0),
        max_extra_error=float(extra),
    )


# (E_a, E_b, ratio) previously reported for the QStep 10 -> 20 chain; the
# generating convention was left unspecified, so the audit recomputes the
# chain over the default domain, toward zero, under every supported
# (offset, metric) convention, and matches_reference says which, if any,
# reproduces these values within REFERENCE_TOLERANCE.
REPORTED_REFERENCE = {"e_a": 12.0, "e_b": 14.5, "ratio": 1.2}
REFERENCE_TOLERANCE = 0.02

AUDIT_OFFSETS = (Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))


def matches_reference(point: RequantPoint) -> bool:
    """Whether e_a, e_b and ratio each lie within REFERENCE_TOLERANCE
    (relative) of REPORTED_REFERENCE; an undefined ratio never matches."""
    return point.ratio is not None and all(
        math.isclose(getattr(point, key), ref, rel_tol=REFERENCE_TOLERANCE)
        for key, ref in REPORTED_REFERENCE.items()
    )


def convention_audit() -> list[RequantPoint]:
    """The 10 -> 20 chain under every (offset, metric) convention, offsets outer.

    The caller gets the full table whether or not any point matches the
    reference, which is the honest answer when the generating convention of a
    reported value pair cannot be pinned down.
    """
    return [
        error_ratio(Quantizer(10, off), Quantizer(20, off), DEFAULT_DOMAIN, metric)
        for off in AUDIT_OFFSETS
        for metric in METRICS
    ]
