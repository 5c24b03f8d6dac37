"""Exhaustive requantization error analysis for dead-zone quantizer chains.

Compares the one-stage error of quantizing source values directly with a
target step against the two-stage error of quantizing with a source step,
reconstructing, and requantizing the reconstruction with the target step:

    E_a = metric of |x - deq_t(quant_t(x))|                    (direct)
    E_b = metric of |x - deq_t(quant_t(deq_s(quant_s(x))))|    (two-stage)

Every value in the coefficient domain counts (no sampling), and all
arithmetic is exact integer/rational, so structural identities such as
"E_b/E_a == 1 when the target step is an integer multiple of the source step
at offset 0" hold with zero tolerance.  The error sums come in closed form per
run of equal quantizer level, so their cost follows the number of runs, not
the number of values.  _direct_runs and the row generator _chain_runs build
the run tables that the error sums, the worst-case errors and the count of
values where the chain beats the direct quantizer all read.

The target step p/q factors out of the sums.  Over runs of n magnitudes m
from s on at level k, the squared sum is (q^2*A - 6*p*q*B + 6*p^2*C)/6 with
A = sum 6*sum(m^2), B = sum k*2*sum(m) and C = sum n*k^2, and the absolute
sum is q*X/2 - p*Y with X = sum n*(2s + n - 1) - 4cs - 2c(c - 1) and
Y = sum k*(n - 2c), where c counts a run's magnitudes below k*t.  So the run
arrays hold only magnitudes, levels and counts, and p and q enter Python-int
totals.  A run table picks their integer type once, when it is built: int64
on the 16-bit domain for every target step of 0.012 or more.  c comes from
the run-start errors s*q - k*p and the worst case from the run-end ones,
both formed in wrapping int64 products: an error is at most t on the direct
chain and s + t on the two-stage one, so that is exact while
p + q*(ceil(s) + 1) < 2^62, and Python ints take over past it.  A sweep or
surface builds each source step's level runs, and each target step's direct
runs and E_a, once per call, so a cell costs only its chain's runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .quantizer import _INT64_SAFE, TOWARD_ZERO, Quantizer, RationalLike, _exact_ints
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
    "sweep_qstep_t",
    "error_surface",
    "boundary_overlap",
]

MEAN_ABS = "mean-abs"
RMS = "rms"
MSE = "mse"
METRICS = (MEAN_ABS, RMS, MSE)

UNDEFINED_RATIO = "undefined_ratio"

_BOUND_RULE = "domain bounds must lie in +-(2**63 - 1)"

# Largest CoefficientDomain, 16x the default: bounds _level_runs at steps near or below 1.
MAX_DOMAIN_SIZE = 1 << 20


@dataclass(frozen=True)
class CoefficientDomain:
    """Inclusive integer range of source values to evaluate exhaustively.

    At most MAX_DOMAIN_SIZE values, so a typo in a bound fails at once
    instead of allocating without bound.  Both bounds lie in +-(2**63 - 1):
    run starts are int64, and np.abs wraps -2**63.
    """

    lo: int
    hi: int

    def __post_init__(self):
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise TypeError("domain bounds must be integers")
        if max(abs(self.lo), abs(self.hi)) >= 1 << 63:
            raise ValueError(f"{_BOUND_RULE}: [{self.lo}, {self.hi}]")
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


def _power(metric: str) -> int:
    """The power of |error| a metric sums: 1 for mean-abs, 2 for rms and mse."""
    return 1 if metric == MEAN_ABS else 2


def _metric_float(value: float, metric: str) -> float:
    """A metric value (or a ratio of two) as reported: rms takes the root of
    the mean square."""
    return math.sqrt(value) if metric == RMS else value


def _error_numerators(x: np.ndarray, levels: np.ndarray, step: Fraction) -> np.ndarray:
    """Exact signed x*q - levels*p for integer x and step = p/q, value by value
    as the test oracle forms it: the error x - levels*step times q, an integer.

    _exact_ints keeps each int64 product below 2^62, so the difference of two
    of them fits in int64 too.
    """
    p, q = step.numerator, step.denominator
    return _exact_ints(x, q) * q - _exact_ints(levels, p) * p


def _requantizer(q_s: Quantizer, q_t: Quantizer) -> Quantizer:
    """The chain's second stage, as a quantizer of source levels.

    Requantizing the reconstruction level*s with step t is quantizing the
    level with step t/s: |level*s|/t = |level|/(t/s), so the tie test is the
    same too.
    """
    return Quantizer(q_t.step / q_s.step, q_t.offset, q_t.tie_break)


def _magnitudes(domain: CoefficientDomain) -> tuple[int, int, int]:
    """(a, b, near): the domain as the magnitudes a..b, of which those up to
    near are taken with both signs."""
    lo, hi = domain.lo, domain.hi
    return max(lo, -hi, 0), max(-lo, hi), min(-lo, hi)


def _level_runs(q: Quantizer, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, levels) of the runs of equal q level over the magnitudes a..b,
    0 <= a <= b.

    With fewer levels than magnitudes the step is at least 1, so every level
    from level(a) to level(b) has a run, which starts where run_starts puts
    it.  Otherwise every magnitude is a run.  Starts lie in a..b, so they are
    int64 even where run_starts forms Python ints.
    """
    first, last = q.quantize_scaled(np.array([a, b])).tolist()
    if last - first >= b - a:
        mags = np.arange(a, b + 1, dtype=np.int64)
        return mags, q.quantize_scaled(mags)
    levels = np.arange(first, last + 1, dtype=np.int64)
    starts = np.empty_like(levels)
    starts[0] = a
    starts[1:] = q.run_starts(levels[1:])
    return starts, levels


@dataclass(frozen=True)
class _Runs:
    """One chain's errors over a domain, by runs of equal target level k.

    Run i covers the n[i] magnitudes from starts[i] on, at level levels[i].
    Along it the signed error numerator m*q - k*p (magnitude m, target step
    p/q) rises by q per magnitude, so its sums have closed forms.  `wraps`
    says whether wrapped int64 products give every m*q - k*p exactly.  No run
    holds both near and near + 1: the runs that start at or below near are
    those that x takes with both signs, and they count twice.
    """

    starts: np.ndarray
    levels: np.ndarray
    n: np.ndarray
    near: int
    step: Fraction
    wraps: bool

    def errors(self, m: np.ndarray) -> np.ndarray:
        """Signed m*q - k*p at one magnitude m per run (or per run in each row)."""
        p, q = self.step.numerator, self.step.denominator
        if self.wraps:
            return m * np.int64(q) - self.levels * np.int64(p)
        return m.astype(object, copy=False) * q - self.levels.astype(object, copy=False) * p

    def error_sum(self, power: int) -> int:
        """Exact sum over the domain of |m*q - k*p|**power, for power 1 or 2,
        from the factored totals of the module docstring."""
        p, q = self.step.numerator, self.step.denominator
        s, n, k = self.starts, self.n, self.levels
        w = 1 + (s <= self.near)
        two_sums = n * (2 * s + n - 1)  # twice the sum of each run's magnitudes
        if power == 2:
            # a is 6 times a sum of squares, so the numerator divides by 6.
            a = int((w * n * (6 * s * s + 6 * s * (n - 1) + (n - 1) * (2 * n - 1))).sum())
            b = int((w * k * two_sums).sum())
            c = int((w * n * k * k).sum())
            return (q * q * a - 6 * p * q * b + 6 * p * p * c) // 6
        # c counts a run's magnitudes with m*q <= k*p, from the run-start error.
        c = np.clip(-self.errors(s) // q + 1, 0, n).astype(s.dtype, copy=False)
        # Each n*(2s + n - 1) is even, so x is and q*x//2 is exact.
        x = int((w * (two_sums - 4 * c * s - 2 * c * (c - 1))).sum())
        y = int((w * k * (n - 2 * c)).sum())
        return q * x // 2 - p * y

    def max_error(self) -> int:
        """Largest |m*q - k*p| over the domain: a linear error peaks at a run end."""
        ends = self.starts + (self.n - 1)
        return int(np.abs(self.errors(np.stack([self.starts, ends]))).max())


def _table(
    starts: np.ndarray, levels: np.ndarray, domain: CoefficientDomain, step: Fraction,
    source_step: Fraction,
) -> _Runs:
    """The _Runs of runs from `starts` at `levels` over the domain's magnitudes.

    A run that holds both near and near + 1 is split there.  Zero's error is
    0 on both chains, so its count never matters.  Levels never decrease
    along a table, so over the N magnitudes a..b, with M = max(b, levels[-1]),
    every array term of error_sum stays within 16*N*(M + 1)**2.
    """
    a, b, near = _magnitudes(domain)
    i = int(np.searchsorted(starts, near, side="right"))
    if 0 < i and near < b and (i == starts.size or starts[i] > near + 1):
        starts = np.insert(starts, i, near + 1)
        levels = np.insert(levels, i, levels[i - 1])
    n = np.append(starts[1:] - 1, b) - starts + 1
    top = max(b, int(levels[-1]))
    dtype = np.int64 if 16 * (b - a + 1) * (top + 1) ** 2 < _INT64_SAFE else object
    starts, levels, n = (x.astype(dtype, copy=False) for x in (starts, levels, n))
    reach = step.numerator + step.denominator * (math.ceil(source_step) + 1)
    return _Runs(starts, levels, n, near, step, dtype is np.int64 and reach < _INT64_SAFE)


def _direct_runs(q_t: Quantizer, domain: CoefficientDomain) -> _Runs:
    """The direct chain's runs of equal target level over the domain."""
    a, b, _ = _magnitudes(domain)
    return _table(*_level_runs(q_t, a, b), domain, q_t.step, Fraction(0))


def _chain_runs(
    q_s: Quantizer, targets: Sequence[Quantizer], domain: CoefficientDomain
) -> Iterator[_Runs]:
    """The two-stage chain's runs for each target of a row, one table at a time:
    as a list, a 10000-step row of steps near 1 on the 16-bit domain holds gigabytes.

    The source's level runs are built once.  The second stage quantizes only
    the distinct source levels, and source runs with equal target levels merge.
    """
    a, b, _ = _magnitudes(domain)
    starts, levels = _level_runs(q_s, a, b)
    for q_t in targets:
        chain = _requantizer(q_s, q_t).quantize_scaled(levels)
        new = np.concatenate(([True], chain[1:] != chain[:-1]))
        yield _table(starts[new], chain[new], domain, q_t.step, q_s.step)


def _runs(q_s: Quantizer, q_t: Quantizer, domain: CoefficientDomain) -> tuple[_Runs, _Runs]:
    """(direct, two-stage): each chain's runs of equal target level over the domain.

    Both quantizers are odd, so an error depends only on |x|: the domain is
    the magnitudes a..b, and those up to `near` count twice, once per sign of x.
    """
    return _direct_runs(q_t, domain), next(_chain_runs(q_s, [q_t], domain))


def _violations(direct: _Runs, chain: _Runs) -> int:
    """How many values of the domain have a smaller two-stage than direct error.

    On each piece between the two chains' run starts, the direct level k_a and
    the chain's k_b are constant.  With target step p/q, |m*q - k_b*p| < |m*q - k_a*p|
    exactly when m lies strictly on k_b's side of the midpoint (k_a + k_b)*p/(2*q),
    so each piece counts one interval of magnitudes; equal errors never count.
    Both chains split their runs at near + 1, so the pieces that start at or
    below near count twice.
    """
    starts = np.union1d(direct.starts, chain.starts)
    k_a = direct.levels[np.searchsorted(direct.starts, starts, "right") - 1]
    k_b = chain.levels[np.searchsorted(chain.starts, starts, "right") - 1]
    # The last magnitude, from the last run: a sum from starts[0] on may pass int64's edge.
    last = np.append(starts[1:] - 1, direct.starts[-1] + (direct.n[-1] - 1))
    p, q = direct.step.numerator, direct.step.denominator
    # (k_a + k_b)*p is at most 2*max|k|*p, and the divisor is 2*q.
    mid2 = _exact_ints(np.stack([k_a, k_b]), 2 * p, 2 * q).sum(axis=0) * p
    up = k_b > k_a
    # Up from the least m with 2*m*q > mid2; down to the largest m with 2*m*q < mid2.
    first = np.where(up, np.maximum(starts, mid2 // (2 * q) + 1), starts)
    final = np.where(up, last, np.minimum(last, (mid2 - 1) // (2 * q)))
    n = np.where(k_a != k_b, np.maximum(final - first + 1, 0), 0)
    return int(n.sum()) + int(n[starts <= direct.near].sum())


def _point(
    q_s: Quantizer, q_t: Quantizer, sum_a: int, sum_b: int, domain: CoefficientDomain,
    metric: str,
) -> RequantPoint:
    """A cell's RequantPoint from its two exact error sums.

    Python's int division rounds correctly, as float(Fraction) does, so the
    floats are those of the exact rationals.
    """
    den = domain.size * q_t.step.denominator ** _power(metric)
    if sum_a == 0:
        ratio, flag = None, UNDEFINED_RATIO
    else:
        ratio, flag = _metric_float(sum_b / sum_a, metric), None
    return RequantPoint(
        qstep_s=_step_float(q_s.step),
        qstep_t=_step_float(q_t.step),
        e_a=_metric_float(sum_a / den, metric),
        e_b=_metric_float(sum_b / den, metric),
        ratio=ratio,
        metric=metric,
        offset=float(q_t.offset),
        flag=flag,
    )


def error_ratio(
    q_s: Quantizer,
    q_t: Quantizer,
    domain: CoefficientDomain = DEFAULT_DOMAIN,
    metric: str = MEAN_ABS,
) -> RequantPoint:
    """E_a, E_b and their ratio for one (source, target) pair.

    The ratio is computed from the exact integer error sums, so structural
    equalities (e.g. integer-multiple steps at offset 0) yield exactly 1.0.
    The cost follows the number of level runs, not the domain size.
    """
    _require_metric(metric)
    for q in (q_s, q_t):
        _step_float(q.step)
    power = _power(metric)
    direct, chain = _runs(q_s, q_t, domain)
    return _point(q_s, q_t, direct.error_sum(power), chain.error_sum(power), domain, metric)


def sweep_qstep_t(
    qstep_s: RationalLike,
    qstep_t_values: Sequence[RationalLike],
    domain: CoefficientDomain = DEFAULT_DOMAIN,
    metric: str = MEAN_ABS,
    offset: RationalLike = 0,
    tie_break: str = TOWARD_ZERO,
) -> list[RequantPoint]:
    """Hold the source step fixed and sweep the target step: one row of
    error_surface."""
    return error_surface([qstep_s], qstep_t_values, domain, metric, offset, tie_break)[0]


def error_surface(
    qstep_s_values: Sequence[RationalLike],
    qstep_t_values: Sequence[RationalLike],
    domain: CoefficientDomain = DEFAULT_DOMAIN,
    metric: str = MEAN_ABS,
    offset: RationalLike = 0,
    tie_break: str = TOWARD_ZERO,
) -> list[list[RequantPoint]]:
    """Dense (qstep_s, qstep_t) grid of error ratios, indexed [s][t].

    Each point equals error_ratio's on its cell.  Every step is judged, the
    sources first, before any run table, even with no sources.  Each target
    step's direct runs and E_a sum are built once, and each row sums
    _chain_runs' tables as they come, so a cell costs only its chain's runs.
    Nothing outlives the call.
    """
    _require_metric(metric)
    power = _power(metric)
    sources = [Quantizer(qs, offset, tie_break) for qs in qstep_s_values]
    targets = [Quantizer(qt, offset, tie_break) for qt in qstep_t_values]
    for q in sources + targets:
        _step_float(q.step)
    if not sources:
        return []
    sums_a = [_direct_runs(q_t, domain).error_sum(power) for q_t in targets]
    return [
        [_point(q_s, q_t, sum_a, chain.error_sum(power), domain, metric)
         for q_t, sum_a, chain in zip(targets, sums_a, _chain_runs(q_s, targets, domain))]
        for q_s in sources
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


def _boundary_ranges(q_t: Quantizer, domain: CoefficientDomain) -> list[tuple[int, int]]:
    """(k_lo, k_hi) for each side of zero whose domain part holds q_t decision
    boundaries k_lo..k_hi; ValueError if neither does.

    Boundary k >= 1 lies at +-(k - f)*t; the negative side mirrors [-hi, -lo].
    """
    t, f = q_t.step, q_t.offset
    ranges = []
    for lo, hi in ((domain.lo, domain.hi), (-domain.hi, -domain.lo)):
        k_lo, k_hi = max(1, math.ceil(lo / t + f)), math.floor(hi / t + f)
        if k_hi >= k_lo:
            ranges.append((k_lo, k_hi))
    if not ranges:
        raise ValueError("domain contains no target-step decision boundaries")
    return ranges


def _aligned_fraction(
    q_t: Quantizer, q: int, k0: Optional[int], domain: CoefficientDomain
) -> Fraction:
    """Fraction of q_t decision boundaries in the domain that are also source
    boundaries, where every q-th target boundary from k0 on is one."""
    total = aligned = 0
    for k_lo, k_hi in _boundary_ranges(q_t, domain):
        total += k_hi - k_lo + 1
        if k0 is not None:
            aligned += (k_hi - k0) // q - (k_lo - 1 - k0) // q
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
    for q in (q_s, q_t):
        _step_float(q.step)
    ratio = q_t.step / q_s.step
    k0 = _aligned_residue(ratio, q_s.offset)
    frac_aligned = _aligned_fraction(q_t, ratio.denominator, k0, domain)
    direct, chain = _runs(q_s, q_t, domain)
    extra = Fraction(chain.max_error() - direct.max_error(), q_t.step.denominator)
    return OverlapReport(
        qstep_s=_step_float(q_s.step),
        qstep_t=_step_float(q_t.step),
        offset=float(q_s.offset),
        aligned_fraction=float(frac_aligned),
        split_bin_period=_split_bin_description(ratio, q_s.offset, k0),
        max_extra_error=float(extra),
    )
