"""Cascaded pixel-domain transcoding harness.

A transcode re-encodes an already decoded plane:

    R = decode(encode(plane, qp_s))      the source encode
    T = decode(encode(R, qp_t))          the transcode

and compares the transcode against the direct encode of the original plane
that spends the same rate: delta_psnr = psnr(T) - psnr_direct_at(target_rate),
where the direct reference is read off the plane's rate-distortion curve by
piecewise-linear interpolation of PSNR against log2(rate).  The transcoding
ratio target_rate / source_rate is the independent variable of the study.

Records whose target rate falls outside the direct curve's rate span (or
whose source rate is zero) are flagged and excluded from aggregation rather
than extrapolated.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .codec import DEFAULT_BLOCK_SIZE, _Scorer

# Unused here: perfbench/tracer.py wraps these four names on this module.
from .codec import decode_plane, encode_plane, estimate_rate, psnr  # noqa: F401
from .quantizer import QP_RANGE, qp_to_qstep
from .requant import UNDEFINED_RATIO

__all__ = [
    "RATE_OUT_OF_SPAN",
    "DEFAULT_BIN_WIDTH",
    "RDPoint",
    "RDCurve",
    "TranscodeRecord",
    "RatioBin",
    "LocalMinimumRow",
    "build_rd_curve",
    "interp_psnr_at_rate",
    "full_sweep",
    "aggregate_by_ratio",
    "local_minimum_report",
]

RATE_OUT_OF_SPAN = "rate_out_of_span"

# Matched-qp points the local-minimum report is read at, and the qp_t
# half-width of the neighborhood searched around each.
LOCAL_MIN_QPS = (22, 28, 32, 38)
LOCAL_MIN_RADIUS = 2

# Transcoding-ratio bin width of a profile unless the caller picks another.
DEFAULT_BIN_WIDTH = 0.05

# Most bins one ratio profile may hold; the count is checked before the bins
# are built.  A 0.05-wide profile of ratios up to 500 fits.
MAX_RATIO_BINS = 10_000


@dataclass(frozen=True)
class RDPoint:
    qp: int
    rate: float
    psnr: float


@dataclass(frozen=True)
class RDCurve:
    """Rate-distortion samples of one plane.

    samples: one point per requested qp, ordered by qp.
    points: the interpolation set - sorted by rate, duplicate rates merged
        keeping the best PSNR, Pareto-dominated points dropped, so rate is
        strictly increasing and PSNR strictly increasing.
    """

    samples: tuple[RDPoint, ...]
    points: tuple[RDPoint, ...]


@dataclass(frozen=True)
class TranscodeRecord:
    """One (qp_s, qp_t) cascaded transcode of a plane.

    delta_psnr is None iff flag is set (no honest direct reference exists at
    the target rate).
    """

    qp_s: int
    qp_t: int
    source_rate: float
    target_rate: float
    ratio: Optional[float]
    psnr_r: float
    psnr_t: float
    psnr_c: Optional[float]
    delta_psnr: Optional[float]
    flag: Optional[str] = None


@dataclass(frozen=True)
class RatioBin:
    ratio_lo: float
    ratio_hi: float
    mean_delta_psnr: Optional[float]
    count: int


@dataclass(frozen=True)
class LocalMinimumRow:
    """Where |delta_psnr| bottoms out in a qp_t neighborhood of qp_s."""

    qp_s: int
    best_qp_t: int
    matches: bool
    delta_at_qp_s: float


def _rd_curve(samples: Sequence[RDPoint]) -> RDCurve:
    """The RD curve of one plane's samples, ordered by qp."""
    # By rate, best PSNR first (a stable sort: ties keep the lowest qp); a
    # point is kept when its PSNR beats the last point kept.
    cleaned: list[RDPoint] = []
    for pt in sorted(samples, key=lambda p: (p.rate, -p.psnr)):
        if not cleaned or pt.psnr > cleaned[-1].psnr:
            cleaned.append(pt)
    return RDCurve(samples=tuple(samples), points=tuple(cleaned))


def _checked_qps(qps: Sequence[int]) -> list[int]:
    """The qps as a list, each judged by the one qp rule, qp_to_qstep, before any work."""
    qps = list(qps)
    for qp in qps:
        qp_to_qstep(qp)
    return qps


def build_rd_curve(
    plane: np.ndarray,
    qps: Sequence[int] = QP_RANGE,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> RDCurve:
    """Encode/decode the plane at each qp and assemble its RD curve; every qp is judged first."""
    qps = sorted(set(_checked_qps(qps)))
    if not qps:
        raise ValueError("need at least one qp")
    scorer = _Scorer(plane, block_size)
    scores = scorer.score(scorer.coeff, qps)
    return _rd_curve([RDPoint(qp, rate, db) for qp, (rate, db) in zip(qps, scores)])


def interp_psnr_at_rate(curve: RDCurve, rate: float) -> Optional[float]:
    """PSNR of the curve at a rate, linear in log2(rate) between points.

    Exact point rates short-circuit to that point's PSNR.  Rates outside the
    curve's span return None; no extrapolation.  So does a rate between a
    zero-rate point and the next point, where log2 is undefined.  At the log2
    midpoint of two rates this returns the arithmetic mean of their PSNRs.
    """
    rates = [p.rate for p in curve.points]
    i = bisect_left(rates, rate)
    if i < len(rates) and rates[i] == rate:
        return curve.points[i].psnr
    if i == 0 or i == len(rates) or rates[i - 1] <= 0.0:
        return None
    r0, p0 = rates[i - 1], curve.points[i - 1].psnr
    r1, p1 = rates[i], curve.points[i].psnr
    t = (math.log2(rate) - math.log2(r0)) / (math.log2(r1) - math.log2(r0))
    return p0 + t * (p1 - p0)


def full_sweep(
    plane: np.ndarray,
    qp_s_values: Sequence[int],
    qp_t_values: Sequence[int],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[TranscodeRecord]:
    """Every (qp_s, qp_t) pair, scored against the plane's direct curve.

    The direct curve is the plane's own RD curve over QP_RANGE at the sweep's
    block size; no curve from another plane or block size can enter.

    Cost model.  Every qp_s and qp_t is checked before any work.  Once per
    sweep one scorer (codec._Scorer) tiles the plane into the transform's
    (row, col, block) layout, as the PSNR reference, and forward-transforms
    it into coefficient rows.  One scorer pass over QP_RANGE reads the
    direct curve off those rows, and each source is a sample of that pass:
    its rate and PSNR are the curve's sample at qp_s, and at each requested
    qp_s the pass hands back the source's coefficient rows, the transcoder's
    input.  The pass builds them from its own clipped pixel rows: one
    centring subtraction, one edge-padding scatter over the padding alone
    and one in-place forward transform (a flat GEMM, then a stack of N).
    The source's targets are scored right there, before the pass goes on,
    so at most one source's coefficients and target buffers exist at a
    time.  Per source, the distinct coefficient values, their counts and a
    gather index are found in O(plane size).  Per block of target qps only
    the distinct values are quantized and dequantized, in one call each,
    each qp's rate is read from their merged counts, and an exact integer
    test on each qp's table decides whether its stage-1 clip can bite.
    Once per (qp_s, qp_t) pair one gather, one in-place inverse transform
    and one exact squared-error sum (a stacked dot over chunks) give the
    PSNR (codec._Scorer): 8 passes over the plane, plus two adds over 1/N
    of it, where the rounding and the bias enter through the DC inputs.
    These passes run in float32, exact on the 16-bit dequantized values, so
    each moves half the bytes of float64.
    """
    qp_s_values, qp_t_values = _checked_qps(qp_s_values), _checked_qps(qp_t_values)
    wanted = set(qp_s_values)
    scorer = _Scorer(plane, block_size)
    samples, sources = [], {}
    for qp, (rate, db, source) in zip(QP_RANGE, scorer._scores(scorer.coeff, QP_RANGE, wanted)):
        samples.append(RDPoint(qp, rate, db))
        if source is not None:
            sources[qp] = (rate, db, scorer.score(source, qp_t_values))
    direct_curve = _rd_curve(samples)
    records = []
    for qp_s in qp_s_values:
        source_rate, psnr_r, targets = sources[qp_s]
        for qp_t, (target_rate, psnr_t) in zip(qp_t_values, targets):
            ratio = psnr_c = flag = None
            if source_rate == 0.0:
                flag = UNDEFINED_RATIO
            else:
                ratio = target_rate / source_rate
                psnr_c = interp_psnr_at_rate(direct_curve, target_rate)
                if psnr_c is None:
                    flag = RATE_OUT_OF_SPAN
            records.append(
                TranscodeRecord(
                    qp_s=qp_s, qp_t=qp_t, source_rate=source_rate, target_rate=target_rate,
                    ratio=ratio, psnr_r=psnr_r, psnr_t=psnr_t, psnr_c=psnr_c,
                    delta_psnr=None if psnr_c is None else psnr_t - psnr_c, flag=flag,
                )
            )
    return records


def aggregate_by_ratio(
    records: Sequence[TranscodeRecord], bin_width: float = DEFAULT_BIN_WIDTH
) -> tuple[RatioBin, ...]:
    """Mean delta-PSNR of the non-flagged records pooled per transcoding-ratio bin.

    Bins are contiguous half-open intervals [ratio_lo, ratio_hi) of width
    bin_width, starting at 0 and extending just far enough that every
    non-flagged record lands in exactly one bin.  Raises ValueError when
    bin_width is not positive and finite, or when the bins would number more
    than MAX_RATIO_BINS.
    """
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
    kept = [r for r in records if r.flag is None]
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for rec in kept:
        idx = int(rec.ratio // bin_width)
        sums[idx] = sums.get(idx, 0.0) + rec.delta_psnr
        counts[idx] = counts.get(idx, 0) + 1
    top = max(counts) + 1 if counts else 0
    if top > MAX_RATIO_BINS:
        raise ValueError(
            f"bin width {bin_width} needs {top} ratio bins; the limit is {MAX_RATIO_BINS}"
        )
    bins = []
    for i in range(top):
        n = counts.get(i, 0)
        mean = sums[i] / n if n else None
        bins.append(RatioBin(i * bin_width, (i + 1) * bin_width, mean, n))
    return tuple(bins)


def local_minimum_report(records: Sequence[TranscodeRecord]) -> list[LocalMinimumRow]:
    """Argmin of |delta_psnr| over qp_t within LOCAL_MIN_RADIUS of qp_s.

    Reports each LOCAL_MIN_QPS entry whose full qp_t neighborhood is in the
    records and whose center record is not flagged, and leaves out the rest.
    """
    by_pair = {(r.qp_s, r.qp_t): r for r in records}
    rows = []
    for qp_s in LOCAL_MIN_QPS:
        neighborhood = [
            by_pair.get((qp_s, qp_s + d)) for d in range(-LOCAL_MIN_RADIUS, LOCAL_MIN_RADIUS + 1)
        ]
        center = neighborhood[LOCAL_MIN_RADIUS]
        if any(r is None for r in neighborhood) or center.flag is not None:
            continue
        scored = [r for r in neighborhood if r.flag is None]
        best = min(scored, key=lambda r: abs(r.delta_psnr))
        rows.append(
            LocalMinimumRow(
                qp_s=qp_s,
                best_qp_t=best.qp_t,
                matches=best.qp_t == qp_s,
                delta_at_qp_s=center.delta_psnr,
            )
        )
    return rows
