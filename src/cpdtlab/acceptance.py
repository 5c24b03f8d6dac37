"""Executable acceptance checks for the full pipeline.

Each check exercises one verifiable claim about the implementation: exact
requantization identities and trends over the integer coefficient domain,
near-losslessness of the integer transform chain, cascaded-transcode quality
trends on synthetic planes, and byte-level determinism of the CLI artifacts.
Check 06's reported reference triple, its tolerance and the conventions it
audits live here, with the check, since nothing else reads them.

`CHECKS` is the acceptance layer: it maps each check's name to the check and
its time budget.  `run_check` is the one way to run a check and the one
timer; `cpdtlab verify` and the acceptance test module both loop over
`CHECKS` through it.
"""

from __future__ import annotations

import functools
import math
import statistics
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .codec import ContentSpec, synth_content
from .cpdt import (
    LOCAL_MIN_QPS,
    TranscodeRecord,
    full_sweep,
    local_minimum_report,
)
from .quantizer import QP_RANGE, Quantizer, as_fraction
from .requant import (
    DEFAULT_DOMAIN,
    METRICS,
    RequantPoint,
    _chain_runs,
    _direct_runs,
    _violations,
    boundary_overlap,
    error_ratio,
    sweep_qstep_t,
)
from .transform import forward_transform, inverse_transform

__all__ = ["CheckResult", "CHECKS", "run_check"]

# The source step of checks 01-05 and the target steps that checks 02 and 03 sweep.
_SOURCE_STEP = 12
_TARGET_STEPS = range(2, 41)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  [{self.seconds:.1f}s]  {self.detail}"


@functools.cache
def _sweeps() -> dict[float, list[TranscodeRecord]]:
    """Full 52x52 sweeps of seed-1 256x256 planes, keyed by complexity.

    Built on first use and shared by checks 08-11.
    """
    sweeps = {}
    for complexity in (0.3, 0.6, 0.9):
        plane = synth_content(ContentSpec(seed=1, complexity=complexity))
        sweeps[complexity] = full_sweep(plane, QP_RANGE, QP_RANGE)
    return sweeps


def _check_integer_multiple_identity() -> tuple[bool, str]:
    """Ratio is exactly 1.0 when the target step is an integer multiple."""
    q_s = Quantizer(_SOURCE_STEP)
    qts = [k * _SOURCE_STEP for k in (1, 2, 3)]
    ratios = [error_ratio(q_s, Quantizer(qt)).ratio for qt in qts]
    exact = all(r == 1.0 for r in ratios)
    return exact, f"E_b/E_a at q_t={'/'.join(map(str, qts))} = {'/'.join(map(repr, ratios))}"


def _check_pointwise_dominance() -> tuple[bool, str]:
    """Chain error never beats direct error, pointwise, anywhere on the grid."""
    targets = [Quantizer(qt) for qt in _TARGET_STEPS]
    violations = 0
    ratio_below_one = 0
    for q_t, chain in zip(targets, _chain_runs(Quantizer(_SOURCE_STEP), targets, DEFAULT_DOMAIN)):
        direct = _direct_runs(q_t, DEFAULT_DOMAIN)
        violations += _violations(direct, chain)
        ratio_below_one += chain.error_sum(1) < direct.error_sum(1)
    detail = (
        f"{len(_TARGET_STEPS)} target steps x {DEFAULT_DOMAIN.size} coefficients: "
        f"{violations} pointwise violations, {ratio_below_one} cells with ratio < 1"
    )
    return violations == 0 and ratio_below_one == 0, detail


def _check_off_multiple_spike() -> tuple[bool, str]:
    """Off-multiple target steps can more than double the direct error."""
    points = sweep_qstep_t(_SOURCE_STEP, list(_TARGET_STEPS))
    max_ratio = max(pt.ratio for pt in points)
    r13 = next(pt.ratio for pt in points if pt.qstep_t == 13.0)
    detail = (
        f"max ratio over q_t={_TARGET_STEPS[0]}..{_TARGET_STEPS[-1]} is {max_ratio:.6f}; "
        f"ratio(q_t=13) = {r13:.6f}"
    )
    return max_ratio > 2.0 and r13 > 1.0, detail


def _oracle_mean_ratio(q_s: int, q_t: int) -> Fraction:
    """Brute-force mean-abs error ratio over DEFAULT_DOMAIN, pure integer arithmetic.

    Independent of the vectorized path: with offset 0 and integer steps the
    level magnitude is plain floor division, so both error sums reduce to
    remainders.
    """
    sum_a = 0
    sum_b = 0
    for x in range(DEFAULT_DOMAIN.lo, DEFAULT_DOMAIN.hi + 1):
        a = abs(x)
        sum_a += a - (a // q_t) * q_t
        recon = (a // q_s) * q_s
        sum_b += a - (recon // q_t) * q_t
    return Fraction(sum_b, sum_a)


def _check_decreasing_off_multiple_trend() -> tuple[bool, str]:
    """Ratio at off-multiple steps falls as the target step grows."""
    qts = [k * _SOURCE_STEP + 1 for k in (1, 2, 3)]
    oracle = [_oracle_mean_ratio(_SOURCE_STEP, qt) for qt in qts]
    q_s = Quantizer(_SOURCE_STEP)
    impl = [error_ratio(q_s, Quantizer(qt)).ratio for qt in qts]
    oracle_ordered = oracle[2] < oracle[1] < oracle[0]
    impl_ordered = impl[2] < impl[1] < impl[0]
    consistent = all(abs(i - float(o)) < 1e-12 for i, o in zip(impl, oracle))
    detail = (
        f"oracle ratios {'/'.join(map(str, qts))} = {'/'.join(f'{float(o):.6f}' for o in oracle)}"
        f"; implementation agrees within 1e-12: {consistent}"
    )
    return oracle_ordered and impl_ordered and consistent, detail


def _check_half_integer_minimum() -> tuple[bool, str]:
    """q_t/q_s = 2.5 is a local ratio minimum that stays above 1."""
    q_s = Quantizer(_SOURCE_STEP)
    steps = {m: as_fraction(m) * _SOURCE_STEP for m in ("2.3", "2.5", "2.7")}
    ratios = {m: error_ratio(q_s, Quantizer(qt)).ratio for m, qt in steps.items()}
    local_min = ratios["2.5"] < ratios["2.3"] and ratios["2.5"] < ratios["2.7"]
    above_one = ratios["2.5"] > 1.0
    report = boundary_overlap(q_s, Quantizer(steps["2.5"]))
    overlap_exact = report.aligned_fraction == 0.5 and report.max_extra_error == 6.0
    detail = (
        f"ratios at 2.3/2.5/2.7 x q_s = {ratios['2.3']:.6f}/{ratios['2.5']:.6f}/"
        f"{ratios['2.7']:.6f}; overlap({_SOURCE_STEP}, {steps['2.5']}): "
        f"aligned {report.aligned_fraction}, extra {report.max_extra_error}"
    )
    return local_min and above_one and overlap_exact, detail


# (E_a, E_b, ratio) previously reported for the QStep 10 -> 20 chain; the
# generating convention was left unspecified, so check 06 recomputes the
# chain over the default domain, toward zero, under every supported
# (offset, metric) convention, and _matches_reference says which, if any,
# reproduces these values within REFERENCE_TOLERANCE.
REPORTED_REFERENCE = {"e_a": 12.0, "e_b": 14.5, "ratio": 1.2}
REFERENCE_TOLERANCE = 0.02

AUDIT_OFFSETS = (Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))


def _matches_reference(point: RequantPoint) -> bool:
    """Whether e_a, e_b and ratio each lie within REFERENCE_TOLERANCE
    (relative) of REPORTED_REFERENCE; an undefined ratio never matches."""
    return point.ratio is not None and all(
        math.isclose(getattr(point, key), ref, rel_tol=REFERENCE_TOLERANCE)
        for key, ref in REPORTED_REFERENCE.items()
    )


def _convention_audit() -> list[RequantPoint]:
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


def _check_convention_audit() -> tuple[bool, str]:
    """Every (offset, metric) convention is tabulated against the reference."""
    rows = _convention_audit()
    complete = len(rows) == len(AUDIT_OFFSETS) * len(METRICS) and all(
        math.isfinite(r.e_a) and math.isfinite(r.e_b) and r.ratio is not None for r in rows
    )
    matches = [r for r in rows if _matches_reference(r)]
    closest = min(rows, key=lambda r: abs(r.ratio - REPORTED_REFERENCE["ratio"]))
    if matches:
        note = "matching conventions: " + ", ".join(
            f"offset={r.offset:g} {r.metric}" for r in matches
        )
    else:
        triple = ", ".join(f"{value:g}" for value in REPORTED_REFERENCE.values())
        note = (
            f"no convention reproduces ({triple}) within {REFERENCE_TOLERANCE:.0%}; "
            f"closest ratio is offset={closest.offset:g} {closest.metric} at {closest.ratio:.5f}"
        )
    return complete, f"{len(rows)} rows audited; {note}"


def _check_transform_near_lossless() -> tuple[bool, str]:
    """Round trips stay within 2 per sample yet are not fully lossless."""
    rng = np.random.default_rng(1234)
    max_err = 0
    nonzero_seen = False
    total = 0
    for size, count in ((4, 60000), (8, 50000)):
        blocks = rng.integers(-255, 256, size=(count, size, size), dtype=np.int64)
        recon = inverse_transform(forward_transform(blocks))
        err = int(np.abs(recon - blocks).max())
        max_err = max(max_err, err)
        nonzero_seen = nonzero_seen or err >= 1
        total += count
    detail = (
        f"{total} random residual blocks (sizes 4 and 8): max round-trip error {max_err} "
        f"(needs <= 2, >= 1 somewhere)"
    )
    return max_err <= 2 and nonzero_seen, detail


def _check_matched_qp_local_minimum() -> tuple[bool, str]:
    """Re-encoding at qp_t = qp_s minimizes |delta PSNR| and still loses quality."""
    reports = [local_minimum_report(records) for records in _sweeps().values()]
    rows = [row for report in reports for row in report]
    complete = all([row.qp_s for row in report] == list(LOCAL_MIN_QPS) for report in reports)
    matches = sum(row.matches for row in rows)
    deltas = [row.delta_at_qp_s for row in rows]
    all_negative = all(d < 0 for d in deltas)
    detail = (
        f"argmin matches {matches}/{len(rows)} (needs >= {math.ceil(0.75 * len(rows))}); "
        f"every plane reports qp_s {list(LOCAL_MIN_QPS)}: {complete}; "
        f"delta at qp_t=qp_s in [{min(deltas, default=math.nan):.5f}, "
        f"{max(deltas, default=math.nan):.5f}] dB, all negative: {all_negative}"
    )
    return complete and matches >= 0.75 * len(rows) and all_negative, detail


def _pooled_abs_delta(records: list[TranscodeRecord], lo: float, hi: float) -> list[float]:
    """|delta PSNR| of the unflagged records whose rate ratio is in [lo, hi)."""
    return [abs(r.delta_psnr) for r in records if r.flag is None and lo <= r.ratio < hi]


def _check_high_ratio_degradation() -> tuple[bool, str]:
    """Transcoding above 120% of the source rate hurts more than 80-100%."""
    pooled = [r for records in _sweeps().values() for r in records]
    high = _pooled_abs_delta(pooled, 1.2, math.inf)
    mid = _pooled_abs_delta(pooled, 0.8, 1.0)
    if not high or not mid:
        return False, f"empty ratio bin: {len(high)} records > 120%, {len(mid)} in 80-100%"
    mean_high = statistics.fmean(high)
    mean_mid = statistics.fmean(mid)
    detail = (
        f"mean |delta PSNR| above 120%: {mean_high:.4f} dB over {len(high)} records; "
        f"80-100%: {mean_mid:.4f} dB over {len(mid)} records"
    )
    return mean_high > mean_mid, detail


def _check_source_rate_dependence() -> tuple[bool, str]:
    """Coarser sources (higher qp_s) lose more at ratios >= 100%, per plane."""
    parts = []
    ok = True
    for complexity, records in _sweeps().items():
        means = {}
        for qp_s in (22, 38):
            vals = _pooled_abs_delta([r for r in records if r.qp_s == qp_s], 1.0, math.inf)
            if not vals:
                return False, f"no ratio >= 1 records for qp_s={qp_s} on plane c={complexity}"
            means[qp_s] = statistics.fmean(vals)
        ok = ok and means[38] > means[22]
        parts.append(f"c={complexity:g}: qp_s=38 {means[38]:.3f} vs qp_s=22 {means[22]:.3f}")
    return ok, "mean |delta PSNR| at ratio >= 100% - " + "; ".join(parts)


def _run_cli(argv: list[str]) -> None:
    from . import cli

    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"CLI exited {rc}: {argv}")


def _check_determinism_and_format() -> tuple[bool, str]:
    """Identical configs give byte-identical artifacts; full sweeps hold every qp pair."""
    counts = [len(records) for records in _sweeps().values()]
    grid = len(QP_RANGE) ** 2
    with tempfile.TemporaryDirectory() as tmp:
        plane = str(Path(tmp) / "plane.pgm")
        gen = ["gen-content", "--seed", "5", "--complexity", "0.6", "--width", "64",
               "--height", "64", "--out"]
        _run_cli(gen + [plane])
        # Each run writes into an empty directory {out} exactly the files named
        # after its command, and both runs' files must match byte for byte.
        commands = [
            (gen + ["{out}/gen.pgm"], "gen.pgm"),
            (["requant", "sweep", "--qstep-s", "12", "--qstep-t", "2:14:3",
              "--domain=-2048:2047", "--out", "{out}/sweep.csv"], "sweep.csv"),
            (["requant", "surface", "--qstep-s", "10:12:1", "--qstep-t", "10:14:2",
              "--domain=-2048:2047", "--out", "{out}/surface.csv"], "surface.csv"),
            (["requant", "overlap", "--qstep-s", "10", "--qstep-t", "25",
              "--out", "{out}/overlap.csv"], "overlap.csv"),
            (["rd-curve", "--input", plane, "--qp", "18:42:6", "--out", "{out}/curve.csv"],
             "curve.csv"),
            (["cpdt-sweep", "--input", plane, "--qp-s", "26:30:2", "--qp-t", "26:30:1",
              "--out-prefix", "{out}/run"], "run_local_min.csv run_profile.csv run_records.csv"),
        ]
        mismatched = []
        for i, (argv, names) in enumerate(commands):
            outputs = []
            for run in ("one", "two"):
                out = Path(tmp) / f"{i}-{run}"
                out.mkdir()
                _run_cli([a.replace("{out}", str(out)) for a in argv])
                outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
            if sorted(outputs[0]) != names.split() or outputs[0] != outputs[1]:
                mismatched.append(argv[0])
    identical = not mismatched
    sized = all(n == grid for n in counts)
    detail = (
        f"{len(commands)} commands rerun byte-identical: {identical}"
        + (f" (mismatch: {mismatched})" if mismatched else "")
        + f"; full-sweep records per plane: {'/'.join(str(n) for n in counts)} (needs {grid})"
    )
    return identical and sized, detail


# name -> (check, budget in seconds or None); a check that runs past its
# budget fails.
CHECKS: dict[str, tuple[Callable[[], tuple[bool, str]], Optional[float]]] = {
    "01-integer-multiple-identity": (_check_integer_multiple_identity, 5.0),
    "02-pointwise-dominance": (_check_pointwise_dominance, None),
    "03-off-multiple-spike": (_check_off_multiple_spike, None),
    "04-decreasing-off-multiple-trend": (_check_decreasing_off_multiple_trend, None),
    "05-half-integer-minimum": (_check_half_integer_minimum, None),
    "06-convention-audit": (_check_convention_audit, 30.0),
    "07-transform-near-lossless": (_check_transform_near_lossless, 60.0),
    "08-matched-qp-local-minimum": (_check_matched_qp_local_minimum, 600.0),
    "09-high-ratio-degradation": (_check_high_ratio_degradation, None),
    "10-source-rate-dependence": (_check_source_rate_dependence, None),
    "11-determinism-and-format": (_check_determinism_and_format, None),
}


def run_check(name: str) -> CheckResult:
    """Run one named check and time it; past its budget it fails."""
    check, budget_s = CHECKS[name]
    t0 = time.perf_counter()
    passed, detail = check()
    seconds = time.perf_counter() - t0
    if budget_s is not None and seconds >= budget_s:
        passed, detail = False, f"{detail}; over its {budget_s:g}s budget"
    return CheckResult(name=name, passed=passed, detail=detail, seconds=seconds)
