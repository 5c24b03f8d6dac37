"""Transcoding harness: RD curves, interpolation, sweeps, aggregation."""

import hashlib
import math
import random

import numpy as np
import pytest

from codec_chain import _transform_plane, encode
from cpdtlab import codec, cpdt
from cpdtlab.codec import ContentSpec, decode_plane, estimate_rate, psnr, synth_content
from cpdtlab.cpdt import (
    MAX_RATIO_BINS,
    RATE_OUT_OF_SPAN,
    LocalMinimumRow,
    RDCurve,
    RDPoint,
    TranscodeRecord,
    aggregate_by_ratio,
    build_rd_curve,
    full_sweep,
    interp_psnr_at_rate,
    local_minimum_report,
)
from cpdtlab.pgm import encode_pgm
from cpdtlab.quantizer import QP_RANGE
from cpdtlab.requant import UNDEFINED_RATIO
from cpdtlab.transform import TRANSFORM_SIZES, _rows


def _two_point_curve() -> RDCurve:
    points = (RDPoint(qp=40, rate=1.0, psnr=10.0), RDPoint(qp=20, rate=4.0, psnr=20.0))
    return RDCurve(samples=points, points=points)


class TestRDCurve:
    def test_default_curve_has_52_samples(self, curve64):
        assert len(curve64.samples) == 52
        assert [s.qp for s in curve64.samples] == list(range(52))

    def test_points_strictly_increasing_both_axes(self, curve64):
        rates = [p.rate for p in curve64.points]
        psnrs = [p.psnr for p in curve64.points]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert all(b > a for a, b in zip(psnrs, psnrs[1:]))

    def test_span_endpoints(self, curve64):
        # The first and last points bound the interpolable span.
        lo, hi = curve64.points[0], curve64.points[-1]
        assert lo.rate < hi.rate
        assert interp_psnr_at_rate(curve64, lo.rate) == lo.psnr
        assert interp_psnr_at_rate(curve64, hi.rate) == hi.psnr
        assert interp_psnr_at_rate(curve64, math.nextafter(lo.rate, 0.0)) is None
        assert interp_psnr_at_rate(curve64, math.nextafter(hi.rate, math.inf)) is None

    def test_empty_qp_list_rejected(self, plane64):
        with pytest.raises(ValueError):
            build_rd_curve(plane64, qps=[])

    def test_duplicate_qps_collapse(self, plane64):
        curve = build_rd_curve(plane64, qps=[30, 30, 20])
        assert [s.qp for s in curve.samples] == [20, 30]

    @pytest.mark.parametrize("block_size", TRANSFORM_SIZES)
    def test_equal_rates_keep_the_lowest_qp_of_the_best_psnr(self, block_size):
        # Every qp codes a constant plane at one rate, and most decode it
        # losslessly (the 99.99 dB cap): the curve is the qp-0 sample alone.
        curve = build_rd_curve(np.full((16, 16), 200, np.uint8), block_size=block_size)
        assert len({s.rate for s in curve.samples}) == 1
        assert curve.points == (curve.samples[0],)
        assert curve.samples[0].qp == 0

    @pytest.mark.parametrize(
        "qps, block_size", [([30, 52], 8), ([-1, 30], 8), ([30], 16), ([30], 0), ([30], -4)]
    )
    def test_invalid_qp_or_block_size_rejected(self, plane64, qps, block_size):
        match = "qp must lie" if block_size == 8 else "unsupported transform size"
        with pytest.raises(ValueError, match=match):
            build_rd_curve(plane64, qps=qps, block_size=block_size)

    @pytest.mark.parametrize("qps, error", [([20, 99], ValueError), ([20, "x"], TypeError)])
    def test_qps_checked_before_any_work(self, plane64, qps, error, monkeypatch):
        # Every qp is judged before sorting and before the scorer is built,
        # so neither the scorer nor sorted() can raise first.
        def no_scorer(*args):
            raise AssertionError("the scorer was built before every qp was checked")

        monkeypatch.setattr(cpdt, "_Scorer", no_scorer)
        with pytest.raises(error, match="qp must"):
            build_rd_curve(plane64, qps)


@pytest.mark.parametrize(
    "entry",
    [build_rd_curve, lambda p: full_sweep(p, [30], [30]), lambda p: psnr(p, p), encode_pgm],
    ids=["build_rd_curve", "full_sweep", "psnr", "encode_pgm"],
)
def test_empty_plane_is_bad_input(entry):
    # The codec's plane rule refuses a plane with no samples at every entry
    # point, so none fails inside numpy and the PGM writer refuses what the
    # reader would.
    for shape in ((0, 5), (5, 0)):
        with pytest.raises(ValueError, match="at least one sample"):
            entry(np.zeros(shape, np.uint8))


def _odd_plane():
    """37x22: padded on both axes at either block size."""
    return synth_content(ContentSpec(seed=8, complexity=0.7, width=37, height=22))


def _check_plain_chain_records(plane, qp_s_values, qp_t_values, block_size):
    """full_sweep's records equal the plain chain's, run afresh for every pair."""
    curve = build_rd_curve(plane, block_size=block_size)
    records = full_sweep(plane, qp_s_values, qp_t_values, block_size)
    assert [(r.qp_s, r.qp_t) for r in records] == [
        (s, t) for s in qp_s_values for t in qp_t_values
    ]
    for rec in records:
        source = encode(plane, rec.qp_s, block_size)
        recon = decode_plane(source)
        target = encode(recon, rec.qp_t, block_size)
        assert rec.source_rate == estimate_rate(source)
        assert rec.psnr_r == psnr(plane, recon)
        assert rec.target_rate == estimate_rate(target)
        assert rec.psnr_t == psnr(plane, decode_plane(target))
        assert rec.psnr_c == interp_psnr_at_rate(curve, rec.target_rate)
        assert (rec.psnr_c is None) == (rec.flag == RATE_OUT_OF_SPAN)


class TestSweepMatchesPlainChain:
    """The sweep shares the transform across qps; its numbers must equal the
    plain encode/decode/rate/PSNR chain run afresh for every qp."""

    @pytest.mark.parametrize("block_size", [4, 8])
    def test_rd_curve_samples(self, block_size):
        plane = _odd_plane()
        curve = build_rd_curve(plane, qps=[0, 17, 30, 51], block_size=block_size)
        for pt in curve.samples:
            enc = encode(plane, pt.qp, block_size)
            assert (pt.rate, pt.psnr) == (estimate_rate(enc), psnr(plane, decode_plane(enc)))

    @pytest.mark.parametrize("block_size", [4, 8])
    def test_sweep_records(self, block_size):
        # psnr_c is read off the plane's own curve at the sweep's block size.
        _check_plain_chain_records(_odd_plane(), [12, 31], [0, 12, 30, 33, 51], block_size)

    @pytest.mark.parametrize("block_size", [4, 8])
    @pytest.mark.parametrize("qp_s_values", [[30, 12, 30], []], ids=["repeated", "empty"])
    def test_repeated_and_empty_source_lists(self, qp_s_values, block_size):
        # Each listed qp_s gives its records in list order, once per listing.
        _check_plain_chain_records(_odd_plane(), qp_s_values, [0, 30, 51], block_size)

    @pytest.mark.parametrize("block_size", [4, 8])
    @pytest.mark.parametrize(
        "plane",
        [
            _odd_plane(),
            np.full((13, 11), 200, np.uint8),
            np.full((1, 1), 90, np.uint8),
            synth_content(ContentSpec(seed=9, complexity=0.8, width=13, height=3)),
            synth_content(ContentSpec(seed=4, complexity=0.6, width=24, height=16)),
        ],
        ids=["odd", "constant", "1x1", "narrow", "whole"],
    )
    def test_scorer_hands_back_the_decoded_source(self, plane, block_size):
        # The scorer's own coefficient rows are the plane's; the rows it
        # hands back are those of decode_plane's pixels, padded as _tile pads
        # them (a whole-block plane has no padding), value for value at
        # every qp; they come with the same (rate, PSNR) as score(), and
        # score as the reference does.
        coeff = _transform_plane(plane, block_size)
        scorer = codec._Scorer(plane, block_size)
        assert np.array_equal(scorer.coeff, _rows(coeff))
        passes = list(scorer._scores(scorer.coeff, QP_RANGE, set(QP_RANGE)))
        assert [(rate, db) for rate, db, _ in passes] == scorer.score(scorer.coeff, QP_RANGE)
        for qp, (_, _, source) in zip(QP_RANGE, passes):
            recon = decode_plane(codec.encode_plane(coeff, qp, plane.shape))
            expected = _rows(_transform_plane(recon, block_size))
            assert source.shape == expected.shape
            assert np.array_equal(source, expected)
            qps = [0, 22, qp, 37, 51]
            assert scorer.score(source, qps) == scorer.score(expected, qps)
        chosen = [src is not None for _, _, src in scorer._scores(scorer.coeff, QP_RANGE, {0, 51})]
        assert chosen == [qp in (0, 51) for qp in QP_RANGE]

    def test_one_transform_and_one_scorer_serve_the_plane(self, plane64, monkeypatch):
        # The direct curve and every source encode quantize one transform of
        # the plane; the scorer hands back each source's coefficients from
        # its own pixel rows, so forward_transform runs for the plane alone.
        calls = {"forward_transform": 0, "_Scorer": 0}
        forward, scorer_init = codec.forward_transform, codec._Scorer.__init__

        def counted(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)
            return wrapper

        monkeypatch.setattr(codec, "forward_transform", counted("forward_transform", forward))
        monkeypatch.setattr(codec._Scorer, "__init__", counted("_Scorer", scorer_init))
        full_sweep(plane64, [20, 30], [30])
        assert calls == {"forward_transform": 1, "_Scorer": 1}

    def test_codec_integers_are_pinned(self, plane64, monkeypatch):
        # Every (rate, PSNR) is a float formula of exact integers: a squared-
        # error sum and a level histogram.  Full sweeps at both block sizes
        # pin the set of distinct integers the two formulas receive, so a
        # change that moves one SSE or one count by 1 fails here even where
        # the CSVs' 6 significant digits hold.
        seen = set()
        psnr_from_sse, rate_from_counts = codec._psnr_from_sse, codec._rate_from_counts

        def sse_probe(sse, samples):
            seen.add(("sse", int(sse), int(samples)))
            return psnr_from_sse(sse, samples)

        def counts_probe(counts, symbols, samples):
            seen.add(("counts", tuple(int(c) for c in counts), int(symbols), int(samples)))
            return rate_from_counts(counts, symbols, samples)

        monkeypatch.setattr(codec, "_psnr_from_sse", sse_probe)
        monkeypatch.setattr(codec, "_rate_from_counts", counts_probe)
        plane45 = synth_content(ContentSpec(seed=6, complexity=0.6, width=45, height=29))
        for plane, block_size in ((plane64, 8), (plane45, 4)):
            full_sweep(plane, QP_RANGE, QP_RANGE, block_size)
        digest = hashlib.sha256("\n".join(map(repr, sorted(seen))).encode())
        assert digest.hexdigest() == (
            "df0a024afd48ffff1c05d731329e89dddbe29fe580be7f88efefd3224f8f1eee"
        )

    @pytest.mark.parametrize(
        "qp_s, qp_t, block_size",
        [
            ([52], [30], 8), ([30], [52], 8), ([-1], [30], 8), ([30], [-1], 8), ([30], [30], 16),
            ([30], [30], 0), ([30], [30], -4),
        ],
    )
    def test_invalid_qp_or_block_size_rejected(self, plane64, qp_s, qp_t, block_size):
        match = "qp must lie" if block_size == 8 else "unsupported transform size"
        with pytest.raises(ValueError, match=match):
            full_sweep(plane64, qp_s, qp_t, block_size)

    @pytest.mark.parametrize("qp_t, error", [([52], ValueError), ([30.0], TypeError)])
    def test_target_qps_checked_before_any_work(self, plane64, qp_t, error, monkeypatch):
        # With no source qp there is no target to score, and a bad qp_t is
        # still refused; with one, it is refused before the scorer is built.
        monkeypatch.setattr(cpdt, "_Scorer", None)
        for qp_s in ([], [51]):
            with pytest.raises(error, match="qp must"):
                full_sweep(plane64, qp_s, qp_t)


class TestInterp:
    def test_exact_points_short_circuit(self):
        curve = _two_point_curve()
        assert interp_psnr_at_rate(curve, 1.0) == 10.0
        assert interp_psnr_at_rate(curve, 4.0) == 20.0

    def test_log_midpoint_gives_arithmetic_mean(self):
        # rate 2 is the log2 midpoint of [1, 4], so PSNR lands halfway.
        assert interp_psnr_at_rate(_two_point_curve(), 2.0) == 15.0

    def test_out_of_span_returns_none(self):
        curve = _two_point_curve()
        for rate in (0.5, 4.5):
            assert interp_psnr_at_rate(curve, rate) is None

    def test_zero_rate_segment_returns_none(self):
        # log2 is undefined between a zero-rate point and the next one; the
        # zero-rate point itself still short-circuits to its PSNR.
        points = (RDPoint(qp=51, rate=0.0, psnr=10.0), RDPoint(qp=40, rate=1.0, psnr=20.0))
        curve = RDCurve(samples=points, points=points)
        assert interp_psnr_at_rate(curve, 0.5) is None
        assert interp_psnr_at_rate(curve, 0.0) == 10.0

    def test_interp_on_real_curve_is_monotone(self, curve64):
        rates = np.linspace(curve64.points[0].rate, curve64.points[-1].rate, 37)
        values = [interp_psnr_at_rate(curve64, float(r)) for r in rates]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestTranscodeRecords:
    def test_sweep_shape_and_flags(self, sweep64):
        assert len(sweep64) == 7 * 13
        assert all(r.flag is None for r in sweep64)

    def test_record_consistency(self, sweep64):
        for r in sweep64:
            assert r.ratio == pytest.approx(r.target_rate / r.source_rate, rel=1e-12)
            assert r.delta_psnr == pytest.approx(r.psnr_t - r.psnr_c, abs=1e-12)
            assert type(r.psnr_r) is type(r.psnr_t) is type(r.psnr_c) is float

    def test_cascade_never_beats_direct_or_source(self, sweep64):
        for r in sweep64:
            assert r.psnr_t <= r.psnr_r + 0.01
            assert r.delta_psnr <= 0.05

    def test_matched_qp_is_strictly_lossy(self, sweep64):
        rec = next(r for r in sweep64 if r.qp_s == 28 and r.qp_t == 28)
        assert rec.delta_psnr < 0.0
        assert rec.delta_psnr == pytest.approx(-0.0104171, abs=1e-4)

    def test_iterator_qps_are_read_once(self, plane64):
        # Each qp argument is read twice, for the qp check and for the sweep.
        expected = full_sweep(plane64, [20], [30])
        assert len(expected) == 1
        assert full_sweep(plane64, iter([20]), [30]) == expected
        assert full_sweep(plane64, [20], iter([30])) == expected

    def test_constant_plane_flags_undefined_ratio(self):
        plane = np.full((32, 32), 128, dtype=np.uint8)
        [rec] = full_sweep(plane, [30], [30])
        assert rec.flag == UNDEFINED_RATIO
        assert rec.source_rate == 0.0
        assert rec.ratio is None
        assert rec.delta_psnr is None

    def test_smooth_content_survives_repeated_qp0(self):
        plane = synth_content(ContentSpec(seed=5, complexity=0.0, width=128, height=128))
        [rec] = full_sweep(plane, [0], [0])
        assert rec.flag is None
        assert rec.delta_psnr < 0.0
        assert abs(rec.delta_psnr) < 2.0

    def test_target_below_curve_flags_rate_out_of_span(self, plane64):
        # The transcode at qp_t 51 spends less than the direct encode at qp 51.
        [rec] = full_sweep(plane64, [28], [51])
        assert rec.flag == RATE_OUT_OF_SPAN
        assert rec.ratio == rec.target_rate / rec.source_rate
        assert rec.psnr_c is None
        assert rec.delta_psnr is None
        assert aggregate_by_ratio([rec]) == ()


class TestRatioStructure:
    def test_ratio_mostly_decreasing_in_qp_t(self, sweep64):
        by_qp_s = {}
        for r in sweep64:
            by_qp_s.setdefault(r.qp_s, []).append(r)
        violations = total = 0
        for rows in by_qp_s.values():
            rows.sort(key=lambda r: r.qp_t)
            for a, b in zip(rows, rows[1:]):
                total += 1
                if b.ratio > a.ratio:
                    violations += 1
        assert total == 7 * 12
        assert violations / total <= 0.10

    def test_ratio_strictly_decreasing_per_qp_step_of_six(self, plane64):
        records = full_sweep(plane64, [24, 28], range(52))
        by_pair = {(r.qp_s, r.qp_t): r for r in records}
        total = violations = 0
        for qp_s in (24, 28):
            for qp_t in range(46):
                a = by_pair[(qp_s, qp_t)]
                b = by_pair[(qp_s, qp_t + 6)]
                if a.ratio is None or b.ratio is None:
                    continue
                total += 1
                if not b.ratio < a.ratio:
                    violations += 1
        assert total == 92
        assert violations == 0

    def test_curve_steeper_at_low_rate(self, curve64):
        # PSNR per unit rate on the linear rate axis, inside the working
        # 20..50 dB window, falls as rate grows.
        pts = [p for p in curve64.points if 20.0 <= p.psnr <= 50.0]
        assert len(pts) >= 4
        slope_low = (pts[1].psnr - pts[0].psnr) / (pts[1].rate - pts[0].rate)
        slope_high = (pts[-1].psnr - pts[-2].psnr) / (pts[-1].rate - pts[-2].rate)
        assert slope_low > slope_high


class TestAggregate:
    def test_counts_cover_all_unflagged(self, sweep64):
        bins = aggregate_by_ratio(sweep64, bin_width=0.05)
        kept = [r for r in sweep64 if r.flag is None]
        assert sum(b.count for b in bins) == len(kept)

    def test_bins_are_contiguous_from_zero(self, sweep64):
        bins = aggregate_by_ratio(sweep64, bin_width=0.05)
        assert bins[0].ratio_lo == 0.0
        for a, b in zip(bins, bins[1:]):
            assert a.ratio_hi == b.ratio_lo
        for b in bins:
            assert b.ratio_hi - b.ratio_lo == pytest.approx(0.05, abs=1e-12)
            assert (b.mean_delta_psnr is None) == (b.count == 0)

    def test_single_record_occupies_one_bin(self, sweep64):
        rec = sweep64[0]
        bins = aggregate_by_ratio([rec], bin_width=0.05)
        occupied = [b for b in bins if b.count]
        assert len(occupied) == 1
        assert occupied[0].count == 1
        assert occupied[0].mean_delta_psnr == rec.delta_psnr
        assert occupied[0].ratio_lo <= rec.ratio < occupied[0].ratio_hi

    def test_order_invariance(self, sweep64):
        base = aggregate_by_ratio(sweep64, bin_width=0.05)
        shuffled = random.Random(0).sample(list(sweep64), len(sweep64))
        other = aggregate_by_ratio(shuffled, bin_width=0.05)
        assert len(base) == len(other)
        for a, b in zip(base, other):
            assert a.count == b.count
            if a.count:
                assert a.mean_delta_psnr == pytest.approx(b.mean_delta_psnr, abs=1e-9)

    def test_bad_bin_width_rejected(self, sweep64):
        for bin_width in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                aggregate_by_ratio(sweep64, bin_width=bin_width)

    def test_bin_count_cap(self):
        # Two records whose ratios span MAX_RATIO_BINS bins of width 1, then one
        # bin more; the second profile is refused before any bin is built.
        def record(ratio):
            return TranscodeRecord(
                qp_s=30, qp_t=30, source_rate=1.0, target_rate=ratio, ratio=ratio,
                psnr_r=40.0, psnr_t=39.0, psnr_c=39.5, delta_psnr=-0.5,
            )

        at_cap = aggregate_by_ratio([record(0.5), record(MAX_RATIO_BINS - 0.5)], bin_width=1.0)
        assert len(at_cap) == MAX_RATIO_BINS
        with pytest.raises(ValueError, match="limit"):
            aggregate_by_ratio([record(0.5), record(MAX_RATIO_BINS + 0.5)], bin_width=1.0)

    def test_flagged_records_are_excluded(self, sweep64):
        plane = np.full((32, 32), 128, dtype=np.uint8)
        [flagged] = full_sweep(plane, [30], [30])
        base = aggregate_by_ratio(sweep64)
        withf = aggregate_by_ratio(list(sweep64) + [flagged])
        assert sum(b.count for b in base) == sum(b.count for b in withf)


class TestLocalMinimum:
    def test_auto_eligibility(self, sweep64):
        # Of LOCAL_MIN_QPS only 28 has qp_s in 24..30; its qp_t 26..30 lie in 22..34.
        rows = local_minimum_report(sweep64)
        assert [r.qp_s for r in rows] == [28]
        for row in rows:
            assert isinstance(row, LocalMinimumRow)
            assert row.matches == (row.best_qp_t == row.qp_s)
            assert row.delta_at_qp_s < 0.0

    def test_auto_skips_flagged_center(self):
        plane = np.full((32, 32), 128, dtype=np.uint8)
        records = full_sweep(plane, [28], range(26, 31))
        assert all(r.flag == UNDEFINED_RATIO for r in records)
        assert local_minimum_report(records) == []
