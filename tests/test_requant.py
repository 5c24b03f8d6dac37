"""Requantization analysis: frozen values, independent oracle, properties."""

import functools
import hashlib
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpdtlab.acceptance import (
    AUDIT_OFFSETS,
    REPORTED_REFERENCE,
    _convention_audit,
    _matches_reference,
)
from cpdtlab import requant
from cpdtlab.quantizer import AWAY_FROM_ZERO, TOWARD_ZERO, Quantizer
from cpdtlab.requant import (
    DEFAULT_DOMAIN,
    MAX_DOMAIN_SIZE,
    MEAN_ABS,
    METRICS,
    MSE,
    RMS,
    UNDEFINED_RATIO,
    CoefficientDomain,
    RequantPoint,
    _runs,
    _violations,
    boundary_overlap,
    error_ratio,
    error_surface,
    sweep_qstep_t,
)
from exact_inputs import (
    decision_boundaries,
    extreme_offsets,
    extreme_steps,
    pointwise_errors,
    tie_breaks,
)


def _oracle_errors(q_s: Quantizer, q_t: Quantizer, lo: int, hi: int) -> list[tuple]:
    """(direct, two-stage) |error| of each x in [lo, hi] via the scalar Fraction path."""
    errors = []
    for x in range(lo, hi + 1):
        recon_s = q_s.dequantize(q_s.quantize(x))
        direct = abs(x - q_t.dequantize(q_t.quantize(x)))
        errors.append((direct, abs(x - q_t.dequantize(q_t.quantize(recon_s)))))
    return errors


def _oracle_metric(errors, metric: str) -> float:
    """A metric over exact errors, reported as error_ratio reports it."""
    power = 1 if metric == MEAN_ABS else 2
    mean = sum(e**power for e in errors) / len(errors)
    return math.sqrt(float(mean)) if metric == RMS else float(mean)


# Windows of at most 600 values anywhere in +-2^19, the CoefficientDomain cap.
_windows = st.builds(
    lambda lo, size: CoefficientDomain(lo, min(lo + size - 1, (1 << 19) - 1)),
    st.integers(min_value=-(1 << 19), max_value=(1 << 19) - 1),
    st.integers(min_value=1, max_value=600),
)

# Largest int64, the largest |bound| a CoefficientDomain takes.
_I64 = (1 << 63) - 1

# A target tie at offset 1/2 with a window reaching the 16-bit domain's edge.
_EDGE_TIE = dict(width=40, level=5, slack=Fraction(1, 2), k=3, offset_s=Fraction(1, 3),
                 offset_t=Fraction(1, 2), tie_s=TOWARD_ZERO)


def _walk_aligned_fraction(q_s: Quantizer, q_t: Quantizer, domain: CoefficientDomain) -> Fraction:
    """Fraction of q_t boundaries in the domain that are q_s boundaries, one by one."""
    boundaries = decision_boundaries(q_t, domain.lo, domain.hi)
    if not boundaries:
        raise ValueError("domain contains no target-step decision boundaries")
    aligned = 0
    f, s = q_s.offset, q_s.step
    for b in boundaries:
        # b is a q_s boundary iff b = +-(m - f) * s for an integer m >= 1
        m = abs(b) / s + f
        if m.denominator == 1 and m >= 1:
            aligned += 1
    return Fraction(aligned, len(boundaries))


def _walk_split_bin_description(q_s: Quantizer, q_t: Quantizer) -> str:
    """Split-bin description from a walk over one period of the step ratio."""
    ratio = q_t.step / q_s.step
    p, q = ratio.numerator, ratio.denominator
    if q == 1 and q_s.offset == 0:
        return f"none: target boundaries all align (target step = {p} x source step)"
    f = q_s.offset
    split_bins = set()
    aligned_any = False
    for k in range(1, q + 1):
        pos = (k - f) * ratio + f  # target boundary location in source-bin units
        if pos.denominator == 1:
            aligned_any = True
        else:
            split_bins.add(math.floor(pos) % p)
    if not split_bins:
        return f"none: target boundaries all align (period {p} source bins = {q} target bins)"
    prefix = "" if aligned_any else " (no boundary alignment)"
    return (
        f"{len(split_bins)} of every {p} source bins split by unaligned target "
        f"boundaries (period {p} source bins = {q} target bins){prefix}"
    )


class TestFrozenValues:
    def test_direct_error_period_mean(self):
        # Each length-20 period contributes errors 0..19, mean 9.5.
        domain = CoefficientDomain(0, 19999)
        assert error_ratio(Quantizer(20), Quantizer(20), domain).e_a == 9.5

    def test_chain_equals_direct_for_nested_steps(self):
        # floor(floor(x/10)*10 / 20)*20 == floor(x/20)*20 on integers.
        domain = CoefficientDomain(0, 19999)
        assert error_ratio(Quantizer(10), Quantizer(20), domain).e_b == 9.5

    def test_unit_target_step_is_lossless_on_integers(self):
        assert error_ratio(Quantizer(1), Quantizer(1), CoefficientDomain(-500, 499)).e_a == 0.0

    def test_exact_multiple_ratio_is_exactly_one(self):
        q_s = Quantizer(12)
        for k in (1, 2, 3):
            pt = error_ratio(q_s, Quantizer(12 * k))
            assert pt.ratio == 1.0
            assert pt.flag is None

    def test_same_step_chain_equals_direct(self):
        domain = CoefficientDomain(-2048, 2047)
        q = Quantizer(17, Fraction(1, 3))
        pt = error_ratio(q, q, domain)
        assert pt.e_b == pt.e_a


class TestAgainstScalarOracle:
    @pytest.mark.parametrize(
        "qstep_s,qstep_t,offset",
        [
            (10, 25, Fraction(0)),
            (12, 13, Fraction(0)),
            (7, 18, Fraction(1, 3)),
            (Fraction(5, 2), 9, Fraction(1, 6)),
        ],
    )
    def test_vectorized_matches_scalar_fractions(self, qstep_s, qstep_t, offset):
        domain = CoefficientDomain(-300, 299)
        q_s = Quantizer(qstep_s, offset)
        q_t = Quantizer(qstep_t, offset)
        pt = error_ratio(q_s, q_t, domain)
        direct, chain = zip(*_oracle_errors(q_s, q_t, domain.lo, domain.hi))
        assert pt.e_a == pytest.approx(_oracle_metric(direct, MEAN_ABS), abs=1e-12)
        assert pt.e_b == pytest.approx(_oracle_metric(chain, MEAN_ABS), abs=1e-12)

    @given(
        step_s=extreme_steps, step_t=extreme_steps,
        offset_s=extreme_offsets, offset_t=extreme_offsets,
        tie_s=tie_breaks, tie_t=tie_breaks, domain=_windows,
    )
    # Domains at the int64 edge, +-(2**63 - 1), where every value's negation is still int64.
    @example(step_s=12, step_t=13, offset_s=Fraction(1, 3), offset_t=Fraction(1, 3),
             tie_s=TOWARD_ZERO, tie_t=TOWARD_ZERO, domain=CoefficientDomain(-_I64, -_I64 + 5))
    @example(step_s=7, step_t=Fraction("12.34567890123456789"), offset_s=Fraction(1, 3),
             offset_t=Fraction(1, 3), tie_s=AWAY_FROM_ZERO, tie_t=TOWARD_ZERO,
             domain=CoefficientDomain(_I64 - 5, _I64))
    @settings(max_examples=150, deadline=None)
    def test_pointwise_errors_are_exact_numerators(
        self, step_s, step_t, offset_s, offset_t, tie_s, tie_t, domain
    ):
        # Steps and offsets on both sides of int64: every numerator, and every
        # metric built from them, must equal the scalar Fraction oracle's.
        q_s = Quantizer(step_s, offset_s, tie_s)
        q_t = Quantizer(step_t, offset_t, tie_t)
        e_a, e_b, den = pointwise_errors(q_s, q_t, domain)
        oracle = _oracle_errors(q_s, q_t, domain.lo, domain.hi)
        assert [(Fraction(int(a), den), Fraction(int(b), den))
                for a, b in zip(e_a.tolist(), e_b.tolist())] == oracle
        direct, chain = zip(*oracle)
        for metric in METRICS:
            pt = error_ratio(q_s, q_t, domain, metric)
            assert (pt.e_a, pt.e_b) == (_oracle_metric(direct, metric),
                                        _oracle_metric(chain, metric))

    @pytest.mark.parametrize("tie_t", [TOWARD_ZERO, AWAY_FROM_ZERO])
    @given(
        x=st.integers(min_value=1, max_value=(1 << 19) - 1), negative=st.booleans(),
        at_hi=st.booleans(), width=st.integers(min_value=0, max_value=40),
        level=st.integers(min_value=1, max_value=1000),
        slack=st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(
            lambda u: 0 < u < 1
        ),
        k=st.integers(min_value=1, max_value=1000),
        offset_s=extreme_offsets, offset_t=extreme_offsets, tie_s=tie_breaks,
    )
    @example(x=-DEFAULT_DOMAIN.lo, negative=True, at_hi=False, **_EDGE_TIE)
    @example(x=DEFAULT_DOMAIN.hi, negative=False, at_hi=True, **_EDGE_TIE)
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_on_a_target_tie(
        self, tie_t, x, negative, at_hi, width, level, slack, k, offset_s, offset_t, tie_s
    ):
        # The source step puts x in bin `level` (|x|/s + f_s = level + slack);
        # the target step puts that bin's reconstruction level*s exactly on
        # target boundary k (level*s/t + f_t = k), where only tie_t decides.
        # x sits at one edge of the domain.
        x = -x if negative else x
        step_s = abs(x) / (level - offset_s + slack)
        step_t = level * step_s / (k - offset_t)
        q_s = Quantizer(step_s, offset_s, tie_s)
        q_t = Quantizer(step_t, offset_t, tie_t)
        assert abs(q_s.quantize(x)) == level
        assert abs(q_s.dequantize(level)) / q_t.step + q_t.offset == k
        domain = CoefficientDomain(x - width, x) if at_hi else CoefficientDomain(x, x + width)
        e_a, e_b, den = pointwise_errors(q_s, q_t, domain)
        assert [(Fraction(int(a), den), Fraction(int(b), den))
                for a, b in zip(e_a.tolist(), e_b.tolist())] == _oracle_errors(
            q_s, q_t, domain.lo, domain.hi
        )


# Windows anywhere in +-2^19, or against either int64 edge.
_run_windows = st.one_of(
    _windows,
    st.integers(min_value=1, max_value=600).flatmap(lambda size: st.sampled_from([
        CoefficientDomain(-_I64, -_I64 + size - 1), CoefficientDomain(_I64 - size + 1, _I64)
    ])),
)

# 17-decimal target steps whose wrapped-product bound, at source step 7, lies
# just below and just above 2^62.
_BELOW_BOUND = Fraction(2**62 - 8 * 10**17 - 1, 10**17)
_ABOVE_BOUND = Fraction(2**62 - 8 * 10**17 + 3, 10**17)

# A source step within a quarter of the target step (targets 1/2 to 64),
# and offsets strictly inside (0, 1).
_near_steps = st.tuples(
    st.fractions(min_value=Fraction(1, 2), max_value=64, max_denominator=1000),
    st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 4), max_denominator=1000),
).map(lambda pair: (pair[0] * (1 + pair[1]), pair[0]))
_inner_offsets = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(
    lambda f: 0 < f < 1
)


class TestLevelRuns:
    @given(
        step_s=extreme_steps, step_t=extreme_steps,
        offset_s=extreme_offsets, offset_t=extreme_offsets,
        tie_s=tie_breaks, tie_t=tie_breaks, domain=_run_windows,
    )
    @example(step_s=7, step_t=Fraction("12.34567890123456789"), offset_s=Fraction(1, 6),
             offset_t=Fraction(1, 3), tie_s=AWAY_FROM_ZERO, tie_t=TOWARD_ZERO,
             domain=CoefficientDomain(-_I64, -_I64 + 599))
    @example(step_s=Fraction(1, 3), step_t=5, offset_s=Fraction(1, 2), offset_t=Fraction(0),
             tie_s=TOWARD_ZERO, tie_t=AWAY_FROM_ZERO, domain=CoefficientDomain(-40, 25))
    # Random cells rarely beat the direct chain anywhere.  Here 16 values do,
    # and 8 more tie with it where the chain's level is the higher one; in the
    # next cell none beat it, and 8 tie where the chain's level is the lower.
    @example(step_s=7, step_t=6, offset_s=Fraction(1, 3), offset_t=Fraction(1, 3),
             tie_s=TOWARD_ZERO, tie_t=TOWARD_ZERO, domain=CoefficientDomain(-200, 200))
    @example(step_s=3, step_t=16, offset_s=Fraction(1, 2), offset_t=Fraction(1, 2),
             tie_s=TOWARD_ZERO, tie_t=AWAY_FROM_ZERO, domain=CoefficientDomain(-200, 200))
    # 43 values beat it on the object path.
    @example(step_s=7, step_t=Fraction("12.34567890123456789"), offset_s=Fraction(1, 3),
             offset_t=Fraction(1, 3), tie_s=AWAY_FROM_ZERO, tie_t=TOWARD_ZERO,
             domain=CoefficientDomain(-600, 599))
    # The mean-abs sum forms each run-start error s*q - k*p (target step p/q)
    # in wrapping int64 products where p + q*(ceil(source step) + 1) < 2^62.
    # Here that bound is 2^62 - 1, then 2^62 + 3, where Python ints take over.
    @example(step_s=7, step_t=_BELOW_BOUND, offset_s=Fraction(1, 3), offset_t=Fraction(1, 3),
             tie_s=TOWARD_ZERO, tie_t=AWAY_FROM_ZERO, domain=CoefficientDomain(-600, 599))
    @example(step_s=7, step_t=_ABOVE_BOUND, offset_s=Fraction(1, 3), offset_t=Fraction(1, 3),
             tie_s=TOWARD_ZERO, tie_t=AWAY_FROM_ZERO, domain=CoefficientDomain(-600, 599))
    # Far above it, some chain run-start errors pass 2^63 while p and q stay
    # int64: wrapped products would give a wrong sum without a word.
    @example(step_s=20, step_t=Fraction(9 * 10**18 + 1, 10**17), offset_s=Fraction(9, 10),
             offset_t=Fraction(9, 10), tie_s=TOWARD_ZERO, tie_t=TOWARD_ZERO,
             domain=CoefficientDomain(-600, 599))
    # A source step below 1 on the wrapped path: every magnitude is a source run.
    @example(step_s=Fraction("0.12345678901234567"), step_t=Fraction("12.34567890123456789"),
             offset_s=Fraction(1, 6), offset_t=Fraction(1, 3), tie_s=TOWARD_ZERO,
             tie_t=AWAY_FROM_ZERO, domain=CoefficientDomain(-600, 599))
    @settings(max_examples=300, deadline=None)
    def test_run_sums_equal_pointwise_sums(
        self, step_s, step_t, offset_s, offset_t, tie_s, tie_t, domain
    ):
        self._check_run_sums(
            Quantizer(step_s, offset_s, tie_s), Quantizer(step_t, offset_t, tie_t), domain
        )

    # About a third of these cells have values where the chain beats the
    # direct quantizer, against about 2% of the cells drawn above.
    @given(steps=_near_steps, offset_s=_inner_offsets, offset_t=_inner_offsets,
           tie_s=tie_breaks, tie_t=tie_breaks, domain=_run_windows)
    @settings(max_examples=200, deadline=None)
    def test_run_sums_at_near_steps(self, steps, offset_s, offset_t, tie_s, tie_t, domain):
        step_s, step_t = steps
        self._check_run_sums(
            Quantizer(step_s, offset_s, tie_s), Quantizer(step_t, offset_t, tie_t), domain
        )

    @staticmethod
    def _check_run_sums(q_s, q_t, domain):
        """Both chains' run sums, max errors and the violation count equal
        the value-by-value oracle's."""
        direct, chain = _runs(q_s, q_t, domain)
        e_a, e_b = (e.tolist() for e in pointwise_errors(q_s, q_t, domain)[:2])
        for runs, errors in ((direct, e_a), (chain, e_b)):
            assert runs.error_sum(1) == sum(errors)
            assert runs.error_sum(2) == sum(e * e for e in errors)
        assert chain.max_error() - direct.max_error() == max(e_b) - max(e_a)
        assert _violations(direct, chain) == sum(b < a for a, b in zip(e_a, e_b))

    @pytest.mark.parametrize(
        "step, offset, tie_break, starts",
        [
            # (j - f)*step is an integer: the tie decides on which side the run starts
            (10, Fraction(1, 2), AWAY_FROM_ZERO, [5, 15, 25]),
            (10, Fraction(1, 2), TOWARD_ZERO, [6, 16, 26]),
            # offset 0: the boundary is a reconstruction, level j from j*step on
            (10, Fraction(0), TOWARD_ZERO, [10, 20, 30]),
            (Fraction(5, 2), Fraction(0), AWAY_FROM_ZERO, [3, 5, 8]),
            (Fraction(9, 4), Fraction(1, 3), TOWARD_ZERO, [2, 4, 7]),
        ],
    )
    def test_run_starts_on_ties(self, step, offset, tie_break, starts):
        q = Quantizer(step, offset, tie_break)
        got = q.run_starts(np.array([1, 2, 3]))
        assert got.tolist() == starts
        assert q.quantize_scaled(got).tolist() == [1, 2, 3]
        assert q.quantize_scaled(got - 1).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("tie_break", [TOWARD_ZERO, AWAY_FROM_ZERO])
    @pytest.mark.parametrize(
        "step, offset",
        [(3, Fraction(0)), (3, Fraction(1, 3)), (Fraction("12.34567890123456789"), Fraction(1, 3)),
         (Fraction(10**18 + 1, 7), Fraction(1, 2)), (1, Fraction(0))],
    )
    def test_run_starts_at_the_domain_edge(self, step, offset, tie_break):
        # The last levels whose runs start within int64, where the exact
        # products leave int64 and Python ints carry them.
        q = Quantizer(step, offset, tie_break)
        top = int(q.quantize_scaled(np.array([_I64]))[0])
        levels = np.arange(top - 3, top + 1, dtype=np.int64)
        starts = np.array(q.run_starts(levels).tolist(), dtype=np.int64)
        assert q.quantize_scaled(starts).tolist() == levels.tolist()
        assert q.quantize_scaled(starts - 1).tolist() == (levels - 1).tolist()
        assert q.quantize_scaled(-starts).tolist() == (-levels).tolist()

    def test_run_integers_are_pinned(self):
        # Question 1's exact integers over a fixed grid, int64 and object
        # paths, both tie-breaks, the 16-bit domain and an int64-edge window:
        # a refactor of the run tables that moves any sum by 1 fails here.
        digest = hashlib.sha256()
        for s, t, offset, tie, domain in itertools.product(
            (7, 12, "12.5"), (13, "17.1", 24, "12.34567890123456789"), AUDIT_OFFSETS,
            (TOWARD_ZERO, AWAY_FROM_ZERO), (DEFAULT_DOMAIN, CoefficientDomain(-_I64, -_I64 + 4095)),
        ):
            for runs in _runs(Quantizer(s, offset, tie), Quantizer(t, offset, tie), domain):
                digest.update(f"{runs.error_sum(1)} {runs.error_sum(2)} {runs.max_error()}\n"
                              .encode())
        assert digest.hexdigest() == (
            "4a1c88e2c495f331a18e5c9d6ad24737e13e26a4fedc4558edbefb58cebd452f"
        )

    def test_violation_counts_are_pinned(self):
        # Check 02's count of values where the chain beats the direct
        # quantizer, over the grid above plus an int64-edge window at the top:
        # a refactor of the run pieces that moves any count by 1 fails here.
        digest = hashlib.sha256()
        for s, t, offset, tie, domain in itertools.product(
            (7, 12, "12.5"), (13, "17.1", 24, "12.34567890123456789"), AUDIT_OFFSETS,
            (TOWARD_ZERO, AWAY_FROM_ZERO),
            (DEFAULT_DOMAIN, CoefficientDomain(-_I64, -_I64 + 4095),
             CoefficientDomain(_I64 - 4095, _I64)),
        ):
            cell = Quantizer(s, offset, tie), Quantizer(t, offset, tie), domain
            count = _violations(*_runs(*cell))
            digest.update(f"{count}\n".encode())
        assert digest.hexdigest() == (
            "bad12490f91b7a1478d37de92c9e17cb45f01c5236c1804ab0d92978aafcbf66"
        )

    def test_object_path_quantizes_few_values(self, monkeypatch):
        # Cost follows the runs, for every metric's sums and for the violation
        # count: about 32768/7 source levels reach the second stage, against
        # 65536 values one at a time.
        calls = []
        quantize_scaled = Quantizer.quantize_scaled

        def spy(self, num):
            levels = quantize_scaled(self, num)
            calls.append((np.asarray(num).size, levels.dtype == object))
            return levels

        monkeypatch.setattr(Quantizer, "quantize_scaled", spy)
        q_s = Quantizer(7, Fraction(1, 3))
        q_t = Quantizer("12.34567890123456789", Fraction(1, 3))
        measures = [functools.partial(error_ratio, metric=m) for m in METRICS]
        for measure in measures + [lambda *cell: _violations(*_runs(*cell))]:
            calls.clear()
            measure(q_s, q_t, DEFAULT_DOMAIN)
            assert any(is_object for _, is_object in calls)
            assert sum(size for size, _ in calls) < DEFAULT_DOMAIN.size // 10

    def test_run_errors_have_one_form(self, monkeypatch):
        # A run table forms every m*q - k*p itself, at run starts for the
        # sums and at run ends for the worst case: the value-by-value form is
        # the test oracle's alone.
        def spy(*args):
            raise AssertionError("_error_numerators called")

        monkeypatch.setattr(requant, "_error_numerators", spy)
        q_s = Quantizer(7, Fraction(1, 3))
        q_t = Quantizer("12.34567890123456789", Fraction(1, 3))
        boundary_overlap(q_s, q_t, DEFAULT_DOMAIN)
        for metric in METRICS:
            error_ratio(q_s, q_t, DEFAULT_DOMAIN, metric)


class TestDominanceAndTrend:
    @given(
        qstep_s=st.integers(min_value=1, max_value=40),
        qstep_t=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_offset_zero_pointwise_dominance(self, qstep_s, qstep_t):
        domain = CoefficientDomain(-400, 399)
        e_a, e_b, _ = pointwise_errors(Quantizer(qstep_s), Quantizer(qstep_t), domain)
        assert np.all(e_b >= e_a)

    def test_ratio_at_least_one_on_sweep(self):
        points = sweep_qstep_t(12, range(2, 41), CoefficientDomain(-4096, 4095))
        assert all(pt.ratio >= 1.0 for pt in points)

    def test_off_multiple_trend(self):
        q_s = Quantizer(12)
        r = {qt: error_ratio(q_s, Quantizer(qt)).ratio for qt in (13, 25, 37)}
        assert r[37] < r[25] < r[13]

    def test_scale_invariance(self):
        r1 = error_ratio(Quantizer(10), Quantizer(25)).ratio
        r2 = error_ratio(Quantizer(20), Quantizer(50)).ratio
        assert r1 == pytest.approx(r2, abs=0.02)


class TestMetrics:
    def test_metric_relationships(self):
        domain = CoefficientDomain(-999, 999)
        q_s, q_t = Quantizer(10), Quantizer(25)
        rms = error_ratio(q_s, q_t, domain, RMS).e_b
        mse = error_ratio(q_s, q_t, domain, MSE).e_b
        mean_abs = error_ratio(q_s, q_t, domain, MEAN_ABS).e_b
        assert rms == pytest.approx(math.sqrt(mse), abs=1e-12)
        assert mean_abs <= rms  # Jensen
        assert rms > 0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            error_ratio(Quantizer(10), Quantizer(10), DEFAULT_DOMAIN, "median")


class TestUndefinedRatio:
    def test_zero_direct_error_flags(self):
        pt = error_ratio(Quantizer(3), Quantizer(1), CoefficientDomain(-100, 100))
        assert pt.e_a == 0.0
        assert pt.ratio is None
        assert pt.flag == UNDEFINED_RATIO


class TestSweepAndSurface:
    def test_sweep_row_count_and_order(self):
        points = sweep_qstep_t(12, range(2, 41), CoefficientDomain(-1024, 1023))
        assert len(points) == 39
        assert [pt.qstep_t for pt in points] == [float(v) for v in range(2, 41)]

    def test_surface_diagonal_is_one(self):
        axes = [8, 10, 12]
        surf = error_surface(axes, axes, CoefficientDomain(-2048, 2047))
        assert [len(row) for row in surf] == [3, 3, 3]
        for i in range(3):
            assert surf[i][i].ratio == 1.0

    def test_single_cell_surface_reduces_to_error_ratio(self):
        domain = CoefficientDomain(-512, 511)
        surf = error_surface([10], [25], domain)
        pt = error_ratio(Quantizer(10), Quantizer(25), domain)
        assert surf == [[pt]]


    def test_iterator_target_steps_serve_every_source(self):
        domain = CoefficientDomain(-512, 511)
        surf = error_surface([10, 12], iter([13, 14]), domain)
        assert surf == error_surface([10, 12], [13, 14], domain)
        assert [len(row) for row in surf] == [2, 2]


class TestSharedTables:
    @given(
        steps_s=st.lists(extreme_steps, min_size=1, max_size=2),
        steps_t=st.lists(extreme_steps, min_size=1, max_size=3),
        offset=extreme_offsets, tie_break=tie_breaks, metric=st.sampled_from(METRICS),
        domain=_run_windows,
    )
    @example(steps_s=[7, 12], steps_t=[13, Fraction("12.34567890123456789")],
             offset=Fraction(1, 3), tie_break=AWAY_FROM_ZERO, metric=MEAN_ABS,
             domain=CoefficientDomain(-_I64, -_I64 + 599))
    @example(steps_s=[Fraction("12.5")], steps_t=[Fraction("17.1"), 24], offset=Fraction(1, 2),
             tie_break=TOWARD_ZERO, metric=RMS, domain=CoefficientDomain(_I64 - 599, _I64))
    @settings(max_examples=100, deadline=None)
    def test_shared_tables_give_single_cell_points(
        self, steps_s, steps_t, offset, tie_break, metric, domain
    ):
        # A surface shares each source's and each target's runs across its
        # cells; every point must still be error_ratio's on its cell.
        surface = error_surface(steps_s, steps_t, domain, metric, offset, tie_break)
        assert len(surface) == len(steps_s)
        for step_s, row in zip(steps_s, surface):
            q_s = Quantizer(step_s, offset, tie_break)
            cells = [error_ratio(q_s, Quantizer(step_t, offset, tie_break), domain, metric)
                     for step_t in steps_t]
            assert row == cells
            assert sweep_qstep_t(step_s, steps_t, domain, metric, offset, tie_break) == cells

    def test_each_step_builds_its_level_runs_once(self, monkeypatch):
        # An S x T surface builds S source and T direct run tables, not one of
        # each per cell.
        steps = []
        level_runs = requant._level_runs

        def spy(q, a, b):
            steps.append(q.step)
            return level_runs(q, a, b)

        monkeypatch.setattr(requant, "_level_runs", spy)
        sources, targets = [7, 10, 12], [13, 14, Fraction("17.1"), 24]
        error_surface(sources, targets, CoefficientDomain(-2048, 2047), MSE)
        assert sorted(steps) == sorted(map(Fraction, sources + targets))
        steps.clear()
        sweep_qstep_t(12, targets, CoefficientDomain(-2048, 2047))
        assert len(steps) == 1 + len(targets)

    def test_bad_steps_raise_before_any_run_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("run table built")

        monkeypatch.setattr(requant, "_level_runs", refuse)
        with pytest.raises(ValueError, match="step"):
            sweep_qstep_t(0, [13, 14])
        with pytest.raises(ValueError, match="step"):
            error_surface([12, -1], [13, 14])
        with pytest.raises(ValueError, match="step"):
            error_surface([12], [13, 0])
        # A step whose double overflows or rounds to 0, on either axis of
        # every public entry.
        for bad in ("1e400", "1e-400"):
            for s, t in ((bad, 12), (12, bad)):
                for call in (
                    lambda: sweep_qstep_t(s, [13, t]),
                    lambda: error_surface([12, s], [13, t]),
                    lambda: error_ratio(Quantizer(s), Quantizer(t)),
                    lambda: boundary_overlap(Quantizer(s), Quantizer(t)),
                ):
                    with pytest.raises(ValueError, match="outside the range of a double"):
                        call()
        assert error_surface([], [13, 14]) == []

    def test_empty_source_axis_still_judges_the_targets(self):
        with pytest.raises(ValueError, match="step must be positive"):
            error_surface([], [0])
        with pytest.raises(ValueError, match="outside the range of a double"):
            error_surface([], ["1e-400"])
        assert error_surface([], [12]) == []

    def test_each_row_sums_each_chain_table_before_the_next(self, monkeypatch):
        # _chain_runs yields a row's tables lazily, and error_surface sums
        # each as it comes: a row never holds its tables as a list.
        events = []
        table, error_sum = requant._table, requant._Runs.error_sum

        def table_spy(*args):
            events.append(("build", table(*args)))
            return events[-1][1]

        def sum_spy(runs, power):
            events.append(("sum", runs))
            return error_sum(runs, power)

        monkeypatch.setattr(requant, "_table", table_spy)
        monkeypatch.setattr(requant._Runs, "error_sum", sum_spy)
        error_surface([7, 12], range(13, 19), CoefficientDomain(-2048, 2047))
        # The first 6 tables are the direct ones; each of the 2 x 6 chain
        # tables after them is summed before the next is built.
        direct = [runs for kind, runs in events if kind == "build"][:6]
        chain = [(kind, runs) for kind, runs in events if all(runs is not d for d in direct)]
        assert len(chain) == 2 * 2 * 6
        for (built, runs), (summed, same) in zip(chain[::2], chain[1::2]):
            assert (built, summed) == ("build", "sum") and same is runs

    def test_chain_runs_yield_one_table_per_target(self):
        # int64 and 17-decimal targets in one row, each table's sums as the
        # value-by-value oracle's.
        q_s, domain = Quantizer(7, Fraction(1, 3)), CoefficientDomain(-600, 599)
        targets = [Quantizer(t, Fraction(1, 3)) for t in (13, "12.34567890123456789", 24)]
        tables = list(requant._chain_runs(q_s, targets, domain))
        assert [runs.step for runs in tables] == [q_t.step for q_t in targets]
        for q_t, runs in zip(targets, tables):
            e_b = pointwise_errors(q_s, q_t, domain)[1].tolist()
            assert runs.error_sum(1) == sum(e_b)
            assert runs.error_sum(2) == sum(e * e for e in e_b)


class TestBoundaryOverlap:
    def test_equal_steps(self):
        report = boundary_overlap(Quantizer(10), Quantizer(10))
        assert report.aligned_fraction == 1.0
        assert report.max_extra_error == 0.0

    def test_double_step_fully_aligned(self):
        report = boundary_overlap(Quantizer(10), Quantizer(20))
        assert report.aligned_fraction == 1.0
        assert report.max_extra_error == 0.0
        assert report.split_bin_period.startswith("none")

    def test_half_integer_ratio(self):
        report = boundary_overlap(Quantizer(10), Quantizer(25))
        assert report.aligned_fraction == 0.5
        assert report.max_extra_error == 5.0
        assert "1 of every 5" in report.split_bin_period

    def test_acceptance_pair(self):
        report = boundary_overlap(Quantizer(12), Quantizer(30))
        assert report.aligned_fraction == 0.5
        assert report.max_extra_error == 6.0

    def test_object_path_pair_matches_scalar(self):
        # Denominators near 10^17 put every error in Python ints; the step
        # ratio 3/2 keeps the split-bin period short.
        domain = CoefficientDomain(-300, 299)
        q_s, q_t = Quantizer("4.00000000000000004"), Quantizer("6.00000000000000006")
        direct, chain = zip(*_oracle_errors(q_s, q_t, domain.lo, domain.hi))
        assert all(e.dtype == object for e in pointwise_errors(q_s, q_t, domain)[:2])
        report = boundary_overlap(q_s, q_t, domain)
        assert report.max_extra_error == float(max(chain) - max(direct))

    @given(
        step_s=st.one_of(
            st.integers(min_value=1, max_value=60),
            st.fractions(min_value=Fraction(1, 4), max_value=60, max_denominator=10),
        ),
        ratio=st.builds(
            Fraction, st.integers(min_value=1, max_value=400),
            st.integers(min_value=1, max_value=400),
        ),
        offset=st.one_of(
            st.sampled_from(AUDIT_OFFSETS + (Fraction(1, 4), Fraction(2, 3), Fraction(5, 7))),
            st.integers(min_value=2, max_value=60).flatmap(
                lambda q: st.integers(min_value=0, max_value=q - 1).map(lambda p: Fraction(p, q))
            ),
        ),
        lo=st.integers(min_value=-3000, max_value=3000),
        size=st.integers(min_value=1, max_value=3000),
    )
    @example(step_s=10, ratio=Fraction(5, 2), offset=Fraction(0), lo=-25, size=51)
    @example(step_s=10, ratio=Fraction(3), offset=Fraction(1, 2), lo=-14, size=29)
    @example(step_s=10, ratio=Fraction(1, 3), offset=Fraction(1, 3), lo=5, size=200)
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_boundary_walk(self, step_s, ratio, offset, lo, size):
        # Domains straddle zero, lie on one side or hold no boundary at all;
        # at most about 2000 target boundaries keep the walk short.
        q_s, q_t = Quantizer(step_s, offset), Quantizer(step_s * ratio, offset)
        domain = CoefficientDomain(lo, lo + min(size, math.ceil(2000 * q_t.step)) - 1)
        try:
            expected = _walk_aligned_fraction(q_s, q_t, domain)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                boundary_overlap(q_s, q_t, domain)
            return
        report = boundary_overlap(q_s, q_t, domain)
        assert report.aligned_fraction == float(expected)
        assert report.split_bin_period == _walk_split_bin_description(q_s, q_t)

    def test_offset_mismatch_rejected(self):
        with pytest.raises(ValueError):
            boundary_overlap(Quantizer(10, Fraction(1, 3)), Quantizer(25))


class TestConventionAudit:
    def test_full_table(self):
        rows = _convention_audit()
        assert len(rows) == len(AUDIT_OFFSETS) * len(METRICS) == 12
        seen = {(row.offset, row.metric) for row in rows}
        assert len(seen) == 12

    def test_offset_zero_mean_abs_row(self):
        rows = _convention_audit()
        row = next(r for r in rows if r.offset == 0.0 and r.metric == MEAN_ABS)
        # The 10 -> 20 chain at offset 0 collapses to direct quantization.
        assert row.ratio == 1.0
        assert row.e_a == pytest.approx(9.4987, abs=1e-3)
        assert row.e_b == row.e_a

    def test_reference_is_documented_not_forced(self):
        # No supported convention reproduces the reported triple; the table
        # must say so honestly rather than match by construction.
        rows = _convention_audit()
        assert REPORTED_REFERENCE == {"e_a": 12.0, "e_b": 14.5, "ratio": 1.2}
        assert not any(_matches_reference(r) for r in rows)

    def test_matches_reference_is_a_two_percent_rule(self):
        ref = REPORTED_REFERENCE
        at_ref = RequantPoint(10.0, 20.0, ref["e_a"], ref["e_b"], ref["ratio"], MEAN_ABS, 0.0)
        assert _matches_reference(at_ref)
        for key, value in ref.items():
            assert _matches_reference(replace(at_ref, **{key: value * 1.01}))
            for factor in (0.97, 1.03):
                assert not _matches_reference(replace(at_ref, **{key: value * factor}))
        assert not _matches_reference(replace(at_ref, ratio=None))


class TestCoefficientDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientDomain(10, 9)
        with pytest.raises(TypeError, match="^domain bounds must be integers$"):
            CoefficientDomain(1.5, 3)

    def test_size_cap(self):
        # Only sizes are compared: no array of the accepted domain is built.
        assert CoefficientDomain(-(1 << 19), (1 << 19) - 1).size == MAX_DOMAIN_SIZE
        assert DEFAULT_DOMAIN.size == 1 << 16
        with pytest.raises(ValueError, match="limit"):
            CoefficientDomain(-(1 << 19), 1 << 19)

    @pytest.mark.parametrize("lo, hi", [(-(1 << 63), -(1 << 63) + 3), (1 << 63, (1 << 63) + 1)])
    def test_bounds_outside_int64_rejected(self, lo, hi):
        # np.abs wraps -2**63 to itself, and 2**63 is no int64 at all.
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            CoefficientDomain(lo, hi)

    def test_size(self):
        assert CoefficientDomain(-3, 3).size == 7
