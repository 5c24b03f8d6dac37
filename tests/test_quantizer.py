"""Dead-zone quantizer: frozen contract values, exactness, and properties."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpdtlab.codec import _quantize, coeff_qstep
from cpdtlab.quantizer import (
    AWAY_FROM_ZERO,
    QP_RANGE,
    TOWARD_ZERO,
    Quantizer,
    as_fraction,
    qp_to_qstep,
)
from cpdtlab.transform import COEFF_MAX, COEFF_MIN, TRANSFORM_SIZES
from exact_inputs import decision_boundaries, extreme_offsets, extreme_steps

# Hypothesis strategies kept small so the exact (Fraction) reference path
# stays fast.
_steps = st.one_of(
    st.integers(min_value=1, max_value=60),
    st.fractions(min_value=Fraction(1, 4), max_value=60, max_denominator=8),
)
_offsets = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=Fraction(5, 6), max_denominator=6),
)
_values = st.integers(min_value=-5000, max_value=5000)


def _error(q, x):
    """|x - dequantize(quantize(x))|, the exact pointwise error."""
    return abs(x - q.dequantize(q.quantize(x)))


class TestQuantizeContract:
    def test_basic_levels(self):
        assert Quantizer(20).quantize(37) == 1
        assert Quantizer(20, Fraction(1, 2)).quantize(37) == 2
        assert Quantizer(10).quantize(-25) == -2

    def test_dequantize(self):
        assert Quantizer(20).dequantize(1) == 20
        assert Quantizer(10).dequantize(-2) == -20
        assert Quantizer(12).dequantize(0) == 0

    def test_pointwise_error(self):
        assert _error(Quantizer(20), 37) == 17
        assert _error(Quantizer(20), 40) == 0
        assert _error(Quantizer(10, Fraction(1, 2)), 14) == 4

    def test_exact_multiples_are_lossless_at_offset_zero(self):
        q = Quantizer(20)
        for k in range(-5, 6):
            assert _error(q, 20 * k) == 0

    def test_tie_break_modes(self):
        # |x|/step + offset = 45/10 + 1/2 = 5 exactly: the two modes differ.
        toward = Quantizer(10, Fraction(1, 2), TOWARD_ZERO)
        away = Quantizer(10, Fraction(1, 2), AWAY_FROM_ZERO)
        assert toward.quantize(45) == 4
        assert away.quantize(45) == 5
        assert toward.quantize(-45) == -4
        assert away.quantize(-45) == -5

    def test_offset_zero_tie_is_the_exact_multiple(self):
        # At offset 0 an exact multiple must quantize to itself under both
        # modes; the dead zone may not swallow it.
        for mode in (TOWARD_ZERO, AWAY_FROM_ZERO):
            assert Quantizer(20, 0, mode).quantize(40) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Quantizer(0)
        with pytest.raises(ValueError):
            Quantizer(-3)
        with pytest.raises(ValueError):
            Quantizer(10, 1)  # offset must stay below 1
        with pytest.raises(ValueError):
            Quantizer(10, Fraction(-1, 4))
        with pytest.raises(ValueError):
            Quantizer(10, 0, "round-to-even")


class TestDecisionBoundaries:
    """The quantizer's levels change exactly at the boundaries that the
    test-local walk lists, the walk the overlap report is checked against."""

    def test_offset_zero_multiples(self):
        assert decision_boundaries(Quantizer(2), 0, 10) == [2, 4, 6, 8, 10]
        assert decision_boundaries(Quantizer(5), 0, 10) == [5, 10]

    def test_offset_shifts_boundaries(self):
        assert decision_boundaries(Quantizer(20, Fraction(1, 2)), 0, 19) == [10]

    def test_symmetric_range(self):
        bounds = decision_boundaries(Quantizer(10), -25, 25)
        assert bounds == [-20, -10, 10, 20]
        assert 0 not in bounds  # zero is never a boundary

    def test_boundaries_flip_the_level(self):
        q = Quantizer(12, Fraction(1, 3))
        eps = Fraction(1, 1000)
        for b in decision_boundaries(q, 1, 100):
            assert q.quantize(b + eps) != q.quantize(b - eps)

    @given(
        step=_steps,
        offset=_offsets,
        tie_break=st.sampled_from([TOWARD_ZERO, AWAY_FROM_ZERO]),
        lo=st.fractions(min_value=-300, max_value=Fraction(-1, 6), max_denominator=6),
        hi=st.fractions(min_value=Fraction(1, 6), max_value=300, max_denominator=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_boundaries_across_zero(self, step, offset, tie_break, lo, hi):
        # Ends, steps and offsets have denominators <= 6, 8 and 6, so every
        # boundary and end is a multiple of 1/288 and eps is below each gap.
        q = Quantizer(step, offset, tie_break)
        eps = Fraction(1, 1000)
        bounds = decision_boundaries(q, lo, hi)
        assert bounds == sorted(set(bounds))
        assert all(lo <= b <= hi for b in bounds)
        for b in bounds:
            assert q.quantize(b + eps) != q.quantize(b - eps)
        # Each side has as many boundaries as |level| changes from 0 to its end.
        assert sum(b > 0 for b in bounds) == abs(q.quantize(hi + eps))
        assert sum(b < 0 for b in bounds) == abs(q.quantize(lo - eps))


# Inputs of the vectorized path: small and extreme steps and offsets, values
# past int64 (held as Python ints), and all-zero arrays, whose products still
# meet every multiplier.
_any_steps = st.one_of(_steps, extreme_steps)
_any_offsets = st.one_of(_offsets, extreme_offsets)
_integers = st.one_of(
    st.lists(_values, min_size=1, max_size=40),
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=1, max_size=20),
    st.lists(st.just(0), min_size=1, max_size=5),
)


def _check_vectorized(q, values):
    dtype = np.int64 if max(map(abs, values)) < 2**63 else object
    expected = [q.quantize(v) for v in values]
    assert q.quantize_scaled(np.array(values, dtype=dtype)).tolist() == expected


class TestVectorizedAgainstScalar:
    @given(step=_any_steps, offset=_any_offsets, values=_integers)
    # |num| * sq * oq meets sq = 2^70 even when every num is 0.
    @example(step=Fraction(1, 2**70), offset=Fraction(0), values=[0])
    @settings(max_examples=300, deadline=None)
    def test_quantize_array_matches_scalar(self, step, offset, values):
        _check_vectorized(Quantizer(step, offset), values)

    @given(step=_any_steps, offset=_any_offsets, values=_integers)
    @settings(max_examples=200, deadline=None)
    def test_away_mode_matches_scalar(self, step, offset, values):
        _check_vectorized(Quantizer(step, offset, AWAY_FROM_ZERO), values)


class TestProperties:
    @given(step=_steps, offset=_offsets, x=_values)
    @settings(max_examples=200, deadline=None)
    def test_odd_symmetry(self, step, offset, x):
        q = Quantizer(step, offset)
        assert q.quantize(-x) == -q.quantize(x)
        assert _error(q, -x) == _error(q, x)

    @given(step=_steps, offset=_offsets, x=_values)
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_is_a_fixed_point(self, step, offset, x):
        q = Quantizer(step, offset)
        level = q.quantize(x)
        recon = q.dequantize(level)
        assert q.quantize(recon) == level

    @given(step=_steps, x=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_offset_zero_truncates_toward_zero(self, step, x):
        q = Quantizer(step)
        assert q.dequantize(q.quantize(x)) <= x

    @given(step=_steps, offset=_offsets, x=_values)
    @settings(max_examples=200, deadline=None)
    def test_error_bound(self, step, offset, x):
        q = Quantizer(step, offset)
        step_f, offset_f = as_fraction(step), as_fraction(offset)
        bound = step_f * max(offset_f, 1 - offset_f)
        assert _error(q, x) <= bound


class TestQpToQstep:
    def test_anchor_values(self):
        assert qp_to_qstep(4) == 1.0
        assert qp_to_qstep(10) == 2.0
        assert qp_to_qstep(16) == 4.0

    def test_plus_six_doubles_exactly(self):
        for qp in range(0, 46):
            assert qp_to_qstep(qp + 6) == 2.0 * qp_to_qstep(qp)

    def test_strictly_increasing(self):
        steps = [qp_to_qstep(qp) for qp in range(52)]
        assert all(a < b for a, b in zip(steps, steps[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            qp_to_qstep(-1)
        with pytest.raises(ValueError):
            qp_to_qstep(52)


class TestCodecQuantizer:
    @pytest.mark.parametrize("tie_break", [TOWARD_ZERO, AWAY_FROM_ZERO])
    def test_codec_quantize_is_the_exact_law(self, tie_break):
        # The codec's float quantizer is the exact one at offset 1/3 on every
        # 16-bit coefficient, at every qp and block size: no integer lands on
        # a decision boundary, so either tie-break gives the same levels.
        coeff = np.arange(COEFF_MIN, COEFF_MAX + 1, dtype=np.int64)
        mismatched = [
            (qp, n)
            for qp, n in itertools.product(QP_RANGE, TRANSFORM_SIZES)
            if not np.array_equal(
                _quantize(coeff, qp, n),
                Quantizer(Fraction(coeff_qstep(qp, n)), Fraction(1, 3), tie_break)
                .quantize_scaled(coeff),
            )
        ]
        assert not mismatched


class TestAsFraction:
    def test_floats_use_shortest_decimal(self):
        assert as_fraction(2.5) == Fraction(5, 2)
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(27.6) == Fraction(138, 5)

    def test_strings_and_ints(self):
        assert as_fraction("138/5") == Fraction(138, 5)
        assert as_fraction("27.6") == Fraction(138, 5)
        assert as_fraction(12) == Fraction(12)

    def test_numpy_integers_stay_exact(self):
        # A numpy integer becomes a Python-int numerator, which cannot wrap.
        step = as_fraction(np.int64(1 << 62))
        assert type(step.numerator) is int
        assert step * 4 == 1 << 64

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            as_fraction(None)
        with pytest.raises(ValueError):
            as_fraction("not-a-number")
