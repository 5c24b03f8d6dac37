"""Shared inputs of the exact quantizer tests.

The hypothesis strategies run steps from 1/2^80 to 10^25 and offsets with
denominators up to 10^20, so the products the exact path forms land on both
sides of int64.  decision_boundaries lists a quantizer's boundaries one by
one, the reference the closed-form overlap report is checked against, and
pointwise_errors takes the domain one value at a time, the reference the
run sums and the violation count are checked against.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from cpdtlab.quantizer import AWAY_FROM_ZERO, TOWARD_ZERO, Quantizer
from cpdtlab.requant import CoefficientDomain, _error_numerators, _requantizer


def decision_boundaries(q: Quantizer, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """All thresholds b in [lo, hi] where q's level changes, ascending.

    Boundaries sit at +-(k - offset) * step for k >= 1; zero is never one
    (the dead zone surrounds it).
    """

    def positive(lo: Fraction, hi: Fraction) -> list[Fraction]:
        out = []
        k = max(1, math.ceil(lo / q.step + q.offset))
        while (b := (k - q.offset) * q.step) <= hi:
            out.append(b)
            k += 1
        return out

    return [-b for b in reversed(positive(-hi, -lo))] + positive(lo, hi)


def pointwise_errors(
    q_s: Quantizer, q_t: Quantizer, domain: CoefficientDomain
) -> tuple[np.ndarray, np.ndarray, int]:
    """(direct, two-stage) error numerators of every value in the domain, plus
    their shared denominator: err/den is the absolute error of each value."""
    x = np.arange(domain.lo, domain.hi + 1, dtype=np.int64)
    chain = _requantizer(q_s, q_t).quantize_scaled(q_s.quantize_scaled(x))
    e_a = np.abs(_error_numerators(x, q_t.quantize_scaled(x), q_t.step))
    e_b = np.abs(_error_numerators(x, chain, q_t.step))
    return e_a, e_b, q_t.step.denominator


extreme_steps = st.one_of(
    st.integers(min_value=1, max_value=10**25),
    st.integers(min_value=0, max_value=80).map(lambda k: Fraction(1, 2**k)),
    # 17 decimals, as in 12.34567890123456789
    st.integers(min_value=1, max_value=10**19).map(lambda n: Fraction(n, 10**17)),
    st.builds(
        Fraction, st.integers(min_value=1, max_value=10**20),
        st.integers(min_value=1, max_value=10**20),
    ),
)

extreme_offsets = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=2, max_value=10**20).flatmap(
        lambda q: st.integers(min_value=0, max_value=q - 1).map(lambda p: Fraction(p, q))
    ),
)

tie_breaks = st.sampled_from([TOWARD_ZERO, AWAY_FROM_ZERO])
