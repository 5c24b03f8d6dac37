"""Hypothesis strategies for the exact quantizer at its int64/object boundary.

Steps run from 1/2^80 to 10^25 and offsets carry denominators up to 10^20,
so the products the exact path forms land on both sides of int64.
"""

from fractions import Fraction

from hypothesis import strategies as st

from cpdtlab.quantizer import AWAY_FROM_ZERO, TOWARD_ZERO

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
