"""Acceptance suite: one test per entry of cpdtlab.acceptance.CHECKS.

`cpdtlab verify` runs the same table through the same `run_check`, which
times each check and fails it past its budget; each test prints the line
`verify` prints.  The full sweeps behind checks 08-11 are built once per
process, so they run once no matter how the suite is sliced, and so does
each check: the detail pins below read the same results.
"""

import functools

import pytest

from cpdtlab.acceptance import CHECKS, run_check

# The detail lines of the deterministic checks, as `cpdtlab verify` prints
# them: a refactor of question 1 or of the transform that moves any of these
# figures fails here, not only one that flips a check.
DETAILS = {
    "01-integer-multiple-identity": "E_b/E_a at q_t=12/24/36 = 1.0/1.0/1.0",
    "02-pointwise-dominance": (
        "39 target steps x 65536 coefficients: 0 pointwise violations, 0 cells with ratio < 1"
    ),
    "03-off-multiple-spike": "max ratio over q_t=2..40 is 10.999268; ratio(q_t=13) = 1.916517",
    "04-decreasing-off-multiple-trend": (
        "oracle ratios 13/25/37 = 1.916517/1.458780/1.306266; "
        "implementation agrees within 1e-12: True"
    ),
    "05-half-integer-minimum": (
        "ratios at 2.3/2.5/2.7 x q_s = 1.365028/1.206883/1.310393; "
        "overlap(12, 30): aligned 0.5, extra 6.0"
    ),
    "06-convention-audit": (
        "12 rows audited; no convention reproduces (12, 14.5, 1.2) within 2%; "
        "closest ratio is offset=0.166667 mean-abs at 1.21124"
    ),
    "07-transform-near-lossless": (
        "110000 random residual blocks (sizes 4 and 8): max round-trip error 2 "
        "(needs <= 2, >= 1 somewhere)"
    ),
}


@functools.cache
def _result(name):
    return run_check(name)


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance(name):
    result = _result(name)
    print(result)
    assert result.passed, str(result)


@pytest.mark.parametrize("name", list(DETAILS))
def test_detail_is_pinned(name):
    assert _result(name).detail == DETAILS[name]
