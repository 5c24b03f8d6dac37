"""Acceptance suite: one test per entry of cpdtlab.acceptance.CHECKS.

`cpdtlab verify` runs the same table through the same `run_check`, which
times each check and fails it past its budget; each test prints the line
`verify` prints.  The full sweeps behind checks 08-11 are built once per
process, so they run once no matter how the suite is sliced, and so does
each check: the detail pins below read the same results.  The failure
branches, which the real data never takes, run on stand-in sweeps, a
stand-in reference triple or a stand-in `cli.main`.
"""

import functools
import itertools
from pathlib import Path

import pytest

from cpdtlab import acceptance, cli
from cpdtlab.acceptance import CHECKS, run_check
from cpdtlab.cpdt import TranscodeRecord

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


def _record(qp_s, ratio):
    return TranscodeRecord(qp_s=qp_s, qp_t=qp_s + 1, source_rate=1.0, target_rate=ratio,
                           ratio=ratio, psnr_r=40.0, psnr_t=38.0, psnr_c=39.0, delta_psnr=-1.0)


def test_convention_audit_names_its_matches(monkeypatch):
    # Within 2% of the offset-1/6 mean-abs row (7.0992, 8.5989, 1.21124) alone.
    monkeypatch.setattr(acceptance, "REPORTED_REFERENCE", {"e_a": 7.1, "e_b": 8.6, "ratio": 1.21})
    assert acceptance._check_convention_audit() == (
        True, "12 rows audited; matching conventions: offset=0.166667 mean-abs"
    )


def test_high_ratio_check_fails_on_an_empty_bin(monkeypatch):
    monkeypatch.setattr(acceptance, "_sweeps", lambda: {0.3: [_record(30, 0.9)]})
    assert acceptance._check_high_ratio_degradation() == (
        False, "empty ratio bin: 0 records > 120%, 1 in 80-100%"
    )


def test_source_rate_check_fails_without_records(monkeypatch):
    monkeypatch.setattr(acceptance, "_sweeps", lambda: {0.6: [_record(22, 1.1)]})
    assert acceptance._check_source_rate_dependence() == (
        False, "no ratio >= 1 records for qp_s=38 on plane c=0.6"
    )


@pytest.fixture
def full_sweeps(monkeypatch):
    """Check 11's stand-in sweeps: three planes of 52x52 records each."""
    monkeypatch.setattr(acceptance, "_sweeps", lambda: {c: [None] * 2704 for c in (0.3, 0.6, 0.9)})


def test_determinism_check_raises_on_a_failed_command(full_sweeps, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 2)
    with pytest.raises(RuntimeError, match=r"CLI exited 2: \['gen-content', "):
        acceptance._check_determinism_and_format()


def test_determinism_check_names_a_mismatch(full_sweeps, monkeypatch):
    # Every command writes the files it names; rd-curve writes other bytes each run.
    runs = itertools.count()

    def main(argv):
        if "--out-prefix" in argv:
            prefix = argv[argv.index("--out-prefix") + 1]
            paths = [prefix + end for end in ("_records.csv", "_profile.csv", "_local_min.csv")]
        else:
            paths = [argv[argv.index("--out") + 1]]
        for path in paths:
            Path(path).write_bytes(str(next(runs)).encode() if argv[0] == "rd-curve" else b"")
        return 0

    monkeypatch.setattr(cli, "main", main)
    assert acceptance._check_determinism_and_format() == (
        False, "6 commands rerun byte-identical: False (mismatch: ['rd-curve']); "
        "full-sweep records per plane: 2704/2704/2704 (needs 2704)"
    )
