"""The input edge as a property: whatever argv and PGM bytes come in, the CLI
exits 0, 1 or 2 at once, and a failure leaves one short `error:` line and no
output file.  The library's qp rule holds for every entry point."""

import contextlib
import io
import os
import re
import tempfile
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cpdtlab.cli import _domain_arg, main
from cpdtlab.cpdt import build_rd_curve, full_sweep
from cpdtlab.quantizer import qp_to_qstep
from cpdtlab.requant import CoefficientDomain

# Flag values past every rule: out of range, out of a double, malformed, or
# long enough that a message which prints them whole outgrows its line.
_ODD = [
    "0", "-1", "1e308", "-1e300", "1e400", "1e-400", "1e5000", "1e10000000", "9" * 25,
    "9" * 4000, "-" + "9" * 30, "nan", "inf", "-inf", "2/0", "3/-4", "1_0", "+3", "abc", "",
    "x" * 300,
]
_ODDS = st.sampled_from(_ODD)


def _mostly(valid: st.SearchStrategy, odd: st.SearchStrategy) -> st.SearchStrategy:
    """valid seven times in eight, so that many cases get past the parser."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else odd)


def _text(value: Fraction) -> str:
    return str(value) if value.denominator != 1 else str(value.numerator)


@st.composite
def _values(draw, lo: st.SearchStrategy, step: st.SearchStrategy) -> str:
    """A value, a lo:hi:step range of at most 4 values, such a range with its hi
    or step made odd, or an odd value.  lo is never made odd, so no range
    grows past about 20 values."""
    first, by, count = draw(lo), draw(step), draw(st.integers(1, 4))
    parts = [_text(first), _text(first + (count - 1) * by), _text(by)]
    shape = draw(st.sampled_from(["value"] * 3 + ["range"] * 3 + ["odd range", "odd"]))
    if shape == "value":
        return parts[0]
    if shape == "odd":
        return draw(_ODDS)
    if shape == "odd range":
        parts[draw(st.integers(1, 2))] = draw(_ODDS)
    return ":".join(parts)


_STEP = st.fractions(1, 40, max_denominator=4)
_STEPS = _values(_STEP, st.fractions(Fraction(1, 2), 4, max_denominator=2))
_QPS = _values(st.integers(-2, 53).map(Fraction), st.integers(1, 3).map(Fraction))
_OFFSETS = _mostly(st.sampled_from(["0", "1/3", "1/6", "1/2", "0.25"]), _ODDS)
_BOUNDS = _mostly(st.integers(-2048, 2048).map(str), _ODDS)
_DOMAINS = _mostly(
    st.lists(st.integers(-2048, 2048), min_size=2, max_size=2).map(lambda b: f"{min(b)}:{max(b)}"),
    st.one_of(st.tuples(_BOUNDS, _BOUNDS).map(":".join),
              st.sampled_from(["1:2:3", "5", "-" + "9" * 5000])),
)
_SIZES = _mostly(st.sampled_from(["1", "7", "16", "+8", "1_6"]),
                 st.sampled_from(["0", "-3", "4194305", "9" * 25, "abc"]))
_NUMBERS = _mostly(st.sampled_from(["0", "0.6", "1"]),
                   st.sampled_from(["1.5", "-0.1", "nan", "inf", "abc", "9" * 25]))


def _flags(draw, **flags: st.SearchStrategy) -> list[str]:
    """Each flag as --flag=value, dropped now and then."""
    return [
        f"--{name.replace('_', '-')}={draw(values)}"
        for name, values in flags.items()
        if draw(st.integers(0, 9))
    ]


_QUANT_FLAGS = dict(offset=_OFFSETS,
                    tie_break=_mostly(st.just("away-from-zero"), st.just("nearest")))
_SOURCES = _mostly(st.just("plane.pgm"), st.just("absent.pgm"))
_BLOCKS = _mostly(st.sampled_from(["4", "8"]), st.sampled_from(["16", "abc"]))
_METRICS = _mostly(st.sampled_from(["mse", "rms", "mean-abs"]), st.just("median"))


@st.composite
def _argv(draw) -> list[str]:
    """One command's argv.  A requant domain and a plane's size are always
    given, so no case runs over the full 16-bit domain or a large plane."""
    command = draw(st.sampled_from(
        ["requant sweep", "requant surface", "requant overlap", "gen-content", "rd-curve",
         "cpdt-sweep"]
    ))
    argv, out = command.split(), ["--out", "out"]
    if command.startswith("requant"):
        # sweep takes one source step and overlap one of each; the rest take ranges.
        step = _mostly(_STEP.map(_text), _ODDS)
        source, target = {"sweep": (step, _STEPS), "surface": (_STEPS, _STEPS)}.get(
            argv[1], (step, step))
        metric = {} if argv[1] == "overlap" else {"metric": _METRICS}
        argv += _flags(draw, qstep_s=source, qstep_t=target, **_QUANT_FLAGS, **metric)
        argv.append(f"--domain={draw(_DOMAINS)}")
    elif command == "gen-content":
        argv += _flags(draw, seed=_NUMBERS, complexity=_NUMBERS)
        argv += [f"--width={draw(_SIZES)}", f"--height={draw(_SIZES)}"]
    elif command == "rd-curve":
        argv += _flags(draw, input=_SOURCES, qp=_QPS, block_size=_BLOCKS)
    else:
        argv += _flags(draw, input=_SOURCES, qp_s=_QPS, qp_t=_QPS, block_size=_BLOCKS,
                       bin_width=_mostly(st.sampled_from(["0.05", "0.5"]), st.just("1e-300")))
        out = ["--out-prefix", "out"]
    return argv + out


@st.composite
def _pgm(draw) -> bytes:
    """A P5 file from a small header grammar, its raster a byte short, exact or a byte long."""
    magic = draw(_mostly(st.just(b"P5"), st.sampled_from([b"P6", b""])))
    gap = st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n", b"  "])
    number = _mostly(st.sampled_from([b"1", b"3", b"16"]),
                     st.sampled_from([b"0", b"-1", b"+2", b"1_0", b"9" * 21, b"9" * 5000]))
    width, height = draw(number), draw(number)
    maxval = draw(_mostly(st.just(b"255"), st.sampled_from([b"256", b"0", b"9" * 25])))
    header = magic + draw(gap) + width + draw(gap) + height + draw(gap) + maxval + b"\n"
    small = all(n.isdigit() and len(n) <= 2 for n in (width, height))
    size = int(width) * int(height) if small else 4
    size = min(size, 256) + draw(_mostly(st.just(0), st.sampled_from([-1, 1])))
    return header + bytes(draw(st.integers(0, 255)) for _ in range(max(size, 0)))


_PLANE16 = b"P5\n16 16\n255\n" + bytes(range(256))
_REQUANT = ["requant", "sweep", "--qstep-s", "12", "--qstep-t", "13", "--out", "x.csv"]
# Phrases of the interpreter's own that never belong in a message to the user.
_INTERNALS = ("Traceback", "set_int_max_str_digits")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(argv=_REQUANT + ["--offset", "1e308"], pgm=_PLANE16)
@example(argv=_REQUANT[:2] + ["--qstep-s=-1e300"] + _REQUANT[4:], pgm=_PLANE16)
@example(argv=["requant", "surface", "--qstep-s", "12", "--qstep-t", "1:2:-1e300",
               "--out", "x.csv"], pgm=_PLANE16)
@example(argv=["cpdt-sweep", "--input", "plane.pgm", "--qp-s", "28", "--qp-t", "28",
               "--bin-width", "1e-300", "--out-prefix", "run"], pgm=_PLANE16)
@example(argv=_REQUANT + ["--domain=1:" + "9" * 4000], pgm=_PLANE16)
@example(argv=_REQUANT + ["--domain=1:" + "9" * 5000], pgm=_PLANE16)
@given(argv=_argv(), pgm=_pgm())
def test_cli_exits_with_one_short_error_line(argv, pgm):
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "plane.pgm"), "wb") as f:
            f.write(pgm)
        cwd = os.getcwd()
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            os.chdir(tmp)
            with contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
        elapsed = time.perf_counter() - start
        left = sorted(os.listdir(tmp))
    assert code in (0, 1, 2)
    assert elapsed < 2.0
    if code:
        errors = [line for line in stderr.getvalue().splitlines() if "error:" in line]
        assert len(errors) == 1 and len(errors[0]) <= 200, errors
        assert not any(phrase in errors[0] for phrase in _INTERNALS), errors
        assert left == ["plane.pgm"]


@pytest.mark.parametrize(
    "argv, line",
    [
        (_REQUANT + ["--offset", "1e308"],
         "cpdtlab requant sweep: error: argument --offset: offset must be in [0, 1), got 1.0e+308"),
        (_REQUANT + ["--domain=1:" + "9" * 5000],
         "cpdtlab requant sweep: error: argument --domain: domain bounds must lie in "
         "+-(2**63 - 1): [1, 1.0e+5000]"),
        (_REQUANT + ["--domain=1:" + "x" * 300],
         ("cpdtlab requant sweep: error: argument --domain: invalid literal for int() with base "
          "10: '" + "x" * 300)[:197] + "..."),
    ],
)
def test_error_line_shortens_digit_runs_and_cuts_at_200(argv, line, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == line


def test_zero_padded_domain_bound_is_read():
    # Leading zeros and underscores do not count toward the 20 digits.
    assert _domain_arg("-" + "0" * 30 + "5:1_000").value == CoefficientDomain(-5, 1000)


_TINY = np.arange(16, dtype=np.uint8).reshape(4, 4) * 16


@settings(max_examples=30, deadline=None)
@example(qp=30.7)
@given(qp=st.one_of(st.integers(-3, 55), st.floats(-3, 55), st.just(np.int64(30))))
def test_curve_and_sweep_follow_the_qp_rule(qp):
    try:
        qp_to_qstep(qp)
        refusal = None
    except (TypeError, ValueError) as exc:
        refusal = exc
    if refusal is None:
        assert build_rd_curve(_TINY, [qp]).samples[0].qp == qp
        assert full_sweep(_TINY, [qp], [30])[0].qp_s == qp
        return
    for run in (lambda: build_rd_curve(_TINY, [qp]), lambda: full_sweep(_TINY, [qp], [30])):
        with pytest.raises(type(refusal), match=re.escape(str(refusal))):
            run()
