"""Command-line interface: parsing, exit codes, CSV layout, determinism."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cpdtlab
from cpdtlab import acceptance
from cpdtlab.cli import (
    MAX_RANGE_VALUES,
    _build_parser,
    _create_staging,
    _domain_arg,
    _fmt,
    _parse_range,
    _qp_range_arg,
    main,
)
from cpdtlab.codec import MAX_PIXELS
from cpdtlab.pgm import encode_pgm
from cpdtlab.requant import MAX_DOMAIN_SIZE

import argparse


# Steps whose exponents the parser takes but whose doubles overflow or round
# to 0; requant._step_float refuses them with _STEP_REFUSAL.
_UNPRINTABLE_STEPS = {"1e309", "1e-330", "1:1e309:1e308"}
_STEP_REFUSAL = "step lies outside the range of a double (4.9e-324 to 1.8e308)"


def _rows(path):
    """Non-comment lines of a CSV file: header first, then data rows."""
    lines = path.read_text().splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


def _comments(path):
    return [ln for ln in path.read_text().splitlines() if ln.startswith("#")]


class TestRangeParsing:
    def test_single_value(self):
        assert _parse_range("2.5") == [Fraction(5, 2)]

    def test_integer_grid_includes_endpoint(self):
        values = _parse_range("2:40:1")
        assert len(values) == 39
        assert values[0] == 2 and values[-1] == 40

    def test_fractional_step(self):
        assert _parse_range("1:2:0.25") == [
            Fraction(1),
            Fraction(5, 4),
            Fraction(3, 2),
            Fraction(7, 4),
            Fraction(2),
        ]

    def test_endpoint_off_grid_is_dropped(self):
        assert _parse_range("2:10:3") == [2, 5, 8]

    @pytest.mark.parametrize("text", ["2:10:0", "2:10:-1", "10:2:1", "1:2", "a:b:c"])
    def test_malformed_ranges(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_range(text)

    def test_value_count_cap(self, tmp_path, capsys):
        assert len(_parse_range(f"1:{MAX_RANGE_VALUES}:1")) == MAX_RANGE_VALUES
        with pytest.raises(argparse.ArgumentTypeError, match="limit"):
            _parse_range(f"1:{MAX_RANGE_VALUES + 1}:1")
        with pytest.raises(argparse.ArgumentTypeError, match="limit"):
            _parse_range(f"0:{MAX_RANGE_VALUES / 1000}:0.001")
        code = main(["requant", "sweep", "--qstep-s", "12", "--domain=0:1",
                     "--qstep-t", f"1:{MAX_RANGE_VALUES + 1}:1", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "limit" in capsys.readouterr().err

    def test_domain_size_cap(self, tmp_path, capsys):
        assert _domain_arg(f"0:{MAX_DOMAIN_SIZE - 1}").value.size == MAX_DOMAIN_SIZE
        code = main(["requant", "sweep", "--qstep-s", "12", "--qstep-t", "24",
                     f"--domain=0:{MAX_DOMAIN_SIZE}", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "limit" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["-9223372036854775808:-9223372036854775805",
                                        "9223372036854775807:9223372036854775808"])
    def test_domain_outside_int64_is_usage_error(self, domain, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["requant", "sweep", "--qstep-s", "12", "--qstep-t", "13",
                     f"--domain={domain}", "--out", str(out)])
        assert code == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert errors == [
            "cpdtlab requant sweep: error: argument --domain: domain bounds must lie in "
            f"+-(2**63 - 1): [{domain.replace(':', ', ')}]"
        ]
        assert not out.exists()

    def test_int_range_rejects_fractions(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _qp_range_arg("0:5:0.5")
        assert _qp_range_arg("0:4:2").value == [0, 2, 4]

    def test_domain_arg(self):
        domain = _domain_arg("-2048:2047").value
        assert (domain.lo, domain.hi) == (-2048, 2047)
        for text in ("5", "10:9", "1:2:3"):
            with pytest.raises(argparse.ArgumentTypeError):
                _domain_arg(text)


class TestCellFormat:
    def test_fmt(self):
        assert _fmt(None) == ""
        assert _fmt(True) == "1"
        assert _fmt(False) == "0"
        assert _fmt(12) == "12"
        assert _fmt(1.23456789) == "1.23457"
        assert _fmt(0.0) == "0"


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["-h"]) == 0
        assert "requant" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("cpdtlab ")

    def test_bare_invocation_is_usage_error(self, capsys):
        # A missing command or subcommand is argparse's own usage error.
        for argv in ([], ["requant"]):
            assert main(argv) == 1
            assert "the following arguments are required" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["--no-such-flag"]) == 1

    def test_bad_value_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(
            ["requant", "sweep", "--qstep-s", "12", "--qstep-t", "junk",
             "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_bad_offset_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(
            ["requant", "sweep", "--qstep-s", "12", "--qstep-t", "24",
             "--offset", "1", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [("--offset=1", "offset must be in [0, 1), got 1"),
         ("--offset=-1/2", "offset must be in [0, 1), got -1/2"),
         ("--qstep-t=0:10:5", "step must be positive, got 0"),
         ("--tie-break=nearest", "invalid choice: 'nearest'")],
    )
    def test_quantizer_rules_are_usage_errors(self, flag, message, tmp_path, capsys):
        # The messages are Quantizer's own: the CLI keeps no copy of its rules.
        out = tmp_path / "x.csv"
        code = main(["requant", "sweep", "--qstep-s", "12", "--qstep-t", "24", flag,
                     "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(
            ["rd-curve", "--input", str(tmp_path / "absent.pgm"), "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")


class TestVerify:
    @pytest.mark.parametrize("passed, code", [(True, 0), (False, 2)])
    def test_exit_code_follows_the_checks(self, passed, code, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(acceptance, "CHECKS", {"trivial": (lambda: (passed, "ok"), None)})
        monkeypatch.chdir(tmp_path)
        assert main(["verify"]) == code
        out, err = capsys.readouterr()
        assert out.endswith(f"{int(passed)}/1 checks passed\n")
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert errors == ([] if passed else ["error: 1 of 1 checks failed"])
        assert list(tmp_path.iterdir()) == []

    def test_check_past_its_budget_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(acceptance, "CHECKS", {"instant": (lambda: (True, "ok"), 0.0)})
        result = acceptance.run_check("instant")
        assert not result.passed
        assert result.detail == "ok; over its 0s budget"
        monkeypatch.chdir(tmp_path)
        assert main(["verify"]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("FAIL  instant  [")
        assert out.endswith("0/1 checks passed\n")
        assert err.splitlines() == ["error: 1 of 1 checks failed"]
        assert list(tmp_path.iterdir()) == []


class TestInputBounds:
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf", "wide"])
    def test_bad_bin_width_is_usage_error(self, value, tmp_path, capsys):
        # Refused while parsing: the input file does not even exist.
        prefix = tmp_path / "run"
        code = main(["cpdt-sweep", "--input", str(tmp_path / "absent.pgm"),
                     f"--bin-width={value}", "--out-prefix", str(prefix)])
        assert code == 1
        assert "argument --bin-width" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, out_flag, flag",
        [
            ("rd-curve", "--out", "--qp=52"),
            ("rd-curve", "--out", "--qp=-1"),
            ("cpdt-sweep", "--out-prefix", "--qp-s=60"),
            ("cpdt-sweep", "--out-prefix", "--qp-t=0:52:1"),
        ],
    )
    def test_bad_qp_is_usage_error(self, command, out_flag, flag, tmp_path, capsys):
        # Refused while parsing: the input file does not even exist.
        code = main([command, "--input", str(tmp_path / "absent.pgm"), flag,
                     out_flag, str(tmp_path / "out")])
        assert code == 1
        assert f"argument {flag.split('=')[0]}: qp must lie in 0..51" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "subcommand, qstep_s, qstep_t",
        [
            ("sweep", "0", "24"),
            ("sweep", "-3", "24"),
            ("sweep", "12", "0:10:5"),
            ("surface", "-1:1:1", "24"),
            ("surface", "12", "0"),
            ("overlap", "12", "-3"),
        ],
    )
    def test_non_positive_step_is_usage_error(self, subcommand, qstep_s, qstep_t, tmp_path,
                                              capsys):
        # Refused while parsing, before any quantizer is built.
        code = main(["requant", subcommand, f"--qstep-s={qstep_s}", f"--qstep-t={qstep_t}",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "argument --qstep-" in err and "must be positive" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "subcommand, qstep_s, qstep_t",
        [
            ("sweep", "1e400", "12"),
            ("sweep", "12", "1e-400"),
            ("surface", "12", "1:1e400:1e399"),
            ("surface", "1e-400:1:1", "12"),
            ("overlap", "1e400", "12"),
            ("sweep", "1e309", "12"),
            ("sweep", "12", "1e-330"),
            ("surface", "12", "1:1e309:1e308"),
        ],
    )
    def test_step_outside_double_range_is_usage_error(self, subcommand, qstep_s, qstep_t,
                                                     tmp_path, capsys):
        # The reports print steps as doubles: one that overflows or rounds to 0
        # is refused while parsing, not after the whole domain has run.
        code = main(["requant", subcommand, f"--qstep-s={qstep_s}", f"--qstep-t={qstep_t}",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "outside the range of a double" in err
        if {qstep_s, qstep_t} & _UNPRINTABLE_STEPS:
            assert _STEP_REFUSAL in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "text, number",
        [
            ("1e10000000", "1e10000000"),
            ("2.5E-3_000_000", "2.5E-3_000_000"),
            ("1e-1000000", "1e-1000000"),
            ("1:1e1000000:1", "1e1000000"),
        ],
    )
    def test_huge_exponent_is_refused_before_it_is_built(self, text, number):
        # Fraction would build the whole power of ten first: 13.8 s for 1e10000000.
        start = time.perf_counter()
        with pytest.raises(argparse.ArgumentTypeError) as info:
            _parse_range(text)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == f"the exponent of '{number}' is outside the range of a double"

    def test_huge_exponent_step_is_usage_error(self, tmp_path, capsys):
        code = main(["requant", "sweep", "--qstep-s", "1e10000000", "--qstep-t", "12",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "the exponent of '1e10000000' is outside" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_exponents_within_a_double_still_parse(self):
        assert _parse_range("1e300") == [Fraction(10) ** 300]
        assert _parse_range("5e-324") == [Fraction(5, 10**324)]
        assert _parse_range("0.000001e-320") == [Fraction(1, 10**326)]

    def test_oversized_range_count_is_short(self):
        with pytest.raises(argparse.ArgumentTypeError) as info:
            _parse_range("1:1e300:1")
        assert str(info.value) == (
            f"range '1:1e300:1' has more than the limit of {MAX_RANGE_VALUES} values"
        )

    def test_bin_count_cap_is_runtime_error(self, tmp_path, capsys):
        pgm = tmp_path / "p.pgm"
        main(["gen-content", "--seed", "5", "--complexity", "0.6",
              "--width", "16", "--height", "16", "--out", str(pgm)])
        code = main(["cpdt-sweep", "--input", str(pgm), "--qp-s", "28", "--qp-t", "28",
                     "--bin-width", "1e-300", "--out-prefix", str(tmp_path / "run")])
        assert code == 2
        assert "limit" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["p.pgm"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--width", "-3"], "bad dimensions"),
            (["--height", "0"], "bad dimensions"),
            (["--complexity", "1.5"], "complexity"),
            (["--complexity", "nan"], "complexity"),
            (["--width", str(MAX_PIXELS + 1), "--height", "1"], "limit"),
            (["--seed", "-1"], "seed"),
        ],
    )
    def test_bad_gen_content_is_usage_error(self, flags, message, tmp_path, capsys):
        out = tmp_path / "plane.pgm"
        argv = ["gen-content", "--seed", "1", "--complexity", "0.5", "--out", str(out)]
        assert main(argv + flags) == 1
        # The pre-work check reports through the command's own parser.
        err = capsys.readouterr().err
        assert err.startswith("usage: cpdtlab gen-content ")
        assert "cpdtlab gen-content: error:" in err and message in err
        assert not out.exists()


class TestGenContent:
    def test_writes_valid_pgm(self, tmp_path):
        out = tmp_path / "plane.pgm"
        code = main(
            ["gen-content", "--seed", "4", "--complexity", "0.5",
             "--width", "64", "--height", "48", "--out", str(out)]
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n64 48\n255\n")
        assert len(data) == len(b"P5\n64 48\n255\n") + 64 * 48

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["gen-content", "--seed", "4", "--complexity", "0.5",
                "--width", "32", "--height", "32"]
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestWriteOutputs:
    ARGS = ["gen-content", "--seed", "4", "--complexity", "0.5", "--width", "8", "--height", "8"]

    def test_each_run_stages_under_its_own_name(self, tmp_path):
        out = tmp_path / "plane.pgm"
        # A concurrent run's staging file, under the name every run once shared.
        other = tmp_path / "plane.pgm.tmp"
        other.write_bytes(b"another run")
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert other.read_bytes() == b"another run"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plane.pgm", "plane.pgm.tmp"]
        staged = [_create_staging(out) for _ in range(2)]
        for fd, _ in staged:
            os.close(fd)
        assert staged[0][1] != staged[1][1]
        assert {tmp.parent for _, tmp in staged} == {tmp_path}

    def test_permissions_match_a_plain_write(self, tmp_path):
        out = tmp_path / "plane.pgm"
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert out.stat().st_mode == plain.stat().st_mode

    def test_failure_leaves_no_files(self, tmp_path, monkeypatch, capsys):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        assert main(self.ARGS + ["--out", str(tmp_path / "plane.pgm")]) == 2
        assert list(tmp_path.iterdir()) == []
        assert "disk full" in capsys.readouterr().err

    @pytest.mark.parametrize("old_records", [None, b"old records"])
    def test_failed_rename_rolls_back_the_set(self, tmp_path, old_records):
        pgm = tmp_path / "p.pgm"
        assert main(self.ARGS + ["--out", str(pgm)]) == 0
        records = tmp_path / "run_records.csv"
        if old_records is not None:
            records.write_bytes(old_records)
        # The second of cpdt-sweep's three outputs cannot be renamed into place.
        profile = tmp_path / "run_profile.csv"
        profile.mkdir()
        argv = ["cpdt-sweep", "--input", str(pgm), "--qp-s", "28", "--qp-t", "28",
                "--out-prefix", str(tmp_path / "run")]
        assert main(argv) == 2
        before = {"p.pgm", "run_profile.csv"}
        if old_records is None:
            assert not records.exists()
        else:
            assert records.read_bytes() == old_records
            before.add("run_records.csv")
        assert {p.name for p in tmp_path.iterdir()} == before
        # Once the directory is gone the set is written, replacing the old file.
        profile.rmdir()
        assert main(argv) == 0
        assert {p.name for p in tmp_path.iterdir()} == {
            "p.pgm", "run_records.csv", "run_profile.csv", "run_local_min.csv"
        }
        assert records.read_bytes() != old_records


class TestRequantCommands:
    def test_sweep_layout_and_determinism(self, tmp_path):
        args = ["requant", "sweep", "--qstep-s", "12", "--qstep-t", "2:10:1",
                "--domain=-1024:1023"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = _rows(a)
        assert rows[0] == "qstep_s,qstep_t,e_a,e_b,ratio,metric,offset"
        assert len(rows) == 1 + 9
        comments = _comments(a)
        assert comments[0].startswith("# cpdtlab ")
        assert any(c.startswith("# command:") for c in comments)
        assert any(c == "# qstep_s: 12" for c in comments)

    def test_surface_flags_undefined_cells(self, tmp_path):
        out = tmp_path / "surface.csv"
        code = main(
            ["requant", "surface", "--qstep-s", "3", "--qstep-t", "1:3:1",
             "--domain=-256:255", "--out", str(out)]
        )
        assert code == 0
        rows = _rows(out)
        assert rows[0] == "qstep_s,qstep_t,e_a,e_b,ratio,metric,offset,flag"
        by_target = {row.split(",")[1]: row.split(",") for row in rows[1:]}
        unit = by_target["1"]
        assert unit[2] == "0"  # direct error vanishes at step 1
        assert unit[4] == ""  # ratio cell left empty
        assert unit[7] == "undefined_ratio"
        same = by_target["3"]
        assert same[4] == "1"
        assert same[7] == ""

    def test_all_zero_first_stage_with_large_denominator_target(self, tmp_path):
        # Step 40000 sends every 16-bit value to level 0, so the two-stage
        # error is |x|, mean 16384; the target's 10^17 denominator must not
        # wrap x*q in int64.
        out = tmp_path / "sweep.csv"
        code = main(["requant", "sweep", "--qstep-s", "40000",
                     "--qstep-t", "12.34567890123456789", "--out", str(out)])
        assert code == 0
        assert _rows(out)[1].split(",")[3] == "16384"

    def test_overlap_single_row(self, tmp_path):
        out = tmp_path / "overlap.csv"
        code = main(
            ["requant", "overlap", "--qstep-s", "10", "--qstep-t", "25",
             "--out", str(out)]
        )
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 2
        header = "qstep_s,qstep_t,offset,aligned_fraction,max_extra_error,split_bin_period"
        assert rows[0] == header
        cells = rows[1].split(",")
        assert len(cells) == 6  # the description must stay comma-free
        assert cells[:5] == ["10", "25", "0", "0.5", "5"]
        assert "1 of every 5" in cells[5]

    @pytest.mark.parametrize(
        "qstep_s, qstep_t", [("7", "12.34567890123456789"), ("10", "1/1000000")]
    )
    def test_overlap_any_step_pair_finishes(self, tmp_path, qstep_s, qstep_t):
        # A step-ratio denominator of 7*10^17, and 6.6*10^10 target boundaries
        # in the default domain: the report walks neither.
        out = tmp_path / "overlap.csv"
        code = main(["requant", "overlap", "--qstep-s", qstep_s, "--qstep-t", qstep_t,
                     "--out", str(out)])
        assert code == 0
        assert len(_rows(out)) == 2

    @pytest.mark.parametrize("domain", ["0:0", "-12:12", "14:38"])
    def test_overlap_domain_without_a_target_boundary_is_usage_error(
        self, domain, tmp_path, capsys, monkeypatch
    ):
        # At offset 1/2 the target step 26 puts its boundaries at +-13, +-39,
        # ...: the flags alone show that none lies in the domain, so the
        # command is refused before the report starts.
        calls = []
        monkeypatch.setattr(cpdtlab.cli, "boundary_overlap", lambda *args: calls.append(args))
        code = main(["requant", "overlap", "--qstep-s", "12", "--qstep-t", "26",
                     "--offset", "1/2", f"--domain={domain}", "--out", str(tmp_path / "n.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: cpdtlab requant overlap ")
        assert "cpdtlab requant overlap: error:" in err
        assert err.endswith("error: domain contains no target-step decision boundaries\n")
        assert calls == [] and list(tmp_path.iterdir()) == []


class TestRdCurve:
    def test_rows_follow_requested_qps(self, tmp_path):
        pgm = tmp_path / "p.pgm"
        main(["gen-content", "--seed", "5", "--complexity", "0.6",
              "--width", "64", "--height", "64", "--out", str(pgm)])
        out = tmp_path / "curve.csv"
        code = main(
            ["rd-curve", "--input", str(pgm), "--qp", "20:30:5", "--out", str(out)]
        )
        assert code == 0
        rows = _rows(out)
        assert rows[0] == "qp,rate,psnr"
        assert [r.split(",")[0] for r in rows[1:]] == ["20", "25", "30"]
        rates = [float(r.split(",")[1]) for r in rows[1:]]
        assert rates[0] > rates[1] > rates[2]


    def test_one_parser_serves_every_call_in_a_process(self, tmp_path, capsys):
        # main builds its parser once per process: a usage error and
        # --version before a run leave nothing that changes its output.
        pgm = tmp_path / "p.pgm"
        pgm.write_bytes(encode_pgm(np.arange(20 * 12, dtype=np.uint8).reshape(20, 12)))
        argv = ["rd-curve", "--input", str(pgm), "--qp", "20:30:5", "--out"]
        assert main(["rd-curve", "--input", str(pgm), "--qp", "52", "--out", "x.csv"]) == 1
        assert main(["--version"]) == 0
        assert main(argv + [str(tmp_path / "warm.csv")]) == 0
        assert _build_parser() is _build_parser()
        src = str(Path(cpdtlab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cpdtlab.cli", *argv, str(tmp_path / "fresh.csv")],
            capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert proc.returncode == 0
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


class TestCpdtSweep:
    def test_writes_three_files(self, tmp_path):
        pgm = tmp_path / "p.pgm"
        main(["gen-content", "--seed", "5", "--complexity", "0.6",
              "--width", "32", "--height", "32", "--out", str(pgm)])
        prefix = tmp_path / "run"
        code = main(
            ["cpdt-sweep", "--input", str(pgm), "--qp-s", "28",
             "--qp-t", "26:30:1", "--out-prefix", str(prefix)]
        )
        assert code == 0

        records = _rows(tmp_path / "run_records.csv")
        header = ("plane_id,qp_s,qp_t,source_rate,target_rate,ratio,"
                  "psnr_r,psnr_t,psnr_c,delta_psnr,flag")
        assert records[0] == header
        assert len(records) == 1 + 5
        assert all(r.split(",")[0] == "p" for r in records[1:])

        profile = tmp_path / "run_profile.csv"
        rows = _rows(profile)
        assert rows[0] == "ratio_lo,ratio_hi,mean_delta_psnr,count"
        assert sum(int(r.split(",")[3]) for r in rows[1:]) == 5
        assert any(c.startswith("# reference full-codec scale") for c in _comments(profile))

        local = _rows(tmp_path / "run_local_min.csv")
        assert local[0] == "plane_id,qp_s,best_qp_t,matches,delta_at_qp_s"
        assert len(local) == 2
        assert local[1].split(",")[1] == "28"

    def test_local_min_skipped_without_neighborhood(self, tmp_path):
        pgm = tmp_path / "p.pgm"
        main(["gen-content", "--seed", "5", "--complexity", "0.6",
              "--width", "32", "--height", "32", "--out", str(pgm)])
        prefix = tmp_path / "narrow"
        code = main(
            ["cpdt-sweep", "--input", str(pgm), "--qp-s", "28",
             "--qp-t", "27:29:1", "--out-prefix", str(prefix)]
        )
        assert code == 0
        local = _rows(tmp_path / "narrow_local_min.csv")
        assert len(local) == 1  # header only: 26 and 30 are missing

    def test_local_min_skipped_when_center_flagged(self, tmp_path):
        # A constant plane codes to zero levels, so every source rate is 0 and
        # every record, the qp_s = qp_t = 28 center included, is flagged.
        pgm = tmp_path / "flat.pgm"
        pgm.write_bytes(encode_pgm(np.full((32, 32), 128, dtype=np.uint8)))
        prefix = tmp_path / "flat"
        code = main(
            ["cpdt-sweep", "--input", str(pgm), "--qp-s", "28",
             "--qp-t", "26:30:1", "--out-prefix", str(prefix)]
        )
        assert code == 0
        records = _rows(tmp_path / "flat_records.csv")
        assert len(records) == 1 + 5
        assert all(r.endswith(",undefined_ratio") for r in records[1:])
        assert _rows(tmp_path / "flat_local_min.csv") == [
            "plane_id,qp_s,best_qp_t,matches,delta_at_qp_s"
        ]
