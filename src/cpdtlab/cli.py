"""Command-line front end emitting deterministic CSV and PGM artifacts.

Every CSV begins with `#` metadata lines (tool version, command, and every
resolved option but the output paths), numeric fields are formatted to 6
significant digits, and identical configurations produce byte-identical
files.  Each command handler computes its outputs and returns them as a
path-to-bytes map; `main` alone writes them, to temporary files that are then
atomically renamed, so a failing run never leaves partial artifacts behind.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import secrets
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from . import __version__
from .codec import DEFAULT_BLOCK_SIZE, DEFAULT_PLANE_SIZE, MAX_PIXELS, ContentSpec, synth_content
from .cpdt import (
    DEFAULT_BIN_WIDTH,
    aggregate_by_ratio,
    build_rd_curve,
    full_sweep,
    local_minimum_report,
)
from .pgm import encode_pgm, read_pgm
from .quantizer import _TIE_BREAKS, QP_RANGE, TOWARD_ZERO, Quantizer, as_fraction, qp_to_qstep
from .requant import (
    DEFAULT_DOMAIN,
    MEAN_ABS,
    METRICS,
    CoefficientDomain,
    _BOUND_RULE,
    _boundary_ranges,
    _step_float,
    boundary_overlap,
    error_surface,
    sweep_qstep_t,
)
from .transform import TRANSFORM_SIZES

__all__ = ["main"]

# Published cascaded-transcoding losses (dB) of a full HEVC encoder (HM 15.0)
# on full-HD sequences.  The profile CSV quotes them as context for the toy
# codec's magnitudes, never as thresholds: a prediction-free toy codec
# reproduces the structure of the effects, not their absolute scale.
FULL_CODEC_REFERENCE = {
    # average over sequences of the maximal loss across transcoding ratios
    "avg_max_loss_db": 1.4,
    # losses stay below this while the transcoding ratio is under 100%
    "below_100pct_bound_db": 0.7,
    # typical loss at a 95% transcoding ratio
    "loss_at_95pct_db": 0.35,
    # typical loss near a 75% transcoding ratio
    "loss_at_75pct_db": 0.63,
    # loss near 100% when the transcoder picks qp_s - 1 instead of qp_s
    "qp_minus_one_loss_db": 0.5,
}


# Most values one lo:hi:step range may expand to.
MAX_RANGE_VALUES = 10_000


@dataclass(frozen=True)
class _Arg:
    """A parsed flag value that remembers its raw spelling for the CSV echo."""

    raw: str
    value: object

    def __str__(self) -> str:
        return self.raw


# A nonzero number whose decimal exponent exceeds this plus the length of its
# text in size lies outside the range of a double (4.9e-324 to 1.8e308).
_DOUBLE_EXPONENT = 324


def _fraction_from_text(text: str) -> Fraction:
    """A rational argument.  Fraction builds 10**exponent whole, so a decimal
    exponent past a double's range is refused first."""
    exponent = re.search(r"[eE][-+]?([\d_]+)\s*\Z", text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0") or "0"
        limit = _DOUBLE_EXPONENT + len(text)
        if len(digits) > len(str(limit)) or int(digits) > limit:
            raise argparse.ArgumentTypeError(
                f"the exponent of {text!r} is outside the range of a double"
            )
    try:
        return as_fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _checked_arg(text: str, build: Callable[[], object]) -> _Arg:
    """The flag value build() returns.  The ValueError of a rule it breaks (a
    Quantizer's step or offset, a CoefficientDomain's bounds) is a usage error."""
    try:
        return _Arg(text, build())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _rational_arg(text: str) -> _Arg:
    """A quantizer step, judged by Quantizer's rule and requant's double range."""
    step = _fraction_from_text(text)
    _checked_arg(text, lambda: _step_float(Quantizer(step).step))
    return _Arg(text, step)


def _offset_arg(text: str) -> _Arg:
    """A quantizer dead-zone offset, judged by a unit-step Quantizer."""
    return _checked_arg(text, lambda: Quantizer(1, _fraction_from_text(text)).offset)


def _bin_width_arg(text: str) -> float:
    """A ratio bin width as aggregate_by_ratio judges it; the float, which the CSV echoes."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    _checked_arg(text, lambda: aggregate_by_ratio((), value))
    return value


def _parse_range(text: str) -> list[Fraction]:
    """lo:hi:step (or a single value); lo is included, and so is hi whenever
    lo + k*step lands on it (2:40:1 yields 39 values).  At most
    MAX_RANGE_VALUES values; the count is checked before the list is built."""
    parts = text.split(":")
    if len(parts) == 1:
        return [_fraction_from_text(parts[0])]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"range must be a single value or lo:hi:step, got {text!r}"
        )
    lo, hi, step = (_fraction_from_text(p) for p in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError(f"range step must be positive, got {step}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range hi must be >= lo, got {text!r}")
    count = int((hi - lo) / step) + 1
    if count > MAX_RANGE_VALUES:
        raise argparse.ArgumentTypeError(
            f"range {text!r} has more than the limit of {MAX_RANGE_VALUES} values"
        )
    return [lo + k * step for k in range(count)]


def _range_arg(text: str) -> _Arg:
    """A quantizer step or lo:hi:step range of them, judged at both ends."""
    steps = _parse_range(text)
    _checked_arg(text, lambda: [_step_float(Quantizer(s).step) for s in (steps[0], steps[-1])])
    return _Arg(text, steps)


def _qp_range_arg(text: str) -> _Arg:
    """A qp value or lo:hi:step range of them: integers, judged at both ends by qp_to_qstep."""
    values = _parse_range(text)
    if any(v.denominator != 1 for v in values):
        raise argparse.ArgumentTypeError(f"range must contain only integers, got {text!r}")
    qps = [int(v) for v in values]
    _checked_arg(text, lambda: [qp_to_qstep(qp) for qp in (qps[0], qps[-1])])
    return _Arg(text, qps)


_ALL_QPS = _Arg(f"{QP_RANGE.start}:{QP_RANGE.stop - 1}:1", list(QP_RANGE))
_FULL_DOMAIN = _Arg(f"{DEFAULT_DOMAIN.lo}:{DEFAULT_DOMAIN.hi}", DEFAULT_DOMAIN)


def _domain_arg(text: str) -> _Arg:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"domain must be lo:hi (use --domain={_FULL_DOMAIN} for a negative lo), got {text!r}"
        )
    # A bound of more than 20 digits is out of range, and is refused before int()
    # sees it: int() refuses text past 4300 digits with a message of its own.
    if any(re.fullmatch(r"\s*[-+]?[0_]*[1-9](?:_?\d){20,}\s*", p) for p in parts):
        raise argparse.ArgumentTypeError(f"{_BOUND_RULE}: [{parts[0]}, {parts[1]}]")
    return _checked_arg(text, lambda: CoefficientDomain(*map(int, parts)))


def _fmt(value: object) -> str:
    """CSV cell formatting: 6 significant digits, text as is, empty cell for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return f"{value:.6g}"


# Namespace entries a CSV does not echo: the command words, which the
# `# command:` line spells, the handler, the pre-work check and its parser, and
# the output paths, which say where a result goes rather than what it is.  A
# new output-path flag is listed here; every other parsed value is echoed.
_NOT_ECHOED = frozenset(
    {"command", "subcommand", "handler", "check", "parser", "out", "out_prefix"})


def _csv(
    args: argparse.Namespace,
    columns: Sequence[str],
    items: Iterable[object],
    notes: Sequence[str] = (),
    plane_id: Optional[str] = None,
) -> bytes:
    """A CSV: version, command and echoed options as sorted `#` lines, any
    further `#` notes, the header `columns` and, per item, a row of the item's
    attributes of those names.  A plane_id leads every row as its first column."""
    options = vars(args)
    command = "-".join(options[k] for k in ("command", "subcommand") if k in options)
    lines = [f"# cpdtlab {__version__}", f"# command: {command}"]
    lines += [f"# {key}: {options[key]}" for key in sorted(options.keys() - _NOT_ECHOED)]
    lead = () if plane_id is None else ("plane_id",)
    lines += [*notes, ",".join((*lead, *columns))]
    prefix = "" if plane_id is None else f"{plane_id},"
    lines += [prefix + ",".join(_fmt(getattr(item, c)) for c in columns) for item in items]
    return ("\n".join(lines) + "\n").encode("ascii")


def _create_staging(path: Path) -> tuple[int, Path]:
    """Create a new, uniquely named file beside `path` for staging its bytes.

    O_EXCL with mode 0o666 gives the file the permissions a plain open would
    (the umask applies), and a name no concurrent run can share.
    """
    while True:
        tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            pass


def _set_aside(path: Path) -> Optional[Path]:
    """Rename an existing `path` to a fresh staging name and return that name,
    or None when nothing is at `path`."""
    fd, old = _create_staging(path)
    os.close(fd)
    try:
        os.replace(path, old)
    except FileNotFoundError:
        old.unlink()
        return None
    except BaseException:
        old.unlink()
        raise
    return old


def _write_outputs(outputs: dict[Path, bytes]) -> None:
    """Write every payload to its own temp file, then rename all into place.

    All or nothing, by renames alone: each existing destination is first
    renamed aside; on failure the outputs already renamed in are removed and
    the set-aside files renamed back, on success the set-aside files are
    unlinked.  Old bytes are never read or copied.
    """
    staged: list[tuple[Path, Path]] = []
    aside: list[tuple[Path, Path]] = []
    placed: list[Path] = []
    try:
        for path, data in outputs.items():
            fd, tmp = _create_staging(path)
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as f:
                f.write(data)
        for tmp, path in staged:
            old = _set_aside(path)
            if old is not None:
                aside.append((old, path))
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in placed:
            path.unlink()
        for old, path in aside:
            os.replace(old, path)
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    for old, _ in aside:
        old.unlink()


# The RequantPoint columns of requant sweep; requant surface adds "flag".
_POINT_COLUMNS = ("qstep_s", "qstep_t", "e_a", "e_b", "ratio", "metric", "offset")


def _cmd_requant_sweep(args: argparse.Namespace) -> dict[Path, bytes]:
    points = sweep_qstep_t(args.qstep_s.value, args.qstep_t.value, args.domain.value,
                           args.metric, args.offset.value, args.tie_break)
    return {Path(args.out): _csv(args, _POINT_COLUMNS, points)}


def _cmd_requant_surface(args: argparse.Namespace) -> dict[Path, bytes]:
    surface = error_surface(args.qstep_s.value, args.qstep_t.value, args.domain.value,
                            args.metric, args.offset.value, args.tie_break)
    points = [p for row in surface for p in row]
    return {Path(args.out): _csv(args, (*_POINT_COLUMNS, "flag"), points)}


def _cmd_requant_overlap(args: argparse.Namespace) -> dict[Path, bytes]:
    q_s = Quantizer(args.qstep_s.value, args.offset.value, args.tie_break)
    q_t = Quantizer(args.qstep_t.value, args.offset.value, args.tie_break)
    report = boundary_overlap(q_s, q_t, args.domain.value)
    columns = ("qstep_s", "qstep_t", "offset", "aligned_fraction", "max_extra_error",
               "split_bin_period")
    return {Path(args.out): _csv(args, columns, [report])}


def _content_spec(args: argparse.Namespace) -> ContentSpec:
    """gen-content's plane; its ValueError, raised before any allocation, is a usage error."""
    return ContentSpec(
        seed=args.seed, complexity=args.complexity, width=args.width, height=args.height
    )


def _check_overlap_domain(args: argparse.Namespace) -> None:
    """requant overlap's domain must hold a target-step decision boundary; the
    ValueError for one that holds none is a usage error, found before any work."""
    _boundary_ranges(Quantizer(args.qstep_t.value, args.offset.value), args.domain.value)


def _cmd_gen_content(args: argparse.Namespace) -> dict[Path, bytes]:
    return {Path(args.out): encode_pgm(synth_content(_content_spec(args)))}


def _cmd_rd_curve(args: argparse.Namespace) -> dict[Path, bytes]:
    plane = read_pgm(args.input)
    curve = build_rd_curve(plane, args.qp.value, args.block_size)
    return {Path(args.out): _csv(args, ("qp", "rate", "psnr"), curve.samples)}


def _cmd_cpdt_sweep(args: argparse.Namespace) -> dict[Path, bytes]:
    plane = read_pgm(args.input)
    plane_id = Path(args.input).stem
    records = full_sweep(plane, args.qp_s.value, args.qp_t.value, block_size=args.block_size)
    profile = aggregate_by_ratio(records, args.bin_width)
    local_rows = local_minimum_report(records)
    reference_note = "# reference full-codec scale (dB): " + " ".join(
        f"{key}={FULL_CODEC_REFERENCE[key]:g}" for key in sorted(FULL_CODEC_REFERENCE)
    )
    record_columns = ("qp_s", "qp_t", "source_rate", "target_rate", "ratio", "psnr_r",
                      "psnr_t", "psnr_c", "delta_psnr", "flag")
    profile_columns = ("ratio_lo", "ratio_hi", "mean_delta_psnr", "count")
    local_min_columns = ("qp_s", "best_qp_t", "matches", "delta_at_qp_s")
    prefix = Path(args.out_prefix)
    return {
        prefix.with_name(prefix.name + "_records.csv"):
            _csv(args, record_columns, records, plane_id=plane_id),
        prefix.with_name(prefix.name + "_profile.csv"):
            _csv(args, profile_columns, profile, [reference_note]),
        prefix.with_name(prefix.name + "_local_min.csv"):
            _csv(args, local_min_columns, local_rows, plane_id=plane_id),
    }


def _cmd_verify(args: argparse.Namespace) -> dict[Path, bytes]:
    """Print one line per acceptance check and a summary; writes no file."""
    from .acceptance import CHECKS, run_check

    failed = 0
    for name in CHECKS:
        result = run_check(name)
        print(result, flush=True)
        failed += not result.passed
    print(f"{len(CHECKS) - failed}/{len(CHECKS)} checks passed", flush=True)
    if failed:
        raise RuntimeError(f"{failed} of {len(CHECKS)} checks failed")
    return {}


def _print_error(prefix: str, message: str) -> None:
    """Print `<prefix>error: <message>` to stderr as one line of at most 200
    characters, each run of more than 20 digits in short form such as 1.0e+308."""
    short = re.sub(r"[0-9]{21,}", lambda run: f"{Decimal(run[0]):.1e}", message)
    line = f"{prefix}error: " + " ".join(short.splitlines())
    print(line if len(line) <= 200 else line[:197] + "...", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 instead of 2."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        _print_error(f"{self.prog}: ", message)
        raise SystemExit(1)


def _add_quant_flags(parser: argparse.ArgumentParser, include_metric: bool) -> None:
    parser.add_argument(
        "--offset",
        type=_offset_arg,
        default=_Arg("0", Fraction(0)),
        help="dead-zone rounding offset in [0, 1) (default 0)",
    )
    parser.add_argument(
        "--tie-break",
        choices=_TIE_BREAKS,
        default=TOWARD_ZERO,
        help="which level wins when |x|/step + offset is an exact integer",
    )
    if include_metric:
        parser.add_argument(
            "--metric", choices=METRICS, default=MEAN_ABS, help="error statistic to report"
        )
    parser.add_argument(
        "--domain",
        type=_domain_arg,
        default=_FULL_DOMAIN,
        help="inclusive integer coefficient domain lo:hi "
        "(write --domain=-100:100 when lo is negative)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: parsing leaves it unchanged, and each
    handler looks its functions up as module globals when it runs."""
    parser = _Parser(
        prog="cpdtlab",
        description="Requantization error analysis and cascaded transcoding experiments.",
    )
    parser.add_argument("--version", action="version", version=f"cpdtlab {__version__}")
    # Each command's check judges its parsed flags before any work; most need none.
    parser.set_defaults(check=lambda args: None)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    requant = sub.add_parser("requant", help="requantization error analysis")
    rsub = requant.add_subparsers(dest="subcommand", metavar="subcommand", required=True)

    sweep = rsub.add_parser("sweep", help="error ratio along a target-step range")
    sweep.add_argument("--qstep-s", type=_rational_arg, required=True,
                       help="source step (rational: 12, 27.6, or 138/5)")
    sweep.add_argument("--qstep-t", type=_range_arg, required=True,
                       help="target step value or range lo:hi:step (hi included when on grid)")
    _add_quant_flags(sweep, include_metric=True)
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(handler=_cmd_requant_sweep)

    surface = rsub.add_parser("surface", help="error ratio over a (source, target) grid")
    surface.add_argument("--qstep-s", type=_range_arg, required=True,
                         help="source step value or range lo:hi:step")
    surface.add_argument("--qstep-t", type=_range_arg, required=True,
                         help="target step value or range lo:hi:step")
    _add_quant_flags(surface, include_metric=True)
    surface.add_argument("--out", required=True, help="output CSV path")
    surface.set_defaults(handler=_cmd_requant_surface)

    overlap = rsub.add_parser("overlap", help="decision-boundary alignment report")
    overlap.add_argument("--qstep-s", type=_rational_arg, required=True, help="source step")
    overlap.add_argument("--qstep-t", type=_rational_arg, required=True, help="target step")
    _add_quant_flags(overlap, include_metric=False)
    overlap.add_argument("--out", required=True, help="output CSV path")
    overlap.set_defaults(handler=_cmd_requant_overlap, check=_check_overlap_domain, parser=overlap)

    gen = sub.add_parser("gen-content", help="write a deterministic synthetic plane")
    gen.add_argument("--seed", type=int, required=True, help="random seed")
    gen.add_argument("--complexity", type=float, required=True,
                     help="content complexity in [0, 1]")
    gen.add_argument("--width", type=int, default=DEFAULT_PLANE_SIZE,
                     help=f"plane width (default {DEFAULT_PLANE_SIZE})")
    gen.add_argument("--height", type=int, default=DEFAULT_PLANE_SIZE,
                     help=f"plane height (default {DEFAULT_PLANE_SIZE}); "
                     f"width x height <= {MAX_PIXELS}")
    gen.add_argument("--out", required=True, help="output PGM path")
    gen.set_defaults(handler=_cmd_gen_content, check=_content_spec, parser=gen)

    curve = sub.add_parser("rd-curve", help="rate-distortion curve of a plane")
    curve.add_argument("--input", required=True, help="input PGM path")
    curve.add_argument("--qp", type=_qp_range_arg, default=_ALL_QPS,
                       help=f"qp value or range lo:hi:step (default {_ALL_QPS})")
    curve.add_argument("--block-size", type=int, choices=TRANSFORM_SIZES,
                       default=DEFAULT_BLOCK_SIZE, help="transform block size")
    curve.add_argument("--out", required=True, help="output CSV path")
    curve.set_defaults(handler=_cmd_rd_curve)

    cpdt = sub.add_parser("cpdt-sweep",
                          help="cascaded transcode sweep: records, ratio profile, local minima")
    cpdt.add_argument("--input", required=True, help="input PGM path")
    cpdt.add_argument("--qp-s", type=_qp_range_arg, default=_ALL_QPS,
                      help=f"source qp value or range (default {_ALL_QPS})")
    cpdt.add_argument("--qp-t", type=_qp_range_arg, default=_ALL_QPS,
                      help=f"target qp value or range (default {_ALL_QPS})")
    cpdt.add_argument("--bin-width", type=_bin_width_arg, default=DEFAULT_BIN_WIDTH,
                      help="transcoding-ratio bin width, positive and finite "
                      f"(default {DEFAULT_BIN_WIDTH})")
    cpdt.add_argument("--block-size", type=int, choices=TRANSFORM_SIZES,
                      default=DEFAULT_BLOCK_SIZE, help="transform block size")
    cpdt.add_argument("--out-prefix", required=True,
                      help="writes <prefix>_records.csv, <prefix>_profile.csv, "
                      "<prefix>_local_min.csv")
    cpdt.set_defaults(handler=_cmd_cpdt_sweep)

    verify = sub.add_parser("verify", help="run the acceptance checks and print a table")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            args.check(args)
        except ValueError as exc:
            args.parser.error(str(exc))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        _write_outputs(args.handler(args))
    except Exception as exc:
        _print_error("", str(exc) or type(exc).__name__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
