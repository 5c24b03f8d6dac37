"""Correctness checks of the benchmark's outputs, run outside the timed region.

- Pinned hashes: for the default seed at full size, the SHA-256 of every
  CSV a workload writes is pinned in golden.json.
- Row counts: every records CSV and requant CSV holds one row per item.
- requant-exact: every integer-step, offset-0 cell is recomputed by a
  brute-force, pure-integer oracle, and the first object-path cell by the
  scalar `Quantizer.quantize` reference.  Both compare the CLI's printed
  e_a, e_b and ratio cells, formatted as the CLI formats them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

from cpdtlab.quantizer import Quantizer
from cpdtlab.requant import MEAN_ABS, RMS

from workloads import Command, RequantCell, Workload

GOLDEN = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden(workload: str) -> dict[str, str] | None:
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload)


def pin_golden(workload: str, hashes: dict[str, str]) -> None:
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    pinned[workload] = dict(sorted(hashes.items()))
    GOLDEN.write_text(json.dumps(dict(sorted(pinned.items())), indent=2) + "\n")


def _rows(data: bytes) -> list[dict[str, str]]:
    lines = [ln for ln in data.decode("ascii").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


def _cell_text(sums_a: int, sums_b: int, count: int, den_sq: int, metric: str) -> tuple:
    """(e_a, e_b, ratio) as the CLI prints them, from exact error sums.

    For mean-abs the sums are of |error| * den, otherwise of (|error| * den)**2;
    `den_sq` is den for mean-abs and den**2 otherwise.
    """
    e_a, e_b = Fraction(sums_a, count * den_sq), Fraction(sums_b, count * den_sq)
    ratio = Fraction(sums_b, sums_a) if sums_a else None
    if metric == RMS:
        root = lambda f: None if f is None else math.sqrt(float(f))  # noqa: E731
        return _fmt(root(e_a)), _fmt(root(e_b)), _fmt(root(ratio))
    return _fmt(float(e_a)), _fmt(float(e_b)), _fmt(None if ratio is None else float(ratio))


def integer_oracle(q_s: int, q_t: int, lo: int, hi: int, metric: str) -> tuple:
    """Brute force for integer steps at offset 0: the level magnitude is
    floor division, so both errors are remainders of plain integers."""
    sum_a = sum_b = 0
    square = metric != MEAN_ABS
    for x in range(lo, hi + 1):
        a = abs(x)
        err_a = a % q_t
        recon = a - a % q_s
        err_b = a - (recon // q_t) * q_t
        if square:
            err_a, err_b = err_a * err_a, err_b * err_b
        sum_a += err_a
        sum_b += err_b
    return _cell_text(sum_a, sum_b, hi - lo + 1, 1, metric)


def scalar_reference(cmd: Command, cell: RequantCell, lo: int, hi: int) -> tuple:
    """The scalar, one-value-at-a-time quantizer law applied to every value."""
    q_s = Quantizer(cell.qstep_s, cmd.offset, cmd.tie_break)
    q_t = Quantizer(cell.qstep_t, cmd.offset, cmd.tie_break)
    tp, tq = q_t.step.numerator, q_t.step.denominator
    sum_a = sum_b = 0
    square = cmd.metric != MEAN_ABS
    for x in range(lo, hi + 1):
        err_a = abs(x * tq - q_t.quantize(x) * tp)
        err_b = abs(x * tq - q_t.quantize(q_s.dequantize(q_s.quantize(x))) * tp)
        if square:
            err_a, err_b = err_a * err_a, err_b * err_b
        sum_a += err_a
        sum_b += err_b
    return _cell_text(sum_a, sum_b, hi - lo + 1, tq * tq if square else tq, cmd.metric)


def reference_cell(workload: Workload) -> tuple[Command, RequantCell] | None:
    """The first cell with a large-denominator step, which takes the object-dtype path."""
    for cmd in workload.commands:
        for cell in cmd.cells:
            if max(cell.qstep_s.denominator, cell.qstep_t.denominator) > 10**9:
                return cmd, cell
    return None


def check_command(workload: Workload, cmd: Command, outputs: dict[str, bytes],
                  cache: dict) -> list[str]:
    """Problems with one command's outputs; empty when they are correct.

    `cache` keeps oracle results between calls, so each cell's brute force
    runs once per benchmark run.
    """
    rows = _rows(outputs[cmd.outputs[0]])
    if len(rows) != cmd.items:
        return [f"{cmd.outputs[0]}: {len(rows)} rows, expected {cmd.items}"]
    lo, hi = workload.domain
    reference = reference_cell(workload)
    problems = []
    for row, cell in zip(rows, cmd.cells):
        if cmd.offset == 0 and cell.qstep_s.denominator == cell.qstep_t.denominator == 1:
            key = (cell, cmd.metric)
            if key not in cache:
                cache[key] = integer_oracle(
                    int(cell.qstep_s), int(cell.qstep_t), lo, hi, cmd.metric
                )
        elif reference == (cmd, cell):
            key = "scalar"
            if key not in cache:
                cache[key] = scalar_reference(cmd, cell, lo, hi)
        else:
            continue
        got = (row["e_a"], row["e_b"], row["ratio"])
        if got != cache[key]:
            problems.append(
                f"{cmd.outputs[0]}: cell {cell.qstep_s} -> {cell.qstep_t} printed {got}, "
                f"oracle {cache[key]}"
            )
    return problems
