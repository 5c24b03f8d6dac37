"""The benchmark's workloads: inputs generated from a seed, and the CLI commands of one pass.

A pass is a workload's full command list, run in order through
`cpdtlab.cli.main`.  Every path in a command is relative to the run's work
directory, so the CSV metadata (which echoes `--input`) is the same whatever
directory the run uses, and output hashes can be pinned.

Each workload keeps the amount of work per pass nearly fixed across seeds
(same plane count, same area per plane, same cell counts per code path), so
that the seed changes what is computed but not how much.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from cpdtlab import codec
from cpdtlab.pgm import encode_pgm
from cpdtlab.requant import MEAN_ABS, METRICS

WORKLOADS = ("cpdt-grid", "cpdt-tiles", "requant-exact")

OFFSETS = ("0", "1/6", "1/3", "1/2")
TIE_BREAKS = ("toward-zero", "away-from-zero")

_TAGS = {name: i + 1 for i, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class RequantCell:
    """One error_ratio cell, in the order the CLI writes it."""

    qstep_s: Fraction
    qstep_t: Fraction


@dataclass
class Command:
    """One CLI invocation of a pass and what it must produce."""

    argv: list[str]
    outputs: list[str]
    items: int
    # requant commands only: the exact cells and quantizer settings, for the oracles
    cells: list[RequantCell] = field(default_factory=list)
    offset: Fraction = Fraction(0)
    tie_break: str = TIE_BREAKS[0]
    metric: str = MEAN_ABS


@dataclass
class Plane:
    filename: str
    spec: codec.ContentSpec
    block_size: int


@dataclass
class Workload:
    name: str
    planes: list[Plane]
    commands: list[Command]
    warmup: Command
    domain: tuple[int, int] = (-32768, 32767)

    def write_inputs(self, workdir: Path) -> None:
        """Generate every plane through synth_content and write it as PGM.

        synth_content is looked up at call time, so a traced run sees its wrapper.
        """
        for plane in self.planes:
            pixels = codec.synth_content(plane.spec)
            (workdir / plane.filename).write_bytes(encode_pgm(pixels))

    def environment(self) -> dict:
        """Input sizes of this workload, for the result record."""
        if self.planes:
            sizes = []
            for p in self.planes:
                n = p.block_size
                padded = (-(-p.spec.width // n) * n) * (-(-p.spec.height // n) * n)
                sizes.append(
                    {
                        "file": p.filename,
                        "width": p.spec.width,
                        "height": p.spec.height,
                        "complexity": p.spec.complexity,
                        "block_size": n,
                        "plane_bytes": p.spec.width * p.spec.height,
                        "coeff_bytes": padded * 8,
                    }
                )
            return {
                "planes": sizes,
                "plane_bytes": sum(s["plane_bytes"] for s in sizes),
                "coeff_bytes": sum(s["coeff_bytes"] for s in sizes),
            }
        lo, hi = self.domain
        return {
            "domain": [lo, hi],
            "domain_values": hi - lo + 1,
            "domain_int64_bytes": (hi - lo + 1) * 8,
            "cells": sum(c.items for c in self.commands),
        }


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[name]])


def _cpdt_command(plane: Plane, prefix: str, qp_s: str, qp_t: str, items: int) -> Command:
    argv = [
        "cpdt-sweep",
        "--input", plane.filename,
        "--qp-s", qp_s,
        "--qp-t", qp_t,
        "--block-size", str(plane.block_size),
        "--out-prefix", prefix,
    ]
    outputs = [f"{prefix}_{kind}.csv" for kind in ("records", "profile", "local_min")]
    return Command(argv, outputs, items)


def _cpdt_grid(seed: int, tiny: bool) -> Workload:
    side = 32 if tiny else 256
    qp_s, qp_t = ("20:30:1", "18:32:1") if tiny else ("0:51:1", "0:51:1")
    items = 11 * 15 if tiny else 52 * 52
    plane = Plane("plane.pgm", codec.ContentSpec(seed, 0.6, side, side), 8)
    command = _cpdt_command(plane, "grid", qp_s, qp_t, items)
    warmup = _cpdt_command(plane, "warmup", "26", "26", 1)
    return Workload("cpdt-grid", [plane], [command], warmup)


def _cpdt_tiles(seed: int, tiny: bool) -> Workload:
    rng = _rng("cpdt-tiles", seed)
    count, lo, hi, area = (3, 16, 64, 1024) if tiny else (16, 32, 128, 4096)
    planes, commands = [], []
    for i in range(count):
        # about the same area per plane, so the work per pass barely moves with the seed
        width = int(rng.integers(lo, hi + 1))
        height = int(min(max(round(area / width), lo), hi))
        complexity = float(rng.uniform(0.0, 1.0))
        spec = codec.ContentSpec(int(rng.integers(1 << 31)), complexity, width, height)
        plane = Plane(f"tile{i:02d}.pgm", spec, 4 if i % 2 == 0 else 8)
        qp_t = str(int(rng.integers(0, 52)))
        if i == 0:
            warmup = _cpdt_command(plane, "warmup", "0:51:1", qp_t, 52)
        planes.append(plane)
        commands.append(_cpdt_command(plane, f"tile{i:02d}", "0:51:1", qp_t, 52))
    return Workload("cpdt-tiles", planes, commands, warmup)


def _decimal(rng: np.random.Generator, lo: int, hi: int) -> Fraction:
    """A short-decimal step with one digit after the point."""
    return Fraction(int(rng.integers(lo * 10, hi * 10)), 10)


def _big_denominator(rng: np.random.Generator) -> str:
    """A step with 17 decimals whose last digit is coprime to 10, so its
    denominator stays 10**17 and the exact quantizer needs Python ints."""
    digits = "".join(str(d) for d in rng.integers(0, 10, 16))
    last = str(rng.choice([1, 3, 7, 9]))
    return f"{int(rng.integers(4, 30))}.{digits}{last}"


def _text(value: Fraction) -> str:
    """Spell a short-decimal or integer step as the CLI accepts it."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{float(value):g}"


def _frange(lo: Fraction, step: Fraction, count: int) -> list[Fraction]:
    return [lo + k * step for k in range(count)]


def _requant_exact(seed: int, tiny: bool) -> Workload:
    """72 int64-path cells (about 5 ms each) and 6 object-path cells (about
    80 ms each), so each exact path takes a comparable share of the pass."""
    rng = _rng("requant-exact", seed)
    domain = (-512, 511) if tiny else (-32768, 32767)
    domain_flag = [f"--domain={domain[0]}:{domain[1]}"]
    commands: list[Command] = []

    def add(kind: str, s_values, t_values, s_arg, t_arg, offset, tie_break, metric):
        out = f"rq{len(commands):02d}_{kind}.csv"
        argv = [
            "requant", kind,
            "--qstep-s", s_arg,
            "--qstep-t", t_arg,
            "--offset", offset,
            "--tie-break", tie_break,
            "--metric", metric,
            *domain_flag,
            "--out", out,
        ]
        cells = [RequantCell(s, t) for s in s_values for t in t_values]
        commands.append(
            Command(argv, [out], len(cells), cells, Fraction(offset), tie_break, metric)
        )

    # int64 path, integer steps at offset 0: every cell is checked by the oracle
    for metric in METRICS:
        s = int(rng.integers(4, 25))
        t0 = int(rng.integers(2, 41))
        tb = str(rng.choice(TIE_BREAKS))
        add("sweep", [Fraction(s)], _frange(Fraction(t0), Fraction(1), 8),
            str(s), f"{t0}:{t0 + 7}:1", "0", tb, metric)

    # int64 path, short-decimal steps at each dead-zone offset
    for offset, metric, tb in zip(OFFSETS[1:], rng.permutation(METRICS), TIE_BREAKS * 2):
        s0, t0 = _decimal(rng, 2, 30), _decimal(rng, 2, 40)
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        add("surface", _frange(s0, half, 4), _frange(t0, quarter, 4),
            f"{_text(s0)}:{_text(s0 + 3 * half)}:0.5",
            f"{_text(t0)}:{_text(t0 + 3 * quarter)}:0.25",
            offset, tb, str(metric))

    # object-dtype path: large-denominator target steps, one sweep per metric
    for metric in METRICS:
        s = Fraction(int(rng.integers(4, 25))) if rng.integers(2) else _decimal(rng, 4, 25)
        big = _big_denominator(rng)
        t_values = _frange(Fraction(big), Fraction(1), 2)
        add("sweep", [s], t_values, _text(s), f"{big}:{int(t_values[0]) + 2}:1",
            str(rng.choice(OFFSETS)), str(rng.choice(TIE_BREAKS)), metric)

    first = commands[0]
    warmup = Command([*first.argv[:-1], "warmup.csv"], ["warmup.csv"], first.items)
    return Workload("requant-exact", [], commands, warmup, domain)


_BUILDERS = {"cpdt-grid": _cpdt_grid, "cpdt-tiles": _cpdt_tiles, "requant-exact": _requant_exact}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload `name` for `seed`; `tiny` shrinks it for the smoke check."""
    return _BUILDERS[name](seed, tiny)
