"""Per-layer tracing from outside the program.

The tracer replaces cpdtlab's public functions with timing wrappers at the
place their caller looks them up (`cpdtlab.cli.read_pgm`,
`cpdtlab.cpdt.encode_plane`, `cpdtlab.codec.forward_transform`,
`Quantizer.quantize_scaled`, ...), so no file under `src/` changes.  Each
call becomes a span: name, pass id, parent span, start and end.  Spans are
held in memory and written out at the end of the run.

A few wrappers also run a probe after the call returns: input size, a digest
of the transform input, whether the exact quantizer fell back to object
dtype.  Probe time falls outside every span's own timing: it is subtracted
from the span it ran inside, so layer times are not inflated by the tracer,
while the traced pass time still includes it and shows up as overhead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import cpdtlab.cli
import cpdtlab.codec
import cpdtlab.cpdt
import cpdtlab.requant
from cpdtlab.quantizer import Quantizer

CLI = "cli.main"
SYNTH = "codec.synth_content"


def _blocks_probe(attrs: dict, args: tuple, result) -> None:
    block = args[0]
    attrs["n"] = block.shape[-1]
    attrs["blocks"] = block.size // (block.shape[-1] * block.shape[-2])


def _forward_probe(attrs: dict, args: tuple, result) -> None:
    _blocks_probe(attrs, args, result)
    block = np.asarray(args[0])
    digest = hashlib.sha1(block.tobytes())
    digest.update(repr((block.shape, block.dtype.str)).encode())
    attrs["digest"] = digest.hexdigest()


def _quantize_probe(attrs: dict, args: tuple, result) -> None:
    attrs["values"] = int(np.asarray(args[1]).size)
    attrs["object"] = result.dtype == object


# (owner, attribute, span name, probe): each wrapped where its caller looks it up
TARGETS = (
    (cpdtlab.cli, "read_pgm", "pgm.read_pgm", None),
    (cpdtlab.cli, "build_rd_curve", "cpdt.build_rd_curve", None),
    (cpdtlab.cli, "full_sweep", "cpdt.full_sweep", None),
    (cpdtlab.cli, "aggregate_by_ratio", "cpdt.aggregate_by_ratio", None),
    (cpdtlab.cli, "local_minimum_report", "cpdt.local_minimum_report", None),
    (cpdtlab.cli, "sweep_qstep_t", "requant.sweep_qstep_t", None),
    (cpdtlab.cli, "error_surface", "requant.error_surface", None),
    (cpdtlab.cpdt, "encode_plane", "codec.encode_plane", None),
    (cpdtlab.cpdt, "decode_plane", "codec.decode_plane", None),
    (cpdtlab.cpdt, "estimate_rate", "codec.estimate_rate", None),
    (cpdtlab.cpdt, "psnr", "codec.psnr", None),
    (cpdtlab.codec, "forward_transform", "transform.forward", _forward_probe),
    (cpdtlab.codec, "inverse_transform", "transform.inverse", _blocks_probe),
    (cpdtlab.codec, "synth_content", SYNTH, None),
    (cpdtlab.requant, "error_ratio", "requant.error_ratio", None),
    (Quantizer, "quantize_scaled", "quantizer.quantize_scaled", _quantize_probe),
)

# Per-layer metric -> (unit, better, end-to-end metrics it should move, workloads).
# The prediction is recorded with every traced result so later changes can cite it.
_PASS = ["pass_s", "items_per_s"]
_CPDT = ["cpdt-grid", "cpdt-tiles"]
_RQ = ["requant-exact"]
LAYER_METRICS = {
    "transform.forward.s": ("s", "lower", _PASS, _CPDT),
    "transform.inverse.s": ("s", "lower", _PASS, _CPDT),
    "transform.forward.calls": ("count", "lower", _PASS, _CPDT),
    "transform.forward.blocks": ("count", "lower", _PASS, _CPDT),
    "transform.inverse.blocks": ("count", "lower", _PASS, _CPDT),
    "transform.mults": ("count", "lower", _PASS, _CPDT),
    "transform.forward.distinct_ratio": ("ratio", "higher", ["pass_s"], ["cpdt-grid"]),
    "codec.encode_plane.self_s": ("s", "lower", ["pass_s"], _CPDT),
    "codec.decode_plane.self_s": ("s", "lower", ["pass_s"], _CPDT),
    "codec.encode_plane.calls": ("count", "lower", ["pass_s"], _CPDT),
    "codec.decode_plane.calls": ("count", "lower", ["pass_s"], _CPDT),
    "codec.estimate_rate.s": ("s", "lower", ["pass_s"], _CPDT),
    "codec.psnr.s": ("s", "lower", ["pass_s"], _CPDT),
    "codec.synth_content.s": ("s", "lower", ["setup_s"], _CPDT),
    "cpdt.build_rd_curve.self_s": ("s", "lower", ["pass_s"], ["cpdt-tiles", "cpdt-grid"]),
    "cpdt.full_sweep.self_s": ("s", "lower", ["pass_s"], ["cpdt-tiles", "cpdt-grid"]),
    "cpdt.aggregate.s": ("s", "lower", ["pass_s"], ["cpdt-tiles", "cpdt-grid"]),
    "pgm.read_pgm.s": ("s", "lower", ["pass_s"], ["cpdt-tiles"]),
    "cli.self_s": ("s", "lower", ["pass_s"], ["cpdt-tiles"]),
    "cli.bytes_written": ("bytes", "lower", ["pass_s"], ["cpdt-tiles"]),
    "quantizer.quantize_scaled.s": ("s", "lower", ["items_per_s"], _RQ),
    "quantizer.quantize_scaled.calls": ("count", "lower", ["items_per_s"], _RQ),
    "quantizer.quantize_scaled.values": ("count", "lower", ["items_per_s"], _RQ),
    "quantizer.object_calls": ("count", "lower", ["items_per_s"], _RQ),
    "requant.error_ratio.calls": ("count", "lower", ["items_per_s"], _RQ),
    "requant.error_ratio.int64_s": ("s", "lower", ["items_per_s"], _RQ),
    "requant.error_ratio.object_s": ("s", "lower", ["items_per_s"], _RQ),
    "requant.error_ratio.self_s": ("s", "lower", ["items_per_s"], _RQ),
    "trace.overhead_s": ("s", "lower", [], []),
}

# Measured by the benchmark run itself rather than from spans.
MEASURED_BY_RUN = ("cli.bytes_written", "trace.overhead_s")


def predictions() -> dict:
    """Which end-to-end metric each layer metric should move, and where."""
    return {
        name: {"moves": moves, "workloads": workloads}
        for name, (_unit, _better, moves, workloads) in LAYER_METRICS.items()
    }


class Tracer:
    """Spans for the wrapped functions, grouped by pass id.

    Install it around the passes to trace and uninstall it afterwards; the
    untraced passes then run the original functions.
    """

    def __init__(self) -> None:
        self.pass_id: str | None = None
        self.spans: list[tuple | None] = []  # (name, pass_id, parent, start, end)
        self.attrs: dict[int, dict] = {}
        self.probe_s: dict[int, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, probe in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, probe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call_cli(self, main, argv: list[str]) -> int:
        """Run one CLI command through `main` as a span named cli.main."""
        return self._wrap(CLI, main, None)(argv)

    def _wrap(self, name: str, fn, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, self.pass_id, parent, start, end)
            if probe is not None:
                probe(self.attrs.setdefault(index, {}), args, result)
                if parent is not None:
                    self.probe_s[parent] += time.perf_counter() - end
            return result

        return traced

    def _durations(self) -> tuple[list[float], list[float]]:
        """Per span: duration without probe time, and self time without children."""
        count = len(self.spans)
        nested_probe = [self.probe_s.get(i, 0.0) for i in range(count)]
        child_s = [0.0] * count
        duration = [0.0] * count
        for i in range(count - 1, -1, -1):  # children come after their parent
            _name, _pass, parent, start, end = self.spans[i]
            duration[i] = end - start - nested_probe[i]
            if parent is not None:
                nested_probe[parent] += nested_probe[i]
                child_s[parent] += duration[i]
        self_s = [d - c for d, c in zip(duration, child_s)]
        return duration, self_s

    def layer_metrics(self, pass_ids: list[str], setup_ids: list[str]) -> dict[str, float]:
        """Every per-layer metric but those in MEASURED_BY_RUN.

        Times and counts are per pass, the median over `pass_ids`;
        codec.synth_content.s is per set-up, the median over `setup_ids`.
        """
        duration, self_s = self._durations()
        per_pass = {pid: defaultdict(float) for pid in (*pass_ids, *setup_ids)}
        digests = {pid: set() for pid in pass_ids}
        object_parents = set()
        for i, span in enumerate(self.spans):
            name, pid, parent, _start, _end = span
            if pid not in per_pass:
                continue
            acc = per_pass[pid]
            acc[name + ".s"] += duration[i]
            acc[name + ".self_s"] += self_s[i]
            acc[name + ".calls"] += 1
            attrs = self.attrs.get(i, {})
            if "blocks" in attrs:
                acc[name + ".blocks"] += attrs["blocks"]
                acc["transform.mults"] += attrs["blocks"] * 2 * attrs["n"] ** 3
            if "digest" in attrs and pid in digests:
                digests[pid].add(attrs["digest"])
            if "values" in attrs:
                acc["quantizer.quantize_scaled.values"] += attrs["values"]
                acc["quantizer.object_calls"] += attrs["object"]
                if attrs["object"]:
                    object_parents.add(parent)
        for i, span in enumerate(self.spans):
            name, pid, *_ = span
            if name == "requant.error_ratio" and pid in per_pass:
                path = "object_s" if i in object_parents else "int64_s"
                per_pass[pid]["requant.error_ratio." + path] += duration[i]

        for pid in pass_ids:
            acc = per_pass[pid]
            acc["cli.self_s"] = acc[CLI + ".self_s"]
            acc["cpdt.aggregate.s"] = (
                acc["cpdt.aggregate_by_ratio.s"] + acc["cpdt.local_minimum_report.s"]
            )
            calls = acc["transform.forward.calls"]
            acc["transform.forward.distinct_ratio"] = len(digests[pid]) / calls if calls else 0.0

        def median(key: str) -> float:
            ids = setup_ids if key == SYNTH + ".s" else pass_ids
            return statistics.median(per_pass[pid][key] for pid in ids)

        return {key: median(key) for key in LAYER_METRICS if key not in MEASURED_BY_RUN}

    def write(self, path: Path) -> None:
        """Every span as one JSON line: id, pass, parent, name, start, end, probe data."""
        with open(path, "w") as f:
            for i, (name, pid, parent, start, end) in enumerate(self.spans):
                row = {"id": i, "pass": pid, "parent": parent, "name": name,
                       "start": start, "end": end, **self.attrs.get(i, {})}
                f.write(json.dumps(row, default=int) + "\n")
