#!/usr/bin/env python3
"""Benchmark of the cpdtlab CLI: one workload per run, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload cpdt-grid --seed 1 --seconds 30 --trace 0

Each run imports cpdtlab from ./src, generates the workload's inputs from
--seed, sets up (imports, input generation, PGM writes, one warm-up command)
five times, then runs passes -- the workload's full CLI command list through
`cpdtlab.cli.main`, in process -- until --seconds have passed and at least
two passes are done.  Outputs go to a temporary directory under
.perfbench_tmp/ and are checked outside the timed region (oracle.py).

--trace 0 reports the end-to-end metrics: setup_s, pass_s, items_per_s and
peak_rss_mb.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (tracer.py) plus the tracing
overhead.  The last line of standard output is the result object; the line
before it is the full record (environment, pass times, failures,
predictions), also written to .perfbench_out/ with the spans of a traced run.

Exit codes: 0 when the run completed (the result says whether its outputs
were correct), 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

# One BLAS/OpenMP thread, at most nproc on any machine: the benchmark is one
# client, and a single thread keeps run-to-run spread low.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 2

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import cpdtlab.cli; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Import time of the CLI in a fresh interpreter, as the child measures it."""
    child = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE.format(src=str(SRC))],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout.strip())


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cpdtlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _why(workload: str) -> str | None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next((w["why"] for w in spec["workloads"] if w["name"] == workload), None)


def _tail(times: list[float]) -> dict | None:
    """The highest percentile with at least ten passes beyond it."""
    n = len(times)
    if n <= 10:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2), "value_s": sorted(times)[n - 11]}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args, workload, cli_main, tracer) -> None:
        self.args = args
        self.workload = workload
        self.cli_main = cli_main
        self.tracer = tracer
        self.cache: dict = {}
        self.passes: list[dict] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _invoke(self, argv: list[str], traced: bool) -> int:
        self.attempted += 1
        if traced:
            return self.tracer.call_cli(self.cli_main, argv)
        return self.cli_main(argv)

    def _read(self, names: list[str]) -> dict[str, bytes]:
        return {name: Path(name).read_bytes() for name in names if Path(name).is_file()}

    def setup(self, index: int) -> float:
        """Imports, input generation, PGM writes and the warm-up command."""
        import_s = _import_seconds()
        traced = self.tracer is not None
        if traced:
            self.tracer.pass_id = f"setup{index}"
            self.tracer.install()
        start = time.perf_counter()
        try:
            self.workload.write_inputs(Path("."))
            code = self._invoke(self.workload.warmup.argv, traced)
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        self.warmup_outputs = self._read(self.workload.warmup.outputs)
        if code != 0 or len(self.warmup_outputs) != len(self.workload.warmup.outputs):
            self.failed += 1
            self.problems.append(f"warm-up command exited {code}")
        return import_s + elapsed

    def one_pass(self, index: int, traced: bool) -> None:
        if traced:
            self.tracer.pass_id = f"pass{index}"
            self.tracer.install()
        start = time.perf_counter()
        try:
            codes = [self._invoke(cmd.argv, traced) for cmd in self.workload.commands]
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        outputs = [self._read(cmd.outputs) for cmd in self.workload.commands]
        self.passes.append({"id": f"pass{index}", "traced": traced, "seconds": elapsed,
                            "codes": codes, "outputs": outputs})

    def measure(self) -> None:
        seconds = self.args.seconds
        start = time.perf_counter()
        index = 0
        while index < MIN_PASSES or time.perf_counter() - start < seconds:
            self.one_pass(index, traced=bool(self.args.trace) and index % 2 == 1)
            index += 1

    def check(self) -> str:
        """Count failed commands over every pass; returns the golden-hash verdict.

        The first pass's outputs get the content checks; every later pass
        must reproduce them byte for byte, so it inherits their verdict.
        """
        import oracle

        commands = self.workload.commands
        first = self.passes[0]
        content_ok = []
        hashes = {name: oracle.sha256(data) for name, data in self.warmup_outputs.items()}
        for cmd, code, outputs in zip(commands, first["codes"], first["outputs"]):
            hashes.update({name: oracle.sha256(data) for name, data in outputs.items()})
            if code != 0 or len(outputs) != len(cmd.outputs):
                content_ok.append(False)
                continue
            problems = oracle.check_command(self.workload, cmd, outputs, self.cache)
            self.problems.extend(problems)
            content_ok.append(not problems)

        verdict = "not checked: only the default seed at full size is pinned"
        if self.args.seed == oracle.DEFAULT_SEED and self.args.size == "full":
            golden = oracle.load_golden(self.workload.name)
            if self.args.pin and all(content_ok):
                oracle.pin_golden(self.workload.name, hashes)
                golden = hashes
            if golden is None:
                verdict = "not pinned"
            else:
                wrong = sorted(n for n in set(golden) | set(hashes)
                               if golden.get(n) != hashes.get(n))
                verdict = "match" if not wrong else f"mismatch: {', '.join(wrong)}"
                for i, cmd in enumerate(commands):
                    if set(cmd.outputs) & set(wrong):
                        content_ok[i] = False
                if set(self.workload.warmup.outputs) & set(wrong):
                    self.failed += 1
                    self.problems.append("warm-up outputs differ from the pinned hashes")

        for record in self.passes:
            for i, (code, outputs) in enumerate(zip(record["codes"], record["outputs"])):
                same = outputs == first["outputs"][i]
                if code != 0 or not same or not content_ok[i]:
                    self.failed += 1
                    if code != 0:
                        self.problems.append(f"{record['id']}: {commands[i].argv} exited {code}")
                    elif not same:
                        self.problems.append(
                            f"{record['id']}: {commands[i].outputs} differ from pass0"
                        )
        return verdict


def _layer_results(run: Run, tracer, untraced: list[float], traced: list[float]) -> dict:
    traced_ids = [p["id"] for p in run.passes if p["traced"]]
    setup_ids = [f"setup{i}" for i in range(SETUP_REPEATS)]
    values = tracer.layer_metrics(traced_ids, setup_ids)
    bytes_per_pass = [sum(len(d) for out in p["outputs"] for d in out.values())
                      for p in run.passes if p["traced"]]
    values["cli.bytes_written"] = statistics.median(bytes_per_pass)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return values


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "cpdtlab" / "__init__.py").is_file():
        print(f"perfbench: no cpdtlab package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import cpdtlab.cli

    if Path(cpdtlab.__file__).resolve().parent != SRC / "cpdtlab":
        print(f"perfbench: imported cpdtlab from {cpdtlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure at least this long (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke check")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's output hashes as the default seed's golden")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, tiny=args.size == "tiny")
    tracer = tracing.Tracer() if args.trace else None
    run = Run(args, workload, cpdtlab.cli.main, tracer)

    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        setup = [run.setup(i) for i in range(SETUP_REPEATS)]
        run.measure()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        golden = run.check()
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p["seconds"] for p in run.passes if not p["traced"]]
    traced = [p["seconds"] for p in run.passes if p["traced"]]
    # items completed by commands that exited 0, per second of untraced pass time
    items = sum(
        cmd.items
        for p in run.passes if not p["traced"]
        for cmd, code in zip(workload.commands, p["codes"]) if code == 0
    )
    if args.trace:
        spec = tracing.LAYER_METRICS
        values = _layer_results(run, tracer, untraced, traced)
        metrics = {
            name: {"value": int(values[name]) if unit in ("count", "bytes") else values[name],
                   "unit": unit}
            for name, (unit, *_rest) in spec.items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(untraced), "unit": "s"},
            "items_per_s": {"value": items / sum(untraced), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "why": _why(args.workload),
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
            "platform": platform.platform(),
            "git_sha": _git_sha(),
            "src_sha256": _src_sha256(),
            "inputs": workload.environment(),
        },
        "client": "closed loop, one client, commands in process",
        "setup_s": setup,
        "passes": {
            "count": len(untraced),
            "pass_s": untraced,
            "median_s": statistics.median(untraced),
            "tail": _tail(untraced),
            "items_per_pass": sum(cmd.items for cmd in workload.commands),
        },
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ratio": run.failed / run.attempted,
        "golden": golden,
        "problems": run.problems[:20],
        "metrics": metrics,
    }
    if args.trace:
        record["traced_outputs_identical"] = all(
            p["outputs"] == run.passes[0]["outputs"] for p in run.passes if p["traced"]
        )
        record["traced_passes"] = {"count": len(traced), "pass_s": traced,
                                   "median_s": statistics.median(traced)}
        record["tracing_overhead_s"] = metrics["trace.overhead_s"]["value"]
        record["predictions"] = tracing.predictions()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print(json.dumps(record))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
