"""Run one benchmark workload (or all of them) and print every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the timed phase twice, first untraced and then with the
span recorder of :mod:`tracing` installed, and reports the per-layer metrics
plus the tracing overhead (traced over untraced median operation time).
Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` next to this directory;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for data directories; removed when the run ends.
WORK_DIR = ROOT / ".perfbench_work"
#: Span dumps and full per-run reports.
OUT_DIR = ROOT / ".perfbench_out"
#: Percentiles tried, highest first, for a reported timing's tail.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)

#: The end-to-end metrics of every workload, with their units.  Tails,
#: throughput and CPU time per operation are printed but not gated: on a
#: shared two-core host they moved by 26-49% (served-read p90/p99, ops/s) and
#: up to 27% (ingest CPU per cycle) between runs of the same code.
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
              ("op_p50_ms", "ms")]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(name: str, values: list[float]) -> list[tuple[str, float, str]]:
    """The highest tried percentile with at least ten samples beyond it, as
    a ``<name>_p<pct>_ms`` line; none when there are too few samples."""
    count = len(values)
    for pct in TAIL_PERCENTILES:
        if count - math.ceil(pct / 100.0 * count) >= 10:
            return [(f"{name}_p{pct:g}_ms", percentile(values, pct) * 1e3, "ms")]
    return []


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def workload_report(name: str, samples: Any) -> list[tuple[str, float, str]]:
    """The workload's own end-to-end figures, named as in perfbench/README.md."""
    parts = samples.parts
    lines: list[tuple[str, float, str]] = [
        ("error_rate", (samples.failed + samples.incorrect)
         / max(1, samples.attempted), "ratio"),
        *tail("op", samples.ops),
        ("ops_per_s", len(samples.ops) / samples.busy_s if samples.busy_s
         else 0.0, "1/s"),
        ("cpu_ms_per_op", samples.cpu_s / len(samples.ops) * 1e3
         if samples.ops else 0.0, "ms")]
    if name == "serve_point":
        reads = samples.ops
        lines += [("read_qps", len(reads) / samples.busy_s, "1/s"),
                  ("read_p50_ms", _median(reads) * 1e3, "ms"),
                  *tail("read", reads)]
    elif name == "analytic_refresh":
        lines += [("program_p50_s", _median(samples.ops), "s"),
                  ("program_simulated_s",
                   _median(parts.get("program_simulated", [])), "sim_s")]
    elif name == "ingest_view":
        inserts = parts.get("insert", [])
        lines += [("insert_p50_ms", _median(inserts) * 1e3, "ms"),
                  *tail("insert", inserts),
                  ("retract_p50_ms", _median(parts.get("retract", [])) * 1e3, "ms"),
                  ("refresh_p50_ms", _median(parts.get("refresh", [])) * 1e3, "ms"),
                  ("view_read_p50_ms",
                   _median(parts.get("view_read", [])) * 1e3, "ms")]
    units = {"recovery_s": "s", "disk_bytes_per_user_byte": "ratio",
             "user_bytes": "B"}
    lines += [(key, float(value), units.get(key, "count"))
              for key, value in sorted(samples.extra.items())]
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from hostspeed import HostSpeed
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS

    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = None
    try:
        workload = WORKLOADS[name](workdir, seed)
        # The first set-up in a process also pays lazy imports, so it is not
        # timed.  The timed phase runs on it, before the repeated set-ups
        # below churn the heap.
        workload.setup()
        gc.collect()
        samples = workload.run(seconds)
        phases = [samples]
        # Set-up time is wall time (it includes the durable load's fsyncs),
        # scaled to reference host speed by the kernel runs around each
        # set-up; the raw median is printed beside it.
        setups, setup_walls = [], []
        for _ in range(workload.SETUPS):
            workload.teardown()
            # Each set-up starts from a collected heap, so none pays for
            # collecting the previous deployment.
            gc.collect()
            speed = HostSpeed()
            start = time.perf_counter()
            workload.setup()
            wall = time.perf_counter() - start
            setups.append(wall * speed.factor())
            setup_walls.append(wall)
        layers: dict[str, float] = {}
        if trace:
            workload.teardown()
            gc.collect()
            tracer = Tracer()
            tracer.install()
            try:
                workload.setup()
                gc.collect()
                tracer.phase = "timed"
                traced = workload.run(seconds, tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
            extra = {"user_bytes": traced.extra.get("user_bytes", 0),
                     "trace.overhead_ratio":
                         _median(traced.scaled) / _median(samples.scaled)
                         if samples.scaled and traced.scaled else 0.0}
            for key in ("checkpoints", "replayed_records"):
                if key in traced.extra:
                    extra[f"durability.{key}"] = traced.extra[key]
            layers = layer_metrics(tracer, extra)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(str(OUT_DIR / f"spans-{name}.jsonl"))
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed + p.incorrect for p in phases)
    incorrect = sum(p.incorrect for p in phases)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1.0 - (samples.failed + samples.incorrect)
                    / max(1, samples.attempted),
        "op_p50_ms": _median(samples.scaled) * 1e3,
    }
    units = dict(END_TO_END) if not trace else dict(PER_LAYER)
    chosen = layers if trace else end_to_end
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "config": workload.config,
        "operations": len(samples.ops),
        "end_to_end": end_to_end,
        "workload_metrics": [("setup_raw_s", statistics.median(setup_walls), "s"),
                             ("op_p50_raw_ms", _median(samples.ops) * 1e3, "ms"),
                             *workload_report(name, samples)],
        "per_layer": layers,
        "errors": [e for p in phases for e in p.errors],
        "result": {
            "correct": incorrect == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": chosen[key], "unit": units[key]}
                        for key in units},
        },
    }


def print_report(report: dict) -> None:
    from tracing import PER_LAYER

    print(f"== {report['workload']} (seed {report['seed']}, "
          f"{report['seconds']:g} s, trace {int(report['trace'])})")
    for key, value in report["config"].items():
        print(f"  config {key}: {value}")
    print(f"  operations: {report['operations']}")
    units = dict(PER_LAYER)
    for key, unit in END_TO_END:
        print(f"  {key} {report['end_to_end'][key]:.6g} {unit}")
    for key, value, unit in report["workload_metrics"]:
        print(f"  {key} {value:.6g} {unit}")
    for key, value in report["per_layer"].items():
        print(f"  {key} {value:.6g} {units[key]}")
    for error in report["errors"]:
        print(f"  error: {error}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if completed.returncode != 0:
            return completed.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_point", "analytic_refresh",
                                 "ingest_view", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
