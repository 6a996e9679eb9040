#!/usr/bin/env python3
"""Benchmark of the whole workflow: in-situ writes, local analysis reads and
warm served reads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload insitu_write --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that prints the per-layer table and metrics,
including ``obs.trace_overhead`` (traced median latency over an untraced
window of the same run, minus one).  Every run checks the program's outputs,
writes a record (settings, seed, environment, digests, spans) under
``.perfbench_runs/`` and prints, as its last stdout line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

The exit code is 0 for a correct run, 1 when a check failed and 2 when the
program under test is missing or the run could not complete.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402  (needs the path above)

WORKLOADS = ("insitu_write", "analysis_local", "serve_warm")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "MBps": "MB/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "fraction",
    "peak_rss_MB": "MB",
    "compression_ratio": "x",
    "psnr_db": "dB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  A layer the workload does
#: not exercise reports 0.
PER_LAYER = {
    "core.roi.extract_ms": "ms",
    "core.prepare_ms": "ms",
    "store.engine.encode_ms": "ms",
    "store.engine.blocks_encoded": "count/op",
    "store.format.write_ms": "ms",
    "store.format.bytes_written": "B/op",
    "store.catalog.append_self_ms": "ms",
    "store.open_ms": "ms",
    "store.format.fetch_ms": "ms",
    "store.format.fetch_ranges": "count/op",
    "store.format.fetch_bytes": "B/op",
    "store.engine.decode_ms": "ms",
    "store.engine.blocks_decoded": "count/op",
    "array.cache_ms": "ms",
    "array.cache.hit_ratio": "fraction",
    "array.cache.evictions_per_read": "count/op",
    "array.self_ms": "ms",
    "tier.local_ms": "ms",
    "tier.daemon_ms": "ms",
    "tier.router_ms": "ms",
    "tier.gateway_ms": "ms",
    "serve.hop_ms": "ms",
    "shard.hop_ms": "ms",
    "gateway.hop_ms": "ms",
    "serve.cache_hit_ratio": "fraction",
    "serve.blocks_decoded": "count/op",
    "serve.result_bytes_per_read": "B/op",
    "shard.pool_waits": "count/op",
    "shard.failovers": "count/op",
    "gateway.responses_5xx": "count/op",
    "obs.trace_overhead": "fraction",
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", tamper=None):
    """Run one workload in a scratch directory that is removed afterwards."""
    import wl_analysis
    import wl_insitu
    import wl_serve

    module = {"insitu_write": wl_insitu, "analysis_local": wl_analysis,
              "serve_warm": wl_serve}[workload]
    workdir = harness.OUT / f"work-{harness.run_stamp(workload, seed, int(trace))}"
    workdir.mkdir(parents=True)
    try:
        return module.run(seed, seconds, trace, workdir, size=size, tamper=tamper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(result, trace: bool) -> dict:
    """The final stdout object; every metric of the selected table is present."""
    if trace:
        table = PER_LAYER
        values = {name: result.metrics.get(name, 0.0) for name in table}
    else:
        table = END_TO_END
        values = dict(result.metrics)
        values["success_rate"] = (
            (result.attempted - result.failed) / result.attempted if result.attempted else 0.0)
    metrics = {}
    for name, unit in table.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": result.correct and result.attempted > 0,
            "attempted": int(result.attempted), "failed": int(result.failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not harness.program_present():
        print(f"error: the program under test is missing ({harness.SRC / 'repro'})",
              file=sys.stderr)
        return 2
    harness.import_program()

    # SIGTERM unwinds like ctrl-c, so every spawned server is reaped.
    def _terminate(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, _terminate)
    started = time.perf_counter()
    cpu_before = harness.host_cpu_seconds()
    trace = bool(args.trace)
    stamp = harness.run_stamp(args.workload, args.seed, args.trace)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, trace)
        line = result_line(result, trace)
    except Exception:
        traceback.print_exc()
        print(f"error: {args.workload} run did not complete", file=sys.stderr)
        return 2

    import spans

    recorder = result.record.pop("spans", None)
    if recorder is not None:
        harness.OUT.mkdir(parents=True, exist_ok=True)
        recorder.write(harness.OUT / f"{stamp}-spans.json")
    rows = result.record.pop("breakdown_rows", None)
    if rows is not None:
        print(spans.breakdown_table(args.workload, rows, result.metrics.get("obs.trace_overhead")))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": harness.environment(),
        "wall_s": time.perf_counter() - started,
        "host_cpu_s": {k: v - cpu_before.get(k, 0.0)
                       for k, v in harness.host_cpu_seconds().items()},
        "result": line, "mismatches": result.mismatches, "errors": result.errors,
        **result.record,
    }
    path = harness.write_record(stamp, record)
    for text in result.report:
        print(text)
    for text in result.errors:
        print(f"failed op: {text}", file=sys.stderr)
    for text in result.mismatches:
        print(f"CHECK FAILED: {text}", file=sys.stderr)
    for name, m in line["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"record: {path.relative_to(harness.ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
