"""``serve_warm``: warm ROI reads through the HTTP gateway of a sharded cluster.

Three ``repro serve`` shard daemons, a ``repro shard serve`` router and a
``repro gateway --router`` run as separate processes (see :mod:`cluster`).
Two ``HTTPStore`` clients, one thread each, read seeded ROI cubes of
16^3 / 32^3 / 64^3 cells (32 KiB to 2 MiB, in a 1:2:1 mix) from 8 entries of
64^3 at unit 16.
The decoded set (8 x 64 blocks, 16 MiB) fits every daemon's default cache and
a warm-up pass decodes it before timing, so no decode runs in the window and
hop costs set the latency: per-request costs (HTTP parse, framing, pool
lease, relay) set the median, per-byte costs (checksums on each hop, copies)
set p90 and MB/s.  A guard fails the run if the daemons decode anything or
hit their cache less than 99% of the time inside the window.
"""

from __future__ import annotations

import shutil
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import numpy as np

from cluster import Cluster
from harness import (
    ABBA,
    SLICES,
    WorkloadResult,
    bits_equal,
    latency_by,
    latency_ms,
    psnr_db,
    slice_summary,
    steal_seconds,
    timed_setups,
)
from spans import SpanRecorder, median_ms

SIZES = {
    "full": {"shape": (64, 64, 64), "entries": 8, "roi_edges": (16, 32, 64, 32), "clients": 2},
    "tiny": {"shape": (32, 32, 32), "entries": 3, "roi_edges": (8, 16, 32, 16), "clients": 2},
}
SHARDS = ("s0", "s1", "s2")
FIELD = "density"
UNIT_SIZE = 16
ABS_EB = 0.1  # absolute, for the reason given in wl_analysis
N_OPS = 2048  # per client, generated up front and cycled
MIN_HIT_RATIO = 0.99


class _State:
    def __init__(self, root: Path, source, fields: List[np.ndarray], cluster: Cluster) -> None:
        self.root = root
        self.source = source
        self.fields = fields
        self.cluster = cluster


def _build(root: Path, seed: int, size: Dict) -> _State:
    from repro.amr.simulation import CollapsingDensitySimulation
    from repro.api.error_bound import ErrorBound
    from repro.core.sz3mr import SZ3MRCompressor
    from repro.gateway import open_http
    from repro.shard import ShardMap, ShardSpec, split_store
    from repro.store import Store

    # One independent realisation per entry: the peak of a log-normal field
    # sets its relative error bound, and averaging several keeps that from
    # moving the quality metrics from seed to seed.
    rng = np.random.default_rng([seed, 31])
    fields = [
        CollapsingDensitySimulation(shape=size["shape"], seed=int(rng.integers(2**31))).advance()
        for _ in range(size["entries"])
    ]
    root.mkdir(parents=True, exist_ok=True)
    source = Store(root / "source", SZ3MRCompressor(unit_size=UNIT_SIZE))
    for k, data in enumerate(fields):
        source.append(FIELD, k + 1, data, ErrorBound.abs(ABS_EB))
    placement = ShardMap([ShardSpec(n, "0:0", store=str(root / n)) for n in SHARDS])
    stores = {n: Store(root / n, SZ3MRCompressor(unit_size=UNIT_SIZE)) for n in SHARDS}
    split_store(source, placement, stores=stores)
    cluster = Cluster({n: root / n for n in SHARDS}, root).start()
    try:
        client = open_http(cluster.gateway.address)
        try:
            for k in range(len(fields)):
                client[FIELD, k + 1][...]  # warm-up: decode every block once
        finally:
            client.close()
    except BaseException:
        cluster.fail()
        raise
    return _State(root, source, fields, cluster)


def _teardown(state: _State) -> None:
    leftover = state.cluster.stop()
    shutil.rmtree(state.root, ignore_errors=True)
    if leftover:
        raise RuntimeError(f"listeners left behind: {', '.join(leftover)}")


def _operations(seed: int, client: int, size: Dict) -> list:
    # ROI sizes take turns (16, 32, 64, 32): each class has a fixed share of
    # the ops, the median falls inside the 32^3 class and p90 inside the
    # 64^3 class, so neither sits on a boundary between classes.
    rng = np.random.default_rng([seed, 37, client])
    edges = size["roi_edges"]
    ops = []
    for i in range(N_OPS):
        edge = int(edges[(i + client) % len(edges)])
        step = int(rng.integers(size["entries"])) + 1
        origin = [int(rng.integers(0, d - edge + 1)) for d in size["shape"]]
        ops.append((step, tuple(slice(o, o + edge) for o in origin)))
    return ops


def _references(state: _State, result: WorkloadResult) -> Dict[int, np.ndarray]:
    """Each entry decoded once with the cache off, plus quality numbers."""
    from repro.store.format import ContainerReader

    refs = {}
    raw = payload = 0
    psnrs = []
    for k, data in enumerate(state.fields):
        entry = state.source.entry(FIELD, k + 1)
        reader = ContainerReader(state.source.root / entry.path)
        ref = reader.as_array(0, cache=None)[...]
        ref.flags.writeable = False
        refs[k + 1] = ref
        err = float(np.max(np.abs(ref - data)))
        if not err <= entry.error_bound:
            result.mismatch(f"{FIELD}/{k + 1}: max error {err:.6g} > bound {entry.error_bound:.6g}")
        raw += int(data.nbytes)
        payload += int(reader.index.nbytes_payloads)
        reader.close()
        psnrs.append(psnr_db(data, ref))
    result.record["quality"] = {"compression_ratio": raw / max(1, payload),
                                "psnr_db": float(np.mean(psnrs))}
    return refs


def _client_loop(views, ops, refs, start: threading.Event, stop_at: List[float],
                 rows: list, result: WorkloadResult, lock: threading.Lock,
                 recorder: Optional[SpanRecorder], tag, tamper) -> None:
    start.wait()
    deadline = stop_at[0]
    i = 0
    while time.perf_counter() < deadline:
        step, sel = ops[i % len(ops)]
        error = out = None
        t0 = time.perf_counter()
        try:
            if recorder is None:
                out = views[step][sel]
            else:
                with recorder.op("tier.gateway", (tag, i)):
                    out = views[step][sel]
        except Exception as exc:  # counted as a failed operation, loop goes on
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        row = {"seconds": t1 - t0, "end": t1, "error": error, "bytes": 0,
               "steal": steal_seconds()}
        if error is None:
            row["bytes"] = int(out.nbytes)
            if tamper is not None:
                out = tamper(out)
            if not bits_equal(out, refs[step][sel]):
                with lock:
                    result.mismatch(f"client {tag} op {i} ({FIELD}/{step} {sel}) differs "
                                    "from the reference reconstruction")
        else:
            with lock:
                result.error(f"client {tag} op {i} failed: {error}")
        rows.append(row)
        i += 1


def _gateway_window(state: _State, ops_per_client, refs, seconds: float,
                    result: WorkloadResult, recorder=None, tamper=None, window=0):
    """All clients read through the gateway until the shared deadline."""
    from repro.gateway import open_http

    clients = [open_http(state.cluster.gateway.address) for _ in ops_per_client]
    try:
        views = [{k: c[FIELD, k] for k in refs} for c in clients]
        start = threading.Event()
        stop_at = [0.0]
        lock = threading.Lock()
        rows: List[list] = [[] for _ in clients]
        threads = [
            threading.Thread(target=_client_loop, name=f"client-{c}", args=(
                views[c], ops_per_client[c], refs, start, stop_at, rows[c], result,
                lock, recorder, (window, c), tamper))
            for c in range(len(clients))
        ]
        for t in threads:
            t.start()
        t_start = time.perf_counter()
        stop_at[0] = t_start + seconds
        start.set()
        for t in threads:
            t.join()
    finally:
        for c in clients:
            c.close()
    # Slices of the wall-clock window by completion time; the last one also
    # holds the operations that finish after the deadline.
    flat = [r for rs in rows for r in rs]
    length = seconds / SLICES
    wall = max((r["end"] for r in flat), default=t_start + seconds) - t_start
    for r in flat:
        r["slice"] = min(SLICES - 1, int((r["end"] - t_start) / length))
    durations = {j: length for j in range(SLICES - 1)}
    durations[SLICES - 1] = max(wall - (SLICES - 1) * length, 1e-9)
    return flat, durations


def _counters(state: _State) -> Dict[str, float]:
    """Summed daemon, router and gateway counters from their stats surfaces."""
    from repro.gateway import open_http
    from repro.serve import connect

    out = {"hits": 0, "misses": 0, "blocks_decoded": 0, "reads": 0, "result_bytes": 0}
    for proc in state.cluster.shards.values():
        with connect(proc.address) as remote:
            stats = remote.stats()
        out["hits"] += stats["cache"]["hits"]
        out["misses"] += stats["cache"]["misses"]
        out["blocks_decoded"] += stats["blocks_decoded"]
        out["reads"] += stats["reads"]
        out["result_bytes"] += stats["result_bytes_sent"]
    with open_http(state.cluster.gateway.address) as gateway:
        stats = gateway.stats()
    router = stats["router"]
    out["pool_waits"] = sum(p["waits"] for p in router["pools"].values())
    out["failovers"] = router["failovers"]
    out["reads_forwarded"] = router["reads_forwarded"]
    out["gateway_requests"] = stats["gateway"]["requests"]
    out["responses_5xx"] = 0
    for family in stats.get("metrics", []):
        if family.get("name") == "repro_gateway_requests_total":
            for sample in family.get("samples", []):
                if str(sample.get("labels", {}).get("code", "")).startswith("5"):
                    out["responses_5xx"] += sample.get("value", 0)
    return out


def _guard(before: Dict, after: Dict, result: WorkloadResult) -> Dict[str, float]:
    """Warm is warm: no decode and a ≥ 99% daemon cache hit ratio in the window."""
    decoded = after["blocks_decoded"] - before["blocks_decoded"]
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    ratio = hits / lookups if lookups else 1.0
    if decoded:
        result.mismatch(f"daemons decoded {decoded} blocks inside the warm window")
    if ratio < MIN_HIT_RATIO:
        result.mismatch(f"daemon cache hit ratio {ratio:.4f} < {MIN_HIT_RATIO} in the warm window")
    return {"blocks_decoded": decoded, "cache_hit_ratio": ratio}


def _tier_sweep(state: _State, ops, refs, seconds: float, recorder: SpanRecorder,
                result: WorkloadResult, tamper) -> int:
    """One client sends each operation to every tier in turn."""
    from repro.gateway import open_http
    from repro.serve import connect
    from repro.store import Store

    owner = {k: state.cluster.shard_map.owner_name(FIELD, k) for k in refs}
    local = {n: Store(state.root / n) for n in SHARDS}
    daemons = {n: connect(p.address) for n, p in state.cluster.shards.items()}
    router = connect(state.cluster.router.address)
    gateway = open_http(state.cluster.gateway.address)
    try:
        tiers = [
            ("tier.local", {k: local[owner[k]][FIELD, k] for k in refs}),
            ("tier.daemon", {k: daemons[owner[k]][FIELD, k] for k in refs}),
            ("tier.router", {k: router[FIELD, k] for k in refs}),
            ("tier.gateway", {k: gateway[FIELD, k] for k in refs}),
        ]
        for view in tiers[0][1].values():
            view[...]  # warm the in-process cache, as the daemons' already are
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            step, sel = ops[i % len(ops)]
            for name, views in tiers:
                try:
                    with recorder.op(name, ("sweep", i)):
                        out = views[step][sel]
                except Exception as exc:  # reported, never retried
                    result.mismatch(f"{name} op {i} failed: {type(exc).__name__}: {exc}")
                    continue
                if tamper is not None:
                    out = tamper(out)
                if not bits_equal(out, refs[step][sel]):
                    result.mismatch(f"{name} op {i} ({FIELD}/{step} {sel}) differs "
                                    "from the reference reconstruction")
            i += 1
        return i
    finally:
        gateway.close()
        router.close()
        for d in daemons.values():
            d.close()


def run(seed: int, seconds: float, trace: bool, workdir: Path, size: str = "full",
        tamper=None) -> WorkloadResult:
    """One ``serve_warm`` run; ``tamper`` (self-test only) alters each read
    result before it is checked, to prove the checker notices."""
    sz = SIZES[size]
    result = WorkloadResult()
    state = None
    try:
        setup_s, samples, state = timed_setups(
            lambda i: _build(workdir / f"setup{i}", seed, sz), _teardown)
        result.record["setup_samples_s"] = samples
        result.record["settings"] = {
            **{k: list(v) if isinstance(v, tuple) else v for k, v in sz.items()},
            "shards": list(SHARDS), "unit_size": UNIT_SIZE, "error_bound": f"abs {ABS_EB}",
            "codec": state.source.compressor.describe(),
            "banners": [p.lines[0].strip() for p in state.cluster.processes if p.lines],
            "placement": {str(k): state.cluster.shard_map.owner_name(FIELD, k + 1)
                          for k in range(sz["entries"])},
        }
        refs = _references(state, result)
        ops = [_operations(seed, c, sz) for c in range(sz["clients"])]
        before = _counters(state)
        if not trace:
            rows, durations = _gateway_window(state, ops, refs, seconds, result, tamper=tamper)
            after = _counters(state)
            guard = _guard(before, after, result)
            result.metrics.update(slice_summary(rows, durations, result.record))
            result.record["latency_by_bytes"] = latency_by(rows, "bytes")
            result.metrics["compression_ratio"] = result.record["quality"]["compression_ratio"]
            result.metrics["psnr_db"] = result.record["quality"]["psnr_db"]
            result.metrics["setup_s"] = setup_s
            result.metrics["peak_rss_MB"] = state.cluster.peak_rss_mb()
            all_rows = rows
        else:
            # Untraced (A) and traced (B) gateway windows in the order A B B A,
            # so drift over the run cancels, then the tier sweep.
            recorder = SpanRecorder()
            rows_a, rows_b = [], []
            for k, traced in enumerate(ABBA):
                rows, _ = _gateway_window(state, ops, refs, seconds / 6, result,
                                          recorder if traced else None, tamper, window=k)
                (rows_b if traced else rows_a).extend(rows)
            sweeps = _tier_sweep(state, ops[0], refs, seconds / 3, recorder, result, tamper)
            after = _counters(state)
            guard = _guard(before, after, result)
            result.record["spans"] = recorder
            result.metrics.update(_layer_metrics(recorder, rows_a, rows_b, before, after, guard))
            result.record["breakdown_rows"] = _breakdown_rows(result.metrics)
            all_rows = rows_a + rows_b
            result.record["tier_sweep_ops"] = sweeps
        result.record["warm_guard"] = guard
        result.report.append(
            f"serve_warm: daemons decoded {guard['blocks_decoded']} blocks in the window, "
            f"cache hit ratio {guard['cache_hit_ratio']:.4f}")
        result.attempted = len(all_rows)
        result.failed = sum(r["error"] is not None for r in all_rows)
    finally:
        if state is not None:
            leftover = state.cluster.stop()
            if leftover:
                result.mismatch(f"listeners left behind: {', '.join(leftover)}")
            if not result.correct or sys.exc_info()[0] is not None:
                print(state.cluster.outputs(), file=sys.stderr)
    return result


def _layer_metrics(recorder, rows_a, rows_b, before, after, guard) -> Dict[str, float]:
    per_op = recorder.per_op()
    sweep = {op: layers for op, layers in per_op.items()
             if isinstance(op, tuple) and op[0] == "sweep"}

    def hop(upper: str, lower: str) -> float:
        diffs = [l[upper][0] - l[lower][0] for l in sweep.values() if upper in l and lower in l]
        return median(diffs) * 1e3 if diffs else 0.0

    def delta(key: str) -> float:
        return after[key] - before[key]

    p50_a = latency_ms([r["seconds"] for r in rows_a if r["error"] is None])[0]
    p50_b = latency_ms([r["seconds"] for r in rows_b if r["error"] is None])[0]
    reads = max(1.0, delta("reads"))
    return {
        "tier.local_ms": median_ms(sweep, "tier.local"),
        "tier.daemon_ms": median_ms(sweep, "tier.daemon"),
        "tier.router_ms": median_ms(sweep, "tier.router"),
        "tier.gateway_ms": median_ms(sweep, "tier.gateway"),
        "serve.hop_ms": hop("tier.daemon", "tier.local"),
        "shard.hop_ms": hop("tier.router", "tier.daemon"),
        "gateway.hop_ms": hop("tier.gateway", "tier.router"),
        "serve.cache_hit_ratio": guard["cache_hit_ratio"],
        "serve.blocks_decoded": guard["blocks_decoded"] / reads,
        "serve.result_bytes_per_read": delta("result_bytes") / reads,
        "shard.pool_waits": delta("pool_waits") / max(1.0, delta("reads_forwarded")),
        "shard.failovers": delta("failovers") / max(1.0, delta("reads_forwarded")),
        "gateway.responses_5xx": delta("responses_5xx") / max(1.0, delta("gateway_requests")),
        "obs.trace_overhead": p50_b / p50_a - 1.0 if p50_a else 0.0,
    }


def _breakdown_rows(metrics: Dict[str, float]) -> List[tuple]:
    gateway = metrics["tier.gateway_ms"] or 1.0
    return [(name, metrics[name], metrics[name] / gateway) for name in (
        "tier.local_ms", "serve.hop_ms", "shard.hop_ms", "gateway.hop_ms")]
