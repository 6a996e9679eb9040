"""``analysis_local``: post-hoc analysis reads through in-process store views.

One process, one client, no socket.  A single store (so one shared
``BlockCache``) holds T timesteps of a Nyx-like AMR field twice: at unit 16
(the paper's setting) and at unit 8 (fine patches).  Every operation goes
through ``store[field, step][sel]``: 60% ROI cubes around refined cells, 30%
full z-planes of the finest level from a slice viewer stepping through z,
and 10% whole coarse-level reads.  The decoded working set (about 73 MiB in
7,800 blocks at full size) exceeds both default cache bounds (64 MiB and 512
blocks), so reads are decode-bound and the cache policy decides how often a
revisited plane hits.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from harness import (
    ABBA,
    SLICES,
    WorkloadResult,
    bits_equal,
    latency_by,
    latency_ms,
    peak_rss_mb,
    psnr_db,
    slice_summary,
    steal_seconds,
    timed_setups,
)
from spans import Instrumented, SpanRecorder, breakdown_rows, median_ms

SIZES = {
    "full": {"shape": (96, 96, 96), "steps": 12, "runs": 6, "roi_edge": (16, 48)},
    "tiny": {"shape": (32, 32, 32), "steps": 2, "runs": 1, "roi_edge": (4, 16)},
}
FIELDS = {"rho_u16": 16, "rho_u8": 8}
#: An absolute bound: the value range of one log-normal realisation varies
#: tenfold between seeds, and a relative bound would carry that into every
#: decode cost.
ABS_EB = 0.1
#: 60% ROI cubes, 30% finest-level z-planes, 10% whole coarse levels, in a
#: fixed order so the top decile of latencies is the same class every run.
PATTERN = ("roi", "plane", "roi", "roi", "plane", "roi", "coarse", "roi", "plane", "roi")
N_OPS = 4096  # generated up front and cycled


def _build(root: Path, seed: int, size: Dict):
    from repro.amr.simulation import CollapsingDensitySimulation
    from repro.api.error_bound import ErrorBound
    from repro.core.sz3mr import SZ3MRCompressor
    from repro.store import Store

    # T timesteps drawn as consecutive steps of a few independent runs: where
    # one realisation refines, and how far its peak reaches (which sets its
    # PSNR), varies a lot, and averaging runs keeps that from moving the
    # metrics from seed to seed.
    rng = np.random.default_rng([seed, 23])
    snapshots = []
    for run in range(size["runs"]):
        sim = CollapsingDensitySimulation(shape=size["shape"], seed=int(rng.integers(2**31)))
        for snap in sim.run(size["steps"] // size["runs"]):
            snapshots.append(dataclasses.replace(snap, step=len(snapshots) + 1))
    store = Store(root, SZ3MRCompressor(unit_size=16))
    for snap in snapshots:
        for field, unit in FIELDS.items():
            store.append(field, snap.step, snap.data, ErrorBound.abs(ABS_EB), unit_size=unit)
    return store, snapshots


def _operations(seed: int, size: Dict, owned: Dict[int, np.ndarray]) -> list:
    """The seeded operation list.

    Kinds follow :data:`PATTERN` and each kind alternates between the two
    unit sizes, so every run has the same class mix; the seed draws steps,
    ROI edges and positions.  An ROI is centred on a finest-level cell the
    hierarchy owns (``owned[step]`` holds their flat indices), as an analyst
    zooms into refined features: a cube in unrefined space would decode
    nothing, and how many of those a seed drew would move the median.
    Planes come from one slice viewer per unit size that steps through z one
    plane at a time (then jumps to another timestep), which is what makes
    plane revisits a question of cache policy.
    """
    rng = np.random.default_rng([seed, 29])
    n = size["shape"]
    lo, hi = size["roi_edge"]
    steps = sorted(owned)
    fields = list(FIELDS)
    counts = {kind: 0 for kind in PATTERN}
    viewers = {f: [steps[int(rng.integers(len(steps)))], int(rng.integers(n[2]))]
               for f in fields}
    ops = []
    for i in range(N_OPS):
        kind = PATTERN[i % len(PATTERN)]
        field = fields[counts[kind] % len(fields)]
        counts[kind] += 1
        step = steps[int(rng.integers(len(steps)))]
        if kind == "roi":
            edge = int(rng.integers(lo, hi + 1))
            cells = owned[step]
            centre = np.unravel_index(int(cells[int(rng.integers(len(cells)))]), n)
            origin = [min(max(int(c) - edge // 2, 0), d - edge) for c, d in zip(centre, n)]
            ops.append((kind, field, step, 0, tuple(slice(o, o + edge) for o in origin)))
        elif kind == "plane":
            viewer = viewers[field]
            ops.append((kind, field, viewer[0], 0, (slice(None), slice(None), viewer[1])))
            viewer[1] += 1
            if viewer[1] == n[2]:
                viewer[:] = [step, 0]
        else:
            ops.append((kind, field, step, 1, Ellipsis))
    return ops


def _references(store, snapshots, result: WorkloadResult) -> Dict[tuple, np.ndarray]:
    """Whole levels decoded once with the cache off, plus quality numbers.

    Also holds every level to its error bound on the cells it owns.
    """
    from repro.store.format import ContainerReader

    refs: Dict[tuple, np.ndarray] = {}
    raw = payload = 0
    psnrs = []
    for snap in snapshots:
        hierarchy = snap.data
        for field in FIELDS:
            entry = store.entry(field, snap.step)
            reader = ContainerReader(store.root / entry.path)
            levels = []
            for lvl in hierarchy.levels:
                level = reader.as_array(lvl.level, cache=None)[...]
                level.flags.writeable = False
                refs[(field, snap.step, lvl.level)] = level
                levels.append(level)
                err = float(np.max(np.abs(level[lvl.mask] - lvl.data[lvl.mask]), initial=0.0))
                if not err <= entry.error_bound:
                    result.mismatch(f"{field}/{snap.step} level {lvl.level}: max error "
                                    f"{err:.6g} > bound {entry.error_bound:.6g}")
            raw += int(hierarchy.total_stored_points()) * 8
            payload += int(reader.index.nbytes_payloads)
            reader.close()
            psnrs.append(psnr_db(hierarchy.to_uniform(),
                                 hierarchy.copy_with_data(levels).to_uniform()))
    result.record["quality"] = {"compression_ratio": raw / max(1, payload),
                                "psnr_db": float(np.mean(psnrs))}
    return refs


def _window(store, ops: list, refs, seconds: float, result: WorkloadResult,
            recorder: Optional[SpanRecorder] = None, tamper=None, tag=None):
    """Closed loop for ``seconds`` of operation time, cut into equal slices.

    Each result is checked against the reference right after its operation,
    outside the operation's timing.
    """
    rows = []
    busy = 0.0
    i = 0
    while busy < seconds:
        this_slice = min(SLICES - 1, int(busy / seconds * SLICES))
        kind, field, step, level, sel = ops[i % len(ops)]
        error = out = view = None
        start = time.perf_counter()
        try:
            if recorder is None:
                view = store[field, step]
                out = (view.level(level) if level else view)[sel]
            else:
                with recorder.op("op", (tag, i)):
                    view = store[field, step]
                    out = (view.level(level) if level else view)[sel]
        except Exception as exc:  # counted as a failed operation, loop goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        busy += elapsed
        row = {"op": i, "class": f"{kind}/{field}", "seconds": elapsed, "error": error,
               "bytes": 0, "slice": this_slice, "steal": steal_seconds()}
        if error is None:
            row["bytes"] = int(out.nbytes)
            if tamper is not None:
                out = tamper(out)
            if not bits_equal(out, refs[(field, step, level)][sel]):
                result.mismatch(f"op {i} ({kind} {field}/{step} level {level} {sel}) "
                                "differs from the reference reconstruction")
            if recorder is not None:
                row["reader_stats"] = dict(view.source.reader.stats)
        else:
            result.error(f"op {i} failed: {error}")
        rows.append(row)
        i += 1
    return rows


def _cache_delta(pairs: List[tuple], reads: int) -> Dict[str, float]:
    """Hit ratio and evictions per read over ``(before, after)`` stats pairs."""
    def total(key: str) -> int:
        return sum(after[key] - before[key] for before, after in pairs)

    hits = total("hits")
    return {
        "hit_ratio": hits / max(1, hits + total("misses")),
        "evictions_per_read": total("evictions") / max(1, reads),
        "max_blocks": pairs[-1][1]["max_blocks"],
        "max_bytes": pairs[-1][1]["max_bytes"],
    }


def _instrument_targets():
    from repro.array import BlockCache, CompressedArray
    from repro.store import Store
    from repro.store.engine import CodecEngine
    from repro.store.format import ContainerReader

    return [
        (Store, "__getitem__", "store.open", "span", None),
        (CompressedArray, "__getitem__", "array.read", "span", None),
        (BlockCache, "get", "array.cache", "leaf", None),
        (BlockCache, "put", "array.cache", "leaf", None),
        (ContainerReader, "fetch_entries", "store.format.fetch", "span", None),
        (CodecEngine, "decode_blocks", "store.engine.decode", "span",
         lambda out, args: len(out)),
        (CodecEngine, "decode_blocks_into", "store.engine.decode", "span",
         lambda out, args: len(args[1])),
    ]


def _working_set(store) -> Dict[str, int]:
    blocks = nbytes = 0
    for entry in store.entries():
        reader = store.get(entry.field, entry.step)
        for info in reader.levels:
            blocks += info.n_blocks
            nbytes += info.n_blocks * info.unit_size ** len(info.level_shape) * 8
        reader.close()
    return {"blocks": blocks, "decoded_bytes": nbytes}


def run(seed: int, seconds: float, trace: bool, workdir: Path, size: str = "full",
        tamper=None) -> WorkloadResult:
    """One ``analysis_local`` run; ``tamper`` (self-test only) alters each
    read result before it is checked, to prove the checker notices."""
    from repro.array import BlockCache
    from repro.store import Store

    sz = SIZES[size]
    result = WorkloadResult()

    def teardown(state) -> None:
        shutil.rmtree(state[0].root, ignore_errors=True)

    setup_s, samples, (store, snapshots) = timed_setups(
        lambda i: _build(workdir / f"setup{i}", seed, sz), teardown)
    result.record["setup_samples_s"] = samples
    refs = _references(store, snapshots, result)
    owned = {s.step: np.flatnonzero(s.data.levels[0].mask) for s in snapshots}
    del snapshots
    ops = _operations(seed, sz, owned)
    defaults = BlockCache().stats
    result.record["settings"] = {
        **{k: list(v) if isinstance(v, tuple) else v for k, v in sz.items()},
        "fields": FIELDS, "error_bound": f"abs {ABS_EB}", "pattern": list(PATTERN),
        "codec": store.compressor.describe(), "engine": store.engine.describe(),
        "cache_bounds": {"max_blocks": defaults["max_blocks"],
                         "max_bytes": defaults["max_bytes"]},
        "working_set": _working_set(store),
    }

    if not trace:
        before = store.block_cache.stats
        rows = _window(store, ops, refs, seconds, result, tamper=tamper)
        cache = _cache_delta([(before, store.block_cache.stats)], len(rows))
        result.metrics.update(slice_summary(rows, record=result.record))
        result.record["latency_by_class"] = latency_by(rows, "class")
        result.metrics["compression_ratio"] = result.record["quality"]["compression_ratio"]
        result.metrics["psnr_db"] = result.record["quality"]["psnr_db"]
        result.metrics["setup_s"] = setup_s
        result.metrics["peak_rss_MB"] = peak_rss_mb()
        all_rows = rows
    else:
        # Untraced (A) and traced (B) windows in the order A B B A, each
        # replaying the same operations from a cold cache (a fresh Store
        # object over the same directory): drift over the run cancels and
        # the two latencies compare like for like.
        recorder = SpanRecorder()
        inst = Instrumented(recorder, _instrument_targets())
        rows_a, rows_b, pairs = [], [], []
        for k, traced in enumerate(ABBA):
            fresh = Store(store.root)
            if traced:
                before = fresh.block_cache.stats
                with inst:
                    rows_b += _window(fresh, ops, refs, seconds / len(ABBA), result,
                                      recorder, tamper, tag=k)
                pairs.append((before, fresh.block_cache.stats))
            else:
                rows_a += _window(fresh, ops, refs, seconds / len(ABBA), result, tamper=tamper)
        cache = _cache_delta(pairs, len(rows_b))
        result.record["spans"] = recorder
        result.metrics.update(_layer_metrics(recorder, inst, rows_a, rows_b, cache, result))
        all_rows = rows_a + rows_b
    result.record["cache"] = cache
    result.report.append(
        f"analysis_local: cache hit ratio {cache['hit_ratio']:.3f}, "
        f"{cache['evictions_per_read']:.2f} evictions per read "
        f"(bounds {cache['max_blocks']} blocks / {cache['max_bytes'] / 2**20:g} MiB; "
        f"working set {result.record['settings']['working_set']['blocks']} blocks / "
        f"{result.record['settings']['working_set']['decoded_bytes'] / 2**20:.1f} MiB)")
    result.attempted = len(all_rows)
    result.failed = sum(r["error"] is not None for r in all_rows)
    return result


def _layer_metrics(recorder, inst, rows_a, rows_b, cache, result) -> Dict[str, float]:
    per_op = recorder.per_op()
    ok_b = [r for r in rows_b if r["error"] is None]
    n = max(1, len(ok_b))
    p50_a = latency_ms([r["seconds"] for r in rows_a if r["error"] is None])[0]
    p50_b = latency_ms([r["seconds"] for r in ok_b])[0]
    metrics = {
        "store.open_ms": median_ms(per_op, "store.open"),
        "store.format.fetch_ms": median_ms(per_op, "store.format.fetch"),
        "store.format.fetch_ranges": sum(r["reader_stats"]["fetch_ranges"] for r in ok_b) / n,
        "store.format.fetch_bytes": sum(r["reader_stats"]["fetch_bytes"] for r in ok_b) / n,
        "store.engine.decode_ms": median_ms(per_op, "store.engine.decode"),
        "store.engine.blocks_decoded": inst.counts.get("store.engine.decode", 0) / n,
        "array.cache_ms": median_ms(per_op, "array.cache"),
        "array.cache.hit_ratio": cache["hit_ratio"],
        "array.cache.evictions_per_read": cache["evictions_per_read"],
        "array.self_ms": median_ms(per_op, "array.read", self_time=True),
        "obs.trace_overhead": p50_b / p50_a - 1.0 if p50_a else 0.0,
    }
    result.record["breakdown_rows"] = breakdown_rows(per_op, [
        ("store.open_ms", "store.open"),
        ("store.format.fetch_ms", "store.format.fetch"),
        ("store.engine.decode_ms", "store.engine.decode"),
        ("array.cache_ms", "array.cache"),
        ("array.self_ms", "array.read"),
        ("analysis.client_self_ms", "op"),
    ])
    return metrics
