"""``insitu_write``: the paper's in-situ output path, one process, one client.

Each operation is one ``InSituPipeline.process_snapshot`` call writing a new
timestep into a block store: ROI extraction (uniform input) -> unit-block
partition -> SZ3 encode -> container write -> manifest rewrite.  No read
layer runs inside the timed loop.

Snapshots alternate between a uniform WarpX-like field and a native-AMR
Nyx-like field.  Their shapes (64^3 uniform, 128x64x64 AMR) are chosen so
both kinds cost about the same per write: equal halves of two well-separated
latency modes would put the median in the gap between them, where it jumps
from run to run.  They are smaller than the paper-like 96^3 so a run holds
about 100 writes, enough for p90, and so the arrays stay closer to the CPU
caches, where a neighbour's memory traffic on a shared host moves them less.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import time
from pathlib import Path
from statistics import median
from typing import Dict, Optional

import numpy as np

from harness import (
    ABBA,
    WorkloadResult,
    latency_by,
    latency_ms,
    payload_digest,
    peak_rss_mb,
    psnr_db,
    slice_summary,
    steal_seconds,
    timed_setups,
)
from spans import Instrumented, SpanRecorder, breakdown_rows, median_ms

SIZES = {
    "full": {"uniform_shape": (64, 64, 64), "amr_shape": (128, 64, 64), "pool_pairs": 4},
    "tiny": {"uniform_shape": (32, 32, 32), "amr_shape": (32, 32, 32), "pool_pairs": 1},
}
UNIT_SIZE = 16
REL_EB = 1e-3
ROI_FRACTION = 0.5  # InSituPipeline defaults, restated for the checks
ROI_BLOCK = 8


def _make_pool(seed: int, size: Dict) -> list:
    from repro.amr.simulation import CollapsingDensitySimulation, TravelingPulseSimulation

    # The seed draws the random fields; the step schedule is fixed.  Each
    # Nyx-like snapshot is an independent realisation: the peak of one
    # log-normal field sets its relative error bound and so its cost, and
    # averaging several keeps that from moving the metrics from seed to seed.
    rng = np.random.default_rng([seed, 11])
    warpx = TravelingPulseSimulation(shape=size["uniform_shape"], seed=int(rng.integers(2**31)))
    pool = []
    for _ in range(size["pool_pairs"]):
        warpx.advance()
        warpx.advance()
        nyx = CollapsingDensitySimulation(shape=size["amr_shape"], seed=int(rng.integers(2**31)))
        nyx.advance()
        pool.append(warpx.snapshot())
        pool.append(nyx.snapshot())
    return pool


def _raw_bytes(snapshot) -> int:
    """Bytes the simulation would write uncompressed for this snapshot."""
    if snapshot.is_amr:
        return int(snapshot.data.total_stored_points()) * 8
    return int(np.asarray(snapshot.data).nbytes)


def _open_pipeline(root: Path):
    from repro.core.sz3mr import SZ3MRCompressor
    from repro.insitu import InSituPipeline
    from repro.store import Store

    store = Store(root, SZ3MRCompressor(unit_size=UNIT_SIZE))
    pipeline = InSituPipeline(
        SZ3MRCompressor(unit_size=UNIT_SIZE), store=store, compute_quality=False
    )
    return store, pipeline


def _window(pipeline, pool: list, seconds: float, recorder: Optional[SpanRecorder] = None,
            tag=None):
    """Closed loop over whole passes of the pool, at least ``seconds`` of
    operation time; returns per-op rows.

    Whole passes weigh every pool snapshot equally, so the latency
    distribution is the same multiset of per-snapshot costs in every run.
    Each pass is one slice of :func:`harness.slice_summary`.
    """
    from repro.api.error_bound import ErrorBound

    bound = ErrorBound.rel(REL_EB)
    rows = []
    busy = 0.0
    i = 0
    while busy < seconds or i % len(pool):
        slot = i % len(pool)
        snapshot = dataclasses.replace(pool[slot], step=i + 1)
        error = None
        start = time.perf_counter()
        try:
            if recorder is None:
                report = pipeline.process_snapshot(snapshot, bound)
            else:
                with recorder.op("op", (tag, i)):
                    report = pipeline.process_snapshot(snapshot, bound)
        except Exception as exc:  # counted as a failed operation, loop goes on
            report, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        busy += elapsed
        rows.append({"op": i, "slot": slot, "field": snapshot.field_name, "step": i + 1,
                     "amr": snapshot.is_amr,
                     "seconds": elapsed, "error": error, "report": report,
                     "bytes": _raw_bytes(snapshot), "slice": i // len(pool),
                     "steal": steal_seconds()})
        i += 1
    return rows


def _check(store, pool: list, rows: list, result: WorkloadResult,
           tamper=None) -> Dict[str, float]:
    """Untimed read-back: digests, per-level error bound, ratio and PSNR.

    Every write of one pool snapshot must carry the same payload bytes; the
    first write of each is decoded and held to the error bound on the cells
    its level owns.
    """
    from repro.core.roi import extract_roi

    digests: Dict[int, str] = {}
    per_container = []
    first_row: Dict[int, dict] = {}
    for row in rows:
        if row["error"] is not None:
            continue
        reader = store.get(row["field"], row["step"])
        digest = payload_digest(reader)
        reader.close()
        per_container.append({"field": row["field"], "step": row["step"],
                              "slot": row["slot"], "payload_blake2b": digest})
        if row["slot"] not in digests:
            digests[row["slot"]] = digest
            first_row[row["slot"]] = row
        elif digests[row["slot"]] != digest:
            result.mismatch(f"{row['field']}/{row['step']}: payload differs from "
                            f"the first write of pool snapshot {row['slot']}")
    raw_total = payload_total = 0
    psnrs = []
    for slot in sorted(first_row):
        row, snapshot = first_row[slot], pool[slot]
        hierarchy = (snapshot.data if snapshot.is_amr else extract_roi(
            np.asarray(snapshot.data, dtype=np.float64),
            roi_fraction=ROI_FRACTION, block_size=ROI_BLOCK).hierarchy)
        entry = store.entry(row["field"], row["step"])
        reader = store.get(row["field"], row["step"])
        recon_levels = []
        for lvl in hierarchy.levels:
            recon = reader.as_array(lvl.level)[...]
            if tamper is not None:
                recon = tamper(recon)
            recon_levels.append(recon)
            err = float(np.max(np.abs(recon[lvl.mask] - lvl.data[lvl.mask]), initial=0.0))
            if not err <= entry.error_bound:
                result.mismatch(f"{row['field']}/{row['step']} level {lvl.level}: "
                                f"max error {err:.6g} > bound {entry.error_bound:.6g}")
        payload_total += int(reader.index.nbytes_payloads)
        reader.close()
        raw_total += row["bytes"]
        reference = (hierarchy.to_uniform() if snapshot.is_amr
                     else np.asarray(snapshot.data, dtype=np.float64))
        psnrs.append(psnr_db(reference, hierarchy.copy_with_data(recon_levels).to_uniform()))
    pool_digest = hashlib.blake2b(
        "".join(digests[s] for s in sorted(digests)).encode(), digest_size=16).hexdigest()
    result.record.setdefault("containers", []).extend(per_container)
    result.record["pool_payload_digest"] = pool_digest
    if len(digests) != len(pool):
        result.mismatch(f"only {len(digests)} of {len(pool)} pool snapshots were written")
    return {
        "compression_ratio": raw_total / max(1, payload_total),
        "psnr_db": float(np.mean(psnrs)) if psnrs else float("nan"),
        "pool_digest": pool_digest,
    }


def _instrument_targets():
    import repro.store.catalog as catalog
    from repro.core.mr_compressor import MultiResolutionCompressor
    from repro.store import Store
    from repro.store.engine import CodecEngine

    return [
        (MultiResolutionCompressor, "prepare_unit_blocks", "core.prepare", "span", None),
        (CodecEngine, "encode_blocks", "store.engine.encode", "span",
         lambda out, args: len(out)),
        (catalog, "write_container", "store.format.write", "span",
         lambda out, args: int(out)),
        (Store, "append", "store.catalog.append", "span", None),
    ]


def run(seed: int, seconds: float, trace: bool, workdir: Path, size: str = "full",
        tamper=None) -> WorkloadResult:
    """One ``insitu_write`` run; ``tamper`` (self-test only) alters each
    read-back array before it is checked, to prove the checker notices."""
    sz = SIZES[size]
    result = WorkloadResult()

    def build(i: int):
        pool = _make_pool(seed, sz)
        store, pipeline = _open_pipeline(workdir / f"setup{i}")
        return pool, store, pipeline

    def teardown(state) -> None:
        shutil.rmtree(state[1].root, ignore_errors=True)

    setup_s, setup_samples, (pool, store, pipeline) = timed_setups(build, teardown)
    result.record["setup_samples_s"] = setup_samples
    result.record["settings"] = {
        **{k: list(v) if isinstance(v, tuple) else v for k, v in sz.items()},
        "pool": [f"{s.field_name}@{s.step}{' amr' if s.is_amr else ''}" for s in pool],
        "codec": pipeline.compressor.describe(), "unit_size": UNIT_SIZE,
        "error_bound": f"rel {REL_EB}", "roi_fraction": ROI_FRACTION,
        "roi_block": ROI_BLOCK, "engine": store.engine.describe(),
    }

    stores_rows = []
    if not trace:
        rows = _window(pipeline, pool, seconds)
        stores_rows.append((store, rows))
        result.metrics.update(slice_summary(rows, record=result.record))
        result.record["latency_by_kind"] = latency_by(rows, "field")
    else:
        # Untraced (A) and traced (B) windows in the order A B B A, each
        # replaying the same snapshot sequence into a fresh store: drift over
        # the run cancels and the two latencies compare like for like.
        recorder = SpanRecorder()
        inst = Instrumented(recorder, _instrument_targets())
        rows_a, rows_b = [], []
        for k, traced in enumerate(ABBA):
            st, pipe = (store, pipeline) if k == 0 else _open_pipeline(workdir / f"window{k}")
            if traced:
                with inst:
                    rows = _window(pipe, pool, seconds / len(ABBA), recorder, tag=k)
            else:
                rows = _window(pipe, pool, seconds / len(ABBA))
            stores_rows.append((st, rows))
            (rows_b if traced else rows_a).extend(rows)
        result.record["spans"] = recorder
        result.metrics.update(_layer_metrics(recorder, inst, rows_a, rows_b, result))

    all_rows = [r for _, rows in stores_rows for r in rows]
    result.attempted = len(all_rows)
    result.failed = sum(r["error"] is not None for r in all_rows)
    for r in all_rows:
        if r["error"] is not None:
            result.error(f"op {r['op']} failed: {r['error']}")
    qualities = [_check(st, pool, rows, result, tamper) for st, rows in stores_rows]
    quality = qualities[0]
    if len({q["pool_digest"] for q in qualities}) > 1:
        result.mismatch("windows of one run wrote different payload bytes")
    result.report.append(f"insitu_write: pool payload digest {quality['pool_digest']}")
    if not trace:
        result.metrics["compression_ratio"] = quality["compression_ratio"]
        result.metrics["psnr_db"] = quality["psnr_db"]
        result.metrics["setup_s"] = setup_s
        result.metrics["peak_rss_MB"] = peak_rss_mb()
    return result


def _layer_metrics(recorder: SpanRecorder, inst: Instrumented, rows_a: list,
                   rows_b: list, result: WorkloadResult) -> Dict[str, float]:
    per_op = recorder.per_op()
    n = max(1, len(rows_b))
    uniform_pre = [r["report"].preprocess_time for r in rows_b
                   if r["report"] is not None and not r["amr"]]
    p50_a = latency_ms([r["seconds"] for r in rows_a if r["error"] is None])[0]
    p50_b = latency_ms([r["seconds"] for r in rows_b if r["error"] is None])[0]
    metrics = {
        "core.roi.extract_ms": median(uniform_pre) * 1e3 if uniform_pre else 0.0,
        "core.prepare_ms": median_ms(per_op, "core.prepare"),
        "store.engine.encode_ms": median_ms(per_op, "store.engine.encode"),
        "store.engine.blocks_encoded": inst.counts.get("store.engine.encode", 0) / n,
        "store.format.write_ms": median_ms(per_op, "store.format.write"),
        "store.format.bytes_written": inst.counts.get("store.format.write", 0) / n,
        "store.catalog.append_self_ms": median_ms(per_op, "store.catalog.append", self_time=True),
        "obs.trace_overhead": p50_b / p50_a - 1.0 if p50_a else 0.0,
    }
    result.record["breakdown_rows"] = breakdown_rows(per_op, [
        ("core.prepare_ms", "core.prepare"),
        ("store.engine.encode_ms", "store.engine.encode"),
        ("store.format.write_ms", "store.format.write"),
        ("store.catalog.append_self_ms", "store.catalog.append"),
        ("insitu.pipeline_self_ms", "op"),
    ])
    return metrics
