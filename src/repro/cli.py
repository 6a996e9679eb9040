"""Command-line interface.

A small tool for working with single fields stored as ``.npy`` files, the
way a downstream user would exercise the compressors without writing Python:

* ``repro compress input.npy output.rpca --codec sz3 --error-bound 1e-3``
* ``repro decompress output.rpca reconstruction.npy``
* ``repro info output.rpca``
* ``repro evaluate original.npy reconstruction.npy``

``--postprocess`` stores the sampled Bezier post-processing plan inside the
compressed container so ``decompress`` can apply it without access to the
original data.

The block-indexed store (:mod:`repro.store`) is exposed through a ``store``
command group:

* ``repro store ls ROOT`` — list the catalog;
* ``repro store get ROOT FIELD STEP out.npy [--level L]`` — decode one level;
* ``repro store roi ROOT FIELD STEP out.npy --bbox 0:16,8:24,0:32`` —
  decode a sub-region, touching only the intersecting blocks;
* ``repro store read ROOT FIELD STEP out.npy --index "10:20,:,::2"`` —
  NumPy-style lazy indexing (ints, steps, ``...``) through
  :mod:`repro.array`, with per-query decode accounting.

The read daemon (:mod:`repro.serve`) shares one decode pool between clients:

* ``repro serve ROOT --addr 127.0.0.1:4815`` — serve the store's queries
  over a local socket from one shared block cache;
* ``repro store read ... --remote 127.0.0.1:4815`` — the same ``read``
  query through the daemon, reporting what it cost server-side.

The multi-resolution workflow and in-situ pipeline are driven through
serialized :mod:`repro.api` configs:

* ``repro run config.json [--input field.npy]`` — execute a
  ``WorkflowConfig`` or ``PipelineConfig`` and print a JSON summary, so a
  run recorded with ``WorkflowConfig.to_dict()`` replays bit-for-bit.

Every failure mode (bad inputs, malformed specs, missing stores) exits
non-zero with a one-line ``error:`` message rather than a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro._version import __version__
from repro.analysis import max_abs_error, psnr, ssim
from repro.api.error_bound import ERROR_BOUND_MODES, ErrorBound
from repro.compressors import get_compressor
from repro.compressors.base import CompressedArray
from repro.core.postprocess import PostProcessor, bezier_boundary_smooth
from repro.insitu.io import read_compressed_array, write_compressed_array

__all__ = ["main", "build_parser"]

_CODECS = ("sz3", "sz2", "zfp")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for documentation and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Error-bounded lossy compression for scientific fields (.npy in, .rpca out).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compress", help="compress a .npy field into a .rpca container")
    comp.add_argument("input", type=Path, help="input .npy file (1-3D float array)")
    comp.add_argument("output", type=Path, help="output .rpca container")
    comp.add_argument("--codec", choices=_CODECS, default="sz3", help="compressor to use")
    comp.add_argument("--error-bound", type=float, required=True, help="point-wise error bound")
    comp.add_argument(
        "--mode",
        choices=ERROR_BOUND_MODES,
        default=None,
        help="error-bound convention: abs (default), rel (of the value range), "
        "ptw_rel (of the peak magnitude) or psnr (dB target)",
    )
    comp.add_argument(
        "--block-size", type=int, default=None, help="SZ2 block size (ignored by other codecs)"
    )
    comp.add_argument(
        "--postprocess",
        action="store_true",
        help="plan error-bounded Bezier post-processing and store it in the container",
    )

    deco = sub.add_parser("decompress", help="reconstruct a .npy field from a .rpca container")
    deco.add_argument("input", type=Path, help="input .rpca container")
    deco.add_argument("output", type=Path, help="output .npy file")
    deco.add_argument(
        "--no-postprocess",
        action="store_true",
        help="skip the stored post-processing plan even if present",
    )

    info = sub.add_parser("info", help="print metadata of a .rpca container")
    info.add_argument("input", type=Path, help=".rpca container")

    ev = sub.add_parser("evaluate", help="compare two .npy fields (PSNR, SSIM, max error)")
    ev.add_argument("original", type=Path)
    ev.add_argument("reconstruction", type=Path)

    store = sub.add_parser("store", help="query a block-indexed compressed store (repro.store)")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    ls = store_sub.add_parser("ls", help="list the catalog of a store directory")
    ls.add_argument("root", type=Path, help="store directory (holds manifest.json)")

    get = store_sub.add_parser("get", help="decode one level of a stored snapshot to .npy")
    get.add_argument("root", type=Path, help="store directory")
    get.add_argument("field", help="field name")
    get.add_argument("step", type=int, help="timestep")
    get.add_argument("output", type=Path, help="output .npy file")
    get.add_argument("--level", type=int, default=0, help="resolution level (default 0, finest)")

    roi = store_sub.add_parser(
        "roi", help="decode a sub-region, touching only the intersecting blocks"
    )
    roi.add_argument("root", type=Path, help="store directory")
    roi.add_argument("field", help="field name")
    roi.add_argument("step", type=int, help="timestep")
    roi.add_argument("output", type=Path, help="output .npy file")
    roi.add_argument(
        "--bbox",
        required=True,
        help="per-axis lo:hi cell ranges, comma-separated (e.g. 0:16,8:24,0:32)",
    )
    roi.add_argument("--level", type=int, default=0, help="resolution level (default 0, finest)")

    read = store_sub.add_parser(
        "read", help="decode a NumPy-style selection through the lazy view API"
    )
    read.add_argument("root", type=Path, help="store directory")
    read.add_argument("field", help="field name")
    read.add_argument("step", type=int, help="timestep")
    read.add_argument("output", type=Path, help="output .npy file")
    read.add_argument(
        "--index",
        required=True,
        help="comma-separated per-axis selection, NumPy slice syntax "
        "(e.g. \"10:20,:,::2\", \"5,3:9,0\"; spell leading negatives as "
        "--index=-1,...)",
    )
    read.add_argument("--level", type=int, default=0, help="resolution level (default 0, finest)")
    read.add_argument(
        "--remote",
        metavar="ADDR",
        default=None,
        help="read through a running daemon (host:port from `repro serve`) "
        "instead of opening ROOT locally; ROOT is then ignored",
    )

    serve = sub.add_parser(
        "serve", help="serve a store's read queries over a local socket (repro.serve)"
    )
    serve.add_argument("root", type=Path, help="store directory (holds manifest.json)")
    serve.add_argument(
        "--addr",
        default="127.0.0.1:0",
        help="host:port to bind (default 127.0.0.1:0; port 0 picks a free port, "
        "printed on startup)",
    )
    serve.add_argument(
        "--cache-blocks", type=int, default=512, help="shared block-cache capacity in blocks"
    )
    serve.add_argument(
        "--cache-mb", type=float, default=64.0, help="shared block-cache capacity in MiB"
    )
    serve.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="serve for this many seconds then exit cleanly (default: until ctrl-c)",
    )
    serve.add_argument(
        "--refresh-ttl",
        type=float,
        default=0.05,
        help="debounce the per-request store-manifest stat to at most once per "
        "TTL seconds (default 0.05; 0 stats on every request, always fresh)",
    )
    serve.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v logs one access line per request, -vv adds connection/reader "
        "lifecycle chatter (default: warnings only)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines instead of key=value text",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="log a WARNING (with accounting) for requests slower than this "
        "many milliseconds",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="record request traces into the daemon's in-memory ring "
        "(inspect via `repro stats` clients or the trace wire op)",
    )
    serve.add_argument(
        "--max-readers",
        type=int,
        default=None,
        help="bound on the daemon's per-entry container reader LRU "
        "(default 64); evicted readers close once their reads drain",
    )

    stats = sub.add_parser(
        "stats", help="scrape a running daemon's telemetry (repro.obs)"
    )
    stats.add_argument("addr", help="daemon address (host:port from `repro serve`)")
    stats.add_argument(
        "--prom",
        action="store_true",
        help="render the metrics registry snapshot as Prometheus text "
        "(default: JSON)",
    )
    stats.add_argument(
        "--watch",
        action="store_true",
        help="re-scrape every --interval seconds until interrupted",
    )
    stats.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between scrapes with --watch (default 2)",
    )

    shard = sub.add_parser(
        "shard", help="shard a store across N daemons behind a router (repro.shard)"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    split = shard_sub.add_parser(
        "split", help="distribute one store's entries into a topology's shard stores"
    )
    split.add_argument("topology", type=Path, help="shard map JSON (shards need 'store' paths)")
    split.add_argument("source", type=Path, help="source store directory to split")

    plan = shard_sub.add_parser(
        "plan", help="print the minimal move list between two topologies (JSON)"
    )
    plan.add_argument("old", type=Path, help="current shard map JSON")
    plan.add_argument("new", type=Path, help="target shard map JSON")

    rebalance = shard_sub.add_parser(
        "rebalance", help="execute the move list between two topologies via adopt+drop"
    )
    rebalance.add_argument("old", type=Path, help="current shard map JSON")
    rebalance.add_argument("new", type=Path, help="target shard map JSON")
    rebalance.add_argument(
        "--copy-only",
        action="store_true",
        help="phase 1 only: copy entries to their new shards, leave sources "
        "intact (switch routers to the new topology, then run --prune-only)",
    )
    rebalance.add_argument(
        "--prune-only",
        action="store_true",
        help="phase 3 only: drop moved entries from their old shards "
        "(run after every router serves the new topology)",
    )

    shard_serve = shard_sub.add_parser(
        "serve", help="route the wire protocol across a topology's shard daemons"
    )
    shard_serve.add_argument("topology", type=Path, help="shard map JSON with daemon addresses")
    shard_serve.add_argument(
        "--addr",
        default="127.0.0.1:0",
        help="host:port to bind (default 127.0.0.1:0; port 0 picks a free port, "
        "printed on startup)",
    )
    shard_serve.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="serve for this many seconds then exit cleanly (default: until ctrl-c)",
    )
    shard_serve.add_argument(
        "--connect-retries",
        type=int,
        default=8,
        help="backend connect retries (exponential backoff) while shard "
        "daemons are still binding (default 8)",
    )
    shard_serve.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v logs one access line per routed request, -vv adds "
        "connection/backend lifecycle chatter (default: warnings only)",
    )
    shard_serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines instead of key=value text",
    )
    shard_serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="log a WARNING for routed requests slower than this many milliseconds",
    )
    shard_serve.add_argument(
        "--trace",
        action="store_true",
        help="record routed request traces (shard spans grafted in) into the "
        "router's in-memory ring",
    )
    shard_serve.add_argument(
        "--pool-size",
        type=int,
        default=4,
        help="pooled connections per shard backend; bounds how many routed "
        "requests one shard serves concurrently (default 4)",
    )
    shard_serve.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="override the topology's replication factor: each entry is "
        "owned by this many distinct shards, and reads fail over between "
        "them (default: what the topology JSON says, usually 1)",
    )
    shard_serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive transport failures before a shard's circuit "
        "breaker opens (default 3)",
    )
    shard_serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=1.0,
        help="seconds an open breaker waits before admitting a half-open "
        "probe (default 1.0)",
    )
    shard_serve.add_argument(
        "--probe-interval",
        type=float,
        default=0.25,
        help="seconds between background health probes of tripped shards; "
        "0 disables the prober (default 0.25)",
    )

    gateway = sub.add_parser(
        "gateway",
        help="HTTP/1.1 front end over a read daemon or shard router (repro.gateway)",
    )
    gateway.add_argument(
        "root",
        type=Path,
        nargs="?",
        default=None,
        help="store directory to serve via an in-process read daemon "
        "(alternative to --router)",
    )
    gateway.add_argument(
        "--router",
        default=None,
        metavar="ADDR",
        help="front an already-running wire backend (read daemon or shard "
        "router) at host:port instead of opening a store",
    )
    gateway.add_argument(
        "--http",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="HTTP bind address (default 127.0.0.1:0; port 0 picks a free "
        "port, printed on startup)",
    )
    gateway.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="serve for this many seconds then exit cleanly (default: until ctrl-c)",
    )
    gateway.add_argument(
        "--pool-size",
        type=int,
        default=4,
        help="pooled backend connections; bounds the gateway's backend "
        "fan-out (default 4)",
    )
    gateway.add_argument(
        "--max-connections",
        type=int,
        default=64,
        help="open HTTP connections above which new ones are answered 503 "
        "(default 64)",
    )
    gateway.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="seconds one HTTP request may take end to end before a 504 "
        "(default 30)",
    )
    gateway.add_argument(
        "--connect-retries",
        type=int,
        default=8,
        help="backend connect retries (exponential backoff) while the "
        "backend is still binding (default 8)",
    )
    gateway.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v logs one access line per HTTP request, -vv adds connection "
        "lifecycle chatter (default: warnings only)",
    )
    gateway.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines instead of key=value text",
    )
    gateway.add_argument(
        "--trace",
        action="store_true",
        help="record gateway exchange traces (backend spans grafted in) into "
        "the in-memory trace ring",
    )

    chaos = sub.add_parser(
        "chaos",
        help="fault-injecting TCP proxy in front of one daemon (repro.chaos)",
    )
    chaos.add_argument(
        "listen",
        help="host:port to listen on (port 0 picks a free port, printed on startup)",
    )
    chaos.add_argument("upstream", help="host:port of the daemon to front")
    chaos.add_argument(
        "--seed",
        default="chaos-0",
        help="schedule seed; the fault a connection suffers is a pure "
        "function of (seed, connection index), so a run replays exactly "
        "(default chaos-0)",
    )
    chaos.add_argument(
        "--script",
        default=None,
        metavar="FAULTS",
        help="comma-separated fault cycle applied per connection, e.g. "
        "pass,pass,disconnect (faults: pass, refuse, hang, disconnect, "
        "corrupt, delay)",
    )
    chaos.add_argument(
        "--weights",
        default=None,
        metavar="F=W,...",
        help="seeded weighted draw per connection instead of a cycle, e.g. "
        "pass=6,corrupt=1,disconnect=1 (default when no --script: "
        "pass=4,corrupt=1,disconnect=1)",
    )
    chaos.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="run for this many seconds then exit cleanly (default: until ctrl-c)",
    )
    chaos.add_argument(
        "--hang-timeout",
        type=float,
        default=30.0,
        help="seconds a hung connection is held before the proxy drops it "
        "(default 30)",
    )

    lint = sub.add_parser(
        "lint", help="run the project-aware AST lint rules (repro.devtools)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files or directories to lint (default: src/)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit findings as a JSON array instead of file:line text",
    )
    lint.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="grandfather findings recorded in this baseline file "
        "(default: lint-baseline.json next to the first path, when present)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings into the baseline file and exit 0",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the available rule ids and exit",
    )

    run = sub.add_parser(
        "run", help="execute a serialized repro.api workflow/pipeline config (JSON)"
    )
    run.add_argument("config", type=Path, help="WorkflowConfig / PipelineConfig JSON file")
    run.add_argument(
        "--input",
        type=Path,
        default=None,
        help="input .npy field (overrides the config's own 'input' section)",
    )
    run.add_argument(
        "--save-reconstruction",
        type=Path,
        default=None,
        help="write the (post-processed) reconstruction to this .npy file",
    )
    run.add_argument(
        "--output-json",
        type=Path,
        default=None,
        help="also write the JSON summary to this file",
    )
    return parser


def _load_field(path: Path) -> np.ndarray:
    from repro.api.facade import load_npy_field

    try:
        return load_npy_field(path)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_compress(args: argparse.Namespace) -> int:
    field = _load_field(args.input)
    options = {}
    if args.codec == "sz2" and args.block_size:
        options["block_size"] = int(args.block_size)
    compressor = get_compressor(args.codec, **options)
    compressed = compressor.compress(field, ErrorBound(args.mode or "abs", args.error_bound))

    if args.postprocess:
        if args.codec not in ("sz2", "zfp"):
            print("note: --postprocess is designed for block-wise codecs (sz2/zfp)", file=sys.stderr)
        plan = PostProcessor(args.codec if args.codec in ("sz2", "zfp", "sz3") else "sz2").plan(
            field, compressor, compressed.error_bound
        )
        compressed.metadata["postprocess"] = {
            "intensities": list(plan.intensities),
            "block_size": plan.block_size,
            "error_bound": plan.error_bound,
        }

    nbytes = write_compressed_array(args.output, compressed)
    print(
        f"compressed {args.input} ({compressed.nbytes_original} B) -> {args.output} ({nbytes} B), "
        f"ratio {compressed.compression_ratio:.2f}x, codec {compressed.codec}, "
        f"error bound {compressed.error_bound:.6g}"
    )
    return 0


def _read_container_or_exit(path: Path):
    from repro.compressors.errors import DecompressionError

    try:
        return read_compressed_array(path)
    except DecompressionError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_decompress(args: argparse.Namespace) -> int:
    compressed = _read_container_or_exit(args.input)
    compressor = get_compressor(compressed.codec)
    field = compressor.decompress(compressed)

    plan = compressed.metadata.get("postprocess")
    if plan and not args.no_postprocess:
        field = bezier_boundary_smooth(
            field,
            block_size=int(plan["block_size"]),
            error_bound=float(plan["error_bound"]),
            intensity=[float(a) for a in plan["intensities"]][: field.ndim],
        )
        applied = " (post-processed)"
    else:
        applied = ""
    np.save(args.output, field)
    print(f"decompressed {args.input} -> {args.output}, shape {field.shape}{applied}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    compressed = _read_container_or_exit(args.input)
    summary = {
        "codec": compressed.codec,
        "shape": list(compressed.shape),
        "dtype": compressed.dtype,
        "error_bound": compressed.error_bound,
        "nbytes_original": compressed.nbytes_original,
        "nbytes_compressed": compressed.nbytes_compressed,
        "compression_ratio": round(compressed.compression_ratio, 3),
        "metadata": compressed.metadata,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    original = _load_field(args.original)
    reconstruction = _load_field(args.reconstruction)
    if original.shape != reconstruction.shape:
        raise SystemExit(
            f"error: shape mismatch {original.shape} vs {reconstruction.shape}"
        )
    print(f"PSNR      : {psnr(original, reconstruction):.3f} dB")
    if original.ndim in (2, 3):
        print(f"SSIM      : {ssim(original, reconstruction):.5f}")
    print(f"max error : {max_abs_error(original, reconstruction):.6g}")
    return 0


def _parse_bbox(spec: str) -> tuple:
    """Parse ``"0:16,8:24,0:32"`` into ``((0, 16), (8, 24), (0, 32))``."""
    pairs = []
    for part in spec.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise SystemExit(f"error: bad bbox axis {part!r}; expected lo:hi")
        try:
            pairs.append((int(lo), int(hi)))
        except ValueError:
            raise SystemExit(f"error: bad bbox axis {part!r}; expected integer lo:hi")
    return tuple(pairs)


def _parse_index(spec: str) -> tuple:
    """Parse ``"10:20,:,::2"`` into ``(slice(10, 20), slice(None), slice(None, None, 2))``.

    Each comma-separated part is an integer, ``...``, or a ``start:stop:step``
    slice with any piece omitted — the NumPy syntax, minus spaces.
    """
    items = []
    for part in spec.split(","):
        part = part.strip()
        if part == "...":
            items.append(Ellipsis)
            continue
        if ":" in part:
            pieces = part.split(":")
            if len(pieces) > 3:
                raise SystemExit(f"error: bad index axis {part!r}; at most two ':' allowed")
            try:
                items.append(slice(*(int(p) if p.strip() else None for p in pieces)))
            except ValueError:
                raise SystemExit(f"error: bad index axis {part!r}; expected integer slice parts")
            continue
        try:
            items.append(int(part))
        except ValueError:
            raise SystemExit(f"error: bad index axis {part!r}; expected int, slice or '...'")
    return tuple(items)


def _open_store(root: Path):
    from repro.store import MANIFEST_NAME, Store

    if not root.is_dir():
        raise SystemExit(f"error: {root} is not a store directory")
    if not (root / MANIFEST_NAME).exists():
        raise SystemExit(f"error: {root} is not a store (no {MANIFEST_NAME})")
    try:
        return Store(root)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_store_read_remote(args: argparse.Namespace) -> int:
    """``repro store read --remote``: the same query through a read daemon."""
    from repro.serve import ProtocolError, RemoteStore

    index = _parse_index(args.index)
    try:
        with RemoteStore(args.remote) as client:
            view = client.array(args.field, args.step, level=args.level)
            field = np.asarray(view[index])
            stats = view.stats
    except OSError as exc:
        raise SystemExit(f"error: cannot connect to daemon at {args.remote}: {exc}")
    except ProtocolError as exc:
        raise SystemExit(f"error: {exc}")
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0] if exc.args else exc}")
    except (ValueError, IndexError, TypeError) as exc:
        raise SystemExit(f"error: {exc}")
    np.save(args.output, field)
    print(
        f"read [{args.index}] of {args.field} step {args.step} level "
        f"{args.level} via {args.remote} -> {args.output}, shape {field.shape} "
        f"(daemon decoded {stats['blocks_decoded']}/{stats['blocks_touched']} touched "
        f"blocks, cache hits {stats['cache_hits']})"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.array import BlockCache
    from repro.obs import TRACER, configure_logging
    from repro.serve import ReadDaemon, parse_address

    try:
        host, port = parse_address(args.addr)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    store = _open_store(args.root)
    cache = BlockCache(
        max_blocks=args.cache_blocks, max_bytes=int(args.cache_mb * 2 ** 20)
    )
    if args.refresh_ttl < 0:
        raise SystemExit("error: --refresh-ttl must be >= 0")
    configure_logging(verbosity=args.verbose, json_lines=args.log_json)
    if args.trace:
        TRACER.enable()
    daemon_kwargs = {}
    if args.max_readers is not None:
        if args.max_readers < 1:
            raise SystemExit("error: --max-readers must be >= 1")
        daemon_kwargs["max_readers"] = args.max_readers
    daemon = ReadDaemon(
        store,
        host=host,
        port=port,
        cache=cache,
        refresh_ttl=args.refresh_ttl,
        slow_ms=args.slow_ms,
        **daemon_kwargs,
    )
    # SIGTERM (systemd, CI, `kill`) shuts down as cleanly as ctrl-c; shells
    # without job control start background children with SIGINT ignored, so
    # TERM is the only reliably deliverable stop signal there.  Installed
    # before the banner: once the address is printed, a TERM is never fatal.
    import signal

    previous = signal.signal(signal.SIGTERM, lambda signum, frame: daemon.request_stop())
    try:
        daemon.start()
    except OSError as exc:
        signal.signal(signal.SIGTERM, previous)
        raise SystemExit(f"error: cannot bind {args.addr}: {exc}")
    print(
        f"serving {args.root} ({len(store)} entries) at {daemon.address} "
        f"(cache {args.cache_blocks} blocks / {args.cache_mb:g} MiB; ctrl-c to stop)",
        flush=True,
    )
    try:
        daemon.serve_forever(timeout=args.seconds)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        stats = daemon.stats()
        daemon.stop()
    print(
        f"daemon stopped after {stats['requests']} requests "
        f"({stats['reads']} reads, {stats['blocks_decoded']} blocks decoded, "
        f"{stats['cache']['hits']} cache hits, "
        f"{stats['cache']['bytes_resident']} B resident)"
    )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.compressors.errors import DecompressionError

    if args.store_command == "read" and args.remote is not None:
        return _cmd_store_read_remote(args)
    store = _open_store(args.root)
    if args.store_command == "ls":
        print(store.summary())
        return 0
    try:
        view = store.array(args.field, args.step, level=args.level)
        if args.store_command == "get":
            field = view[...]
            np.save(args.output, field)
            print(
                f"decoded {args.field} step {args.step} level {args.level} -> "
                f"{args.output}, shape {field.shape} "
                f"({view.stats['blocks_decoded']} blocks)"
            )
        elif args.store_command == "roi":
            bbox = _parse_bbox(args.bbox)
            try:
                field = view.read_roi(bbox)
            except ValueError as exc:
                raise SystemExit(f"error: {exc}")
            np.save(args.output, field)
            print(
                f"decoded roi {args.bbox} of {args.field} step {args.step} level "
                f"{args.level} -> {args.output}, shape {field.shape} "
                f"(decoded {view.stats['blocks_decoded']}/{view.n_blocks} blocks)"
            )
        else:  # read
            index = _parse_index(args.index)
            try:
                field = np.asarray(view[index])
            except (ValueError, IndexError, TypeError) as exc:
                raise SystemExit(f"error: {exc}")
            np.save(args.output, field)
            stats = view.stats
            print(
                f"read [{args.index}] of {args.field} step {args.step} level "
                f"{args.level} -> {args.output}, shape {field.shape} "
                f"(decoded {stats['blocks_decoded']}/{view.n_blocks} blocks in "
                f"{stats.get('fetch_ranges', 0)} coalesced fetches, "
                f"cache hits {stats.get('cache_hits', 0)}, "
                f"cache resident {stats.get('cache_bytes_resident', 0)} B)"
            )
        return 0
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")
    except DecompressionError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats ADDR``: scrape a daemon's telemetry surface.

    One ``stats`` round trip per scrape; ``--prom`` renders the registry
    snapshot as Prometheus text (what a scrape job would ingest), otherwise
    the full stats response prints as JSON.
    """
    import time as _time

    from repro.obs import render_prometheus
    from repro.serve import ProtocolError, RemoteStore

    try:
        with RemoteStore(args.addr) as client:
            while True:
                stats = client.stats()
                if args.prom:
                    # render_prometheus output is newline-terminated already;
                    # print() would add a blank line scrapers reject.
                    sys.stdout.write(render_prometheus(stats.get("metrics", [])))
                    sys.stdout.flush()
                else:
                    print(json.dumps(stats, indent=2, sort_keys=True), flush=True)
                if not args.watch:
                    break
                _time.sleep(max(0.1, args.interval))
    except OSError as exc:
        raise SystemExit(f"error: cannot connect to daemon at {args.addr}: {exc}")
    except ProtocolError as exc:
        raise SystemExit(f"error: {exc}")
    except KeyboardInterrupt:
        pass
    return 0


def _load_shard_map(path: Path):
    from repro.shard import ShardMap

    try:
        return ShardMap.load(path)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_shard(args: argparse.Namespace) -> int:
    if args.shard_command == "split":
        return _cmd_shard_split(args)
    if args.shard_command == "plan":
        return _cmd_shard_plan(args)
    if args.shard_command == "rebalance":
        return _cmd_shard_rebalance(args)
    return _cmd_shard_serve(args)


def _cmd_shard_split(args: argparse.Namespace) -> int:
    from repro.shard import split_store

    source = _open_store(args.source)
    placed = split_store(source, _load_shard_map(args.topology))
    for name in sorted(placed):
        keys = placed[name]
        print(f"{name}: {len(keys)} entries" + (f" ({', '.join(keys)})" if keys else ""))
    print(f"split {len(source)} entries across {len(placed)} shards (source intact)")
    return 0


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    from repro.shard import plan_for_stores

    moves = plan_for_stores(_load_shard_map(args.old), _load_shard_map(args.new))
    print(json.dumps([m.to_dict() for m in moves], indent=2))
    print(f"{len(moves)} moves", file=sys.stderr)
    return 0


def _cmd_shard_rebalance(args: argparse.Namespace) -> int:
    from repro.shard import execute_plan, plan_for_stores

    if args.copy_only and args.prune_only:
        raise SystemExit("error: --copy-only and --prune-only are mutually exclusive")
    old, new = _load_shard_map(args.old), _load_shard_map(args.new)
    moves = plan_for_stores(old, new)
    result = execute_plan(
        moves,
        old,
        new,
        copy=not args.prune_only,
        prune=not args.copy_only,
    )
    phase = "copy+prune"
    if args.copy_only:
        phase = "copy"
    elif args.prune_only:
        phase = "prune"
    print(
        f"rebalanced ({phase}): {result['moves']} moves, "
        f"{result['copied']} copied, {result['pruned']} pruned"
    )
    return 0


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    from repro.obs import TRACER, configure_logging
    from repro.serve import parse_address
    from repro.shard import RouterDaemon, ShardError, ShardMap

    try:
        host, port = parse_address(args.addr)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    shard_map = _load_shard_map(args.topology)
    if args.replicas is not None:
        try:
            shard_map = ShardMap(
                shard_map.shards,
                virtual_nodes=shard_map.virtual_nodes,
                replicas=args.replicas,
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    configure_logging(verbosity=args.verbose, json_lines=args.log_json)
    if args.trace:
        TRACER.enable()
    if args.pool_size < 1:
        raise SystemExit("error: --pool-size must be >= 1")
    if args.breaker_threshold < 1:
        raise SystemExit("error: --breaker-threshold must be >= 1")
    router = RouterDaemon(
        shard_map,
        host=host,
        port=port,
        slow_ms=args.slow_ms,
        retries=args.connect_retries,
        pool_size=args.pool_size,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        probe_interval=args.probe_interval,
    )
    # Same SIGTERM discipline as `repro serve`: installed before the banner,
    # so once the address is printed a TERM always exits cleanly.
    import signal

    previous = signal.signal(signal.SIGTERM, lambda signum, frame: router.request_stop())
    try:
        router.start()
    except (OSError, ShardError) as exc:
        signal.signal(signal.SIGTERM, previous)
        raise SystemExit(f"error: cannot start router: {exc}")
    print(
        f"routing {len(shard_map.shards)} shards "
        f"({', '.join(s.name + '=' + s.address for s in shard_map.shards)}) "
        f"at {router.address} "
        f"(replicas {shard_map.replicas}, breaker threshold "
        f"{args.breaker_threshold}; ctrl-c to stop)",
        flush=True,
    )
    try:
        router.serve_forever(timeout=args.seconds)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        stats = router.stats()
        router.stop()
    print(
        f"router stopped after {stats['requests']} requests "
        f"({stats['reads_forwarded']} reads forwarded, "
        f"{stats['relay_bytes']} B relayed, "
        f"{stats['backend_errors']} backend errors)"
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos LISTEN UPSTREAM``: a fault-injecting proxy for one daemon.

    Point a router's topology at the proxy's address instead of the daemon's
    and the scheduled faults exercise the failover path: refused dials trip
    the circuit breaker, corrupted frames surface as checksum mismatches,
    mid-frame disconnects as connection resets — all deterministically,
    because the fault is a pure function of ``(seed, connection index)``.
    """
    from repro.chaos import FAULTS, ChaosProxy, ChaosSchedule
    from repro.obs import configure_logging
    from repro.serve import parse_address

    try:
        host, port = parse_address(args.listen)
        up_host, up_port = parse_address(args.upstream)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.script is not None and args.weights is not None:
        raise SystemExit("error: --script and --weights are mutually exclusive")
    try:
        if args.script is not None:
            script = [part.strip() for part in args.script.split(",") if part.strip()]
            if not script:
                raise SystemExit("error: --script needs at least one fault")
            schedule = ChaosSchedule(script, seed=args.seed)
        elif args.weights is not None:
            weights = {}
            for part in args.weights.split(","):
                fault, sep, weight = part.strip().partition("=")
                if not sep or fault not in FAULTS:
                    raise SystemExit(
                        f"error: bad weight {part.strip()!r}; expected FAULT=N "
                        f"with FAULT in {', '.join(FAULTS)}"
                    )
                weights[fault] = int(weight)
            schedule = ChaosSchedule.random(args.seed, weights=weights)
        else:
            schedule = ChaosSchedule.random(args.seed)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    configure_logging(verbosity=getattr(args, "verbose", 0))
    proxy = ChaosProxy(
        (up_host, up_port),
        schedule=schedule,
        host=host,
        port=port,
        timeout=args.hang_timeout,
    )
    # Same SIGTERM discipline as `repro serve`: installed before the banner,
    # so once the address is printed a TERM always exits cleanly.
    import signal

    previous = signal.signal(signal.SIGTERM, lambda signum, frame: proxy.request_stop())
    try:
        proxy.start()
    except OSError as exc:
        signal.signal(signal.SIGTERM, previous)
        raise SystemExit(f"error: cannot start chaos proxy: {exc}")
    print(
        f"chaos proxy for {proxy.upstream} at {proxy.address} "
        f"({schedule!r}; ctrl-c to stop)",
        flush=True,
    )
    try:
        proxy.serve_forever(timeout=args.seconds)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        stats = proxy.stats()
        proxy.stop()
    injected = {f: n for f, n in stats["faults"].items() if n and f != "pass"}
    print(
        f"chaos proxy stopped after {stats['connections']} connections "
        f"(faults injected: {injected or 'none'})"
    )
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    from repro.gateway import GatewayDaemon
    from repro.obs import TRACER, configure_logging
    from repro.serve import ReadDaemon, parse_address
    from repro.serve.protocol import ProtocolError

    if (args.root is None) == (args.router is None):
        raise SystemExit("error: give exactly one of ROOT or --router ADDR")
    try:
        http_host, http_port = parse_address(args.http)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.pool_size < 1:
        raise SystemExit("error: --pool-size must be >= 1")
    configure_logging(verbosity=args.verbose, json_lines=args.log_json)
    if args.trace:
        TRACER.enable()

    inner = None
    if args.root is not None:
        # Self-contained mode: an in-process read daemon on a loopback port
        # that only this gateway talks to.
        store = _open_store(args.root)
        inner = ReadDaemon(store)
        backend = inner.start()
        backend_label = f"{args.root} ({len(store)} entries)"
    else:
        try:
            backend_host, backend_port = parse_address(args.router)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        backend = f"{backend_host}:{backend_port}"
        backend_label = backend

    daemon = GatewayDaemon(
        backend,
        host=http_host,
        port=http_port,
        pool_size=args.pool_size,
        max_connections=args.max_connections,
        request_timeout=args.request_timeout,
        retries=args.connect_retries,
    )
    # Same SIGTERM discipline as `repro serve`: installed before the banner,
    # so once the address is printed a TERM always exits cleanly.
    import signal

    previous = signal.signal(signal.SIGTERM, lambda signum, frame: daemon.request_stop())
    try:
        daemon.start()
    except (OSError, ProtocolError) as exc:
        signal.signal(signal.SIGTERM, previous)
        if inner is not None:
            inner.stop()
        raise SystemExit(f"error: cannot start gateway: {exc}")
    print(
        f"gateway for {backend_label} at http://{daemon.address}/ "
        f"(pool {args.pool_size}, max {args.max_connections} connections; "
        f"ctrl-c to stop)",
        flush=True,
    )
    try:
        daemon.serve_forever(timeout=args.seconds)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        stats = daemon.stats()
        daemon.stop()
        if inner is not None:
            inner.stop()
    print(
        f"gateway stopped after {stats['requests']} requests "
        f"({stats['errors']} errors, {stats['http_bytes_sent']} B sent, "
        f"{len(stats['clients'])} clients)"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import run_config

    if not args.config.exists():
        raise SystemExit(f"error: config file {args.config} does not exist")
    summary, _ = run_config(
        args.config,
        input_path=args.input,
        save_reconstruction=args.save_reconstruction,
    )
    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if args.output_json is not None:
        args.output_json.write_text(text + "\n", "utf-8")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported here: the devtools package (ast walking, rule registry) should
    # cost nothing on the serving/compression paths.
    from repro.devtools import lint as lintmod

    if args.list_rules:
        for rule in lintmod.LintEngine().rules:
            print(f"{rule.id}: {rule.help}")
        return 0

    paths = [Path(p) for p in args.paths] or [Path("src")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise SystemExit(f"error: no such path: {missing[0]}")
    baseline_path = args.baseline
    if baseline_path is None:
        anchor = paths[0] if paths[0].is_dir() else paths[0].parent
        for candidate in [anchor, *anchor.parents]:
            if (candidate / lintmod.BASELINE_NAME).exists():
                baseline_path = candidate / lintmod.BASELINE_NAME
                break

    findings = lintmod.lint_paths(paths)

    if args.write_baseline:
        target = baseline_path or Path(lintmod.BASELINE_NAME)
        lintmod.write_baseline(findings, target)
        print(f"wrote {len(findings)} finding(s) to {target}")
        return 0

    grandfathered = 0
    if baseline_path is not None:
        try:
            baseline = lintmod.load_baseline(baseline_path)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        findings, grandfathered = lintmod.apply_baseline(findings, baseline)

    if args.as_json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding)
        suffix = f" ({grandfathered} baselined)" if grandfathered else ""
        print(f"{len(findings)} finding(s){suffix}")
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.compressors.errors import CompressorError

    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compress": _cmd_compress,
        "decompress": _cmd_decompress,
        "info": _cmd_info,
        "evaluate": _cmd_evaluate,
        "store": _cmd_store,
        "serve": _cmd_serve,
        "shard": _cmd_shard,
        "chaos": _cmd_chaos,
        "gateway": _cmd_gateway,
        "stats": _cmd_stats,
        "lint": _cmd_lint,
        "run": _cmd_run,
    }
    try:
        return handlers[args.command](args)
    except (CompressorError, ValueError, OSError) as exc:
        # Operational failures (bad specs, unreadable files, bound violations)
        # become a one-line diagnostic instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
