"""``Store``: a catalog of block containers across fields and timesteps.

A store is a directory holding one ``.rps2`` container per ``(field, step)``
pair plus a ``manifest.json`` catalog (schema in :mod:`repro.store`), giving
simulation output the append-as-you-go semantics of a plotfile directory
while every container stays individually random-accessible.  The
:class:`~repro.insitu.pipeline.InSituPipeline` appends one entry per
timestep; post-hoc analysis iterates the catalog and issues block or ROI
queries without ever inflating a whole timestep.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.amr.grid import AMRHierarchy
from repro.api.error_bound import ErrorBound
from repro.core.mr_compressor import MultiResolutionCompressor
from repro.store.engine import CodecEngine
from repro.store.format import BlockLevel, ContainerReader, write_container

__all__ = ["Store", "StoreEntry", "MANIFEST_NAME", "MANIFEST_VERSION"]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


@dataclass
class StoreEntry:
    """One catalog row: a compressed ``(field, step)`` container."""

    field: str
    step: int
    path: str  # store-relative container path
    error_bound: float
    codec: str
    n_levels: int
    n_blocks: int
    nbytes_original: int
    nbytes_compressed: int

    @property
    def compression_ratio(self) -> float:
        return self.nbytes_original / max(1, self.nbytes_compressed)

    @property
    def key(self) -> str:
        return f"{self.field}/{self.step:05d}"


def _entry_key(field: str, step: int) -> str:
    return f"{field}/{int(step):05d}"


class Store:
    """Chunked, indexed compressed-array store rooted at a directory.

    Parameters
    ----------
    root:
        Store directory; created (with an empty manifest) if missing.
    compressor:
        :class:`MultiResolutionCompressor` whose codec and unit size define
        how appended data is blocked and encoded (default: SZ3, unit 16).
    engine:
        :class:`CodecEngine` used to batch block encode/decode; defaults to
        a serial engine matching ``compressor``.  Pass a thread/process
        engine to scale appends and reads with cores.
    """

    def __init__(
        self,
        root: Union[str, Path],
        compressor: Optional[MultiResolutionCompressor] = None,
        engine: Optional[CodecEngine] = None,
    ) -> None:
        self.root = Path(root)
        created = not self.root.exists()
        self.root.mkdir(parents=True, exist_ok=True)
        self.compressor = compressor or MultiResolutionCompressor()
        self.engine = engine or CodecEngine.from_compressor(self.compressor)
        self._entries: Dict[str, StoreEntry] = {}
        self._block_cache = None  # shared by every lazy view, built on first use
        self._manifest_sig: Optional[Tuple[int, int]] = None
        self._refresh_lock = threading.Lock()
        self._load_manifest()
        # A directory this constructor just created is unambiguously ours, so
        # the empty manifest is materialised immediately — a freshly split
        # shard store with no entries yet must still be servable by `repro
        # serve`.  Pre-existing directories keep the lazy behaviour: nothing
        # is written into a directory that was not already a store.
        if created and not self.manifest_path.exists():
            self._write_manifest()

    # -- manifest -------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _manifest_stat(self) -> Optional[Tuple[int, int]]:
        try:
            st = self.manifest_path.stat()
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def _load_manifest(self) -> None:
        # The signature is taken *before* reading: racing a concurrent writer
        # can only make the next refresh re-read, never miss an update.
        self._manifest_sig = self._manifest_stat()
        # A missing manifest is an empty store; it is only materialised by the
        # first append, so read-only operations never write into a directory
        # that was not already a store.
        if not self.manifest_path.exists():
            return
        try:
            raw = json.loads(self.manifest_path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"{self.manifest_path}: corrupt store manifest ({exc})") from exc
        if raw.get("format") != "repro-store-manifest":
            raise ValueError(f"{self.manifest_path}: not a store manifest")
        if int(raw.get("version", 0)) != MANIFEST_VERSION:
            raise ValueError(
                f"{self.manifest_path}: unsupported manifest version {raw.get('version')}"
            )
        self._entries = {
            key: StoreEntry(**value) for key, value in raw.get("entries", {}).items()
        }

    def _write_manifest(self) -> None:
        payload = {
            "format": "repro-store-manifest",
            "version": MANIFEST_VERSION,
            "entries": {key: asdict(e) for key, e in sorted(self._entries.items())},
        }
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True), "utf-8")
        os.replace(tmp, self.manifest_path)
        self._manifest_sig = self._manifest_stat()

    def refresh(self) -> bool:
        """Pick up catalog changes written by another process; True if any.

        Append-as-you-simulate means a writer (the in-situ pipeline) and
        readers (analysis, the read daemon) are often *different processes*
        on one store directory.  A refresh is a single ``stat`` in the steady
        state: the entry table is reloaded only when the manifest's
        ``(mtime_ns, size)`` signature changed.  If any previously-known
        entry row changed or vanished, its container bytes did too (the path
        is reused on overwrite and is the block-cache token), so the shared
        block cache is dropped; pure appends keep it warm.  Safe to call
        from many threads — the daemon does, once per request.
        """
        with self._refresh_lock:
            if self._manifest_stat() == self._manifest_sig:
                return False
            old = self._entries
            self._load_manifest()
            if self._block_cache is not None and any(
                old[key] != self._entries.get(key) for key in old
            ):
                self._block_cache.clear()
            return True

    # -- write path -----------------------------------------------------------
    def append(
        self,
        field: str,
        step: int,
        data: Union[AMRHierarchy, np.ndarray],
        error_bound: Union[float, ErrorBound, Mapping],
        unit_size: Optional[int] = None,
        overwrite: bool = False,
    ) -> StoreEntry:
        """Compress a snapshot into a new container and catalog it.

        ``data`` is either an :class:`AMRHierarchy` (one container level per
        resolution level, occupied blocks only) or a plain uniform array
        (stored as a single fully-occupied level).  ``error_bound`` accepts
        an :class:`~repro.api.error_bound.ErrorBound` spec, resolved against
        this snapshot; a bare float is an absolute bound.  Appending an
        existing ``(field, step)`` raises unless ``overwrite=True``.
        """
        key = _entry_key(field, step)
        if key in self._entries and not overwrite:
            raise ValueError(f"store already holds {key}; pass overwrite=True to replace")
        if key in self._entries and self._block_cache is not None:
            # Overwriting reuses the container path that keys the block cache.
            self._block_cache.clear()

        if isinstance(data, AMRHierarchy):
            level_inputs = [(lvl.level, lvl.data, lvl.mask) for lvl in data.levels]
        else:
            level_inputs = [(0, np.asarray(data, dtype=np.float64), None)]

        if isinstance(error_bound, (ErrorBound, Mapping)):
            if isinstance(data, AMRHierarchy):
                eb = MultiResolutionCompressor.resolve_hierarchy_bound(data, error_bound)
            else:
                eb = float(ErrorBound.coerce(error_bound).resolve(level_inputs[0][1]))
        else:
            eb = float(error_bound)
        block_levels: List[BlockLevel] = []
        for level_index, level_data, mask in level_inputs:
            block_set = self.compressor.prepare_unit_blocks(
                level_data, mask, unit_size=unit_size
            )
            payloads = self.engine.encode_blocks(block_set.blocks, eb)
            block_levels.append(
                BlockLevel(
                    level=level_index,
                    level_shape=block_set.level_shape,
                    unit_size=block_set.unit_size,
                    coords=block_set.coords,
                    payloads=payloads,
                )
            )

        rel_path = Path(field) / f"step{int(step):05d}.rps2"
        write_container(
            self.root / rel_path,
            block_levels,
            error_bound=eb,
            codec=self.compressor.describe(),
            metadata={"field": str(field), "step": int(step)},
        )
        reader = ContainerReader(self.root / rel_path)
        entry = StoreEntry(
            field=str(field),
            step=int(step),
            path=str(rel_path),
            error_bound=eb,
            codec=self.compressor.describe(),
            n_levels=len(block_levels),
            n_blocks=reader.n_blocks,
            nbytes_original=reader.nbytes_original,
            nbytes_compressed=reader.nbytes_compressed,
        )
        self._entries[key] = entry
        self._write_manifest()
        return entry

    def adopt(
        self,
        field: str,
        step: int,
        container: Union[str, Path],
        overwrite: bool = False,
    ) -> StoreEntry:
        """Catalog an existing ``.rps2`` container without re-encoding it.

        The ingest half of scale-out: a container written elsewhere (another
        process, another store shard, a hand-built test fixture) becomes a
        catalog row by reading its own header for the entry metadata.  A
        container outside the store root is copied to the canonical
        ``field/stepNNNNN.rps2`` path; one already under the root is adopted
        in place.
        """
        key = _entry_key(field, step)
        if key in self._entries and not overwrite:
            raise ValueError(f"store already holds {key}; pass overwrite=True to replace")
        if key in self._entries and self._block_cache is not None:
            self._block_cache.clear()

        container = Path(container)
        # Validate before any copy, so a bad file never lands in the store;
        # the reader is closed as soon as its header metadata is harvested
        # (adopt must not pin the source mmap — rebalancing drops the source
        # right after).
        reader = ContainerReader(container)
        try:
            meta = dict(
                error_bound=reader.error_bound,
                codec=reader.codec,
                n_levels=len(reader.levels),
                n_blocks=reader.n_blocks,
                nbytes_original=reader.nbytes_original,
                nbytes_compressed=reader.nbytes_compressed,
            )
        finally:
            reader.close()
        try:
            rel_path = container.resolve().relative_to(self.root.resolve())
        except ValueError:
            rel_path = Path(field) / f"step{int(step):05d}.rps2"
            target = self.root / rel_path
            target.parent.mkdir(parents=True, exist_ok=True)
            # Copy-then-rename, like write_container: an overwrite-adopt must
            # never expose a torn container to concurrent readers (a read
            # daemon may be serving this exact path).  The *copy* is
            # re-validated before the rename — a short write (full disk,
            # source truncated mid-copy) must not be catalogued either.
            tmp = target.with_name(target.name + ".tmp")
            try:
                shutil.copyfile(container, tmp)
                ContainerReader(tmp).close()
                os.replace(tmp, target)
            except BaseException:
                tmp.unlink(missing_ok=True)
                try:
                    target.parent.rmdir()  # only if the failure left it empty
                except OSError:
                    pass
                raise
        entry = StoreEntry(field=str(field), step=int(step), path=str(rel_path), **meta)
        self._entries[key] = entry
        self._write_manifest()
        return entry

    def drop(self, field: str, step: int, delete_file: bool = True) -> StoreEntry:
        """Remove an entry from the catalog (and, by default, its container.)

        The eviction half of rebalancing: after :meth:`adopt` has landed a
        container on the destination shard, ``drop`` retires it from the
        source.  The manifest rewrite is atomic (tmp + ``os.replace``), and
        on POSIX unlinking the container does not disturb readers that
        already hold it mmapped — they keep reading the old bytes until they
        close.  ``delete_file=False`` drops only the catalog row.
        """
        key = _entry_key(field, step)
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(
                f"store has no entry {key}; fields: {', '.join(self.fields()) or '(none)'}"
            )
        del self._entries[key]
        self._write_manifest()
        if delete_file:
            container = self.root / entry.path
            container.unlink(missing_ok=True)
            # Prune the field directory if the drop emptied it; best-effort.
            try:
                container.parent.rmdir()
            except OSError:
                pass
        if self._block_cache is not None:
            # The path may be reused by a future append/adopt under the same
            # cache token; stale decoded blocks must not survive the row.
            self._block_cache.clear()
        return entry

    # -- catalog queries ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[str, int]) -> bool:
        field, step = key
        return _entry_key(field, step) in self._entries

    def __iter__(self) -> Iterator[StoreEntry]:
        return iter(self.entries())

    def entries(self) -> List[StoreEntry]:
        """All catalog rows, ordered by field then step."""
        return [self._entries[k] for k in sorted(self._entries)]

    def fields(self) -> List[str]:
        return sorted({e.field for e in self._entries.values()})

    def steps(self, field: str) -> List[int]:
        return sorted(e.step for e in self._entries.values() if e.field == str(field))

    def entry(self, field: str, step: int) -> StoreEntry:
        key = _entry_key(field, step)
        try:
            return self._entries[key]
        except KeyError as exc:
            raise KeyError(
                f"store has no entry {key}; fields: {self.fields()}"
            ) from exc

    # -- read path ------------------------------------------------------------
    @property
    def block_cache(self):
        """Bounded LRU of decoded blocks shared by every view of this store."""
        if self._block_cache is None:
            from repro.array import BlockCache

            self._block_cache = BlockCache()
        return self._block_cache

    def get(self, field: str, step: int) -> ContainerReader:
        """Open a random-access reader over one container."""
        entry = self.entry(field, step)
        return ContainerReader(self.root / entry.path, engine=self.engine)

    def array(self, field: str, step: int, level: int = 0, fill_value: float = 0.0):
        """Lazy :class:`repro.array.CompressedArray` view over one snapshot.

        The primary read surface: ``store.array(f, s)[10:20, :, ::2]`` (or the
        ``store[f, s]`` shorthand) decodes only the blocks the selection
        touches, batched through the store's engine and cached in the shared
        :attr:`block_cache`.  ``.level(k)`` switches resolution levels.
        """
        return self.get(field, step).as_array(
            level=level, fill_value=fill_value, cache=self.block_cache
        )

    def __getitem__(self, key: Tuple[str, int]):
        """``store[field, step]`` — lazy view of one snapshot's finest level."""
        field, step = key
        return self.array(field, step)

    def read_roi(
        self,
        field: str,
        step: int,
        bbox: Sequence[Sequence[int]],
        level: int = 0,
    ) -> np.ndarray:
        """Decode a sub-region of one snapshot, touching only its blocks.

        A thin adapter over :meth:`array`; bbox validation and clamping follow
        :func:`repro.store.query.normalize_bbox` exactly as on every other
        read surface.
        """
        return self.array(field, step, level=level).read_roi(bbox)

    def summary(self) -> str:
        """Fixed-width catalog listing (what ``repro store ls`` prints)."""
        lines = [f"store {self.root} — {len(self)} entries"]
        header = f"{'field':<16} {'step':>6} {'levels':>6} {'blocks':>7} {'ratio':>8}  path"
        lines.append(header)
        lines.append("-" * len(header))
        for e in self.entries():
            lines.append(
                f"{e.field:<16} {e.step:>6d} {e.n_levels:>6d} {e.n_blocks:>7d} "
                f"{e.compression_ratio:>7.2f}x  {e.path}"
            )
        return "\n".join(lines)
