"""Compressor interface shared by SZ2-, SZ3- and ZFP-like codecs.

The interface intentionally mirrors how the paper's workflow drives the real
compressors: ``compress(data, error_bound)`` with an absolute (or
value-range-relative) point-wise error bound, returning an opaque buffer whose
size defines the compression ratio, plus ``decompress`` back to the original
shape.  A convenience :meth:`Compressor.roundtrip` bundles both directions
with quality statistics, which is what every benchmark uses.

Unit blocks come in runs of one shape, so the interface also has batch
entry points — :meth:`Compressor.compress_batch`,
:meth:`Compressor.decompress_batch` and
:meth:`Compressor.decompress_batch_into`.  They split their input into
:func:`batch_runs` and hand each run to a hook that by default loops over
the per-array methods; a codec whose work batches (SZ3's interpolation
traversal) overrides the hooks.  Either way a batch call returns exactly
what the per-array calls would.
"""

from __future__ import annotations

import json
import math
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from repro.api.error_bound import ErrorBound
from repro.compressors.errors import (
    CompressionError,
    DecompressionError,
    ErrorBoundViolation,
    UnknownCompressorError,
)

__all__ = [
    "CompressedArray",
    "RoundTripResult",
    "Compressor",
    "register_compressor",
    "get_compressor",
    "available_compressors",
    "batch_capacity",
    "batch_runs",
    "BATCH_BYTES",
]

_HEADER_MAGIC = b"RPCA"  # "RePro Compressed Array"

#: Byte budget of one batched codec call: each block is charged its decoded
#: float64 bytes plus :data:`_BLOCK_OVERHEAD`.  A batched SZ3 traversal needs
#: scratch of about four times the decoded bytes (reconstruction, codes and
#: per-step temporaries), so the budget keeps a multi-block decode-into
#: within a couple of MiB of its output while still amortising per-call
#: dispatch over dozens of small blocks.
BATCH_BYTES = 256 << 10

#: What one parsed payload (header, metadata objects) holds while its batch
#: is alive, about 1.5 KiB measured; it dominates for tiny unit sizes.
_BLOCK_OVERHEAD = 2 << 10


def batch_capacity(shape: Sequence[int]) -> int:
    """Blocks of ``shape`` one batched call takes (at least one)."""
    return max(1, BATCH_BYTES // (math.prod(shape) * 8 + _BLOCK_OVERHEAD))


@dataclass
class CompressedArray:
    """A compressed array plus the metadata needed to decode and account for it.

    Attributes
    ----------
    codec:
        Name of the compressor that produced the payload.
    payload:
        Opaque compressed bytes (codec-specific container).
    shape, dtype:
        Original array shape and dtype string, used to rebuild the output.
    error_bound:
        Absolute error bound the payload was produced with.
    nbytes_original:
        Size of the uncompressed array in bytes.
    metadata:
        Codec-specific extra information (e.g. per-level error bounds,
        padding configuration) that is useful for analysis; it is serialised
        with the payload.
    """

    codec: str
    payload: bytes
    shape: tuple
    dtype: str
    error_bound: float
    nbytes_original: int
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def nbytes_compressed(self) -> int:
        """Size of the compressed payload in bytes (payload + small header)."""
        return len(self.payload) + self._header_size()

    @property
    def compression_ratio(self) -> float:
        """Original bytes divided by compressed bytes."""
        return self.nbytes_original / max(1, self.nbytes_compressed)

    def _header_size(self) -> int:
        return len(self._header_bytes())

    def _header_bytes(self) -> bytes:
        meta = {
            "codec": self.codec,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "error_bound": self.error_bound,
            "nbytes_original": self.nbytes_original,
            "metadata": self.metadata,
        }
        body = json.dumps(meta, sort_keys=True).encode("utf-8")
        return _HEADER_MAGIC + struct.pack("<I", len(body)) + body

    def to_bytes(self) -> bytes:
        """Serialise header + payload to a single byte string (for file I/O)."""
        return b"".join((self._header_bytes(), self.payload))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CompressedArray":
        """Invert :meth:`to_bytes`.

        Accepts any bytes-like object.  Handed a ``memoryview`` — how the
        store's coalesced payload fetches arrive — the payload stays a
        zero-copy view into the caller's buffer; only the small JSON header
        is materialised.
        """
        if bytes(blob[:4]) != _HEADER_MAGIC:
            raise DecompressionError("not a CompressedArray blob (bad magic)")
        (length,) = struct.unpack_from("<I", blob, 4)
        meta = json.loads(bytes(blob[8 : 8 + length]).decode("utf-8"))
        payload = blob[8 + length :]
        return cls(
            codec=meta["codec"],
            payload=payload,
            shape=tuple(meta["shape"]),
            dtype=meta["dtype"],
            error_bound=float(meta["error_bound"]),
            nbytes_original=int(meta["nbytes_original"]),
            metadata=meta.get("metadata", {}),
        )


def batch_runs(items: Iterable[CompressedArray]) -> Iterator[List[CompressedArray]]:
    """Split payloads into the runs one batched call decodes.

    A run is a maximal stretch of consecutive payloads sharing codec and
    :meth:`Compressor.batch_key`, capped at :func:`batch_capacity` blocks.
    Runs are consecutive, so concatenating their outputs keeps the input
    order, and ``items`` may be a lazy iterable: only one run's payloads are
    held at a time.
    """
    run: List[CompressedArray] = []
    run_key: Any = None
    cap = 0
    for item in items:
        key = (item.codec, _codec_class(item.codec).batch_key(item))
        if run and (len(run) >= cap or key != run_key):
            yield run
            run = []
        if not run:
            run_key, cap = key, batch_capacity(item.shape)
        run.append(item)
    if run:
        yield run


@dataclass
class RoundTripResult:
    """Compression + decompression outcome with basic quality statistics."""

    compressed: CompressedArray
    decompressed: np.ndarray
    max_error: float
    mse: float
    psnr: float

    @property
    def compression_ratio(self) -> float:
        return self.compressed.compression_ratio


class Compressor(ABC):
    """Abstract error-bounded lossy compressor.

    Subclasses implement :meth:`_compress_impl` / :meth:`_decompress_impl`;
    the base class handles error-bound-mode resolution (absolute vs
    value-range relative), bookkeeping and verification.
    """

    #: registry name; subclasses must override
    name: str = "abstract"

    def __init__(self) -> None:
        if type(self) is not Compressor and not self.name:
            raise ValueError("compressor subclasses must define a name")

    # -- public API ---------------------------------------------------------
    def compress(
        self,
        data: np.ndarray,
        error_bound: Union[float, ErrorBound, Dict[str, Any]],
    ) -> CompressedArray:
        """Compress ``data`` under a point-wise error bound.

        Parameters
        ----------
        data:
            1-, 2- or 3-dimensional floating point array.
        error_bound:
            An :class:`~repro.api.error_bound.ErrorBound` spec (or its dict
            form), resolved against ``data``; a bare float is an absolute
            bound.
        """
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if arr.ndim not in (1, 2, 3):
            raise CompressionError(f"{self.name} supports 1-3 dimensional data, got {arr.ndim}D")
        if arr.size == 0:
            raise CompressionError("cannot compress an empty array")
        try:
            spec = ErrorBound.coerce(error_bound)
        except ValueError as exc:
            raise CompressionError(str(exc)) from exc
        eb = float(spec.resolve(arr))
        if eb <= 0:
            raise CompressionError("error bound must be strictly positive")
        payload, metadata = self._compress_impl(arr, eb)
        return CompressedArray(
            codec=self.name,
            payload=payload,
            shape=arr.shape,
            dtype=str(data.dtype if isinstance(data, np.ndarray) else arr.dtype),
            error_bound=eb,
            nbytes_original=arr.size * 8,
            metadata=metadata,
        )

    def decompress(self, compressed: CompressedArray) -> np.ndarray:
        """Reconstruct the array from a :class:`CompressedArray`."""
        if compressed.codec != self.name:
            raise DecompressionError(
                f"payload was produced by {compressed.codec!r}, not {self.name!r}"
            )
        out = self._decompress_impl(compressed)
        return out.reshape(compressed.shape)

    def decompress_into(
        self, compressed: CompressedArray, out: np.ndarray, src=None
    ) -> np.ndarray:
        """Reconstruct straight into a caller-preallocated destination.

        ``out`` receives the reconstruction (restricted to the ``src`` index
        window when given, so an edge block pastes only its overlap); it may
        be any float64 view — typically a strided window of a query's output
        array.  Codecs that implement :meth:`_decompress_into_impl` write
        their final reconstruction pass directly into ``out`` (no per-block
        temporary); others fall back to decode-then-copy, so the call is
        always correct and at worst costs what the two-step path did.
        """
        if compressed.codec != self.name:
            raise DecompressionError(
                f"payload was produced by {compressed.codec!r}, not {self.name!r}"
            )
        if src is None and tuple(out.shape) == tuple(compressed.shape):
            result = self._decompress_into_impl(compressed, out)
            if result is None:  # codec reconstructed in place
                return out
            np.copyto(out, result.reshape(compressed.shape))
            return out
        block = self._decompress_impl(compressed).reshape(compressed.shape)
        np.copyto(out, block if src is None else block[src])
        return out

    # -- batches of same-shape arrays -----------------------------------------
    @classmethod
    def batch_key(cls, compressed: CompressedArray) -> object:
        """What payloads must share to decode in one batched call.

        Compared with ``==`` between neighbours only.  The default is the
        shape; a codec whose batch hook shares decode parameters across the
        batch adds them.
        """
        return tuple(compressed.shape)

    def compress_batch(self, blocks: np.ndarray, error_bound: float) -> List[CompressedArray]:
        """Compress each array of a ``(n, *shape)`` stack under one absolute bound.

        Returns what ``[compress(block, error_bound) for block in blocks]``
        would, byte for byte, in batches of :func:`batch_capacity` blocks.
        """
        arr = np.ascontiguousarray(np.asarray(blocks, dtype=np.float64))
        if arr.ndim not in (2, 3, 4):
            raise CompressionError(
                f"{self.name} supports 1-3 dimensional data, got {arr.ndim - 1}D blocks"
            )
        if arr.shape[0] == 0:
            return []
        shape = arr.shape[1:]
        if arr[0].size == 0:
            raise CompressionError("cannot compress an empty array")
        eb = float(error_bound)
        if not (math.isfinite(eb) and eb > 0):
            raise CompressionError(f"error bound must be finite and positive, got {eb}")
        dtype = str(blocks.dtype if isinstance(blocks, np.ndarray) else arr.dtype)
        cap = batch_capacity(shape)
        out = []
        for start in range(0, arr.shape[0], cap):
            for payload, metadata in self._compress_batch_impl(arr[start : start + cap], eb):
                out.append(CompressedArray(
                    codec=self.name,
                    payload=payload,
                    shape=shape,
                    dtype=dtype,
                    error_bound=eb,
                    nbytes_original=arr[0].size * 8,
                    metadata=metadata,
                ))
        return out

    def decompress_batch(self, items: Sequence[CompressedArray]) -> List[np.ndarray]:
        """Reconstruct payloads of this codec, in order, one run at a time.

        Equal to ``[decompress(c) for c in items]``.  No returned block is a
        view into a buffer shared with other blocks, so caching one pins
        only its own bytes.
        """
        self._check_codec(items)
        out: List[np.ndarray] = []
        for run in batch_runs(items):
            out.extend(self._decompress_batch_impl(run))
        return out

    def decompress_batch_into(
        self,
        items: Sequence[CompressedArray],
        outs: Sequence[np.ndarray],
        srcs: Optional[Sequence] = None,
    ) -> None:
        """Reconstruct payloads into destinations: the batched :meth:`decompress_into`.

        ``outs`` and ``srcs`` are sliced per run, so lazy window sequences
        build only one run's views at a time.
        """
        self._check_codec(items)
        start = 0
        for run in batch_runs(items):
            stop = start + len(run)
            self._decompress_batch_into_impl(
                run, outs[start:stop], None if srcs is None else srcs[start:stop]
            )
            start = stop

    def _check_codec(self, items: Iterable[CompressedArray]) -> None:
        for compressed in items:
            if compressed.codec != self.name:
                raise DecompressionError(
                    f"payload was produced by {compressed.codec!r}, not {self.name!r}"
                )

    def roundtrip(
        self,
        data: np.ndarray,
        error_bound: Union[float, ErrorBound, Dict[str, Any]],
        *,
        verify: bool = False,
    ) -> RoundTripResult:
        """Compress then decompress, returning quality statistics.

        With ``verify=True`` an :class:`ErrorBoundViolation` is raised if the
        reconstruction exceeds the requested bound (used heavily in tests).
        """
        arr = np.asarray(data, dtype=np.float64)
        comp = self.compress(arr, error_bound)
        recon = self.decompress(comp)
        err = np.abs(recon - arr)
        max_err = float(err.max())
        mse = float(np.mean((recon - arr) ** 2))
        value_range = float(arr.max() - arr.min())
        if mse == 0:
            psnr = float("inf")
        elif value_range == 0:
            psnr = float("inf") if mse == 0 else float("-inf")
        else:
            psnr = 20.0 * np.log10(value_range) - 10.0 * np.log10(mse)
        if verify and max_err > comp.error_bound * (1 + 1e-9):
            raise ErrorBoundViolation(max_err, comp.error_bound)
        return RoundTripResult(
            compressed=comp, decompressed=recon, max_error=max_err, mse=mse, psnr=psnr
        )

    # -- subclass hooks -----------------------------------------------------
    @abstractmethod
    def _compress_impl(self, data: np.ndarray, error_bound: float):
        """Return ``(payload_bytes, metadata_dict)``."""

    @abstractmethod
    def _decompress_impl(self, compressed: CompressedArray) -> np.ndarray:
        """Return the flattened/ shaped reconstruction (reshaped by the caller)."""

    def _decompress_into_impl(
        self, compressed: CompressedArray, out: np.ndarray
    ) -> Optional[np.ndarray]:
        """Optionally reconstruct in place: write into ``out`` (shaped like the
        payload) and return ``None``, or return a freshly decoded array for the
        base class to copy.  The default defers to :meth:`_decompress_impl`."""
        return self._decompress_impl(compressed)

    def _compress_batch_impl(
        self, blocks: np.ndarray, error_bound: float
    ) -> List[Tuple[bytes, Dict]]:
        """``(payload, metadata)`` per array of a float64 stack of at most
        :func:`batch_capacity` arrays.  The default loops over
        :meth:`_compress_impl`."""
        return [self._compress_impl(block, error_bound) for block in blocks]

    def _decompress_batch_impl(self, run: List[CompressedArray]) -> List[np.ndarray]:
        """Reconstruct one :func:`batch_runs` run into shaped arrays that
        share no buffer.  The default loops over :meth:`_decompress_impl`."""
        return [self._decompress_impl(c).reshape(c.shape) for c in run]

    def _decompress_batch_into_impl(
        self,
        run: List[CompressedArray],
        outs: Sequence[np.ndarray],
        srcs: Optional[Sequence],
    ) -> None:
        """Reconstruct one run into its destinations.  The default loops
        over :meth:`decompress_into`."""
        for i, compressed in enumerate(run):
            self.decompress_into(compressed, outs[i], src=None if srcs is None else srcs[i])


# -- registry ----------------------------------------------------------------
_REGISTRY: Dict[str, Type[Compressor]] = {}


def register_compressor(name: str) -> Callable[[Type[Compressor]], Type[Compressor]]:
    """Class decorator adding a compressor to the global registry."""

    def deco(cls: Type[Compressor]) -> Type[Compressor]:
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def _codec_class(name: str) -> Type[Compressor]:
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise UnknownCompressorError(
            f"unknown compressor {name!r}; available: {sorted(_REGISTRY)}"
        ) from exc


def get_compressor(name: str, **kwargs) -> Compressor:
    """Instantiate a registered compressor by name (e.g. ``"sz3"``, ``"zfp"``)."""
    return _codec_class(name)(**kwargs)


def available_compressors() -> tuple:
    """Names of all registered compressors."""
    return tuple(sorted(_REGISTRY))
