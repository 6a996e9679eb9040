"""Compressor interface shared by SZ2-, SZ3- and ZFP-like codecs.

The interface intentionally mirrors how the paper's workflow drives the real
compressors: ``compress(data, error_bound)`` with an absolute (or
value-range-relative) point-wise error bound, returning an opaque buffer whose
size defines the compression ratio, plus ``decompress`` back to the original
shape.  A convenience :meth:`Compressor.roundtrip` bundles both directions
with quality statistics, which is what every benchmark uses.
"""

from __future__ import annotations

import json
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Type, Union

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
]

_HEADER_MAGIC = b"RPCA"  # "RePro Compressed Array"


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


# -- registry ----------------------------------------------------------------
_REGISTRY: Dict[str, Callable[..., Compressor]] = {}


def register_compressor(name: str) -> Callable[[Type[Compressor]], Type[Compressor]]:
    """Class decorator adding a compressor to the global registry."""

    def deco(cls: Type[Compressor]) -> Type[Compressor]:
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def get_compressor(name: str, **kwargs) -> Compressor:
    """Instantiate a registered compressor by name (e.g. ``"sz3"``, ``"zfp"``)."""
    try:
        factory = _REGISTRY[name]
    except KeyError as exc:
        raise UnknownCompressorError(
            f"unknown compressor {name!r}; available: {sorted(_REGISTRY)}"
        ) from exc
    return factory(**kwargs)


def available_compressors() -> tuple:
    """Names of all registered compressors."""
    return tuple(sorted(_REGISTRY))
