"""SZ3-like global interpolation compressor.

The compressor predicts the whole array with the multi-level separable
interpolation of :mod:`repro.compressors.interpolation`, quantizes prediction
residuals with a strict absolute error bound, and entropy-codes the resulting
integer stream.  Two hooks are exposed because the paper's SZ3MR needs them:

* ``level_error_bounds`` — a callable mapping ``(level, max_level, base_eb)``
  to the error bound used at that interpolation level.  The default is the
  constant base bound (original SZ3); SZ3MR installs the adaptive schedule of
  §III-A (Improvement 2).
* ``interpolation`` — ``"linear"`` or ``"cubic"`` prediction kernel.

The quantization-code order is fully determined by the array shape, so the
payload only carries three streams (codes, unpredictable values, anchors).

The codec runs one traversal for a whole batch of same-shape arrays (the unit
blocks of a level): the arrays are stacked on a leading axis and every
interpolation step predicts, quantizes or dequantizes all of them at once.
The per-array ``compress``/``decompress``/``decompress_into`` are batches of
one.  Streams stay per array, so a batch writes and reads exactly the
payload bytes of its arrays encoded one at a time.  Inside a batch, an
``entropy`` span times stream (un)packing and lossless/Huffman coding, and an
``interpolate`` span the traversal with its (de)quantization.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compressors.base import CompressedArray, Compressor, register_compressor
from repro.compressors.errors import CompressionError, DecompressionError
from repro.compressors.huffman import huffman_decode, huffman_encode
from repro.compressors.interpolation import InterpolationPlan, build_plan, predict_step
from repro.compressors.lossless import (
    decode_float_array,
    decode_int_array,
    encode_float_array,
    encode_int_array,
    lossless_compress,
    lossless_decompress,
    pack_streams,
    unpack_streams,
)
from repro.compressors.quantizer import DEFAULT_CODE_RADIUS, LinearQuantizer
from repro.obs import span as obs_span

__all__ = ["SZ3Compressor", "constant_level_error_bounds"]

LevelErrorBoundFn = Callable[[int, int, float], float]


def constant_level_error_bounds(level: int, max_level: int, base_eb: float) -> float:
    """Original SZ3 behaviour: the same error bound at every interpolation level."""
    return base_eb


@register_compressor("sz3")
class SZ3Compressor(Compressor):
    """Global interpolation-based error-bounded lossy compressor."""

    def __init__(
        self,
        interpolation: str = "cubic",
        level_error_bounds: Optional[LevelErrorBoundFn] = None,
        entropy: str = "zlib",
        lossless_level: int = 6,
        quantizer_radius: int = DEFAULT_CODE_RADIUS,
    ) -> None:
        super().__init__()
        if interpolation not in ("linear", "cubic"):
            raise ValueError("interpolation must be 'linear' or 'cubic'")
        if entropy not in ("zlib", "huffman"):
            raise ValueError("entropy must be 'zlib' or 'huffman'")
        self.interpolation = interpolation
        self.level_error_bounds = level_error_bounds or constant_level_error_bounds
        self.entropy = entropy
        self.lossless_level = int(lossless_level)
        self.quantizer = LinearQuantizer(radius=quantizer_radius)

    # -- compression --------------------------------------------------------
    def _compress_impl(self, data: np.ndarray, error_bound: float) -> Tuple[bytes, Dict]:
        return self._compress_batch_impl(data[np.newaxis], error_bound)[0]

    def _compress_batch_impl(
        self, blocks: np.ndarray, error_bound: float
    ) -> List[Tuple[bytes, Dict]]:
        n_blocks = blocks.shape[0]
        plan = build_plan(blocks.shape[1:])
        # Per-level error bounds are resolved once and stored in the metadata
        # so the decompressor replays exactly the same schedule.
        level_ebs = {
            level: float(self.level_error_bounds(level, plan.max_level, error_bound))
            for level in range(1, plan.max_level + 1)
        }
        for level, eb in level_ebs.items():
            if eb <= 0:
                raise CompressionError(f"level {level} error bound must be positive, got {eb}")

        with obs_span("interpolate", blocks=n_blocks):
            codes, exact, anchors = self._quantize_batch(blocks, plan, level_ebs)
        with obs_span("entropy", blocks=n_blocks):
            return [
                (self._pack(codes[b], exact[b], anchors[b]), {
                    "interpolation": self.interpolation,
                    "entropy": self.entropy,
                    "max_level": plan.max_level,
                    "level_error_bounds": {str(k): v for k, v in level_ebs.items()},
                    "n_unpredictable": int(exact[b].size),
                    "quantizer_radius": self.quantizer.radius,
                })
                for b in range(n_blocks)
            ]

    def _quantize_batch(
        self, data: np.ndarray, plan: InterpolationPlan, level_ebs: Dict[int, float]
    ) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray]:
        """One traversal over a ``(B, *shape)`` stack: per-array codes
        ``(B, n_codes)``, exact values (a list of B arrays) and anchors."""
        n_blocks = data.shape[0]
        recon = np.zeros_like(data)
        anchors = data[plan.batched_anchor]
        recon[plan.batched_anchor] = anchors
        codes = np.empty((n_blocks, plan.n_codes), dtype=np.int64)
        # Steps with unpredictable values keep their sentinel mask and target
        # values; one boolean gather at the end yields each array's exact
        # stream in its code order.
        masks, values = [], []
        cursor = 0
        for step in plan.steps:
            pred = predict_step(recon, step, mode=self.interpolation, batched=True)
            target = data[step.batched]
            qr = self.quantizer.quantize(target, pred, level_ebs[step.level])
            recon[step.batched] = qr.reconstructed.reshape(pred.shape)
            seg = qr.codes.reshape(n_blocks, step.count)
            codes[:, cursor : cursor + step.count] = seg
            cursor += step.count
            if qr.exact_values.size:
                masks.append(seg == self.quantizer.sentinel)
                values.append(target.reshape(n_blocks, step.count))
        if masks:
            mask = np.concatenate(masks, axis=1)
            flat = np.concatenate(values, axis=1)[mask]
            exact = np.split(flat, np.cumsum(mask.sum(axis=1))[:-1])
        else:
            exact = [np.zeros(0, dtype=np.float64)] * n_blocks
        return codes, exact, anchors.reshape(n_blocks, -1)

    def _pack(self, codes: np.ndarray, exact: np.ndarray, anchors: np.ndarray) -> bytes:
        if self.entropy == "huffman":
            codes_blob = b"H" + lossless_compress(
                huffman_encode(codes), backend="zlib", level=self.lossless_level
            )
        else:
            codes_blob = b"Z" + encode_int_array(codes, level=self.lossless_level)
        return pack_streams(
            {
                "codes": codes_blob,
                "exact": encode_float_array(exact, level=self.lossless_level),
                "anchors": encode_float_array(anchors, level=self.lossless_level),
            }
        )

    # -- decompression ------------------------------------------------------
    @classmethod
    def batch_key(cls, compressed: CompressedArray) -> object:
        meta = compressed.metadata if isinstance(compressed.metadata, dict) else {}
        return (
            tuple(compressed.shape),
            meta.get("interpolation"),
            meta.get("quantizer_radius"),
            meta.get("level_error_bounds"),
        )

    def _decompress_impl(self, compressed: CompressedArray) -> np.ndarray:
        return self._decompress_batch_impl([compressed])[0]

    def _decompress_into_impl(
        self, compressed: CompressedArray, out: np.ndarray
    ) -> Optional[np.ndarray]:
        # The interpolation traversal is a sequence of strided assignments, so
        # it reconstructs directly inside any float64 destination view — e.g.
        # a window of a query's output array — with no block temporary.
        if out.dtype != np.float64:
            return self._decompress_impl(compressed)
        # The traversal writes every cell, but zero-fill first so correctness
        # never rests on that coverage argument.
        out[...] = 0.0
        self._reconstruct([compressed], out[np.newaxis])
        return None

    def _decompress_batch_impl(self, run: List[CompressedArray]) -> List[np.ndarray]:
        shape = tuple(run[0].shape)
        if len(run) == 1:
            block = np.zeros(shape, dtype=np.float64)
            self._reconstruct(run, block[np.newaxis])
            return [block]
        stack = np.zeros((len(run),) + shape, dtype=np.float64)
        self._reconstruct(run, stack)
        # Copies, not views: a cached view would pin the whole batch buffer.
        return [block.copy() for block in stack]

    def _decompress_batch_into_impl(
        self,
        run: List[CompressedArray],
        outs: Sequence[np.ndarray],
        srcs: Optional[Sequence],
    ) -> None:
        if len(run) == 1:  # a lone block still reconstructs in place
            self.decompress_into(run[0], outs[0], src=None if srcs is None else srcs[0])
            return
        stack = np.zeros((len(run),) + tuple(run[0].shape), dtype=np.float64)
        self._reconstruct(run, stack)
        for i, block in enumerate(stack):
            src = None if srcs is None else srcs[i]
            np.copyto(outs[i], block if src is None else block[src])

    def _reconstruct(self, run: Sequence[CompressedArray], recon: np.ndarray) -> None:
        """Decode a run of same-key payloads into the zeroed ``(B, *shape)`` ``recon``."""
        n_blocks = len(run)
        plan = build_plan(tuple(run[0].shape))
        interpolation, radius, level_ebs = _decode_params(run[0].metadata, plan)
        sentinel = LinearQuantizer(radius=radius).sentinel

        codes = np.empty((n_blocks, plan.n_codes), dtype=np.int64)
        exact: List[np.ndarray] = []
        with obs_span("entropy", blocks=n_blocks):
            anchors = np.empty(recon[plan.batched_anchor].shape, dtype=np.float64)
            for b, compressed in enumerate(run):
                codes[b], exact_b, anchors[b] = _unpack(compressed, plan, anchors[b])
                exact.append(exact_b)

        with obs_span("interpolate", blocks=n_blocks):
            unpredictable = codes == sentinel
            counts = np.count_nonzero(unpredictable, axis=1)
            for b, exact_b in enumerate(exact):
                if exact_b.size != counts[b]:
                    raise DecompressionError(
                        f"exact-value stream holds {exact_b.size} values for "
                        f"{int(counts[b])} unpredictable codes"
                    )
            # Each array's exact values land on its sentinel positions up
            # front (row-major order is each array's code order), so a step
            # substitutes them with one masked copy and no cursor.
            fill = None
            if counts.any():
                fill = np.zeros(codes.shape, dtype=np.float64)
                fill[unpredictable] = np.concatenate(exact)

            recon[plan.batched_anchor] = anchors
            cursor = 0
            for step in plan.steps:
                pred = predict_step(recon, step, mode=interpolation, batched=True)
                segment = slice(cursor, cursor + step.count)
                cursor += step.count
                values = pred + codes[:, segment].reshape(pred.shape) * (
                    2.0 * level_ebs[step.level]
                )
                if fill is not None:
                    np.copyto(
                        values,
                        fill[:, segment].reshape(pred.shape),
                        where=unpredictable[:, segment].reshape(pred.shape),
                    )
                recon[step.batched] = values


def _decode_params(
    meta: Dict, plan: InterpolationPlan
) -> Tuple[str, int, Dict[int, float]]:
    """Interpolation kernel, quantizer radius and per-level bounds of a payload."""
    try:
        level_ebs = {int(k): float(v) for k, v in meta["level_error_bounds"].items()}
        interpolation = meta.get("interpolation", "cubic")
        radius = int(meta.get("quantizer_radius", DEFAULT_CODE_RADIUS))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DecompressionError(f"malformed sz3 metadata: {exc!r}") from exc
    for step in plan.steps:
        eb = level_ebs.get(step.level)
        if eb is None:
            raise DecompressionError(f"missing error bound for level {step.level}")
        if not eb > 0:
            raise DecompressionError(f"level {step.level} error bound must be positive, got {eb}")
    if interpolation not in ("linear", "cubic"):
        raise DecompressionError(f"unknown interpolation {interpolation!r}")
    if radius < 2:
        raise DecompressionError(f"quantizer radius must be at least 2, got {radius}")
    return interpolation, radius, level_ebs


def _unpack(
    compressed: CompressedArray, plan: InterpolationPlan, anchor_slot: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropy-decode one payload's codes, exact values and anchors (shaped
    like ``anchor_slot``), with every size checked against the plan."""
    streams = unpack_streams(compressed.payload)
    codes_blob = streams["codes"]
    tag, body = codes_blob[:1], codes_blob[1:]
    if tag == b"H":
        codes = huffman_decode(lossless_decompress(body))
    elif tag == b"Z":
        codes = decode_int_array(body)
    else:
        raise DecompressionError(f"unknown code-stream tag {bytes(tag)!r}")
    if codes.size < plan.n_codes:
        raise DecompressionError("quantization-code stream exhausted prematurely")
    if codes.size > plan.n_codes:
        raise DecompressionError(
            f"code stream has {codes.size - plan.n_codes} unused entries"
        )
    anchors = decode_float_array(streams["anchors"])
    if anchors.size != anchor_slot.size:
        raise DecompressionError("anchor stream size mismatch")
    return codes, decode_float_array(streams["exact"]), anchors.reshape(anchor_slot.shape)
