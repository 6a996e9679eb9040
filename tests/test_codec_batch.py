"""Batched codec parity: a batch of B same-shape arrays is B single arrays.

The fixtures under ``tests/fixtures/codec/`` were encoded one array at a time
by the per-block codec (``scripts/make_codec_fixtures.py``).  Batched decode
must reproduce each reconstruction's digest and batched encode each
payload's unpacked streams, so neither the payload format nor a stored
block's meaning can drift.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.compressors import CompressionError, DecompressionError, get_compressor
from repro.compressors.base import CompressedArray, batch_capacity
from repro.compressors.huffman import huffman_decode
from repro.compressors.interpolation import build_plan
from repro.compressors.lossless import (
    decode_float_array,
    decode_int_array,
    encode_float_array,
    lossless_decompress,
    pack_streams,
    unpack_streams,
)
from repro.compressors.sz3 import SZ3Compressor
from repro.store import CodecEngine, Store
from repro.store.engine import decode_payloads, decode_payloads_into

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "codec"


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "make_codec_fixtures", ROOT / "scripts" / "make_codec_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIX = _load_script()
MANIFEST = json.loads((FIXTURES / "manifest.json").read_text("utf-8"))
BLOBS = (FIXTURES / "payloads.bin").read_bytes()
BY_NAME = {case["name"]: case for case in MANIFEST}
SZ3_CASES = [case["name"] for case in MANIFEST if case["codec"] == "sz3"]


def _blobs(case):
    return [BLOBS[p["offset"] : p["offset"] + p["length"]] for p in case["payloads"]]


def _sz3_streams(blob):
    """Decoded (codes, exact, anchors) of an sz3 payload: the comparison
    sits before entropy coding, so it does not depend on the zlib build."""
    streams = unpack_streams(CompressedArray.from_bytes(blob).payload)
    codes_blob = streams["codes"]
    if bytes(codes_blob[:1]) == b"H":
        codes = huffman_decode(lossless_decompress(codes_blob[1:]))
    else:
        codes = decode_int_array(codes_blob[1:])
    return codes, decode_float_array(streams["exact"]), decode_float_array(streams["anchors"])


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


class TestFixtureParity:
    def test_manifest_lists_the_script_cases(self):
        assert len(MANIFEST) == len(FIX.CASES)
        assert [c["name"] for c in MANIFEST] == [c["name"] for c in FIX.CASES]

    @pytest.mark.parametrize("name", list(BY_NAME))
    def test_batched_decode_matches_digest(self, name):
        case = BY_NAME[name]
        decoded = decode_payloads(_blobs(case))
        assert [FIX.digest(block) for block in decoded] == [
            p["digest"] for p in case["payloads"]
        ]

    @pytest.mark.parametrize("name", SZ3_CASES)
    def test_batched_encode_matches_streams_and_metadata(self, name):
        case = BY_NAME[name]
        codec = FIX.build_codec(case)
        encoded = codec.compress_batch(FIX.make_blocks(case), case["error_bound"])
        assert len(encoded) == len(case["payloads"])
        for new, blob in zip(encoded, _blobs(case)):
            old = CompressedArray.from_bytes(blob)
            assert new.metadata == old.metadata
            assert (new.shape, new.dtype, new.error_bound, new.nbytes_original) == (
                old.shape, old.dtype, old.error_bound, old.nbytes_original
            )
            for got, want in zip(_sz3_streams(new.to_bytes()), _sz3_streams(blob)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(_bits(got) if got.dtype.kind == "f" else got,
                                              _bits(want) if want.dtype.kind == "f" else want)

    def test_tiny_radius_fixtures_exercise_unpredictable_values(self):
        counts = [
            CompressedArray.from_bytes(blob).metadata["n_unpredictable"]
            for name in SZ3_CASES if "quantizer_radius" in name
            for blob in _blobs(BY_NAME[name])
        ]
        assert counts and min(counts) > 0

    def test_mixed_codecs_and_shapes_keep_their_order(self):
        names = ["sz3-8x8x8-b3", "sz2-8x8x8-b2", "sz3-5x5-b3", "zfp-8x8x8-b2",
                 "sz2-12x12-b2", "sz3-17-b3"]
        blobs, digests = [], []
        # Interleave one payload from each case per round.
        queues = [list(zip(_blobs(BY_NAME[n]), BY_NAME[n]["payloads"])) for n in names]
        while any(queues):
            for queue in queues:
                if queue:
                    blob, entry = queue.pop(0)
                    blobs.append(blob)
                    digests.append(entry["digest"])
        assert [FIX.digest(b) for b in decode_payloads(blobs)] == digests
        outs = [np.empty(CompressedArray.from_bytes(b).shape) for b in blobs]
        decode_payloads_into(blobs, outs)
        assert [FIX.digest(o) for o in outs] == digests


def _stack(shape, n, seed=3):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n,) + shape)
    for axis in range(1, len(shape) + 1):
        base = base.cumsum(axis=axis)
    return base


class TestBatchEqualsSingles:
    @pytest.mark.parametrize("shape", [(8, 8, 8), (5, 5), (33,), (17, 17, 17)])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    @pytest.mark.parametrize("options", [{}, {"quantizer_radius": 2, "entropy": "huffman"}])
    def test_budget_boundary(self, shape, delta, options):
        codec = SZ3Compressor(**options)
        n = max(1, batch_capacity(shape) + delta)
        blocks = _stack(shape, n)
        batch = codec.compress_batch(blocks, 0.05)
        singles = [codec.compress(block, 0.05) for block in blocks]
        if options:
            assert sum(c.metadata["n_unpredictable"] for c in batch) > 0
        assert [c.to_bytes() for c in batch] == [c.to_bytes() for c in singles]

        decoded = codec.decompress_batch(batch)
        for got, c in zip(decoded, singles):
            np.testing.assert_array_equal(_bits(got), _bits(codec.decompress(c)))
            assert got.base is None

        outs = [np.full(shape, np.nan) for _ in range(n)]
        codec.decompress_batch_into(batch, outs)
        for got, want in zip(outs, decoded):
            np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_decode_into_windows_paste_only_their_overlap(self):
        codec = SZ3Compressor(interpolation="linear")
        blocks = _stack((6, 7), 4)
        batch = codec.compress_batch(blocks, 0.02)
        canvas = np.full((4, 6, 7), -1.0)
        srcs = [None, (slice(1, 4), slice(0, 7)), None, (slice(0, 6), slice(2, 5))]
        outs = [canvas[0], canvas[1, :3, :], canvas[2], canvas[3, :, :3]]
        codec.decompress_batch_into(batch, outs, srcs)
        full = codec.decompress_batch(batch)
        np.testing.assert_array_equal(canvas[0], full[0])
        np.testing.assert_array_equal(canvas[1, :3], full[1][1:4])
        assert (canvas[1, 3:] == -1.0).all()
        np.testing.assert_array_equal(canvas[3, :, :3], full[3][:, 2:5])
        assert (canvas[3, :, 3:] == -1.0).all()

    def test_adaptive_schedule_batches(self):
        case = next(c for c in MANIFEST if "adaptive" in c["name"])
        codec = FIX.build_codec(case)
        blocks = _stack(tuple(case["shape"]), 5)
        batch = codec.compress_batch(blocks, 0.01)
        assert [c.to_bytes() for c in batch] == [
            codec.compress(b, 0.01).to_bytes() for b in blocks
        ]

    def test_other_codecs_keep_the_default_loop(self):
        blocks = _stack((8, 8), 3)
        for name in ("sz2", "zfp"):
            codec = get_compressor(name)
            batch = codec.compress_batch(blocks, 0.05)
            assert [c.to_bytes() for c in batch] == [
                codec.compress(b, 0.05).to_bytes() for b in blocks
            ]
            for got, c in zip(codec.decompress_batch(batch), batch):
                np.testing.assert_array_equal(got, codec.decompress(c))

    def test_batch_rejects_foreign_payloads(self):
        sz2 = get_compressor("sz2").compress(np.ones((4, 4)), 0.1)
        with pytest.raises(DecompressionError, match="sz2"):
            SZ3Compressor().decompress_batch([sz2])

    @pytest.mark.parametrize("eb", [0.0, -1.0, float("nan"), float("inf")])
    def test_batch_rejects_a_bad_bound(self, eb):
        with pytest.raises(CompressionError, match="finite and positive"):
            SZ3Compressor().compress_batch(np.zeros((2, 4, 4)), eb)

    def test_empty_stack_encodes_to_nothing(self):
        assert SZ3Compressor().compress_batch(np.zeros((0, 4, 4)), 0.1) == []
        assert decode_payloads([]) == []

    def test_plans_are_cached_per_shape(self):
        assert build_plan((8, 8, 8)) is build_plan([8, 8, 8])
        plan = build_plan((5, 9))
        assert plan.n_codes == sum(step.count for step in plan.steps)
        assert plan.n_codes == 5 * 9 - len(np.zeros((5, 9))[plan.anchor].ravel())


class TestSerialEngineDoesNotChunk:
    def test_serial_decode_is_one_call_split_only_by_the_budget(self, monkeypatch):
        blocks = _stack((16, 16, 16), 25)
        payloads = CodecEngine().encode_blocks(blocks, 0.05)
        runs = []
        original = SZ3Compressor._decompress_batch_impl

        def spy(self, run):
            runs.append(len(run))
            return original(self, run)

        monkeypatch.setattr(SZ3Compressor, "_decompress_batch_impl", spy)
        CodecEngine(executor="serial", chunksize=4).decode_blocks(payloads)
        cap = batch_capacity((16, 16, 16))
        assert runs == [cap] * (25 // cap) + ([25 % cap] if 25 % cap else [])

        runs.clear()
        CodecEngine(executor="thread", max_workers=2, chunksize=4).decode_blocks(payloads)
        assert sum(runs) == 25 and max(runs) <= 4


def _corrupt(compressed, exact):
    """Re-pack an sz3 payload with its exact-value stream replaced."""
    streams = dict(unpack_streams(compressed.payload))
    streams["exact"] = encode_float_array(exact)
    return CompressedArray(
        codec=compressed.codec,
        payload=pack_streams({k: bytes(v) for k, v in streams.items()}),
        shape=compressed.shape,
        dtype=compressed.dtype,
        error_bound=compressed.error_bound,
        nbytes_original=compressed.nbytes_original,
        metadata=compressed.metadata,
    )


class TestCorruptExactStream:
    @pytest.fixture
    def payload(self):
        codec = SZ3Compressor(quantizer_radius=4)
        compressed = codec.compress(_stack((9, 9), 1)[0], 0.01)
        assert compressed.metadata["n_unpredictable"] > 3
        return compressed

    def test_short_stream_is_a_typed_error(self, payload):
        exact = decode_float_array(unpack_streams(payload.payload)["exact"])
        bad = _corrupt(payload, exact[:3])
        want = f"holds 3 values for {exact.size} unpredictable codes"
        with pytest.raises(DecompressionError, match=want):
            SZ3Compressor().decompress(bad)
        with pytest.raises(DecompressionError, match=want):
            decode_payloads([bad.to_bytes()])
        with pytest.raises(DecompressionError, match=want):
            decode_payloads_into([bad.to_bytes()], [np.empty((9, 9))])

    def test_surplus_values_are_a_typed_error(self, payload):
        exact = decode_float_array(unpack_streams(payload.payload)["exact"])
        bad = _corrupt(payload, np.concatenate([exact, [1.0, 2.0]]))
        with pytest.raises(DecompressionError,
                           match=f"holds {exact.size + 2} values for {exact.size}"):
            decode_payloads([payload.to_bytes(), bad.to_bytes()])

    def test_gateway_maps_it_to_a_server_error(self):
        from repro.gateway import STATUS_BY_ERROR_TYPE

        assert STATUS_BY_ERROR_TYPE.get("DecompressionError", 500) == 500


class TestDecodedBlocksOwnTheirMemory:
    def test_cache_charges_each_block_only_its_own_bytes(self, tmp_path):
        from repro.core.mr_compressor import MultiResolutionCompressor

        field = _stack((32, 32, 32), 1)[0]
        store = Store(tmp_path / "s", MultiResolutionCompressor(unit_size=4))
        store.append("f", 0, field, 0.5)
        view = store["f", 0]
        for z in range(0, 32, 4):  # miss-heavy: each plane decodes 64 new blocks
            view[:, :, z]
        stats = view.cache.stats
        assert stats["misses"] == 8 * 64
        assert stats["bytes_resident"] == stats["nbytes"]

    def test_decode_payloads_returns_owned_blocks(self):
        blocks = _stack((4, 4, 4), 40)
        payloads = CodecEngine().encode_blocks(blocks, 0.05)
        for block in decode_payloads(payloads):
            assert block.base is None
