"""Regenerate the codec parity fixtures under ``tests/fixtures/codec/``.

Usage::

    PYTHONPATH=src python scripts/make_codec_fixtures.py [OUT_DIR]

Each case is a seeded stack of same-shape blocks encoded one array at a
time with ``Compressor.compress``.  The script writes every payload blob to
``payloads.bin`` and, in ``manifest.json``, each case's inputs (codec,
options, block shape, count, seed, error bound), the blob offsets and a
blake2b digest of each reconstruction viewed as uint64.
``tests/test_codec_batch.py`` checks the batched codec against them: decode
must reproduce every digest, and encode must reproduce every payload's
unpacked streams and metadata.

Regenerate only on an intentional change of the payload format or of the
codec's output.  The fixtures pin the bytes the store has already written,
so regenerating them to make a failing parity test pass hides exactly the
change the test exists to catch.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "codec"


def _cases() -> List[Dict]:
    cases = []
    for unit in (2, 3, 4, 5, 8, 16, 17, 33):
        for ndim in (1, 2, 3):
            blocks = 2 if unit ** ndim > 10_000 else 3
            cases.append({"codec": "sz3", "options": {}, "shape": [unit] * ndim,
                          "blocks": blocks})
    variants = {
        "linear": {"interpolation": "linear"},
        "huffman": {"entropy": "huffman"},
        "linear_huffman": {"interpolation": "linear", "entropy": "huffman"},
        "adaptive": {"level_error_bounds": "adaptive"},
        "tiny_radius": {"quantizer_radius": 2},
        "tiny_radius_huffman": {"quantizer_radius": 3, "entropy": "huffman"},
    }
    for shape in ([5], [17, 17], [8, 8, 8], [17, 17, 17]):
        for options in variants.values():
            cases.append({"codec": "sz3", "options": dict(options), "shape": shape,
                          "blocks": 1 if len(shape) == 3 and shape[0] > 8 else 3})
    # More blocks than one batch holds at 8^3.
    cases.append({"codec": "sz3", "options": {}, "shape": [8, 8, 8], "blocks": 65})
    # Other codecs, for the decode call that mixes codecs and shapes.
    cases.append({"codec": "sz2", "options": {}, "shape": [8, 8, 8], "blocks": 2})
    cases.append({"codec": "zfp", "options": {}, "shape": [8, 8, 8], "blocks": 2})
    cases.append({"codec": "sz2", "options": {}, "shape": [12, 12], "blocks": 2})
    for seed, case in enumerate(cases):
        opts = "-".join(f"{k}={v}" for k, v in sorted(case["options"].items()))
        shape = "x".join(str(s) for s in case["shape"])
        case["name"] = f"{case['codec']}-{shape}-b{case['blocks']}" + (f"-{opts}" if opts else "")
        case["seed"] = seed
        case["error_bound"] = 1e-2
    return cases


CASES = _cases()


def make_blocks(case: Dict) -> np.ndarray:
    """The seeded input stack ``(blocks, *shape)`` of one case.

    A few random sinusoids plus small noise: smooth enough to predict, rough
    enough that every interpolation level codes nonzero residuals.
    """
    rng = np.random.default_rng([case["seed"], 2024])
    shape = tuple(case["shape"])
    grids = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in shape], indexing="ij")
    out = np.empty((case["blocks"],) + shape, dtype=np.float64)
    for b in range(case["blocks"]):
        field = np.zeros(shape, dtype=np.float64)
        for _ in range(3):
            freq = rng.uniform(0.05, 0.6, size=len(shape))
            phase = rng.uniform(0.0, 2 * np.pi)
            field += np.sin(sum(f * g for f, g in zip(freq, grids)) + phase)
        field += 0.05 * rng.standard_normal(shape)
        out[b] = field
    return out


def build_codec(case: Dict):
    """The compressor of one case, with JSON options resolved."""
    from repro.compressors import get_compressor
    from repro.core.adaptive_eb import adaptive_level_error_bounds

    options = dict(case["options"])
    if options.get("level_error_bounds") == "adaptive":
        options["level_error_bounds"] = adaptive_level_error_bounds()
    return get_compressor(case["codec"], **options)


def digest(array: np.ndarray) -> str:
    """blake2b of a float64 reconstruction's bits (compared as uint64)."""
    bits = np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)
    return hashlib.blake2b(bits.tobytes(), digest_size=16).hexdigest()


def main(out_dir: Path = DEFAULT_OUT) -> None:
    from repro.compressors.base import CompressedArray

    out_dir.mkdir(parents=True, exist_ok=True)
    blobs = bytearray()
    manifest = []
    for case in CASES:
        codec = build_codec(case)
        entries = []
        for block in make_blocks(case):
            blob = codec.compress(block, case["error_bound"]).to_bytes()
            recon = codec.decompress(CompressedArray.from_bytes(blob))
            entries.append({"offset": len(blobs), "length": len(blob),
                            "digest": digest(recon)})
            blobs += blob
        manifest.append(dict(case, payloads=entries))
    (out_dir / "payloads.bin").write_bytes(bytes(blobs))
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", "utf-8")
    print(f"{len(manifest)} cases, {len(blobs)} payload bytes -> {out_dir}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT)
