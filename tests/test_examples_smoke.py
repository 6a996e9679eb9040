"""Smoke tests that the shipped examples run end to end.

Only the faster examples are executed (the full set is exercised manually /
in CI nightlies); each must complete without error and print its headline
metrics.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    assert path.exists(), f"example {name} is missing"
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "name,expected_fragment",
    [
        ("uncertainty_isosurface.py", "recovered by uncertainty"),
        ("warpx_adaptive_roi.py", "SZ3MR (pad+eb)"),
        ("store_random_access.py", "blocks decoded"),
        ("serve_shared_cache.py", "0 new decodes"),
        ("http_gateway.py", "bit-for-bit vs the local store"),
    ],
)
def test_example_runs_and_reports(name, expected_fragment, capsys):
    output = _run_example(name, capsys)
    assert expected_fragment in output


def test_quickstart_reports_quality(capsys):
    output = _run_example("quickstart.py", capsys)
    assert "compression ratio" in output
    assert "PSNR" in output
