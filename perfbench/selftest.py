#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It proves that

* a tiny-size run of every workload, untraced and traced, passes every check
  and reports every metric ``BENCHMARK.json`` names, with its unit;
* perturbing one result outside the program (one ulp of one read, or a
  read-back level pushed past the error bound) makes the checker fail the run;
* ``run.py`` exits non-zero without printing a result where the program is
  missing (a directory holding only ``BENCHMARK.json`` and ``perfbench/``).

Exits 0 when every case holds.  Takes about two minutes on a 2-CPU host.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402

SEED = 7
SECONDS = 1.0


def expect(condition, message) -> None:
    """A check that also holds under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def check_manifest() -> None:
    """BENCHMARK.json and run.py name the same metrics with the same units."""
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text("utf-8"))
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expect(e2e == run.END_TO_END, f"end_to_end differs: {e2e} vs {run.END_TO_END}")
    expect(layer == run.PER_LAYER, f"per_layer differs: {layer} vs {run.PER_LAYER}")
    expect([w["name"] for w in doc["workloads"]] == list(run.WORKLOADS), "workloads differ")


def one_ulp(out):
    """Move the first element of a read result by one ulp."""
    out = np.array(out, dtype=np.float64, copy=True)
    out.flat[0] = np.nextafter(out.flat[0], np.inf)
    return out


def past_bound(out):
    """Shift a whole read-back level by more than its value range."""
    out = np.array(out, dtype=np.float64, copy=True)
    return out + (float(np.ptp(out)) + 1.0)


def first_only(perturb):
    """A tamper hook that perturbs the first result it sees and no other."""
    seen = []

    def tamper(out):
        if seen:
            return out
        seen.append(True)
        return perturb(out)

    return tamper


def tiny_runs() -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(workload, SEED, SECONDS, trace, size="tiny")
            line = run.result_line(result, trace)
            label = f"{workload} trace={int(trace)}"
            expect(line["correct"], f"{label}: {result.mismatches}")
            expect(line["failed"] == 0, f"{label}: {result.errors}")
            expect(line["attempted"] > 0, label)
            table = run.PER_LAYER if trace else run.END_TO_END
            expect(set(line["metrics"]) == set(table), label)
            for name, metric in line["metrics"].items():
                expect(metric["unit"] == table[name], (label, name))
            print(f"ok   {label}: {line['attempted']} ops, all checks pass")


def negative_runs() -> None:
    cases = [("insitu_write", past_bound), ("analysis_local", one_ulp), ("serve_warm", one_ulp)]
    for workload, perturb in cases:
        result = run.run_workload(workload, SEED, SECONDS, False, size="tiny",
                                  tamper=first_only(perturb))
        line = run.result_line(result, False)
        expect(not line["correct"], f"{workload}: a perturbed result passed the checks")
        print(f"ok   {workload}: perturbed result reported ({result.mismatches[0]})")


def missing_program() -> None:
    bare = harness.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(harness.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "insitu_write",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "run.py succeeded without the program")
    expect('"correct"' not in proc.stdout, "run.py printed a result without the program")
    print(f"ok   missing program: exit {proc.returncode}, no result printed")


def main() -> int:
    harness.import_program()
    check_manifest()
    print("ok   BENCHMARK.json matches run.py's metric tables")
    missing_program()
    tiny_runs()
    negative_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
