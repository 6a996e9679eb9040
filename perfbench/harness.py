"""Shared plumbing of the benchmark: paths, timing, statistics and run records."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run records, span files and scratch stores; listed in ``.gitignore``.
OUT = ROOT / ".perfbench_runs"

#: Every set-up is repeated this many times; ``setup_s`` is their median and
#: the last one feeds the timed loop.
SETUP_REPEATS = 3
#: The timed window is cut into this many equal slices, and the figures are
#: medians over the quietest KEEP share of them (see slice_summary).
SLICES = 10
KEEP = 0.5
#: Order of the untraced (False) and traced (True) windows of a traced run.
ABBA = (False, True, True, False)


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def latency_ms(latencies: Sequence[float]) -> Tuple[float, float]:
    """(p50, p90) in milliseconds of per-operation latencies in seconds."""
    if not latencies:
        return 0.0, 0.0
    ms = [x * 1e3 for x in latencies]
    if len(ms) == 1:
        return ms[0], ms[0]
    return median(ms), quantiles(ms, n=10, method="inclusive")[8]


def slice_summary(rows: Sequence[dict], durations: Optional[Dict[int, float]] = None,
                  record: Optional[dict] = None) -> Dict[str, float]:
    """Rate and latency metrics as medians over the window's quietest slices.

    Each row carries its ``slice`` and the host's cumulative CPU ``steal``
    seconds when it ended; a slice's rate divides by its entry in
    ``durations`` (wall-clock), or by the summed operation time of its rows
    when ``durations`` is ``None`` (single-client loops).  On a shared host
    the hypervisor takes CPUs away in bursts (steal), which slows every layer
    alike and swamps the differences a benchmark exists to show.  So the
    figures are medians over the slices whose steal is at most that of the
    :data:`KEEP` quantile; every slice and its steal go to the run record.
    """
    by_slice: Dict[int, List[dict]] = {}
    for row in rows:
        by_slice.setdefault(row["slice"], []).append(row)
    columns: Dict[str, List[float]] = {
        "ops_per_s": [], "MBps": [], "latency_p50_ms": [], "latency_p90_ms": [],
        "steal_s": []}
    for index, members in sorted(by_slice.items()):
        ok = [r for r in members if r["error"] is None]
        seconds = (durations[index] if durations is not None
                   else sum(r["seconds"] for r in members))
        p50, p90 = latency_ms([r["seconds"] for r in ok])
        columns["ops_per_s"].append(len(ok) / seconds)
        columns["MBps"].append(sum(r["bytes"] for r in ok) / seconds / 1e6)
        columns["latency_p50_ms"].append(p50)
        columns["latency_p90_ms"].append(p90)
        steal = [r["steal"] for r in members]
        columns["steal_s"].append(max(steal) - min(steal))
    # Every slice at or below the KEEP-quantile of steal: all of them on a
    # quiet host, the quietest half when the hypervisor was busy.
    steal = columns["steal_s"]
    limit = sorted(steal)[max(1, math.ceil(len(steal) * KEEP)) - 1]
    kept = [j for j, s in enumerate(steal) if s <= limit]
    if record is not None:
        record["slices"] = {**columns, "kept": kept}
    return {name: median(values[j] for j in kept)
            for name, values in columns.items() if name != "steal_s"}


def steal_seconds() -> float:
    """Host-wide cumulative CPU steal seconds (0 where /proc/stat is absent)."""
    return host_cpu_seconds().get("steal_s", 0.0)


def latency_by(rows: Sequence[dict], key: str) -> Dict[str, Dict[str, float]]:
    """Per-class count, p50 and p90 (ms) of successful operations, for the record."""
    groups: Dict[str, List[float]] = {}
    for row in rows:
        if row["error"] is None:
            groups.setdefault(str(row[key]), []).append(row["seconds"])
    out = {}
    for name, values in sorted(groups.items()):
        p50, p90 = latency_ms(values)
        out[name] = {"n": len(values), "p50_ms": p50, "p90_ms": p90}
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def bits_equal(result, expected) -> bool:
    """Bit-identical comparison of two float64 arrays (shape, dtype and bytes)."""
    import numpy as np

    result = np.asarray(result)
    expected = np.asarray(expected)
    if result.shape != expected.shape or result.dtype != expected.dtype:
        return False
    return np.array_equal(
        np.ascontiguousarray(result).view(np.uint64),
        np.ascontiguousarray(expected).view(np.uint64),
    )


def psnr_db(reference, reconstruction) -> float:
    """PSNR over the reference's value range (the program's own definition)."""
    from repro.analysis.metrics import psnr

    return float(psnr(reference, reconstruction))


def payload_digest(reader) -> str:
    """blake2b-128 of a container's block payloads in index order (no header)."""
    h = hashlib.blake2b(digest_size=16)
    for view in reader.fetch_entries(range(reader.n_blocks)):
        h.update(view)
    return h.hexdigest()


def timed_setups(build: Callable[[int], object], teardown: Callable[[object], None],
                 repeats: int = SETUP_REPEATS) -> Tuple[float, List[float], object]:
    """Run ``build`` ``repeats`` times, tearing down all but the last.

    Returns the median set-up seconds, every sample, and the last state.
    """
    times: List[float] = []
    state = None
    for i in range(repeats):
        if state is not None:
            teardown(state)
            state = None
        start = time.perf_counter()
        state = build(i)
        times.append(time.perf_counter() - start)
    return median(times), times, state


def host_cpu_seconds() -> Dict[str, float]:
    """Host-wide busy, idle and steal CPU seconds so far (Linux /proc/stat).

    Recorded at the start and end of a run: steal is time the hypervisor
    gave this machine's CPUs to someone else, the usual cause of a run that
    is slower than its neighbours for no reason in the code.
    """
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return {}
    tick = os.sysconf("SC_CLK_TCK")
    user, nice, system, idle, iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    return {"busy_s": (user + nice + system + irq + softirq) / tick,
            "idle_s": (idle + iowait) / tick, "steal_s": steal / tick}


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> Dict[str, object]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


@dataclass
class WorkloadResult:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> value; units come from ``run.py``'s tables.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Check failures; any entry makes the run incorrect.
    mismatches: List[str] = field(default_factory=list)
    #: Messages of failed operations (counted in ``failed``, first few kept).
    errors: List[str] = field(default_factory=list)
    #: Free-form facts for the run record (settings, digests, counters).
    record: Dict[str, object] = field(default_factory=dict)
    #: Lines printed before the result line (tables, digests, notes).
    report: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def mismatch(self, message: str) -> None:
        _capped(self.mismatches, message)

    def error(self, message: str) -> None:
        _capped(self.errors, message)


def _capped(messages: List[str], message: str, limit: int = 20) -> None:
    if len(messages) < limit:
        messages.append(message)
    elif len(messages) == limit:
        messages.append("... further messages suppressed")


def run_stamp(workload: str, seed: int, trace: int) -> str:
    return f"{workload}-seed{seed}-trace{trace}-{os.getpid()}-{int(time.time())}"


def write_record(stamp: str, doc: Dict[str, object]) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{stamp}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str), "utf-8")
    return path
