"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :func:`instrument`
temporarily wraps public functions of the program's layers (a class method or
a module attribute) so every call records a span, and the benchmark opens one
root span per operation.  Nothing inside ``src/`` is touched, and with
tracing off no wrapper is installed at all.

A span record is ``[name, start, end, parent, op, calls, total]``: ``parent``
indexes the enclosing span in :attr:`SpanRecorder.spans` (``-1`` for a
root), ``op`` is the operation id the span belongs to, and ``total`` is the
span's duration.  Very hot leaf calls (a block-cache lookup runs once per
block) are folded into one record per ``(parent, name)`` with ``calls`` > 1
and ``total`` the summed duration, so a long run keeps a bounded number of
records.  Self time is ``total`` minus the totals of the direct children.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, OP, CALLS, TOTAL = range(7)


class SpanRecorder:
    """Records spans into a list; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.op = None
            self._local.leaves = {}
        return stack

    def _open(self, name: str, op) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), 0.0, parent, op, 1, 0.0]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        record = self.spans[index]
        record[END] = time.perf_counter()
        record[TOTAL] = record[END] - record[START]
        self._local.stack.pop()

    @contextmanager
    def op(self, name: str, op_id) -> Iterator[None]:
        """Root span of one operation; every span opened inside it carries ``op_id``."""
        self._stack()
        self._local.op = op_id
        index = self._open(name, op_id)
        try:
            yield
        finally:
            self._close(index)
            self._local.op = None
            self._local.leaves = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        if not stack:  # outside any operation: nothing to attribute it to
            yield
            return
        index = self._open(name, self._local.op)
        try:
            yield
        finally:
            self._close(index)

    def leaf(self, name: str, seconds: float) -> None:
        """Fold one hot leaf call into its parent's aggregate record."""
        stack = self._stack()
        if not stack:
            return
        parent = stack[-1]
        key = (parent, name)
        index = self._local.leaves.get(key)
        if index is None:
            now = time.perf_counter()
            record = [name, now - seconds, now, parent, self._local.op, 0, 0.0]
            with self._lock:
                self.spans.append(record)
                index = len(self.spans) - 1
            self._local.leaves[key] = index
        record = self.spans[index]
        record[CALLS] += 1
        record[TOTAL] += seconds
        record[END] = time.perf_counter()

    def write(self, path: Path) -> None:
        """Write every span as JSON (one list per span, field names up front)."""
        doc = {
            "fields": ["name", "start", "end", "parent", "op", "calls", "total"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc), "utf-8")

    # -- per-operation aggregation -------------------------------------------
    def per_op(self) -> Dict[object, Dict[str, Tuple[float, float]]]:
        """``{op: {name: (inclusive seconds, self seconds)}}`` summed per op."""
        child_total = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                child_total[record[PARENT]] += record[TOTAL]
        out: Dict[object, Dict[str, List[float]]] = {}
        for i, record in enumerate(self.spans):
            layers = out.setdefault(record[OP], {})
            acc = layers.setdefault(record[NAME], [0.0, 0.0])
            acc[0] += record[TOTAL]
            acc[1] += record[TOTAL] - child_total[i]
        return {op: {k: (v[0], v[1]) for k, v in layers.items()} for op, layers in out.items()}


def median_ms(per_op: Dict[object, Dict[str, Tuple[float, float]]], name: str,
              self_time: bool = False) -> float:
    """Median over the operations that entered ``name`` of its per-op time (ms).

    0 when no operation entered the layer.
    """
    which = 1 if self_time else 0
    values = [layers[name][which] for layers in per_op.values() if name in layers]
    return median(values) * 1e3 if values else 0.0


class Instrumented:
    """Wrap program functions with spans for the lifetime of a ``with`` block.

    ``targets`` holds ``(owner, attribute, span name, kind, counter)``:
    ``kind`` is ``"span"`` (one record per call) or ``"leaf"`` (folded into
    the parent's aggregate); ``counter``, when given, maps ``(result, args)``
    to a number added to :attr:`counts` under ``span name``.
    """

    def __init__(self, recorder: SpanRecorder, targets: Sequence[tuple]) -> None:
        self.recorder = recorder
        self.targets = list(targets)
        self.counts: Dict[str, float] = {}
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, kind: str, counter) -> Callable:
        recorder, counts = self.recorder, self.counts

        if kind == "leaf":
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder.leaf(name, time.perf_counter() - start)
        else:
            def wrapper(*args, **kwargs):
                with recorder.span(name):
                    result = fn(*args, **kwargs)
                if counter is not None:
                    counts[name] = counts.get(name, 0) + counter(result, args)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def __enter__(self) -> "Instrumented":
        for owner, attr, name, kind, counter in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind, counter))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def breakdown_rows(per_op: Dict[object, Dict[str, Tuple[float, float]]],
                   layers: Sequence[Tuple[str, str]], root: str = "op") -> List[tuple]:
    """``(metric name, median self ms, share of root time)`` per ``(metric, span)``.

    The share is the span's self time summed over all operations, over the
    summed time of the operations' ``root`` spans.
    """
    total = sum(l[root][0] for l in per_op.values() if root in l)
    rows = []
    for metric, name in layers:
        own = sum(l[name][1] for l in per_op.values() if name in l)
        rows.append((metric, median_ms(per_op, name, self_time=True),
                     own / total if total else 0.0))
    return rows


def breakdown_table(workload: str, rows: Sequence[Tuple[str, float, float]],
                    overhead: Optional[float]) -> str:
    """Per-layer self-time table: ``rows`` are ``(metric name, median ms, share)``."""
    lines = [f"per-layer breakdown — {workload} (median per op over ops that entered the layer)"]
    header = f"{'layer metric':<34} {'self ms':>10} {'share':>8}"
    lines += [header, "-" * len(header)]
    for name, ms, share in rows:
        lines.append(f"{name:<34} {ms:>10.3f} {share:>7.1%}")
    if overhead is not None:
        lines.append(f"{'obs.trace_overhead':<34} {overhead:>+10.3f}")
    return "\n".join(lines)
