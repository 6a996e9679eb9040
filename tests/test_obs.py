"""Tests for ``repro.obs``: registry semantics, Prometheus rendering, wire
trace propagation, the daemon reader LRU and the logging plumbing.

The rendering test is *golden*: it pins the exact exposition text (names,
label ordering, escaping, cumulative buckets) so a scrape-format regression
cannot hide behind "roughly parses".  The storm test reuses the
``test_cache_concurrency`` harness idiom — worker threads hammer instruments
while a busy monitor samples snapshots mid-interleaving — to prove counters
never lose updates and snapshots stay monotone.  The trace test drives a real
remote read through the session daemon and asserts one trace tree spans both
sides of the wire.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from io import StringIO

import numpy as np
import pytest

from repro.core.mr_compressor import MultiResolutionCompressor
from repro.obs import (
    REGISTRY,
    TRACER,
    MetricsRegistry,
    configure_logging,
    format_trace,
    render_prometheus,
)
from repro.obs.tracing import Tracer, span
from repro.store import Store


# -- registry semantics --------------------------------------------------------


class TestRegistryBasics:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("t_ops_total", "ops")
        g = reg.gauge("t_depth", "depth")
        h = reg.histogram("t_seconds", "time", buckets=(0.1, 1.0))
        c.inc()
        c.inc(2)
        g.set(5)
        g.dec()
        h.observe(0.05)
        h.observe(0.5)
        h.observe(3.0)
        snap = {f["name"]: f for f in reg.snapshot()}
        assert snap["t_ops_total"]["samples"][0]["value"] == 3
        assert snap["t_depth"]["samples"][0]["value"] == 4
        hist = snap["t_seconds"]["samples"][0]
        assert hist["buckets"] == {"0.1": 1, "1.0": 2, "+Inf": 3}
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(3.55)

    def test_labels_are_interned(self):
        reg = MetricsRegistry()
        c = reg.counter("t_lbl_total", "x", labelnames=("op",))
        assert c.labels(op="read") is c.labels(op="read")
        assert c.labels(op="read") is not c.labels(op="stats")

    def test_counters_reject_negative_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("t_neg_total", "x")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_registration_is_idempotent_but_typed(self):
        reg = MetricsRegistry()
        first = reg.counter("t_dup_total", "x")
        assert reg.counter("t_dup_total", "x") is first
        with pytest.raises(ValueError, match="different type or label"):
            reg.gauge("t_dup_total", "x")
        with pytest.raises(ValueError, match="different type or label"):
            reg.counter("t_dup_total", "x", labelnames=("op",))

    def test_disabled_registry_ignores_mutations(self):
        reg = MetricsRegistry()
        c = reg.counter("t_off_total", "x")
        h = reg.histogram("t_off_seconds", "x")
        reg.enabled = False
        c.inc(10)
        h.observe(0.5)
        reg.enabled = True
        snap = {f["name"]: f for f in reg.snapshot()}
        assert snap["t_off_total"]["samples"][0]["value"] == 0
        assert snap["t_off_seconds"]["samples"][0]["count"] == 0

    def test_collector_families_merge_and_sum(self):
        reg = MetricsRegistry()
        reg.counter("t_m_total", "x", labelnames=("side",)).inc(2, side="a")
        reg.add_collector(
            lambda: [
                {
                    "name": "t_m_total",
                    "type": "counter",
                    "help": "x",
                    "samples": [
                        {"labels": {"side": "a"}, "value": 3},
                        {"labels": {"side": "b"}, "value": 7},
                    ],
                }
            ]
        )
        fam = next(f for f in reg.snapshot() if f["name"] == "t_m_total")
        values = {s["labels"]["side"]: s["value"] for s in fam["samples"]}
        assert values == {"a": 5, "b": 7}

    def test_collector_dies_with_weakref_owner(self):
        class Owner:
            pass

        reg = MetricsRegistry()
        owner = Owner()
        reg.add_collector(
            lambda: [{"name": "t_w_total", "type": "counter", "help": "", "samples": []}],
            owner=owner,
        )
        assert any(f["name"] == "t_w_total" for f in reg.snapshot())
        del owner
        assert not any(f["name"] == "t_w_total" for f in reg.snapshot())


# -- golden Prometheus rendering -----------------------------------------------


class TestPrometheusRendering:
    def test_golden_exposition_text(self):
        reg = MetricsRegistry()
        reqs = reg.counter(
            "demo_requests_total", "Requests served.", labelnames=("op", "status")
        )
        reqs.inc(3, op="read", status="ok")
        reqs.inc(1, op='a\\b"c\nd', status="error")
        reg.gauge("demo_temperature", "Current temperature.").set(-2.5)
        lat = reg.histogram("demo_latency_seconds", "Latency.", buckets=(0.1, 0.5))
        lat.observe(0.05)
        lat.observe(0.3)
        lat.observe(2.0)
        golden = (
            "# HELP demo_latency_seconds Latency.\n"
            "# TYPE demo_latency_seconds histogram\n"
            'demo_latency_seconds_bucket{le="0.1"} 1\n'
            'demo_latency_seconds_bucket{le="0.5"} 2\n'
            'demo_latency_seconds_bucket{le="+Inf"} 3\n'
            "demo_latency_seconds_sum 2.35\n"
            "demo_latency_seconds_count 3\n"
            "# HELP demo_requests_total Requests served.\n"
            "# TYPE demo_requests_total counter\n"
            'demo_requests_total{op="a\\\\b\\"c\\nd",status="error"} 1\n'
            'demo_requests_total{op="read",status="ok"} 3\n'
            "# HELP demo_temperature Current temperature.\n"
            "# TYPE demo_temperature gauge\n"
            "demo_temperature -2.5\n"
        )
        assert render_prometheus(reg.snapshot()) == golden

    def test_every_builtin_family_renders_and_reparses(self):
        # The process-wide registry (with whatever earlier tests observed)
        # must render to lines the exposition grammar accepts.
        text = render_prometheus(REGISTRY.snapshot())
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                name_part, _, value = line.rpartition(" ")
                assert name_part
                float(value)  # every sample value parses


# -- registry under concurrency ------------------------------------------------


class TestRegistryStorm:
    N_THREADS = 8
    N_INC = 4000

    def test_counters_never_lose_updates_and_stay_monotone(self):
        reg = MetricsRegistry()
        counter = reg.counter("storm_ops_total", "ops", labelnames=("worker",))
        hist = reg.histogram("storm_op_seconds", "latency", buckets=(0.001, 0.01))
        stop_monitor = threading.Event()
        totals: list = []

        def monitor():
            # Busy sampling on purpose (the cache-storm idiom): the point is
            # to observe snapshot totals *mid-interleaving*; the cap bounds
            # memory if the workers are slow on a loaded machine.
            while not stop_monitor.is_set() and len(totals) < 200_000:
                fam = next(
                    f for f in reg.snapshot() if f["name"] == "storm_ops_total"
                )
                totals.append(sum(s["value"] for s in fam["samples"]))

        monitor_thread = threading.Thread(target=monitor, daemon=True)
        monitor_thread.start()

        def worker(worker_id: int):
            child = counter.labels(worker=str(worker_id))
            for i in range(self.N_INC):
                child.inc()
                hist.observe(0.0001 * (i % 3))

        with ThreadPoolExecutor(max_workers=self.N_THREADS) as pool:
            list(pool.map(worker, range(self.N_THREADS)))
        stop_monitor.set()
        monitor_thread.join(5.0)

        fam = next(f for f in reg.snapshot() if f["name"] == "storm_ops_total")
        per_worker = {s["labels"]["worker"]: s["value"] for s in fam["samples"]}
        assert per_worker == {str(i): self.N_INC for i in range(self.N_THREADS)}
        hfam = next(f for f in reg.snapshot() if f["name"] == "storm_op_seconds")
        sample = hfam["samples"][0]
        assert sample["count"] == self.N_THREADS * self.N_INC
        assert sample["buckets"]["+Inf"] == self.N_THREADS * self.N_INC
        assert totals, "monitor never sampled during the storm"
        assert all(a <= b for a, b in zip(totals, totals[1:])), (
            "snapshot totals regressed mid-storm"
        )


# -- tracing -------------------------------------------------------------------


class TestTracing:
    def test_span_is_noop_without_ambient_trace(self):
        with span("orphan", blocks=1) as sp:
            assert sp is None

    def test_disabled_tracer_opens_no_roots(self):
        tracer = Tracer()
        with tracer.trace("request") as root:
            assert root is None
        assert len(tracer) == 0

    def test_nested_spans_share_the_trace(self):
        tracer = Tracer().enable()
        with tracer.trace("outer", kind="test") as root:
            with span("inner", blocks=2) as child:
                child.set(extra=1)
        spans = tracer.trace_spans(root.trace_id)
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent_id"] == root.span_id
        assert by_name["inner"]["attrs"] == {"blocks": 2, "extra": 1}
        assert by_name["outer"]["parent_id"] is None
        assert "inner" in format_trace(spans)

    def test_ring_is_bounded(self):
        tracer = Tracer(max_traces=3).enable()
        for _ in range(10):
            with tracer.trace("r"):
                pass
        assert len(tracer) == 3

    def test_graft_dedupes_by_span_id(self):
        tracer = Tracer().enable()
        with tracer.trace("outer") as root:
            pass
        spans = tracer.trace_spans(root.trace_id)
        tracer.graft(spans)  # in-process: already recorded
        assert len(tracer.trace_spans(root.trace_id)) == len(spans)

    def test_remote_read_trace_spans_both_sides(self, serve_store, remote_store):
        # A cold remote read must yield ONE trace: the client's remote_read
        # root, its encode, the daemon's request span parented on the root,
        # the read path's fetch/decode/paste children, and the server-side
        # send span — all sharing the client-generated, wire-propagated id.
        rng = np.random.default_rng(7)
        field = rng.normal(size=(24, 24)).cumsum(axis=0)
        serve_store.append("obstrace", 0, field, 0.05, overwrite=True)
        TRACER.enable()
        try:
            arr = remote_store["obstrace", 0]
            arr[...]
            match = [
                (tid, spans)
                for tid, spans in TRACER.traces().items()
                if any(
                    s["name"] == "remote_read"
                    and s["attrs"].get("field") == "obstrace"
                    for s in spans
                )
            ]
            assert len(match) == 1, "one remote read must be exactly one trace"
            tid, spans = match[0]
            # The daemon worker records "send" just after sendmsg — possibly
            # a beat after the client already parsed the response.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                spans = TRACER.trace_spans(tid)
                if any(s["name"] == "send" for s in spans):
                    break
                time.sleep(0.01)
            names = {s["name"] for s in spans}
            assert {"remote_read", "encode", "request", "fetch", "decode",
                    "paste", "send"} <= names
            assert all(s["trace_id"] == tid for s in spans)
            by_name = {s["name"]: s for s in spans}
            root = by_name["remote_read"]
            request = by_name["request"]
            assert request["parent_id"] == root["span_id"]
            assert by_name["encode"]["parent_id"] == root["span_id"]
            assert by_name["send"]["parent_id"] == request["span_id"]
            # fetch/decode/paste descend from the request span.
            ids = {s["span_id"]: s for s in spans}
            for name in ("fetch", "decode", "paste"):
                node = by_name[name]
                while node["parent_id"] in ids and node["name"] != "request":
                    node = ids[node["parent_id"]]
                assert node["name"] == "request", f"{name} not under request"
            assert by_name["fetch"]["attrs"]["blocks"] == arr.n_blocks
        finally:
            TRACER.disable()
            TRACER.clear()


    def test_gateway_read_is_one_trace(self, serve_store):
        # One HTTP read is one trace: the gateway's gateway_request root on
        # the connection thread, its gateway_exchange, and the daemon's
        # request span beneath that, all under one trace id.
        from repro.gateway import GatewayDaemon, HTTPStore
        from repro.serve import ReadDaemon

        tracer = Tracer().enable()
        with ReadDaemon(serve_store, tracer=tracer) as daemon, GatewayDaemon(
            daemon.address, tracer=tracer
        ) as gateway, HTTPStore(gateway.address) as client:
            client["density", 0][0:4, 0:4, 0:4]
            # The root closes just after the response leaves the gateway.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                match = [
                    spans
                    for spans in tracer.traces().values()
                    if any(
                        s["name"] == "gateway_request"
                        and s["attrs"].get("route") == "read"
                        for s in spans
                    )
                ]
                if match:
                    break
                time.sleep(0.01)
        assert len(match) == 1, "one gateway read must be exactly one trace"
        spans = match[0]
        ids = {s["span_id"]: s for s in spans}
        by_name = {s["name"]: s for s in spans}
        root = by_name["gateway_request"]
        assert root["parent_id"] is None
        assert root["attrs"]["status"] == 200

        def ancestors(node):
            names = []
            while node["parent_id"] in ids:
                node = ids[node["parent_id"]]
                names.append(node["name"])
            return names

        assert ancestors(by_name["gateway_exchange"]) == ["gateway_request"]
        assert ancestors(by_name["request"])[-2:] == ["gateway_exchange", "gateway_request"]

    @pytest.mark.parametrize("cached", [True, False])
    def test_local_read_splits_decode_into_entropy_and_interpolate(self, tmp_path, cached):
        # Decode is not one opaque span: each codec batch (not each block)
        # opens an entropy and an interpolate child of the read's decode
        # span, and their blocks attributes add up to the blocks decoded.
        from repro.compressors.base import batch_capacity

        store = Store(tmp_path / "split", MultiResolutionCompressor(unit_size=4))
        field = np.random.default_rng(5).normal(size=(36, 36, 36)).cumsum(axis=0)
        store.append("f", 0, field, 0.05)
        view = store["f", 0]
        if not cached:
            view.cache = None
        tracer = Tracer().enable()
        with tracer.trace("local_read") as root:
            view[...]
        spans = tracer.trace_spans(root.trace_id)
        decodes = {s["span_id"]: s for s in spans if s["name"] == "decode"}
        decoded = sum(s["attrs"]["blocks"] for s in decodes.values())
        assert decoded == 9 ** 3
        for name in ("entropy", "interpolate"):
            children = [s for s in spans if s["name"] == name]
            assert len(children) == -(-decoded // batch_capacity((4, 4, 4))) > 1
            assert all(s["parent_id"] in decodes for s in children)
            assert sum(s["attrs"]["blocks"] for s in children) == decoded


# -- daemon reader LRU ---------------------------------------------------------


class TestReaderLRU:
    @pytest.fixture()
    def lru_store(self, tmp_path):
        store = Store(tmp_path / "lru", MultiResolutionCompressor(unit_size=8))
        rng = np.random.default_rng(3)
        for i, name in enumerate(["alpha", "beta", "gamma", "delta"]):
            store.append(name, 0, rng.normal(size=(16, 16)).cumsum(axis=0) + i, 0.05)
        return store

    def test_reader_cache_is_bounded_and_reads_stay_correct(self, lru_store):
        from repro.serve import ReadDaemon, RemoteStore

        daemon = ReadDaemon(lru_store, max_readers=2)
        with daemon:
            with RemoteStore(daemon.address) as client:
                for _ in range(2):  # second pass re-opens evicted readers
                    for name in ["alpha", "beta", "gamma", "delta"]:
                        got = np.asarray(client[name, 0][...])
                        want = np.asarray(lru_store[name, 0][...])
                        assert np.array_equal(got, want)
                        assert daemon.stats()["containers_open"] <= 2
                # A global scrape sums gauges across every daemon in the
                # process (the session fixture included), so assert on this
                # daemon's own collector output.
                snapshot = {f["name"]: f for f in daemon._collect_families()}
        open_readers = snapshot["repro_daemon_open_readers"]["samples"][0]["value"]
        assert 0 < open_readers <= 2
        # Evicted readers fold their fetch counters into the aggregate, so
        # the scraped totals cover all 8 reads, not just the live two.
        decoded = snapshot["repro_store_blocks_decoded_total"]["samples"][0]["value"]
        assert decoded >= sum(lru_store[n, 0].n_blocks for n in
                              ["alpha", "beta", "gamma", "delta"])

    def test_eviction_waits_for_inflight_reads(self, lru_store):
        # A lease pins its reader: retiring mid-read must defer the close
        # until the lease drains, never yank the source out from under it.
        from repro.serve import ReadDaemon

        daemon = ReadDaemon(lru_store, max_readers=1)
        with daemon._lease("alpha", 0) as reader:
            with daemon._lease("beta", 0):  # evicts alpha's slot (max 1)
                pass
            # alpha is retired but still leased: its source must still fetch.
            assert reader.decode_entries([0])[0].shape == (8, 8)
        assert daemon.stats()["containers_open"] == 1


# -- logging -------------------------------------------------------------------


class TestLogging:
    def test_package_root_has_nullhandler(self):
        import repro  # noqa: F401 - import installs the handler

        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_daemon_emits_structured_access_log(self, tmp_path):
        from repro.serve import ReadDaemon, RemoteStore

        store = Store(tmp_path / "logs", MultiResolutionCompressor(unit_size=8))
        store.append("f", 0, np.arange(64.0).reshape(8, 8), 0.05)
        stream = StringIO()
        logger = configure_logging(verbosity=1, json_lines=True, stream=stream)
        try:
            with ReadDaemon(store, slow_ms=0.0) as daemon:
                with RemoteStore(daemon.address) as client:
                    client["f", 0][...]
        finally:
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_obs_handler", False):
                    logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        reads = [r for r in records if r["message"] == "request" and r["op"] == "read"]
        assert reads, f"no read access line in {records}"
        line = reads[-1]
        assert line["logger"] == "repro.serve.daemon"
        assert line["status"] == "ok" and line["field"] == "f"
        assert line["blocks_touched"] >= 1 and line["ms"] >= 0
        # slow_ms=0 marks every request slow: the WARNING rides the same data.
        assert any(r["message"] == "slow request" for r in records)

    def test_configure_logging_is_idempotent(self):
        stream = StringIO()
        logger = configure_logging(verbosity=0, stream=stream, logger="repro.t_idem")
        configure_logging(verbosity=0, stream=stream, logger="repro.t_idem")
        ours = [h for h in logger.handlers if getattr(h, "_repro_obs_handler", False)]
        assert len(ours) == 1
        for handler in ours:
            logger.removeHandler(handler)


# -- TimingBreakdown re-base ---------------------------------------------------


class TestTimingBreakdownObs:
    def test_add_feeds_phase_histogram_once(self):
        from repro.utils.timer import TimingBreakdown

        hist = REGISTRY.get("repro_phase_seconds")
        child = hist.labels(phase="t_obs_phase")
        before = child.sample()["count"]
        td = TimingBreakdown()
        td.add("t_obs_phase", 0.25)
        td.add("t_obs_phase", 0.5)
        assert child.sample()["count"] - before == 2
        merged = td.merge(TimingBreakdown())
        # Merging re-groups already-observed durations: no double counting.
        assert child.sample()["count"] - before == 2
        assert merged.as_dict() == {"t_obs_phase": 0.75}
        assert merged.format_table() == td.format_table()
