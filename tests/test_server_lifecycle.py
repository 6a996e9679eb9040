"""One lifecycle contract for every server built on ``TCPServer``.

The read daemon, the shard router, the HTTP gateway and the chaos proxy share
one listener/accept/worker/stop implementation, so they share one contract:
no address before ``start()``, a ``stop()`` that returns promptly even with
an idle client still connected, and nothing left behind — the port refuses
new connections and none of the server's threads survive.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.chaos import ChaosProxy
from repro.gateway import GatewayDaemon
from repro.serve import ReadDaemon
from repro.serve.daemon import parse_address
from repro.shard import RouterDaemon, ShardMap, ShardSpec

SERVERS = [
    ("read", lambda store, backend: ReadDaemon(store), "repro-serve-"),
    (
        "router",
        lambda store, backend: RouterDaemon(ShardMap([ShardSpec("s0", backend)])),
        "repro-shard-router-",
    ),
    ("gateway", lambda store, backend: GatewayDaemon(backend), "repro-gateway-"),
    ("chaos", lambda store, backend: ChaosProxy(backend), "repro-chaos-"),
]


def _own_threads(prefix, before):
    return [
        t for t in threading.enumerate()
        if t not in before and t.name.startswith(prefix) and t.is_alive()
    ]


@pytest.mark.parametrize(
    "make, prefix",
    [(make, prefix) for _, make, prefix in SERVERS],
    ids=[name for name, _, _ in SERVERS],
)
def test_one_lifecycle(serve_store, serve_daemon, make, prefix):
    server = make(serve_store, serve_daemon.address)
    with pytest.raises(RuntimeError, match="not started"):
        server.address
    before = set(threading.enumerate())
    host, port = parse_address(server.start())
    idle = socket.create_connection((host, port), timeout=5)
    try:
        # The accept thread plus the idle connection's worker.
        deadline = time.monotonic() + 5.0
        while len(_own_threads(prefix, before)) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(_own_threads(prefix, before)) >= 2
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 2.0
    finally:
        idle.close()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, port), timeout=1).close()
    assert not [t.name for t in _own_threads(prefix, before)]
