"""``repro.serve`` — a shared-cache read daemon for array queries.

The multi-client step after :mod:`repro.array`: a view query is already plain
data (``field``, ``step``, ``level``, an index expression), so this package
serves it over a local socket from **one** decode pool — one
:class:`repro.store.Store`, one shared :class:`repro.array.BlockCache`, one
:class:`repro.store.engine.CodecEngine` — instead of every analysis process
paying full decode cost::

    # server (or: repro serve RUN_DIR --addr 127.0.0.1:4815)
    daemon = ReadDaemon(store)
    addr = daemon.start()

    # any number of clients (or: repro store read ... --remote ADDR)
    remote = repro.connect(addr)
    arr = remote["density", 10]        # lazy: one describe round trip
    plane = arr[:, :, 16]              # daemon decodes only missed blocks

Three pieces:

* :mod:`repro.serve.protocol` — versioned, length-prefixed JSON-header +
  raw-ndarray-payload frames for ``describe`` / ``catalog`` / ``read`` /
  ``stats``, with typed error transport;
* :class:`ReadDaemon` (:mod:`repro.serve.daemon`) — threaded accept loop,
  per-connection workers, shared readers/cache/engine, per-request decode
  accounting, graceful shutdown;
* :class:`RemoteStore` / :class:`RemoteArray` (:mod:`repro.serve.client`) —
  ``RemoteArray`` *is* a :class:`repro.array.CompressedArray` over a
  :class:`~repro.serve.client.RemoteSource` (geometry from one ``describe``), overriding only
  its two read entry points, so existing analysis and vis code works
  unchanged against a socket — or, via :mod:`repro.gateway`, over HTTP.
"""

from repro.serve.client import ConnectSpec, RemoteArray, RemoteStore, connect
from repro.serve.daemon import ReadDaemon, WireDaemon, parse_address
from repro.serve.pool import ConnectionPool
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteError,
    VersionMismatch,
)

__all__ = [
    "ReadDaemon",
    "WireDaemon",
    "RemoteStore",
    "RemoteArray",
    "connect",
    "ConnectSpec",
    "ConnectionPool",
    "parse_address",
    "ProtocolError",
    "VersionMismatch",
    "RemoteError",
    "PROTOCOL_VERSION",
]
