"""``HTTPStore``: the remote-store surface over plain HTTP.

The gateway's counterpart to :class:`~repro.serve.client.RemoteStore`: the
same lazy view (:class:`~repro.serve.client.RemoteArray`, a
:class:`~repro.array.CompressedArray` whose geometry comes from one describe
and whose reads go through :meth:`HTTPStore.read`), the same typed exceptions
(error envelopes re-raise through
:func:`~repro.serve.protocol.raise_remote_error`, exactly like the socket
client), but speaking HTTP/1.1 via :mod:`http.client` — so it needs nothing
but a URL, and anything else that speaks HTTP (curl, a browser, a dashboard)
can share the origin::

    store = repro.gateway.open_http("127.0.0.1:8080")
    arr = store["density", 10]      # one GET /fields/density?step=10
    plane = arr[:, :, 16]           # one GET /read/density/10?index=...

Index expressions travel as the JSON wire form
(:func:`~repro.serve.protocol.index_to_wire`), so unsupported index kinds
raise client-side with the same ``TypeError`` the local and socket views
produce, and the fuzz tier can assert gateway ≡ router ≡ NumPy down to error
messages.  Array payloads arrive as ``application/octet-stream`` framed by
``X-Repro-Dtype`` / ``X-Repro-Shape`` response headers — zero JSON overhead
on the hot path.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote, urlencode

import numpy as np

from repro.serve.client import RemoteArray, RemoteSource
from repro.serve.daemon import parse_address
from repro.serve.protocol import ProtocolError, raise_remote_error

__all__ = ["HTTPStore", "open_http"]


def open_http(address: str, timeout: float = 30.0) -> "HTTPStore":
    """Open an :class:`HTTPStore` on a gateway at ``host:port``.

    The gateway's banner form ``http://HOST:PORT/`` is accepted too.
    """
    return HTTPStore(address, timeout=timeout)


class HTTPStore:
    """One keep-alive HTTP connection to a gateway, exchange-serialized.

    Mirrors :class:`~repro.serve.client.RemoteStore`: a lock pins the
    connection to one request at a time (``http.client`` cannot interleave),
    and a request that dies mid-stream reconnects once before surfacing the
    failure — the gateway end of a keep-alive pair may close an idle
    connection at any time.
    """

    def __init__(self, address: str, timeout: float = 30.0) -> None:
        if isinstance(address, str):
            # Accept the gateway's own banner form, ``http://HOST:PORT/``.
            address = address.removeprefix("http://").rstrip("/")
        host, port = parse_address(address)
        self.address = f"{host}:{port}"
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._conn: Optional[HTTPConnection] = None  # repro: guarded-by(_lock)
        self._closed = False  # repro: guarded-by(_lock)

    # -- transport -------------------------------------------------------------
    def _request(self, path: str, query: Optional[Dict[str, str]] = None):
        # repro: holds(_lock)
        target = quote(path)
        if query:
            target += "?" + urlencode(query)
        if self._conn is None:
            host, port = parse_address(self.address)
            self._conn = HTTPConnection(host, port, timeout=self.timeout)
        self._conn.request("GET", target, headers={"Accept": "application/octet-stream"})
        resp = self._conn.getresponse()
        return resp, resp.read()

    def fetch(
        self, path: str, query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One GET; returns (status, lower-cased headers, body bytes)."""
        with self._lock:
            if self._closed:
                raise ProtocolError(f"HTTPStore({self.address}) is closed")
            try:
                resp, body = self._request(path, query)
            except (OSError, HTTPException):
                # The gateway (or an idle timeout) dropped the keep-alive
                # connection; one fresh dial before giving up.
                if self._conn is not None:
                    self._conn.close()
                    self._conn = None
                resp, body = self._request(path, query)
            headers = {name.lower(): value for name, value in resp.getheaders()}
            return resp.status, headers, body

    def fetch_json(
        self, path: str, query: Optional[Dict[str, str]] = None
    ) -> Dict[str, Any]:
        """One GET whose body is JSON; error envelopes raise typed errors."""
        status, _, body = self.fetch(path, query)
        try:
            payload = json.loads(body.decode("utf-8"))
        except ValueError:
            raise ProtocolError(
                f"gateway at {self.address} answered {status} with a "
                f"non-JSON body of {len(body)} bytes"
            )
        if payload.get("status") == "error":
            raise_remote_error(payload)
        return payload

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        with self._lock:
            self._closed = True
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def __enter__(self) -> "HTTPStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- catalog surface -------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self.fetch_json("/health")

    def entries(self) -> List[Dict[str, Any]]:
        return list(self.fetch_json("/catalog").get("entries", []))

    def fields(self) -> List[str]:
        return sorted({str(row["field"]) for row in self.entries()})

    def steps(self, field: str) -> List[int]:
        body = self.fetch_json(f"/fields/{field}")
        return [int(step) for step in body.get("steps", [])]

    def describe(self, field: str, step: int = 0) -> Dict[str, Any]:
        return self.fetch_json(f"/fields/{field}", {"step": str(int(step))})

    def __len__(self) -> int:
        return len(self.entries())

    def stats(self) -> Dict[str, Any]:
        return self.fetch_json("/stats")

    def prometheus(self) -> str:
        """The merged Prometheus exposition (``/stats?format=prom``)."""
        status, _, body = self.fetch("/stats", {"format": "prom"})
        if status != 200:
            raise ProtocolError(
                f"gateway at {self.address} answered {status} to a metrics scrape"
            )
        return body.decode("utf-8")

    # -- arrays ----------------------------------------------------------------
    def read(
        self,
        field: str,
        step: int,
        level: int,
        fill_value: float,
        selector: Dict[str, Any],
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        """One ``GET /read/{field}/{step}``: the result plus its accounting.

        ``selector`` is ``{"index": wire_index}`` or ``{"bbox": ((lo, hi), ...)}``,
        sent as the ``index=`` (JSON wire form) or ``bbox=lo:hi,...`` query
        parameter.  The result is a read-only view over the response body.
        """
        query = {"level": str(level), "fill_value": repr(float(fill_value))}
        if "index" in selector:
            query["index"] = json.dumps(selector["index"])
        else:
            query["bbox"] = ",".join(f"{lo}:{hi}" for lo, hi in selector["bbox"])
        status, headers, body = self.fetch(f"/read/{field}/{step}", query)
        if status != 200:
            # Error bodies are always the JSON envelope, whatever we accepted.
            raise_remote_error(json.loads(body.decode("utf-8")))
        accounting = {
            key: int(headers.get("x-repro-" + key.replace("_", "-"), 0))
            for key in ("blocks_touched", "blocks_decoded", "cache_hits")
        }
        dtype = np.dtype(headers.get("x-repro-dtype", "<f8"))
        shape_text = headers.get("x-repro-shape", "")
        shape = tuple(int(n) for n in shape_text.split(",") if n != "")
        out = np.frombuffer(body, dtype=dtype).reshape(shape)
        out.flags.writeable = False
        return out, accounting

    def array(
        self, field: str, step: int, level: int = 0, fill_value: float = 0.0
    ) -> RemoteArray:
        """Lazy HTTP view of one snapshot (one describe round trip)."""
        source = RemoteSource(self, field, step, self.describe(field, step))
        return RemoteArray(source, level=level, fill_value=fill_value)

    def __getitem__(self, key: Tuple[str, int]) -> RemoteArray:
        field, step = key
        return self.array(field, step)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"  # repro: unlocked -- repr is a racy snapshot
        return f"HTTPStore(http://{self.address}/, {state})"
