"""``GatewayDaemon``: a threaded HTTP/1.1 front end over the wire protocol.

The web-facing on-ramp: one gateway mounts on a single
:class:`~repro.serve.daemon.ReadDaemon` or — the intended deployment — on a
:class:`~repro.shard.RouterDaemon`, fronting the whole sharded cluster
through one HTTP origin:

* ``GET /health`` — backend health, degraded-shard aware (503 once any
  replica set is entirely unreachable);
* ``GET /catalog`` — the (merged) catalog as JSON;
* ``GET /fields/{field}`` — steps and rows for one field;
  ``?step=N`` returns that container's describe (codec, level geometry);
* ``GET /read/{field}/{step}`` — an ndarray read.  ``level=``, plus
  ``index=`` (NumPy syntax ``10:20,:,::2`` or the JSON wire form) or
  ``bbox=lo:hi,lo:hi,...``; neither reads the whole array.  The payload
  streams as ``application/octet-stream`` with ``X-Repro-Dtype`` /
  ``X-Repro-Shape`` headers, or as a JSON body under ``Accept:
  application/json``;
* ``GET /stats`` — the backend's stats JSON (shard-labeled when routed)
  with a ``gateway`` section added; ``?format=prom`` renders the merged
  Prometheus exposition, ``repro_gateway_*`` families included.

Errors map to typed JSON envelopes — the exact
``{"status": "error", "error_type": ..., "message": ...}`` shape the wire
protocol uses, plus ``http_status`` (and ``shard`` for :class:`ShardError`) —
so an HTTP client re-raises precisely what a socket client would: bad bbox →
400 ``ValueError``, unknown entry → 404 ``KeyError``, shard transport failure
→ 502 ``ShardError``.  Backend error envelopes relay *verbatim* (the gateway
exchanges, never re-phrases), which is what the gateway parity fuzz tier
asserts message-for-message.

Concurrency model: the gateway is a :class:`~repro.serve.daemon.TCPServer`,
the same lifecycle as the read daemon and the shard router — one thread per
HTTP connection, which parses the request, leases a backend connection from
a :class:`~repro.serve.pool.ConnectionPool` and runs the wire exchange
itself, so concurrent HTTP requests fan out over up to ``pool_size`` backend
connections and one request stays one trace (a ``gateway_request`` root with
``gateway_exchange`` and the backend's spans beneath it).  A
max-connections gate answers 503 above the cap.  ``request_timeout`` caps
the backend socket timeout: a backend wait past it is a 504, and the
timed-out exchange poisons its own pooled connection, so the lease is free
at once (a request queued behind busy leases may wait longer than
``request_timeout`` in total before its 504).  Per-client request/byte
accounting is kept for the first ``MAX_TRACKED_CLIENTS`` distinct addresses
(the rest pool under ``"other"``) and surfaced both in ``/stats`` and as
``repro_gateway_*`` metric families.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import re
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.gateway import http
from repro.gateway.http import HttpError, Request
from repro.obs import REGISTRY, TRACER, access_extra, merge_snapshots, render_prometheus
from repro.obs.collectors import counter_family, gauge_family
from repro.serve.client import ConnectSpec
from repro.serve.daemon import TCPServer
from repro.serve.pool import ConnectionPool
from repro.serve.protocol import (
    ProtocolError,
    decode_ndarray,
    index_from_wire,
    index_to_wire,
    send_buffers,
)

__all__ = ["GatewayDaemon", "STATUS_BY_ERROR_TYPE", "MAX_TRACKED_CLIENTS"]

log = logging.getLogger("repro.gateway")

#: Typed wire errors -> HTTP status.  The table is the contract the protocol
#: golden tests pin: client mistakes are 4xx, backend failures are 5xx.
STATUS_BY_ERROR_TYPE: Dict[str, int] = {
    "ValueError": 400,
    "TypeError": 400,
    "IndexError": 400,
    "KeyError": 404,
    "ShardError": 502,
    "BreakerOpenError": 503,
    "ProtocolError": 502,
    "VersionMismatch": 502,
    "RemoteError": 502,
    "TimeoutError": 504,
}

#: Distinct client addresses tracked individually; the long tail aggregates
#: under ``"other"`` so a scrape's label cardinality stays bounded.
MAX_TRACKED_CLIENTS = 64

#: Lingering close: after the FIN, wait this long per read (and at most this
#: many reads) for the client's unread request bytes.
_LINGER_SECONDS = 0.2
_LINGER_READS = 16

_REQUESTS = REGISTRY.counter(
    "repro_gateway_requests_total",
    "HTTP requests answered by the gateway, by route and status code.",
    labelnames=("route", "code"),
)
_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_gateway_request_seconds",
    "Gateway request latency by route (parse through response write).",
    labelnames=("route",),
)
_HTTP_BYTES = REGISTRY.counter(
    "repro_gateway_http_bytes_total",
    "HTTP bytes moved by the gateway, by direction.",
    labelnames=("direction",),
)
_BYTES_SENT = _HTTP_BYTES.labels(direction="sent")
_BYTES_RECEIVED = _HTTP_BYTES.labels(direction="received")
_CLIENT_REQUESTS = REGISTRY.counter(
    "repro_gateway_client_requests_total",
    "HTTP requests per client address (long tail under client=\"other\").",
    labelnames=("client",),
)
_CLIENT_BYTES = REGISTRY.counter(
    "repro_gateway_client_bytes_total",
    "HTTP response bytes per client address (long tail under client=\"other\").",
    labelnames=("client",),
)

_SHARD_IN_MESSAGE = re.compile(r"shard '([^']+)'")


class _BackendEnvelope(Exception):
    """A backend error response, carried verbatim to the HTTP error mapper."""

    def __init__(self, resp: Dict[str, Any]) -> None:
        super().__init__(str(resp.get("message", "")))
        self.resp = resp


class GatewayDaemon(TCPServer):
    """HTTP/1.1 front end over one wire-protocol backend (daemon or router).

    Parameters
    ----------
    backend:
        Address (``host:port``) or :class:`ConnectSpec` of the wire-protocol
        backend to front — a read daemon or a shard router.
    host / port:
        HTTP bind address; port 0 picks a free port (see :attr:`address`).
    pool_size:
        Backend connections in the gateway's :class:`ConnectionPool`;
        bounds the gateway's backend fan-out.
    max_connections:
        Open HTTP connections above which new ones are answered 503.
    request_timeout:
        Seconds one backend exchange may wait on the backend before a 504;
        it caps the backend socket timeout.
    idle_timeout:
        Seconds a keep-alive connection may sit idle before it is closed.
    timeout / retries / backoff:
        Backend :class:`ConnectSpec` dial policy (ignored when ``backend``
        is already a spec).
    """

    _thread_name = "repro-gateway"

    def __init__(
        self,
        backend: Union[str, Tuple[str, int], ConnectSpec],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        pool_size: int = 4,
        max_connections: int = 64,
        request_timeout: float = 30.0,
        idle_timeout: float = 60.0,
        timeout: float = 30.0,
        retries: int = 0,
        backoff: float = 0.05,
        tracer=None,
    ) -> None:
        super().__init__(host=host, port=port)
        if not isinstance(backend, ConnectSpec):
            address = backend if isinstance(backend, str) else f"{backend[0]}:{backend[1]}"
            backend = ConnectSpec(
                address, timeout=timeout, retries=retries, backoff=backoff
            )
        self.request_timeout = float(request_timeout)
        # The backend socket timeout is the request deadline: a stalled
        # exchange raises socket.timeout on its own thread, which poisons
        # (and so frees) its pooled connection before the 504 goes out.
        self.spec = dataclasses.replace(
            backend, timeout=min(backend.timeout, self.request_timeout)
        )
        self.tracer = TRACER if tracer is None else tracer
        self.pool_size = max(1, int(pool_size))
        self.max_connections = max(1, int(max_connections))
        self.idle_timeout = float(idle_timeout)
        self._pool = ConnectionPool(self.spec, size=self.pool_size, tracer=self.tracer)
        self._counters.update(
            {
                "requests": 0,
                "errors": 0,
                "rejected_connections": 0,
                "http_bytes_sent": 0,
                "http_bytes_received": 0,
            }
        )
        self._clients: Dict[str, Dict[str, int]] = {}  # repro: guarded-by(_lock)

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> str:
        """Warm the backend pool, bind the HTTP server, return the address."""
        if self._listener is None:
            # One backend connection up front: a dead or misaddressed backend
            # fails here, loudly, not on the first HTTP request.
            self._pool.warm()
        return super().start()

    def stop(self, timeout: float = 5.0) -> None:
        """Close the server and every connection; drain the backend pool."""
        super().stop(timeout)
        self._pool.close()

    def _collectors(self) -> List[Callable]:
        return [self._collect_families]

    # -- connection handling ---------------------------------------------------
    def _serve_connection(self, conn: socket.socket, index: int) -> None:
        with self._lock:
            over_capacity = len(self._connections) > self.max_connections
            if over_capacity:
                self._counters["rejected_connections"] += 1
        fh = conn.makefile("rb")
        try:
            client = str(conn.getpeername()[0])
            # Responses leave in one sendmsg, but a keep-alive client's next
            # request must not wait out delayed ACK behind a small response.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(self.idle_timeout)
            if over_capacity:
                body = http.json_body(
                    self._envelope(
                        503,
                        "ProtocolError",
                        f"gateway at capacity ({self.max_connections} connections)",
                    )
                )
                conn.sendall(
                    http.render_response(
                        503,
                        body,
                        extra_headers=[("Retry-After", "1")],
                        keep_alive=False,
                    )
                )
                return
            while not self._stop.is_set():
                try:
                    request = http.read_request(fh)
                except HttpError as exc:
                    # Framing damage: answer, then close — the stream
                    # position is no longer trustworthy.
                    self._finish(
                        conn,
                        exc.status,
                        http.json_body(self._http_error_envelope(exc)),
                        route="parse",
                        client=client,
                        request=None,
                        keep_alive=False,
                        started=time.perf_counter(),
                    )
                    break
                if request is None:
                    break  # clean EOF between requests
                if not self._serve_request(request, conn, client):
                    break
        except (OSError, ValueError):
            pass  # idle keep-alive timed out, client gone, or stop() closed it
        finally:
            fh.close()
            _lingering_close(conn)

    def _serve_request(self, request: Request, conn: socket.socket, client: str) -> bool:
        started = time.perf_counter()
        route = "unknown"
        keep_alive = request.keep_alive
        extra_headers: List[Tuple[str, str]] = []
        with self.tracer.trace("gateway_request") as span:
            try:
                route, handler, args = self._route(request)
                status, content_type, body, extra_headers = handler(request, *args)
            except HttpError as exc:
                status, content_type = exc.status, "application/json"
                body = http.json_body(self._http_error_envelope(exc))
                if exc.status == 405:
                    extra_headers = [("Allow", "GET")]
                keep_alive = keep_alive and not exc.close
            except _BackendEnvelope as exc:
                status, envelope = self._map_backend_error(exc.resp)
                content_type, body = "application/json", http.json_body(envelope)
            except TimeoutError:
                status, content_type = 504, "application/json"
                body = http.json_body(
                    self._envelope(
                        504,
                        "TimeoutError",
                        f"request exceeded the gateway timeout "
                        f"({self.spec.timeout:g} s)",
                    )
                )
                keep_alive = False
            except Exception as exc:  # noqa: BLE001 - every failure becomes a response
                log.warning(
                    "gateway internal error",
                    extra=access_extra(route=route, error=repr(exc)),
                )
                status, content_type = 500, "application/json"
                body = http.json_body(self._envelope(500, type(exc).__name__, str(exc)))
            if span is not None:
                span.set(route=route, status=status)
            return self._finish(
                conn,
                status,
                body,
                route=route,
                client=client,
                request=request,
                keep_alive=keep_alive,
                started=started,
                content_type=content_type,
                extra_headers=extra_headers,
            )

    def _finish(
        self,
        conn: socket.socket,
        status: int,
        body,
        route: str,
        client: str,
        request: Optional[Request],
        keep_alive: bool,
        started: float,
        content_type: str = "application/json",
        extra_headers: Optional[List[Tuple[str, str]]] = None,
    ) -> bool:
        """Send head + body, then account the request; returns ``keep_alive``."""
        view = memoryview(body)
        head = http.render_head(
            status, len(view), content_type, extra_headers, keep_alive=keep_alive
        )
        sent = send_buffers(conn, [head, view])
        received = request.nbytes if request is not None else 0
        duration = time.perf_counter() - started
        _REQUESTS.labels(route=route, code=str(status)).inc()
        _REQUEST_SECONDS.labels(route=route).observe(duration)
        _BYTES_SENT.inc(sent)
        _BYTES_RECEIVED.inc(received)
        with self._lock:
            self._counters["requests"] += 1
            if status >= 400:
                self._counters["errors"] += 1
            self._counters["http_bytes_sent"] += sent
            self._counters["http_bytes_received"] += received
            key = self._client_key(client)
            account = self._clients.setdefault(
                key, {"requests": 0, "bytes_sent": 0, "bytes_received": 0}
            )
            account["requests"] += 1
            account["bytes_sent"] += sent
            account["bytes_received"] += received
        _CLIENT_REQUESTS.labels(client=key).inc()
        _CLIENT_BYTES.labels(client=key).inc(sent)
        log.info(
            "gateway access",
            extra=access_extra(
                route=route,
                status=status,
                client=client,
                bytes=sent,
                ms=round(duration * 1e3, 3),
            ),
        )
        return keep_alive

    def _client_key(self, client: str) -> str:  # repro: holds(_lock)
        if client in self._clients or len(self._clients) < MAX_TRACKED_CLIENTS:
            return client
        return "other"

    # -- routing ---------------------------------------------------------------
    def _route(self, request: Request) -> Tuple[str, Callable, tuple]:
        if request.method != "GET":
            raise HttpError(
                405, f"method {request.method!r} not allowed; the gateway is GET-only"
            )
        path = request.path.rstrip("/") or "/"
        if path == "/health":
            return "health", self._r_health, ()
        if path == "/catalog":
            return "catalog", self._r_catalog, ()
        if path == "/stats":
            return "stats", self._r_stats, ()
        parts = [part for part in path.split("/") if part]
        if len(parts) == 2 and parts[0] == "fields":
            return "fields", self._r_field, (parts[1],)
        if len(parts) == 3 and parts[0] == "read":
            return "read", self._r_read, (parts[1], parts[2])
        raise HttpError(
            404,
            f"no route for {request.path!r}; routes: /health, /catalog, "
            "/fields/{field}, /read/{field}/{step}, /stats",
        )

    # -- backend exchange ------------------------------------------------------
    def _exchange(self, header: Dict[str, Any]) -> Tuple[Dict[str, Any], bytes]:
        """One pooled wire exchange; error envelopes raise.

        The response header comes back exactly as the backend wrote it, so a
        shard's (or daemon's) typed error reaches the HTTP client with its
        original type and message — the parity the fuzz tier asserts.
        Backend spans graft into the gateway's tracer, extending the one
        trace tree across the HTTP hop.  A backend that outlasts
        ``request_timeout`` raises ``TimeoutError`` (the 504 path).
        """
        op = str(header.get("op"))
        try:
            # exchange() stamps the ambient trace into the request header,
            # so the backend parents its spans on this one.
            with self.tracer.trace("gateway_exchange", op=op, backend=self.spec.address):
                with self._pool.lease() as backend:
                    resp, payload = backend.exchange(header)
        except TimeoutError:
            raise
        except (OSError, ProtocolError) as exc:
            raise _BackendEnvelope(
                {
                    "status": "error",
                    "error_type": type(exc).__name__,
                    "message": f"backend at {self.spec.address} failed during "
                    f"{op!r}: {exc}",
                }
            ) from exc
        spans = resp.pop("spans", None)
        if spans and self.tracer.enabled:
            self.tracer.graft(spans)
        if resp.get("status") != "ok":
            raise _BackendEnvelope(resp)
        return resp, payload

    # -- error mapping ---------------------------------------------------------
    def _envelope(
        self, status: int, error_type: str, message: str, **extra: Any
    ) -> Dict[str, Any]:
        return {
            "status": "error",
            "error_type": error_type,
            "message": message,
            "http_status": int(status),
            **extra,
        }

    def _http_error_envelope(self, exc: HttpError) -> Dict[str, Any]:
        error_type = {400: "ValueError", 404: "KeyError", 504: "TimeoutError"}.get(
            exc.status, "ProtocolError"
        )
        return self._envelope(exc.status, error_type, exc.message)

    def _map_backend_error(self, resp: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """A backend error envelope -> (HTTP status, response body).

        ``error_type`` and ``message`` pass through verbatim;
        ``http_status`` is added, and a :class:`ShardError`'s shard name is
        lifted into its own field so callers need not parse the message.
        """
        error_type = str(resp.get("error_type", "RemoteError"))
        message = str(resp.get("message", ""))
        status = STATUS_BY_ERROR_TYPE.get(error_type, 500)
        envelope = self._envelope(status, error_type, message)
        if error_type == "ShardError":
            match = _SHARD_IN_MESSAGE.search(message)
            if match:
                envelope["shard"] = match.group(1)
        return status, envelope

    # -- route handlers --------------------------------------------------------
    def _r_health(self, request: Request) -> Tuple[int, str, bytes, list]:
        """Backend health, degraded-shard aware.

        A router backend reports per-shard circuit-breaker state: 200 while
        every entry is still reachable through some replica (the ``degraded``
        list names shards currently failing over), 503 once any replica set
        is entirely down.  A plain daemon backend reports 200 while it
        answers at all.
        """
        try:
            resp, _ = self._exchange({"op": "health"})
        except _BackendEnvelope as exc:
            raise HttpError(
                503,
                f"backend at {self.spec.address} is not healthy: "
                f"{exc.resp.get('message', '')}",
            )
        body = {k: v for k, v in resp.items() if k != "status"}
        body["backend"] = self.spec.address
        if not resp.get("ok", False):
            body["status"] = "error"
            body["error_type"] = "BreakerOpenError"
            body["message"] = (
                f"backend at {self.spec.address} has unreachable entries; "
                f"shards down: {sorted(resp.get('degraded', []))}"
            )
            body["http_status"] = 503
            return 503, "application/json", http.json_body(body), []
        body["status"] = "ok"
        return 200, "application/json", http.json_body(body), []

    def _r_catalog(self, request: Request) -> Tuple[int, str, bytes, list]:
        resp, _ = self._exchange({"op": "catalog"})
        body = {"status": "ok", "entries": resp.get("entries", [])}
        return 200, "application/json", http.json_body(body), []

    def _r_field(self, request: Request, field: str) -> Tuple[int, str, bytes, list]:
        if "step" in request.query:
            step = _parse_int(request.query["step"], "step")
            resp, _ = self._exchange(
                {"op": "describe", "field": field, "step": step}
            )
            body = {**resp, "field": field, "step": step}
            return 200, "application/json", http.json_body(body), []
        resp, _ = self._exchange({"op": "catalog"})
        rows = [
            row
            for row in resp.get("entries", [])
            if str(row.get("field")) == field
        ]
        if not rows:
            raise HttpError(404, f"store has no field {field!r}")
        body = {
            "status": "ok",
            "field": field,
            "steps": sorted(int(row["step"]) for row in rows),
            "entries": rows,
        }
        return 200, "application/json", http.json_body(body), []

    def _r_read(
        self, request: Request, field: str, step_text: str
    ) -> Tuple[int, str, Any, list]:
        step = _parse_int(step_text, "step")
        header: Dict[str, Any] = {
            "op": "read",
            "field": field,
            "step": step,
            "level": _parse_int(request.query.get("level", "0"), "level"),
            "fill_value": _parse_float(request.query.get("fill_value", "0"), "fill_value"),
        }
        # Selector parsing is a client mistake -> 400 here; *semantic*
        # failures (bbox outside the domain, out-of-range index) travel to
        # the backend and come back as its typed errors, message intact.
        # Both selectors present also travels through: the daemon's
        # "exactly one of 'index' or 'bbox'" ValueError is the parity answer.
        if "index" in request.query:
            header["index"] = _parse_index_param(request.query["index"])
        if "bbox" in request.query:
            header["bbox"] = _parse_bbox_param(request.query["bbox"])
        if "index" not in header and "bbox" not in header:
            header["index"] = index_to_wire(...)  # whole-array read
        resp, payload = self._exchange(header)

        shape = [int(n) for n in resp.get("shape", [])]
        dtype = str(resp.get("dtype", "<f8"))
        accounting = resp.get("accounting", {})
        if request.accepts_json():
            array = np.asarray(decode_ndarray(resp, payload))
            body = {
                "status": "ok",
                "field": field,
                "step": step,
                "dtype": dtype,
                "shape": shape,
                "data": array.tolist(),
                "accounting": accounting,
            }
            return 200, "application/json", http.json_body(body), []
        extra = [
            ("X-Repro-Dtype", dtype),
            ("X-Repro-Shape", ",".join(str(n) for n in shape)),
            ("X-Repro-Blocks-Touched", str(int(accounting.get("blocks_touched", 0)))),
            ("X-Repro-Blocks-Decoded", str(int(accounting.get("blocks_decoded", 0)))),
            ("X-Repro-Cache-Hits", str(int(accounting.get("cache_hits", 0)))),
        ]
        return 200, "application/octet-stream", payload, extra

    def _r_stats(self, request: Request) -> Tuple[int, str, bytes, list]:
        resp, _ = self._exchange({"op": "stats"})
        resp.pop("status", None)
        if request.query.get("format") == "prom":
            backend_metrics = resp.get("metrics") or []
            own = [
                family
                for family in REGISTRY.snapshot()
                if family["name"].startswith("repro_gateway_")
            ]
            # When the backend shares this process (in-process daemon mode)
            # its snapshot already carries the gateway families; name-based
            # exclusion keeps the merge double-count-free either way.
            relayed = [
                family
                for family in backend_metrics
                if not family["name"].startswith("repro_gateway_")
            ]
            text = render_prometheus(merge_snapshots(relayed, own))
            return 200, "text/plain; version=0.0.4", text.encode("utf-8"), []
        body = {"status": "ok", **resp, "gateway": self.stats()}
        return 200, "application/json", http.json_body(body), []

    # -- introspection ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Gateway accounting: counters, per-client usage, pool state."""
        with self._lock:
            out: Dict[str, Any] = dict(self._counters)
            out["active_connections"] = len(self._connections)
            out["clients"] = {
                key: dict(account) for key, account in self._clients.items()
            }
        out["backend"] = self.spec.address
        out["pool"] = self._pool.stats()
        return out

    def _collect_families(self) -> list:
        with self._lock:
            counters = dict(self._counters)
            active = len(self._connections)
            tracked = len(self._clients)
        pool = self._pool.stats()
        return [
            counter_family(
                "repro_gateway_connections_total",
                "HTTP connections accepted since gateway start.",
                counters["connections"],
            ),
            counter_family(
                "repro_gateway_rejected_connections_total",
                "HTTP connections answered 503 by the max-connections gate.",
                counters["rejected_connections"],
            ),
            counter_family(
                "repro_gateway_errors_total",
                "HTTP requests answered with a 4xx/5xx status.",
                counters["errors"],
            ),
            gauge_family(
                "repro_gateway_active_connections",
                "HTTP connections currently open.",
                active,
            ),
            gauge_family(
                "repro_gateway_backend_connections",
                "Pooled backend connections currently open.",
                pool["open"],
            ),
            gauge_family(
                "repro_gateway_tracked_clients",
                "Distinct client addresses with individual accounting.",
                tracked,
            ),
        ]

    def __repr__(self) -> str:
        bound = f"at {self.address}" if self._listener is not None else "(not started)"
        return f"GatewayDaemon({self.spec.address} {bound})"


def _lingering_close(conn: socket.socket) -> None:
    """Half-close, then drain what the client already sent.

    Closing a socket with unread input makes the kernel answer with a reset,
    which can destroy a response still in flight to the client (a refused
    oversized head, the 503 at capacity).  The FIN lets the client read to
    EOF; the bounded drain swallows its unread request bytes before the
    server closes the socket.
    """
    try:
        conn.shutdown(socket.SHUT_WR)
        conn.settimeout(_LINGER_SECONDS)
        for _ in range(_LINGER_READS):
            if not conn.recv(65536):
                break
    except OSError:
        pass


# -- query-parameter parsing ---------------------------------------------------
def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise HttpError(400, f"{name} must be an integer, got {text!r}")


def _parse_float(text: str, name: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise HttpError(400, f"{name} must be a number, got {text!r}")


def _parse_index_param(text: str) -> list:
    """``index=`` accepts the JSON wire form or NumPy slice syntax.

    The JSON form (``[5, "...", {"start": 1, "stop": null, "step": 2}]``) is
    what :mod:`repro.gateway.client` sends — round-tripping it through
    :func:`index_from_wire` validates without changing a byte, so fuzz
    replays hit the backend with exactly the expression a socket client
    would.  The textual form (``10:20,:,::2``) is for humans and curl.
    """
    text = text.strip()
    if text.startswith("["):
        try:
            wire = json.loads(text)
            index_from_wire(wire)  # validation only; forwarded verbatim
        except (ValueError, ProtocolError) as exc:
            raise HttpError(400, f"bad index expression {text!r}: {exc}")
        return wire
    items: list = []
    for part in text.split(","):
        part = part.strip()
        if part == "...":
            items.append(Ellipsis)
            continue
        if ":" in part:
            pieces = part.split(":")
            if len(pieces) > 3:
                raise HttpError(
                    400, f"bad index axis {part!r}; at most two ':' allowed"
                )
            try:
                items.append(
                    slice(*(int(piece) if piece.strip() else None for piece in pieces))
                )
            except ValueError:
                raise HttpError(
                    400, f"bad index axis {part!r}; expected integer slice parts"
                )
            continue
        try:
            items.append(int(part))
        except ValueError:
            raise HttpError(
                400, f"bad index axis {part!r}; expected int, slice or '...'"
            )
    return index_to_wire(tuple(items))


def _parse_bbox_param(text: str) -> List[List[int]]:
    """``bbox=0:16,8:24,0:32`` -> ``[[0, 16], [8, 24], [0, 32]]``."""
    pairs: List[List[int]] = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise HttpError(400, f"bad bbox axis {part!r}; expected lo:hi")
        try:
            pairs.append([int(lo), int(hi)])
        except ValueError:
            raise HttpError(400, f"bad bbox axis {part!r}; expected integer lo:hi")
    return pairs
