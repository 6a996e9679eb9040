"""Wire protocol of the read daemon: versioned, length-prefixed frames.

One frame carries one request or one response.  The layout is a fixed head,
a JSON header and an optional raw payload::

    b"RPSV" | u8 version | u32 header_len | u64 payload_len | header | payload

The header is UTF-8 JSON (operation, parameters, status, accounting); the
payload is raw bytes — for ``read`` responses the C-order buffer of the
result ndarray, described by ``dtype``/``shape`` entries in the header, so a
client reconstructs it with one ``frombuffer`` and no pickling.  Requests are
the ``repro store read`` shape serialized: ``(field, step, level)`` plus a
JSON-encodable index expression (:func:`index_to_wire`), exactly the plain
data a :class:`repro.array.CompressedArray` query compiles to.

The hot path is zero-copy end to end: a sender hands :func:`send_frame` the
result array's own buffer and it leaves through ``socket.sendmsg`` as a
scatter-gather pair (head+header, payload) with no concatenated frame bytes;
a receiver's :func:`read_frame` lands the payload in one preallocated buffer
(``readinto``) and :func:`decode_ndarray` wraps it as a read-only view — one
payload-sized allocation per response, total.  ``pack_frame`` (join the
parts) remains for tests and non-socket streams and is byte-identical.

Framing errors are their own exception tree so the daemon can answer them
with a clean error response instead of hanging or killing the connection
mid-frame: :class:`ProtocolError` for bad magic / truncation / oversized
headers, its subclass :class:`VersionMismatch` for a well-formed frame that
speaks another protocol version.  Application errors cross the wire as
``{"status": "error", "error_type": ..., "message": ...}`` headers and are
re-raised client-side with the original exception type
(:func:`raise_remote_error`), so remote reads fail exactly like local ones.
"""

from __future__ import annotations

import hashlib
import json
import operator
import struct
from typing import Any, BinaryIO, Dict, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "WIRE_OPS",
    "MAX_HEADER_BYTES",
    "ProtocolError",
    "VersionMismatch",
    "RemoteError",
    "pack_frame",
    "frame_parts",
    "send_frame",
    "send_buffers",
    "read_frame",
    "encode_ndarray",
    "decode_ndarray",
    "payload_checksum",
    "verify_payload",
    "index_to_wire",
    "index_from_wire",
    "error_header",
    "raise_remote_error",
    "register_error_type",
]

PROTOCOL_MAGIC = b"RPSV"  # "RePro SerVe"
PROTOCOL_VERSION = 1

#: The protocol-v1 op vocabulary — the source of truth the wire-protocol lint
#: rule checks every dispatcher and client against.  Adding an op here without
#: a ``_dispatch`` branch in each daemon and a client request builder fails
#: ``repro lint``.
WIRE_OPS = ("catalog", "describe", "read", "stats", "health", "trace")

#: Frame head: magic, protocol version, header length, payload length.
_HEAD = struct.Struct("<4sBIQ")

#: Sanity cap on the JSON header so a corrupt length field cannot make the
#: receiver allocate gigabytes before noticing the frame is garbage.
MAX_HEADER_BYTES = 1 << 20

#: Absolute cap on a frame payload (responses carry whole result arrays, so
#: it is generous); a daemon reads *requests* — which carry no payload in
#: protocol v1 — under a much smaller cap, so a corrupt or hostile length
#: field cannot park a worker waiting for terabytes that never arrive.
#: ``read_frame(max_payload=None)`` lifts the per-receiver cap but still
#: enforces this bound: a single flipped bit in the length field must
#: surface as a typed :class:`ProtocolError` the failover path can absorb,
#: never as an unbounded allocation.
MAX_PAYLOAD_BYTES = 1 << 31


class ProtocolError(RuntimeError):
    """A frame could not be read or parsed (bad magic, truncation, bad JSON)."""


class VersionMismatch(ProtocolError):
    """A well-formed frame speaking an unsupported protocol version."""


class RemoteError(RuntimeError):
    """A daemon-side failure of a type the client cannot reconstruct."""


def frame_parts(
    header: Mapping[str, Any], payload: bytes = b"", version: int = PROTOCOL_VERSION
) -> List:
    """One frame as a scatter-gather list: ``[head + header blob, payload]``.

    The payload element is the caller's buffer, untouched: a bytes-like
    object passes through as-is, anything else exporting a buffer (an
    ndarray's data, an :func:`encode_ndarray` view) is wrapped as a flat
    ``memoryview`` — never concatenated.  :func:`pack_frame` joins the parts
    for tests and golden files; :func:`send_frame` writes them with one
    ``sendmsg`` so a multi-megabyte response leaves the process without an
    intermediate copy.
    """
    blob = json.dumps(dict(header), sort_keys=True).encode("utf-8")
    if len(blob) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header is {len(blob)} bytes; the protocol caps headers at "
            f"{MAX_HEADER_BYTES}"
        )
    if not isinstance(payload, (bytes, bytearray)):
        payload = memoryview(payload).cast("B")
    head = _HEAD.pack(PROTOCOL_MAGIC, int(version), len(blob), len(payload))
    return [head + blob, payload]


def pack_frame(
    header: Mapping[str, Any], payload: bytes = b"", version: int = PROTOCOL_VERSION
) -> bytes:
    """Serialize one frame; ``version`` is overridable for mismatch tests."""
    return b"".join(frame_parts(header, payload, version))


def send_frame(sock, header: Mapping[str, Any], payload: bytes = b"",
               version: int = PROTOCOL_VERSION) -> int:
    """Write one frame to a socket with scatter-gather I/O; returns bytes sent.

    The head+header and the payload leave as separate buffers through
    :func:`send_buffers`, so the payload — typically the C-order buffer of a
    whole result array — is never copied into a concatenated frame.
    """
    return send_buffers(sock, frame_parts(header, payload, version))


def send_buffers(sock, buffers) -> int:
    """Write ``buffers`` back to back with ``socket.sendmsg``; returns bytes sent.

    One ``sendmsg`` carries every buffer (with a ``sendall`` fallback for
    sockets that lack it), so a small head and its body leave in one segment
    instead of two writes stalling on Nagle plus delayed ACK.  Partial sends
    are resumed until everything is written; transport failures surface as
    ``OSError`` exactly like ``sendall``.
    """
    views = [memoryview(p).cast("B") for p in buffers]
    views = [v for v in views if len(v)]
    sendmsg = getattr(sock, "sendmsg", None)
    total = 0
    while views:
        if sendmsg is not None:
            n = sendmsg(views)
        else:
            sock.sendall(views[0])
            n = len(views[0])
        total += n
        while views and n >= len(views[0]):
            n -= len(views[0])
            views.pop(0)
        if views and n:
            views[0] = views[0][n:]
    return total


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = fh.read(n - len(buf))
        if not chunk:
            raise ProtocolError(
                f"truncated frame: expected {n} bytes of {what}, got {len(buf)}"
            )
        buf += chunk
    return buf


def _read_exact_into(fh: BinaryIO, n: int, what: str) -> memoryview:
    """Read exactly ``n`` bytes into one preallocated buffer (single allocation).

    The one payload-sized allocation a response costs: the bytes land via
    ``readinto`` (no per-chunk ``+=`` concatenation), and the returned
    ``memoryview`` is what :func:`decode_ndarray` wraps zero-copy.
    """
    try:
        buf = bytearray(n)
    except MemoryError as exc:
        # A length field under the cap can still out-size this host (or be a
        # corrupt frame's fiction); either way it is a transport-class frame
        # problem, not a server fault to relay verbatim.
        raise ProtocolError(
            f"frame claims {n} bytes of {what}; allocation failed"
        ) from exc
    view = memoryview(buf)
    readinto = getattr(fh, "readinto", None)
    got = 0
    while got < n:
        if readinto is not None:
            count = readinto(view[got:])
        else:
            chunk = fh.read(n - got)
            count = len(chunk)
            view[got : got + count] = chunk
        if not count:
            raise ProtocolError(
                f"truncated frame: expected {n} bytes of {what}, got {got}"
            )
        got += count
    return view


def read_frame(
    fh: BinaryIO, max_payload: Optional[int] = MAX_PAYLOAD_BYTES
) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """Read one frame from a binary stream; ``None`` on clean end-of-stream.

    "Clean" means the stream ended exactly on a frame boundary (zero bytes
    available) — how a peer politely hangs up.  Anything else (short head,
    bad magic, oversized or undecodable header, over-``max_payload`` or
    short payload) raises :class:`ProtocolError`; a frame head with the
    wrong version raises :class:`VersionMismatch` *before* the header is
    parsed, so any future header-schema change stays diagnosable.
    ``max_payload=None`` lifts the payload cap to the absolute
    :data:`MAX_PAYLOAD_BYTES` bound (a client reading responses that carry
    whole arrays); a daemon reading payload-less requests passes a small
    cap instead.
    """
    first = fh.read(1)
    if not first:
        return None
    head = first + _read_exact(fh, _HEAD.size - 1, "frame head")
    magic, version, header_len, payload_len = _HEAD.unpack(head)
    if magic != PROTOCOL_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {PROTOCOL_MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"protocol version mismatch: peer speaks {version}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header claims {header_len} bytes; the protocol caps headers "
            f"at {MAX_HEADER_BYTES}"
        )
    cap = MAX_PAYLOAD_BYTES if max_payload is None else max_payload
    if payload_len > cap:
        raise ProtocolError(
            f"frame claims a {payload_len}-byte payload; this receiver caps "
            f"payloads at {cap}"
        )
    blob = _read_exact(fh, header_len, "frame header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"corrupt frame header ({exc})") from exc
    if not isinstance(header, dict):
        raise ProtocolError(f"frame header must be a JSON object, got {type(header).__name__}")
    payload = _read_exact_into(fh, payload_len, "frame payload")
    return header, payload


# -- ndarray payloads ----------------------------------------------------------
def encode_ndarray(arr: np.ndarray) -> Tuple[Dict[str, Any], memoryview]:
    """Describe an array for a frame header and expose its C-order buffer.

    The returned payload is a flat read-through ``memoryview`` of the
    array's own memory — zero-copy for contiguous input (the view keeps the
    array's buffer alive); only non-contiguous input pays a compacting copy.
    :func:`frame_parts` / :func:`send_frame` pass the view through to the
    socket untouched.
    """
    arr = np.asarray(arr)
    if not arr.flags.c_contiguous:
        # ascontiguousarray would also promote 0-d to 1-d, so only copy when
        # the layout actually requires it.
        arr = np.ascontiguousarray(arr).reshape(arr.shape)
    meta = {"dtype": arr.dtype.str, "shape": list(arr.shape)}
    # reshape(-1) is a view on contiguous data; cast("B") flattens to bytes
    # without touching them (works for 0-d and read-only arrays alike).
    return meta, memoryview(arr.reshape(-1)).cast("B")


def decode_ndarray(
    meta: Mapping[str, Any], payload: bytes, copy: bool = False
) -> np.ndarray:
    """Rebuild an array from its header description and raw buffer.

    By default the result is a **read-only zero-copy view** over ``payload``
    (which stays alive as the array's base) — receiving a response costs one
    payload-sized allocation in :func:`read_frame` and nothing here.  Pass
    ``copy=True`` for a private writable array, e.g. when the caller mutates
    the result in place.
    """
    dtype = np.dtype(meta["dtype"])
    shape = tuple(int(s) for s in meta["shape"])
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if len(payload) != expected:
        raise ProtocolError(
            f"ndarray payload is {len(payload)} bytes but dtype {dtype} and "
            f"shape {shape} require {expected}"
        )
    arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
    if copy:
        return arr.copy()
    if arr.flags.writeable:
        arr.flags.writeable = False
    return arr


# -- payload integrity ---------------------------------------------------------
def payload_checksum(payload) -> str:
    """Hex ``blake2b-64`` digest of a frame payload.

    Carried as the optional ``"checksum"`` header key on responses with a
    payload, so every hop that touches the bytes — the end client, and the
    shard router before it relays — can tell a corrupted payload from a
    correct one.  64 bits keeps the hash pass cheap next to the socket copy
    while making silent corruption astronomically unlikely to slip through.
    """
    return hashlib.blake2b(
        memoryview(payload).cast("B") if payload is not None else b"",
        digest_size=8,
    ).hexdigest()


def verify_payload(header: Mapping[str, Any], payload) -> None:
    """Check a response payload against its header checksum, if present.

    Raises :class:`ProtocolError` on mismatch — a *transport*-class failure,
    so callers poison the connection and (router-side) fail over to another
    replica instead of serving corrupt bytes.  Headers without a
    ``"checksum"`` key pass unchecked: the field is optional so v1 peers
    that predate it stay compatible.
    """
    expected = header.get("checksum")
    if expected is None:
        return
    actual = payload_checksum(payload)
    if actual != str(expected):
        raise ProtocolError(
            f"payload checksum mismatch: header says {expected}, "
            f"payload hashes to {actual} ({len(payload)} bytes)"
        )


# -- index expressions ---------------------------------------------------------
def index_to_wire(index: Any) -> List[Any]:
    """Encode a basic-indexing expression as JSON-ready plain data.

    Integers stay integers, ``...`` becomes the string ``"..."``, and a slice
    becomes ``{"start":, "stop":, "step":}`` with ``None`` fields preserved —
    the exact element kinds :func:`repro.array.indexing.compile_index`
    accepts, so a daemon compiles a wire index with no extra validation
    surface.  Unsupported kinds raise the same ``TypeError`` the local view
    raises, before any bytes move.
    """
    if not isinstance(index, tuple):
        index = (index,)
    out: List[Any] = []
    for item in index:
        if item is Ellipsis:
            out.append("...")
        elif isinstance(item, slice):
            out.append(
                {
                    "start": None if item.start is None else int(item.start),
                    "stop": None if item.stop is None else int(item.stop),
                    "step": None if item.step is None else int(item.step),
                }
            )
        else:
            # operator.index matches the local view's acceptance exactly
            # (bools index like 0/1, floats and arrays are rejected), and the
            # diagnostic is the compiler's own, so parity cannot drift.
            try:
                out.append(operator.index(item))
            except TypeError:
                from repro.array.indexing import unsupported_index_error

                raise unsupported_index_error(item) from None
    return out


def index_from_wire(items: Any) -> Tuple[Any, ...]:
    """Decode :func:`index_to_wire` output back into an index tuple."""
    if not isinstance(items, list):
        raise ProtocolError(f"wire index must be a list, got {type(items).__name__}")
    out = []
    for item in items:
        if item == "...":
            out.append(Ellipsis)
        elif isinstance(item, int):
            out.append(int(item))
        elif isinstance(item, dict):
            out.append(slice(item.get("start"), item.get("stop"), item.get("step")))
        else:
            raise ProtocolError(f"unsupported wire index element {item!r}")
    return tuple(out)


# -- error transport -----------------------------------------------------------
#: Exception types a daemon error response reconstructs client-side; anything
#: else surfaces as :class:`RemoteError` carrying the daemon's message.
_ERROR_TYPES = {
    "ValueError": ValueError,
    "KeyError": KeyError,
    "IndexError": IndexError,
    "TypeError": TypeError,
    "ProtocolError": ProtocolError,
    "VersionMismatch": VersionMismatch,
}


def register_error_type(cls: type) -> type:
    """Register an exception type for typed transport by its class name.

    Layered subsystems (the shard router's :class:`~repro.shard.ShardError`)
    register their error types at import time so clients that imported the
    layer reconstruct them exactly; clients that did not still get the
    message via the :class:`RemoteError` fallback.  Returns ``cls`` so it
    works as a decorator.
    """
    _ERROR_TYPES[cls.__name__] = cls
    return cls


def error_header(exc: BaseException) -> Dict[str, str]:
    """Response header describing a daemon-side failure."""
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
    return {
        "status": "error",
        "error_type": type(exc).__name__,
        "message": str(message),
    }


def raise_remote_error(header: Mapping[str, Any]) -> None:
    """Re-raise an error response with its original exception type."""
    name = str(header.get("error_type", ""))
    message = str(header.get("message", "unknown daemon error"))
    cls = _ERROR_TYPES.get(name)
    if cls is None:
        raise RemoteError(f"{name or 'daemon error'}: {message}")
    raise cls(message)
