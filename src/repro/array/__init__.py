"""``repro.array`` — a lazy, NumPy-style read API over compressed data.

The read-side counterpart of :mod:`repro.api`: where the facade unified how
runs are *written*, this package unifies how their output is *read*.  Opening
returns a view; indexing triggers I/O::

    arr = repro.open_store("run")["density", 10]   # no payload touched yet
    plane = arr[:, :, 16]                          # decodes one plane of blocks
    window = arr[10:20, :, ::2]                    # steps compile to one bbox
    coarse = arr.level(1)[...]                     # whole coarse level

Three pieces:

* :class:`CompressedArray` (:mod:`repro.array.core`) — the view: ndarray-style
  metadata (``shape``/``dtype``/``ndim``), ``levels`` + ``.level(k)`` for
  multi-resolution data, and ``__getitem__`` over the basic-indexing subset
  (ints, slices with steps, ``...``), decoding **only intersecting blocks**;
* :mod:`repro.array.indexing` — the pure compiler from index expressions to
  the bbox/block arithmetic of :mod:`repro.store.query`;
* :class:`BlockCache` (:mod:`repro.array.cache`) — a bounded, instrumented
  LRU of decoded blocks shared across views of a store.

Every classic read path is an adapter over this surface:
``Store.read_roi`` / ``ContainerReader.read_roi`` delegate to views,
``repro.decompress`` returns one, and the vis helpers accept them.  A view
query (source token, level, compiled index) is exactly the request shape the
read daemon (:mod:`repro.serve`) ships over its wire protocol.  This is the
only view class: :class:`repro.serve.RemoteArray` — what ``repro.connect``
and ``repro.open_http`` views are — subclasses it, inheriting geometry,
levels, ``read_roi`` clamping and ``stats``, and overrides only the two read
entry points to ship the index or bbox to a server.
"""

from repro.array.cache import BlockCache
from repro.array.core import (
    CompressedArray,
    ContainerSource,
    SingleBlockSource,
    as_lazy_array,
    open_array,
)
from repro.array.indexing import CompiledIndex, compile_index

__all__ = [
    "CompressedArray",
    "BlockCache",
    "ContainerSource",
    "SingleBlockSource",
    "CompiledIndex",
    "compile_index",
    "as_lazy_array",
    "open_array",
]
