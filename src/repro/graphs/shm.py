"""Zero-copy shared-memory graph transport.

Chunk packets sent to worker processes name their graph by a tiny
:class:`GraphShmHandle` — segment names, shapes, dtypes, and the graph's
content hash — instead of carrying the pickled :class:`StaticGraph`.
The arrays themselves (the canonical edge list plus the cached CSR
``indptr``/``indices``) live once in ``multiprocessing.shared_memory``
segments.  Workers attach read-only numpy views over those segments, so
the transport cost is O(1) in the graph size and all workers map the
same physical pages.

Lifecycle contract
------------------
* **One export per graph.**  :func:`export_graph` returns the open
  :class:`SharedGraph` for a ``content_hash`` if there is one, and
  counts one more holder.  Each holder releases it with one
  :meth:`SharedGraph.close`; the last release closes *and unlinks* the
  segments.  An interpreter-exit hook unlinks any export left open.
* **Attachers** (:func:`attach_graph`) never unlink.  Each process
  caches the ``_ATTACH_CACHE_SIZE`` graphs it used last, by
  ``content_hash``.  An attached graph's arrays own their mappings, so
  evicting or detaching a graph never unmaps memory still in use.
* Unlinking while workers are still attached is safe on POSIX: the name
  disappears but existing mappings stay valid until the attacher closes.

``REPRO_SHM=0`` (or ``false``/``off``) disables the transport globally;
pools then fall back to pickling the graph as before.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..obs.logging import get_logger
from ..obs.metrics import get_registry
from ..obs.profile import phase
from .graph import StaticGraph

__all__ = [
    "ArraySpec",
    "GraphShmHandle",
    "SharedGraph",
    "ShmUnavailable",
    "export_graph",
    "attach_graph",
    "detach_graph",
    "detach_all",
    "shm_enabled",
]

_log = get_logger("repro.graphs.shm")


class ShmUnavailable(RuntimeError):
    """Shared-memory transport could not be used on this host."""


def shm_enabled() -> bool:
    """Whether the shm transport is enabled (``REPRO_SHM`` kill switch)."""
    return os.environ.get("REPRO_SHM", "1").strip().lower() not in (
        "0",
        "false",
        "off",
    )


@dataclass(frozen=True)
class ArraySpec:
    """Locator for one numpy array inside a shared-memory segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class GraphShmHandle:
    """Picklable O(1)-size descriptor of a shared :class:`StaticGraph`.

    Ships instead of the graph itself: three segment locators plus the
    vertex count and content hash.  ``content_hash`` doubles as the
    attach-cache key, so two pools sharing one graph attach once.
    """

    n: int
    content_hash: str
    edges: ArraySpec
    indptr: ArraySpec
    indices: ArraySpec

    @property
    def nbytes_shared(self) -> int:
        """Total bytes of graph data living behind this handle."""
        return self.edges.nbytes + self.indptr.nbytes + self.indices.nbytes


def _create_segment(array: np.ndarray) -> tuple[shared_memory.SharedMemory, ArraySpec]:
    """Copy *array* into a fresh segment (min size 1 — shm rejects 0)."""
    arr = np.ascontiguousarray(array)
    try:
        seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
    except OSError as exc:  # no /dev/shm, exhausted, permissions, ...
        raise ShmUnavailable(f"cannot create shared memory: {exc}") from exc
    if arr.nbytes:
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)[...] = arr
    return seg, ArraySpec(name=seg.name, shape=arr.shape, dtype=arr.dtype.str)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting unlink duty.

    Python < 3.13 registers every attachment with a resource tracker
    (3.13+ has ``track=False`` for exactly this).  Whether that matters
    depends on *which* tracker daemon the attacher talks to:

    * **Pool workers** — fork and spawn alike — share the exporter's
      tracker (a worker set starts it before it starts its processes),
      so their registration collapses into the creator's (the daemon
      keeps a set) and the creator's unlink-time unregister retires it
      exactly once.  Unregistering here would steal the creator's
      registration and turn its unlink into tracker noise.
    * An **unrelated top-level process** spins up its own tracker, which
      would unlink the segment out from under the exporter when this
      process exits — there the registration must be dropped.

    So: unregister only in top-level processes, and never for names this
    process exported itself.
    """
    if sys.version_info >= (3, 13):  # pragma: no cover - newer interpreters
        return shared_memory.SharedMemory(name=name, track=False)
    seg = shared_memory.SharedMemory(name=name)
    import multiprocessing as mp

    if name not in _EXPORTED_NAMES and mp.parent_process() is None:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")  # noqa: SLF001
        except Exception:  # pragma: no cover - tracker quirks are best-effort
            pass
    return seg


class SharedGraph:
    """Creator-side owner of one graph's shared-memory segments.

    Materializes the CSR (if not already cached on the graph) so workers
    never recompute it, copies the three arrays into segments, and hands
    out the :attr:`handle` to ship.  :func:`export_graph` shares one
    export among all holders of a graph; the last :meth:`close` unlinks.
    """

    def __init__(self, graph: StaticGraph) -> None:
        self.graph = graph
        self._segments: list[shared_memory.SharedMemory] = []
        self._holders = 1
        indptr, indices = graph._csr  # noqa: SLF001 - same-package cache
        specs: dict[str, ArraySpec] = {}
        try:
            for field_name, arr in (
                ("edges", graph.edges),
                ("indptr", indptr),
                ("indices", indices),
            ):
                seg, spec = _create_segment(arr)
                self._segments.append(seg)
                _EXPORTED_NAMES.add(seg.name)
                specs[field_name] = spec
        except ShmUnavailable:
            self._unlink()
            raise
        self.handle = GraphShmHandle(
            n=graph.n, content_hash=graph.content_hash(), **specs
        )
        registry = get_registry()
        registry.counter(
            "shm_graphs_exported_total",
            "Graphs exported into shared-memory segments",
        ).inc()
        registry.counter(
            "shm_bytes_shared_total",
            "Bytes of graph data placed in shared memory",
        ).inc(self.handle.nbytes_shared)
        _log.debug(
            "shm_graph_exported",
            graph_n=graph.n,
            bytes=self.handle.nbytes_shared,
            segments=[seg.name for seg in self._segments],
        )

    @property
    def closed(self) -> bool:
        """True once the last holder released the export."""
        return self._holders == 0

    def close(self) -> None:
        """Release one hold; the last release closes and unlinks every
        segment.  Calls after that are no-ops."""
        with _LOCK:
            if self._holders == 0:
                return
            self._holders -= 1
            if self._holders:
                return
            if _EXPORTS.get(self.handle.content_hash) is self:
                del _EXPORTS[self.handle.content_hash]
            self._unlink()
        get_registry().counter(
            "shm_graphs_released_total",
            "Shared graph exports closed and unlinked",
        ).inc()
        _log.debug("shm_graph_released", graph_n=self.graph.n)

    def _unlink(self) -> None:
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already reclaimed
                pass
            _EXPORTED_NAMES.discard(seg.name)
        self._segments.clear()

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Open exports by content hash (unlinked at interpreter exit if a holder
#: never released them), and the lock over them and their holder counts.
_EXPORTS: dict[str, SharedGraph] = {}
_LOCK = threading.Lock()

#: Segment names this process created (and its forked children inherit).
_EXPORTED_NAMES: set[str] = set()

#: Per-process attachments by content hash, least recently used first.
_ATTACHED: OrderedDict[str, StaticGraph] = OrderedDict()
_ATTACH_CACHE_SIZE = 8


def export_graph(graph: StaticGraph) -> SharedGraph:
    """Take one hold on the shared-memory export of *graph*'s edge list
    + CSR, made on first use; :meth:`SharedGraph.close` releases it.

    Raises :class:`ShmUnavailable` when segments cannot be created (the
    caller should fall back to the pickle transport).
    """
    key = graph.content_hash()
    with _LOCK:
        shared = _EXPORTS.get(key)
        if shared is not None:
            shared._holders += 1  # noqa: SLF001 - module-private count
            return shared
        with phase("shm.export"):
            shared = _EXPORTS[key] = SharedGraph(graph)
        return shared


class _Mapping:
    """One attached segment behind the numpy array interface.  Arrays
    over it keep it as their ``base``, and it keeps the segment open, so
    the mapping lives as long as the last array (or view) over it."""

    def __init__(self, seg: shared_memory.SharedMemory, spec: ArraySpec) -> None:
        self._seg = seg
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf)
        read_only = (view.ctypes.data, True)
        self.__array_interface__ = {**view.__array_interface__, "data": read_only}


def attach_graph(handle: GraphShmHandle) -> StaticGraph:
    """A :class:`StaticGraph` over *handle*'s segments (read-only views).

    Cached per process by ``content_hash``: repeated attaches of the
    same graph return the identical object without touching the OS.
    The cache keeps the most recently used ``_ATTACH_CACHE_SIZE``
    graphs; an evicted one stays valid for as long as it is held.
    """
    graph = _ATTACHED.get(handle.content_hash)
    if graph is not None:
        _ATTACHED.move_to_end(handle.content_hash)
        get_registry().counter(
            "shm_attach_cache_hits_total",
            "Graph attaches served from the per-process cache",
        ).inc()
        return graph
    with phase("shm.attach"):
        edges, indptr, indices = (
            np.asarray(_Mapping(_attach_segment(spec.name), spec))
            for spec in (handle.edges, handle.indptr, handle.indices)
        )
        graph = StaticGraph._from_shared_parts(  # noqa: SLF001 - same package
            handle.n, edges, indptr, indices, handle.content_hash
        )
    _ATTACHED[handle.content_hash] = graph
    while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
        _ATTACHED.popitem(last=False)
    registry = get_registry()
    registry.counter(
        "shm_attach_total", "Shared-memory graph attachments performed"
    ).inc()
    registry.counter(
        "shm_attach_bytes_total",
        "Bytes of graph data mapped (not copied) by attachments",
    ).inc(handle.nbytes_shared)
    _log.debug(
        "shm_graph_attached", graph_n=handle.n, bytes=handle.nbytes_shared
    )
    return graph


def detach_graph(content_hash: str) -> bool:
    """Drop one graph from the attach cache; True if it was cached.
    Its mappings close once no array over them is left."""
    return _ATTACHED.pop(content_hash, None) is not None


def detach_all() -> None:
    """Empty the attach cache (test isolation)."""
    _ATTACHED.clear()


def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    for shared in list(_EXPORTS.values()):
        while not shared.closed:
            shared.close()


atexit.register(_cleanup_at_exit)
