"""Columnar on-disk graphs (``.reprograph``) with O(1) memmap loads.

The ``.npz`` graph format (:mod:`repro.graphs.io`) is fine for pinning
small topologies next to results, but it decompresses and copies every
byte on load.  Million-node workloads want the opposite trade: a flat,
uncompressed, *aligned* layout that :func:`numpy.memmap` can expose as
zero-copy views, so opening a graph costs a header read — the OS pages
edge/CSR data in lazily as algorithms touch it, and all processes on the
host share one page-cache copy.

Layout (all little-endian)::

    [0:8)    magic  b"REPROGRF"
    [8:12)   u32    version (currently 1)
    [12:16)  u32    flags   (bit 0: edge/index buffers are int32)
    [16:24)  i64    n
    [24:32)  i64    m
    [32:96)  64b    content hash (ascii sha256 hex digest)
    [96:120) 3x i64 buffer offsets: edges, indptr, indices
    ...      buffers, each 64-byte aligned:
             edges   (m, 2) i8/i4   canonical edge list
             indptr  (n+1,) i8      CSR row pointers
             indices (2m,)  i8/i4   CSR adjacency

The cached CSR is stored *materialized*, so a loaded graph never
re-derives it — the engines start from the memmapped buffers directly,
and a pool pickles them, CSR included, to each worker that runs the
graph.  ``compact=True`` halves the file with int32 buffers at the
cost of one widening copy on load (the default int64 layout stays
zero-copy).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

import numpy as np

from ..obs.profile import phase
from .graph import GraphValidationError, StaticGraph

__all__ = [
    "REPROGRAPH_MAGIC",
    "REPROGRAPH_SUFFIX",
    "save_reprograph",
    "load_reprograph",
    "inspect_reprograph",
]

REPROGRAPH_MAGIC = b"REPROGRF"
REPROGRAPH_SUFFIX = ".reprograph"
_VERSION = 1
_FLAG_INT32 = 1
_HEADER_BYTES = 120
_ALIGN = 64


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def save_reprograph(
    path: str | Path, graph: StaticGraph, compact: bool = False
) -> int:
    """Write *graph* (edges + materialized CSR) to ``path``; returns bytes.

    With ``compact=True`` the edge and adjacency buffers are stored as
    int32 (requires ``n < 2**31``), halving the file; loads then widen
    back to int64 with one copy instead of mapping zero-copy.
    """
    path = Path(path)
    if compact and graph.n > np.iinfo(np.int32).max:
        raise GraphValidationError(
            f"compact layout requires n < 2**31, got n={graph.n}"
        )
    with phase("graph.save"):
        indptr, indices = graph._csr  # materialize once, persist forever
        edge_dtype = np.dtype("<i4") if compact else np.dtype("<i8")
        edges = np.ascontiguousarray(graph.edges, dtype=edge_dtype)
        indptr = np.ascontiguousarray(indptr, dtype="<i8")
        indices = np.ascontiguousarray(indices, dtype=edge_dtype)
        edges_off = _align(_HEADER_BYTES)
        indptr_off = _align(edges_off + edges.nbytes)
        indices_off = _align(indptr_off + indptr.nbytes)
        total = indices_off + indices.nbytes

        header = bytearray(_HEADER_BYTES)
        header[0:8] = REPROGRAPH_MAGIC
        header[8:12] = np.uint32(_VERSION).tobytes()
        header[12:16] = np.uint32(_FLAG_INT32 if compact else 0).tobytes()
        header[16:24] = np.int64(graph.n).tobytes()
        header[24:32] = np.int64(graph.m).tobytes()
        header[32:96] = graph.content_hash().encode("ascii")
        header[96:120] = np.array(
            [edges_off, indptr_off, indices_off], dtype="<i8"
        ).tobytes()

        with open(path, "wb") as fh:
            fh.write(header)
            for off, buf in (
                (edges_off, edges),
                (indptr_off, indptr),
                (indices_off, indices),
            ):
                fh.seek(off)
                fh.write(buf.tobytes())
            fh.truncate(max(total, _HEADER_BYTES))
    return total


def _read_header(path: Path) -> dict[str, Any]:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER_BYTES)
    if len(raw) < _HEADER_BYTES or raw[0:8] != REPROGRAPH_MAGIC:
        raise GraphValidationError(f"{path}: not a .reprograph file")
    version = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    if version != _VERSION:
        raise GraphValidationError(
            f"{path}: unsupported .reprograph version {version}"
        )
    flags = int(np.frombuffer(raw[12:16], dtype="<u4")[0])
    n, m = (int(x) for x in np.frombuffer(raw[16:32], dtype="<i8"))
    if n < 0 or m < 0:
        raise GraphValidationError(f"{path}: corrupt header (n={n}, m={m})")
    try:
        content_hash = raw[32:96].decode("ascii")
        int(content_hash, 16)
    except (UnicodeDecodeError, ValueError) as exc:
        raise GraphValidationError(f"{path}: corrupt content hash") from exc
    offsets = np.frombuffer(raw[96:120], dtype="<i8")
    itemsize = 4 if flags & _FLAG_INT32 else 8
    expected = int(offsets[2]) + 2 * m * itemsize
    actual = path.stat().st_size
    if actual < max(expected, _HEADER_BYTES):
        raise GraphValidationError(
            f"{path}: truncated ({actual} bytes, need {expected})"
        )
    return {
        "version": version,
        "flags": flags,
        "compact": bool(flags & _FLAG_INT32),
        "n": n,
        "m": m,
        "content_hash": content_hash,
        "edges_offset": int(offsets[0]),
        "indptr_offset": int(offsets[1]),
        "indices_offset": int(offsets[2]),
        "file_bytes": actual,
    }


def _map(
    path: Path, dtype: str, offset: int, shape: tuple[int, ...]
) -> np.ndarray:
    """One zero-copy read-only view into the file (empty -> no mapping)."""
    count = 1
    for dim in shape:
        count *= dim
    if count == 0:
        return np.empty(shape, dtype=np.dtype(dtype))
    view = np.memmap(path, dtype=np.dtype(dtype), mode="r", offset=offset, shape=shape)
    return view


def load_reprograph(path: str | Path, verify: bool = False) -> StaticGraph:
    """Open a saved graph as memmap-backed views — O(1), no data copied.

    Edge and CSR buffers stay on disk until touched; ``verify=True``
    additionally re-hashes the edge buffer (reads everything once) and
    checks it against the stored content hash.
    """
    path = Path(path)
    with phase("graph.load"):
        head = _read_header(path)
        n, m = head["n"], head["m"]
        dtype = "<i4" if head["compact"] else "<i8"
        edges = _map(path, dtype, head["edges_offset"], (m, 2))
        indptr = _map(path, "<i8", head["indptr_offset"], (n + 1,))
        indices = _map(path, dtype, head["indices_offset"], (2 * m,))
        if head["compact"]:
            edges = edges.astype(np.int64)
            indices = indices.astype(np.int64)
        graph = StaticGraph._from_shared_parts(  # noqa: SLF001 - same package
            n, edges, indptr, indices, head["content_hash"]
        )
    if verify:
        h = hashlib.sha256(b"repro-static-graph-v1")
        h.update(int(n).to_bytes(8, "little"))
        h.update(np.ascontiguousarray(graph.edges, dtype="<i8").tobytes())
        if h.hexdigest() != head["content_hash"]:
            raise GraphValidationError(
                f"{path}: content hash mismatch (file corrupt?)"
            )
    return graph


def inspect_reprograph(path: str | Path) -> dict[str, Any]:
    """Header metadata of a ``.reprograph`` file without mapping any data."""
    return _read_header(Path(path))
