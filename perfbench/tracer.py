"""Spans around the program's public layer functions, patched from outside.

:func:`install` replaces module and class attributes of ``repro`` with
timing wrappers before any work starts; the program itself is not
edited.  Each wrapper records a span -- name, start, end, parent span,
the request's ``id`` -- on ``time.monotonic_ns()``, which is one clock
across processes on Linux, so spans from the front end, the shards and
the pool workers line up.

Spans are kept in memory and appended to ``spans-<pid>.jsonl`` in the
trace directory when the process ends (:func:`flush`).  Pool workers
leave through ``os._exit`` and never run exit hooks, so a forked worker
flushes after every chunk instead; workers inherit the wrappers through
fork.

The ``repro.fast.engine`` kernels run once per round of every trial, far
too often for a span each: they keep running totals (calls, time, bytes
computed from array sizes), and every chunk span carries the part of
those totals its chunk added.  Kernels only ever run inside a chunk.

Cross-process links are by key, not by parent pointer: the front end and
the shard share the request ``id``; a pool chunk's dispatch and its
worker-side compute share the chunk id; scheduler-thread work carries
the request's trace id, which ``service.submit`` maps back to the id.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import itertools
import json
import os
import re
import threading
import time
from pathlib import Path

#: Environment variable naming the directory spans are written to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

KERNELS = ("neighbor_any", "neighbor_max", "neighbor_count")
_KERNEL_MODULES = (
    "repro.fast.engine",
    "repro.fast.luby",
    "repro.fast.fair_tree",
    "repro.fast.fair_rooted",
    "repro.fast.blocks",
    "repro.fast.cfb",
)
#: Output element size per kernel (bool, the input dtype, int64).
_OUT_ITEMSIZE = {"neighbor_any": 1, "neighbor_max": None, "neighbor_count": 8}

_spans: list[dict] = []
# kernel -> [calls, ns, bytes]; only a chunk's executing thread runs
# kernels, so the read-modify-write below never races.
_kernels: dict[str, list[int]] = {k: [0, 0, 0] for k in KERNELS}
_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_rid: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_rid", default=None
)
_seq = itertools.count(1)
_local = threading.local()
_state: dict = {"dir": None, "forked": False, "trace_id": lambda: None}
_ID = re.compile(r'"id": "([^"]+)"')


def _trace_id() -> str | None:
    return _state["trace_id"]()


def _emit(name, start, sid, parent, attrs) -> None:
    rec = {
        "n": name,
        "s": start,
        "e": time.monotonic_ns(),
        "id": sid,
        "p": parent,
        "r": _rid.get(),
    }
    if attrs:
        rec.update(attrs)
    _spans.append(rec)


def _wrap(fn, name, rid=None, attrs=None):
    """Time a plain function or method; *rid*/*attrs* read its arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = next(_seq)
        parent = _current.get()
        token = _current.set(sid)
        rtoken = _rid.set(rid(args, kwargs)) if rid is not None else None
        start = time.monotonic_ns()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            _emit(name, start, sid, parent, attrs(args, kwargs, out) if attrs else None)
            if rtoken is not None:
                _rid.reset(rtoken)
            _current.reset(token)

    return wrapper


def _wrap_async(fn, name, rid=None, attrs=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        sid = next(_seq)
        parent = _current.get()
        token = _current.set(sid)
        rtoken = _rid.set(rid(args, kwargs)) if rid is not None else None
        start = time.monotonic_ns()
        out = None
        try:
            out = await fn(*args, **kwargs)
            return out
        finally:
            _emit(name, start, sid, parent, attrs(args, kwargs, out) if attrs else None)
            if rtoken is not None:
                _rid.reset(rtoken)
            _current.reset(token)

    return wrapper


def _wrap_kernel(fn, name):
    out_itemsize = _OUT_ITEMSIZE[name]
    cell = _kernels[name]

    @functools.wraps(fn)
    def wrapper(arr, es, ed, n, *rest, **kwargs):
        start = time.monotonic_ns()
        out = fn(arr, es, ed, n, *rest, **kwargs)
        cell[1] += time.monotonic_ns() - start
        cell[0] += 1
        edge_mask = rest[0] if rest else kwargs.get("edge_mask")
        # Computed, not measured: the edge lists, one gather of the input
        # per directed edge, the optional edge mask and the output.
        cell[2] += (
            es.nbytes
            + ed.nbytes
            + es.size * arr.itemsize
            + (edge_mask.nbytes if edge_mask is not None else 0)
            + n * (out_itemsize or arr.itemsize)
        )
        return out

    return wrapper


# --------------------------------------------------------------------- #
# argument readers
# --------------------------------------------------------------------- #
def _request_rid(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    if request is not None:
        return request.id
    return kwargs.get("request_id")


def _line_rid(args, kwargs):
    raw = args[1] if len(args) > 1 else kwargs.get("raw", "")
    match = _ID.search(raw)
    return match.group(1) if match else None


def _submit_attrs(args, kwargs, out):
    return {"trace": out.trace_id if out is not None else None}


def _trace_attrs(args, kwargs, out):
    return {"trace": _trace_id()}


def _route_attrs(args, kwargs, out):
    return {"shard": out}


def _encode_rid(args, kwargs):
    return args[0].request.id


def _absorb_attrs(args, kwargs, out):
    telemetry = getattr(args[1], "telemetry", None)
    return {"chunk": getattr(telemetry, "chunk_id", None)}


def _wrap_engine(fn, vectorized):
    """A chunk of trials: one span, with the kernel work it did attached."""

    def kernel_totals():
        return {k: cell[:] for k, cell in _kernels.items()}

    def attrs(args, kwargs, out):
        chunk, trace = getattr(_local, "chunk", None) or (None, None)
        trials = (args[3] if len(args) > 3 else kwargs["trials"]) if vectorized else len(args[2])
        before = _local.kernels_before
        kernels = {
            k: [now - then for now, then in zip(cell, before[k])]
            for k, cell in _kernels.items()
            if cell[0] != before[k][0]
        }
        return {"alg": args[0].name, "trials": trials, "chunk": chunk, "trace": trace, "k": kernels}

    timed = _wrap(fn, "engine.chunk", attrs=attrs)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _local.kernels_before = kernel_totals()
        return timed(*args, **kwargs)

    return wrapper


# --------------------------------------------------------------------- #
# pool chunk plumbing
# --------------------------------------------------------------------- #
def _wrap_new_chunk_id(fn):
    @functools.wraps(fn)
    def wrapper():
        chunk_id = fn()
        holder = getattr(_local, "holder", None)
        if holder is not None:
            holder["chunk"] = chunk_id
        return chunk_id

    return wrapper


def _wrap_submit_chunk(fn):
    """``submit_chunk`` → its callback is one ``pool.inflight`` span."""

    @functools.wraps(fn)
    def wrapper(self, chunk, vectorized, callback, error_callback):
        sid = next(_seq)
        parent = _current.get()
        start = time.monotonic_ns()
        holder: dict = {}
        trace = _trace_id()
        trials = chunk[1] if vectorized else len(chunk)

        def on_done(counts):
            _emit(
                "pool.inflight",
                start,
                sid,
                parent,
                {"chunk": holder.get("chunk"), "trace": trace, "trials": trials},
            )
            return callback(counts)

        token = _current.set(sid)
        _local.holder = holder
        try:
            return fn(self, chunk, vectorized, on_done, error_callback)
        finally:
            _local.holder = None
            _current.reset(token)

    return wrapper


def _wrap_chunk_harness(fn):
    """Worker side: remember the chunk's id and trace while it runs."""

    @functools.wraps(fn)
    def wrapper(work, ctx, chunk_id, **kwargs):
        _local.chunk = (chunk_id, getattr(ctx, "trace_id", None))
        try:
            return fn(work, ctx, chunk_id, **kwargs)
        finally:
            _local.chunk = None
            if _state["forked"]:
                flush()

    return wrapper


# --------------------------------------------------------------------- #
# install / flush
# --------------------------------------------------------------------- #
def _after_fork() -> None:
    _spans.clear()
    _local.holder = _local.chunk = None
    _current.set(None)
    _state["forked"] = True


def install(trace_dir: str | os.PathLike | None = None) -> None:
    """Patch the layer functions; spans go to *trace_dir* (or the env)."""
    import importlib

    from repro.analysis import montecarlo
    from repro.frontend import routing, server, shards
    from repro.graphs import graph, spec
    from repro.obs import remote
    from repro.obs.spans import current_trace_id
    from repro.service import cache, estimator, precision, requests

    _state["trace_id"] = current_trace_id
    _state["dir"] = Path(trace_dir or os.environ[TRACE_DIR_ENV])
    _state["dir"].mkdir(parents=True, exist_ok=True)

    def patch(owner, attr, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    fe = server.Frontend
    patch(fe, "handle_line", lambda f: _wrap_async(f, "frontend.handle_line", rid=_line_rid))
    patch(server, "parse_request_line", lambda f: _wrap(f, "frontend.parse"))
    patch(routing.RendezvousRouter, "shard_for", lambda f: _wrap(f, "frontend.route", attrs=_route_attrs))
    patch(shards.ShardClient, "submit", lambda f: _wrap_async(f, "shard.submit"))

    est = estimator.Estimator
    patch(est, "estimate", lambda f: _wrap(f, "service.estimate", rid=_request_rid))
    patch(est, "submit", lambda f: _wrap(f, "service.submit", rid=_request_rid, attrs=_submit_attrs))
    patch(requests.EstimateResult, "to_json", lambda f: _wrap(f, "shard.encode", rid=_encode_rid))
    patch(precision.StoppingRule, "check", lambda f: _wrap(f, "service.check", attrs=_trace_attrs))

    rc = cache.ResultCache
    patch(rc, "get", lambda f: _wrap(f, "cache.lookup"))
    patch(rc, "evidence", lambda f: _wrap(f, "cache.lookup"))
    patch(rc, "add_evidence", lambda f: _wrap(f, "cache.deposit"))

    pool = montecarlo.TrialPool
    patch(pool, "__init__", lambda f: _wrap(f, "pool.create", attrs=_trace_attrs))
    patch(pool, "submit_chunk", _wrap_submit_chunk)
    patch(montecarlo, "new_chunk_id", _wrap_new_chunk_id)
    patch(montecarlo, "run_chunk_with_telemetry", _wrap_chunk_harness)
    patch(montecarlo, "chunk_counts", lambda f: _wrap_engine(f, vectorized=False))
    patch(montecarlo, "vector_chunk_counts", lambda f: _wrap_engine(f, vectorized=True))
    patch(remote.RemoteTelemetry, "absorb", lambda f: _wrap(f, "telemetry.absorb", attrs=_absorb_attrs))

    patch(spec.GraphSpec, "build", lambda f: _wrap(f, "graphs.build"))
    patch(graph.StaticGraph, "content_hash", lambda f: _wrap(f, "graphs.hash"))

    kernels = {k: _wrap_kernel(getattr(importlib.import_module(_KERNEL_MODULES[0]), k), k) for k in KERNELS}
    for name in _KERNEL_MODULES:
        module = importlib.import_module(name)
        for k, wrapped in kernels.items():
            if hasattr(module, k):
                setattr(module, k, wrapped)

    os.register_at_fork(after_in_child=_after_fork)
    atexit.register(flush)


def record(name: str, start_ns: int, end_ns: int, rid: str | None = None, **attrs) -> None:
    """Record a span measured by the benchmark itself (e.g. the client)."""
    rec = {"n": name, "s": start_ns, "e": end_ns, "id": next(_seq), "p": None, "r": rid}
    rec.update(attrs)
    _spans.append(rec)


def flush() -> None:
    """Append this process's spans to its span file."""
    if _state["dir"] is None or not _spans:
        return
    spans = _spans[:]
    del _spans[: len(spans)]
    with open(_state["dir"] / f"spans-{os.getpid()}.jsonl", "a") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in spans)


def load(trace_dir: str | os.PathLike) -> list[dict]:
    """All spans written under *trace_dir*, each tagged with its pid."""
    spans: list[dict] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec["pid"] = pid
            spans.append(rec)
    return spans
