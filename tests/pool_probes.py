"""Helpers for pool tests: graph-send counting, and algorithms that
check, inside a pool worker, the graph they were sent.

A probe raises when its check fails, so the chunk fails and the test
sees the error; otherwise it outputs the empty set.  Probes carry plain
arrays, never a :class:`~repro.graphs.graph.StaticGraph`, so that tests
can count the graph pickles a pool makes.  They live in an importable
module so that spawn-started workers can unpickle them.
"""

from collections import Counter

import numpy as np

from repro.core.result import MISResult
from repro.graphs import StaticGraph


def count_graph_sends(monkeypatch) -> Counter:
    """Count the pickles of :class:`StaticGraph` made in this process
    from now on, by content hash: the graphs a pool sends its workers."""
    sends: Counter = Counter()
    reduce = StaticGraph.__reduce_ex__

    def counting(graph, protocol):
        sends[graph.content_hash()] += 1
        return reduce(graph, protocol)

    monkeypatch.setattr(StaticGraph, "__reduce_ex__", counting)
    return sends

#: ``id()`` of the graph object each content hash ran on, per process.
_SEEN: dict[str, int] = {}


class _Probe:
    name = "pool_probe"

    def run(self, graph, rng):
        self.check(graph)
        return MISResult(np.zeros(graph.n, dtype=bool))


class GraphCheck(_Probe):
    """The worker's graph equals the one it was built from, and arrived
    with its CSR and content hash cached (building the probe caches the
    CSR of its graph)."""

    def __init__(self, graph) -> None:
        self.n = graph.n
        self.edges = np.array(graph.edges)
        self.csr = tuple(np.array(a) for a in graph._csr)
        self.content_hash = graph.content_hash()

    def check(self, graph) -> None:
        cached = graph.__dict__
        assert "_csr" in cached and "_content_hash" in cached, sorted(cached)
        assert graph.n == self.n
        assert np.array_equal(graph.edges, self.edges)
        assert cached["_content_hash"] == self.content_hash
        for got, want in zip(cached["_csr"], self.csr):
            assert np.array_equal(got, want)


class SameObject(_Probe):
    """Every chunk of a graph in one worker runs on one graph object."""

    def check(self, graph) -> None:
        first = _SEEN.setdefault(graph.content_hash(), id(graph))
        assert first == id(graph), "the worker rebuilt a graph it holds"


class ReadOnly(_Probe):
    """No chunk can write into the arrays of the graph its worker was
    sent, the edges and the CSR."""

    def check(self, graph) -> None:
        assert "_csr" in graph.__dict__, "the CSR did not cross"
        for array in (graph.edges, *graph._csr):
            if array.size:
                try:
                    array.flat[0] = array.flat[0]
                except ValueError:
                    continue
                raise AssertionError("a kept graph array is writable")
