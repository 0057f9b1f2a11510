"""Canonical immutable graph types used across the whole library.

All substrates (the faithful message-passing runtime and the vectorized
fast engines) consume :class:`StaticGraph`, a frozen CSR-backed undirected
graph with vertices ``0..n-1``.  ``networkx`` is supported at the boundary
(:meth:`StaticGraph.from_networkx` / :meth:`StaticGraph.to_networkx`) but
never used inside algorithms, so the hot paths stay pure numpy.

Design notes (per the HPC guides):

* neighbor queries are array *views* into the CSR ``indices`` buffer — no
  copies on the hot path;
* the symmetric edge list (``edge_src``/``edge_dst``, both directions) is
  precomputed once so per-round neighbor reductions can be expressed as
  single scatter operations (``np.maximum.at`` et al.);
* everything is validated eagerly at construction and immutable after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..obs.profile import phase

__all__ = [
    "StaticGraph",
    "RootedTree",
    "ForestLayout",
    "GraphValidationError",
    "tree_parents",
]


class GraphValidationError(ValueError):
    """Raised when construction input does not describe a simple graph."""


def _validate_endpoints(n: int, src: np.ndarray, dst: np.ndarray) -> None:
    """Range and self-loop checks shared by every construction path."""
    lo_min = min(int(src.min()), int(dst.min()))
    hi_max = max(int(src.max()), int(dst.max()))
    if lo_min < 0 or hi_max >= n:
        raise GraphValidationError(
            f"edge endpoint out of range [0, {n}): "
            f"min={lo_min}, max={hi_max}"
        )
    if np.any(src == dst):
        raise GraphValidationError("self-loops are not allowed")


def _is_strictly_sorted(lo: np.ndarray, hi: np.ndarray) -> bool:
    """True iff ``(lo, hi)`` rows are strictly increasing lexicographically
    (which also implies there are no duplicate rows)."""
    if lo.shape[0] <= 1:
        return True
    d_lo = np.diff(lo)
    d_hi = np.diff(hi)
    return bool(np.all((d_lo > 0) | ((d_lo == 0) & (d_hi > 0))))


def _canonicalize_arrays(
    n: int, src: np.ndarray, dst: np.ndarray, dedup: bool, validate: bool = True
) -> np.ndarray:
    """Vectorized canonicalization of endpoint arrays.

    Returns an ``(m, 2)`` int64 array with ``u < v`` per row, sorted
    lexicographically; duplicates are rejected (or dropped when *dedup*).
    No per-edge Python objects are created at any point.
    """
    if src.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    if validate:
        _validate_endpoints(n, src, dst)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    if not _is_strictly_sorted(lo, hi):
        if n <= np.iinfo(np.int32).max:
            # fused (lo, hi) sort key: one in-place C sort, no index
            # array and no gather passes (n^2 fits int64 up to 2^31)
            key = lo * np.int64(n)
            key += hi
            key.sort()
            dup = np.diff(key) == 0
            if dup.any():
                if not dedup:
                    raise GraphValidationError(
                        "duplicate (parallel) edges are not allowed"
                    )
                keep = np.empty(key.shape[0], dtype=bool)
                keep[0] = True
                np.logical_not(dup, out=keep[1:])
                key = key[keep]
            lo = key // np.int64(n)
            hi = key - lo * np.int64(n)
        else:
            order = np.lexsort((hi, lo))
            lo = lo[order]
            hi = hi[order]
            dup = (np.diff(lo) == 0) & (np.diff(hi) == 0)
            if dup.any():
                if not dedup:
                    raise GraphValidationError(
                        "duplicate (parallel) edges are not allowed"
                    )
                keep = np.empty(lo.shape[0], dtype=bool)
                keep[0] = True
                np.logical_not(dup, out=keep[1:])
                lo = lo[keep]
                hi = hi[keep]
    canon = np.empty((lo.shape[0], 2), dtype=np.int64)
    canon[:, 0] = lo
    canon[:, 1] = hi
    return canon


def _normalize_edges(
    n: int, edges: "Iterable[tuple[int, int]] | np.ndarray", dedup: bool = False
) -> np.ndarray:
    """Validate and canonicalize an undirected edge list.

    Returns an ``(m, 2)`` int64 array with ``u < v`` per row, sorted
    lexicographically, duplicates rejected (dropped when *dedup*).

    Array input takes a fully vectorized path — no round trip through a
    Python list — and an already-canonical int64 array is returned
    **as-is** (no copy), which is what makes memmap-backed and
    shared-memory graphs O(1) to wrap.
    """
    if isinstance(edges, np.ndarray):
        arr = edges
        if arr.size and arr.dtype != np.int64:
            if not np.issubdtype(arr.dtype, np.integer):
                raise GraphValidationError("edge array must be integral")
            arr = arr.astype(np.int64)
    else:
        arr = np.asarray(list(edges), dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphValidationError("edges must be pairs of vertex indices")
    src = arr[:, 0]
    dst = arr[:, 1]
    _validate_endpoints(n, src, dst)
    if bool(np.all(src < dst)) and _is_strictly_sorted(src, dst):
        return arr  # already canonical: zero-copy
    return _canonicalize_arrays(n, src, dst, dedup, validate=False)


def _root_forest(
    graph: "StaticGraph", root: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(parent, link)`` of *graph* rooted at *root* and every other
    component at its smallest vertex, or ``None`` if it has a cycle.

    The Euler-tour technique (Tarjan and Vishkin, SIAM J. Comput. 1985)
    in ``O(log n)`` array passes.  Arc ``j`` runs ``edge_src[j] ->
    edge_dst[j]``, and arcs ``j`` and ``j + m`` are twins.  The arc after
    u→v is the one after v→u in v's rotation, so each component's arcs
    form closed tours; a tree's tour walks every edge down and then up.
    ``link[v]`` indexes ``graph.edges`` at v's parent edge (0 at roots).
    """
    n, m = graph.n, graph.m
    if m >= n > 0:
        return None  # a forest has m <= n - 1
    src, dst = graph.edge_src, graph.edge_dst
    # rotation: each vertex's arcs in one run of slots, in arc order
    order = np.argsort(src, kind="stable")
    slot = np.empty(2 * m, dtype=np.intp)
    slot[order] = np.arange(2 * m)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(graph.degrees, out=indptr[1:])
    after = np.roll(slot, m) + 1  # the slot after each arc's twin
    wrap = after == indptr[dst + 1]
    after[wrap] = indptr[dst[wrap]]
    succ = order[after]
    # pointer doubling: each tour's smallest slot, its smallest vertex's
    # first arc, labels the tour and starts it
    first, hop = slot, succ
    while True:
        low = np.minimum(first, first[hop])
        if np.array_equal(low, first):
            break
        first, hop = low, hop[hop]
    # a tree with an edge has one tour and m = n - 1; a component with a
    # cycle has more edges than vertices minus tours
    tours = np.count_nonzero(first == slot)
    if m != n - np.count_nonzero(graph.degrees == 0) - tours:
        return None
    if m and indptr[root] < indptr[root + 1]:
        first[first == first[order[indptr[root]]]] = indptr[root]
    # list ranking: cut each tour before its start, then count each
    # arc's hops to the tour's last arc by pointer jumping
    last = slot[succ] == first
    left = (~last).astype(np.int64)
    hop = np.where(last, np.arange(2 * m), succ)
    while True:
        jump = hop[hop]
        if np.array_equal(jump, hop):
            break
        left += left[hop]
        hop = jump
    # edge j is walked lo -> hi first iff that arc ranks before its twin
    down = left[:m] > left[m:]
    e = graph.edges
    child = np.where(down, e[:, 1], e[:, 0])
    parent = np.full(n, -1, dtype=np.int64)
    parent[child] = np.where(down, e[:, 0], e[:, 1])
    # intp, as numpy gathers through int32 indices several times slower
    link = np.zeros(n, dtype=np.intp)
    link[child] = np.arange(m)
    return parent, link


@dataclass(frozen=True)
class StaticGraph:
    """An immutable simple undirected graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        ``(m, 2)`` canonical edge array (``u < v``, sorted, no duplicates).
        Use :meth:`from_edges` / :meth:`from_networkx` rather than the raw
        constructor.
    """

    n: int
    edges: np.ndarray = field(repr=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: "Iterable[tuple[int, int]] | np.ndarray",
        dedup: bool = False,
    ) -> "StaticGraph":
        """Build a graph from any iterable (or ``(m, 2)`` array) of edges.

        Thin compatibility wrapper over the array-native path: ndarray
        input is canonicalized without touching per-edge Python objects,
        anything else is materialized once and handed to the same
        vectorized pipeline.  With ``dedup=True`` parallel edges are
        dropped instead of rejected.
        """
        if n < 0:
            raise GraphValidationError("n must be non-negative")
        with phase("graph.build"):
            return cls(n=n, edges=_normalize_edges(n, edges, dedup=dedup))

    @classmethod
    def from_arrays(
        cls,
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        dedup: bool = False,
    ) -> "StaticGraph":
        """Build a graph from parallel endpoint arrays — the fast path.

        *src*/*dst* are 1-D integer arrays of equal length; edge ``i`` is
        ``{src[i], dst[i]}``.  Canonicalization (direction, sort, dup
        check) is fully vectorized and creates no per-edge Python
        objects, so constructing a million-edge graph costs a handful of
        O(m) array passes.  With ``dedup=True`` duplicate edges are
        dropped instead of rejected (useful for triangulations and raw
        edge-list files where both directions may appear).
        """
        if n < 0:
            raise GraphValidationError("n must be non-negative")
        with phase("graph.build"):
            src = np.ascontiguousarray(src, dtype=np.int64)
            dst = np.ascontiguousarray(dst, dtype=np.int64)
            if src.ndim != 1 or src.shape != dst.shape:
                raise GraphValidationError(
                    "src and dst must be 1-D arrays of equal length"
                )
            return cls(n=n, edges=_canonicalize_arrays(n, src, dst, dedup))

    @classmethod
    def _from_shared_parts(
        cls,
        n: int,
        edges: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        content_hash: str,
    ) -> "StaticGraph":
        """Assemble a graph from pre-built arrays.

        Trusted path for :func:`~repro.graphs.diskgraph.load_reprograph`:
        the arrays were written by a validated graph, so validation is
        skipped and the CSR + content hash are injected straight into the
        cache slots (``cached_property`` stores into ``__dict__``) —
        loading a graph never recomputes anything.
        """
        graph = cls(n=n, edges=edges)
        graph.__dict__["_csr"] = (indptr, indices)
        graph.__dict__["_content_hash"] = content_hash
        return graph

    @classmethod
    def from_networkx(cls, graph) -> "StaticGraph":
        """Convert a ``networkx`` graph with arbitrary hashable labels.

        Labels are mapped to ``0..n-1`` in sorted order when sortable, else
        in insertion order.
        """
        nodes = list(graph.nodes())
        try:
            nodes = sorted(nodes)
        except TypeError:
            pass
        index = {v: i for i, v in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in graph.edges()]
        return cls.from_edges(len(nodes), edges)

    def to_networkx(self):
        """Return the graph as a ``networkx.Graph`` (for inspection only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(map(tuple, self.edges.tolist()))
        return g

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.edges.shape[0])

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency: (indptr, indices) over the symmetrized edges.

        Exploits the canonical edge order: edges are sorted by ``lo``, so
        each vertex's lo-block is already a contiguous run and only the
        ``hi`` endpoints need one (half-length) stable sort.  Produces
        byte-identical output to a stable argsort of the symmetrized
        source array — per vertex, lo-entries precede hi-entries, each
        block in edge order — at roughly half the cost.
        """
        with phase("graph.csr"):
            n = self.n
            e = self.edges
            m = int(e.shape[0])
            if m == 0:
                return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
            lo = e[:, 0]
            hi = e[:, 1]
            counts_lo = np.bincount(lo, minlength=n)
            counts_hi = np.bincount(hi, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts_lo + counts_hi, out=indptr[1:])
            lo_start = np.zeros(n, dtype=np.int64)
            np.cumsum(counts_lo[:-1], out=lo_start[1:])
            hi_start = np.zeros(n, dtype=np.int64)
            np.cumsum(counts_hi[:-1], out=hi_start[1:])
            j = np.arange(m, dtype=np.int64)
            ho = np.argsort(hi, kind="stable")
            sh = hi[ho]
            indices = np.empty(2 * m, dtype=np.int64)
            indices[indptr[lo] + (j - lo_start[lo])] = hi
            indices[indptr[sh] + counts_lo[sh] + (j - hi_start[sh])] = lo[ho]
            return indptr, indices

    @cached_property
    def edge_src(self) -> np.ndarray:
        """Source endpoints of the *symmetrized* edge list (length 2m)."""
        if self.m == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self.edges[:, 0], self.edges[:, 1]])

    @cached_property
    def edge_dst(self) -> np.ndarray:
        """Destination endpoints of the symmetrized edge list (length 2m)."""
        if self.m == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self.edges[:, 1], self.edges[:, 0]])

    @cached_property
    def degrees(self) -> np.ndarray:
        """Vertex degrees as an int64 array of length ``n``."""
        return np.bincount(self.edge_src, minlength=self.n).astype(np.int64)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of ``v`` as a read-only array view (no copy)."""
        indptr, indices = self._csr
        view = indices[indptr[v] : indptr[v + 1]]
        view.setflags(write=False)
        return view

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` is an edge."""
        if u == v:
            return False
        nbrs = self.neighbors(u)
        i = np.searchsorted(np.sort(nbrs), v)
        return i < len(nbrs) and int(np.sort(nbrs)[i]) == v

    @cached_property
    def max_degree(self) -> int:
        """Maximum vertex degree (0 for the empty graph)."""
        return int(self.degrees.max()) if self.n else 0

    def content_hash(self) -> str:
        """Stable content-addressed digest of the *labeled* graph.

        Two graphs hash identically iff they have the same vertex count and
        the same edge set — regardless of the order edges were supplied in
        (construction canonicalizes the edge list).  Relabeling vertices
        changes the hash: this is labeled-graph identity, not isomorphism,
        which is exactly what result caching needs (join probabilities are
        per-label).  The digest is platform-stable (fixed endianness).
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            import hashlib

            h = hashlib.sha256(b"repro-static-graph-v1")
            h.update(int(self.n).to_bytes(8, "little"))
            h.update(np.ascontiguousarray(self.edges, dtype="<i8").tobytes())
            cached = h.hexdigest()
            self.__dict__["_content_hash"] = cached
        return cached

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def adjacency_csr(self):
        """Return adjacency as a ``scipy.sparse.csr_array`` of 1s."""
        from scipy.sparse import csr_array

        indptr, indices = self._csr
        data = np.ones(len(indices), dtype=np.int8)
        return csr_array((data, indices, indptr), shape=(self.n, self.n))

    @cached_property
    def _components(self) -> tuple[int, np.ndarray]:
        from scipy.sparse.csgraph import connected_components

        if self.n == 0:
            return 0, np.empty(0, dtype=np.int64)
        count, labels = connected_components(self.adjacency_csr(), directed=False)
        return int(count), labels.astype(np.int64)

    def connected_components(self) -> tuple[int, np.ndarray]:
        """Label connected components; returns ``(count, labels)``
        (cached per graph)."""
        return self._components

    def is_connected(self) -> bool:
        """True iff the graph has at most one connected component."""
        return self.n <= 1 or self.connected_components()[0] == 1

    def is_tree(self) -> bool:
        """True iff connected and ``m == n - 1``."""
        return self.n > 0 and self.m == self.n - 1 and self.is_connected()

    def is_forest(self) -> bool:
        """True iff acyclic (:attr:`forest_layout` exists)."""
        return self.forest_layout is not None

    @cached_property
    def forest_layout(self) -> "ForestLayout | None":
        """The rooting from vertex 0 (and from the smallest vertex of
        every other component) with each vertex's depth and parent edge,
        or ``None`` if the graph has a cycle.

        Built on first use and kept with the graph: FAIRROOTED,
        Cole–Vishkin and FAIRTREE root a graph once per process, not once
        per run or pool chunk.
        """
        rooted = _root_forest(self, 0)
        if rooted is None:
            return None
        parent, link = rooted
        roots = np.flatnonzero(parent < 0)
        # depth by pointer doubling: depth[v] counts the hops from v to
        # anc[v], its 2^k-th ancestor or its root; O(log depth) passes,
        # and never more than a depth below n needs
        depth = (parent >= 0).astype(np.int32)
        anc = parent.copy()
        anc[roots] = roots
        for _ in range(self.n.bit_length()):
            nxt = anc[anc]
            if np.array_equal(nxt, anc):
                break
            depth += depth[anc]
            anc = nxt
        return ForestLayout(parent=parent, depth=depth, link=link, roots=roots)

    def subgraph_mask(self, keep: np.ndarray) -> "StaticGraph":
        """Induced subgraph on ``keep`` (bool mask), *preserving* vertex ids.

        Vertices outside the mask become isolated; this keeps indices stable
        which is what the staged algorithms need ("run on the subgraph
        induced by the still-active nodes").
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.n,):
            raise GraphValidationError("mask must have shape (n,)")
        if self.m == 0:
            return self
        e = self.edges
        sel = keep[e[:, 0]] & keep[e[:, 1]]
        return StaticGraph(n=self.n, edges=e[sel])

    def bfs_levels(self, sources: Sequence[int] | np.ndarray) -> np.ndarray:
        """Hop distance from the nearest source; ``-1`` if unreachable.

        Implemented as vectorized frontier expansion over the symmetric
        edge list — one ``O(m)`` scatter per BFS level.
        """
        level = np.full(self.n, -1, dtype=np.int64)
        src_arr = np.asarray(sources, dtype=np.int64)
        if src_arr.size == 0:
            return level
        level[src_arr] = 0
        frontier = np.zeros(self.n, dtype=bool)
        frontier[src_arr] = True
        depth = 0
        es, ed = self.edge_src, self.edge_dst
        while frontier.any():
            depth += 1
            hit = frontier[es]
            nxt = np.zeros(self.n, dtype=bool)
            nxt[ed[hit]] = True
            nxt &= level < 0
            level[nxt] = depth
            frontier = nxt
        return level

    def diameter(self) -> int:
        """Exact diameter (max eccentricity); ``inf``-free: requires
        a connected graph, raises otherwise."""
        if self.n == 0:
            raise GraphValidationError("diameter of the empty graph is undefined")
        if not self.is_connected():
            raise GraphValidationError("diameter requires a connected graph")
        if self.n == 1:
            return 0
        # Trees admit the double-BFS trick; general graphs fall back to
        # per-vertex BFS (used only in tests / small experiments).
        if self.is_tree():
            lv = self.bfs_levels([0])
            far = int(np.argmax(lv))
            lv2 = self.bfs_levels([far])
            return int(lv2.max())
        ecc = 0
        for v in range(self.n):
            ecc = max(ecc, int(self.bfs_levels([v]).max()))
        return ecc

    def bipartition(self) -> np.ndarray | None:
        """2-coloring as a 0/1 array, or ``None`` if not bipartite."""
        color = np.full(self.n, -1, dtype=np.int8)
        es, ed = self.edge_src, self.edge_dst
        for start in range(self.n):
            if color[start] >= 0:
                continue
            color[start] = 0
            frontier = np.zeros(self.n, dtype=bool)
            frontier[start] = True
            while frontier.any():
                hit = frontier[es]
                touched_from = es[hit]
                touched_to = ed[hit]
                want = (1 - color[touched_from]).astype(np.int8)
                fresh = color[touched_to] < 0
                conflict = (~fresh) & (color[touched_to] != want)
                if conflict.any():
                    return None
                nxt = np.zeros(self.n, dtype=bool)
                # assign colors to freshly touched vertices
                color[touched_to[fresh]] = want[fresh]
                nxt[touched_to[fresh]] = True
                frontier = nxt
        return color.astype(np.int64)

    def is_bipartite(self) -> bool:
        """True iff the graph admits a proper 2-coloring."""
        return self.bipartition() is not None

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StaticGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class RootedTree:
    """A rooted tree (or forest): a :class:`StaticGraph` plus parent pointers.

    ``parent[v] == -1`` marks a root.  Used by FAIRROOTED and Cole–Vishkin,
    which assume each internal node knows its parent (Section IV).
    """

    graph: StaticGraph
    parent: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.parent, dtype=np.int64)
        object.__setattr__(self, "parent", p)
        n = self.graph.n
        if p.shape != (n,):
            raise GraphValidationError("parent array must have shape (n,)")
        if p.size and int(p.max()) >= n:
            raise GraphValidationError(
                f"parent index out of range [0, {n}): max={int(p.max())}"
            )
        # Forest certificate without touching the adjacency structure:
        # (1) every edge is oriented by the parent array, (2) the edge
        # count matches the non-root count, (3) parent pointers are
        # acyclic.  Together these prove the edge set is exactly the
        # forest of parent links — no connected-components pass needed.
        e = self.graph.edges
        if e.size:
            oriented = (p[e[:, 0]] == e[:, 1]) | (p[e[:, 1]] == e[:, 0])
            if not oriented.all():
                u, v = e[int(np.argmin(oriented))]
                raise GraphValidationError(
                    f"edge ({u},{v}) is not oriented by the parent array"
                )
        # With all m edges oriented, each edge claims a distinct child
        # (a vertex has one parent), so m == #non-roots iff every
        # non-root's parent link {v, parent[v]} is a real edge.
        nonroot = p >= 0
        if int(nonroot.sum()) != self.graph.m:
            kids = np.nonzero(nonroot)[0]
            pk = p[kids]
            lo = np.minimum(kids, pk)
            hi = np.maximum(kids, pk)
            key = lo * np.int64(max(n, 1)) + hi
            edge_key = e[:, 0] * np.int64(max(n, 1)) + e[:, 1]  # sorted
            pos = np.searchsorted(edge_key, key)
            pos = np.minimum(pos, max(len(edge_key) - 1, 0))
            missing = (
                np.ones(len(kids), dtype=bool)
                if len(edge_key) == 0
                else edge_key[pos] != key
            )
            bad = int(np.argmax(missing))
            raise GraphValidationError(
                f"parent[{kids[bad]}]={pk[bad]} is not adjacent to {kids[bad]}"
            )
        # (3) acyclicity by pointer doubling: after k squarings every
        # vertex has followed 2^k parent hops; in a forest all chains
        # absorb into -1 within depth hops, so a live vertex past ~n
        # hops is on a cycle.
        anc = p.copy()
        hops = 1
        while bool((anc >= 0).any()):
            if hops > 2 * n:
                raise GraphValidationError("underlying graph must be acyclic")
            safe = np.maximum(anc, 0)
            anc = np.where(anc >= 0, anc[safe], np.int64(-1))
            hops *= 2

    @classmethod
    def from_graph(cls, graph: StaticGraph, root: int = 0) -> "RootedTree":
        """Root a tree/forest at ``root`` (and every other component at
        its smallest vertex).

        Given the roots, a forest's parents are unique; they are read off
        the Euler tours of its arcs in ``O(log n)`` numpy passes, however
        deep the tree.  Raises :class:`GraphValidationError` if the graph
        has a cycle.
        """
        rooted = _root_forest(graph, root)
        if rooted is None:
            raise GraphValidationError("underlying graph must be acyclic")
        return cls(graph=graph, parent=rooted[0])

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.graph.n

    @cached_property
    def roots(self) -> np.ndarray:
        """Indices of all roots (vertices with no parent)."""
        return np.nonzero(self.parent < 0)[0]

    @cached_property
    def depth(self) -> np.ndarray:
        """Depth of every vertex (roots have depth 0)."""
        return self.graph.bfs_levels(self.roots)

    def children(self, v: int) -> np.ndarray:
        """Children of ``v`` (neighbors whose parent is ``v``)."""
        nbrs = self.graph.neighbors(v)
        return nbrs[self.parent[nbrs] == v]


@dataclass(frozen=True)
class ForestLayout:
    """A forest's rooting as FAIRROOTED, Cole–Vishkin and FAIRTREE's
    CNTRLFAIRBIPART calls read it (:attr:`StaticGraph.forest_layout`).

    ``parent`` holds each vertex's parent (``-1`` at roots),
    ``depth`` counts the hops from the root, ``link`` is the undirected
    index (into ``graph.edges``) of the vertex's parent edge (``0`` at
    roots, where no caller reads it), and ``roots`` lists the roots.
    """

    parent: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)
    link: np.ndarray = field(repr=False)
    roots: np.ndarray = field(repr=False)


def tree_parents(graph: StaticGraph, tree: RootedTree | None = None) -> np.ndarray:
    """The parent array FAIRROOTED and Cole–Vishkin run on: *tree*'s,
    which must root *graph* itself, else *graph*'s cached
    :attr:`~StaticGraph.forest_layout`.

    Raises :class:`ValueError` for a *tree* of another graph and
    :class:`GraphValidationError` for a graph with a cycle.
    """
    if tree is not None:
        if tree.graph is not graph and tree.graph != graph:
            raise ValueError("provided rooting does not match the input graph")
        return tree.parent
    layout = graph.forest_layout
    if layout is None:
        raise GraphValidationError("graph has a cycle: a rooting needs a forest")
    return layout.parent
