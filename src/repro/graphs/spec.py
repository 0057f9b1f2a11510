"""Public graph-spec API: parse ``kind:arg:arg`` strings into graphs.

A stable library API shared by the CLI, the estimation service (request
JSON carries spec strings), and programmatic callers.

Spec grammar (one line per kind)::

    tree:N[:SEED]     random labeled tree
    path:N            path graph
    star:N            star graph
    cycle:N           cycle
    binary:DEPTH      complete binary tree
    kary:B,D          complete B-ary tree of depth D
    alt:B,D           alternating tree
    grid:RxC          grid graph
    trigrid:RxC       triangulated grid (planar, non-bipartite)
    apex:RxC          apex grid (planar, high degree)
    cone:K            the lower-bound cone graph
    campus[:SEED]     Dartmouth-like WAP MST
    city:N[:SEED]     NYC-like WAP MST
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import StaticGraph

__all__ = ["GraphSpec", "GraphSpecError", "build_graph", "KINDS"]


class GraphSpecError(ValueError):
    """Raised for an unknown graph kind or malformed spec arguments."""


#: Recognized spec kinds (see the module docstring for the grammar).
KINDS: tuple[str, ...] = (
    "tree",
    "path",
    "star",
    "cycle",
    "binary",
    "kary",
    "alt",
    "grid",
    "trigrid",
    "apex",
    "cone",
    "campus",
    "city",
)


@dataclass(frozen=True)
class GraphSpec:
    """A parsed-but-not-built graph spec.

    Parsing and building are split so callers can validate request JSON
    cheaply (``parse``) and defer the possibly expensive construction
    (``build``) — e.g. until a cache miss is confirmed.
    """

    kind: str
    args: tuple[str, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "GraphSpec":
        """Parse ``kind:arg:arg`` into a :class:`GraphSpec`.

        Raises :class:`GraphSpecError` for unknown kinds; argument values
        are validated at :meth:`build` time.
        """
        kind, _, rest = spec.strip().partition(":")
        if kind not in KINDS:
            raise GraphSpecError(
                f"unknown graph kind {kind!r}; expected one of {', '.join(KINDS)}"
            )
        return cls(kind=kind, args=tuple(rest.split(":")) if rest else ())

    @property
    def canonical(self) -> str:
        """The spec string this object round-trips to."""
        return ":".join((self.kind, *self.args))

    def build(self) -> StaticGraph:
        """Construct the :class:`StaticGraph` this spec describes.

        Raises :class:`GraphSpecError` on malformed arguments.
        """
        from . import generators as gen
        from .geometric import campus_model, city_model, wap_tree

        parts = list(self.args)

        def ints(csv: str) -> list[int]:
            return [int(x) for x in csv.replace("x", ",").split(",")]

        kind = self.kind
        try:
            if kind == "tree":
                n = int(parts[0])
                seed = int(parts[1]) if len(parts) > 1 else 0
                return gen.random_tree(n, seed=seed).graph
            if kind == "path":
                return gen.path_graph(int(parts[0]))
            if kind == "star":
                return gen.star_graph(int(parts[0]))
            if kind == "cycle":
                return gen.cycle_graph(int(parts[0]))
            if kind == "binary":
                return gen.complete_tree(2, int(parts[0])).graph
            if kind == "kary":
                b, d = ints(parts[0])
                return gen.complete_tree(b, d).graph
            if kind == "alt":
                b, d = ints(parts[0])
                return gen.alternating_tree(b, d).graph
            if kind == "grid":
                r, c = ints(parts[0])
                return gen.grid_graph(r, c)
            if kind == "trigrid":
                r, c = ints(parts[0])
                return gen.triangulated_grid(r, c)
            if kind == "apex":
                r, c = ints(parts[0])
                return gen.apex_grid(r, c)
            if kind == "cone":
                return gen.cone_graph(int(parts[0]))
            if kind == "campus":
                seed = int(parts[0]) if parts else 11
                return wap_tree(campus_model(seed=seed))
            if kind == "city":
                n = int(parts[0]) if parts else 2500
                seed = int(parts[1]) if len(parts) > 1 else 12
                return wap_tree(city_model(n=n, seed=seed))
        except (ValueError, IndexError) as exc:
            raise GraphSpecError(
                f"bad graph spec {self.canonical!r}: {exc}"
            ) from exc
        raise GraphSpecError(f"unknown graph kind {kind!r}")  # pragma: no cover


def build_graph(spec: str) -> StaticGraph:
    """Parse and build in one step (``GraphSpec.parse(spec).build()``)."""
    return GraphSpec.parse(spec).build()
