"""Hybrid graph pattern queries (paper Def. 2.3/2.4).

A pattern is a small driver-side object (queries have tens of nodes at
most — they parameterize Catalyst plans, they are not data). Each edge
is ``CHILD`` (direct, edge-to-edge mapped) or ``DESC`` (reachability,
edge-to-path mapped); a pattern with both kinds is *hybrid*.
"""
from __future__ import annotations

from dataclasses import dataclass

CHILD = "child"
DESC = "desc"


@dataclass(frozen=True)
class PEdge:
    """A pattern edge ``src -> dst`` of kind CHILD or DESC."""

    src: int
    dst: int
    kind: str = CHILD

    def __post_init__(self):
        if self.kind not in (CHILD, DESC):
            raise ValueError(f"bad edge kind {self.kind!r}")
        if self.src == self.dst:
            raise ValueError("pattern self-loops are not supported")


@dataclass(frozen=True)
class Pattern:
    """A connected directed pattern: node id -> label, plus typed edges."""

    labels: tuple[tuple[int, str], ...]  # (node_id, label), node ids unique
    edges: tuple[PEdge, ...]
    name: str = "Q"

    @staticmethod
    def of(labels: dict[int, str], edges, name: str = "Q") -> "Pattern":
        """Convenience constructor; ``edges`` as (src, dst, kind) tuples."""
        es = tuple(e if isinstance(e, PEdge) else PEdge(*e) for e in edges)
        p = Pattern(labels=tuple(sorted(labels.items())), edges=es, name=name)
        p.validate()
        return p

    # -- basic accessors -------------------------------------------------
    def label_of(self, q: int) -> str:
        return dict(self.labels)[q]

    def node_ids(self) -> list[int]:
        return [q for q, _ in self.labels]

    def n_nodes(self) -> int:
        return len(self.labels)

    def out_edges(self, q: int) -> list[PEdge]:
        return [e for e in self.edges if e.src == q]

    def in_edges(self, q: int) -> list[PEdge]:
        return [e for e in self.edges if e.dst == q]

    def incident(self, q: int) -> list[PEdge]:
        return [e for e in self.edges if q in (e.src, e.dst)]

    def undirected_degree(self, q: int) -> int:
        return len(self.incident(q))

    def neighbors(self, q: int) -> set[int]:
        return {e.dst if e.src == q else e.src for e in self.incident(q)}

    # -- structure -------------------------------------------------------
    def validate(self) -> None:
        ids = set(self.node_ids())
        if len(ids) != len(self.labels):
            raise ValueError("duplicate node ids")
        for e in self.edges:
            if e.src not in ids or e.dst not in ids:
                raise ValueError(f"edge {e} references unknown node")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        if len(ids) > 1 and not self.is_connected():
            raise ValueError("pattern must be connected (Def. 2.3)")

    def is_connected(self) -> bool:
        ids = self.node_ids()
        if not ids:
            return True
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            q = stack.pop()
            for nb in self.neighbors(q):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(ids)

    def is_dag(self) -> bool:
        return self.topological_order() is not None

    def topological_order(self) -> list[int] | None:
        """Kahn's algorithm; None if the directed pattern has a cycle."""
        indeg = {q: 0 for q in self.node_ids()}
        for e in self.edges:
            indeg[e.dst] += 1
        ready = sorted(q for q, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            q = ready.pop(0)
            order.append(q)
            for e in self.out_edges(q):
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
            ready.sort()
        return order if len(order) == self.n_nodes() else None

    def has_path(self, x: int, y: int) -> bool:
        """Directed path from x to y."""
        stack, seen = [x], {x}
        while stack:
            q = stack.pop()
            for e in self.out_edges(q):
                if e.dst == y:
                    return True
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        return False

    def dag_decomposition(self) -> tuple[tuple[PEdge, ...], tuple[PEdge, ...]]:
        """Split edges into a spanning DAG and back edges (for FBSim's Dag+Δ).

        Greedy: add edges in order, an edge whose addition closes a
        directed cycle goes to the back-edge set.
        """
        dag: list[PEdge] = []
        back: list[PEdge] = []
        for e in self.edges:
            trial = Pattern(labels=self.labels, edges=tuple(dag) + (e,), name=self.name)
            if trial.topological_order() is None:
                back.append(e)
            else:
                dag.append(e)
        return tuple(dag), tuple(back)

    def with_edges(self, edges, name: str | None = None) -> "Pattern":
        return Pattern(
            labels=self.labels,
            edges=tuple(edges),
            name=name or self.name,
        )

    def describe(self) -> str:
        es = ", ".join(f"{e.src}{'=>' if e.kind == DESC else '->'}{e.dst}" for e in self.edges)
        return f"{self.name}[{self.n_nodes()}n/{len(self.edges)}e: {es}]"
