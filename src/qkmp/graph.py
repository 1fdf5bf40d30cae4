"""Undirected simple graphs with seeded Erdos-Renyi generation.

Vertices are integers 0..n-1. Graphs are immutable after construction and
safe to share between threads; generation keeps no global state.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

#: Resampling bound when conditioning Erdos-Renyi draws on connectivity.
CONNECTIVITY_RETRY_LIMIT = 10_000


class GraphError(Exception):
    """Base class for graph construction and generation failures."""


class UnsatisfiableDensityError(GraphError):
    """No connected graph exists for the requested (n, d) combination."""


class RetryExhaustedError(GraphError):
    """Connectivity resampling hit the retry bound without success."""


class DisconnectedGraphError(GraphError):
    """A connected graph was required but a disconnected one was given."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph.

    ``edges`` is normalized to a lexicographically sorted tuple of ``(i, j)``
    pairs with ``i < j``; ``adjacency[i]`` is the neighbor set N(i). Self
    loops and duplicate edges are rejected.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set[tuple[int, int]] = set()
        for pair in self.edges:
            i, j = pair
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {tuple(pair)} out of range for n={self.n}")
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        object.__setattr__(self, "adjacency", tuple(frozenset(s) for s in adj))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def neighbors(self, i: int) -> frozenset[int]:
        return self.adjacency[i]

    def to_json_dict(self) -> dict:
        """JSON form: ``{"n": int, "edges": [[i, j], ...]}`` with i < j, sorted."""
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        if not isinstance(data, dict):
            raise ValueError("graph JSON must be an object")
        edges = tuple((int(i), int(j)) for i, j in data["edges"])
        return cls(n=int(data["n"]), edges=edges)


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from any iterable of vertex pairs (any orientation)."""
    return Graph(n=n, edges=tuple(edges))


def density(g: Graph) -> float:
    """Edge density 2|E| / (n(n-1)); zero for graphs with fewer than 2 vertices."""
    if g.n <= 1:
        return 0.0
    return 2.0 * g.edge_count / (g.n * (g.n - 1))


def is_connected(g: Graph) -> bool:
    """True iff a traversal from vertex 0 reaches every vertex (true for n <= 1)."""
    if g.n <= 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in g.adjacency[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == g.n


def generate_er(
    n: int,
    d: float,
    seed: int,
    retry_limit: int = CONNECTIVITY_RETRY_LIMIT,
) -> Graph:
    """Sample a connected Erdos-Renyi G(n, d) graph with a seeded generator.

    Each of the n(n-1)/2 candidate edges is included independently with
    probability ``d``. Disconnected draws are resampled from the same stream
    until a connected graph appears, so identical ``(n, d, seed)`` always
    yield the identical graph. Conditioning on connectivity biases the edge
    count upward relative to ``d``; the bias is documented, not corrected.

    Raises:
        UnsatisfiableDensityError: d = 0 with n >= 2 (no connected graph exists).
        RetryExhaustedError: no connected draw within ``retry_limit`` attempts.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= d <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if n >= 2 and d == 0.0:
        raise UnsatisfiableDensityError(
            f"no connected graph on {n} vertices has density 0"
        )
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(retry_limit):
        edges = tuple(pair for pair in pairs if rng.random() < d)
        g = Graph(n=n, edges=edges)
        if is_connected(g):
            return g
    raise RetryExhaustedError(
        f"no connected G({n}, {d}) draw in {retry_limit} attempts (seed {seed})"
    )
