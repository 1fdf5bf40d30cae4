"""Undirected simple graphs with seeded Erdos-Renyi generation.

Vertices are integers 0..n-1. Graphs are immutable after construction and
safe to share between threads; generation keeps no global state.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

#: Resampling bound when conditioning Erdos-Renyi draws on connectivity.
CONNECTIVITY_RETRY_LIMIT = 10_000


def as_count(value, what: str) -> int:
    """The one rule for an outside number that must be a whole count.

    An int is taken as it is and an integral float such as ``2.0`` becomes
    that int. Anything else, including ``2.5``, a bool, a string or None,
    raises ``ValueError`` instead of being truncated by ``int()``.
    """
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be a whole number, got {value!r}")


def json_fields(data, what: str, *names: str) -> list:
    """The named fields of a JSON object; a non-object or a missing field
    raises ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object")
    missing = [name for name in names if name not in data]
    if missing:
        raise ValueError(f"{what} JSON lacks the field(s) {', '.join(missing)}")
    return [data[name] for name in names]


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
    loops and duplicate edges are rejected, and so are a vertex count or an
    endpoint that is not a whole number (see ``as_count``).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_count(self.n, "vertex count"))
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set[tuple[int, int]] = set()
        try:
            for i, j in self.edges:
                i, j = as_count(i, "edge endpoint"), as_count(j, "edge endpoint")
                if i == j:
                    raise ValueError(f"self-loop at vertex {i}")
                if not (0 <= i < self.n and 0 <= j < self.n):
                    raise ValueError(f"edge {(i, j)} out of range for n={self.n}")
                key = (i, j) if i < j else (j, i)
                if key in seen:
                    raise ValueError(f"duplicate edge {key}")
                seen.add(key)
        except TypeError:  # the edges, or one of them, cannot be unpacked
            raise ValueError("edges must be a list of vertex pairs") from None
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
        n, edges = json_fields(data, "graph", "n", "edges")
        return cls(n=n, edges=edges)


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


def generate_er(n: int, d: float, seed: int) -> Graph:
    """Sample a connected Erdos-Renyi G(n, d) graph with a seeded generator.

    Each of the n(n-1)/2 candidate edges is included independently with
    probability ``d``. Disconnected draws are resampled from the same stream
    until a connected graph appears, so identical ``(n, d, seed)`` always
    yield the identical graph. Conditioning on connectivity biases the edge
    count upward relative to ``d``; the bias is documented, not corrected.

    Raises:
        UnsatisfiableDensityError: d = 0 with n >= 2 (no connected graph exists).
        RetryExhaustedError: no connected draw within
            ``CONNECTIVITY_RETRY_LIMIT`` attempts.
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
    for _ in range(CONNECTIVITY_RETRY_LIMIT):
        edges = tuple(pair for pair in pairs if rng.random() < d)
        # most rejected draws leave a vertex isolated: refuse those before
        # paying for a Graph
        if n > 1 and len(set(chain.from_iterable(edges))) < n:
            continue
        g = Graph(n=n, edges=edges)
        if is_connected(g):
            return g
    raise RetryExhaustedError(
        f"no connected G({n}, {d}) draw in {CONNECTIVITY_RETRY_LIMIT} attempts"
        f" (seed {seed})"
    )
