"""Undirected simple graphs with seeded Erdos-Renyi generation.

Vertices are integers 0..n-1. Graphs are immutable after construction and
safe to share between threads; generation keeps no global state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

#: Resampling bound when conditioning Erdos-Renyi draws on connectivity.
CONNECTIVITY_RETRY_LIMIT = 100_000


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


def check_time_limit(value, what: str) -> None:
    """The one rule for a time limit: an int or float above zero, infinity
    included. A bool, a string, None or NaN raises ``ValueError``."""
    if not (type(value) in (int, float) and value > 0):  # NaN compares false
        raise ValueError(f"{what} must be a positive number of seconds, got {value!r}")


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


def components(g: Graph) -> tuple[int, ...]:
    """Component label per vertex, 0, 1, ... in order of each component's
    smallest vertex."""
    labels = [-1] * g.n
    label = 0
    for s in range(g.n):
        if labels[s] != -1:
            continue
        labels[s] = label
        stack = [s]
        while stack:
            for w in g.adjacency[stack.pop()]:
                if labels[w] == -1:
                    labels[w] = label
                    stack.append(w)
        label += 1
    return tuple(labels)


def is_connected(g: Graph) -> bool:
    """True iff every vertex is in vertex 0's component (true for n <= 1)."""
    return not any(components(g))


def generate_er(n: int, d: float, seed: int) -> Graph:
    """Sample a connected Erdos-Renyi G(n, d) graph with a seeded generator.

    Each of the n(n-1)/2 candidate edges is included independently with
    probability ``d``. Disconnected draws are resampled from the same stream
    until a connected graph appears, so identical ``(n, d, seed)`` always
    yield the identical graph. Conditioning on connectivity biases the edge
    count upward relative to ``d``; the bias is documented, not corrected.

    The pairs are drawn row by row, vertex i's pairs (i, j > i) for
    i = 0, 1, ..., one ``random()`` each. Once row i is drawn no later draw
    can give i an edge, so an attempt that leaves i isolated is refused
    there, and the generator is moved past the attempt's remaining draws
    without making them. Each attempt therefore starts at the same point of
    the stream as if every pair had been drawn.

    Raises:
        ValueError: n is not a whole number of at least 1 (see
            ``as_count``), or d is not an int or float in [0, 1].
        UnsatisfiableDensityError: d = 0 with n >= 2 (no connected graph exists).
        RetryExhaustedError: no connected draw within
            ``CONNECTIVITY_RETRY_LIMIT`` attempts.
    """
    n = as_count(n, "vertex count")
    if n < 1:
        raise ValueError("n must be at least 1")
    if type(d) not in (int, float):  # a bool or a string is no density
        raise ValueError(f"density must be a number, got {d!r}")
    if not 0.0 <= d <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if n == 1:
        return Graph(n=1, edges=())
    if d == 0.0:
        raise UnsatisfiableDensityError(
            f"no connected graph on {n} vertices has density 0"
        )
    rng = random.Random(seed)
    draw = rng.random
    for _ in range(CONNECTIVITY_RETRY_LIMIT):
        rows = []
        touched = set()  # vertices that an earlier row gave an edge
        for i in range(n):
            row = [j for j in range(i + 1, n) if draw() < d]
            rows.append(row)
            if row:
                touched.update(row)
            elif i not in touched:
                # i stays isolated. random() takes two 32-bit words of the
                # Mersenne Twister and getrandbits(64 * rest) exactly 2 * rest
                # (none for rest = 0), so this skips the attempt's remaining
                # draws word for word.
                rest = (n - 1 - i) * (n - 2 - i) // 2
                rng.getrandbits(64 * rest)
                break
        else:
            g = Graph(n=n, edges=[(i, j) for i, row in enumerate(rows) for j in row])
            if is_connected(g):
                return g
    raise RetryExhaustedError(
        f"no connected G({n}, {d}) draw in {CONNECTIVITY_RETRY_LIMIT} attempts"
        f" (seed {seed})"
    )
