"""Key-management problem instances and the quadratic-form validator.

The validator scores a candidate key assignment directly against the
quadratic constraint forms (memory capacity, per-neighborhood key reuse,
global key usage), so it stays independent of the linearized model built by
:mod:`qkmp.ilp` and serves as the reference semantics for every solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Iterable, NamedTuple, Sequence

from .graph import Graph, as_count, is_connected, json_fields

CAPACITY = "CAPACITY"
NEIGHBORHOOD_USE = "NEIGHBORHOOD_USE"
GLOBAL_USE = "GLOBAL_USE"


@dataclass(frozen=True)
class KmpInstance:
    """A q-composite key distribution problem on a connected graph.

    Parameters mirror the standard model: ``key_count`` keys are available,
    adjacent vertices communicate securely once they share at least ``q``
    keys, ``mem_per_key[k]`` memory units are charged against the vertex
    capacity ``capacity[i]``, key ``k`` may appear on at most
    ``usage_limit[k]`` vertices, and within any neighborhood a key held by
    vertex i may be shared with at most ``p * |N(i)| + alpha`` neighbors.

    ``key_count``, ``q``, ``alpha`` and the usage limits are whole numbers
    (see ``as_count``); ``p``, the key weights and the capacities are ints
    or floats. Anything else raises ``ValueError``.
    """

    graph: Graph
    key_count: int
    q: int
    p: float
    alpha: int
    mem_per_key: tuple
    capacity: tuple
    usage_limit: tuple

    def __post_init__(self) -> None:
        for name in ("key_count", "q", "alpha"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        try:
            mem, cap, limit = map(tuple, (self.mem_per_key, self.capacity, self.usage_limit))
        except TypeError:
            raise ValueError("mem_per_key, capacity and usage_limit must be lists") from None
        object.__setattr__(self, "mem_per_key", mem)
        object.__setattr__(self, "capacity", cap)
        object.__setattr__(self, "usage_limit", tuple(as_count(t, "usage limit") for t in limit))
        if any(type(w) not in (int, float) for w in (self.p, *mem, *cap)):
            raise ValueError("p, per-key memory and capacities must be numbers")
        if self.key_count < 0:
            raise ValueError("key_count must be non-negative")
        if self.q < 1:
            raise ValueError("q must be at least 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.alpha < 1:
            raise ValueError("alpha must be a positive integer")
        if len(self.mem_per_key) != self.key_count:
            raise ValueError("mem_per_key length must equal key_count")
        if len(self.capacity) != self.graph.n:
            raise ValueError("capacity length must equal vertex count")
        if len(self.usage_limit) != self.key_count:
            raise ValueError("usage_limit length must equal key_count")
        # an infinite weight makes evaluate's capacity sum inf * 0 = NaN, and
        # a NaN capacity compares false against every ring, so both are out
        if any(not 0 < m < math.inf for m in self.mem_per_key):
            raise ValueError("per-key memory must be positive and finite")
        if any(not c > 0 for c in self.capacity):
            raise ValueError("vertex capacities must be positive")
        if any(t < 1 for t in self.usage_limit):
            raise ValueError("usage limits must be at least 1")
        if not is_connected(self.graph):
            raise ValueError("instance graph must be connected")

    @property
    def n(self) -> int:
        return self.graph.n

    def neighborhood_cap(self, i: int) -> float:
        """Right-hand side p*|N(i)| + alpha of the neighborhood-use bound.

        Kept fractional on purpose; every module compares against this exact
        float so the model semantics agree everywhere.
        """
        return self.p * self.graph.degree(i) + self.alpha

    @classmethod
    def uniform(
        cls,
        graph: Graph,
        key_count: int,
        q: int,
        p: float,
        capacity: float,
        usage_limit: int,
        alpha: int = 1,
        mem: float = 1,
    ) -> "KmpInstance":
        """Instance with one shared value for each per-key / per-vertex parameter."""
        return cls(
            graph=graph,
            key_count=key_count,
            q=q,
            p=p,
            alpha=alpha,
            mem_per_key=(mem,) * key_count,
            capacity=(capacity,) * graph.n,
            usage_limit=(usage_limit,) * key_count,
        )

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "key_count": self.key_count,
            "q": self.q,
            "p": self.p,
            "alpha": self.alpha,
            "mem_per_key": list(self.mem_per_key),
            "capacity": list(self.capacity),
            "usage_limit": list(self.usage_limit),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "KmpInstance":
        names = (
            "graph", "key_count", "q", "p", "alpha", "mem_per_key", "capacity", "usage_limit"
        )
        fields = dict(zip(names, json_fields(data, "instance", *names)))
        fields["graph"] = Graph.from_json_dict(fields["graph"])
        return cls(**fields)


@dataclass(frozen=True)
class KeyAssignment:
    """Binary key-ring matrix: ``x[i][k] == 1`` iff key k sits on vertex i."""

    x: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            rows = tuple(map(tuple, self.x))
        except TypeError:
            raise ValueError("assignment must be a list of rows") from None
        # one C-level type scan; as_count only runs when some entry needs it
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            rows = tuple(tuple(as_count(v, "assignment entry") for v in row) for row in rows)
        if not set(chain.from_iterable(rows)) <= {0, 1}:
            raise ValueError("assignment entries must be 0 or 1")
        if len(set(map(len, rows))) > 1:
            raise ValueError("assignment rows must have equal length")
        object.__setattr__(self, "x", rows)

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def key_count(self) -> int:
        return len(self.x[0]) if self.x else 0

    def key_ring(self, i: int) -> frozenset[int]:
        return frozenset(k for k, v in enumerate(self.x[i]) if v)

    @classmethod
    def zeros(cls, n: int, key_count: int) -> "KeyAssignment":
        return cls(x=tuple((0,) * key_count for _ in range(n)))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "KeyAssignment":
        return cls(x=tuple(tuple(row) for row in rows))

    def to_json_dict(self) -> dict:
        return {"x": [list(row) for row in self.x]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "KeyAssignment":
        (x,) = json_fields(data, "assignment", "x")
        return cls(x=x)


class Violation(NamedTuple):
    constraint: str
    index: tuple[int, ...]
    lhs: float
    rhs: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of scoring an assignment; violations are data, not errors."""

    feasible: bool
    objective: int
    violations: tuple[Violation, ...] = field(default=())


def _check_dims(inst: KmpInstance, a: KeyAssignment) -> None:
    if a.n != inst.graph.n or (a.n and a.key_count != inst.key_count):
        raise ValueError(
            f"assignment shape {a.n}x{a.key_count} does not match instance "
            f"{inst.graph.n}x{inst.key_count}"
        )


def shared_keys(a: KeyAssignment, i: int, j: int) -> int:
    """Size of the key-ring intersection of two distinct vertices."""
    if not (0 <= i < a.n and 0 <= j < a.n):
        raise IndexError(f"vertex index out of range: ({i}, {j}) for n={a.n}")
    if i == j:
        raise ValueError("shared_keys requires two distinct vertices")
    return sum(u * v for u, v in zip(a.x[i], a.x[j]))


def derive_z(inst: KmpInstance, a: KeyAssignment) -> dict[tuple[int, int], int]:
    """Secure-edge indicators: z[i, j] = 1 iff the endpoints share >= q keys.

    This is the optimal completion of z for a fixed assignment, since z only
    appears in the objective and in the shared-key threshold.
    """
    _check_dims(inst, a)
    q = inst.q
    return {
        (i, j): 1 if shared_keys(a, i, j) >= q else 0 for i, j in inst.graph.edges
    }


def evaluate(inst: KmpInstance, a: KeyAssignment) -> FeasibilityReport:
    """Score an assignment against the quadratic model, no linearization.

    Checks, in order: per-vertex memory capacity, per-(vertex, key)
    neighborhood use with the fractional right-hand side compared exactly,
    and the global per-key usage limit. The objective counts secure edges
    whether or not the assignment is feasible.
    """
    _check_dims(inst, a)
    g = inst.graph
    x = a.x
    K = inst.key_count
    violations: list[Violation] = []

    for i in range(g.n):
        lhs = sum(inst.mem_per_key[k] * x[i][k] for k in range(K))
        if lhs > inst.capacity[i]:
            violations.append(Violation(CAPACITY, (i,), lhs, inst.capacity[i]))

    # each vertex's ring once, as a set: the neighborhood counts and the
    # objective read the rings, not the matrix
    keys = range(K)
    rings = [set(compress(keys, row)) for row in x]
    # a cell with x[i][k] == 0 has lhs 0, and the rhs p*|N(i)| + alpha is at
    # least 1, so only held keys can break their row
    for i, row in enumerate(x):
        if not rings[i]:
            continue
        rhs = inst.neighborhood_cap(i)
        nbr_rings = [rings[j] for j in g.adjacency[i]]
        for k in compress(keys, row):
            lhs = sum(k in ring for ring in nbr_rings)
            if lhs > rhs:
                violations.append(Violation(NEIGHBORHOOD_USE, (i, k), lhs, rhs))

    for k, lhs in enumerate(map(sum, zip(*x))):
        if lhs > inst.usage_limit[k]:
            violations.append(Violation(GLOBAL_USE, (k,), lhs, inst.usage_limit[k]))

    q = inst.q
    objective = sum(len(rings[i] & rings[j]) >= q for i, j in g.edges)
    return FeasibilityReport(
        feasible=not violations, objective=objective, violations=tuple(violations)
    )
