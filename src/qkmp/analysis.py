"""Post-solution network analysis.

Given an instance and a key assignment, the secure graph keeps only the
edges whose endpoints share at least q keys. Two nodes without a direct
secure link may still communicate along a chain of secure links, so overall
reachability is the connectivity of the secure graph. The module also
provides the fully pairwise baseline: a scheme that hands every spanning
tree edge its own q fresh keys, never reusing any.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DisconnectedGraphError, Graph, is_connected, make_graph
from .instance import KeyAssignment, KmpInstance, derive_z, evaluate


@dataclass(frozen=True)
class SecureGraph:
    """Subgraph of secure edges plus a component label per vertex."""

    graph: Graph
    component: tuple[int, ...]

    @property
    def component_count(self) -> int:
        return len(set(self.component))


def secure_graph(inst: KmpInstance, a: KeyAssignment) -> SecureGraph:
    """Restrict the instance graph to edges with enough shared keys.

    Components are labeled 0, 1, ... in order of their smallest vertex.
    """
    z = derive_z(inst, a)
    kept = tuple(e for e in inst.graph.edges if z[e])
    g = make_graph(inst.graph.n, kept)
    labels = [-1] * g.n
    next_label = 0
    for s in range(g.n):
        if labels[s] != -1:
            continue
        labels[s] = next_label
        queue = [s]
        while queue:
            u = queue.pop()
            for w in g.adjacency[u]:
                if labels[w] == -1:
                    labels[w] = next_label
                    queue.append(w)
        next_label += 1
    return SecureGraph(graph=g, component=tuple(labels))


def key_path_connected(sg: SecureGraph) -> bool:
    """True iff every vertex can reach every other over secure links."""
    return sg.component_count <= 1


def naive_pairwise_key_count(g: Graph, q: int) -> int:
    """Keys a no-reuse pairwise scheme needs to keep g connected.

    Counts q fresh keys per spanning tree edge, q*(n-1) total.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if not is_connected(g):
        raise DisconnectedGraphError("baseline requires a connected graph")
    return q * (g.n - 1)


@dataclass(frozen=True)
class AssignmentReport:
    """Bundle of headline facts about one assignment on one instance."""

    feasible: bool
    objective: int
    key_usage: tuple[int, ...]
    ring_sizes: tuple[int, ...]
    memory_used: tuple[float, ...]
    component_count: int
    key_path_connected: bool
    key_pool_size: int
    naive_key_count: int
    additional_keys_needed: int

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "objective": self.objective,
            "key_usage": list(self.key_usage),
            "ring_sizes": list(self.ring_sizes),
            "memory_used": list(self.memory_used),
            "component_count": self.component_count,
            "key_path_connected": self.key_path_connected,
            "key_pool_size": self.key_pool_size,
            "naive_key_count": self.naive_key_count,
            "additional_keys_needed": self.additional_keys_needed,
        }

    def format_text(self) -> str:
        lines = [
            f"feasible: {'yes' if self.feasible else 'no'}",
            f"secure edges: {self.objective}",
            f"secure components: {self.component_count}",
            f"key path connected: {'yes' if self.key_path_connected else 'no'}",
            f"ring sizes: {list(self.ring_sizes)}",
            f"key usage: {list(self.key_usage)}",
            f"naive pairwise baseline: {self.naive_key_count} keys"
            f" (pool {self.key_pool_size}, extra {self.additional_keys_needed})",
        ]
        return "\n".join(lines) + "\n"


def assignment_report(inst: KmpInstance, a: KeyAssignment) -> AssignmentReport:
    report = evaluate(inst, a)
    sg = secure_graph(inst, a)
    n, K = inst.graph.n, inst.key_count
    key_usage = tuple(sum(a.x[i][k] for i in range(n)) for k in range(K))
    ring_sizes = tuple(sum(a.x[i]) for i in range(n))
    memory_used = tuple(
        sum(inst.mem_per_key[k] * a.x[i][k] for k in range(K)) for i in range(n)
    )
    naive = naive_pairwise_key_count(inst.graph, inst.q)
    return AssignmentReport(
        feasible=report.feasible,
        objective=report.objective,
        key_usage=key_usage,
        ring_sizes=ring_sizes,
        memory_used=memory_used,
        component_count=sg.component_count,
        key_path_connected=key_path_connected(sg),
        key_pool_size=K,
        naive_key_count=naive,
        additional_keys_needed=max(0, naive - K),
    )
