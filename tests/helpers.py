"""Shared builders and independent oracles used across the test modules.

Everything here deliberately avoids the package's own search and generation
code paths where an independent result is needed: connected graphs are
sampled with a local union-find check, and the reference optima come from
exhaustive enumeration routes that touch neither the branch-and-bound engine
nor the package's Gray-code oracle.
"""

import itertools
import random

from qkmp.graph import Graph, make_graph
from qkmp.ilp import IlpModel, build_ilp, x_name, y_name, z_name
from qkmp.instance import KeyAssignment, KmpInstance, evaluate
from qkmp.solver import OPTIMAL, SolveResult

# dyadic memory weights: sums of these are exact in binary floating point,
# so budget arithmetic inside the solver matches evaluate() bit for bit
DYADIC_MEMS = (0.5, 1.0, 1.0, 2.0)


def connected_random_graph(rng: random.Random, n: int, prob: float) -> Graph:
    """Sample a connected simple graph without using the package generator."""
    if n == 1:
        return make_graph(1, [])
    while True:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < prob]
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        if len({find(v) for v in range(n)}) == 1:
            return make_graph(n, edges)


def random_small_instance(rng: random.Random) -> KmpInstance:
    """Random instance in the exhaustively checkable regime (n*K <= 15)."""
    n = rng.randint(2, 5)
    g = connected_random_graph(rng, n, 0.7)
    key_count = rng.randint(1, 3)
    return KmpInstance(
        graph=g,
        key_count=key_count,
        q=rng.choice([1, 1, 2]),
        p=rng.choice([0.2, 0.3, 0.5, 1.0]),
        alpha=rng.randint(1, 2),
        mem_per_key=tuple(rng.choice(DYADIC_MEMS) for _ in range(key_count)),
        capacity=tuple(float(rng.randint(1, 4)) for _ in range(n)),
        usage_limit=tuple(rng.randint(1, n) for _ in range(key_count)),
    )


def random_battery_instance(rng: random.Random) -> KmpInstance:
    """Random instance with n*K <= 9, small enough for point enumeration."""
    shapes = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]
    n, key_count = rng.choice(shapes)
    g = connected_random_graph(rng, n, 0.8)
    return KmpInstance(
        graph=g,
        key_count=key_count,
        q=rng.choice([1, 2]),
        p=rng.choice([0.3, 0.5, 1.0]),
        alpha=1,
        mem_per_key=tuple(rng.choice(DYADIC_MEMS) for _ in range(key_count)),
        capacity=tuple(float(rng.randint(1, 4)) for _ in range(n)),
        usage_limit=tuple(rng.randint(1, n) for _ in range(key_count)),
    )


# non-dyadic weights and capacities: key-index order sums such as
# 0.2 + 0.5 <= 0.7 hold while 0.7 - 0.2 < 0.5, so any solver arithmetic that
# differs from evaluate() shows up as a wrong optimum
NON_DYADIC_MEMS = (0.1, 0.2, 0.5)
NON_DYADIC_CAPACITIES = (0.6, 0.7)


def random_non_dyadic_instance(rng: random.Random) -> KmpInstance:
    """Random instance with non-dyadic memory, n*K <= 15."""
    n = rng.randint(2, 5)
    g = connected_random_graph(rng, n, 0.7)
    key_count = rng.randint(1, 3)
    return KmpInstance(
        graph=g,
        key_count=key_count,
        q=rng.choice([1, 1, 2]),
        p=rng.choice([0.2, 0.5, 1.0]),
        alpha=1,
        mem_per_key=tuple(rng.choice(NON_DYADIC_MEMS) for _ in range(key_count)),
        capacity=tuple(rng.choice(NON_DYADIC_CAPACITIES) for _ in range(n)),
        usage_limit=tuple(rng.randint(1, n) for _ in range(key_count)),
    )


def reference_brute_force(inst: KmpInstance) -> SolveResult:
    """The exhaustive oracle written the slow, obvious way.

    Every code in increasing order is turned into a KeyAssignment and scored
    by evaluate(); a strict ``>`` keeps the first (smallest) optimal code.
    solver.brute_force must return the same result, wall time aside.
    """
    n, K = inst.graph.n, inst.key_count
    best_obj = -1
    best_rows: tuple[tuple[int, ...], ...] = ()
    for code in range(1 << (n * K)):
        rows = tuple(
            tuple((code >> (i * K + k)) & 1 for k in range(K)) for i in range(n)
        )
        report = evaluate(inst, KeyAssignment(rows))
        if report.feasible and report.objective > best_obj:
            best_obj = report.objective
            best_rows = rows
    return SolveResult(
        status=OPTIMAL,
        incumbent=KeyAssignment(best_rows),
        lower_bound=best_obj,
        upper_bound=best_obj,
        gap=0.0,
        nodes=1 << (n * K),
        wall_time=0.0,
    )


def quadratic_optimum(inst: KmpInstance) -> int:
    """Reference optimum by scoring every binary matrix with evaluate()."""
    return reference_brute_force(inst).lower_bound


def pinned_point(inst: KmpInstance, model: IlpModel, rows) -> list[int]:
    """Complete an x pattern to a full variable point of the linear model.

    y variables are pinned to the products they linearize and each z is
    switched on exactly when enough products are available, which is the
    objective-maximal completion for a fixed x. Returned in the model's
    variable order.
    """
    by_name = {}
    n, K = inst.graph.n, inst.key_count
    for i in range(n):
        for k in range(K):
            by_name[x_name(i, k)] = rows[i][k]
    for i, j in inst.graph.edges:
        for k in range(K):
            by_name[y_name(i, j, k)] = rows[i][k] * rows[j][k]
        shared = sum(rows[i][k] * rows[j][k] for k in range(K))
        by_name[z_name(i, j)] = 1 if shared >= inst.q else 0
    return [by_name[name] for name in model.variables]


def linear_optimum_by_x_enumeration(inst: KmpInstance) -> int:
    """Optimum of the linear model over all binary points.

    Enumerates x patterns, completes each to the pinned point, keeps the
    ones the model itself accepts, and maximizes the model objective. The
    pinning is validated separately by full joint enumeration on micro
    models.
    """
    model = build_ilp(inst)
    n, K = inst.graph.n, inst.key_count
    best = 0
    for code in range(1 << (n * K)):
        rows = tuple(
            tuple((code >> (i * K + k)) & 1 for k in range(K)) for i in range(n)
        )
        point = pinned_point(inst, model, rows)
        if model.satisfied(point):
            value = model.objective_value(point)
            if value > best:
                best = int(value)
    return best


def linear_optimum_by_joint_enumeration(inst: KmpInstance) -> int:
    """Optimum of the linear model over every 0/1 point of every variable.

    Exponential in the full variable count, so callers must stay tiny.
    """
    model = build_ilp(inst)
    nvar = model.num_variables
    assert nvar <= 16, "joint enumeration is for micro models only"
    best = 0
    for code in range(1 << nvar):
        point = [(code >> b) & 1 for b in range(nvar)]
        if model.satisfied(point):
            value = model.objective_value(point)
            if value > best:
                best = int(value)
    return best


def indirect_link_scenario():
    """Triangle where one edge lacks the two keys needed for a direct link.

    Rings: vertex 0 holds {1,3,4,5}, vertex 1 holds {5,6,7}, vertex 2 holds
    {3,4,6,7}, out of a pool of 8. Overlaps are 1, 2 and 2 keys.
    """
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    inst = KmpInstance(
        graph=g,
        key_count=8,
        q=2,
        p=1.0,
        alpha=1,
        mem_per_key=(1.0,) * 8,
        capacity=(10.0, 10.0, 10.0),
        usage_limit=(3,) * 8,
    )
    rings = [{1, 3, 4, 5}, {5, 6, 7}, {3, 4, 6, 7}]
    rows = [[1 if k in ring else 0 for k in range(8)] for ring in rings]
    return inst, KeyAssignment.from_rows(rows)


def isolated_node_scenario():
    """Four sensors where the last one shares nothing with its only neighbor.

    Vertex 3 hangs off vertex 1; its ring is disjoint from everyone else's,
    so under q=1 the secure graph drops the pendant edge.
    """
    g = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    inst = KmpInstance(
        graph=g,
        key_count=4,
        q=1,
        p=1.0,
        alpha=1,
        mem_per_key=(1.0,) * 4,
        capacity=(4.0,) * 4,
        usage_limit=(4,) * 4,
    )
    rows = [
        [1, 1, 0, 0],
        [0, 1, 1, 0],
        [1, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    return inst, KeyAssignment.from_rows(rows)


# --- from-scratch references for the incremental counters of solver._State ---


def rescan_nz(st) -> list[list[int]]:
    """Per (vertex, key): neighbors not fixed to 0, counted afresh."""
    return [
        [sum(1 for u in st.adj[v] if st.val[u][k] != 0) for k in range(st.K)]
        for v in range(st.n)
    ]


def rescan_secured(st) -> int:
    """Edges whose endpoints share at least q fixed keys, counted afresh."""
    return sum(s >= st.inst.q for s in st.shared)


def rescan_key_pair_caps(st) -> list[int]:
    """key_pair_caps with co-holder candidates recounted from val."""
    inst = st.inst
    caps = []
    for k in range(st.K):
        t_k = inst.usage_limit[k]
        remaining = t_k - st.usage[k]
        weight_sum = 0
        addable = []
        for v in range(st.n):
            state = st.val[v][k]
            if state == 0:
                continue
            co_holders = sum(1 for u in st.adj[v] if st.val[u][k] != 0)
            w = min(st.ncap[v], co_holders, t_k - 1)
            if state == 1:
                weight_sum += w
            elif w > 0:
                addable.append(w)
        if remaining > 0 and addable:
            addable.sort(reverse=True)
            weight_sum += sum(addable[:remaining])
        caps.append(weight_sum // 2)
    return caps


def rescan_bound(st) -> int:
    """The node bound with every edge's keys walked in full, no early exit."""
    inst = st.inst
    q = inst.q
    budgets = st.vertex_budgets()
    total = 0
    for e, (i, j) in enumerate(st.edges):
        s = st.shared[e]
        if s >= q:
            total += 1
            continue
        need_i_only = need_j_only = need_both = 0
        for k in range(st.K):
            vi, vj = st.val[i][k], st.val[j][k]
            if vi == 0 or vj == 0 or (vi == 1 and vj == 1):
                continue
            if vi == 1:
                if st.usage[k] + 1 > inst.usage_limit[k]:
                    continue
                if st.cnt[j][k] > st.ncap[j] or st.cnt[i][k] + 1 > st.ncap[i]:
                    continue
                need_j_only += 1
            elif vj == 1:
                if st.usage[k] + 1 > inst.usage_limit[k]:
                    continue
                if st.cnt[i][k] > st.ncap[i] or st.cnt[j][k] + 1 > st.ncap[j]:
                    continue
                need_i_only += 1
            else:
                if st.usage[k] + 2 > inst.usage_limit[k]:
                    continue
                if st.cnt[i][k] + 1 > st.ncap[i] or st.cnt[j][k] + 1 > st.ncap[j]:
                    continue
                need_both += 1
        bi, bj = budgets[i], budgets[j]
        best = 0
        for c in range(min(need_both, bi, bj) + 1):
            best = max(best, min(need_i_only, bi - c) + min(need_j_only, bj - c) + c)
        if s + best >= q:
            total += 1
    caps = rescan_key_pair_caps(st)
    total = min(total, sum(caps) // q)
    if q == 1:
        total = min(total, st.coverage_bound(caps))
    return total
