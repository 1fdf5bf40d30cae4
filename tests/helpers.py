"""Shared builders and independent oracles used across the test modules.

Everything here deliberately avoids the package's own search and generation
code paths where an independent result is needed: connected graphs are
sampled with a local union-find check, and the reference optima come from
exhaustive enumeration routes that touch neither the branch-and-bound engine
nor the package's Gray-code oracle.
"""

import itertools
import random

from qkmp import solver
from qkmp.graph import (
    CONNECTIVITY_RETRY_LIMIT,
    Graph,
    RetryExhaustedError,
    UnsatisfiableDensityError,
    make_graph,
)
from qkmp.ilp import IlpModel, build_ilp, x_name, y_name, z_name
from qkmp.instance import (
    CAPACITY,
    GLOBAL_USE,
    NEIGHBORHOOD_USE,
    FeasibilityReport,
    KeyAssignment,
    KmpInstance,
    Violation,
    derive_z,
    evaluate,
)
from qkmp.solver import OPTIMAL, SolveResult

# dyadic memory weights: sums of these are exact in binary floating point,
# so budget arithmetic inside the solver matches evaluate() bit for bit
DYADIC_MEMS = (0.5, 1.0, 1.0, 2.0)


def spans(n: int, edges) -> bool:
    """True iff the edges connect all n >= 1 vertices (a local union-find)."""
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
    return len({find(v) for v in range(n)}) == 1


def connected_random_graph(rng: random.Random, n: int, prob: float) -> Graph:
    """Sample a connected simple graph without using the package generator."""
    if n == 1:
        return make_graph(1, [])
    while True:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < prob]
        if spans(n, edges):
            return make_graph(n, edges)


def reference_generate_er(n: int, d: float, seed: int) -> Graph:
    """``graph.generate_er`` drawn the straightforward way, as the reference.

    Every attempt draws all n(n-1)/2 pairs in lexicographic order, one
    ``random() < d`` each, and the first attempt that spans the vertices
    within ``CONNECTIVITY_RETRY_LIMIT`` is the graph. Takes valid arguments
    only, and raises the generator's exceptions.
    """
    if n >= 2 and d == 0.0:
        raise UnsatisfiableDensityError(f"no connected graph on {n} vertices has density 0")
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(CONNECTIVITY_RETRY_LIMIT):
        edges = [pair for pair in pairs if rng.random() < d]
        if spans(n, edges):
            return make_graph(n, edges)
    raise RetryExhaustedError(f"no connected G({n}, {d}) draw in {CONNECTIVITY_RETRY_LIMIT} attempts")


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
# the weights the benchmark's oracle instances draw, and capacities from below
# the heaviest key up to 1.0. Their float sums round both ways: 0.1 + 0.2 > 0.3
# although the exact sum meets it, while 0.1 + 0.2 + 0.7 == 1.0
WIDE_NON_DYADIC_MEMS = (0.1, 0.2, 0.3, 0.7)
WIDE_NON_DYADIC_CAPACITIES = (0.3, 0.4, 0.5, 0.6, 0.7, 1.0)


def random_non_dyadic_instance(
    rng: random.Random,
    mems: tuple[float, ...] = NON_DYADIC_MEMS,
    capacities: tuple[float, ...] = NON_DYADIC_CAPACITIES,
) -> KmpInstance:
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
        mem_per_key=tuple(rng.choice(mems) for _ in range(key_count)),
        capacity=tuple(rng.choice(capacities) for _ in range(n)),
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


def reference_evaluate(inst: KmpInstance, a: KeyAssignment) -> FeasibilityReport:
    """evaluate() written cell by cell over the matrix: every lhs a sum over
    x, the objective from derive_z. instance.evaluate must give an equal
    report, with each violation's lhs of the same type."""
    if a.n != inst.graph.n or (a.n and a.key_count != inst.key_count):
        raise ValueError("assignment shape does not match instance")
    g = inst.graph
    x = a.x
    K = inst.key_count
    violations = []
    for i in range(g.n):
        lhs = sum(inst.mem_per_key[k] * x[i][k] for k in range(K))
        if lhs > inst.capacity[i]:
            violations.append(Violation(CAPACITY, (i,), lhs, inst.capacity[i]))
    for i in range(g.n):
        rhs = inst.neighborhood_cap(i)
        nbrs = g.adjacency[i]
        for k, held in enumerate(x[i]):
            if not held:
                continue
            lhs = sum(x[j][k] for j in nbrs)
            if lhs > rhs:
                violations.append(Violation(NEIGHBORHOOD_USE, (i, k), lhs, rhs))
    for k in range(K):
        lhs = sum(x[i][k] for i in range(g.n))
        if lhs > inst.usage_limit[k]:
            violations.append(Violation(GLOBAL_USE, (k,), lhs, inst.usage_limit[k]))
    objective = sum(derive_z(inst, a).values())
    return FeasibilityReport(
        feasible=not violations, objective=objective, violations=tuple(violations)
    )


def reference_greedy(inst: KmpInstance, seed: int = 0) -> KeyAssignment:
    """greedy_heuristic with its key order as one sort of (fresh, usage, tie,
    key) tuples per edge. solver.greedy_heuristic must return the same
    assignment for every seed."""
    st = solver._State(inst)
    g = inst.graph
    rng = random.Random(seed)
    q = inst.q
    K = inst.key_count

    edge_order = sorted(
        g.edges, key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e)
    )
    for i, j in edge_order:
        e = st.edge_id[(i, j)]
        placed: list[tuple[int, int]] = []
        tie = [rng.random() for _ in range(K)]
        # one-addition candidates first, then fresh keys, least used first
        vi, vj, usage = st.val[i], st.val[j], st.usage
        ranked = sorted(
            [
                (vi[k] != 1 and vj[k] != 1, usage[k], tie[k], k)
                for k in range(K)
                if vi[k] != 1 or vj[k] != 1
            ]
        )
        for _, _, _, k in ranked:
            if st.shared[e] >= q:
                break
            done: list[tuple[int, int]] = []
            for v in (i, j):
                if st.val[v][k] != 1:
                    if not st.can_hold(v, k):
                        break
                    st.hold(v, k, 1)
                    done.append((v, k))
            else:
                placed += done
                continue
            # j refused k: take back i's cell, if k was placed there
            if done:
                st.hold(i, k, -1)
        if st.shared[e] < q:
            # could not secure this edge; return its keys to the pool
            for v, k in reversed(placed):
                st.hold(v, k, -1)

    return KeyAssignment(st.materialize())


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


def rescan_ring_mem(st, v: int, extra: int = -1) -> float:
    """Capacity lhs of v's ring plus key ``extra``, read from val with a
    generator over all keys in key-index order."""
    mem = st.inst.mem_per_key
    return sum(mem[k] for k in range(st.K) if st.val[v][k] == 1 or k == extra)


def rescan_secured(st) -> int:
    """Edges whose endpoints share at least q fixed keys, counted afresh."""
    return sum(s >= st.inst.q for s in st.shared)


def rescan_key_pair_caps(st) -> list[int]:
    """key_pair_caps with co-holder candidates recounted from val. The
    undecided cells of a key at its usage limit count as zeros."""
    inst = st.inst
    caps = []
    for k in range(st.K):
        t_k = inst.usage_limit[k]
        remaining = t_k - st.usage[k]
        live = (1,) if remaining == 0 else (1, -1)  # the cell values not ruled out
        weight_sum = 0
        addable = []
        for v in range(st.n):
            state = st.val[v][k]
            if state not in live:
                continue
            co_holders = sum(1 for u in st.adj[v] if st.val[u][k] in live)
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


def rescan_vertex_budgets(st) -> list[int]:
    """vertex_budgets with every vertex recounted from val and mem.

    Reads the state's ring memory ``mem``; the random walks check that
    against ring_mem on their own. A key at its usage limit fits nowhere.
    """
    inst = st.inst
    keys_by_mem = sorted(range(st.K), key=lambda k: (inst.mem_per_key[k], k))
    budgets = []
    for v in range(st.n):
        left = inst.capacity[v] - st.mem[v] + solver.BUDGET_SLACK
        r = 0
        total = 0.0
        for k in keys_by_mem:
            if st.val[v][k] != -1 or st.usage[k] >= inst.usage_limit[k]:
                continue
            total += inst.mem_per_key[k]
            if total > left:
                break
            r += 1
        budgets.append(r)
    return budgets


def rescan_edge_counts(st) -> list[list[int]]:
    """Per edge (i, j): the keys addable at i only, at j only and at both,
    every key of every edge tested afresh from val, cnt and usage."""
    inst = st.inst
    counts = []
    for i, j in st.edges:
        i_only = j_only = both = 0
        for k in range(st.K):
            vi, vj = st.val[i][k], st.val[j][k]
            if vi == 0 or vj == 0 or (vi == 1 and vj == 1):
                continue
            if vi == 1:
                if st.usage[k] + 1 > inst.usage_limit[k]:
                    continue
                if st.cnt[j][k] > st.ncap[j] or st.cnt[i][k] + 1 > st.ncap[i]:
                    continue
                j_only += 1
            elif vj == 1:
                if st.usage[k] + 1 > inst.usage_limit[k]:
                    continue
                if st.cnt[i][k] > st.ncap[i] or st.cnt[j][k] + 1 > st.ncap[j]:
                    continue
                i_only += 1
            else:
                if st.usage[k] + 2 > inst.usage_limit[k]:
                    continue
                if st.cnt[i][k] + 1 > st.ncap[i] or st.cnt[j][k] + 1 > st.ncap[j]:
                    continue
                both += 1
        counts.append([i_only, j_only, both])
    return counts


def rescan_bound(st) -> int:
    """The node bound from rescanned counts and budgets, with the gain of
    every edge maximized over c, no closed form and no early exit. Edges the
    search gave up count for nothing."""
    inst = st.inst
    q = inst.q
    budgets = rescan_vertex_budgets(st)
    total = 0
    for e, ((i, j), (need_i_only, need_j_only, need_both)) in enumerate(
        zip(st.edges, rescan_edge_counts(st))
    ):
        if st.given_up[e]:
            continue
        s = st.shared[e]
        if s >= q:
            total += 1
            continue
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
