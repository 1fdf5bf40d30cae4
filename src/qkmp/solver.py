"""Exact solvers for the key distribution model.

Three entry points: ``solve_bb`` is a deterministic depth-first
branch-and-bound that branches on edges, with constraint propagation;
``brute_force`` enumerates every binary assignment and is the correctness
oracle for small instances; ``greedy_heuristic`` builds a feasible warm
start and is also usable on its own.

The search never relaxes to an LP. Its node bound treats each unsatisfied
edge as securable unless the fixed pattern, the per-key usage budgets, or
the vertex memory budgets rule it out, which keeps the bound admissible.
The search state keeps, per edge, how many keys could still be added at one
endpoint or at both; the bound decides each edge from those counts, and the
search branches on the open edge with the fewest of them (fail first).

``brute_force`` shares no state or code with the search: it walks the codes
in Gray-code order with counts of its own and decides feasibility with the
same float arithmetic as ``evaluate``, so it stays an independent check.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import compress, repeat, starmap
from operator import ne

from .graph import as_count, check_time_limit
from .instance import KeyAssignment, KmpInstance, evaluate

OPTIMAL = "OPTIMAL"
FEASIBLE_TIMEOUT = "FEASIBLE_TIMEOUT"
ERROR = "ERROR"

BRUTE_FORCE_LIMIT = 24

# warm-start restarts; distinct greedy seeds diversify the incumbent
GREEDY_RESTARTS = 8

# vertex_budgets compares a running sum of key weights with capacity - mem,
# while evaluate() sums the whole ring in key-index order. Under non-dyadic
# weights the two roundings can differ by a few ulps (0.7 - 0.2 < 0.5 although
# 0.2 + 0.5 <= 0.7), which would budget out a key that fits and make the
# bound inadmissible. A budget may only err upward, so the slack trades a
# key that misses by less than this margin for admissibility; integer and
# dyadic weights never come that close.
BUDGET_SLACK = 1e-9

# status of key k on an edge (i, j), as the node bound reads it: k cannot add
# a shared key there, or it can by joining i's ring only, j's only, or both
NOT_ADDABLE, AT_I, AT_J, AT_BOTH = 0, 1, 2, 3

# the last child of every search frame: leave the frame's edge unsecured
GIVE_UP = -1


class InstanceTooLargeError(ValueError):
    """brute_force refuses instances with more than BRUTE_FORCE_LIMIT cells."""


@dataclass(frozen=True)
class SolverConfig:
    """The limits of one ``solve_bb`` run, the only inputs besides the instance."""

    time_limit: float = 3600.0
    node_limit: int | None = None

    def __post_init__(self) -> None:
        check_time_limit(self.time_limit, "time_limit")
        if self.node_limit is not None:
            object.__setattr__(self, "node_limit", as_count(self.node_limit, "node_limit"))
            if self.node_limit < 1:
                raise ValueError("node_limit must be positive when given")


@dataclass(frozen=True)
class SolveResult:
    status: str
    incumbent: KeyAssignment
    lower_bound: int
    upper_bound: int
    gap: float
    nodes: int
    wall_time: float

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "objective": self.lower_bound,
            "bound": self.upper_bound,
            "gap": self.gap,
            "nodes": self.nodes,
            "wall_time": self.wall_time,
            "x": [list(row) for row in self.incumbent.x],
        }


def compute_gap(lower: float, upper: float) -> float:
    """Relative gap (UB - LB) / max(UB, 1).

    This differs from the MIPGap convention of commercial solvers, which can
    report a nonzero gap even at a proven optimum; comparisons with solver
    logs are qualitative only.
    """
    return (upper - lower) / max(upper, 1)


def brute_force(inst: KmpInstance) -> SolveResult:
    """Enumerate all 2^(n*K) assignments; exact but exponential.

    Cell (i, k) is bit i*K + k of a code. The codes are walked in reflected
    Gray-code order, so each step flips one cell and updates the counts it
    touches in O(deg) instead of re-scoring the whole matrix. The counts are
    the oracle's own and share nothing with the search's ``_State``; the
    feasibility arithmetic is ``evaluate``'s: ring memory is the key-index
    order sum ``sum(mem[k] * x[i][k])`` (tabulated per ring mask, never
    updated by adding and subtracting), the integer neighborhood count is
    compared with the float ``neighborhood_cap``, and usage must not exceed
    its limit. Among optimal assignments the one with the smallest code is
    returned, as a scan in code order would.
    """
    n, K = inst.graph.n, inst.key_count
    cells = n * K
    if cells > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"{cells} binary cells exceed the enumeration limit of {BRUTE_FORCE_LIMIT}"
        )
    start = time.perf_counter()
    g = inst.graph
    q = inst.q
    mem = inst.mem_per_key
    limit = inst.usage_limit
    # over_cap[i][ring]: does ring mask `ring` break vertex i's capacity?
    over_cap = [
        bytearray(
            sum(mem[k] * ((ring >> k) & 1) for k in range(K)) > inst.capacity[i]
            for ring in range(1 << K)
        )
        for i in range(n)
    ]
    edge_id = {e: idx for idx, e in enumerate(g.edges)}
    # per cell (i, k): its vertex, its key, the neighborhood rhs of i, and
    # the (neighbor cell (j, k), edge id) pairs a flip of it touches
    vertex = [c // K for c in range(cells)]
    key = [c % K for c in range(cells)]
    ncap = [inst.neighborhood_cap(c // K) for c in range(cells)]
    links = [
        tuple(
            (j * K + c % K, edge_id[(min(c // K, j), max(c // K, j))])
            for j in sorted(g.adjacency[c // K])
        )
        for c in range(cells)
    ]

    x = [0] * cells
    ring = [0] * n
    usage = [0] * K
    held_nbrs = [0] * cells  # neighbors holding key k, per cell (i, k)
    shared = [0] * len(g.edges)
    secured = 0  # edges with shared >= q
    violated = sum(over_cap[i][0] for i in range(n))  # rows broken right now

    code = 0
    best_obj = secured if not violated else -1
    best_code = 0
    for step in range(1, 1 << cells):
        c = (step & -step).bit_length() - 1
        code ^= 1 << c
        i, k = vertex[c], key[c]
        old_ring = ring[i]
        new_ring = ring[i] = old_ring ^ (1 << k)
        over = over_cap[i]
        violated += over[new_ring] - over[old_ring]
        d = 1 - 2 * x[c]  # +1 adds key k to i's ring, -1 removes it
        x[c] += d
        u = usage[k]
        usage[k] = u + d
        violated += (u + d > limit[k]) - (u > limit[k])
        # row (i, k) counts held_nbrs[c] while i holds k, 0 otherwise
        violated += d * (held_nbrs[c] > ncap[c])
        for cj, e in links[c]:
            h = held_nbrs[cj]
            held_nbrs[cj] = h + d
            if x[cj]:
                violated += (h + d > ncap[cj]) - (h > ncap[cj])
                s = shared[e]
                shared[e] = s + d
                secured += (s + d >= q) - (s >= q)
        if not violated and (
            secured > best_obj or (secured == best_obj and code < best_code)
        ):
            best_obj = secured
            best_code = code
    best_rows = tuple(
        tuple((best_code >> (i * K + k)) & 1 for k in range(K)) for i in range(n)
    )
    # the all-zero assignment is always feasible, so best_obj >= 0 here
    return SolveResult(
        status=OPTIMAL,
        incumbent=KeyAssignment(best_rows),
        lower_bound=best_obj,
        upper_bound=best_obj,
        gap=0.0,
        nodes=1 << cells,
        wall_time=time.perf_counter() - start,
    )


class _State:
    """Mutable search state shared by the heuristic and the tree search.

    Both change rings only through ``can_hold`` / ``hold``, so ring memory
    ``mem`` is right after a move of either. The search goes through
    ``fix`` / ``undo_to``, which add the trail and the forced zeros on top,
    and through ``give_up``, after which ``fix`` keeps that edge below q
    shared keys. A key is closed while ``usage[k]`` equals its limit:
    ``can_hold`` and ``fix`` refuse its undecided cells and the bound parts
    read them as zeros, so closing a key writes no cell.

    Every cell change goes through one of two signed mutators: ``hold``
    adds or drops a 1 and keeps the byte row ``held`` and ``mem[v]``, its
    ``ring_mem`` sum; ``_zero`` fixes or reopens a 0. Both mark the cell's
    key stale, which keeps the node bound's cached per-key ``caps`` valid:
    a cap reads column k of ``val``, ``nz`` and ``cnt`` and ``usage[k]``. A
    budget reads row v of ``val``, ``mem[v]`` and which keys are closed;
    ``mem[v]`` only changes together with a 1 in row v, so ``hold`` marks v
    stale. Its loop walks the open undecided keys of row v lightest first
    and stops at the first that no longer fits; it records that key's rank
    in ``keys_by_mem`` in ``budget_break[v]``. ``_zero``, and ``hold`` when
    it closes or reopens a key, mark v stale only when the key ranks at or
    before that break: a change after it leaves the counted prefix, and so
    the budget, as it was. ``key_pair_caps`` and ``vertex_budgets``
    recompute the stale entries only.

    The per-edge key counts work the same way. Key k's status on edge
    (i, j) reads ``val``, ``cnt`` and ``usage`` at column k, so a cell
    (v, k) moves it on the edges at v (its ``val``) and, for a 1, on the
    edges at v's neighbours (their ``cnt``); a change of ``usage[k]`` that
    enters or leaves ``limit - 1`` or ``limit`` moves it on every edge. The
    mutators mark those (vertex, key) cells or the whole key stale, and the
    next ``bound`` or ``edge_counts`` recounts the stale statuses only. The
    first such call builds the counts, so the heuristic, which never
    bounds, never pays for them.

    Backing out needs no recount: while the cell trail is not empty, every
    status and budget that a bound overwrites leaves its old value on the
    cache trail, and ``undo_to`` writes those values back. A mark is where
    the cell trail and both cache trails stand, and every status and budget
    is exact at it, so an undo to it leaves nothing stale.
    """

    def __init__(self, inst: KmpInstance):
        g = inst.graph
        self.inst = inst
        self.n = g.n
        self.K = inst.key_count
        self.adj = [tuple(sorted(g.adjacency[i])) for i in range(g.n)]
        self.edges = list(g.edges)
        self.edge_id = {e: idx for idx, e in enumerate(self.edges)}
        # per vertex, the id of the edge to each neighbour in adj order
        self.incident = [
            tuple(self.edge_id[(v, u) if v < u else (u, v)] for u in self.adj[v])
            for v in range(g.n)
        ]
        # floor of the fractional cap: integer lhs <= float rhs iff lhs <= floor(rhs)
        self.ncap = [math.floor(inst.neighborhood_cap(i)) for i in range(g.n)]
        self.val = [[-1] * self.K for _ in range(g.n)]
        self.usage = [0] * self.K
        self.mem = [0.0] * g.n
        self.cnt = [[0] * self.K for _ in range(g.n)]  # fixed-1 neighbors per (i, k)
        # neighbors not fixed to 0 per (i, k): the co-holder candidates
        self.nz = [[len(self.adj[i])] * self.K for i in range(g.n)]
        self.shared = [0] * len(self.edges)  # keys fixed to 1 on both endpoints
        self.secured = 0  # edges with shared >= q
        self.pair_count = [0] * self.K  # edges whose endpoints both hold k
        # cells fixed by fix(), in order; undo_to reads each cell's value
        self.trail: list[tuple[int, int]] = []
        # per vertex, a byte per key: 1 where val is 1, for C-level ring scans
        self.held = [bytearray(self.K) for _ in range(g.n)]
        # key order by memory footprint, for vertex budget estimation, and
        # each key's rank in it
        self.keys_by_mem = sorted(range(self.K), key=lambda k: (inst.mem_per_key[k], k))
        self.mem_rank = [0] * self.K
        for rank, k in enumerate(self.keys_by_mem):
            self.mem_rank[k] = rank
        # per rank in keys_by_mem, 1 while that key is open (below its limit)
        self.open_by_rank = bytearray([1]) * self.K
        self.heaviest = max(inst.mem_per_key, default=0.0)
        # bound parts, valid except at the stale keys and vertices
        self.caps = [0] * self.K
        self.budgets = [0] * g.n
        # per vertex, the rank of the key at which its budget loop broke,
        # or K if it never broke
        self.budget_break = [self.K] * g.n
        self.stale_keys = set(range(self.K))
        self.stale_vertices = set(range(g.n))
        # per vertex: its val row, its nz row (its cnt row, for a closed key)
        # and its ncap, for column scans; the rows are the live lists, so
        # the tuples never go stale
        self.vertex_rows = list(zip(self.val, self.nz, self.ncap))
        self.closed_rows = list(zip(self.val, self.cnt, self.ncap))
        # key k's status on edge e at status[k][e], and per edge the number
        # of keys in each status; None until edge_counts first runs
        self.status: list[list[int]] | None = None
        self.tally: list[list[int]] = []
        self.stale_cells: set[tuple[int, int]] = set()  # recount k at v's edges
        self.stale_count_keys = set(range(self.K))  # recount k on every edge
        # the cache trail: the statuses and budgets that a bound overwrote
        # while the cell trail was not empty, as flat (e, k, old status) and
        # (v, old budget, old break) triples
        self.saved_status: list[int] = []
        self.saved_budgets: list[int] = []
        # edges the search has given up (see give_up); bound() counts none
        self.given_up = [False] * len(self.edges)

    def ring_mem(self, v: int, extra: int = -1) -> float:
        """Capacity lhs of v's ring plus key ``extra``, summed in key-index
        order exactly as the validator sums it."""
        row = self.held[v]
        if extra < 0:
            return sum(compress(self.inst.mem_per_key, row))
        was = row[extra]
        row[extra] = 1
        total = sum(compress(self.inst.mem_per_key, row))
        row[extra] = was
        return total

    def fits(self, v: int, k: int) -> bool:
        """The one capacity predicate: does key k fit on v's current ring?"""
        return self.ring_mem(v, k) <= self.inst.capacity[v]

    def can_hold(self, v: int, k: int) -> bool:
        """May the undecided cell (v, k) take a 1? Checks key k's usage, v's
        capacity, v's own neighborhood row and the row of every neighbor
        that holds k."""
        if self.usage[k] + 1 > self.inst.usage_limit[k]:
            return False
        val, cnt, ncap = self.val, self.cnt, self.ncap
        if cnt[v][k] > ncap[v] or not self.fits(v, k):
            return False
        for u in self.adj[v]:
            if val[u][k] == 1 and cnt[u][k] + 1 > ncap[u]:
                return False
        return True

    def hold(self, v: int, k: int, d: int) -> None:
        """Add key k to v's ring (d = 1) or take it off again (d = -1),
        update the counters (see ``_move``) and mark the statuses and
        budgets that the move changes stale."""
        self._move(v, k, d)
        used, limit = self.usage[k], self.inst.usage_limit[k]
        self.stale_vertices.add(v)
        if self.status is not None:
            # did usage[k] enter or leave limit - 1 or limit?
            if max(used, used - d) >= limit - 1:
                self.stale_count_keys.add(k)
            else:
                # the edges at v are among the edges at its neighbours
                self.stale_cells.update(zip(self.adj[v], repeat(k)))
        # closing or reopening k moves the budgets that count it; every
        # vertex is stale anyway until the first vertex_budgets
        if limit in (used, used - d) and len(self.stale_vertices) < self.n:
            val, brk, rank = self.val, self.budget_break, self.mem_rank[k]
            self.stale_vertices.update(
                [w for w in range(self.n) if val[w][k] == -1 and rank <= brk[w]]
            )

    def _move(self, v: int, k: int, d: int) -> None:
        """The counters of ``hold``: ``held``, ``mem``, usage and whether
        key k is open, ``cnt``, ``shared``, ``secured`` and ``pair_count``,
        and key k's cap. It is the only writer of ``mem``; ``undo_to`` calls
        it without ``hold``, since it writes the statuses and budgets back
        itself."""
        self.val[v][k] = d  # 1 held, -1 undecided
        self.held[v][k] = d > 0
        self.mem[v] = self.ring_mem(v)
        used = self.usage[k] = self.usage[k] + d
        self.open_by_rank[self.mem_rank[k]] = used < self.inst.usage_limit[k]
        self.stale_keys.add(k)
        q = self.inst.q
        val, cnt, shared = self.val, self.cnt, self.shared
        for u, e in zip(self.adj[v], self.incident[v]):
            cnt[u][k] += d
            if val[u][k] == 1:
                s = shared[e]
                shared[e] = s + d
                self.secured += (s + d >= q) - (s >= q)
                self.pair_count[k] += d

    def _zero(self, v: int, k: int, d: int) -> None:
        """Fix the undecided cell (v, k) to 0 and push it on the trail
        (d = 1), or make the zero ``undo_to`` pops undecided again
        (d = -1), which leaves the statuses and budgets to the undo."""
        self.val[v][k] = 0 if d > 0 else -1
        self.stale_keys.add(k)
        if d > 0:
            self.trail.append((v, k))
            # a key past the one v's budget loop broke at leaves the budget as it is
            if self.mem_rank[k] <= self.budget_break[v]:
                self.stale_vertices.add(v)
            if self.status is not None:
                self.stale_cells.add((v, k))
        for u in self.adj[v]:
            self.nz[u][k] -= d

    def fix(self, v: int, k: int) -> bool:
        """Place key k on v's ring and fix the zeros it forces. True if v
        already holds k; False means conflict, and a conflict changes no
        state."""
        cur = self.val[v][k]
        if cur != -1:
            return cur == 1
        if not self.can_hold(v, k):
            return False
        self.hold(v, k, 1)
        self.trail.append((v, k))

        # only a 1 forces anything, and only zeros, so one pass is a fixpoint.
        # A closed key needs no zeros: no cell of it can take a 1
        inst = self.inst
        val, cnt, ncap = self.val, self.cnt, self.ncap
        usage, limit = self.usage, inst.usage_limit
        # capacity: open keys that no longer fit at v are out. The
        # difference is only a cheap filter, which no key passes while the
        # heaviest one fits in it; fits() decides, as evaluate() would
        left = inst.capacity[v] - self.mem[v]
        row = val[v]
        for kk in range(self.K) if left < self.heaviest else ():
            if (
                row[kk] == -1 and inst.mem_per_key[kk] > left
                and usage[kk] < limit[kk] and not self.fits(v, kk)
            ):
                self._zero(v, kk, 1)
        # neighborhood rows, while k is open: an undecided neighbor whose
        # row is already over its cap, and the undecided neighbors of every
        # holder at its cap (v included), may not take k anymore
        k_open = usage[k] < limit[k]
        v_full = cnt[v][k] == ncap[v]
        q1 = inst.q - 1
        for u, e in zip(self.adj[v], self.incident[v]):
            if k_open:
                uval = val[u][k]
                if uval == -1 and (v_full or cnt[u][k] > ncap[u]):
                    self._zero(u, k, 1)
                elif uval == 1 and cnt[u][k] == ncap[u]:
                    for w in self.adj[u]:
                        if val[w][k] == -1:
                            self._zero(w, k, 1)
            # a given-up edge one key short of q takes no further shared key
            if self.given_up[e] and self.shared[e] == q1:
                if val[u][k] == 1:
                    self._seal(e)  # k was the (q-1)-th shared key
                elif k_open and val[u][k] == -1:
                    self._zero(u, k, 1)
        return True

    def give_up(self, e: int) -> None:
        """Keep edge e unsecured from here on: no completion may give it q
        shared keys. The search clears ``given_up[e]`` again when it backs
        out past this call; the zeros it forces sit on the trail."""
        self.given_up[e] = True
        if self.shared[e] == self.inst.q - 1:
            self._seal(e)

    def _seal(self, e: int) -> None:
        """Close every undecided cell of an open key that would give edge e
        one more shared key."""
        i, j = self.edges[e]
        row_i, row_j = self.val[i], self.val[j]
        usage, limit = self.usage, self.inst.usage_limit
        for k in range(self.K):
            if usage[k] == limit[k]:
                continue
            if row_i[k] == 1 and row_j[k] == -1:
                self._zero(j, k, 1)
            elif row_j[k] == 1 and row_i[k] == -1:
                self._zero(i, k, 1)

    def mark(self) -> tuple[int, int, int]:
        """Where the cell trail and both cache trails stand, for
        ``undo_to``. It first brings any stale status or budget up to date,
        so every cache is exact at a mark; the search marks right after a
        bound, where none is stale."""
        if self.stale_cells or self.stale_count_keys or self.stale_vertices:
            self.edge_counts()
            self.vertex_budgets()
        return len(self.trail), len(self.saved_status), len(self.saved_budgets)

    def undo_to(self, mark: tuple[int, int, int]) -> None:
        """Pop the cell trail back to ``mark``, making each popped cell
        undecided, and write back every status and budget that a bound
        overwrote since the mark. Each is exact at the mark, so none is
        left stale."""
        cells, status_start, budget_start = mark
        trail = self.trail
        if len(trail) > cells:
            val = self.val
            for v, k in reversed(trail[cells:]):
                if val[v][k] == 1:
                    self._move(v, k, -1)
                else:
                    self._zero(v, k, -1)
            del trail[cells:]
        saved = self.saved_status
        if len(saved) > status_start:
            status, tally = self.status, self.tally
            back = reversed(saved[status_start:])
            for old, k, e in zip(back, back, back):
                column, t = status[k], tally[e]
                t[column[e]] -= 1
                t[old] += 1
                column[e] = old
            del saved[status_start:]
        saved = self.saved_budgets
        if len(saved) > budget_start:
            budgets, brk = self.budgets, self.budget_break
            back = reversed(saved[budget_start:])
            for old_brk, old, v in zip(back, back, back):
                budgets[v] = old
                brk[v] = old_brk
            del saved[budget_start:]
        self.stale_cells.clear()
        self.stale_count_keys.clear()
        self.stale_vertices.clear()

    def materialize(self) -> tuple[tuple[int, ...], ...]:
        """Zero-completion of the current fixed pattern, read from the held
        byte rows; always feasible."""
        return tuple(map(tuple, self.held))

    def vertex_budgets(self) -> list[int]:
        """How many more keys could possibly fit on each vertex, as the live
        list. A closed key fits nowhere. While the cell trail is not empty,
        each budget it changes goes on the cache trail with its break."""
        inst = self.inst
        mem, capacity = inst.mem_per_key, inst.capacity
        keys, is_open = self.keys_by_mem, self.open_by_rank
        budgets, brk, rank = self.budgets, self.budget_break, self.mem_rank
        saved = self.saved_budgets if self.trail else None
        K = self.K
        for v in self.stale_vertices:
            left = capacity[v] - self.mem[v] + BUDGET_SLACK
            row = self.val[v]
            r = 0
            b = K  # the loop never broke
            total = 0.0
            for k in compress(keys, is_open):
                if row[k] != -1:
                    continue
                total += mem[k]
                if total > left:
                    b = rank[k]
                    break
                r += 1
            if saved is not None and (budgets[v] != r or brk[v] != b):
                saved += v, budgets[v], brk[v]
            budgets[v] = r
            brk[v] = b
        self.stale_vertices.clear()
        return budgets

    def key_pair_caps(self) -> list[int]:
        """Per-key cap on the number of co-holding adjacent pairs.

        Key k ends up on at most t_k vertices; a holder v shares it with at
        most min(ncap(v), co-holder candidates, t_k - 1) neighbors, so key k
        yields at most floor(sum of those weights / 2) pairs. Fixed holders
        always count; of the undecided ones only the t_k - usage_k heaviest
        can still join the ring. A closed key's undecided cells count as
        zeros, so its holders' candidates are the neighbors that hold it.
        """
        inst = self.inst
        caps = self.caps
        for k in self.stale_keys:
            t_k = inst.usage_limit[k]
            remaining = t_k - self.usage[k]
            weight_sum = 0
            addable: list[int] = []
            for val_v, co_v, ncap_v in self.vertex_rows if remaining else self.closed_rows:
                state = val_v[k]
                if state == 0:
                    continue
                # min(ncap_v, co_v[k], t_k - 1), without the call overhead
                w = co_v[k]
                if w > ncap_v:
                    w = ncap_v
                if w >= t_k:
                    w = t_k - 1
                if state == 1:
                    weight_sum += w
                elif w > 0:
                    addable.append(w)
            if remaining > 0 and addable:
                addable.sort(reverse=True)
                weight_sum += sum(addable[:remaining])
            caps[k] = weight_sum // 2
        self.stale_keys.clear()
        return list(caps)

    def coverage_bound(self, caps: list[int]) -> int:
        """Key-count bound for q = 1: how many edges can the keys still touch.

        A key whose ring never exceeds three vertices secures two or more
        edges only when those edges meet at a common holder, and that holder
        needs headroom for two shared neighbors (ncap >= 2). Edges at such
        hub vertices are scarce, so coverage beyond one edge per key is
        charged against them: a key with existing pairs extends its own hub
        for one hub edge per extra, while a fresh key spends an extra hub
        edge to open its hub. Rings allowed four or more vertices can hold
        disjoint pairs and are left uncharged.
        """
        inst = self.inst
        secured = self.secured  # for q = 1, the edges with a shared key
        unsec = len(self.edges) - secured
        hub_edges = 0
        for (i, j), s in zip(self.edges, self.shared):
            if not s and (self.ncap[i] >= 2 or self.ncap[j] >= 2):
                hub_edges += 1
        first_units = 0
        extend_extras = 0  # keys that already pair somewhere, one hub edge each
        fresh_extras: list[int] = []  # extras of pairless small-ring keys
        free_extras = 0  # rings of four or more escape the hub argument
        for k in range(self.K):
            slack = caps[k] - self.pair_count[k]
            if slack <= 0:
                continue
            first_units += 1
            if slack == 1:
                continue
            if inst.usage_limit[k] >= 4:
                free_extras += slack - 1
            elif self.pair_count[k] > 0:
                extend_extras += slack - 1
            else:
                fresh_extras.append(slack - 1)
        budget = hub_edges
        taken = min(extend_extras, budget)
        extras = taken + free_extras
        budget -= taken
        fresh_extras.sort(reverse=True)
        for cap in fresh_extras:
            if budget < 2:
                break
            take = min(cap, budget - 1)
            extras += take
            budget -= take + 1
        return secured + min(unsec, first_units + extras)

    def edge_counts(self) -> list[list[int]]:
        """Per edge (i, j), how many keys stand in each status: not
        addable, addable at i only, at j only and at both.

        A key counts as addable only while it is below its usage limit, and
        at both only while two more holders fit its limit. It is addable at
        i only when j holds it, i does not and may, and i's row and j's
        both stay within their caps with the new co-holder; the other cases
        mirror that. Capacity is left to the vertex budgets. The first call
        builds the statuses, later calls recount the stale ones.
        """
        E, K = len(self.edges), self.K
        if self.status is None:
            self.status = [[NOT_ADDABLE] * E for _ in range(K)]
            self.tally = [[K, 0, 0, 0] for _ in range(E)]
        full = self.stale_count_keys
        for k in full:
            self._recount(k, range(E))
        usage, limit = self.usage, self.inst.usage_limit
        for v, k in self.stale_cells:
            # a key at its limit is NOT_ADDABLE everywhere since it got there
            if k not in full and usage[k] < limit[k]:
                self._recount(k, self.incident[v])
        full.clear()
        self.stale_cells.clear()
        return self.tally

    def _recount(self, k: int, edge_ids) -> None:
        """Set key k's status on the given edges afresh and move the tallies.
        While the cell trail is not empty, each status it changes goes on
        the cache trail."""
        used, limit = self.usage[k], self.inst.usage_limit[k]
        live = used < limit
        pair = used + 2 <= limit
        val, cnt, ncap = self.val, self.cnt, self.ncap
        edges, status, tally = self.edges, self.status[k], self.tally
        saved = self.saved_status if self.trail else None
        for e in edge_ids:
            new = NOT_ADDABLE
            if live:
                i, j = edges[e]
                vi, vj = val[i][k], val[j][k]
                if vi == 1:
                    if vj == -1 and cnt[j][k] <= ncap[j] and cnt[i][k] < ncap[i]:
                        new = AT_J
                elif vj == 1:
                    if vi == -1 and cnt[i][k] <= ncap[i] and cnt[j][k] < ncap[j]:
                        new = AT_I
                elif (
                    pair and vi == -1 and vj == -1
                    and cnt[i][k] < ncap[i] and cnt[j][k] < ncap[j]
                ):
                    new = AT_BOTH
            old = status[e]
            if old != new:
                if saved is not None:
                    saved += e, k, old
                status[e] = new
                t = tally[e]
                t[old] -= 1
                t[new] += 1

    def bound(self, cutoff: int = -1) -> int:
        """Admissible completion bound: count edges not yet ruled out.

        An open edge (i, j) that lacks ``need`` shared keys, with budgets bi,
        bj and ni keys addable at i only, nj at j only and nb at both (see
        ``edge_counts``), gains at most max over c of min(ni, bi - c) +
        min(nj, bj - c) + c. That reaches ``need`` iff bi + bj, ni + nj + nb,
        ni + bj and nj + bi all do. A given-up edge counts for nothing: the
        bound covers the completions that leave it unsecured. For q = 1 the
        coverage bound alone caps the total: every cap is at least its key's
        ``pair_count``, so ``coverage_bound(caps)`` is at most sum(caps) and
        the cap sum(caps) // q never binds there.

        A per-edge count at or below ``cutoff`` is returned as it is, without
        the key caps: the search passes its incumbent, and the node is pruned
        either way. With the default cutoff the full bound is returned.
        """
        q = self.inst.q
        budgets = self.vertex_budgets()
        total = 0
        for (i, j), s, (_, ni, nj, nb), gone in zip(
            self.edges, self.shared, self.edge_counts(), self.given_up
        ):
            if gone:
                continue
            if s >= q:
                total += 1
                continue
            need = q - s
            bi, bj = budgets[i], budgets[j]
            if (
                bi + bj >= need and ni + nj + nb >= need
                and ni + bj >= need and nj + bi >= need
            ):
                total += 1
        if total <= cutoff:
            return total
        caps = self.key_pair_caps()
        if q == 1:
            return min(total, self.coverage_bound(caps))
        return min(total, sum(caps) // q)


def greedy_heuristic(inst: KmpInstance, seed: int = 0) -> KeyAssignment:
    """Feasible constructive assignment, one pass over the edges.

    Edges are visited hubs-first; each edge greedily acquires up to q shared
    keys. It tries the keys exactly one endpoint holds first, then the keys
    neither endpoint holds. Within each group the order is by usage at the
    start of the edge, then by a tie draw from a generator seeded by
    ``seed`` (K draws per edge, secured or not), then by key index: two
    stable sorts, by tie and then by usage. ``solve_bb`` keeps the best of
    seeds 0 .. GREEDY_RESTARTS - 1. Every move is feasible, so the result
    validates.
    """
    st = _State(inst)
    g = inst.graph
    rng = random.Random(seed)
    q = inst.q
    K = inst.key_count
    keys = range(K)
    shared, usage, held = st.shared, st.usage, st.held

    edge_order = sorted(
        g.edges, key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e)
    )
    for i, j in edge_order:
        e = st.edge_id[(i, j)]
        tie = list(starmap(rng.random, repeat((), K)))  # K draws
        if shared[e] >= q:
            continue
        placed: list[tuple[int, int]] = []
        held_i, held_j = held[i], held[j]
        # keys one endpoint holds: only the other endpoint takes a cell
        ranked = list(compress(keys, map(ne, held_i, held_j)))
        ranked.sort(key=tie.__getitem__)
        ranked.sort(key=usage.__getitem__)
        for k in ranked:
            if shared[e] >= q:
                break
            v = j if held_i[k] else i
            if st.can_hold(v, k):
                st.hold(v, k, 1)
                placed.append((v, k))
        if shared[e] < q:
            # keys neither endpoint holds; their usage has not moved since
            # the edge began, so sorting all keys now orders them the same
            ranked = sorted(keys, key=tie.__getitem__)
            ranked.sort(key=usage.__getitem__)
            for k in ranked:
                if held_i[k] or held_j[k]:
                    continue
                if shared[e] >= q:
                    break
                if st.can_hold(i, k):
                    st.hold(i, k, 1)
                    if st.can_hold(j, k):
                        st.hold(j, k, 1)
                        placed += ((i, k), (j, k))
                    else:
                        st.hold(i, k, -1)
        if shared[e] < q:
            # could not secure this edge; return its keys to the pool
            for v, k in reversed(placed):
                st.hold(v, k, -1)

    return KeyAssignment(st.materialize())


def solve_bb(inst: KmpInstance, cfg: SolverConfig | None = None) -> SolveResult:
    """Deterministic exact branch-and-bound that branches on edges.

    Each node picks the open edge (fewer than q shared keys, not given up)
    with the fewest keys that could still add a shared key there (fail
    first; ties go to the lowest edge id) and tries, in order: each such key
    held at one endpoint, in key order; each such key held at neither
    endpoint, where the unused keys of one run of adjacent keys with equal
    weight and usage limit count once, as the run's lowest-index unused key;
    and last, giving the edge up. Unused keys of one run are
    interchangeable: they hold the same column, and a ring's key-index
    order sum cannot tell which of them it holds. For q >= 2 a key whose
    sibling is exhausted is forbidden on that edge in the later siblings,
    and such a key stops standing in for its run. A given-up edge stays
    unsecured below its frame (``_State.give_up``), so the node bound,
    the lesser of the parent's and ``_State.bound``, counts none of the
    given-up edges. A node whose parent's bound no longer beats the
    incumbent is pruned without calling ``_State.bound``, and the call gets
    the incumbent as its cutoff; once the incumbent meets a node's bound,
    its untried children are dropped unvisited. After each placement the
    propagator fixes forced zeros from capacity, neighborhood saturation and
    given-up edges; a key at its usage limit is closed without any.
    Zero-completion of the fixed pattern is always feasible and feeds the
    incumbent. On a time or node limit the best open-node bound certifies
    the reported gap.
    """
    cfg = cfg or SolverConfig()
    start = time.perf_counter()
    st = _State(inst)
    K = inst.key_count
    q = inst.q

    root_bound = st.bound()
    # the all-zero assignment is feasible for every valid instance
    best_obj = 0
    best_rows = KeyAssignment.zeros(inst.graph.n, K).x
    for restart in range(GREEDY_RESTARTS):
        # the time limit covers the warm start, but at least one restart runs
        if restart and time.perf_counter() - start > cfg.time_limit:
            break
        warm = greedy_heuristic(inst, restart)
        report = evaluate(inst, warm)
        # an infeasible warm start must never become the incumbent
        if report.feasible and report.objective > best_obj:
            best_obj = report.objective
            best_rows = warm.x
        # no restart can beat an admissible bound, and the strict > above
        # would keep this incumbent anyway
        if best_obj >= root_bound:
            break

    mem, limit = inst.mem_per_key, inst.usage_limit
    run_of = []  # the first key of k's run of equal adjacent keys
    for k in range(K):
        same = k and mem[k] == mem[k - 1] and limit[k] == limit[k - 1]
        run_of.append(run_of[k - 1] if same else k)
    given_up = st.given_up
    forbidden: list[set[int]] = [set() for _ in st.edges]  # per edge, for q >= 2
    forbid_count = [0] * K  # edges each key is forbidden on
    status, tally, shared, usage = st.status, st.tally, st.shared, st.usage

    def new_frame(node_bound: int) -> list | None:
        """[edge, children, next child, trail mark, bound], or None at a leaf."""
        edge, fewest = -1, K + 1
        for e, t in enumerate(tally):
            # t[NOT_ADDABLE] + ni + nj + nb == K
            if shared[e] < q and not given_up[e] and K - t[NOT_ADDABLE] < fewest:
                edge, fewest = e, K - t[NOT_ADDABLE]
        if edge < 0:
            return None
        held, fresh, runs = [], [], set()
        off = forbidden[edge]
        for k, column in enumerate(status):
            s = column[edge]
            if s == NOT_ADDABLE or k in off:
                continue
            if s != AT_BOTH:
                held.append(k)
            elif usage[k] or forbid_count[k]:
                fresh.append(k)  # a class of its own
            elif run_of[k] not in runs:
                runs.add(run_of[k])
                fresh.append(k)
        return [edge, held + fresh + [GIVE_UP], 0, st.mark(), node_bound]

    nodes = 0
    result = OPTIMAL
    # a warm start that meets the root bound leaves nothing to search
    root = new_frame(root_bound) if root_bound > best_obj else None
    stack = [root] if root else []
    while stack:
        frame = stack[-1]
        e, children, pos, mark, frame_bound = frame
        st.undo_to(mark)
        out_of_nodes = cfg.node_limit is not None and nodes >= cfg.node_limit
        if out_of_nodes or time.perf_counter() - start > cfg.time_limit:
            result = FEASIBLE_TIMEOUT
            break
        if pos == len(children) or frame_bound <= best_obj:
            # every child is tried, or the incumbent meets the frame's bound
            # and no child can beat it
            stack.pop()
            given_up[e] = False
            if q >= 2:
                # the children before the last one tried are forbidden on e
                for k in children[: pos - 1]:
                    forbidden[e].discard(k)
                    forbid_count[k] -= 1
            continue
        if pos and q >= 2:
            # every completion sharing the previous key on e was searched
            k = children[pos - 1]
            forbidden[e].add(k)
            forbid_count[k] += 1
        frame[2] = pos + 1
        k = children[pos]
        nodes += 1
        if k == GIVE_UP:
            st.give_up(e)
        elif not all(st.fix(v, k) for v in st.edges[e]):
            continue
        obj_now = st.secured
        if obj_now > best_obj:
            best_obj = obj_now
            best_rows = st.materialize()
        if frame_bound <= best_obj:
            continue
        node_bound = min(frame_bound, st.bound(best_obj))
        if node_bound <= best_obj:
            continue
        child = new_frame(node_bound)
        if child:
            stack.append(child)

    upper = best_obj
    if result != OPTIMAL:
        # open: the frame the loop broke at and every frame with untried children
        upper = max(
            [best_obj, stack[-1][4]] + [f[4] for f in stack if f[2] < len(f[1])]
        )

    incumbent = KeyAssignment(best_rows)
    final = evaluate(inst, incumbent)
    if not final.feasible or final.objective != best_obj or best_obj > upper:
        return SolveResult(
            status=ERROR,
            incumbent=KeyAssignment.zeros(inst.graph.n, K),
            lower_bound=0,
            upper_bound=len(st.edges),
            gap=compute_gap(0, len(st.edges)),
            nodes=nodes,
            wall_time=time.perf_counter() - start,
        )
    return SolveResult(
        status=result,
        incumbent=incumbent,
        lower_bound=best_obj,
        upper_bound=upper,
        gap=compute_gap(best_obj, upper),
        nodes=nodes,
        wall_time=time.perf_counter() - start,
    )
