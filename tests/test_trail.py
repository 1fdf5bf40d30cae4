"""The incremental counters of the search state against from-scratch rescans.

Random fix / zero / mark / undo_to walks on small instances, with q = 1, 2
and 3 and with dyadic as well as non-dyadic memory weights. After every step
the co-holder counts, the secured-edge counter, the ring memory, the key
pair caps, the vertex budgets, the per-edge candidate key counts, the node
bound and the materialized rings must equal what a full rescan of the fixed
pattern gives. A conflicting fix must change no state, and undoing the
whole trail must give back a fresh state. After every fix, no undecided
cell may be left open that a usage or neighborhood row forbids, and no edge
the search gave up may be left one key short of q with a cell open that
would secure it. Walks of the heuristic's moves alone, ``can_hold`` /
``hold`` without ``fix``, must keep the same counters exact. Backing out to
a mark must give back the cached statuses, tallies and budgets of that mark
without a bound in between; a mark brings every stale one up to date
first, so none is stale at it. A key at its usage limit is closed: the
rescans read its undecided cells as zeros.
"""

import copy
import random

import pytest

from qkmp import solver
from qkmp.instance import KeyAssignment, KmpInstance, evaluate

from helpers import (
    DYADIC_MEMS,
    connected_random_graph,
    rescan_bound,
    rescan_edge_counts,
    rescan_key_pair_caps,
    rescan_nz,
    rescan_ring_mem,
    rescan_secured,
    rescan_vertex_budgets,
)

NON_DYADIC_MEMS = (0.1, 0.2, 0.3, 0.7)


def walk_instance(rng: random.Random, q: int, mems: tuple) -> KmpInstance:
    n = rng.randint(3, 7)
    key_count = rng.randint(1, 5)
    dyadic = mems is DYADIC_MEMS
    return KmpInstance(
        graph=connected_random_graph(rng, n, 0.6),
        key_count=key_count,
        q=q,
        p=rng.choice([0.3, 0.5, 1.0]),
        alpha=rng.randint(1, 2),
        mem_per_key=tuple(rng.choice(mems) for _ in range(key_count)),
        capacity=tuple(
            float(rng.randint(1, 4)) if dyadic else rng.choice((0.3, 0.5, 0.6, 1.0, 1.5))
            for _ in range(n)
        ),
        usage_limit=tuple(rng.randint(1, n) for _ in range(key_count)),
    )


STATE_FIELDS = (
    "val", "held", "usage", "mem", "cnt", "nz", "shared", "secured", "pair_count", "trail"
)


def snapshot(st) -> dict:
    return {name: copy.deepcopy(getattr(st, name)) for name in STATE_FIELDS}


def fix_or_zero(st, rng: random.Random, v: int, k: int, p_one: float) -> bool:
    """Fix the open cell (v, k) to 1 with probability ``p_one``, else to 0 as
    the propagator does; one draw either way."""
    if rng.random() < p_one:
        return st.fix(v, k)
    st._zero(v, k, 1)
    return True


def assert_matches_rescan(st, trail: bool = True) -> None:
    assert st.nz == rescan_nz(st)
    assert st.secured == rescan_secured(st)
    assert st.mem == [st.ring_mem(v) for v in range(st.n)]
    # ring_mem's held-byte rows sum the keys a scan of val finds, in the same order
    for v in range(st.n):
        assert st.ring_mem(v) == rescan_ring_mem(st, v)
        for k in range(st.K):
            assert st.ring_mem(v, k) == rescan_ring_mem(st, v, k)
    assert st.materialize() == tuple(
        tuple(int(s == 1) for s in row) for row in st.val
    )
    if trail:
        # the trail holds each decided cell exactly once, and nothing else
        decided = [
            (v, k) for v in range(st.n) for k in range(st.K) if st.val[v][k] != -1
        ]
        assert sorted(st.trail) == decided
    assert st.key_pair_caps() == rescan_key_pair_caps(st)
    assert st.vertex_budgets() == rescan_vertex_budgets(st)
    assert [c[1:] for c in st.edge_counts()] == rescan_edge_counts(st)
    assert st.bound() == rescan_bound(st)


CASES = [(q, mems) for q in (1, 2, 3) for mems in (DYADIC_MEMS, NON_DYADIC_MEMS)]
CASE_IDS = [f"q{q}-{'dyadic' if m is DYADIC_MEMS else 'nondyadic'}" for q, m in CASES]


@pytest.mark.parametrize("q,mems", CASES, ids=CASE_IDS)
def test_random_walks_match_rescan(q, mems):
    rng = random.Random(1000 * q + len(mems) + (mems is DYADIC_MEMS))
    conflicts = 0
    for _ in range(12):
        inst = walk_instance(rng, q, mems)
        st = solver._State(inst)
        assert_matches_rescan(st)
        root = st.mark()
        marks = []
        for _ in range(50):
            open_cells = [
                (v, k) for v in range(st.n) for k in range(st.K) if st.val[v][k] == -1
            ]
            if open_cells and (not marks or rng.random() < 0.6):
                marks.append(st.mark())
                v, k = rng.choice(open_cells)
                before = snapshot(st)
                ok = fix_or_zero(st, rng, v, k, 0.6)
                assert_matches_rescan(st)
                if not ok:
                    conflicts += 1
                    assert snapshot(st) == before
                    # the search backs out of a conflict to the frame's mark
                    st.undo_to(marks.pop())
            else:
                cut = rng.randrange(len(marks))
                st.undo_to(marks[cut])
                del marks[cut:]
            assert_matches_rescan(st)
        st.undo_to(root)
        assert_matches_rescan(st)
        assert snapshot(st) == snapshot(solver._State(inst))
    assert conflicts > 0


@pytest.mark.parametrize("q,mems", CASES, ids=CASE_IDS)
def test_greedy_leaves_counters_consistent(monkeypatch, q, mems):
    states = []

    class RecordingState(solver._State):
        def __init__(self, inst):
            super().__init__(inst)
            states.append(self)

    monkeypatch.setattr(solver, "_State", RecordingState)
    rng = random.Random(7 * q + len(mems))
    for _ in range(10):
        inst = walk_instance(rng, q, mems)
        a = solver.greedy_heuristic(inst, seed=rng.randint(0, 99))
        st = states[-1]
        report = evaluate(inst, a)
        assert report.feasible
        assert st.secured == rescan_secured(st) == report.objective
        assert st.nz == rescan_nz(st)
        # the cached bound parts after greedy's hold / take-back churn
        assert st.key_pair_caps() == rescan_key_pair_caps(st)
        assert st.vertex_budgets() == rescan_vertex_budgets(st)
        assert [c[1:] for c in st.edge_counts()] == rescan_edge_counts(st)
        assert st.bound() == rescan_bound(st)


@pytest.mark.parametrize("q,mems", CASES, ids=CASE_IDS)
def test_hold_walks_match_rescan(q, mems):
    """The heuristic's path: hold a key where ``can_hold`` allows it or take
    a held one back, with no ``fix``; ``hold`` alone keeps ring memory."""
    rng = random.Random(300 + 10 * q + (mems is DYADIC_MEMS))
    takebacks = 0
    for _ in range(12):
        inst = walk_instance(rng, q, mems)
        st = solver._State(inst)
        for _ in range(50):
            cells = [(v, k) for v in range(st.n) for k in range(st.K)]
            held = [(v, k) for v, k in cells if st.val[v][k] == 1]
            addable = [(v, k) for v, k in cells if st.val[v][k] == -1 and st.can_hold(v, k)]
            if addable and (not held or rng.random() < 0.6):
                st.hold(*rng.choice(addable), 1)
            elif held:
                takebacks += 1
                st.hold(*rng.choice(held), -1)
            else:
                break
            assert_matches_rescan(st, trail=False)
        assert st.trail == []
        assert evaluate(inst, KeyAssignment(st.materialize())).feasible
    assert takebacks > 0


def assert_propagated(st) -> None:
    """No undecided cell is left open that a usage or neighborhood row
    already forbids: fix closes those as soon as they arise. A key at its
    usage limit is closed as a whole, and none of its cells takes a 1."""
    for k in range(st.K):
        saturated = st.usage[k] >= st.inst.usage_limit[k]
        for u in range(st.n):
            if st.val[u][k] != -1:
                continue
            if saturated:
                before = snapshot(st)
                assert not st.can_hold(u, k)
                assert st.fix(u, k) is False
                assert snapshot(st) == before
                continue
            assert st.cnt[u][k] <= st.ncap[u]
            # a holder at its cap, whoever was fixed last, takes no more co-holders
            assert not any(
                st.val[w][k] == 1 and st.cnt[w][k] >= st.ncap[w] for w in st.adj[u]
            )


@pytest.mark.parametrize("q,mems", CASES, ids=CASE_IDS)
def test_fix_closes_every_cell_a_row_forbids(q, mems):
    rng = random.Random(500 + 10 * q + (mems is DYADIC_MEMS))
    for _ in range(12):
        inst = walk_instance(rng, q, mems)
        st = solver._State(inst)
        for _ in range(30):
            open_cells = [
                (v, k) for v in range(st.n) for k in range(st.K) if st.val[v][k] == -1
            ]
            if not open_cells:
                break
            v, k = rng.choice(open_cells)
            fix_or_zero(st, rng, v, k, 0.7)
            assert_propagated(st)


def assert_sealed(st) -> None:
    """A given-up edge stays below q shared keys, and once it is one short
    no undecided cell is left that would add a shared key to it, except of
    a key at its usage limit, which no cell may take."""
    q = st.inst.q
    for e, (i, j) in enumerate(st.edges):
        if not st.given_up[e]:
            continue
        assert st.shared[e] < q
        if st.shared[e] == q - 1:
            for k in range(st.K):
                if {st.val[i][k], st.val[j][k]} == {-1, 1}:
                    assert st.usage[k] >= st.inst.usage_limit[k]
                    assert not st.can_hold(j if st.val[i][k] == 1 else i, k)


@pytest.mark.parametrize("q,mems", CASES, ids=CASE_IDS)
def test_given_up_edges_stay_unsecured(q, mems):
    rng = random.Random(700 + 10 * q + (mems is DYADIC_MEMS))
    for _ in range(12):
        inst = walk_instance(rng, q, mems)
        st = solver._State(inst)
        marks = []  # (trail mark, edge given up at that mark or None)
        for _ in range(40):
            open_cells = [
                (v, k) for v in range(st.n) for k in range(st.K) if st.val[v][k] == -1
            ]
            open_edges = [
                e for e in range(len(st.edges)) if st.shared[e] < q and not st.given_up[e]
            ]
            roll = rng.random()
            if open_edges and roll < 0.25:
                e = rng.choice(open_edges)
                marks.append((st.mark(), e))
                st.give_up(e)
            elif open_cells and (not marks or roll < 0.7):
                marks.append((st.mark(), None))
                v, k = rng.choice(open_cells)
                if not fix_or_zero(st, rng, v, k, 0.7):
                    st.undo_to(marks.pop()[0])
            elif marks:
                # back out past the cut, as the search pops its frames
                cut = rng.randrange(len(marks))
                st.undo_to(marks[cut][0])
                for _, e in marks[cut:]:
                    if e is not None:
                        st.given_up[e] = False
                del marks[cut:]
            assert_sealed(st)
            assert_matches_rescan(st)


CACHE_FIELDS = ("status", "tally", "budgets", "budget_break")


def cache_snapshot(st) -> dict:
    return {name: copy.deepcopy(getattr(st, name)) for name in CACHE_FIELDS}


def bounded_walk(st, rng: random.Random, steps: int) -> None:
    """Fix or zero random open cells with a bound after each step, marking
    before each and now and then backing out to one of those marks."""
    marks = []
    for _ in range(steps):
        open_cells = [
            (v, k) for v in range(st.n) for k in range(st.K) if st.val[v][k] == -1
        ]
        if open_cells and (not marks or rng.random() < 0.7):
            marks.append(st.mark())
            fix_or_zero(st, rng, *rng.choice(open_cells), 0.6)
        elif marks:
            cut = rng.randrange(len(marks))
            st.undo_to(marks[cut])
            del marks[cut:]
        st.bound()


@pytest.mark.parametrize("q,mems", CASES, ids=CASE_IDS)
def test_undo_restores_the_bound_caches(q, mems):
    """Backing out to a mark taken right after a bound gives back the
    statuses, tallies, budgets and budget breaks of that bound, with no
    bound in between."""
    rng = random.Random(900 + 10 * q + (mems is DYADIC_MEMS))
    moved = 0
    for _ in range(12):
        inst = walk_instance(rng, q, mems)
        st = solver._State(inst)
        # a prefix on the trail first, so that the mark is not always 0
        for _ in range(rng.randint(0, 4)):
            open_cells = [
                (v, k) for v in range(st.n) for k in range(st.K) if st.val[v][k] == -1
            ]
            if open_cells:
                fix_or_zero(st, rng, *rng.choice(open_cells), 0.6)
        st.bound()
        mark = st.mark()
        before = cache_snapshot(st)
        bounded_walk(st, rng, 25)
        moved += cache_snapshot(st) != before
        st.undo_to(mark)
        assert cache_snapshot(st) == before
        assert_matches_rescan(st)
    assert moved > 0


@pytest.mark.parametrize("q,mems", CASES, ids=CASE_IDS)
def test_mark_taken_while_stale_brings_the_caches_up_to_date(q, mems):
    """Cells fixed after the last bound, or with no bound yet, leave stale
    statuses and budgets; a mark taken then recounts them first, so none is
    stale at it, and backing out to it gives back those exact values."""
    rng = random.Random(1100 + 10 * q + (mems is DYADIC_MEMS))
    for _ in range(12):
        inst = walk_instance(rng, q, mems)
        st = solver._State(inst)
        if rng.random() < 0.7:
            st.bound()
        for _ in range(rng.randint(1, 4)):
            open_cells = [
                (v, k) for v in range(st.n) for k in range(st.K) if st.val[v][k] == -1
            ]
            if open_cells:
                fix_or_zero(st, rng, *rng.choice(open_cells), 0.6)
        mark = st.mark()
        assert not (st.stale_cells or st.stale_count_keys or st.stale_vertices)
        assert st.vertex_budgets() == rescan_vertex_budgets(st)
        assert [c[1:] for c in st.edge_counts()] == rescan_edge_counts(st)
        at_mark = cache_snapshot(st)
        bounded_walk(st, rng, 25)
        st.undo_to(mark)
        assert cache_snapshot(st) == at_mark
        assert st.bound() == rescan_bound(st)
        assert_matches_rescan(st)
