import random
import time
from types import SimpleNamespace

import pytest

from qkmp import solver
from qkmp.graph import make_graph
from qkmp.harness import get_config
from qkmp.instance import KeyAssignment, KmpInstance, evaluate
from qkmp.solver import (
    BRUTE_FORCE_LIMIT,
    FEASIBLE_TIMEOUT,
    GREEDY_RESTARTS,
    OPTIMAL,
    InstanceTooLargeError,
    SolverConfig,
    brute_force,
    compute_gap,
    greedy_heuristic,
    solve_bb,
)

from helpers import (
    NON_DYADIC_MEMS,
    WIDE_NON_DYADIC_CAPACITIES,
    WIDE_NON_DYADIC_MEMS,
    connected_random_graph,
    random_non_dyadic_instance,
    random_small_instance,
    reference_brute_force,
)

TRIANGLE = make_graph(3, [(0, 1), (0, 2), (1, 2)])
PATH3 = make_graph(3, [(0, 1), (1, 2)])


def path_instance():
    # center vertex can hold one key and share it with both ends
    return KmpInstance(
        graph=PATH3,
        key_count=2,
        q=1,
        p=1.0,
        alpha=1,
        mem_per_key=(1.0, 1.0),
        capacity=(1.0, 1.0, 1.0),
        usage_limit=(3, 3),
    )


def triangle_instance():
    return KmpInstance.uniform(TRIANGLE, key_count=1, q=1, p=1.0, capacity=1.0, usage_limit=3)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.time_limit == 3600.0
        assert cfg.node_limit is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time_limit": 0.0},
            {"time_limit": -5.0},
            {"node_limit": -3},
            {"node_limit": 0},
            {"time_limit": float("nan")},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestBruteForce:
    def test_path_optimum(self):
        r = brute_force(path_instance())
        assert r.status == OPTIMAL
        assert r.lower_bound == r.upper_bound == 2
        assert r.nodes == 1 << 6

    def test_triangle_optimum(self):
        r = brute_force(triangle_instance())
        assert r.lower_bound == 3

    def test_all_zero_optimum(self):
        # capacity below every key weight forces the empty assignment
        inst = KmpInstance.uniform(
            PATH3, key_count=2, q=1, p=1.0, capacity=0.5, usage_limit=3, mem=1.0
        )
        r = brute_force(inst)
        assert r.lower_bound == 0
        assert r.incumbent == KeyAssignment.zeros(3, 2)

    def test_incumbent_feasible(self):
        rng = random.Random(5)
        for _ in range(5):
            inst = random_small_instance(rng)
            r = brute_force(inst)
            report = evaluate(inst, r.incumbent)
            assert report.feasible and report.objective == r.lower_bound

    def test_matches_reference_enumeration(self):
        """The Gray-code walk returns exactly what scoring every code in
        order with evaluate() returns, tie-break included."""
        for inst in reference_battery():
            fast, slow = brute_force(inst), reference_brute_force(inst)
            assert oracle_view(fast) == oracle_view(slow), inst.to_json_dict()

    def test_size_guard(self):
        g = make_graph(9, [(i, i + 1) for i in range(8)])
        inst = KmpInstance.uniform(g, key_count=3, q=1, p=1.0, capacity=3.0, usage_limit=3)
        assert g.n * 3 > BRUTE_FORCE_LIMIT
        with pytest.raises(InstanceTooLargeError):
            brute_force(inst)


def random_run_instance(rng: random.Random) -> KmpInstance:
    """n*K <= 16 with K up to 8 keys in runs of equal weight and limit."""
    K = rng.randint(2, 8)
    n = rng.randint(2, max(2, 16 // K))
    mems, limits = [], []
    while len(mems) < K:
        run = rng.randint(1, 4)
        mems += [rng.choice((0.1, 0.2, 0.5, 1.0))] * run
        limits += [rng.randint(1, n)] * run
    return KmpInstance(
        graph=connected_random_graph(rng, n, 0.7),
        key_count=K,
        q=rng.choice([1, 1, 2, 3]),
        p=rng.choice([0.3, 0.5, 1.0]),
        alpha=rng.randint(1, 2),
        mem_per_key=tuple(mems[:K]),
        capacity=tuple(rng.choice((0.3, 0.6, 1.0, 2.0, 3.0)) for _ in range(n)),
        usage_limit=tuple(limits[:K]),
    )


def oracle_view(r):
    return (r.status, r.lower_bound, r.upper_bound, r.gap, r.nodes, r.incumbent)


def reference_battery():
    """Seeded instances with n*K <= 10, cheap enough for the reference oracle."""
    cases = [
        # every capacity below every key weight: the optimum is all zeros
        KmpInstance(
            graph=PATH3,
            key_count=3,
            q=1,
            p=1.0,
            alpha=1,
            mem_per_key=(0.5, 0.7, 1.0),
            capacity=(0.3, 0.4, 0.2),
            usage_limit=(3, 3, 3),
        ),
        # a lone vertex has no edge to secure
        KmpInstance(
            graph=make_graph(1, []),
            key_count=4,
            q=1,
            p=0.0,
            alpha=1,
            mem_per_key=(0.1, 0.2, 0.5, 0.2),
            capacity=(0.6,),
            usage_limit=(1, 1, 1, 1),
        ),
        # q = 3 secured on one edge by a non-dyadic ring that only just fits
        KmpInstance(
            graph=make_graph(2, [(0, 1)]),
            key_count=4,
            q=3,
            p=0.0,
            alpha=1,
            mem_per_key=(0.1, 0.2, 0.5, 0.2),
            capacity=(0.6, 0.7),
            usage_limit=(2, 2, 2, 2),
        ),
        KmpInstance.uniform(TRIANGLE, key_count=3, q=3, p=1.0, capacity=3.0, usage_limit=3),
    ]
    rng = random.Random(4242)
    mems = (NON_DYADIC_MEMS, (0.3, 0.7), (0.5, 1.0, 2.0), (1, 2))
    for _ in range(150):
        n = rng.randint(2, 5)
        K = rng.randint(1, 10 // n)
        weights = rng.choice(mems)
        cases.append(
            KmpInstance(
                graph=connected_random_graph(rng, n, rng.choice([0.5, 1.0])),
                key_count=K,
                q=rng.choice([1, 1, 2, 3]),
                p=rng.choice([0.0, 0.3, 0.5, 1.0]),
                alpha=rng.randint(1, 2),
                mem_per_key=tuple(rng.choice(weights) for _ in range(K)),
                capacity=tuple(rng.choice([0.2, 0.7, 1.0, 2.0, 4.0]) for _ in range(n)),
                usage_limit=tuple(rng.randint(1, n) for _ in range(K)),
            )
        )
    return cases


class TestSolveBb:
    def test_single_edge_q2_unsatisfiable(self):
        g = make_graph(2, [(0, 1)])
        inst = KmpInstance.uniform(g, key_count=1, q=2, p=1.0, capacity=5.0, usage_limit=3)
        r = solve_bb(inst, SolverConfig(time_limit=30))
        assert r.status == OPTIMAL and r.lower_bound == 0

    def test_path_optimum(self):
        r = solve_bb(path_instance(), SolverConfig(time_limit=30))
        assert r.status == OPTIMAL
        assert r.lower_bound == 2
        assert r.gap == 0.0

    def test_triangle_optimum(self):
        r = solve_bb(triangle_instance(), SolverConfig(time_limit=30))
        assert r.status == OPTIMAL and r.lower_bound == 3

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(20260821)
        for _ in range(60):
            inst = random_small_instance(rng)
            fast = solve_bb(inst, SolverConfig(time_limit=60))
            slow = brute_force(inst)
            assert fast.status == OPTIMAL
            assert fast.lower_bound == slow.lower_bound
            assert fast.upper_bound == fast.lower_bound
            report = evaluate(inst, fast.incumbent)
            assert report.feasible and report.objective == fast.lower_bound

    def test_matches_brute_force_on_non_dyadic_instances(self):
        """Memory weights whose float sums round: the search's capacity
        arithmetic must agree with evaluate() on every instance."""
        rng = random.Random(5)
        for _ in range(400):
            inst = random_non_dyadic_instance(rng)
            fast = solve_bb(inst, SolverConfig(time_limit=60))
            slow = brute_force(inst)
            assert fast.status == OPTIMAL, inst.to_json_dict()
            assert fast.upper_bound == fast.lower_bound == slow.lower_bound, inst.to_json_dict()
            report = evaluate(inst, fast.incumbent)
            assert report.feasible and report.objective == fast.lower_bound

    def test_matches_brute_force_on_wide_non_dyadic_instances(self):
        """The weights the benchmark's oracle draws, with capacities tight
        enough that rings of one key and of two or three compete."""
        rng = random.Random(6)
        for _ in range(400):
            inst = random_non_dyadic_instance(
                rng, WIDE_NON_DYADIC_MEMS, WIDE_NON_DYADIC_CAPACITIES
            )
            fast = solve_bb(inst, SolverConfig(time_limit=60))
            slow = brute_force(inst)
            assert fast.status == OPTIMAL, inst.to_json_dict()
            assert fast.upper_bound == fast.lower_bound == slow.lower_bound, inst.to_json_dict()
            report = evaluate(inst, fast.incumbent)
            assert report.feasible and report.objective == fast.lower_bound

    def test_matches_brute_force_with_interchangeable_keys(self):
        """Runs of adjacent keys with equal weight and usage limit, up to
        eight keys: the search tries one unused key per run."""
        rng = random.Random(909)
        for _ in range(120):
            inst = random_run_instance(rng)
            fast = solve_bb(inst, SolverConfig(time_limit=60))
            slow = brute_force(inst)
            assert fast.status == OPTIMAL, inst.to_json_dict()
            assert fast.upper_bound == fast.lower_bound == slow.lower_bound, inst.to_json_dict()
            report = evaluate(inst, fast.incumbent)
            assert report.feasible and report.objective == fast.lower_bound

    def test_equal_keys_apart_are_not_interchangeable(self):
        """Keys 1 and 3 weigh 0.1 each, but the key-index order sums tell
        them apart: a vertex with capacity 0.6 that holds keys 0 and 2 fits
        key 3 (0.2 + 0.3 + 0.1 == 0.6) and not key 1 (0.2 + 0.1 + 0.3 ==
        0.6000000000000001). Only the triangle's optimum uses key 3 there."""
        inst = KmpInstance(
            graph=TRIANGLE,
            key_count=4,
            q=2,
            p=1.0,
            alpha=1,
            mem_per_key=(0.2, 0.1, 0.3, 0.1),
            capacity=(0.6, 0.4, 1.0),
            usage_limit=(3, 2, 3, 2),
        )
        r = solve_bb(inst)
        assert r.status == OPTIMAL
        assert r.lower_bound == r.upper_bound == brute_force(inst).lower_bound == 3
        assert evaluate(inst, r.incumbent).objective == 3

    def test_given_up_edges_stay_given_up(self):
        """One key on a dense 13-vertex graph: the search proves the optimum
        only because a given-up edge may not be secured later. Left to the
        bound alone, it ran 265k nodes in 20 s without a proof."""
        edges = [
            (0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (0, 8), (0, 9), (0, 10), (0, 11),
            (0, 12), (1, 2), (1, 4), (1, 6), (1, 9), (1, 10), (1, 11), (1, 12), (2, 3),
            (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (2, 10), (2, 11), (2, 12), (3, 4),
            (3, 5), (3, 6), (3, 9), (3, 10), (3, 11), (3, 12), (4, 5), (4, 7), (4, 8),
            (4, 9), (4, 11), (4, 12), (5, 7), (5, 8), (5, 9), (5, 10), (5, 11), (5, 12),
            (6, 7), (6, 8), (6, 9), (6, 10), (6, 11), (6, 12), (7, 8), (7, 9), (7, 10),
            (7, 11), (7, 12), (8, 9), (8, 11), (9, 11), (10, 12),
        ]
        inst = KmpInstance(
            graph=make_graph(13, edges),
            key_count=1,
            q=1,
            p=0.5,
            alpha=1,
            mem_per_key=(0.2,),
            capacity=(3.0, 1.5, 1.0, 3.0, 0.3, 1.0, 0.3, 2.0, 2.0, 2.0, 2.0, 0.5, 3.0),
            usage_limit=(9,),
        )
        r = solve_bb(inst, SolverConfig(node_limit=20000))
        assert r.status == OPTIMAL
        assert r.lower_bound == brute_force(inst).lower_bound == 22

    @pytest.mark.parametrize("seed", [10500, 10501])
    def test_timed_out_bound_stays_below_the_root_bound(self, seed):
        """Every frame's bound is capped by its parent's, so a timed-out
        solve never reports an upper bound above the root bound."""
        inst = get_config("q1-5").build_instance(seed)
        root_bound = solver._State(inst).bound()
        r = solve_bb(inst, SolverConfig(node_limit=200))
        assert r.status == FEASIBLE_TIMEOUT
        assert r.lower_bound <= r.upper_bound <= root_bound

    def test_heterogeneous_key_classes(self):
        """Keys with equal weight but different usage limits must not be
        treated as interchangeable by any symmetry shortcut."""
        inst = KmpInstance(
            graph=TRIANGLE,
            key_count=3,
            q=2,
            p=1.0,
            alpha=1,
            mem_per_key=(0.5, 1.0, 1.0),
            capacity=(2.0, 2.0, 2.0),
            usage_limit=(2, 2, 3),
        )
        assert solve_bb(inst, SolverConfig(time_limit=30)).lower_bound == brute_force(inst).lower_bound

    def test_determinism(self):
        rng = random.Random(77)
        for _ in range(10):
            inst = random_small_instance(rng)
            cfg = SolverConfig(time_limit=30, seed=3)
            a = solve_bb(inst, cfg).to_json_dict()
            b = solve_bb(inst, cfg).to_json_dict()
            del a["wall_time"], b["wall_time"]
            assert a == b

    def test_anytime_soundness_under_node_limit(self):
        # a chorded cycle that does not close at the root
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
        inst = KmpInstance.uniform(g, key_count=3, q=2, p=0.4, capacity=3.0, usage_limit=3)
        r = solve_bb(inst, SolverConfig(time_limit=600, node_limit=3))
        assert r.status == FEASIBLE_TIMEOUT
        assert r.nodes <= 3
        assert r.lower_bound <= r.upper_bound
        report = evaluate(inst, r.incumbent)
        assert report.feasible
        assert report.objective == r.lower_bound
        assert r.gap == compute_gap(r.lower_bound, r.upper_bound) > 0
        # and the bound never undercuts the true optimum
        assert r.upper_bound >= brute_force(inst).lower_bound

    def test_time_limit_covers_the_warm_start(self, monkeypatch):
        calls = []

        def slow_greedy(inst, seed):
            calls.append(seed)
            time.sleep(0.02)
            return KeyAssignment.zeros(inst.graph.n, inst.key_count)

        monkeypatch.setattr(solver, "greedy_heuristic", slow_greedy)
        solve_bb(path_instance(), SolverConfig(time_limit=0.01))
        assert len(calls) == 1
        calls.clear()
        solve_bb(path_instance())
        assert len(calls) == GREEDY_RESTARTS

    def test_restarts_stop_at_the_root_bound(self, monkeypatch):
        calls = []
        real_greedy = solver.greedy_heuristic

        def counted_greedy(inst, seed):
            calls.append(seed)
            return real_greedy(inst, seed)

        monkeypatch.setattr(solver, "greedy_heuristic", counted_greedy)
        # the first restart already secures both edges, the root bound
        r = solve_bb(path_instance())
        assert calls == [0]
        assert (r.status, r.lower_bound, r.upper_bound, r.nodes) == (OPTIMAL, 2, 2, 0)
        # here greedy secures 14 edges against a root bound of 16, so every
        # restart runs
        calls.clear()
        r = solve_bb(get_config("q1-4").build_instance(10400), SolverConfig(node_limit=1))
        assert calls == list(range(GREEDY_RESTARTS))
        assert r.lower_bound == 14 and r.upper_bound == 16

    def test_clock_is_read_at_every_node(self, monkeypatch):
        """A solve stops at the first node after the clock passes the limit."""
        reads = []

        def perf_counter():
            # frozen for the first 20 reads, then far past the limit
            reads.append(None)
            return 0.0 if len(reads) <= 20 else 100.0

        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=perf_counter))
        inst = get_config("q1-4").build_instance(10400)
        # the node limit only stops a solve whose clock checks are missing
        r = solve_bb(inst, SolverConfig(time_limit=1.0, node_limit=1000))
        assert r.status == FEASIBLE_TIMEOUT
        # every node costs a clock read first, so at most 20 ran
        assert 0 < r.nodes <= 20
        assert evaluate(inst, r.incumbent).objective == r.lower_bound <= r.upper_bound

    def test_result_json_shape(self):
        r = solve_bb(triangle_instance(), SolverConfig(time_limit=30))
        d = r.to_json_dict()
        assert set(d) == {"status", "objective", "bound", "gap", "nodes", "wall_time", "x"}
        assert d["x"] == [list(row) for row in r.incumbent.x]


class TestGreedyHeuristic:
    def test_always_feasible_and_below_optimum(self):
        rng = random.Random(11)
        for _ in range(25):
            inst = random_small_instance(rng)
            a = greedy_heuristic(inst, seed=rng.randint(0, 999))
            report = evaluate(inst, a)
            assert report.feasible
            assert report.objective <= brute_force(inst).lower_bound

    def test_empty_capacity_yields_zeros(self):
        inst = KmpInstance.uniform(
            PATH3, key_count=2, q=1, p=1.0, capacity=0.25, usage_limit=3, mem=1.0
        )
        assert greedy_heuristic(inst, seed=0) == KeyAssignment.zeros(3, 2)

    def test_triangle_reaches_optimum(self):
        a = greedy_heuristic(triangle_instance(), seed=0)
        assert evaluate(triangle_instance(), a).objective == 3

    def test_path_within_bounds(self):
        a = greedy_heuristic(path_instance(), seed=0)
        obj = evaluate(path_instance(), a).objective
        assert 1 <= obj <= 2


def test_compute_gap_conventions():
    assert compute_gap(5, 5) == 0.0
    assert compute_gap(0, 0) == 0.0
    assert compute_gap(3, 4) == 0.25
    # tiny upper bounds are clamped so the gap stays finite
    assert compute_gap(0, 1) == 1.0
