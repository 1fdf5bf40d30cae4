import random

import pytest

from qkmp.graph import make_graph
from qkmp.instance import KeyAssignment, KmpInstance, evaluate
from qkmp.solver import (
    BRUTE_FORCE_LIMIT,
    FEASIBLE_TIMEOUT,
    OPTIMAL,
    InstanceTooLargeError,
    SolverConfig,
    brute_force,
    compute_gap,
    greedy_heuristic,
    solve_bb,
)

from helpers import random_small_instance

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

    def test_size_guard(self):
        g = make_graph(9, [(i, i + 1) for i in range(8)])
        inst = KmpInstance.uniform(g, key_count=3, q=1, p=1.0, capacity=3.0, usage_limit=3)
        assert g.n * 3 > BRUTE_FORCE_LIMIT
        with pytest.raises(InstanceTooLargeError):
            brute_force(inst)


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
            a = solve_bb(inst, cfg).to_json_dict(include_wall_time=False)
            b = solve_bb(inst, cfg).to_json_dict(include_wall_time=False)
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

    def test_result_json_shape(self):
        r = solve_bb(triangle_instance(), SolverConfig(time_limit=30))
        d = r.to_json_dict()
        assert set(d) == {"status", "objective", "bound", "gap", "nodes", "wall_time", "x"}
        assert d["x"] == [list(row) for row in r.incumbent.x]
        assert "wall_time" not in r.to_json_dict(include_wall_time=False)


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
