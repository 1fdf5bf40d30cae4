import json
import random

import pytest

from qkmp.analysis import (
    AssignmentReport,
    assignment_report,
    key_path_connected,
    naive_pairwise_key_count,
    secure_graph,
)
from qkmp.graph import DisconnectedGraphError, make_graph
from qkmp.instance import KeyAssignment, KmpInstance, evaluate
from qkmp.solver import greedy_heuristic

from helpers import indirect_link_scenario, isolated_node_scenario, random_small_instance


def path_graph(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


class TestSecureGraph:
    def test_indirect_link_keeps_two_of_three_edges(self):
        inst, a = indirect_link_scenario()
        sg = secure_graph(inst, a)
        # the 1-key overlap on (0,1) is below q=2, the 2-key overlaps survive
        assert set(sg.graph.edges) == {(0, 2), (1, 2)}
        assert sg.component == (0, 0, 0)
        assert sg.component_count == 1
        assert key_path_connected(sg)

    def test_isolated_node_splits_off(self):
        inst, a = isolated_node_scenario()
        sg = secure_graph(inst, a)
        assert set(sg.graph.edges) == {(0, 1), (0, 2), (1, 2)}
        assert sg.component == (0, 0, 0, 1)
        assert sg.component_count == 2
        assert not key_path_connected(sg)

    def test_component_labels_follow_smallest_vertex(self):
        g = path_graph(4)
        inst = KmpInstance.uniform(g, key_count=2, q=1, p=1.0, capacity=4.0, usage_limit=3)
        rows = [[0, 1], [0, 0], [1, 0], [1, 0]]
        sg = secure_graph(inst, KeyAssignment.from_rows(rows))
        assert set(sg.graph.edges) == {(2, 3)}
        assert sg.component == (0, 1, 2, 2)
        assert sg.component_count == 3

    def test_empty_assignment_isolates_everything(self):
        g = path_graph(4)
        inst = KmpInstance.uniform(g, key_count=2, q=1, p=1.0, capacity=4.0, usage_limit=3)
        sg = secure_graph(inst, KeyAssignment.zeros(4, 2))
        assert sg.graph.edge_count == 0
        assert sg.component == (0, 1, 2, 3)
        assert not key_path_connected(sg)

    def test_single_vertex_counts_as_connected(self):
        g = make_graph(1, [])
        inst = KmpInstance.uniform(g, key_count=1, q=1, p=1.0, capacity=1.0, usage_limit=1)
        sg = secure_graph(inst, KeyAssignment.zeros(1, 1))
        assert key_path_connected(sg)

    def test_edge_count_matches_evaluate_objective(self):
        # two routes to the same number: subgraph size vs the scored objective
        rng = random.Random(4242)
        for _ in range(30):
            inst = random_small_instance(rng)
            a = greedy_heuristic(inst, seed=rng.randint(0, 999))
            sg = secure_graph(inst, a)
            assert sg.graph.edge_count == evaluate(inst, a).objective


class TestNaiveBaseline:
    def test_spanning_tree_price_on_path(self):
        assert naive_pairwise_key_count(path_graph(20), q=2) == 38

    def test_single_edge(self):
        assert naive_pairwise_key_count(path_graph(2), q=1) == 1

    def test_no_tree_edge_without_two_vertices(self):
        for n in (0, 1):
            assert naive_pairwise_key_count(make_graph(n, []), q=2) == 0

    def test_scales_linearly_in_q(self):
        g = path_graph(5)
        for q in (1, 2, 3):
            assert naive_pairwise_key_count(g, q) == q * 4

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            naive_pairwise_key_count(path_graph(3), q=0)

    def test_rejects_disconnected_graph(self):
        with pytest.raises(DisconnectedGraphError):
            naive_pairwise_key_count(make_graph(3, [(0, 1)]), q=1)


class TestAssignmentReport:
    def test_isolated_node_report(self):
        inst, a = isolated_node_scenario()
        r = assignment_report(inst, a)
        assert r.feasible
        assert r.objective == 3
        assert r.key_usage == (2, 2, 2, 1)
        assert r.ring_sizes == (2, 2, 2, 1)
        assert r.memory_used == (2.0, 2.0, 2.0, 1.0)
        assert r.component_count == 2
        assert not r.key_path_connected
        assert r.key_pool_size == 4
        assert r.naive_key_count == 3
        assert r.additional_keys_needed == 0

    def test_indirect_link_report(self):
        inst, a = indirect_link_scenario()
        r = assignment_report(inst, a)
        assert r.feasible
        assert r.objective == 2
        assert r.key_usage == (0, 1, 0, 2, 2, 2, 2, 2)
        assert r.ring_sizes == (4, 3, 4)
        assert r.component_count == 1
        assert r.key_path_connected
        assert r.naive_key_count == 4

    def test_additional_keys_when_pool_is_short(self):
        # 1 pooled key cannot stand in for the 4 the naive scheme hands out
        g = path_graph(5)
        inst = KmpInstance.uniform(g, key_count=1, q=1, p=1.0, capacity=2.0, usage_limit=5)
        rows = [[1]] * 5
        r = assignment_report(inst, KeyAssignment.from_rows(rows))
        assert r.naive_key_count == 4
        assert r.additional_keys_needed == 3

    def test_infeasible_assignment_still_reported(self):
        g = path_graph(3)
        inst = KmpInstance.uniform(g, key_count=2, q=1, p=1.0, capacity=1.0, usage_limit=3)
        rows = [[1, 1], [1, 1], [1, 1]]
        r = assignment_report(inst, KeyAssignment.from_rows(rows))
        assert not r.feasible
        assert r.objective == 2
        assert r.ring_sizes == (2, 2, 2)

    def test_json_dict_round_trips(self):
        inst, a = isolated_node_scenario()
        d = assignment_report(inst, a).to_json_dict()
        assert set(d) == {
            "feasible",
            "objective",
            "key_usage",
            "ring_sizes",
            "memory_used",
            "component_count",
            "key_path_connected",
            "key_pool_size",
            "naive_key_count",
            "additional_keys_needed",
        }
        assert d == json.loads(json.dumps(d))
        assert d["key_usage"] == [2, 2, 2, 1]

    def test_format_text(self):
        inst, a = isolated_node_scenario()
        text = assignment_report(inst, a).format_text()
        assert text == (
            "feasible: yes\n"
            "secure edges: 3\n"
            "secure components: 2\n"
            "key path connected: no\n"
            "ring sizes: [2, 2, 2, 1]\n"
            "key usage: [2, 2, 2, 1]\n"
            "naive pairwise baseline: 3 keys (pool 4, extra 0)\n"
        )

    def test_fields_consistent_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(20):
            inst = random_small_instance(rng)
            a = greedy_heuristic(inst, seed=rng.randint(0, 999))
            r = assignment_report(inst, a)
            assert sum(r.key_usage) == sum(r.ring_sizes)
            assert r.component_count >= 1
            assert r.key_path_connected == (r.component_count == 1)
            assert r.naive_key_count == inst.q * (inst.graph.n - 1)
            assert r.additional_keys_needed == max(0, r.naive_key_count - inst.key_count)
            for i, used in enumerate(r.memory_used):
                assert used <= inst.capacity[i] + 1e-9
