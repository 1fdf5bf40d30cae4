import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkmp.graph import make_graph
from qkmp.instance import (
    CAPACITY,
    GLOBAL_USE,
    NEIGHBORHOOD_USE,
    KeyAssignment,
    KmpInstance,
    Violation,
    derive_z,
    evaluate,
    shared_keys,
)
from qkmp.solver import OPTIMAL, greedy_heuristic, solve_bb

from helpers import connected_random_graph, indirect_link_scenario, reference_evaluate

TRIANGLE = make_graph(3, [(0, 1), (0, 2), (1, 2)])
PATH3 = make_graph(3, [(0, 1), (1, 2)])


def simple_instance(graph=TRIANGLE, **overrides):
    params = dict(
        graph=graph,
        key_count=2,
        q=1,
        p=0.5,
        alpha=1,
        mem_per_key=(1.0, 1.0),
        capacity=(2.0,) * graph.n,
        usage_limit=(3, 3),
    )
    params.update(overrides)
    return KmpInstance(**params)


class TestInstanceValidation:
    def test_accepts_valid(self):
        inst = simple_instance()
        assert inst.n == 3
        assert inst.key_count == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"q": 0},
            {"p": -0.1},
            {"p": 1.5},
            {"alpha": 0},
            {"mem_per_key": (1.0, 0.0)},
            {"mem_per_key": (1.0,)},
            {"capacity": (2.0, 2.0)},
            {"capacity": (2.0, 2.0, 0.0)},
            {"usage_limit": (3, 0)},
            {"usage_limit": (3,)},
            {"capacity": (float("nan"), 2.0, 2.0)},
            {"mem_per_key": (1.0, float("nan"))},
            {"mem_per_key": (1.0, float("inf"))},
        ],
    )
    def test_rejects_bad_parameters(self, overrides):
        with pytest.raises(ValueError):
            simple_instance(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"usage_limit": (2.5, 3)},
            {"usage_limit": 3},
            {"q": 1.5},
            {"q": True},
            {"alpha": 1.5},
            {"p": "0.5"},
            {"mem_per_key": ("1", 1.0)},
            {"capacity": (None, 2.0, 2.0)},
        ],
    )
    def test_rejects_inputs_that_are_not_whole_numbers_or_numbers(self, overrides):
        with pytest.raises(ValueError):
            simple_instance(**overrides)

    def test_whole_number_floats_become_ints(self):
        inst = simple_instance(key_count=2.0, q=1.0, alpha=1.0, usage_limit=(3.0, 2.0))
        assert [type(v) for v in (inst.key_count, inst.q, inst.alpha)] == [int] * 3
        assert inst.usage_limit == (3, 2)
        assert all(type(t) is int for t in inst.usage_limit)
        assert solve_bb(inst).status == OPTIMAL
        assert KmpInstance.from_json_dict(inst.to_json_dict()) == inst

    @pytest.mark.parametrize("missing", ["graph", "q", "usage_limit"])
    def test_json_without_a_field_is_refused(self, missing):
        data = simple_instance().to_json_dict()
        del data[missing]
        with pytest.raises(ValueError, match=missing):
            KmpInstance.from_json_dict(data)

    def test_rejects_disconnected_graph(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            simple_instance(graph=g, capacity=(2.0,) * 4)

    def test_neighborhood_cap_is_exact_float(self):
        inst = simple_instance(graph=PATH3, p=0.3, capacity=(2.0, 2.0, 2.0))
        # middle vertex has degree 2: 0.3 * 2 + 1
        assert inst.neighborhood_cap(1) == 0.3 * 2 + 1
        assert inst.neighborhood_cap(0) == 0.3 * 1 + 1

    def test_uniform_constructor(self):
        inst = KmpInstance.uniform(TRIANGLE, key_count=4, q=2, p=0.4, capacity=5.0, usage_limit=3)
        assert inst.mem_per_key == (1,) * 4
        assert inst.capacity == (5.0,) * 3
        assert inst.usage_limit == (3,) * 4
        assert inst.alpha == 1

    def test_json_round_trip(self):
        inst = simple_instance(p=0.3, mem_per_key=(0.5, 2.0))
        again = KmpInstance.from_json_dict(inst.to_json_dict())
        assert again == inst


class TestKeyAssignment:
    def test_zeros_and_rings(self):
        a = KeyAssignment.zeros(3, 2)
        assert a.n == 3 and a.key_count == 2
        assert a.key_ring(0) == frozenset()

    def test_from_rows_and_ring(self):
        a = KeyAssignment.from_rows([[1, 0, 1], [0, 0, 0]])
        assert a.key_ring(0) == {0, 2}
        assert a.key_ring(1) == frozenset()

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            KeyAssignment.from_rows([[0, 2]])

    @pytest.mark.parametrize("rows", [[[0.5, 1.9]], [[0, True]], [[0, "1"]], [5]])
    def test_rejects_entries_that_are_not_whole_numbers(self, rows):
        with pytest.raises(ValueError):
            KeyAssignment.from_json_dict({"x": rows})

    def test_whole_number_float_entries_are_read(self):
        a = KeyAssignment.from_json_dict({"x": [[1.0, 0.0], [0, 1]]})
        assert a == KeyAssignment.from_rows([[1, 0], [0, 1]])
        assert all(type(v) is int for row in a.x for v in row)

    @pytest.mark.parametrize("data", [{}, {"y": [[0]]}])
    def test_json_without_x_is_refused(self, data):
        with pytest.raises(ValueError, match="x"):
            KeyAssignment.from_json_dict(data)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            KeyAssignment.from_rows([[0, 1], [1]])

    def test_json_round_trip(self):
        a = KeyAssignment.from_rows([[1, 0], [0, 1], [1, 1]])
        assert KeyAssignment.from_json_dict(a.to_json_dict()) == a


class TestSharedKeys:
    def test_identical_rings(self):
        a = KeyAssignment.from_rows([[1, 1, 1, 0], [1, 1, 1, 0]])
        assert shared_keys(a, 0, 1) == 3

    def test_disjoint_rings(self):
        a = KeyAssignment.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
        assert shared_keys(a, 0, 1) == 0

    def test_partial_overlap(self):
        _, a = indirect_link_scenario()
        assert shared_keys(a, 0, 1) == 1
        assert shared_keys(a, 0, 2) == 2
        assert shared_keys(a, 1, 2) == 2

    def test_out_of_range(self):
        a = KeyAssignment.zeros(2, 1)
        with pytest.raises(IndexError):
            shared_keys(a, 0, 5)

    def test_same_vertex(self):
        a = KeyAssignment.zeros(2, 1)
        with pytest.raises(ValueError):
            shared_keys(a, 1, 1)


class TestDeriveZ:
    def test_threshold_behavior(self):
        inst, a = indirect_link_scenario()
        z = derive_z(inst, a)
        # one common key is not enough under q=2
        assert z == {(0, 1): 0, (0, 2): 1, (1, 2): 1}

    def test_lower_q_relaxes(self):
        inst, a = indirect_link_scenario()
        relaxed = KmpInstance(
            graph=inst.graph,
            key_count=inst.key_count,
            q=1,
            p=inst.p,
            alpha=inst.alpha,
            mem_per_key=inst.mem_per_key,
            capacity=inst.capacity,
            usage_limit=inst.usage_limit,
        )
        assert derive_z(relaxed, a) == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_dimension_mismatch(self):
        inst = simple_instance()
        with pytest.raises(ValueError):
            derive_z(inst, KeyAssignment.zeros(2, 2))


class TestEvaluate:
    def test_zero_assignment_feasible(self):
        inst = simple_instance()
        report = evaluate(inst, KeyAssignment.zeros(3, 2))
        assert report.feasible
        assert report.objective == 0
        assert report.violations == ()

    def test_capacity_violation(self):
        inst = simple_instance(mem_per_key=(1.5, 1.0))
        a = KeyAssignment.from_rows([[1, 1], [0, 0], [0, 0]])
        report = evaluate(inst, a)
        assert not report.feasible
        v = report.violations[0]
        assert v.constraint == CAPACITY and v.index == (0,)
        assert v.lhs == 2.5 and v.rhs == 2.0

    def test_global_use_violation(self):
        # key 0 on all three vertices of the triangle, limit 2
        inst = simple_instance(usage_limit=(2, 3))
        a = KeyAssignment.from_rows([[1, 0], [1, 0], [1, 0]])
        report = evaluate(inst, a)
        kinds = [v.constraint for v in report.violations]
        assert kinds == [GLOBAL_USE]
        assert report.violations[0] == (GLOBAL_USE, (0,), 3, 2)
        # objective is still scored for infeasible assignments
        assert report.objective == 3

    def test_neighborhood_violation_uses_fractional_rhs(self):
        # center of the path shares key 0 with both neighbors: 2 > 0.3*2 + 1
        inst = simple_instance(graph=PATH3, p=0.3)
        a = KeyAssignment.from_rows([[1, 0], [1, 0], [1, 0]])
        report = evaluate(inst, a)
        nv = [v for v in report.violations if v.constraint == NEIGHBORHOOD_USE]
        assert nv == [(NEIGHBORHOOD_USE, (1, 0), 2, 0.3 * 2 + 1)]

    def test_boundary_is_feasible(self):
        # exactly one shared neighbor per vertex stays within 0.3*deg + 1
        inst = simple_instance(graph=PATH3, p=0.3)
        a = KeyAssignment.from_rows([[1, 0], [1, 0], [0, 0]])
        assert evaluate(inst, a).feasible

    def test_violation_order_is_deterministic(self):
        inst = simple_instance(
            graph=PATH3, mem_per_key=(3.0, 3.0), usage_limit=(1, 1), p=0.0
        )
        a = KeyAssignment.from_rows([[1, 1], [1, 1], [1, 1]])
        violations = evaluate(inst, a).violations
        kinds = [v.constraint for v in violations]
        # capacity rows first (by vertex), then neighborhood (vertex, key), then
        # usage; with p=0 only the degree-2 center exceeds 0*deg + 1
        assert kinds == [CAPACITY] * 3 + [NEIGHBORHOOD_USE] * 2 + [GLOBAL_USE] * 2
        assert [v.index for v in violations[3:5]] == [(1, 0), (1, 1)]


@settings(deadline=None, derandomize=True, max_examples=80)
@given(seed=st.integers(0, 10**6))
def test_objective_matches_set_intersections(seed):
    """The reported objective equals the count of edges whose key-ring
    intersection reaches q, computed here with plain set algebra."""
    rng = random.Random(seed)
    g = connected_random_graph(rng, rng.randint(2, 6), 0.6)
    K = rng.randint(1, 4)
    inst = KmpInstance.uniform(
        g, key_count=K, q=rng.choice([1, 2]), p=0.5, capacity=float(K), usage_limit=g.n
    )
    rows = [[rng.randint(0, 1) for _ in range(K)] for _ in range(g.n)]
    a = KeyAssignment.from_rows(rows)
    rings = [{k for k in range(K) if rows[i][k]} for i in range(g.n)]
    expected = sum(1 for i, j in g.edges if len(rings[i] & rings[j]) >= inst.q)
    report = evaluate(inst, a)
    assert report.objective == expected
    assert report.feasible == (len(report.violations) == 0)


def reference_violations(inst, a) -> tuple:
    """evaluate's violations with every neighborhood cell checked, held or not."""
    g, x, K = inst.graph, a.x, inst.key_count
    out = []
    for i in range(g.n):
        lhs = sum(inst.mem_per_key[k] * x[i][k] for k in range(K))
        if lhs > inst.capacity[i]:
            out.append(Violation(CAPACITY, (i,), lhs, inst.capacity[i]))
    for i in range(g.n):
        rhs = inst.neighborhood_cap(i)
        for k in range(K):
            lhs = sum(x[i][k] * x[j][k] for j in g.adjacency[i])
            if lhs > rhs:
                out.append(Violation(NEIGHBORHOOD_USE, (i, k), lhs, rhs))
    for k in range(K):
        lhs = sum(x[i][k] for i in range(g.n))
        if lhs > inst.usage_limit[k]:
            out.append(Violation(GLOBAL_USE, (k,), lhs, inst.usage_limit[k]))
    return tuple(out)


def test_violations_match_full_cell_reference():
    """Skipping unheld cells in the neighborhood check leaves the violations
    tuple, order included, as a check of every cell gives it."""
    rng = random.Random(2024)
    feasible = infeasible = neighborhood = 0
    for _ in range(300):
        g = connected_random_graph(rng, rng.randint(2, 7), 0.6)
        K = rng.randint(1, 5)
        inst = KmpInstance(
            graph=g,
            key_count=K,
            q=rng.randint(1, 2),
            p=rng.choice([0.0, 0.2, 0.5, 1.0]),
            alpha=rng.randint(1, 2),
            mem_per_key=tuple(rng.choice((0.1, 0.2, 0.5, 1.0)) for _ in range(K)),
            capacity=tuple(rng.choice((0.3, 0.7, 1.0, 2.0, 5.0)) for _ in range(g.n)),
            usage_limit=tuple(rng.randint(1, g.n) for _ in range(K)),
        )
        density = rng.choice((0.1, 0.3, 0.6, 0.9))
        a = KeyAssignment.from_rows(
            [[int(rng.random() < density) for _ in range(K)] for _ in range(g.n)]
        )
        report = evaluate(inst, a)
        assert report.violations == reference_violations(inst, a)
        assert report.feasible == (not report.violations)
        feasible += report.feasible
        infeasible += not report.feasible
        neighborhood += any(v.constraint == NEIGHBORHOOD_USE for v in report.violations)
    assert feasible >= 30 and infeasible >= 30 and neighborhood >= 30


@pytest.mark.parametrize("weights", ["int", "float", "mixed"])
def test_evaluate_matches_the_cell_reference(weights):
    """The ring sets, column sums and set intersections give the report the
    matrix formulation gives: the same violations in the same order, each
    lhs of the same type, and the same objective."""
    rng = random.Random({"int": 31, "float": 32, "mixed": 33}[weights])
    pools = {"int": (1, 2, 3), "float": (0.1, 0.2, 0.3, 0.7, 1.5), "mixed": (1, 2, 0.1, 0.5, 1.5)}
    feasible = infeasible = 0
    for _ in range(150):
        g = connected_random_graph(rng, rng.randint(2, 8), 0.5)
        K = rng.randint(1, 6)
        inst = KmpInstance(
            graph=g,
            key_count=K,
            q=rng.randint(1, 3),
            p=rng.choice([0.0, 0.3, 1.0]),
            alpha=rng.randint(1, 2),
            mem_per_key=tuple(rng.choice(pools[weights]) for _ in range(K)),
            capacity=tuple(rng.choice((0.7, 1, 2, 2.5, 4)) for _ in range(g.n)),
            usage_limit=tuple(rng.randint(1, g.n) for _ in range(K)),
        )
        density = rng.choice((0.2, 0.5, 0.9))
        random_rows = [[int(rng.random() < density) for _ in range(K)] for _ in range(g.n)]
        for a in (KeyAssignment.from_rows(random_rows), greedy_heuristic(inst, rng.randint(0, 7))):
            report, expected = evaluate(inst, a), reference_evaluate(inst, a)
            assert report == expected
            assert [type(v.lhs) for v in report.violations] == [
                type(v.lhs) for v in expected.violations
            ]
            assert type(report.objective) is int
            feasible += report.feasible
            infeasible += not report.feasible
    assert feasible >= 150 and infeasible >= 50
