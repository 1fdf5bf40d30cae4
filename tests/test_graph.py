import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkmp.graph import (
    CONNECTIVITY_RETRY_LIMIT,
    Graph,
    UnsatisfiableDensityError,
    density,
    generate_er,
    is_connected,
    make_graph,
)

# Conditional mean edge count of G(10, 0.2) given connectivity, estimated
# by an independent rejection sampler over 10^5 draws (Random(20260821)).
# Connectivity conditioning pulls the unconditional mean 9.0 up to ~11.94.
CONDITIONAL_MEAN_EDGES = 11.93838


def test_make_graph_basic():
    g = make_graph(3, [(0, 1), (2, 1)])
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.neighbors(1) == {0, 2}
    assert g.degree(1) == 2
    assert g.degree(0) == 1


def test_make_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])


def test_make_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 1), (1, 0)])


def test_make_graph_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 2)])


@pytest.mark.parametrize(
    "n,edges,expected",
    [
        (1, [], 0.0),
        (0, [], 0.0),
        (2, [(0, 1)], 1.0),
        (4, [(0, 1), (1, 2), (2, 3)], 0.5),
    ],
)
def test_density(n, edges, expected):
    assert density(make_graph(n, edges)) == expected


def test_is_connected_examples():
    assert is_connected(make_graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(make_graph(2, []))
    assert is_connected(make_graph(1, []))
    # pendant edge removed, vertex 3 stranded
    assert not is_connected(make_graph(4, [(0, 1), (0, 2), (1, 2)]))


class TestGenerateEr:
    def test_singleton(self):
        g = generate_er(1, 0.5, seed=7)
        assert g.n == 1 and g.edges == ()
        assert is_connected(g)

    def test_forced_complete_pair(self):
        g = generate_er(2, 1.0, seed=1)
        assert g.edges == ((0, 1),)

    def test_density_one_is_complete(self):
        g = generate_er(6, 1.0, seed=3)
        assert len(g.edges) == 15

    def test_zero_density_unsatisfiable(self):
        with pytest.raises(UnsatisfiableDensityError):
            generate_er(2, 0.0, seed=1)

    def test_determinism(self):
        a = generate_er(12, 0.3, seed=99)
        b = generate_er(12, 0.3, seed=99)
        assert a == b
        c = generate_er(12, 0.3, seed=100)
        assert a != c  # overwhelmingly likely for distinct seeds

    def test_retry_cap_is_finite(self):
        assert CONNECTIVITY_RETRY_LIMIT == 10_000

    def test_samples_connected_and_simple(self):
        for seed in range(40):
            g = generate_er(9, 0.25, seed=seed)
            assert is_connected(g)
            assert all(i < j for i, j in g.edges)
            assert len(set(g.edges)) == len(g.edges)

    def test_conditional_mean_edge_count(self):
        """Average over seeds 1..1000 must sit near the rejection-sampling
        estimate of E[|E|] for G(10, 0.2) conditioned on connectivity."""
        total = sum(len(generate_er(10, 0.2, seed).edges) for seed in range(1, 1001))
        mean = total / 1000
        assert abs(mean - CONDITIONAL_MEAN_EDGES) <= 0.15 * CONDITIONAL_MEAN_EDGES


def test_graph_json_round_trip():
    g = make_graph(5, [(0, 3), (1, 2), (3, 4)])
    assert Graph.from_json_dict(g.to_json_dict()) == g


@pytest.mark.parametrize(
    "data",
    [
        {"n": 3.7, "edges": [[0, 1], [1, 2]]},
        {"n": 3, "edges": [[0, 1.5], [1, 2]]},
        {"n": 3, "edges": [[0, "1"], [1, 2]]},
        {"n": True, "edges": []},
        {"n": 3, "edges": 5},
        {"n": 3, "edges": [0, 1]},
        {"n": 3},
        {"edges": []},
    ],
)
def test_graph_json_refuses_what_is_not_whole_numbers(data):
    with pytest.raises(ValueError):
        Graph.from_json_dict(data)


def test_graph_json_reads_whole_number_floats():
    g = Graph.from_json_dict({"n": 3.0, "edges": [[0.0, 1.0], [1, 2]]})
    assert g == make_graph(3, [(0, 1), (1, 2)])
    assert type(g.n) is int
    assert all(type(v) is int for e in g.edges for v in e)


def test_graph_json_sorted_edges():
    g = make_graph(4, [(3, 2), (1, 0)])
    assert g.to_json_dict() == {"n": 4, "edges": [[0, 1], [2, 3]]}


@settings(deadline=None, derandomize=True, max_examples=60)
@given(n=st.integers(2, 10), d=st.floats(0.15, 1.0), seed=st.integers(0, 10**6))
def test_generated_graphs_satisfy_invariants(n, d, seed):
    g = generate_er(n, d, seed)
    assert g.n == n
    assert is_connected(g)
    for i, j in g.edges:
        assert 0 <= i < j < n
        assert j in g.neighbors(i) and i in g.neighbors(j)
    assert sum(g.degree(v) for v in range(n)) == 2 * len(g.edges)
