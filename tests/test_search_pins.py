"""Pinned search and heuristic results and the non-dyadic capacity regressions.

The search pins were recorded when the search began to branch on edges, and
the greedy pins before the heuristic moved onto the search state's own
can_hold / hold. A change that claims to leave the search or the
heuristic alone must leave them alone too: status, objective, bound, node
count and the incumbent's bytes stay fixed under a node budget, and so do the
bytes of every greedy restart.
"""

import hashlib
import json

import pytest

from qkmp import solver
from qkmp.harness import get_config
from qkmp.instance import KeyAssignment, KmpInstance, evaluate
from qkmp.solver import OPTIMAL, SolverConfig, brute_force, greedy_heuristic, solve_bb

# (config, seed, node_limit, (status, lower_bound, upper_bound, nodes), incumbent digest)
PINS = [
    ("q1-4", 10400, 2000, ("OPTIMAL", 16, 16, 53), "b5370e00eba626b7"),
    ("q2-2", 20200, 2000, ("FEASIBLE_TIMEOUT", 14, 15, 2000), "d119f4271bb3dd12"),
    ("q2-5", 20500, 300, ("FEASIBLE_TIMEOUT", 22, 27, 300), "94bfb12e32f37f39"),
    ("q1-5", 10500, 1200, ("FEASIBLE_TIMEOUT", 27, 30, 1200), "14005d0d1b866533"),
    ("q2-13", 21300, 40, ("FEASIBLE_TIMEOUT", 73, 91, 40), "3ef2bfe15e92e077"),
]

# the heaviest grind-large item at its node budget, and prove-small items at
# theirs, two of them proved only since the search branches on edges
BENCH_PINS = [
    ("q1-13", 11300, 150, ("FEASIBLE_TIMEOUT", 230, 240, 150), "fb6b8a9639cf0f76"),
    ("q1-3", 10300, 3000, ("OPTIMAL", 17, 17, 110), "bd2645d5c3d753c2"),
    ("q2-1", 20100, 3000, ("OPTIMAL", 12, 12, 335), "2898da2cee209808"),
    ("q1-4", 10401, 3000, ("OPTIMAL", 26, 26, 946), "0cc5bb49dd97b2f1"),
    ("q2-2", 20201, 3000, ("OPTIMAL", 18, 18, 1469), "41e4b2b5a964fb37"),
]
SEARCH_PINS = PINS + BENCH_PINS
# the config alone names the first pin of each config, config/seed the others
SEARCH_PIN_IDS: list[str] = []
for pin_config, pin_seed, *_ in SEARCH_PINS:
    SEARCH_PIN_IDS.append(
        f"{pin_config}/{pin_seed}" if pin_config in SEARCH_PIN_IDS else pin_config
    )

# incumbent digest of greedy_heuristic(inst, seed) for seeds 0..7, per PINS instance
GREEDY_PINS = {
    "q1-4": ("ef46cf3927589af8", "a5718942e3149df2", "a539f7487d3ecb1a", "d9aba0ca9c5e941c",
             "8ef476cbbefbf163", "0699325da465af8e", "afac174065d0f9fd", "93a2c1f6b694b3b5"),
    "q2-2": ("bf2265ba039469b7", "ab5324fb88a5aca4", "623e9cf2a4e9a921", "e5082f9a6290e987",
             "e5d4398ec5c57c49", "a2175ef39456a48e", "f2801e52f5a1a71a", "cc052e91bdd03b4f"),
    "q2-5": ("94bfb12e32f37f39", "6cb57c41c03f63ca", "28bef2199109c3da", "5cf6f4e773629055",
             "a87612c42b971ea5", "4a21042325649fc0", "76ff9ece352739eb", "3b08d60358110381"),
    "q1-5": ("14005d0d1b866533", "9a9ce7e6cee39219", "db099dfb9d7573ae", "4b65b948d746503d",
             "1c71ede061a8e543", "f58530419d00be16", "b86851f79fbc4bd4", "c7cbeb97d5d71088"),
    "q2-13": ("3ef2bfe15e92e077", "7941e46fd14dcdeb", "0ea2e812e23b8e6c", "ce3f9f76c766bb67",
              "c60501d0fe3d4d08", "5232c5c219c801d5", "91e6fe1199a42b1d", "239260ea36e8a660"),
}

# greedy used to check capacity as ring_mem(v) + mem_k while evaluate sums
# in key-index order: vertex 0 then held 0.6000000000000001 against 0.6
NON_DYADIC = {
    "graph": {"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]},
    "key_count": 3,
    "q": 2,
    "p": 0.5,
    "alpha": 1,
    "mem_per_key": [0.3, 0.1, 0.2],
    "capacity": [0.6, 1.0, 0.6, 0.5, 0.4],
    "usage_limit": [5, 3, 2],
}

# 0.7 - 0.2 is 0.49999999999999994, so the capacity prune and the vertex
# budgets used to rule key 1 (0.5) out at vertex 2 once it held key 0, although
# 0.2 + 0.5 <= 0.7 validates; solve_bb then reported OPTIMAL 1
NON_DYADIC_TRIANGLE = {
    "graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
    "key_count": 2,
    "q": 1,
    "p": 1.0,
    "alpha": 1,
    "mem_per_key": [0.2, 0.5],
    "capacity": [0.6, 0.6, 0.7],
    "usage_limit": [2, 2],
}


def digest(x) -> str:
    return hashlib.sha256(json.dumps(x).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "config,seed,node_limit,expected,incumbent_digest", SEARCH_PINS, ids=SEARCH_PIN_IDS
)
def test_search_is_pinned(config, seed, node_limit, expected, incumbent_digest):
    inst = get_config(config).build_instance(seed)
    r = solve_bb(inst, SolverConfig(node_limit=node_limit))
    assert (r.status, r.lower_bound, r.upper_bound, r.nodes) == expected
    assert digest(r.incumbent.x) == incumbent_digest


@pytest.mark.parametrize("config,seed", [p[:2] for p in PINS], ids=[p[0] for p in PINS])
def test_greedy_is_pinned(config, seed):
    inst = get_config(config).build_instance(seed)
    got = tuple(digest(greedy_heuristic(inst, s).x) for s in range(8))
    assert got == GREEDY_PINS[config]


def test_non_dyadic_instance_solves_to_oracle_optimum():
    inst = KmpInstance.from_json_dict(NON_DYADIC)
    r = solve_bb(inst)
    assert r.status == OPTIMAL
    assert r.lower_bound == r.upper_bound == brute_force(inst).lower_bound == 3
    report = evaluate(inst, r.incumbent)
    assert report.feasible and report.objective == 3


def test_non_dyadic_triangle_keeps_a_key_that_fits():
    inst = KmpInstance.from_json_dict(NON_DYADIC_TRIANGLE)
    r = solve_bb(inst)
    assert r.status == OPTIMAL
    assert r.lower_bound == r.upper_bound == brute_force(inst).lower_bound == 2
    report = evaluate(inst, r.incumbent)
    assert report.feasible and report.objective == 2


@pytest.mark.parametrize("seed", range(solver.GREEDY_RESTARTS))
def test_non_dyadic_greedy_validates(seed):
    inst = KmpInstance.from_json_dict(NON_DYADIC)
    assert evaluate(inst, greedy_heuristic(inst, seed)).feasible


def test_infeasible_warm_start_is_dropped(monkeypatch):
    inst = KmpInstance.from_json_dict(NON_DYADIC)
    every_key = KeyAssignment.from_rows([[1] * inst.key_count] * inst.graph.n)
    assert not evaluate(inst, every_key).feasible
    monkeypatch.setattr(solver, "greedy_heuristic", lambda inst, seed: every_key)
    r = solve_bb(inst)
    assert r.status == OPTIMAL and r.lower_bound == 3
    assert evaluate(inst, r.incumbent).feasible
