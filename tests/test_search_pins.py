"""Pinned search results and the non-dyadic capacity regression.

The pins were recorded before the node bound and the objective were made
incremental. Those changes must leave the search itself alone, so status,
objective, bound, node count and the incumbent's bytes stay fixed under a
node budget.
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
    ("q1-4", 10400, 2000, ("FEASIBLE_TIMEOUT", 14, 16, 2000), "ef46cf3927589af8"),
    ("q2-2", 20200, 2000, ("FEASIBLE_TIMEOUT", 12, 15, 2000), "bf2265ba039469b7"),
    ("q2-5", 20500, 300, ("FEASIBLE_TIMEOUT", 22, 27, 300), "94bfb12e32f37f39"),
    ("q1-5", 10500, 1200, ("FEASIBLE_TIMEOUT", 27, 30, 1200), "14005d0d1b866533"),
    ("q2-13", 21300, 40, ("FEASIBLE_TIMEOUT", 73, 91, 40), "3ef2bfe15e92e077"),
]

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


@pytest.mark.parametrize("config,seed,node_limit,expected,digest", PINS, ids=[p[0] for p in PINS])
def test_search_is_pinned(config, seed, node_limit, expected, digest):
    inst = get_config(config).build_instance(seed)
    r = solve_bb(inst, SolverConfig(node_limit=node_limit))
    assert (r.status, r.lower_bound, r.upper_bound, r.nodes) == expected
    assert hashlib.sha256(json.dumps(r.incumbent.x).encode()).hexdigest()[:16] == digest


def test_non_dyadic_instance_solves_to_oracle_optimum():
    inst = KmpInstance.from_json_dict(NON_DYADIC)
    r = solve_bb(inst)
    assert r.status == OPTIMAL
    assert r.lower_bound == r.upper_bound == brute_force(inst).lower_bound == 3
    report = evaluate(inst, r.incumbent)
    assert report.feasible and report.objective == 3


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
