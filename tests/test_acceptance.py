"""End-to-end acceptance gate.

Each test prints one machine-greppable verdict line on the real stdout so
the suite's capture settings cannot swallow it:

    [ACCEPTANCE] <label>: PASS|FAIL

The checks deliberately pit independent code paths against each other
(native search vs exhaustive enumeration, quadratic scoring vs linearized
model enumeration) rather than re-deriving a number the same way twice.
"""

import contextlib
import json
import random
import sys
import time

from qkmp import ilp
from qkmp.analysis import key_path_connected, naive_pairwise_key_count, secure_graph
from qkmp.graph import generate_er, make_graph
from qkmp.harness import desk_scale, get_config
from qkmp.instance import derive_z, evaluate, shared_keys
from qkmp.solver import OPTIMAL, SolverConfig, brute_force, solve_bb

from helpers import (
    indirect_link_scenario,
    isolated_node_scenario,
    linear_optimum_by_x_enumeration,
    quadratic_optimum,
    random_battery_instance,
    random_small_instance,
)

ORACLE_TRIALS = 200
ORACLE_SEED = 613
ORACLE_BUDGET_SECONDS = 600.0

BATTERY_TRIALS = 60
BATTERY_SEED = 1729

EXPORT_TRIALS = 20
EXPORT_SEED = 2718


@contextlib.contextmanager
def verdict(label, cap):
    """Print the verdict on the real stdout, past any capture in force."""
    ok = False
    try:
        yield
        ok = True
    finally:
        with cap.disabled():
            sys.stdout.write(f"[ACCEPTANCE] {label}: {'PASS' if ok else 'FAIL'}\n")
            sys.stdout.flush()


def solve_json(inst, seed):
    """Canonical bytes for one solve, wall time stripped."""
    out = solve_bb(inst, SolverConfig(time_limit=300.0, seed=seed)).to_json_dict()
    del out["wall_time"]
    return json.dumps(out, sort_keys=True)


def oracle_battery():
    rng = random.Random(ORACLE_SEED)
    return [random_small_instance(rng) for _ in range(ORACLE_TRIALS)]


def desk_battery():
    cfg = desk_scale(get_config("q1-1"))
    return [
        (cfg.base_seed + i, cfg.build_instance(cfg.base_seed + i))
        for i in range(cfg.instance_count)
    ]


def test_exact_solver_matches_exhaustive_oracle(capfd):
    with verdict("oracle-equivalence", capfd):
        start = time.perf_counter()
        for inst in oracle_battery():
            fast = solve_bb(inst, SolverConfig(time_limit=300.0))
            slow = brute_force(inst)
            assert fast.status == OPTIMAL
            assert fast.lower_bound == slow.lower_bound
            assert fast.upper_bound == fast.lower_bound
            report = evaluate(inst, fast.incumbent)
            assert report.feasible and report.objective == fast.lower_bound
        assert time.perf_counter() - start < ORACLE_BUDGET_SECONDS


def test_linearization_preserves_the_optimum(capfd):
    with verdict("linearization-equivalence", capfd):
        rng = random.Random(BATTERY_SEED)
        for _ in range(BATTERY_TRIALS):
            inst = random_battery_instance(rng)
            assert inst.graph.n * inst.key_count <= 9
            assert linear_optimum_by_x_enumeration(inst) == quadratic_optimum(inst)


def test_indirect_links_ride_on_intermediate_nodes(capfd):
    with verdict("indirect-path-semantics", capfd):
        inst, a = indirect_link_scenario()
        assert shared_keys(a, 0, 1) == 1
        assert shared_keys(a, 0, 2) == 2
        assert shared_keys(a, 1, 2) == 2
        z = derive_z(inst, a)
        assert z[(0, 1)] == 0
        assert z[(0, 2)] == 1
        assert z[(1, 2)] == 1
        sg = secure_graph(inst, a)
        assert key_path_connected(sg)
        assert sg.component_count == 1


def test_keyless_neighbor_becomes_isolated(capfd):
    with verdict("isolated-node-semantics", capfd):
        inst, a = isolated_node_scenario()
        z = derive_z(inst, a)
        assert z[(1, 3)] == 0
        sg = secure_graph(inst, a)
        assert sg.graph.degree(3) == 0
        assert not key_path_connected(sg)
        assert sg.component_count == 2
        assert sg.component[3] != sg.component[1]


def test_naive_baseline_prices_a_20_node_network(capfd):
    with verdict("naive-baseline-count", capfd):
        path = make_graph(20, [(i, i + 1) for i in range(19)])
        assert naive_pairwise_key_count(path, q=2) == 38 == 2 * (20 - 1)
        er = generate_er(20, 0.2, seed=5)
        assert naive_pairwise_key_count(er, q=2) == 38


def test_smallest_protocol_row_solves_at_desk_scale(capfd):
    with verdict("desk-scale-config-1", capfd):
        for seed, inst in desk_battery():
            r = solve_bb(inst, SolverConfig(time_limit=300.0, seed=seed))
            assert r.status == OPTIMAL
            assert r.wall_time < 300.0
            report = evaluate(inst, r.incumbent)
            assert report.feasible
            assert report.objective == r.lower_bound
            assert r.lower_bound <= inst.graph.edge_count


def test_identical_seeds_reproduce_identical_results(capfd):
    with verdict("determinism", capfd):
        # the exhaustive-oracle battery, solved twice from scratch
        first = [solve_json(inst, seed=0) for inst in oracle_battery()]
        second = [solve_json(inst, seed=0) for inst in oracle_battery()]
        assert first == second
        # the desk-scale battery, regenerated and solved twice from scratch
        desk_a = [solve_json(inst, seed) for seed, inst in desk_battery()]
        desk_b = [solve_json(inst, seed) for seed, inst in desk_battery()]
        assert desk_a == desk_b


def test_model_export_round_trips_and_is_stable(capfd):
    with verdict("export-round-trip", capfd):
        rng_a = random.Random(EXPORT_SEED)
        rng_b = random.Random(EXPORT_SEED)
        for _ in range(EXPORT_TRIALS):
            inst = random_battery_instance(rng_a)
            model = ilp.build_ilp(inst)
            mps = ilp.write_mps(model)
            lp = ilp.write_lp(model)
            assert ilp.read_mps(mps) == model
            assert ilp.read_lp(lp) == model
            # an independent generate-and-build pass lands on the same bytes
            again = ilp.build_ilp(random_battery_instance(rng_b))
            assert ilp.write_mps(again) == mps
            assert ilp.write_lp(again) == lp
