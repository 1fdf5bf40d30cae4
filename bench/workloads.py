"""Workload definitions, input generation, the timed batch and its checks.

Every workload is a fixed list of items whose order the workload seed
shuffles. Search work is fixed by ``SolverConfig.node_limit`` with a
``time_limit`` far above it, so node counts, statuses, incumbents and bounds
repeat exactly and wall time is the only noisy quantity.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

# far above any batch; a solve that still stops on the clock is a failure
TIME_LIMIT = 1.0e6
# never reached by the oracle instances (n*K <= 15 cells, at most 2^16 nodes)
ORACLE_NODE_LIMIT = 1_000_000

PROGRAM_MODULES = ("graph", "instance", "ilp", "solver", "analysis", "harness")

# ROADMAP Open item 2: solve_bb returns ERROR with objective 0 here while
# brute_force finds 3 (the greedy capacity check sums memory in another order
# than evaluate). A fixed member of `verify`, so that the fix shows as a drop
# in failed operations.
ROADMAP_NONDYADIC = {
    "graph": {"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]},
    "key_count": 3,
    "q": 2,
    "p": 0.5,
    "alpha": 1,
    "mem_per_key": [0.3, 0.1, 0.2],
    "capacity": [0.6, 1.0, 0.6, 0.5, 0.4],
    "usage_limit": [5, 3, 2],
}

# (n, K, edges) of the seeded oracle instances. Shapes are fixed so that the
# 2^(n*K) enumeration cost, and with it wall time, does not depend on the seed.
ORACLE_SHAPES = (
    (4, 3, 5), (3, 4, 3), (6, 2, 8), (2, 6, 1),
    (4, 3, 4), (3, 4, 2), (5, 2, 6), (2, 5, 1),
)
ORACLE_MEMS = (0.1, 0.2, 0.3, 0.7, 0.5, 1.0)
ORACLE_CAPACITIES = (0.3, 0.4, 0.5, 0.6, 0.7, 1.0, 1.5)


@dataclass(frozen=True)
class Workload:
    why: str
    # builtin config id -> node budget of its solves (None: not solved)
    configs: dict
    per_config: int
    kind: str
    oracle_shapes: tuple = ()
    tiny_configs: dict = field(default_factory=dict)


WORKLOADS = {
    "plan-large": Workload(
        why=(
            "The plan-and-export path on n=50-100 instances that close at the root: "
            "warm start, root bound, validator, report and writers do all the work, "
            "tree search none."
        ),
        configs={"q1-9": 100, "q1-10": 100, "q1-12": 100},
        per_config=3,
        kind="plan",
        tiny_configs={"q1-9": 100},
    ),
    "prove-small": Workload(
        why=(
            "Deep trees of cheap n=10 nodes under one node budget, where tree size "
            "decides the solved share, the gap and the wall time."
        ),
        configs={"q1-3": 3000, "q1-4": 3000, "q2-1": 3000, "q2-2": 3000},
        per_config=4,
        kind="solve",
        tiny_configs={"q1-3": 200, "q2-1": 200},
    ),
    "grind-large": Workload(
        why=(
            "Few nodes that each cost about n*K on n=15-100 instances, with a node "
            "budget per config, where per-node bound cost sets the wall time."
        ),
        configs={"q1-5": 1200, "q1-13": 150, "q2-5": 2500, "q2-13": 800},
        per_config=1,
        kind="solve",
        tiny_configs={"q2-5": 100},
    ),
    "verify": Workload(
        why=(
            "The exhaustive oracle against solve_bb on tiny heterogeneous instances, "
            "plus MPS/LP write-and-read round trips of mid-size models: the only "
            "workload where evaluate and the ILP readers are the hot loops."
        ),
        configs={"q1-5": None, "q1-9": None, "q2-12": None},
        per_config=1,
        kind="verify",
        oracle_shapes=ORACLE_SHAPES,
        tiny_configs={"q1-5": None},
    ),
}


@dataclass
class Item:
    id: str
    kind: str  # "plan" | "solve" | "oracle" | "roundtrip"
    inst: object = None
    model: object = None
    node_limit: int = ORACLE_NODE_LIMIT


# --- program loading and input generation (the set-up phase) ---


def load_program() -> SimpleNamespace:
    """Import qkmp afresh, so that each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "qkmp" or m.startswith("qkmp.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"qkmp.{m}") for m in PROGRAM_MODULES}
    )


def _oracle_instance(prog, rng: random.Random, n: int, K: int, m: int):
    """Connected graph with exactly m edges and heterogeneous parameters."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # random spanning tree
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    edges.update(rng.sample(rest, m - len(edges)))
    return prog.instance.KmpInstance(
        graph=prog.graph.make_graph(n, sorted(edges)),
        key_count=K,
        q=rng.choice((1, 1, 2)),
        p=rng.choice((0.2, 0.3, 0.5, 1.0)),
        alpha=rng.randint(1, 2),
        mem_per_key=tuple(rng.choice(ORACLE_MEMS) for _ in range(K)),
        capacity=tuple(rng.choice(ORACLE_CAPACITIES) for _ in range(n)),
        usage_limit=tuple(rng.randint(1, n) for _ in range(K)),
    )


def instance_list(prog, name: str, tiny: bool) -> list[dict]:
    """The builtin-config instances of a workload: leading seeds of each config."""
    wl = WORKLOADS[name]
    configs = wl.tiny_configs if tiny else wl.configs
    count = 1 if tiny else wl.per_config
    out = []
    for config_id, budget in configs.items():
        base = prog.harness.get_config(config_id).base_seed
        for i in range(count):
            out.append({"config": config_id, "seed": base + i, "node_limit": budget})
    return out


def make_items(prog, tracer, name: str, seed: int, tiny: bool) -> list[Item]:
    """Generate every input of a workload from its seed; order is seeded too."""
    wl = WORKLOADS[name]
    rng = random.Random(f"qkmp-bench:{name}:{seed}")
    items = []
    for entry in instance_list(prog, name, tiny):
        cfg = prog.harness.get_config(entry["config"])
        inst = tracer.span("harness.build_instance", cfg.build_instance)(entry["seed"])
        item_id = f"{entry['config']}/{entry['seed']}"
        if wl.kind == "verify":
            model = tracer.span("ilp.build_ilp", prog.ilp.build_ilp)(inst)
            items.append(Item(item_id, "roundtrip", inst=inst, model=model))
        else:
            items.append(Item(item_id, wl.kind, inst=inst, node_limit=entry["node_limit"]))
    if wl.kind == "verify":
        shapes = wl.oracle_shapes[:2] if tiny else wl.oracle_shapes
        for idx, (n, K, m) in enumerate(shapes):
            inst = _oracle_instance(prog, rng, n, K, m)
            items.append(Item(f"oracle/{idx}", "oracle", inst=inst))
        known = prog.instance.KmpInstance.from_json_dict(ROADMAP_NONDYADIC)
        items.append(Item("roadmap-nondyadic", "oracle", inst=known))
    rng.shuffle(items)
    return items


# --- the timed batch: program calls only, no checking ---


def bind(prog, tracer) -> SimpleNamespace:
    """The public functions the batch calls, wrapped in spans when traced."""
    return SimpleNamespace(
        solve_bb=tracer.span("solver.solve_bb", prog.solver.solve_bb),
        brute_force=tracer.span("solver.brute_force", prog.solver.brute_force),
        evaluate=tracer.aggregate("instance.evaluate", prog.instance.evaluate),
        assignment_report=tracer.span(
            "analysis.assignment_report", prog.analysis.assignment_report
        ),
        build_ilp=tracer.span("ilp.build_ilp", prog.ilp.build_ilp),
        write_mps=tracer.span("ilp.write_mps", prog.ilp.write_mps),
        write_lp=tracer.span("ilp.write_lp", prog.ilp.write_lp),
        read_mps=tracer.span("ilp.read_mps", prog.ilp.read_mps),
        read_lp=tracer.span("ilp.read_lp", prog.ilp.read_lp),
    )


def _config(prog, item: Item):
    return prog.solver.SolverConfig(time_limit=TIME_LIMIT, node_limit=item.node_limit)


def _run_plan(prog, fns, item: Item, out: dict) -> None:
    res = out["solve"] = fns.solve_bb(item.inst, _config(prog, item))
    out["report"] = (
        fns.evaluate(item.inst, res.incumbent),
        fns.assignment_report(item.inst, res.incumbent),
    )
    model = fns.build_ilp(item.inst)
    out["export"] = (model.num_rows, model.num_variables, fns.write_mps(model), fns.write_lp(model))


def _run_solve(prog, fns, item: Item, out: dict) -> None:
    out["solve"] = fns.solve_bb(item.inst, _config(prog, item))


def _run_oracle(prog, fns, item: Item, out: dict) -> None:
    out["brute_force"] = fns.brute_force(item.inst)
    out["solve"] = fns.solve_bb(item.inst, _config(prog, item))


def _run_roundtrip(prog, fns, item: Item, out: dict) -> None:
    text = fns.write_mps(item.model)
    out["mps"] = (text, fns.read_mps(text))
    text = fns.write_lp(item.model)
    out["lp"] = (text, fns.read_lp(text))


RUNNERS = {
    "plan": _run_plan,
    "solve": _run_solve,
    "oracle": _run_oracle,
    "roundtrip": _run_roundtrip,
}

# operations each item kind counts toward `attempted`
OPS = {
    "plan": ("solve", "report", "export"),
    "solve": ("solve",),
    "oracle": ("oracle",),
    "roundtrip": ("mps", "lp"),
}


def run_batch(prog, tracer, items: list[Item]) -> tuple[list[dict], list[float]]:
    """Outputs and wall time of every item, in batch order."""
    fns = bind(prog, tracer)
    outputs, walls = [], []
    for item in items:
        tracer.instance = item.id
        out: dict = {}
        t0 = perf_counter()
        try:
            RUNNERS[item.kind](prog, fns, item, out)
        except Exception as exc:  # one failed operation must not abort the run
            out["exception"] = repr(exc)
        walls.append(perf_counter() - t0)
        outputs.append(out)
    tracer.instance = None
    return outputs, walls


# --- checks, run after the timer stops ---


@dataclass
class Op:
    """One checked operation: exact fields for the determinism check, failures."""

    item: str
    op: str
    exact: tuple = ()
    failures: list = field(default_factory=list)
    solve: object = None  # the solve_bb result this operation produced, if any


def _check_solve(prog, item: Item, res) -> list[str]:
    S = prog.solver
    bad = []
    if res.status == S.ERROR:
        bad.append(f"status ERROR (objective {res.lower_bound}, bound {res.upper_bound})")
    elif res.status not in (S.OPTIMAL, S.FEASIBLE_TIMEOUT):
        bad.append(f"unknown status {res.status!r}")
    report = prog.instance.evaluate(item.inst, res.incumbent)
    if not report.feasible:
        bad.append(f"incumbent infeasible: {report.violations[:3]}")
    if report.objective != res.lower_bound:
        bad.append(f"evaluate gives {report.objective}, solve_bb reports {res.lower_bound}")
    if res.upper_bound < res.lower_bound:
        bad.append(f"bound {res.upper_bound} < objective {res.lower_bound}")
    if res.status == S.OPTIMAL and res.upper_bound != res.lower_bound:
        bad.append(f"OPTIMAL with bound {res.upper_bound} != objective {res.lower_bound}")
    if res.status == S.FEASIBLE_TIMEOUT and res.nodes < item.node_limit:
        bad.append(f"stopped on the clock at {res.nodes} < {item.node_limit} nodes")
    return bad


def _solve_exact(res) -> tuple:
    return (res.status, res.lower_bound, res.upper_bound, res.gap, res.nodes)


def _expected_export(inst) -> tuple[int, int, int, int]:
    """Rows, variables and line counts of the MPS and LP texts of build_ilp(inst)."""
    n, K, E = inst.graph.n, inst.key_count, inst.graph.edge_count
    rows = n + E + n * K + 3 * E * K + K
    variables = n * K + E + E * K
    nonzeros = (
        E  # objective
        + n * K  # capacity
        + E * (K + 1)  # link
        + 2 * E * K  # neighborhood (each y sits in two rows)
        + 7 * E * K  # envelope
        + n * K  # usage
    )
    mps_lines = 9 + 2 * rows + nonzeros + variables
    lp_lines = 6 + rows + variables
    return rows, variables, mps_lines, lp_lines


def check_item(prog, item: Item, out: dict) -> list[Op]:
    ops = {name: Op(item.id, name) for name in OPS[item.kind]}
    res = out.get("solve")
    if item.kind in ("plan", "solve") and res is not None:
        ops["solve"].solve = res
        ops["solve"].exact = _solve_exact(res)
        ops["solve"].failures += _check_solve(prog, item, res)
    if "report" in out:
        ev, rep = out["report"]
        ring_total = sum(map(sum, res.incumbent.x))
        ops["report"].exact = (ev.objective, rep.objective, rep.component_count)
        if ev.objective != res.lower_bound or rep.objective != res.lower_bound:
            ops["report"].failures.append(
                f"evaluate {ev.objective} / report {rep.objective} != solve {res.lower_bound}"
            )
        if ev.feasible != rep.feasible:
            ops["report"].failures.append("evaluate and assignment_report disagree on feasibility")
        if sum(rep.key_usage) != ring_total or sum(rep.ring_sizes) != ring_total:
            ops["report"].failures.append("report key usage does not match the incumbent")
    if "export" in out:
        rows, variables, mps, lp = out["export"]
        got = (rows, variables, mps.count("\n"), lp.count("\n"))
        want = _expected_export(item.inst)
        ops["export"].exact = (rows, len(mps) + len(lp))
        if got != want:
            ops["export"].failures.append(f"export shape {got} != expected {want}")
    if "brute_force" in out and res is not None:
        bf = out["brute_force"]
        op = ops["oracle"]
        op.solve = res
        op.exact = _solve_exact(res) + (bf.lower_bound, bf.nodes)
        op.failures += _check_solve(prog, item, res)
        bf_report = prog.instance.evaluate(item.inst, bf.incumbent)
        if not bf_report.feasible or bf_report.objective != bf.lower_bound:
            op.failures.append("brute_force incumbent does not validate")
        if res.status != prog.solver.OPTIMAL or res.lower_bound != bf.lower_bound:
            op.failures.append(
                f"oracle mismatch: solve_bb {res.status} objective {res.lower_bound}, "
                f"brute_force {bf.lower_bound}"
            )
    for fmt, write in (("mps", prog.ilp.write_mps), ("lp", prog.ilp.write_lp)):
        if fmt in out:
            text, back = out[fmt]
            ops[fmt].exact = (item.model.num_rows, len(text))
            if back != item.model:
                ops[fmt].failures.append(f"{fmt} round trip changed the model")
            elif write(back) != text:
                ops[fmt].failures.append(f"{fmt} round trip is not byte-stable")
    for op in ops.values():
        if not op.exact and not op.failures:
            op.failures.append(out.get("exception", "not reached after an earlier failure"))
    return list(ops.values())
