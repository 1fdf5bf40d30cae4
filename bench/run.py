"""qkmp benchmark: time to a certified optimum, quality at a fixed node budget,
and cost per module.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 bench/run.py --workload plan-large --seed 1 --seconds 30 --trace 0

Workloads: plan-large, prove-small, grind-large, verify (see workloads.py for
each one's instances, node budgets and reason). One process, no pool and no
threads. Set-up (a fresh import of qkmp plus generating every input) is
repeated SETUP_REPEATS times and its median reported. The timed batch is
then repeated until ``--seconds`` are used, at least MIN_REPS times, and its
median wall time reported. Outputs are checked after each batch, outside
the timed region; every failed check counts as a failed operation.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced batches, with spans around every call into the package
and around the globals that solve_bb, brute_force, assignment_report and
build_instance look up, and prints the per-layer metrics.

Exact counters (statuses, objectives, bounds, gaps, node counts, row and
byte counts) must repeat in every batch of a run, and across runs of the
same source on the same inputs: each run stores a fingerprint of them under
``.bench_out/fingerprints``. Any difference is a failed operation and makes
``correct`` false. The last stdout line is the JSON result; the full report
(provenance, instance lists, per-operation results, failures, spans) is
written to ``.bench_out/<workload>-seed<seed>-trace<t>.json``.

Self-test (every workload on a tiny input emits every declared metric):

    python3 -m unittest bench/test_smoke.py
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads as wl

SETUP_REPEATS = 7
MIN_REPS = 3  # batches of an untraced run
MIN_TRACE_REPS = 2  # untraced and traced batches, each, of a traced run
OUT_DIR = Path(".bench_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "certified_ratio_mean": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "graph.generate_er.calls": "count",
    "graph.generate_er.busy_s": "s",
    "harness.build_instance.busy_s": "s",
    "instance.evaluate.calls": "count",
    "instance.evaluate.busy_s": "s",
    "solver.solve_bb.calls": "count",
    "solver.solve_bb.busy_s": "s",
    "solver.warm_start.calls": "count",
    "solver.warm_start.busy_s": "s",
    "solver.search.self_s": "s",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.root_close_frac": "ratio",
    "solver.objective_sum": "count",
    "solver.bound_sum": "count",
    "solver.brute_force.calls": "count",
    "solver.brute_force.busy_s": "s",
    "solver.brute_force.points": "count",
    "solver.brute_force.points_per_s": "1/s",
    "ilp.build_ilp.busy_s": "s",
    "ilp.write_mps.busy_s": "s",
    "ilp.write_lp.busy_s": "s",
    "ilp.read_mps.busy_s": "s",
    "ilp.read_lp.busy_s": "s",
    "ilp.rows": "count",
    "ilp.bytes": "B",
    "analysis.assignment_report.calls": "count",
    "analysis.assignment_report.busy_s": "s",
    "trace.overhead_frac": "ratio",
    "optimal_frac": "ratio",
    "gap_mean": "ratio",
    "failed_frac": "ratio",
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def provenance(root: Path, args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            ref = (root / ".git" / ref[5:]).read_text().strip()
        commit = ref
    sources = sorted((root / "src" / "qkmp").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": commit,
        "source_sha256": _digest({p.name: p.read_text() for p in sources}),
    }


def setup(args, trace: bool):
    """Median of SETUP_REPEATS fresh imports plus input generation.

    A traced run makes one more, traced, generation pass after the timed
    ones, so spans never inflate ``setup_s``.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        prog = wl.load_program()
        items = wl.make_items(prog, tracing.NullTracer(), args.workload, args.seed, args.tiny)
        times.append(perf_counter() - t0)
    setup_tracer = None
    if trace:
        setup_tracer = tracing.Tracer()
        with tracing.hooks_installed(setup_tracer, prog):
            items = wl.make_items(prog, setup_tracer, args.workload, args.seed, args.tiny)
    return prog, items, times, setup_tracer


def run_reps(prog, items, seconds: float, trace: bool) -> list[dict]:
    """Repeat the batch until ``seconds`` are used; check each one's outputs."""
    reps: list[dict] = []
    start = perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        tr = tracing.Tracer() if traced else tracing.NullTracer()
        gc.collect()
        with tracing.hooks_installed(tr, prog):
            t0 = perf_counter()
            outputs, item_walls = wl.run_batch(prog, tr, items)
            wall = perf_counter() - t0
        ops = [op for item, out in zip(items, outputs) for op in wl.check_item(prog, item, out)]
        del outputs
        reps.append(
            {"traced": traced, "wall": wall, "item_walls": item_walls, "tracer": tr, "ops": ops}
        )
        n_traced = sum(1 for r in reps if r["traced"])
        if trace:
            enough = min(n_traced, len(reps) - n_traced) >= MIN_TRACE_REPS
        else:
            enough = len(reps) >= MIN_REPS
        if enough and perf_counter() - start + wall > seconds:
            return reps


def exact_view(ops) -> list:
    """Exact fields by item, independent of the seeded batch order."""
    return sorted([op.item, op.op, list(op.exact)] for op in ops)


def determinism_failures(reps, fingerprint_key: str) -> list[str]:
    """Compare every batch with the first, and the run with earlier runs."""
    first = exact_view(reps[0]["ops"])
    bad = [
        f"batch {i} exact counters differ from batch 0"
        for i, rep in enumerate(reps[1:], start=1)
        if exact_view(rep["ops"]) != first
    ]
    store = OUT_DIR / "fingerprints" / f"{fingerprint_key}.json"
    fingerprint = _digest(first)
    if store.is_file():
        if json.loads(store.read_text())["fingerprint"] != fingerprint:
            bad.append(f"exact counters differ from an earlier run on the same inputs ({store})")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps({"fingerprint": fingerprint, "ops": first}))
        os.replace(tmp, store)
    return bad


def outcome_metrics(ops) -> dict:
    """Exact outcome metrics of one batch."""
    solves = [op for op in ops if op.op in ("solve", "oracle")]
    results = [op.solve for op in solves if op.solve is not None]
    gaps = [r.gap for r in results] + [1.0] * (len(solves) - len(results))
    failed = sum(1 for op in ops if op.failures)
    return {
        "optimal_frac": sum(1 for r in results if r.status == "OPTIMAL") / len(solves),
        "gap_mean": sum(gaps) / len(gaps),
        "certified_ratio_mean": 1.0 - sum(gaps) / len(gaps),
        "failed_frac": failed / len(ops),
        "ok_frac": 1.0 - failed / len(ops),
    }


def layer_metrics(rep, setup_tracer) -> dict:
    tr = rep["tracer"]
    ops = rep["ops"]
    m = {}
    m["graph.generate_er.calls"], m["graph.generate_er.busy_s"] = setup_tracer.busy(
        "graph.generate_er"
    )
    m["harness.build_instance.busy_s"] = setup_tracer.busy("harness.build_instance")[1]
    for name in (
        "instance.evaluate",
        "solver.solve_bb",
        "solver.warm_start",
        "solver.brute_force",
        "analysis.assignment_report",
    ):
        m[f"{name}.calls"], m[f"{name}.busy_s"] = tr.busy(name)
    for name in ("build_ilp", "write_mps", "write_lp", "read_mps", "read_lp"):
        m[f"ilp.{name}.busy_s"] = tr.busy(f"ilp.{name}")[1]
    results = [op.solve for op in ops if op.solve is not None]
    self_s = sum(tr.self_times("solver.solve_bb").values())
    nodes = sum(r.nodes for r in results)
    m["solver.search.self_s"] = self_s
    m["solver.nodes"] = nodes
    m["solver.nodes_per_s"] = nodes / self_s if self_s > 0 else 0.0
    m["solver.root_close_frac"] = (
        sum(1 for r in results if r.nodes == 0) / len(results) if results else 0.0
    )
    m["solver.objective_sum"] = sum(r.lower_bound for r in results)
    m["solver.bound_sum"] = sum(r.upper_bound for r in results)
    points = sum(op.exact[-1] for op in ops if op.op == "oracle" and op.exact)
    m["solver.brute_force.points"] = points
    bf_busy = m["solver.brute_force.busy_s"]
    m["solver.brute_force.points_per_s"] = points / bf_busy if bf_busy > 0 else 0.0
    # exact is (rows, bytes) for every written text; a model's rows count once
    written = [op for op in ops if op.op in ("export", "mps", "lp") and op.exact]
    m["ilp.rows"] = sum(op.exact[0] for op in written if op.op != "lp")
    m["ilp.bytes"] = sum(op.exact[1] for op in written)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true", help="one small instance per part (self-test only)"
    )
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qkmp" / "__init__.py").is_file():
        print("bench: run from the root of a qkmp checkout (src/qkmp not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    trace = bool(args.trace)
    prov = provenance(root, args)

    prog, items, setup_times, setup_tracer = setup(args, trace)
    inputs = [(it.id, it.inst.to_json_dict()) for it in sorted(items, key=lambda it: it.id)]
    fingerprint_key = f"{args.workload}-{prov['source_sha256'][:16]}-{_digest(inputs)[:16]}"

    reps = run_reps(prog, items, args.seconds, trace)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    det_bad = determinism_failures(reps, fingerprint_key)
    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(1 for r in reps for op in r["ops"] if op.failures) + len(det_bad)
    outcome = outcome_metrics(reps[0]["ops"])
    wall_s = statistics.median(r["wall"] for r in plain)

    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s,
        "certified_ratio_mean": outcome["certified_ratio_mean"],
        "ok_frac": outcome["ok_frac"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # exact outcome counters; printed in both modes, emitted with the layers
    layer = {k: outcome[k] for k in ("optimal_frac", "gap_mean", "failed_frac")}
    if trace:
        per_rep = [layer_metrics(r, setup_tracer) for r in traced]
        for k in per_rep[0]:
            exact = PER_LAYER_UNITS[k] in ("count", "B")  # the same in every batch
            layer[k] = per_rep[0][k] if exact else statistics.median(m[k] for m in per_rep)
        layer["trace.overhead_frac"] = statistics.median(r["wall"] for r in traced) / wall_s - 1

    # per-instance search throughput, comparable with hand-run nodes/s figures
    per_instance = {}
    if trace:
        self_by_item = traced[0]["tracer"].self_times("solver.solve_bb")
        for op in traced[0]["ops"]:
            if op.solve is not None and self_by_item.get(op.item):
                per_instance[op.item] = {
                    "nodes": op.solve.nodes,
                    "search_self_s": self_by_item[op.item],
                    "nodes_per_s": op.solve.nodes / self_by_item[op.item],
                }

    failures = sorted(
        {f"{op.item} {op.op}: {why}" for op in reps[0]["ops"] for why in op.failures}
    ) + det_bad
    workload = wl.WORKLOADS[args.workload]
    report = {
        "provenance": prov,
        "why": workload.why,
        "instances": wl.instance_list(prog, args.workload, args.tiny),
        "items": [it.id for it in items],
        "setup_times_s": setup_times,
        "batch_walls_s": [r["wall"] for r in plain],
        "item_walls_s": [r["item_walls"] for r in plain],
        "traced_batch_walls_s": [r["wall"] for r in traced],
        "ops": [
            {"item": op.item, "op": op.op, "exact": list(op.exact), "failures": op.failures}
            for op in reps[0]["ops"]
        ],
        "failures": failures,
        "metrics": {**metrics, **layer},
        "per_instance_search": per_instance,
        "traces": {
            "setup": setup_tracer.dump() if setup_tracer else None,
            "batches": [r["tracer"].dump() for r in traced],
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))

    print(f"# {prov['cpu']}, nproc {prov['nproc']}, Python {prov['python']}, "
          f"commit {prov['git_commit']}, source {prov['source_sha256'][:16]}")
    print(f"# workload {args.workload} seed {args.seed}: {workload.why}")
    for entry in report["instances"]:
        print(f"#   {entry['config']} seed {entry['seed']} node_limit {entry['node_limit']}")
    print(f"# {len(items)} items, {len(plain)} untraced and {len(traced)} traced batches")
    values = {**metrics, **layer}
    for name, unit in {**END_TO_END_UNITS, **PER_LAYER_UNITS}.items():
        if name in values:
            print(f"{name:36s} {values[name]!r:>24} {unit}")
    for line in failures:
        print(f"FAILED {line}")
    print(f"# full report: {report_path}")

    emitted = layer if trace else metrics
    declared = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": not det_bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": emitted[k], "unit": declared[k]} for k in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
