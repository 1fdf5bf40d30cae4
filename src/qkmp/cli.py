"""Command line front end.

Subcommands: gen, solve, export, validate, bench, report. Exit codes: 0 on
success, 2 when validate finds the assignment infeasible, 1 on any error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import analysis, harness, ilp, solver
from .graph import GraphError
from .instance import KeyAssignment, KmpInstance, evaluate


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump_json(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def cmd_gen(args: argparse.Namespace) -> int:
    from .graph import generate_er

    g = generate_er(args.n, args.density, args.seed)
    inst = KmpInstance.uniform(
        graph=g,
        key_count=args.keys,
        q=args.q,
        p=args.p,
        capacity=args.capacity,
        usage_limit=args.usage_limit,
        alpha=args.alpha,
        mem=args.mem,
    )
    _write_text(args.out, _dump_json(inst.to_json_dict()))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    inst = KmpInstance.from_json_dict(_read_json(args.instance))
    cfg = solver.SolverConfig(time_limit=args.time_limit, node_limit=args.node_limit)
    result = solver.solve_bb(inst, cfg)
    _write_text(args.out, _dump_json(result.to_json_dict()))
    return 0 if result.status != solver.ERROR else 1


def cmd_export(args: argparse.Namespace) -> int:
    inst = KmpInstance.from_json_dict(_read_json(args.instance))
    model = ilp.build_ilp(inst)
    if args.format == "mps":
        text = ilp.write_mps(model)
    else:
        text = ilp.write_lp(model)
    _write_text(args.out, text)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    inst = KmpInstance.from_json_dict(_read_json(args.instance))
    assignment = KeyAssignment.from_json_dict(_read_json(args.assignment))
    report = evaluate(inst, assignment)
    full = analysis.assignment_report(inst, assignment)
    if args.json:
        payload = full.to_json_dict()
        payload["violations"] = [
            {"constraint": v.constraint, "index": list(v.index), "lhs": v.lhs, "rhs": v.rhs}
            for v in report.violations
        ]
        _write_text(args.out, _dump_json(payload))
    else:
        text = full.format_text()
        for v in report.violations:
            text += (
                f"violated {v.constraint} at {tuple(v.index)}:"
                f" {v.lhs} exceeds {v.rhs}\n"
            )
        _write_text(args.out, text)
    return 0 if report.feasible else 2


def cmd_bench(args: argparse.Namespace) -> int:
    if args.list:
        lines = []
        for cfg in harness.builtin_tables():
            lines.append(
                f"{cfg.config_id}: n={cfg.n} d={cfg.d} K={cfg.key_count}"
                f" q={cfg.q} p={cfg.p} c={cfg.c} t={cfg.t}"
            )
        _write_text(args.out, "\n".join(lines) + "\n")
        return 0
    if not args.config_id:
        raise ValueError("--config-id is required unless --list is given")
    cfg = harness.get_config(args.config_id)
    if args.scale == "desk":
        cfg = harness.desk_scale(cfg)
    # explicit None checks: --instances 0 must reach the config's validation
    cfg = dataclasses.replace(
        cfg,
        instance_count=cfg.instance_count if args.instances is None else args.instances,
        time_limit_seconds=(
            cfg.time_limit_seconds if args.time_limit is None else args.time_limit
        ),
        base_seed=cfg.base_seed if args.base_seed is None else args.base_seed,
    )
    stats = harness.run_experiment(cfg, parallel_instances=args.parallel)
    _write_text(args.out, harness.emit_csv(stats))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.csv == "-":
        text = sys.stdin.read()
    else:
        with open(args.csv, "r", encoding="utf-8") as fh:
            text = fh.read()
    per_config = harness.parse_results_csv(text)
    _write_text(args.out, harness.format_summary_table(per_config))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkmp",
        description="Optimal q-composite key distribution for sensor networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random instance as JSON")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--density", type=float, default=0.2, help="edge probability")
    p.add_argument("--keys", type=int, default=10, help="key pool size")
    p.add_argument("--q", type=int, default=1, help="required shared keys per edge")
    p.add_argument("--p", type=float, default=0.3, help="neighborhood reuse fraction")
    p.add_argument("--alpha", type=int, default=1, help="neighborhood reuse offset")
    p.add_argument("--capacity", type=float, default=5, help="memory per vertex")
    p.add_argument("--usage-limit", type=int, default=3, help="max vertices per key")
    p.add_argument("--mem", type=float, default=1, help="memory cost per key")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve an instance JSON exactly")
    p.add_argument("instance", help="instance JSON path, or - for stdin")
    p.add_argument("--time-limit", type=float, default=300.0)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("export", help="write the linearized model as MPS or LP")
    p.add_argument("instance")
    p.add_argument("--format", choices=("mps", "lp"), default="mps")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("validate", help="check an assignment against an instance")
    p.add_argument("instance")
    p.add_argument("assignment", help="assignment JSON path")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="run a benchmark configuration")
    p.add_argument("--config-id", default=None, help="builtin id, e.g. q1-1")
    p.add_argument("--list", action="store_true", help="list builtin configurations")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument(
        "--scale",
        choices=("desk", "full"),
        default="desk",
        help="desk shrinks to 20 instances at 300 s; full keeps protocol values",
    )
    p.add_argument("--base-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="summarize a results CSV")
    p.add_argument("csv", help="results CSV path, or - for stdin")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (GraphError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
