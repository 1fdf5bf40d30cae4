"""Batch experiment runner.

A configuration fixes the graph shape and model parameters; a run generates
``instance_count`` seeded instances (seed = base_seed + index), solves each
one under a per-instance time limit, and folds the outcomes into summary
statistics: how many instances solved, the average time of the solved ones,
and the average optimality gap of the unsolved ones.

Instances are independent, so a run may farm them out to worker processes;
results are reassembled in seed order and are identical for any worker
count.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .graph import GraphError, generate_er
from .instance import KmpInstance
from .solver import FEASIBLE_TIMEOUT, OPTIMAL, SolverConfig, solve_bb

DESK_INSTANCE_COUNT = 20
DESK_TIME_LIMIT = 300.0

CSV_HEADER = ("config_id", "seed", "status", "objective", "bound", "gap", "wall_time")


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark row: graph shape, model parameters, run controls."""

    config_id: str
    n: int
    d: float
    key_count: int
    q: int
    p: float
    c: float
    t: int
    instance_count: int
    time_limit_seconds: float
    base_seed: int

    def __post_init__(self) -> None:
        if self.instance_count < 1:
            raise ValueError("instance_count must be at least 1")
        if not self.time_limit_seconds > 0:
            raise ValueError("time_limit_seconds must be positive")

    def build_instance(self, seed: int) -> KmpInstance:
        g = generate_er(self.n, self.d, seed)
        return KmpInstance.uniform(
            graph=g,
            key_count=self.key_count,
            q=self.q,
            p=self.p,
            capacity=self.c,
            usage_limit=self.t,
            mem=1,
        )


@dataclass(frozen=True)
class InstanceRow:
    seed: int
    status: str
    objective: int | None
    bound: int | None
    gap: float | None
    wall_time: float | None
    note: str = ""


@dataclass(frozen=True)
class ExperimentStats:
    config_id: str
    rows: tuple[InstanceRow, ...]

    @property
    def instance_count(self) -> int:
        return len(self.rows)

    @property
    def solved_count(self) -> int:
        return sum(1 for r in self.rows if r.status == OPTIMAL)

    @property
    def avg_time_solved(self) -> float | None:
        """Mean wall time of solved instances; None when nothing solved."""
        times = [r.wall_time for r in self.rows if r.status == OPTIMAL]
        if not times:
            return None
        return sum(times) / len(times)

    @property
    def avg_gap_unsolved_pct(self) -> float:
        """Mean gap (percent) over timed-out instances; 0 when all solved."""
        gaps = [r.gap for r in self.rows if r.status == FEASIBLE_TIMEOUT]
        if not gaps:
            return 0.0
        return 100.0 * sum(gaps) / len(gaps)


def _error_row(seed: int, note: str) -> InstanceRow:
    return InstanceRow(
        seed=seed,
        status="ERROR",
        objective=None,
        bound=None,
        gap=None,
        wall_time=None,
        note=note,
    )


def run_single(cfg: ExperimentConfig, index: int) -> InstanceRow:
    """Generate and solve instance ``index`` of a configuration."""
    seed = cfg.base_seed + index
    try:
        inst = cfg.build_instance(seed)
    except GraphError as exc:
        return _error_row(seed, str(exc))
    result = solve_bb(
        inst, SolverConfig(time_limit=cfg.time_limit_seconds, seed=seed)
    )
    return InstanceRow(
        seed=seed,
        status=result.status,
        objective=result.lower_bound,
        bound=result.upper_bound,
        gap=result.gap,
        wall_time=result.wall_time,
    )


def run_experiment(cfg: ExperimentConfig, parallel_instances: int = 1) -> ExperimentStats:
    """Solve every instance of a configuration; stats in seed order.

    Per-instance failures become ERROR rows instead of aborting the batch,
    serial or pooled: any exception an instance raises, and with a pool a
    worker that dies, which breaks the pool for every index still pending.
    The worker count changes scheduling only, never the per-instance results.
    """
    if parallel_instances < 1:
        raise ValueError("parallel_instances must be at least 1")
    indices = range(cfg.instance_count)
    if parallel_instances == 1:
        rows = [_row(cfg.base_seed + i, partial(run_single, cfg, i)) for i in indices]
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=parallel_instances
        ) as pool:
            futures = [_submit(pool, cfg, i) for i in indices]
            rows = [_row(cfg.base_seed + i, f.result) for i, f in zip(indices, futures)]
    return ExperimentStats(config_id=cfg.config_id, rows=tuple(rows))


def _submit(pool, cfg: ExperimentConfig, index: int) -> concurrent.futures.Future:
    try:
        return pool.submit(run_single, cfg, index)
    except concurrent.futures.BrokenExecutor as exc:
        # a worker already died; this index fails like the pending ones
        failed: concurrent.futures.Future = concurrent.futures.Future()
        failed.set_exception(exc)
        return failed


def _row(seed: int, result: Callable[[], InstanceRow]) -> InstanceRow:
    """The row ``result()`` returns, or an ERROR row for what it raises."""
    try:
        return result()
    except Exception as exc:
        return _error_row(seed, repr(exc))


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_csv(stats: ExperimentStats) -> str:
    """Header plus one row per instance, in seed order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in sorted(stats.rows, key=lambda r: r.seed):
        writer.writerow(
            [
                stats.config_id,
                r.seed,
                r.status,
                _cell(r.objective),
                _cell(r.bound),
                _cell(r.gap),
                _cell(r.wall_time),
            ]
        )
    return buf.getvalue()


def parse_results_csv(text: str) -> dict[str, list[InstanceRow]]:
    """Instance rows per config id from emit_csv output.

    Older versions ended each config with a summary row whose seed is the
    word "summary"; such rows are skipped, so their files still report.
    """
    rows: dict[str, list[InstanceRow]] = {}
    reader = csv.reader(io.StringIO(text))
    for rec in reader:
        if not rec or rec == list(CSV_HEADER):
            continue
        if len(rec) != len(CSV_HEADER):
            raise ValueError(f"malformed results row: {rec!r}")
        config_id, seed, status, objective, bound, gap, wall_time = rec
        if seed == "summary":
            continue
        rows.setdefault(config_id, []).append(
            InstanceRow(
                seed=int(seed),
                status=status,
                objective=int(objective) if objective else None,
                bound=int(bound) if bound else None,
                gap=float(gap) if gap else None,
                wall_time=float(wall_time) if wall_time else None,
            )
        )
    return rows


def format_summary_table(per_config: dict[str, list[InstanceRow]]) -> str:
    """Aligned text table with the classic benchmark columns."""
    header = ("config", "instances", "solved", "avg time (s)", "avg gap (%)")
    lines = []
    table = [header]
    for config_id in sorted(per_config):
        stats = ExperimentStats(config_id, tuple(per_config[config_id]))
        avg_time = stats.avg_time_solved
        table.append(
            (
                config_id,
                str(stats.instance_count),
                str(stats.solved_count),
                "--" if avg_time is None else f"{avg_time:.3f}",
                f"{stats.avg_gap_unsolved_pct:.2f}",
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _table(rows, q: int, time_limit: float, c_values, t_values, k_values, p_values):
    configs = []
    for idx, (n, d) in enumerate(rows, start=1):
        configs.append(
            ExperimentConfig(
                config_id=f"q{q}-{idx}",
                n=n,
                d=d,
                key_count=k_values[idx - 1],
                q=q,
                p=p_values[idx - 1],
                c=c_values[idx - 1],
                t=t_values[idx - 1],
                instance_count=100,
                time_limit_seconds=time_limit,
                base_seed=10_000 * q + 100 * idx,
            )
        )
    return configs


def builtin_tables() -> tuple[ExperimentConfig, ...]:
    """The 26 benchmark configurations (13 per q value)."""
    q1_shape = [
        (10, 0.2), (10, 0.3), (10, 0.4), (10, 0.5),
        (30, 0.05), (30, 0.08), (30, 0.10), (30, 0.15),
        (50, 0.04), (50, 0.05), (50, 0.08),
        (100, 0.03), (100, 0.05),
    ]
    q1 = _table(
        q1_shape,
        q=1,
        time_limit=7200.0,
        k_values=[10, 10, 10, 10, 20, 20, 20, 20, 30, 30, 30, 60, 60],
        p_values=[0.3] * 8 + [0.4] * 5,
        c_values=[5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 8, 8],
        t_values=[3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 5, 5],
    )
    q2_shape = [
        (10, 0.2), (10, 0.3), (10, 0.4), (10, 0.5),
        (15, 0.2), (15, 0.3), (15, 0.4), (15, 0.5),
        (25, 0.15), (25, 0.2), (25, 0.3),
        (30, 0.15), (30, 0.2),
    ]
    q2 = _table(
        q2_shape,
        q=2,
        time_limit=10800.0,
        k_values=[10, 10, 10, 10, 15, 15, 15, 15, 25, 25, 25, 30, 30],
        p_values=[0.4] * 8 + [0.5] * 5,
        c_values=[5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 8, 8],
        t_values=[4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5],
    )
    return tuple(q1 + q2)


def get_config(config_id: str) -> ExperimentConfig:
    for cfg in builtin_tables():
        if cfg.config_id == config_id:
            return cfg
    raise KeyError(f"unknown configuration {config_id!r}")


def desk_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    """Shrink a full-protocol configuration to desk-friendly effort."""
    return replace(
        cfg, instance_count=DESK_INSTANCE_COUNT, time_limit_seconds=DESK_TIME_LIMIT
    )
