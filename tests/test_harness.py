import dataclasses
import os

import pytest

from qkmp import harness
from qkmp.harness import (
    CSV_HEADER,
    DESK_INSTANCE_COUNT,
    DESK_TIME_LIMIT,
    ExperimentConfig,
    ExperimentStats,
    InstanceRow,
    builtin_tables,
    desk_scale,
    emit_csv,
    format_summary_table,
    get_config,
    parse_results_csv,
    run_experiment,
    run_single,
)
from qkmp.solver import FEASIBLE_TIMEOUT, OPTIMAL, brute_force


def tiny_config(**overrides):
    base = dict(
        config_id="tiny",
        n=4,
        d=0.5,
        key_count=2,
        q=1,
        p=1.0,
        c=2.0,
        t=3,
        instance_count=4,
        time_limit_seconds=60.0,
        base_seed=900,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@dataclasses.dataclass(frozen=True)
class FailingConfig(ExperimentConfig):
    """Instance ``fail_index`` raises in the worker, or kills it outright."""

    fail_index: int = 1
    kill: bool = False

    def build_instance(self, seed: int):
        if seed == self.base_seed + self.fail_index:
            if self.kill:
                os._exit(3)
            raise RuntimeError(f"boom at seed {seed}")
        return super().build_instance(seed)


def failing_config(**overrides):
    return FailingConfig(**dataclasses.asdict(tiny_config()), **overrides)


class TestBuiltinTables:
    def test_shape_and_ids(self):
        tables = builtin_tables()
        assert len(tables) == 26
        ids = [cfg.config_id for cfg in tables]
        assert ids == [f"q1-{i}" for i in range(1, 14)] + [f"q2-{i}" for i in range(1, 14)]
        assert len(set(ids)) == 26

    def test_first_small_row(self):
        cfg = get_config("q1-1")
        assert (cfg.n, cfg.d, cfg.key_count) == (10, 0.2, 10)
        assert (cfg.q, cfg.p, cfg.c, cfg.t) == (1, 0.3, 5, 3)
        assert cfg.instance_count == 100
        assert cfg.time_limit_seconds == 7200.0
        assert cfg.base_seed == 10100

    def test_last_large_row(self):
        cfg = get_config("q1-13")
        assert (cfg.n, cfg.d, cfg.key_count) == (100, 0.05, 60)
        assert (cfg.p, cfg.c, cfg.t) == (0.4, 8, 5)
        assert cfg.base_seed == 11300

    def test_first_q2_row(self):
        cfg = get_config("q2-1")
        assert (cfg.n, cfg.d, cfg.key_count) == (10, 0.2, 10)
        assert (cfg.q, cfg.p, cfg.c, cfg.t) == (2, 0.4, 5, 4)
        assert cfg.time_limit_seconds == 10800.0
        assert cfg.base_seed == 20100

    def test_base_seeds_keep_instance_streams_apart(self):
        tables = builtin_tables()
        seeds = [cfg.base_seed for cfg in tables]
        assert len(set(seeds)) == 26
        # 100 instances per config never overlap the next block of seeds
        for cfg in tables:
            assert cfg.base_seed % 100 == 0
            assert cfg.instance_count <= 100

    def test_get_config_rejects_unknown(self):
        with pytest.raises(KeyError):
            get_config("q3-1")

    def test_desk_scale_shrinks_only_run_controls(self):
        full = get_config("q1-1")
        desk = desk_scale(full)
        assert desk.instance_count == DESK_INSTANCE_COUNT == 20
        assert desk.time_limit_seconds == DESK_TIME_LIMIT == 300.0
        for fld in dataclasses.fields(ExperimentConfig):
            if fld.name in ("instance_count", "time_limit_seconds"):
                continue
            assert getattr(desk, fld.name) == getattr(full, fld.name)


class TestExperimentConfig:
    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            tiny_config(instance_count=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"instance_count": 2.5},
            {"instance_count": True},
            {"instance_count": "4"},
            {"base_seed": None},
            {"base_seed": 900.5},
        ],
    )
    def test_counts_must_be_whole_numbers(self, overrides):
        with pytest.raises(ValueError, match="whole number"):
            tiny_config(**overrides)

    def test_integral_float_counts_become_ints(self):
        cfg = tiny_config(instance_count=2.0, base_seed=900.0)
        assert (cfg.instance_count, cfg.base_seed) == (2, 900)
        assert type(cfg.instance_count) is int and type(cfg.base_seed) is int
        assert [r.seed for r in run_experiment(cfg).rows] == [900, 901]

    def test_rejects_nonpositive_time_limit(self):
        with pytest.raises(ValueError):
            tiny_config(time_limit_seconds=0.0)

    def test_rejects_nan_time_limit(self):
        with pytest.raises(ValueError):
            tiny_config(time_limit_seconds=float("nan"))

    @pytest.mark.parametrize("limit", [True, "5", None, float("nan"), 0, -1.0])
    def test_time_limit_must_be_a_positive_number(self, limit):
        with pytest.raises(ValueError, match="time_limit_seconds must be a positive number"):
            dataclasses.replace(tiny_config(), time_limit_seconds=limit)

    def test_infinite_time_limit_is_allowed(self):
        assert tiny_config(time_limit_seconds=float("inf")).time_limit_seconds == float("inf")

    def test_build_instance_is_deterministic(self):
        cfg = tiny_config()
        assert cfg.build_instance(907) == cfg.build_instance(907)

    def test_build_instance_applies_parameters(self):
        cfg = tiny_config()
        inst = cfg.build_instance(905)
        assert inst.graph.n == 4
        assert inst.key_count == 2
        assert inst.q == 1
        assert inst.mem_per_key == (1,) * 2
        assert inst.capacity == (2.0,) * 4
        assert inst.usage_limit == (3, 3)


class TestRunSingle:
    def test_matches_brute_force(self):
        cfg = tiny_config()
        for index in range(3):
            row = run_single(cfg, index)
            assert row.seed == cfg.base_seed + index
            assert row.status == OPTIMAL
            exact = brute_force(cfg.build_instance(row.seed))
            assert row.objective == exact.lower_bound
            assert row.bound == row.objective
            assert row.gap == 0.0
            assert row.wall_time is not None and row.wall_time >= 0.0

    def test_deterministic_apart_from_wall_time(self):
        cfg = tiny_config()
        a = run_single(cfg, 1)
        b = run_single(cfg, 1)
        assert dataclasses.replace(a, wall_time=0.0) == dataclasses.replace(b, wall_time=0.0)

    def test_generation_failure_becomes_error_row(self):
        # density 0 cannot connect 4 vertices, so generation must fail
        cfg = tiny_config(d=0.0)
        row = run_single(cfg, 0)
        assert row.status == "ERROR"
        assert row.objective is None and row.bound is None
        assert row.gap is None and row.wall_time is None
        assert row.note != ""


class TestRunExperiment:
    def test_rows_in_seed_order(self):
        stats = run_experiment(tiny_config())
        assert stats.config_id == "tiny"
        assert [r.seed for r in stats.rows] == [900, 901, 902, 903]
        assert stats.instance_count == 4
        assert stats.solved_count == 4
        assert stats.avg_gap_unsolved_pct == 0.0

    def test_worker_count_does_not_change_results(self):
        cfg = tiny_config()
        serial = run_experiment(cfg, parallel_instances=1)
        pooled = run_experiment(cfg, parallel_instances=2)
        strip = lambda rows: [dataclasses.replace(r, wall_time=0.0) for r in rows]
        assert strip(serial.rows) == strip(pooled.rows)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_experiment(tiny_config(), parallel_instances=0)

    @pytest.mark.parametrize("workers", [2.5, True, "2", None])
    def test_refuses_a_worker_count_that_is_no_whole_number(self, workers):
        # as solver and batch counts are: ValueError, not a TypeError from
        # the pool, and a bool is not taken for 1
        with pytest.raises(ValueError, match="parallel_instances"):
            run_experiment(tiny_config(), parallel_instances=workers)

    def test_takes_a_whole_number_float_worker_count(self):
        cfg = tiny_config(instance_count=2)
        strip = lambda rows: [dataclasses.replace(r, wall_time=0.0) for r in rows]
        assert strip(run_experiment(cfg, 1.0).rows) == strip(run_experiment(cfg, 1).rows)

    def test_worker_exception_becomes_error_row(self):
        stats = run_experiment(failing_config(), parallel_instances=2)
        assert [r.seed for r in stats.rows] == [900, 901, 902, 903]
        assert [r.status for r in stats.rows] == [OPTIMAL, "ERROR", OPTIMAL, OPTIMAL]
        assert stats.rows[1].note == "RuntimeError('boom at seed 901')"
        assert stats.rows[1].objective is None and stats.rows[1].wall_time is None

    def test_serial_exception_becomes_error_row(self, monkeypatch):
        # the same failure a pool turns into an ERROR row, without a pool
        solve = harness.solve_bb
        doomed = tiny_config().build_instance(901)

        def failing_solve(inst, cfg):
            if inst == doomed:
                raise RuntimeError("boom at seed 901")
            return solve(inst, cfg)

        monkeypatch.setattr(harness, "solve_bb", failing_solve)
        stats = run_experiment(tiny_config(), parallel_instances=1)
        assert [r.status for r in stats.rows] == [OPTIMAL, "ERROR", OPTIMAL, OPTIMAL]
        assert stats.rows[1].note == "RuntimeError('boom at seed 901')"
        assert stats.rows[1].objective is None and stats.rows[1].wall_time is None

    def test_dead_worker_becomes_error_rows(self):
        # a dead worker breaks the pool, so every index still pending fails
        # too; the batch still returns one row per seed, in seed order
        stats = run_experiment(failing_config(kill=True), parallel_instances=2)
        assert [r.seed for r in stats.rows] == [900, 901, 902, 903]
        assert stats.rows[1].status == "ERROR"
        assert "BrokenProcessPool" in stats.rows[1].note
        assert {r.status for r in stats.rows} <= {OPTIMAL, "ERROR"}

    def test_error_rows_are_kept_not_raised(self):
        stats = run_experiment(tiny_config(d=0.0, instance_count=2))
        assert [r.status for r in stats.rows] == ["ERROR", "ERROR"]
        assert stats.solved_count == 0
        assert stats.avg_time_solved is None


class TestStats:
    def make(self, rows):
        return ExperimentStats("x", tuple(rows))

    def row(self, seed, status, objective, bound, gap, wall_time):
        return InstanceRow(seed, status, objective, bound, gap, wall_time)

    def test_averages(self):
        stats = self.make(
            [
                self.row(1, OPTIMAL, 4, 4, 0.0, 1.0),
                self.row(2, OPTIMAL, 6, 6, 0.0, 3.0),
                self.row(3, FEASIBLE_TIMEOUT, 5, 10, 0.5, 7.0),
            ]
        )
        assert stats.solved_count == 2
        assert stats.avg_time_solved == 2.0
        assert stats.avg_gap_unsolved_pct == 50.0

    def test_error_rows_drop_out_of_gap_averages(self):
        stats = self.make(
            [
                self.row(1, OPTIMAL, 4, 4, 0.0, 1.0),
                self.row(2, "ERROR", None, None, None, None),
            ]
        )
        assert stats.instance_count == 2
        assert stats.solved_count == 1
        assert stats.avg_gap_unsolved_pct == 0.0

    def test_empty_run_edge_cases(self):
        stats = self.make([])
        assert stats.avg_time_solved is None
        assert stats.avg_gap_unsolved_pct == 0.0


class TestCsv:
    def test_emit_layout(self):
        stats = run_experiment(tiny_config(instance_count=2))
        lines = emit_csv(stats).splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        # header and one row per instance, no trailing summary row
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "tiny"
        assert first[1] == "900"
        assert first[2] == OPTIMAL

    def test_error_row_leaves_cells_empty(self):
        stats = ExperimentStats("x", (InstanceRow(5, "ERROR", None, None, None, None, "boom"),))
        line = emit_csv(stats).splitlines()[1]
        assert line == "x,5,ERROR,,,,"

    def test_round_trip_through_parser(self):
        stats = run_experiment(tiny_config(instance_count=3))
        parsed = parse_results_csv(emit_csv(stats))
        assert list(parsed) == ["tiny"]
        assert tuple(parsed["tiny"]) == stats.rows

    def test_parser_skips_header_and_summary(self):
        assert parse_results_csv(",".join(CSV_HEADER) + "\n") == {}
        assert parse_results_csv("") == {}

    def test_parser_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            parse_results_csv("a,b,c\n")

    @pytest.mark.parametrize(
        "field,bad",
        [("seed", "abc"), ("objective", "1.5"), ("bound", "x"), ("gap", "--"), ("wall_time", "fast")],
    )
    def test_parser_names_the_row_with_a_bad_number(self, field, bad):
        row = dict(zip(CSV_HEADER, ["c", "5", OPTIMAL, "4", "4", "0.0", "1.0"]))
        row[field] = bad
        line = ",".join(row[name] for name in CSV_HEADER)
        with pytest.raises(ValueError, match=r"^malformed results row: \[") as err:
            parse_results_csv(line + "\n")
        assert repr(bad) in str(err.value)

    def test_summary_from_parsed_rows_matches_original(self):
        stats = run_experiment(tiny_config(instance_count=3))
        parsed = parse_results_csv(emit_csv(stats))
        rebuilt = ExperimentStats("tiny", tuple(parsed["tiny"]))
        assert rebuilt.solved_count == stats.solved_count
        assert rebuilt.avg_gap_unsolved_pct == stats.avg_gap_unsolved_pct
        assert rebuilt.avg_time_solved == pytest.approx(stats.avg_time_solved)


class TestSummaryTable:
    def test_exact_layout(self):
        per_config = {
            "a": [
                InstanceRow(1, OPTIMAL, 4, 4, 0.0, 1.0),
                InstanceRow(2, OPTIMAL, 6, 6, 0.0, 2.0),
            ],
            "b": [InstanceRow(3, FEASIBLE_TIMEOUT, 5, 10, 0.25, 9.0)],
        }
        assert format_summary_table(per_config) == (
            "config  instances  solved  avg time (s)  avg gap (%)\n"
            "a       2          2       1.500         0.00\n"
            "b       1          0       --            25.00\n"
        )

    def test_rows_sorted_by_config_id(self):
        per_config = {
            "z": [InstanceRow(1, OPTIMAL, 1, 1, 0.0, 1.0)],
            "m": [InstanceRow(2, OPTIMAL, 1, 1, 0.0, 1.0)],
        }
        lines = format_summary_table(per_config).splitlines()
        assert lines[1].startswith("m")
        assert lines[2].startswith("z")
