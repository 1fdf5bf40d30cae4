import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qkmp
from qkmp import ilp, solver
from qkmp.cli import main
from qkmp.harness import get_config, run_single
from qkmp.instance import KeyAssignment, KmpInstance, evaluate
from qkmp.solver import solve_bb, SolverConfig

GEN_ARGS = [
    "gen", "--n", "6", "--density", "0.5", "--keys", "3", "--q", "1",
    "--capacity", "3", "--usage-limit", "3", "--seed", "9",
]


def gen_instance_file(tmp_path, name="inst.json"):
    path = tmp_path / name
    rc = main(GEN_ARGS + ["--out", str(path)])
    assert rc == 0
    return path


class TestGen:
    def test_writes_parseable_instance(self, tmp_path):
        path = gen_instance_file(tmp_path)
        inst = KmpInstance.from_json_dict(json.loads(path.read_text()))
        assert inst.graph.n == 6
        assert inst.key_count == 3
        assert inst.q == 1

    def test_stdout_by_default(self, capsys):
        assert main(GEN_ARGS) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["key_count"] == 3

    def test_deterministic_bytes(self, tmp_path):
        a = gen_instance_file(tmp_path, "a.json")
        b = gen_instance_file(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_unreachable_density_fails_cleanly(self, capsys):
        rc = main(["gen", "--n", "4", "--density", "0.0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSolve:
    def test_solves_generated_instance(self, tmp_path, capsys):
        path = gen_instance_file(tmp_path)
        assert main(["solve", str(path), "--time-limit", "60"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "OPTIMAL"
        assert out["gap"] == 0.0
        inst = KmpInstance.from_json_dict(json.loads(path.read_text()))
        report = evaluate(inst, KeyAssignment.from_rows(out["x"]))
        assert report.feasible
        assert report.objective == out["objective"] <= inst.graph.edge_count

    def test_reads_instance_from_stdin(self, tmp_path, capsys, monkeypatch):
        text = gen_instance_file(tmp_path).read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["solve", "-", "--time-limit", "60"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "OPTIMAL"

    def test_node_limit_flag(self, tmp_path, capsys):
        path = gen_instance_file(tmp_path)
        assert main(["solve", str(path), "--node-limit", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nodes"] <= 1
        assert out["status"] in ("OPTIMAL", "FEASIBLE_TIMEOUT")

    def test_missing_file(self, capsys):
        assert main(["solve", "no-such-file.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["solve", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_capacity_is_refused(self, tmp_path, capsys):
        # json reads NaN; solved, vertex 0 would fit no key and the triangle
        # would come out OPTIMAL 1 where the optimum is 3
        path = tmp_path / "nan.json"
        path.write_text(
            '{"graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}, "key_count": 2,'
            ' "q": 1, "p": 1.0, "alpha": 1, "mem_per_key": [1, 1],'
            ' "capacity": [NaN, 2, 2], "usage_limit": [3, 3]}'
        )
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_nan_time_limit_is_refused(self, tmp_path, capsys):
        path = gen_instance_file(tmp_path)
        assert main(["solve", str(path), "--time-limit", "nan"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        path = gen_instance_file(tmp_path)
        assert main(["solve", str(path), "--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err


def test_every_entry_point_draws_the_same_warm_starts(tmp_path, capsys, monkeypatch):
    # q1-3/10300: no greedy run meets the root bound, so all restarts run
    cfg = get_config("q1-3")
    inst = cfg.build_instance(cfg.base_seed)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_json_dict()))
    real = solver.greedy_heuristic
    seeds = []

    def recording_greedy(inst, seed):
        seeds.append(seed)
        return real(inst, seed)

    monkeypatch.setattr(solver, "greedy_heuristic", recording_greedy)
    row = run_single(cfg, 0)
    from_bench, seeds[:] = seeds[:], []
    result = solve_bb(inst)
    from_library, seeds[:] = seeds[:], []
    assert main(["solve", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert from_bench == from_library == seeds == list(range(solver.GREEDY_RESTARTS))
    assert (row.status, row.objective, row.bound) == (
        result.status, result.lower_bound, result.upper_bound
    ) == (out["status"], out["objective"], out["bound"])


TRIANGLE_JSON = {
    "graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
    "key_count": 2, "q": 1, "p": 0.5, "alpha": 1,
    "mem_per_key": [1, 1], "capacity": [2, 2, 2], "usage_limit": [3, 3],
}


def triangle_with(**changes):
    return {**TRIANGLE_JSON, **changes}


# each was solved after truncation, or crashed with a traceback, before
MALFORMED_INSTANCES = {
    "usage-limit-2.5": triangle_with(usage_limit=[2.5, 3]),
    "usage-limit-scalar": triangle_with(usage_limit=3),
    "key-count-2.5": triangle_with(key_count=2.5),
    "q-1.7": triangle_with(q=1.7),
    "q-true": triangle_with(q=True),
    "alpha-1.5": triangle_with(alpha=1.5),
    "p-string": triangle_with(p="0.5"),
    "mem-string": triangle_with(mem_per_key=["1", 1]),
    "capacity-null": triangle_with(capacity=[None, 2, 2]),
    "n-3.7": triangle_with(graph={"n": 3.7, "edges": [[0, 1], [0, 2], [1, 2]]}),
    "endpoint-2.5": triangle_with(graph={"n": 3, "edges": [[0, 1], [0, 2], [1, 2.5]]}),
    "edges-scalar": triangle_with(graph={"n": 3, "edges": 5}),
}


@pytest.mark.parametrize("data", MALFORMED_INSTANCES.values(), ids=MALFORMED_INSTANCES)
def test_solve_refuses_malformed_instance(tmp_path, capsys, data):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_solve_accepts_whole_number_floats(tmp_path, capsys):
    data = triangle_with(
        graph={"n": 3.0, "edges": [[0.0, 1], [0, 2], [1, 2]]},
        key_count=2.0, q=1.0, alpha=1.0, usage_limit=[3.0, 3],
    )
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["objective"]) == ("OPTIMAL", 3)


@pytest.mark.parametrize(
    "x",
    [[[0.5, 1.9], [0, 0], [0, 0]], 5, [[0, 1], 7, [0, 0]]],
    ids=["fractions", "scalar", "row-scalar"],
)
def test_validate_refuses_malformed_assignment(tmp_path, capsys, x):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(TRIANGLE_JSON))
    assignment = tmp_path / "x.json"
    assignment.write_text(json.dumps({"x": x}))
    assert main(["validate", str(inst), str(assignment)]) == 1
    assert capsys.readouterr().err.startswith("error:")


class TestExport:
    def test_mps_round_trip(self, tmp_path, capsys):
        path = gen_instance_file(tmp_path)
        assert main(["export", str(path)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("NAME")
        inst = KmpInstance.from_json_dict(json.loads(path.read_text()))
        assert ilp.read_mps(text) == ilp.build_ilp(inst)

    def test_lp_round_trip(self, tmp_path):
        src = gen_instance_file(tmp_path)
        out = tmp_path / "model.lp"
        assert main(["export", str(src), "--format", "lp", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("\\ name=")
        inst = KmpInstance.from_json_dict(json.loads(src.read_text()))
        assert ilp.read_lp(text) == ilp.build_ilp(inst)


class TestValidate:
    def setup_files(self, tmp_path):
        path = gen_instance_file(tmp_path)
        inst = KmpInstance.from_json_dict(json.loads(path.read_text()))
        result = solve_bb(inst, SolverConfig(time_limit=60))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(result.incumbent.to_json_dict()))
        bad = tmp_path / "bad.json"
        ones = [[1] * inst.key_count for _ in range(inst.graph.n)]
        bad.write_text(json.dumps({"x": ones}))
        return path, good, bad

    def test_feasible_assignment(self, tmp_path, capsys):
        inst, good, _ = self.setup_files(tmp_path)
        assert main(["validate", str(inst), str(good)]) == 0
        out = capsys.readouterr().out
        assert "feasible: yes" in out
        assert "violated" not in out

    def test_infeasible_assignment_exit_code(self, tmp_path, capsys):
        inst, _, bad = self.setup_files(tmp_path)
        assert main(["validate", str(inst), str(bad)]) == 2
        out = capsys.readouterr().out
        assert "feasible: no" in out
        # every key lands on all 6 vertices, double its usage limit
        assert "violated GLOBAL_USE at" in out
        assert "exceeds" in out

    def test_json_output(self, tmp_path, capsys):
        inst, good, _ = self.setup_files(tmp_path)
        assert main(["validate", str(inst), str(good), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["violations"] == []
        assert "key_path_connected" in payload

    def test_json_output_lists_violations(self, tmp_path, capsys):
        inst, _, bad = self.setup_files(tmp_path)
        assert main(["validate", str(inst), str(bad), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["violations"]
        first = payload["violations"][0]
        assert set(first) == {"constraint", "index", "lhs", "rhs"}

    def test_malformed_assignment(self, tmp_path, capsys):
        inst = gen_instance_file(tmp_path)
        bad = tmp_path / "weird.json"
        bad.write_text('["not", "an", "object"]')
        assert main(["validate", str(inst), str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestBench:
    def test_list_builtin_configs(self, capsys):
        assert main(["bench", "--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 26
        assert lines[0] == "q1-1: n=10 d=0.2 K=10 q=1 p=0.3 c=5 t=3"
        assert lines[13].startswith("q2-1:")

    def test_requires_config_id(self, capsys):
        assert main(["bench"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_id(self, capsys):
        assert main(["bench", "--config-id", "q9-9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_id_message_is_unquoted(self, capsys):
        assert main(["bench", "--config-id", "nope"]) == 1
        assert capsys.readouterr().err == "error: unknown configuration 'nope'\n"

    def test_desk_run_emits_csv(self, tmp_path):
        out = tmp_path / "results.csv"
        rc = main(
            [
                "bench", "--config-id", "q1-1", "--instances", "2",
                "--time-limit", "60", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "config_id,seed,status,objective,bound,gap,wall_time"
        assert len(lines) == 3
        assert lines[1].startswith("q1-1,10100,OPTIMAL,")
        assert lines[2].startswith("q1-1,10101,OPTIMAL,")

    def test_base_seed_override(self, tmp_path):
        out = tmp_path / "results.csv"
        rc = main(
            [
                "bench", "--config-id", "q1-1", "--instances", "1",
                "--time-limit", "60", "--base-seed", "777", "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("q1-1,777,")

    @pytest.mark.parametrize(
        "override",
        [["--instances", "0", "--time-limit", "5"], ["--instances", "1", "--time-limit", "0"]],
        ids=["instances", "time-limit"],
    )
    def test_zero_override_is_rejected(self, override, capsys):
        # a zero is an explicit value: it must fail validation, not fall back
        # to the desk default
        assert main(["bench", "--config-id", "q1-1", *override]) == 1
        assert "error:" in capsys.readouterr().err


class TestReport:
    def test_summary_from_file(self, tmp_path, capsys):
        csv_path = tmp_path / "results.csv"
        main(
            [
                "bench", "--config-id", "q1-1", "--instances", "2",
                "--time-limit", "60", "--out", str(csv_path),
            ]
        )
        assert main(["report", str(csv_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["config", "instances", "solved", "avg", "time", "(s)", "avg", "gap", "(%)"]
        assert lines[1].split()[:3] == ["q1-1", "2", "2"]

    def test_accepts_csv_with_old_summary_row(self, tmp_path, capsys):
        csv_path = tmp_path / "old.csv"
        csv_path.write_text(
            "config_id,seed,status,objective,bound,gap,wall_time\n"
            "x,1,OPTIMAL,3,3,0.0,0.5\n"
            "x,2,FEASIBLE_TIMEOUT,2,4,0.5,9.0\n"
            "x,summary,1,2.5,25.0,50.0,0.5\n"
        )
        assert main(["report", str(csv_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["x", "2", "1", "0.500", "50.00"]

    def test_reads_stdin(self, capsys, monkeypatch):
        text = (
            "config_id,seed,status,objective,bound,gap,wall_time\n"
            "x,1,OPTIMAL,3,3,0.0,0.5\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["report", "-"]) == 0
        assert "x" in capsys.readouterr().out

    def test_missing_csv(self, capsys):
        assert main(["report", "nope.csv"]) == 1
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen" in capsys.readouterr().out

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1


def test_console_script_end_to_end(tmp_path):
    # Run the entry point that pyproject.toml declares for the `qkmp` script,
    # the same call pip's generated wrapper makes, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts.get("qkmp") == "qkmp.cli:main"
    qkmp_cmd = [
        sys.executable, "-c", "import sys; from qkmp.cli import main; sys.exit(main())",
    ]
    # children import the same source tree as this process, from any cwd
    src_root = str(Path(qkmp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    run = functools.partial(subprocess.run, cwd=tmp_path, env=env)

    inst = tmp_path / "inst.json"
    result = tmp_path / "result.json"
    run(qkmp_cmd + GEN_ARGS + ["--out", str(inst)], check=True)
    run(
        qkmp_cmd + ["solve", str(inst), "--time-limit", "60", "--out", str(result)],
        check=True,
    )
    out = json.loads(result.read_text())
    assert out["status"] == "OPTIMAL"
    proc = run(
        qkmp_cmd + ["validate", str(inst), "-"],
        input=json.dumps({"x": out["x"]}),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "feasible: yes" in proc.stdout
