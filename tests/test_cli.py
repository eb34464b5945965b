import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regtile
from regtile import cli, solver

from .conftest import PAPER_TILING


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_toy_solve_json(self, capsys, toy_files):
        instance_path, _ = toy_files
        code, out, _err = run_cli(
            capsys,
            "solve",
            "--instance", str(instance_path),
            "--registers", "6",
            "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        assert payload["cost"]["spill"] == "7/3"
        assert payload["manifest"]["subcommand"] == "solve"
        assert payload["solution"]["order"]

    def test_flag_overrides_document(self, capsys, toy_files):
        instance_path, _ = toy_files
        code, out, _ = run_cli(
            capsys,
            "solve", "--instance", str(instance_path),
            "--registers", "16", "--unroll", "2", "--max-width", "2",
        )
        assert code == 0
        payload = json.loads(out)
        # With 16 registers everything fits in registers: zero spill.
        assert payload["cost"]["spill"] == "0"

    def test_document_max_width_follows_unroll(self, capsys, toy_files):
        instance_path, _ = toy_files
        code, out, _ = run_cli(
            capsys, "solve", "--instance", str(instance_path), "--unroll", "2"
        )
        assert code == 0
        assert json.loads(out)["status"] == "optimal"

    def test_infeasible_exit_code(self, capsys, tmp_path):
        path = tmp_path / "tight.json"
        path.write_text(json.dumps({
            "name": "tight", "registers": 1, "unroll": 1,
            "nodes": [{"id": "A", "comp": 3}], "edges": [],
        }))
        code, _out, _err = run_cli(capsys, "solve", "--instance", str(path))
        assert code == 3

    def test_budget_exhausted_exit_code(self, capsys, toy_files):
        instance_path, _ = toy_files
        code, out, _ = run_cli(
            capsys,
            "solve", "--instance", str(instance_path),
            "--registers", "6", "--node-budget", "2",
        )
        assert code == 4
        assert json.loads(out)["status"] == "feasible-but-unproven"

    def test_env_time_budget(self, capsys, toy_files, monkeypatch):
        instance_path, _ = toy_files
        monkeypatch.setenv(cli.TIME_BUDGET_ENV, "0")
        code, out, _ = run_cli(
            capsys, "solve", "--instance", str(instance_path), "--registers", "6"
        )
        assert code == 4
        assert json.loads(out)["status"] == "feasible-but-unproven"


class TestCost:
    def test_paper_tiling_spill_is_three(self, capsys, toy_files):
        instance_path, solution_path = toy_files
        code, out, _ = run_cli(
            capsys,
            "cost", "--instance", str(instance_path), "--solution", str(solution_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cost"]["spill"] == "3"
        assert payload["cost"]["uspill"] == 18
        assert payload["feasible"]["ok"] is False  # limit 3 in the document

    def test_validation_error_is_machine_readable(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        sol = tmp_path / "sol.json"
        sol.write_text("{}")
        code, _out, err = run_cli(
            capsys, "cost", "--instance", str(bad), "--solution", str(sol)
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"


class TestMisc:
    def test_unknown_flag_exits_2_with_usage(self, capsys, toy_files):
        instance_path, _ = toy_files
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--instance", str(instance_path), "--bogus"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--instance", "toy.json", "--seed", "abc"],
            ["solve"],
            ["bogus"],
        ],
        ids=["bad-int", "missing-instance", "unknown-subcommand"],
    )
    def test_usage_errors_are_json(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "usage"
        assert error["message"]
        assert error["usage"].startswith("usage: regtile")

    def test_oracle_subcommand(self, capsys, toy_files):
        instance_path, _ = toy_files
        code, out, _ = run_cli(
            capsys, "oracle", "--instance", str(instance_path), "--registers", "6"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["spill"] == "7/3"
        assert payload["candidates"] > 0

    def test_baseline_subcommand_default_budget(self, capsys, tmp_path, toy_files):
        instance_path, _ = toy_files
        # Document limit 3 and max comp 3: default budget 0 keeps naive cost.
        code, out, _ = run_cli(capsys, "baseline", "--instance", str(instance_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["budget"] == 0
        assert payload["pipelined_loads"] == 5

    def test_baseline_budget_flag(self, capsys, toy_files):
        instance_path, _ = toy_files
        code, out, _ = run_cli(
            capsys, "baseline", "--instance", str(instance_path), "--budget", "1"
        )
        payload = json.loads(out)
        assert payload["pipelined_loads"] == 4
        assert payload["promoted"] == ["S1"]

    def test_stats_generate_csv(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--generate", "7,5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "instance,name,nodes,scc_count,max_pressure,interesting"
        assert len(lines) == 7

    def test_stats_generate_ranges(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--generate", "3,6", "--nodes", "4,4", "--edges", "2,3"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert len(rows) == 6
        assert all(row[2] == "4" for row in rows)

    def test_stats_single_instance(self, capsys, toy_files):
        instance_path, _ = toy_files
        code, out, _ = run_cli(capsys, "stats", "--instance", str(instance_path))
        lines = out.strip().splitlines()
        assert lines[2].split(",") == ["0", "toy", "4", "4", "10", "true"]

    def test_codegen_text_output(self, capsys, toy_files):
        instance_path, solution_path = toy_files
        code, out, _ = run_cli(
            capsys,
            "codegen",
            "--instance", str(instance_path),
            "--registers", "6",
            "--solution", str(solution_path),
        )
        assert code == 0
        assert out.count("LOAD") == 18
        assert "EXEC S0 col=0" in out

    def test_codegen_infeasible_needs_force(self, capsys, toy_files):
        instance_path, solution_path = toy_files
        code, _out, err = run_cli(
            capsys,
            "codegen", "--instance", str(instance_path), "--solution", str(solution_path),
        )
        assert code == 3
        assert json.loads(err)["error"]["type"] == "infeasible"
        code, out, _ = run_cli(
            capsys,
            "codegen", "--instance", str(instance_path),
            "--solution", str(solution_path), "--force",
        )
        assert code == 0
        assert out.count("LOAD") == 18

    def test_codegen_emit_json(self, capsys, toy_files):
        instance_path, solution_path = toy_files
        code, out, _ = run_cli(
            capsys,
            "codegen", "--instance", str(instance_path), "--registers", "6",
            "--solution", str(solution_path), "--emit-json",
        )
        payload = json.loads(out)
        assert payload["unroll"] == 6
        assert sum(1 for op in payload["ops"] if op["op"] == "load") == 18

    def test_sweep(self, capsys, toy_files):
        instance_path, _ = toy_files
        code, out, _ = run_cli(
            capsys,
            "sweep", "--instance", str(instance_path),
            "--registers", "6", "--unroll", "1..4",
        )
        assert code == 0
        payload = json.loads(out)
        unrolls = [p["unroll"] for p in payload["points"]]
        assert unrolls == [1, 2, 3, 4]
        spills = [p["spill_float"] for p in payload["points"]]
        assert all(b <= a + 1e-9 for a, b in zip(spills, spills[1:]))

    @pytest.mark.parametrize(
        "registers, budget, code, status",
        [("2", "0", 3, "infeasible"), ("6", "2", 4, "feasible-but-unproven")],
    )
    def test_sweep_worst_exit_code(self, capsys, toy_files, registers, budget, code, status):
        instance_path, _ = toy_files
        got, out, _ = run_cli(
            capsys,
            "sweep", "--instance", str(instance_path), "--registers", registers,
            "--unroll", "1..2", "--node-budget", budget,
        )
        assert got == code
        assert status in [p["status"] for p in json.loads(out)["points"]]

    def test_out_file(self, capsys, tmp_path, toy_files):
        instance_path, solution_path = toy_files
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            "cost", "--instance", str(instance_path),
            "--solution", str(solution_path), "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["cost"]["spill"] == "3"


def _doc_with(doc, **changes):
    return json.dumps({**doc, **changes})


# Malformed inputs and error exits: (argv, environment, exit code, error
# type).  "{x}" in argv names a file the test writes from FILES.
ERROR_CASES = {
    "env-budget-not-a-number": (
        ["solve", "--instance", "{toy}"], {"LRT_TIME_BUDGET_MS": "abc"}, 2, "validation"
    ),
    "env-budget-negative": (
        ["solve", "--instance", "{toy}"], {"LRT_TIME_BUDGET_MS": "-1"}, 2, "validation"
    ),
    "negative-node-budget": (
        ["solve", "--instance", "{toy}", "--node-budget", "-5"], {}, 2, "validation"
    ),
    "negative-time-budget": (
        ["solve", "--instance", "{toy}", "--time-budget-ms", "-1"], {}, 2, "validation"
    ),
    "nan-time-budget": (
        ["solve", "--instance", "{toy}", "--time-budget-ms", "nan"], {}, 2, "validation"
    ),
    "unreadable-instance": (
        ["solve", "--instance", "{missing}"], {}, 2, "validation"
    ),
    "solution-spill-set-string": (
        ["cost", "--instance", "{toy}", "--solution", "{sol_str}"], {}, 2, "validation"
    ),
    "solution-float-point": (
        ["cost", "--instance", "{toy}", "--solution", "{sol_float_point}"], {}, 2, "validation"
    ),
    "solution-float-width-cost": (
        ["cost", "--instance", "{toy}", "--solution", "{sol_float_width}"], {}, 2, "validation"
    ),
    "solution-float-width-codegen": (
        ["codegen", "--instance", "{toy}", "--solution", "{sol_float_width}"], {}, 2, "validation"
    ),
    "solution-not-json": (
        ["cost", "--instance", "{toy}", "--solution", "{broken}"], {}, 2, "validation"
    ),
    "oracle-infeasible": (
        ["oracle", "--instance", "{toy}", "--registers", "1"], {}, 3, "infeasible"
    ),
    "oracle-max-nodes-zero": (
        ["oracle", "--instance", "{toy}", "--max-nodes", "0"], {}, 2, "validation"
    ),
    "oracle-max-nodes-negative": (
        ["oracle", "--instance", "{toy}", "--max-nodes", "-1"], {}, 2, "validation"
    ),
    "baseline-negative-budget": (
        ["baseline", "--instance", "{toy}", "--budget", "-3"], {}, 2, "validation"
    ),
    "oracle-too-large": (
        ["oracle", "--instance", "{toy}", "--max-nodes", "2"], {}, 2, "instance-too-large"
    ),
    "stats-no-input": (["stats"], {}, 2, "validation"),
    "stats-bad-generate": (["stats", "--generate", "7"], {}, 2, "validation"),
    "stats-negative-count": (["stats", "--generate", "7,-1"], {}, 2, "validation"),
    "stats-zero-nodes": (
        ["stats", "--generate", "1,3", "--nodes", "0,0"], {}, 2, "validation"
    ),
    "stats-negative-edges": (
        ["stats", "--generate", "1,3", "--edges=-2,1"], {}, 2, "validation"
    ),
    "out-missing-directory": (
        ["solve", "--instance", "{toy}", "--out", "{missing_dir}"], {}, 2, "validation"
    ),
    "out-under-a-file": (
        ["solve", "--instance", "{toy}", "--out", "{toy}/out.json"], {}, 2, "validation"
    ),
    "out-is-a-directory": (
        ["stats", "--generate", "1,3", "--out", "{tmp}"], {}, 2, "validation"
    ),
    "stats-nodes-not-a-range": (
        ["stats", "--generate", "1,3", "--nodes", "4"], {}, 2, "validation"
    ),
    "stats-nodes-empty-range": (
        ["stats", "--generate", "1,3", "--nodes", "5,4"], {}, 2, "validation"
    ),
    "codegen-unknown-node": (
        ["codegen", "--instance", "{toy}", "--solution", "{sol_unknown_node}"], {}, 2, "validation"
    ),
    "instance-nested-deep": (["solve", "--instance", "{deep}"], {}, 2, "validation"),
    "solution-nested-deep": (
        ["cost", "--instance", "{toy}", "--solution", "{deep}"], {}, 2, "validation"
    ),
    "solution-unreadable": (
        ["codegen", "--instance", "{toy}", "--solution", "{missing}"], {}, 2, "validation"
    ),
    "solution-unknown-node": (
        ["cost", "--instance", "{toy}", "--solution", "{sol_unknown_node}"], {}, 2, "validation"
    ),
    "sweep-bad-span": (
        ["sweep", "--instance", "{toy}", "--unroll", "1-4"], {}, 2, "validation"
    ),
    "sweep-empty-span": (
        ["sweep", "--instance", "{toy}", "--unroll", "3..1"], {}, 2, "validation"
    ),
    "sweep-max-width-not-int": (
        ["sweep", "--instance", "{mw_str}", "--unroll", "1..2"], {}, 2, "validation"
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_exits_with_json(case, capsys, tmp_path, monkeypatch, toy_doc):
    argv, env, code, kind = ERROR_CASES[case]
    files = {
        "toy": json.dumps(toy_doc),
        "mw_str": _doc_with(toy_doc, max_width="x"),
        "sol_str": _doc_with(PAPER_TILING, spill_edges="ae"),
        "sol_float_point": _doc_with(PAPER_TILING, tile_points=[0, 1.0, 3]),
        "sol_float_width": _doc_with(PAPER_TILING, tile_widths=[6.0, 6, 3]),
        "sol_unknown_node": _doc_with(PAPER_TILING, order=["S0", "S2", "S1", "S9"]),
        "broken": "{broken",
        "deep": "[" * 100_000,
    }
    paths = {
        "tmp": str(tmp_path),
        "missing": str(tmp_path / "missing.json"),
        "missing_dir": str(tmp_path / "missing" / "out.json"),
    }
    for name, text in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    monkeypatch.delenv(cli.TIME_BUDGET_ENV, raising=False)
    # Every error is found before a search could waste its budget.
    monkeypatch.setattr(solver, "solve", lambda *a, **k: pytest.fail("solve ran"))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    got, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert got == code
    error = json.loads(err)["error"]
    assert error["type"] == kind
    assert isinstance(error["message"], str) and error["message"]


def _without_timings(payload):
    """A payload with its wall-clock fields dropped."""
    if isinstance(payload, dict):
        return {
            k: _without_timings(v)
            for k, v in payload.items()
            if k not in ("elapsed_ms", "wall_ms")
        }
    if isinstance(payload, list):
        return [_without_timings(v) for v in payload]
    return payload


def _json_calls(instance_path, solution_path):
    inst = ["--instance", str(instance_path), "--registers", "6"]
    # Searches run at unroll 2, where the toy solves in milliseconds.
    search = [*inst, "--unroll", "2"]
    return {
        "solve": ["solve", *search],
        "oracle": ["oracle", *search],
        "baseline": ["baseline", *inst],
        "cost": ["cost", *inst, "--solution", str(solution_path)],
        "codegen": ["codegen", *inst, "--solution", str(solution_path), "--emit-json"],
        "sweep": ["sweep", "--instance", str(instance_path), "--registers", "6",
                  "--unroll", "1..3"],
    }


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_in_one_process_equal_separate_runs(self, capsys, toy_files):
        calls = _json_calls(*toy_files)
        argvs = [calls["solve"], calls["codegen"], calls["baseline"], calls["solve"]]
        in_process = []
        for argv in argvs:
            code, out, _err = run_cli(capsys, *argv)
            in_process.append((code, _without_timings(json.loads(out))))
        src = str(Path(regtile.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        env.pop(cli.TIME_BUDGET_ENV, None)
        for argv, (code, payload) in zip(argvs, in_process):
            run = subprocess.run(
                [sys.executable, "-m", "regtile.cli", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            assert run.returncode == code, argv[0]
            assert _without_timings(json.loads(run.stdout)) == payload, argv[0]
        assert in_process[0] == in_process[3]

    def test_usage_error_after_success(self, capsys, toy_files):
        calls = _json_calls(*toy_files)
        code, _out, _err = run_cli(capsys, *calls["codegen"])
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["codegen", "--instance", str(toy_files[0])])
        assert exc.value.code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "usage"
        assert error["usage"].startswith("usage: regtile codegen")
        code, out, _err = run_cli(capsys, *calls["cost"])
        assert code == 0
        assert json.loads(out)["cost"]["uspill"] == 18

    @pytest.mark.parametrize("subcommand", sorted(_json_calls("i", "s")))
    def test_json_answer_is_one_line(self, capsys, toy_files, subcommand):
        code, out, _err = run_cli(capsys, *_json_calls(*toy_files)[subcommand])
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)
