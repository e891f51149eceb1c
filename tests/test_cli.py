"""Command-line interface tests: ingest, elicit, suggest, eval."""

import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

import synth
from expcopilot.cli import main
from expcopilot.gateway import prompt_sha256
from expcopilot.retrieval import hashed_bow_embedding

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def ingest_inputs(tmp_path, synth_dir):
    """History/tasks/space files derived from the synthetic bundle."""
    src = Path(synth_dir)
    space_path = tmp_path / "space.json"
    space_path.write_text((src / "space.json").read_text())
    tasks_path = tmp_path / "tasks.jsonl"
    tasks_path.write_text((src / "tasks.jsonl").read_text())
    history_path = tmp_path / "history.jsonl"
    history_path.write_text((src / "table.jsonl").read_text())
    return history_path, space_path, tasks_path


def run_ingest(runner, ingest_inputs, out_dir):
    history, space, tasks = ingest_inputs
    result = runner.invoke(
        main,
        [
            "ingest",
            "--history", str(history),
            "--space", str(space),
            "--tasks", str(tasks),
            "--out", str(out_dir),
        ],
    )
    assert result.exit_code == 0, result.output
    return out_dir


class TestIngest:
    def test_writes_pool_artifacts(self, runner, ingest_inputs, tmp_path):
        out = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        for name in ("pool.jsonl", "discretizers.json", "embeddings.jsonl", "space.json", "tasks.jsonl"):
            assert (out / name).exists()
        pool_lines = (out / "pool.jsonl").read_text().splitlines()
        assert len(pool_lines) == 12 * 60
        first = json.loads(pool_lines[0])
        assert set(first) == {"task_id", "space_id", "solution_text", "discrete_solution", "metric"}

    def test_idempotent_bytes(self, runner, ingest_inputs, tmp_path):
        out_a = run_ingest(runner, ingest_inputs, tmp_path / "pool-a")
        out_b = run_ingest(runner, ingest_inputs, tmp_path / "pool-b")
        for name in ("pool.jsonl", "discretizers.json", "embeddings.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_matches_frozen_golden(self, runner, ingest_inputs, tmp_path):
        import hashlib

        # Generated once from the synthetic fixture and pinned as a regression.
        frozen = {
            "pool.jsonl": "5886bbf29e7d2fd4da7f0a94ef1175a6206d27aa5c271f4d7c45157db42e50ff",
            "discretizers.json": "d01534f609db30d530f41db1e9a201dc68065119fcaf54ea12b220e760a14639",
        }
        out = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        for name, digest in frozen.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_empty_history_is_config_error(self, runner, ingest_inputs, tmp_path):
        history, space, tasks = ingest_inputs
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        result = runner.invoke(
            main,
            [
                "ingest",
                "--history", str(empty),
                "--space", str(space),
                "--tasks", str(tasks),
                "--out", str(tmp_path / "pool"),
            ],
        )
        assert result.exit_code == 2


class TestElicit:
    def test_byte_stable_knowledge_and_trace(self, runner, ingest_inputs, synth_dir, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        outputs = []
        for tag in ("a", "b"):
            knowledge = tmp_path / f"knowledge-{tag}.jsonl"
            trace = tmp_path / f"trace-{tag}.jsonl"
            result = runner.invoke(
                main,
                [
                    "elicit",
                    "--pool", str(pool),
                    "--benchmark", str(synth_dir),
                    "--out", str(knowledge),
                    "--trace", str(trace),
                    "--seed", "7",
                ],
            )
            assert result.exit_code == 0, result.output
            outputs.append((knowledge.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_trace_length_matches_stagnation_stop(self, runner, ingest_inputs, synth_dir, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        trace = tmp_path / "trace.jsonl"
        result = runner.invoke(
            main,
            [
                "elicit",
                "--pool", str(pool),
                "--benchmark", str(synth_dir),
                "--out", str(tmp_path / "knowledge.jsonl"),
                "--trace", str(trace),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        # Scripted scores tie, so the incumbent is round 1 and the loop stops
        # once stagnation exceeds the default patience of 3.
        assert len(rows) == 5
        assert rows[0]["improved"] and not any(r["improved"] for r in rows[1:])

    def test_missing_pool_is_config_error(self, runner, synth_dir, tmp_path):
        result = runner.invoke(
            main,
            [
                "elicit",
                "--pool", str(tmp_path / "missing"),
                "--benchmark", str(synth_dir),
                "--out", str(tmp_path / "knowledge.jsonl"),
            ],
        )
        assert result.exit_code == 2


@pytest.fixture
def new_task_file(tmp_path):
    task = {
        "task_id": "synth-new",
        "space_id": "synth-gbt",
        "description": "The dataset covers retina vessel microscopy slides diabetic screening, cohort thirteen.",
    }
    path = tmp_path / "task.json"
    path.write_text(json.dumps(task))
    return path


class TestSuggest:
    def test_prints_solutions_as_jsonl(self, runner, ingest_inputs, new_task_file, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        result = runner.invoke(
            main,
            ["suggest", "--task-file", str(new_task_file), "--pool", str(pool)],
        )
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in result.stdout.splitlines() if line.strip()]
        assert len(rows) == 3
        for i, row in enumerate(rows, start=1):
            assert row["rank"] == i
            assert row["task_id"] == "synth-new"
            assert set(row["values"]) == {"depth", "shrinkage", "booster"}
            assert set(row["discrete"]) == {"depth", "shrinkage", "booster"}
        # The new task belongs to family 1: its nearest neighbors are
        # synth-01/synth-02, whose optimum sits at the lowest grid corner.
        assert rows[0]["values"]["depth"] == synth.DEPTH_GRID[0]
        assert rows[0]["values"]["shrinkage"] == synth.SHRINK_GRID[0]

    def test_show_prompt_goes_to_stderr(self, runner, ingest_inputs, new_task_file, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        result = runner.invoke(
            main,
            ["suggest", "--task-file", str(new_task_file), "--pool", str(pool), "--show-prompt"],
        )
        assert result.exit_code == 0, result.output
        assert "Dataset: The dataset covers retina vessel" in result.stderr
        assert "Dataset:" not in result.stdout

    def test_replay_backend_round_trip(self, runner, ingest_inputs, new_task_file, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        show = runner.invoke(
            main,
            ["suggest", "--task-file", str(new_task_file), "--pool", str(pool), "--show-prompt"],
        )
        assert show.exit_code == 0
        prompt = show.stderr.rstrip("\n")
        task_desc = json.loads(new_task_file.read_text())["description"]
        response = "Configuration 1: depth is very low. shrinkage is very low. booster is tree."
        cassette = tmp_path / "cassette.jsonl"
        entries = [
            {
                "prompt_sha256": prompt_sha256(task_desc),
                "request": {"kind": "embed", "model": "hashed-bow-256"},
                "response": list(hashed_bow_embedding(task_desc).values),
            },
            {
                "prompt_sha256": prompt_sha256(prompt),
                "request": {"kind": "complete"},
                "response": "\n".join([response] * 3),
            },
        ]
        cassette.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        result = runner.invoke(
            main,
            [
                "suggest",
                "--task-file", str(new_task_file),
                "--pool", str(pool),
                "--backend", "replay",
                "--cassette", str(cassette),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in result.stdout.splitlines() if line.strip()]
        assert len(rows) == 3
        assert all(row["discrete"]["depth"] == "very low" for row in rows)

    def test_replay_miss_is_backend_error_exit_3(self, runner, ingest_inputs, new_task_file, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        cassette = tmp_path / "empty-cassette.jsonl"
        cassette.write_text("")
        result = runner.invoke(
            main,
            [
                "suggest",
                "--task-file", str(new_task_file),
                "--pool", str(pool),
                "--backend", "replay",
                "--cassette", str(cassette),
            ],
        )
        assert result.exit_code == 3
        assert "replay miss" in result.stderr

    def test_stale_embedding_cache_is_refreshed(self, runner, ingest_inputs, new_task_file, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        cache_file = pool / "embeddings.jsonl"
        stale = cache_file.read_text().replace("hashed-bow-256", "old-embedder")
        cache_file.write_text(stale)
        result = runner.invoke(
            main,
            ["suggest", "--task-file", str(new_task_file), "--pool", str(pool)],
        )
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in result.stdout.splitlines() if line.strip()]
        assert len(rows) == 3

    def test_pool_without_discretizers_exits_2(self, runner, ingest_inputs, new_task_file, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        (pool / "discretizers.json").unlink()
        result = runner.invoke(
            main, ["suggest", "--task-file", str(new_task_file), "--pool", str(pool)]
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error:" in result.stderr and "discretizers.json" in result.stderr

    def test_unparseable_replay_exits_4(self, runner, ingest_inputs, new_task_file, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        show = runner.invoke(
            main,
            ["suggest", "--task-file", str(new_task_file), "--pool", str(pool), "--show-prompt"],
        )
        prompt = show.stderr.rstrip("\n")
        task_desc = json.loads(new_task_file.read_text())["description"]
        cassette = tmp_path / "cassette.jsonl"
        entries = [
            {
                "prompt_sha256": prompt_sha256(task_desc),
                "request": {"kind": "embed", "model": "hashed-bow-256"},
                "response": list(hashed_bow_embedding(task_desc).values),
            },
            {
                "prompt_sha256": prompt_sha256(prompt),
                "request": {"kind": "complete"},
                "response": "I am sorry, I cannot recommend anything today.",
            },
        ]
        cassette.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        result = runner.invoke(
            main,
            [
                "suggest",
                "--task-file", str(new_task_file),
                "--pool", str(pool),
                "--backend", "replay",
                "--cassette", str(cassette),
            ],
        )
        assert result.exit_code == 4


def assert_eval_matches_golden(runner, bundle, tmp_path, name, extra):
    out_csv = tmp_path / f"{name}.csv"
    out_json = tmp_path / f"{name}.json"
    result = runner.invoke(
        main,
        [
            "eval",
            "--benchmark", str(bundle),
            "--seeds", "0,1",
            "--out-csv", str(out_csv),
            "--out-json", str(out_json),
            *extra,
        ],
    )
    assert result.exit_code == 0, result.output
    assert out_csv.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert out_json.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


class TestEval:
    def test_all_methods_and_csv_contract(self, runner, synth_dir, tmp_path):
        out_csv = tmp_path / "report.csv"
        out_json = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "eval",
                "--benchmark", str(synth_dir),
                "--methods", "random,constant,nearest,copilot",
                "--seeds", "0,1",
                "--out-csv", str(out_csv),
                "--out-json", str(out_json),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "method,seed,task_id,metric_at_1,metric_at_2,metric_at_3"
        assert len(lines) == 1 + 4 * 2 * 12
        payload = json.loads(out_json.read_text())
        assert [r["method"] for r in payload["reports"]] == [
            "random", "constant", "nearest", "copilot",
        ]

    def test_identical_seeds_identical_bytes(self, runner, synth_dir, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out_csv = tmp_path / f"report-{tag}.csv"
            out_json = tmp_path / f"report-{tag}.json"
            result = runner.invoke(
                main,
                [
                    "eval",
                    "--benchmark", str(synth_dir),
                    "--methods", "random,copilot",
                    "--seeds", "3,4",
                    "--out-csv", str(out_csv),
                    "--out-json", str(out_json),
                ],
            )
            assert result.exit_code == 0, result.output
            outputs.append((out_csv.read_bytes(), out_json.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "name, extra",
        [
            ("eval_all_methods", ["--methods", "random,constant,nearest,copilot"]),
            ("eval_copilot_knowledge", ["--methods", "copilot"]),
        ],
    )
    def test_reports_match_golden(self, runner, synth_dir, tmp_path, name, extra):
        # Goldens were written by the per-fold loop implementation before the
        # leave-one-out sweep was made linear; the bytes must not move.
        if name == "eval_copilot_knowledge":
            config = tmp_path / "knowledge.json"
            config.write_text(json.dumps({"eval": {"use_knowledge": True}}))
            extra = ["--config", str(config), *extra]
        assert_eval_matches_golden(runner, synth_dir, tmp_path, name, extra)

    def test_continuous_report_matches_golden(self, runner, continuous_dir, tmp_path):
        # Written by the code that rebuilt every pool entry in every fold. The
        # split points of this bundle move between folds, so unlike the synth
        # goldens it reaches the path that rebuilds a cached pool entry.
        assert_eval_matches_golden(
            runner, continuous_dir, tmp_path, "eval_copilot_continuous", ["--methods", "copilot"]
        )

    @pytest.mark.parametrize(
        "file_name, text",
        [
            ("meta.json", '{"direction": "higher",'),
            ("meta.json", '{"name": "synth"}'),
            ("twins.json", "[1, 2]"),
            ("twins.json", '{"synth-01": ["no-such-task"]}'),
            ("twins.json", '{"synth-01": ["synth-02"]}'),
            ("space.json", "{not json"),
            ("space.json", None),
        ],
    )
    def test_malformed_bundle_exits_2(self, runner, synth_dir, tmp_path, file_name, text):
        bundle = tmp_path / "bundle"
        shutil.copytree(synth_dir, bundle)
        if text is None:
            (bundle / file_name).unlink()
        else:
            (bundle / file_name).write_text(text)
        result = runner.invoke(
            main,
            [
                "eval",
                "--benchmark", str(bundle),
                "--methods", "random",
                "--seeds", "0",
                "--out-csv", str(tmp_path / "r.csv"),
                "--out-json", str(tmp_path / "r.json"),
            ],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error:" in result.output
