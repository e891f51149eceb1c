"""Command-line interface tests: ingest, elicit, suggest, eval."""

import json
import shutil
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from expcopilot import bench, cli, storage
from expcopilot.cli import main
from expcopilot.core import Task
from expcopilot.errors import ConfigError, GatewayError, ParseError, ValidationError
from expcopilot.gateway import API_KEY_ENV, ScriptedBackend, prompt_sha256
from expcopilot.retrieval import EmbeddingVector, PoolEntry, hashed_bow_embedding

GOLDEN = Path(__file__).parent / "golden"


def _synth_space(**changes) -> str:
    """The synthetic space.json text with its first parameter's fields changed."""
    space = json.loads(json.dumps(synth.SPACE))
    space["parameters"][0].update(changes)
    return json.dumps(space)


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

    def test_canonicalizes_each_distinct_solution_once(
        self, runner, ingest_inputs, tmp_path, monkeypatch
    ):
        from expcopilot import core

        calls = []
        real = core.canonicalize

        def counting(record, space, discretizers):
            calls.append(record.task.task_id)
            return real(record, space, discretizers)

        monkeypatch.setattr(core, "canonicalize", counting)
        out = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        history = [json.loads(line) for line in ingest_inputs[0].read_text().splitlines()]
        distinct = {json.dumps(row["values"], sort_keys=True) for row in history}
        assert len(calls) == len(distinct) < len(history)
        pool = [json.loads(line) for line in (out / "pool.jsonl").read_text().splitlines()]
        assert [(r["task_id"], r["metric"]) for r in pool] == [
            (row["task_id"], float(row["metric"])) for row in history
        ]

    @pytest.mark.parametrize("bundle", ["synth_dir", "continuous_dir"])
    def test_fits_the_discretizers_of_a_fold_over_every_task(self, runner, bundle, request, tmp_path):
        # Ingest and leave-one-out evaluation fit on the same top records per
        # task. With one booster kept, a task's best records hold different
        # numeric values, so fitting on another record count would change the fit.
        src = Path(request.getfixturevalue(bundle))
        root = tmp_path / "bundle"
        shutil.copytree(src, root)
        rows = [line for line in (src / "table.jsonl").read_text().splitlines() if '"tree"' in line]
        (root / "table.jsonl").write_text("\n".join(rows) + "\n")
        out = run_ingest(runner, (root / "table.jsonl", root / "space.json", root / "tasks.jsonl"), tmp_path / "pool")
        b = bench.load_benchmark(root)
        _, fold_discretizers = bench.build_fold_artifacts(bench.FoldCache(b), (), ScriptedBackend())
        assert storage.load_discretizers(out / "discretizers.json") == fold_discretizers

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

    def test_first_bad_history_line_is_reported(self, runner, ingest_inputs, tmp_path):
        # Records are checked as they are read: the bad metric on line 5 is reported, not the
        # broken JSON on line 10.
        history, space, tasks = ingest_inputs
        lines = history.read_text().splitlines()
        lines[4] = json.dumps({**json.loads(lines[4]), "metric": "0.5"})
        lines[9] = "{broken"
        history.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "ingest", "--history", str(history), "--space", str(space), "--tasks", str(tasks),
            "--out", str(tmp_path / "pool"),
        ])
        assert result.exit_code == 2, result.output
        assert f"error: {history}:5: malformed record" in result.stderr


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

    def test_output_matches_golden(self, runner, ingest_inputs, synth_dir, tmp_path):
        # Written by the code that retrieved every validation task's demos in
        # every round. The knowledge text carries its elicitation prompt's
        # hash and the trace every validation score.
        knowledge, trace = elicit_on_synth_pool(runner, ingest_inputs, synth_dir, tmp_path)
        assert knowledge == (GOLDEN / "elicit_knowledge.jsonl").read_bytes()
        assert trace == (GOLDEN / "elicit_trace.jsonl").read_bytes()

    def test_pool_embedded_by_another_model_gives_the_same_knowledge(
        self, runner, ingest_inputs, synth_dir, tmp_path, monkeypatch
    ):
        # Validation tasks are ranked by their pool vectors, so elicitation
        # embeds nothing and never compares vectors of two models.
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        cache_file = pool / "embeddings.jsonl"
        cache_file.write_text(cache_file.read_text().replace("hashed-bow-256", "old-embedder"))
        embedded = []
        embed = ScriptedBackend.embed
        monkeypatch.setattr(
            ScriptedBackend, "embed", lambda self, text: embedded.append(text) or embed(self, text)
        )
        knowledge, trace = tmp_path / "knowledge.jsonl", tmp_path / "trace.jsonl"
        result = runner.invoke(main, [
            "elicit", "--pool", str(pool), "--benchmark", str(synth_dir),
            "--out", str(knowledge), "--trace", str(trace), "--seed", "7",
        ])
        assert result.exit_code == 0, result.output
        assert knowledge.read_bytes() == (GOLDEN / "elicit_knowledge.jsonl").read_bytes()
        assert trace.read_bytes() == (GOLDEN / "elicit_trace.jsonl").read_bytes()
        assert embedded == []

    def test_validation_prompts_name_the_bundles_task_kind(
        self, runner, ingest_inputs, synth_dir, tmp_path, monkeypatch
    ):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        bundle = tmp_path / "bundle"
        shutil.copytree(synth_dir, bundle)
        meta = json.loads((bundle / "meta.json").read_text())
        (bundle / "meta.json").write_text(json.dumps({**meta, "task_kind": "regression dataset"}))
        prompts = []
        complete = ScriptedBackend.complete
        monkeypatch.setattr(
            ScriptedBackend, "complete", lambda self, req: prompts.append(req.prompt) or complete(self, req)
        )
        result = runner.invoke(main, [
            "elicit", "--pool", str(pool), "--benchmark", str(bundle),
            "--out", str(tmp_path / "knowledge.jsonl"),
        ])
        assert result.exit_code == 0, result.output
        validation = [p for p in prompts if "configurations for a new" in p]
        assert validation and all("configurations for a new regression dataset" in p for p in validation)

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


def elicit_on_synth_pool(runner, ingest_inputs, synth_dir, tmp_path):
    """Knowledge and trace bytes of `elicit --seed 7` on a freshly ingested synth pool."""
    pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
    knowledge = tmp_path / "knowledge.jsonl"
    trace = tmp_path / "trace.jsonl"
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
    return knowledge.read_bytes(), trace.read_bytes()


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

    def test_malformed_cassette_embedding_exits_2(self, runner, ingest_inputs, new_task_file, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        task_desc = json.loads(new_task_file.read_text())["description"]
        cassette = tmp_path / "cassette.jsonl"
        cassette.write_text(json.dumps({
            "prompt_sha256": prompt_sha256(task_desc),
            "request": {"kind": "embed", "model": "hashed-bow-256"},
            "response": ["a"],
        }) + "\n")
        result = runner.invoke(main, [
            "suggest", "--task-file", str(new_task_file), "--pool", str(pool),
            "--backend", "replay", "--cassette", str(cassette),
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {cassette}:1: malformed cassette entry")

    def test_replay_cassette_that_is_not_utf8_exits_2(self, runner, ingest_inputs, new_task_file, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        cassette = tmp_path / "cassette.jsonl"
        cassette.write_bytes(b'{"prompt_sha256": "caf\xe9"}\n')
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
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"error: {cassette}: not UTF-8 text" in result.stderr

    def test_stale_embedding_cache_exits_2(self, runner, ingest_inputs, new_task_file, tmp_path):
        # Embeddings from another model cannot be compared with the query's: re-ingest.
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        cache_file = pool / "embeddings.jsonl"
        stale = cache_file.read_text().replace("hashed-bow-256", "old-embedder")
        cache_file.write_text(stale)
        result = runner.invoke(
            main,
            ["suggest", "--task-file", str(new_task_file), "--pool", str(pool)],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: embedding model mismatch" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("metric", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_pool_metric_exits_2(
        self, runner, ingest_inputs, new_task_file, tmp_path, metric
    ):
        # A NaN metric would misorder even the finite rows of its task.
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        lines = (pool / "pool.jsonl").read_text().splitlines()
        lines[4] = json.dumps({**json.loads(lines[4]), "metric": float(metric)})  # NaN, Infinity
        (pool / "pool.jsonl").write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main, ["suggest", "--task-file", str(new_task_file), "--pool", str(pool)]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "pool.jsonl:5: malformed record" in result.stderr
        assert "metric must be finite" in result.stderr

    def test_first_bad_pool_line_is_reported(self, runner, ingest_inputs, new_task_file, tmp_path):
        # Records are checked as they are read: the bad metric on line 5 is reported, not the
        # broken JSON on line 10.
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        lines = (pool / "pool.jsonl").read_text().splitlines()
        lines[4] = json.dumps({**json.loads(lines[4]), "metric": "0.5"})
        lines[9] = "{broken"
        (pool / "pool.jsonl").write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main, ["suggest", "--task-file", str(new_task_file), "--pool", str(pool)]
        )
        assert result.exit_code == 2, result.output
        assert "pool.jsonl:5: malformed record" in result.stderr

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

    @pytest.mark.parametrize(
        "file_name, line",
        [
            ("pool.jsonl", '{"task_id": "synth-01"}'),
            ("pool.jsonl", "[1, 2]"),
            ("pool.jsonl", '{"task_id": "synth-01", "space_id": "synth-gbt", "solution_text": "x", '
                           '"discrete_solution": {}, "metric": "abc"}'),
            # A metric is a JSON number; "0.5" used to load as 0.5.
            ("pool.jsonl", '{"task_id": "synth-01", "space_id": "synth-gbt", "solution_text": "x", '
                           '"discrete_solution": {}, "metric": "0.5"}'),
            # The worst row of its task: malformed rows fail even when they would not be kept.
            ("pool.jsonl", '{"task_id": "synth-01", "space_id": "synth-gbt", "solution_text": "x", '
                           '"discrete_solution": 5, "metric": -1e9}'),
            ("embeddings.jsonl", '{"task_id": "x"}'),
            ("tasks.jsonl", '{"task_id": "x"}'),
        ],
    )
    def test_malformed_pool_record_exits_2(
        self, runner, ingest_inputs, new_task_file, tmp_path, file_name, line
    ):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        with (pool / file_name).open("a") as fh:
            fh.write(line + "\n")
        lineno = len((pool / file_name).read_text().splitlines())
        result = runner.invoke(
            main, ["suggest", "--task-file", str(new_task_file), "--pool", str(pool)]
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{file_name}:{lineno}: malformed record" in result.stderr

    def test_pool_file_that_is_not_utf8_exits_2(self, runner, ingest_inputs, new_task_file, tmp_path):
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        with (pool / "pool.jsonl").open("ab") as fh:
            fh.write(b'{"task_id": "caf\xe9"}\n')
        result = runner.invoke(
            main, ["suggest", "--task-file", str(new_task_file), "--pool", str(pool)]
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "pool.jsonl: not UTF-8" in result.stderr

    @pytest.mark.parametrize(
        "name, direction, demos_per_task",
        [
            ("suggest_demos2", "higher", 2),
            ("suggest_demos5", "higher", 5),
            ("suggest_lower", "lower", 3),
        ],
    )
    def test_output_matches_golden(
        self, runner, ingest_inputs, new_task_file, tmp_path, name, direction, demos_per_task
    ):
        # Goldens were written by the code that built a CanonicalExperience for
        # every pool row before ranking; stdout and prompt bytes must not move.
        stdout, prompt = suggest_on_synth_pool(
            runner, ingest_inputs, new_task_file, tmp_path, direction, demos_per_task
        )
        assert stdout == (GOLDEN / f"{name}.jsonl").read_bytes()
        assert prompt == (GOLDEN / f"{name}_prompt.txt").read_bytes()

    def test_knowledge_n_and_budget(self, runner, ingest_inputs, synth_dir, new_task_file, tmp_path):
        elicit_on_synth_pool(runner, ingest_inputs, synth_dir, tmp_path)
        knowledge = tmp_path / "knowledge.jsonl"
        (item,) = storage.load_knowledge(knowledge)
        args = ["suggest", "--task-file", str(new_task_file), "--pool", str(tmp_path / "pool"),
                "--knowledge", str(knowledge), "--n", "2", "--show-prompt"]
        prompts = []
        for extra in ([], ["--budget", "400"]):
            result = runner.invoke(main, args + extra)
            assert result.exit_code == 0, result.output
            assert len(result.stdout.splitlines()) == 2
            guidelines = result.stderr.split("\n\nGuidelines:\n", 1)[1]
            assert item.text in guidelines.split("\n\n", 1)[0]
            prompts.append(result.stderr)
        full, budgeted = (prompt.count("\nDataset: ") for prompt in prompts)
        assert budgeted < full

    def test_level_lexicon_survives_ingest_and_shows_in_the_prompt(
        self, runner, ingest_inputs, new_task_file, tmp_path
    ):
        history, space, tasks = ingest_inputs
        lexicon = ["tiny", "small", "moderate", "large", "huge"]
        space.write_text(json.dumps({**synth.SPACE, "level_lexicon": lexicon}))
        pool = run_ingest(runner, ingest_inputs, tmp_path / "pool")
        assert json.loads((pool / "space.json").read_text())["level_lexicon"] == lexicon
        result = runner.invoke(
            main, ["suggest", "--task-file", str(new_task_file), "--pool", str(pool), "--show-prompt"]
        )
        assert result.exit_code == 0, result.output
        assert "Configuration 1: depth is tiny. shrinkage is tiny. booster is tree." in result.stderr
        assert "very low" not in result.stderr
        assert len(result.stdout.splitlines()) == 3


def suggest_on_synth_pool(runner, ingest_inputs, task_file, tmp_path, direction, demos_per_task):
    """stdout and `--show-prompt` stderr bytes of one suggest call on a freshly ingested pool."""
    history, space, tasks = ingest_inputs
    pool = tmp_path / "pool"
    ingest = runner.invoke(
        main,
        [
            "ingest",
            "--history", str(history),
            "--space", str(space),
            "--tasks", str(tasks),
            "--out", str(pool),
            "--direction", direction,
        ],
    )
    assert ingest.exit_code == 0, ingest.output
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"direction": direction, "suggestion": {"demos_per_task": demos_per_task}})
    )
    result = runner.invoke(
        main,
        [
            "suggest",
            "--config", str(config),
            "--task-file", str(task_file),
            "--pool", str(pool),
            "--show-prompt",
        ],
    )
    assert result.exit_code == 0, result.output
    return result.stdout_bytes, result.stderr_bytes


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

    def test_missing_output_directories_are_created(self, runner, synth_dir, tmp_path):
        out_csv = tmp_path / "a" / "b" / "r.csv"
        out_json = tmp_path / "c" / "r.json"
        result = runner.invoke(
            main,
            [
                "eval",
                "--benchmark", str(synth_dir),
                "--methods", "copilot",
                "--seeds", "0",
                "--out-csv", str(out_csv),
                "--out-json", str(out_json),
            ],
        )
        assert result.exit_code == 0, result.output
        assert out_csv.read_text().startswith("method,seed,task_id,")
        assert json.loads(out_json.read_text())["reports"][0]["method"] == "copilot"

    @pytest.mark.parametrize("blocker_kind", ["file", "directory"])
    def test_output_under_a_file_exits_2_before_the_sweep(
        self, runner, synth_dir, tmp_path, monkeypatch, blocker_kind
    ):
        # A file where the output's directory should be, or a directory
        # where the output file should be.
        backend = ScriptedBackend()
        monkeypatch.setattr(cli, "backend_from_config", lambda config: backend)
        blocker = tmp_path / "blocker"
        if blocker_kind == "file":
            blocker.write_text("")
            out_csv = blocker / "r.csv"
        else:
            blocker.mkdir()
            out_csv = blocker
        result = runner.invoke(
            main,
            [
                "eval",
                "--benchmark", str(synth_dir),
                "--methods", "copilot",
                "--seeds", "0",
                "--out-csv", str(out_csv),
                "--out-json", str(tmp_path / "r.json"),
            ],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error:" in result.stderr and "blocker" in result.stderr
        assert backend.completion_calls == 0

    @pytest.mark.parametrize(
        "file_name, text",
        [
            ("meta.json", '{"direction": "higher",'),
            ("meta.json", '{"name": "synth"}'),
            # Either would load and then fail every copilot fold, or name the report oddly.
            pytest.param("meta.json", '{"direction": "higher", "task_kind": 5}', id="task_kind-not-a-string"),
            pytest.param("meta.json", '{"direction": "higher", "name": ["x"]}', id="name-not-a-string"),
            ("twins.json", "[1, 2]"),
            ("twins.json", '{"synth-01": ["no-such-task"]}'),
            ("twins.json", '{"synth-01": ["synth-02"]}'),
            ("space.json", "{not json"),
            ("space.json", None),
            # Numbers and booleans are checked, not cast: bool("false") is True.
            pytest.param("space.json", _synth_space(log_scale="false"), id="log_scale-string"),
            pytest.param("space.json", _synth_space(numeric_range=["0.1", "1"]), id="range-strings"),
            pytest.param("tasks.jsonl", json.dumps({
                "task_id": "synth-01", "space_id": "synth-gbt", "description": "d",
                "meta_features": ["1.5", True],
            }), id="meta_features-not-numbers"),
            # Choices and aliases are JSON strings: [1, 2] used to load as ("1", "2") and a
            # lone string to split into characters.
            pytest.param("space.json", _synth_space(kind="categorical", numeric_range=None, choices=[1, 2]),
                         id="choices-not-strings"),
            pytest.param("space.json", json.dumps({**synth.SPACE, "level_lexicon": "vwxyz"}), id="lexicon-a-string"),
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
        assert "error:" in result.output and file_name in result.output

    @pytest.mark.parametrize(
        "config, seeds",
        [
            (None, "a"),
            ([1, 2], "0"),
            ({"seed": "x"}, "0"),
            ({"backend": {"kind": "scripted", "embed_dim": "abc"}}, "0"),
            ({"backend": {"kind": "http", "endpoint": "http://localhost:9", "model": "m",
                          "embed_model": "e", "timeout": "soon"}}, "0"),
            ({"backend": {"kind": "http", "endpoint": "http://localhost:9", "model": "m",
                          "embed_model": "e", "max_attempts": "many"}}, "0"),
            # max_in_flight is gone, so it exits 2 as a key that no backend kind reads.
            ({"backend": {"kind": "http", "endpoint": "http://localhost:9", "model": "m",
                          "embed_model": "e", "max_in_flight": [4]}}, "0"),
            ({"backend": {"kind": "scripted", "embed_dim": 0}}, "0"),
            ({"eval": {"use_knowledge": "no"}}, "0"),
            ({"eval": {"use_knowledge": 1}}, "0"),
            # Each would fail every fold, not the config, if it loaded.
            ({"suggestion": {"chars_per_token": 0}}, "0"),
            ({"suggestion": {"max_tokens": 0}}, "0"),
            ({"suggestion": {"k_tasks": True}}, "0"),
            ({"elicitation": {"max_tokens": 0}}, "0"),
            # A typo would silently run without knowledge.
            ({"eval": {"use_knowlege": True}}, "0"),
            # The seed of elicitation derives from the root seed.
            ({"elicitation": {"seed": 1}}, "0"),
            # Integer settings must be JSON integers; a bool is not one.
            ({"suggestion": {"demos_per_task": 2.5}}, "0"),
            ({"suggestion": {"n_suggestions": 2.5}}, "0"),
            ({"elicitation": {"rounds": 2.5}}, "0"),
            ({"elicitation": {"subset_size": 1.5}}, "0"),
            ({"suggestion": {"n_suggestions": True}}, "0"),
            ({"seed": 1.7}, "0"),
            ({"suggestion": {"token_budget": 3000.0}}, "0"),
            ({"elicitation": {"patience": True}}, "0"),
            # A string where a list belongs would split into characters.
            ({"suggestion": {"stop_sequences": "END"}}, "0"),
            ({"elicitation": {"questions": "Q: why?"}}, "0"),
            ({"suggestion": {"temperature": True}}, "0"),
            ({"suggestion": {"task_kind": 5}}, "0"),
            # Backend numbers are checked, not truncated. embed_dim is gone, so
            # its cases exit 2 as a key that no backend kind reads.
            ({"backend": {"kind": "scripted", "embed_dim": 2.7}}, "0"),
            ({"backend": {"kind": "scripted", "embed_dim": True}}, "0"),
            ({"backend": {"kind": "http", "endpoint": "http://localhost:9", "model": "m",
                          "embed_model": "e", "max_attempts": 2.9}}, "0"),
            ({"backend": {"kind": "http", "endpoint": "http://localhost:9", "model": "m",
                          "embed_model": "e", "max_in_flight": 2.5}}, "0"),
            ({"backend": {"kind": "http", "endpoint": "http://localhost:9", "model": "m",
                          "embed_model": "e", "timeout": True}}, "0"),
            # A typo would silently run with the default number of attempts.
            ({"backend": {"kind": "scripted", "max_attemps": 3}}, "0"),
            # A timeout must be a JSON number, not a string that float() reads.
            ({"backend": {"kind": "http", "endpoint": "http://localhost:9", "model": "m",
                          "embed_model": "e", "timeout": " 30 "}}, "0"),
            # default_completion is gone, so it exits 2 as a key that no backend kind reads.
            ({"backend": {"kind": "scripted", "default_completion": 5}}, "0"),
            # Each section is a JSON object; a list of pairs is not one.
            ({"eval": [["use_knowledge", True]]}, "0"),
            ({"backend": [["kind", "scripted"]]}, "0"),
            ({"suggestion": None}, "0"),
            ({"elicitation": "rounds"}, "0"),
        ],
    )
    def test_bad_config_or_option_exits_2(self, runner, synth_dir, tmp_path, monkeypatch, config, seeds):
        # With a key set, a valid http backend config would be built and the run would pass.
        monkeypatch.setenv(API_KEY_ENV, "test-key")
        args = ["eval", "--benchmark", str(synth_dir), "--methods", "random", "--seeds", seeds,
                "--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            args += ["--config", str(tmp_path / "config.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error:") and "Traceback" not in result.output
        assert not (tmp_path / "r.csv").exists()


    @pytest.mark.parametrize(
        "config, named",
        [
            ({"suggestion": {"demos": 3}}, "demos"),
            ({"elicitation": {"round": 3}}, "round"),
            ({"eval": {"use_knowlege": True}}, "use_knowlege"),
            ({"backend": {"kind": "scripted", "max_attemps": 3}}, "max_attemps"),
            ({"suggestion": [["n_suggestions", 3]]}, "suggestion"),
            ({"backend": "scripted"}, "backend"),
        ],
    )
    def test_config_error_names_the_key(self, tmp_path, config, named):
        (tmp_path / "config.json").write_text(json.dumps(config))
        with pytest.raises(ConfigError, match=f"'{named}'"):
            cli.load_config(str(tmp_path / "config.json"))

    def test_a_type_error_inside_a_config_class_propagates(self, tmp_path, monkeypatch):
        # Only bad input is a config error; a bug in the config classes is a traceback.
        def broken(self):
            raise TypeError("bug in SuggestionConfig")

        monkeypatch.setattr(cli.SuggestionConfig, "__post_init__", broken)
        (tmp_path / "config.json").write_text(json.dumps({"suggestion": {"n_suggestions": 3}}))
        with pytest.raises(TypeError, match="bug in SuggestionConfig"):
            cli.load_config(str(tmp_path / "config.json"))

    def test_config_file_that_is_not_utf8_exits_2(self, runner, synth_dir, tmp_path):
        (tmp_path / "config.json").write_bytes(b'{"seed": "\xff"}')
        result = runner.invoke(main, [
            "eval", "--benchmark", str(synth_dir), "--methods", "random", "--seeds", "0",
            "--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json"),
            "--config", str(tmp_path / "config.json"),
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {tmp_path / 'config.json'}: not UTF-8 text")


class TestErrorExit:
    COMMANDS = {
        "ingest": ["--history", "{f}", "--space", "{f}", "--tasks", "{f}", "--out", "{d}"],
        "elicit": ["--pool", "{f}", "--benchmark", "{f}", "--out", "{d}/k.jsonl"],
        "suggest": ["--task-file", "{f}", "--pool", "{f}"],
        "eval": ["--benchmark", "{f}", "--seeds", "0"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "error, code", [(ValidationError, 2), (GatewayError, 3), (ParseError, 4)]
    )
    def test_each_command_maps_errors_to_exit_codes(
        self, runner, tmp_path, monkeypatch, command, error, code
    ):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, f"cmd_{command}", fail)
        path = tmp_path / "input"
        path.write_text("")
        args = [a.format(f=path, d=tmp_path) for a in self.COMMANDS[command]]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: boom\n"
        assert "Traceback" not in result.output

    def test_backend_option_keeps_the_other_backend_settings(
        self, runner, new_task_file, tmp_path, monkeypatch
    ):
        seen = []
        monkeypatch.setattr(cli, "cmd_suggest", lambda cfg, *args: seen.append(cfg.backend))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"kind": "http", "model": "m", "timeout": 5}}))
        result = runner.invoke(main, [
            "suggest", "--config", str(config), "--task-file", str(new_task_file),
            "--pool", str(tmp_path), "--backend", "replay", "--cassette", "c.jsonl",
        ])
        assert result.exit_code == 0, result.output
        assert seen == [{"kind": "replay", "model": "m", "timeout": 5, "cassette": "c.jsonl"}]


def reference_build_entries(tasks, pool_path, embeddings, direction, per_task):
    """Pool entries as built before ranking moved to raw rows: a CanonicalExperience
    for every row, grouped by task, then sorted by (sign * metric, position)."""
    lines = Path(pool_path).read_text().splitlines()
    pool = [storage.experience_from_dict(json.loads(line)) for line in lines]
    by_task = {}
    for exp in pool:
        by_task.setdefault(exp.task_id, []).append(exp)
    sign = -1.0 if direction == "higher" else 1.0
    entries = []
    for task in tasks:
        experiences = by_task.get(task.task_id)
        if not experiences:
            continue
        ranked = sorted(enumerate(experiences), key=lambda item: (sign * item[1].metric, item[0]))
        entries.append(
            PoolEntry(
                task=task,
                embedding=embeddings[task.task_id],
                experiences=tuple(exp for _, exp in ranked[:per_task]),
            )
        )
    return entries


def entry_view(entries):
    # repr keeps -0.0 metrics apart from 0.0.
    return [
        (
            e.task.task_id,
            e.embedding,
            [(x.task_id, x.space_id, x.solution_text, dict(x.discrete_solution), repr(x.metric))
             for x in e.experiences],
        )
        for e in entries
    ]


# read_pool_rows rejects non-finite metrics, so only finite ones (with signed zeros and ties) rank.
_POOL_METRICS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestBuildEntries:
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(["t0", "t1", "t2", "t3", "t4"]), _POOL_METRICS), max_size=40
        ),
        task_ids=st.lists(st.sampled_from(["t0", "t1", "t2", "t3"]), unique=True),
        direction=st.sampled_from(["higher", "lower"]),
        per_task=st.integers(1, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_ranking_built_experiences(
        self, tmp_path_factory, rows, task_ids, direction, per_task
    ):
        # Task t4 has rows but is not a pool task; tasks drawn without rows get no entry.
        path = tmp_path_factory.getbasetemp() / "pool.jsonl"
        path.write_text(
            "".join(
                json.dumps(
                    {
                        "task_id": task_id,
                        "space_id": "s",
                        "solution_text": f"row {i}",
                        "discrete_solution": {"p": str(i)},
                        "metric": metric,
                    }
                )
                + "\n"
                for i, (task_id, metric) in enumerate(rows)
            )
        )
        tasks = [Task(task_id=t, space_id="s", description=f"task {t}") for t in task_ids]
        embeddings = {
            t: EmbeddingVector(values=(1.0, float(i)), model_tag="m") for i, t in enumerate(task_ids)
        }
        expected = reference_build_entries(tasks, path, embeddings, direction, per_task)
        got = cli._build_entries(tasks, path, embeddings, direction, per_task)
        assert entry_view(got) == entry_view(expected)


def test_build_entries_holds_only_the_kept_rows(tmp_path):
    # 6,000 rows of 100 tasks; each task keeps 3. Decoding and holding every row took 6.7 MB.
    path = tmp_path / "pool.jsonl"
    task_ids = [f"t{i:03d}" for i in range(100)]
    path.write_text("".join(
        json.dumps({
            "task_id": task_id, "space_id": "s", "solution_text": f"row {row} of {task_id}",
            "discrete_solution": {"p": "low", "q": "high"}, "metric": (row * 37 % 60) / 60,
        }) + "\n"
        for row in range(60)
        for task_id in task_ids
    ))
    tasks = [Task(task_id=t, space_id="s", description=f"task {t}") for t in task_ids]
    embeddings = {t: EmbeddingVector(values=(1.0, float(i)), model_tag="m") for i, t in enumerate(task_ids)}
    tracemalloc.start()
    try:
        entries = cli._build_entries(tasks, path, embeddings, "higher", 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(e.experiences) for e in entries] == [3] * 100
    assert peak < 1_000_000
