"""Command surface: ingest history, elicit knowledge, suggest solutions, run evals.

All randomness flows from one root seed through named sub-streams, so every
command is byte-deterministic given its config and a scripted or replay
backend. Secrets come from the environment only.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import click

from . import bench, storage
from .core import TOP_RECORDS, check_direction, check_int, derive_seed, rank_by_task
from .elicitation import ElicitationConfig, elicit_knowledge
from .errors import ConfigError, ExpCopilotError
from .gateway import backend_from_config, embed_batch, prompt_sha256
from .retrieval import PoolEntry
from .suggestion import SuggestionConfig, retrieve_demos, suggest


@dataclass
class AppConfig:
    seed: int = 0
    direction: str = "higher"
    backend: dict = field(default_factory=lambda: {"kind": "scripted"})
    suggestion: SuggestionConfig = field(default_factory=SuggestionConfig)
    elicitation: ElicitationConfig = field(default_factory=ElicitationConfig)
    use_knowledge: bool = False  # the config's eval.use_knowledge


def load_config(path: str | None) -> AppConfig:
    raw = {}
    if path:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"invalid config {path}: expected a JSON object")
    try:
        eval_section = dict(raw.get("eval", {}))
        use_knowledge = eval_section.pop("use_knowledge", False)
        if eval_section or not isinstance(use_knowledge, bool):
            raise ConfigError(f"invalid config {path}: eval takes only use_knowledge, true or false")
        cfg = AppConfig(
            seed=check_int("seed", raw.get("seed", 0)),
            direction=check_direction(raw.get("direction", "higher")),
            backend=dict(raw.get("backend", {"kind": "scripted"})),
            suggestion=SuggestionConfig(**dict(raw.get("suggestion", {}))),
            elicitation=ElicitationConfig(**dict(raw.get("elicitation", {}))),
            use_knowledge=use_knowledge,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    return cfg


def _build_entries(tasks, pool_path, embeddings, direction: str, per_task: int) -> list[PoolEntry]:
    """Assemble retrieval pool entries: each task with its `per_task` best experiences.
    Every pool row is checked and ranked; only the kept rows are built."""
    ranked = rank_by_task(storage.read_pool_rows(pool_path), direction)
    entries = []
    for task in tasks:
        rows = ranked.get(task.task_id)
        if not rows:
            continue
        if task.task_id not in embeddings:
            raise ConfigError(f"no cached embedding for task '{task.task_id}'")
        entries.append(
            PoolEntry(
                task=task,
                embedding=embeddings[task.task_id],
                experiences=tuple(storage.experience_from_dict(row) for row in rows[:per_task]),
            )
        )
    return entries


def cmd_ingest(cfg: AppConfig, history_paths, space_path, tasks_path, out_dir) -> None:
    """Canonicalize history into a pool directory with discretizers and embeddings."""
    space = storage.load_space(space_path)
    tasks = storage.load_tasks(tasks_path)
    by_id = {t.task_id: t for t in tasks}
    records = storage.load_history(history_paths, by_id, space)
    if not records:
        raise ConfigError("history is empty: nothing to ingest")

    ranked = rank_by_task(((r.task.task_id, r.metric, r) for r in records), cfg.direction)
    best = [r.solution.values for rows in ranked.values() for r in rows[:TOP_RECORDS]]
    from .core import CanonicalExperience, canonicalize, fit_discretizer

    discretizers = {
        p.name: fit_discretizer((float(values[p.name]) for values in best), p)
        for p in space.parameters
        if p.kind == "numeric"
    }
    # Canonical forms depend only on the solution, and records with equal values share
    # one Solution object (see load_history), so each distinct solution is canonicalized once.
    canonical: dict[int, tuple] = {}
    experiences = []
    for r in records:
        key = id(r.solution)
        if key not in canonical:
            exp = canonicalize(r, space, discretizers)
            canonical[key] = exp.solution_text, exp.discrete_solution
        experiences.append(CanonicalExperience(r.task.task_id, space.space_id, *canonical[key], r.metric))

    backend = backend_from_config(cfg.backend)
    vectors = embed_batch(backend, [t.description for t in tasks])
    embeddings = [(t.task_id, vec) for t, vec in zip(tasks, vectors)]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    storage.save_space(space, out / "space.json")
    storage.save_tasks(tasks, out / "tasks.jsonl")
    storage.save_pool(experiences, out / "pool.jsonl")
    storage.save_discretizers(discretizers, out / "discretizers.json")
    storage.save_embeddings(embeddings, out / "embeddings.jsonl")


def _load_pool_dir(pool_dir):
    pool_dir = Path(pool_dir)
    space = storage.load_space(pool_dir / "space.json")
    tasks = storage.load_tasks(pool_dir / "tasks.jsonl")
    discretizers = storage.load_discretizers(pool_dir / "discretizers.json")
    embeddings = storage.load_embeddings(pool_dir / "embeddings.jsonl")
    return space, tasks, pool_dir / "pool.jsonl", discretizers, embeddings


def _save_trace(trace, path) -> None:
    rows = [asdict(r) for r in trace]
    for row in rows:
        row["prompt_sha256"] = prompt_sha256(row.pop("prompt"))
    storage.write_jsonl(path, rows)


def cmd_elicit(cfg: AppConfig, pool_dir, benchmark_dir, out_knowledge, out_trace) -> None:
    """Elicit one validated knowledge item for the pool's solution space."""
    space, tasks, pool_path, discretizers, embeddings = _load_pool_dir(pool_dir)
    benchmark = bench.load_benchmark(benchmark_dir)
    entries = _build_entries(tasks, pool_path, embeddings, cfg.direction, cfg.suggestion.demos_per_task)
    backend = backend_from_config(cfg.backend)
    best, trace = elicit_knowledge(
        entries, space, benchmark, cfg.elicitation, backend, seed=derive_seed(cfg.seed, "elicit"),
        suggestion_config=replace(cfg.suggestion, task_kind=benchmark.task_kind), discretizers=discretizers,
    )
    storage.save_knowledge([best], out_knowledge)
    if out_trace:
        _save_trace(trace, out_trace)


def cmd_suggest(
    cfg: AppConfig, task_file, pool_dir, knowledge_path, show_prompt: bool
) -> list[dict]:
    """Suggest configurations for the task described in task_file; returns JSON rows."""
    space, tasks, pool_path, discretizers, embeddings = _load_pool_dir(pool_dir)
    task = storage.load_json(task_file, storage.task_from_dict, "task")
    backend = backend_from_config(cfg.backend)
    entries = _build_entries(tasks, pool_path, embeddings, cfg.direction, cfg.suggestion.demos_per_task)
    knowledge = storage.load_knowledge(knowledge_path) if knowledge_path else []
    demos = retrieve_demos(backend.embed(task.description), entries, cfg.suggestion, exclude={task.task_id})
    result = suggest(task, demos, knowledge, space, discretizers, cfg.suggestion, backend)
    if show_prompt:
        click.echo(result.prompt, err=True)
    rows = [
        {"task_id": task.task_id, "rank": i, "values": dict(solution.values), "discrete": dict(discrete)}
        for i, (discrete, solution) in enumerate(result.items, start=1)
    ]
    for row in rows:
        click.echo(storage.dumps(row))
    return rows


def cmd_eval(cfg: AppConfig, benchmark_dir, methods, seeds, out_csv, out_json) -> None:
    """Run the leave-one-out sweep for each method and write CSV + JSON reports."""
    benchmark = bench.load_benchmark(benchmark_dir)
    backend = backend_from_config(cfg.backend)
    eval_cfg = bench.EvalConfig(
        suggestion=cfg.suggestion,
        elicitation=cfg.elicitation,
        use_knowledge=cfg.use_knowledge,
    )
    for out in (out_csv, out_json):
        if Path(out).is_dir():
            raise ConfigError(f"cannot write {out}: it is a directory")
        try:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the directory for {out}: {exc}") from exc
    reports = [
        bench.run_loo_eval(benchmark, method, seeds, eval_cfg, backend=backend)
        for method in methods
    ]
    bench.write_report_csv(reports, out_csv)
    bench.write_report_json(reports, out_json)


class _Main(click.Group):
    """Prints an `ExpCopilotError` as one `error:` line and exits with its code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ExpCopilotError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)


@click.group(cls=_Main)
def main():
    """Experience-driven configuration suggestions for ML tasks."""


@main.command("ingest")
@click.option("--config", "config_path", default=None, help="JSON config file.")
@click.option("--history", "history_paths", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--space", "space_path", required=True, type=click.Path(exists=True))
@click.option("--tasks", "tasks_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--direction", default=None, type=click.Choice(["higher", "lower"]))
def ingest_command(config_path, history_paths, space_path, tasks_path, out_dir, direction):
    """Canonicalize history files into a persisted experience pool."""
    cfg = load_config(config_path)
    if direction:
        cfg.direction = direction
    cmd_ingest(cfg, list(history_paths), space_path, tasks_path, out_dir)


@main.command("elicit")
@click.option("--config", "config_path", default=None)
@click.option("--pool", "pool_dir", required=True, type=click.Path(exists=True))
@click.option("--benchmark", "benchmark_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_knowledge", required=True, type=click.Path())
@click.option("--trace", "out_trace", default=None, type=click.Path())
@click.option("--seed", default=None, type=int)
def elicit_command(config_path, pool_dir, benchmark_dir, out_knowledge, out_trace, seed):
    """Elicit validated knowledge from the experience pool."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg.seed = seed
    cmd_elicit(cfg, pool_dir, benchmark_dir, out_knowledge, out_trace)


@main.command("suggest")
@click.option("--config", "config_path", default=None)
@click.option("--task-file", required=True, type=click.Path(exists=True))
@click.option("--pool", "pool_dir", required=True, type=click.Path(exists=True))
@click.option("--knowledge", "knowledge_path", default=None, type=click.Path(exists=True))
@click.option("--n", "n_suggestions", default=None, type=int)
@click.option("--budget", default=None, type=int)
@click.option("--backend", "backend_kind", default=None, type=click.Choice(["http", "scripted", "replay"]))
@click.option("--cassette", default=None, type=click.Path())
@click.option("--show-prompt", is_flag=True, default=False)
def suggest_command(
    config_path, task_file, pool_dir, knowledge_path, n_suggestions,
    budget, backend_kind, cassette, show_prompt,
):
    """Suggest configurations for a new task; prints JSON Lines on stdout."""
    cfg = load_config(config_path)
    if n_suggestions is not None:
        cfg.suggestion = replace(cfg.suggestion, n_suggestions=n_suggestions)
    if budget is not None:
        cfg.suggestion = replace(cfg.suggestion, token_budget=budget)
    if backend_kind is not None:
        # The kind replaces the config's; its other backend settings stay.
        cfg.backend = {**cfg.backend, "kind": backend_kind}
        if cassette:
            cfg.backend["cassette"] = cassette
    cmd_suggest(cfg, task_file, pool_dir, knowledge_path, show_prompt)


@main.command("eval")
@click.option("--config", "config_path", default=None)
@click.option("--benchmark", "benchmark_dir", required=True, type=click.Path(exists=True))
@click.option("--methods", default="random,constant,nearest,copilot")
@click.option("--seeds", default="0,1,2,3,4")
@click.option("--out-csv", default="report.csv", type=click.Path())
@click.option("--out-json", default="report.json", type=click.Path())
def eval_command(config_path, benchmark_dir, methods, seeds, out_csv, out_json):
    """Leave-one-out evaluation of the configured methods."""
    cfg = load_config(config_path)
    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    try:
        seed_list = [int(s) for s in seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--seeds must be comma-separated integers, got {seeds!r}") from exc
    cmd_eval(cfg, benchmark_dir, method_list, seed_list, out_csv, out_json)


if __name__ == "__main__":
    main()
