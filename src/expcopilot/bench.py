"""Lookup-table benchmarks, Metric@t, the three baselines, and leave-one-out evaluation.

Off-grid numeric values are snapped to the nearest grid solution instead of
being scored by a surrogate model; categorical values must match the grid
exactly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Collection, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    TOP_RECORDS,
    Discretizer,
    ExperienceRecord,
    Solution,
    SolutionSpace,
    Task,
    canonicalize,
    check_direction,
    check_number,
    derive_seed,
    discretize_solution,
    fit_discretizer,
    solution_key,
    solution_reader,
)
from .elicitation import ElicitationConfig, elicit_knowledge
from .errors import BenchmarkError, ConfigError, ExpCopilotError, ValidationError
from .retrieval import EmbeddingVector, PoolEntry, RetrievalIndex
from .storage import load_space, load_tasks, read_json, read_jsonl
from .suggestion import SuggestionConfig, retrieve_demos, suggest

METHODS = ("random", "constant", "nearest", "copilot")


class Row(NamedTuple):
    key: str
    solution: Solution
    metric: float


@dataclass(frozen=True)
class Benchmark:
    """A lookup table of (task, solution) -> metric with normalization constants;
    each task's `rows` are kept best first under the direction, stable on ties."""

    name: str
    space: SolutionSpace
    tasks: tuple[Task, ...]
    direction: str
    rows: Mapping[str, tuple[Row, ...]]
    table: Mapping[str, Mapping[str, float]]
    norm_bounds: Mapping[str, tuple[float, float]]
    twins: Mapping[str, tuple[str, ...]]
    task_kind: str = "classification dataset"

    def __post_init__(self):
        sign = -1.0 if check_direction(self.direction) == "higher" else 1.0
        ranked = {tid: tuple(sorted(rows, key=lambda r: sign * r.metric)) for tid, rows in self.rows.items()}
        object.__setattr__(self, "rows", ranked)

    def task(self, task_id: str) -> Task:
        task = self._tasks_by_id.get(task_id)
        if task is None:
            raise BenchmarkError(f"unknown task '{task_id}'")
        return task

    @cached_property
    def _tasks_by_id(self) -> dict[str, Task]:
        return {t.task_id: t for t in self.tasks}

    @cached_property
    def normalized_table(self) -> tuple[tuple[str, ...], dict[str, int], np.ndarray]:
        """Sorted solution keys, each task's row index, and the tasks x keys matrix
        of normalized metrics; NaN marks a solution missing from a task's table."""
        keys = tuple(sorted({key for per_task in self.table.values() for key in per_task}))
        column = {key: j for j, key in enumerate(keys)}
        matrix = np.full((len(self.tasks), len(keys)), np.nan)
        row_of = {}
        for i, task in enumerate(self.tasks):
            row_of[task.task_id] = i
            for key, metric in self.table[task.task_id].items():
                matrix[i, column[key]] = metric
            matrix[i] = normalize_accuracy(matrix[i], task.task_id, self)
        matrix.setflags(write=False)
        return keys, row_of, matrix


def load_benchmark(path: str | Path) -> Benchmark:
    """Load and validate a benchmark bundle directory.

    Table rows with equal `values` share one `Solution` and key (see
    `core.solution_reader`); a row that fails validation names its line.
    """
    root = Path(path)
    try:
        meta = read_json(root / "meta.json")
        raw_twins = read_json(root / "twins.json") if (root / "twins.json").exists() else {}
    except ValidationError as exc:
        raise BenchmarkError(str(exc)) from exc
    if not isinstance(meta, dict) or "direction" not in meta:
        raise BenchmarkError("meta.json must be a JSON object with a 'direction'")
    direction = check_direction(meta["direction"])
    for key in ("name", "task_kind"):
        if not isinstance(meta.get(key, ""), str):
            raise BenchmarkError(f"meta.json '{key}' must be a string")
    space = load_space(root / "space.json")
    tasks = load_tasks(root / "tasks.jsonl")
    by_id = {t.task_id: t for t in tasks}
    if len(by_id) != len(tasks):
        raise BenchmarkError("duplicate task ids in tasks.jsonl")
    for t in tasks:
        if t.space_id != space.space_id:
            raise BenchmarkError(f"task '{t.task_id}' references space '{t.space_id}'")

    rows: dict[str, list[Row]] = {t.task_id: [] for t in tasks}
    table: dict[str, dict[str, float]] = {t.task_id: {} for t in tasks}
    read_solution = solution_reader(space)
    for lineno, d in read_jsonl(root / "table.jsonl"):
        try:
            task_id = d["task_id"]
            if task_id not in rows:
                raise BenchmarkError(f"unknown task '{task_id}'")
            metric = check_number("metric", d["metric"])
            if not math.isfinite(metric):
                raise BenchmarkError("metric is not finite")
            solution, key = read_solution(d["values"])
        except (BenchmarkError, ValidationError, KeyError, TypeError, ValueError) as exc:
            raise BenchmarkError(f"table.jsonl:{lineno}: {exc}") from exc
        if key in table[task_id]:
            raise BenchmarkError(f"table.jsonl:{lineno}: duplicate solution for task '{task_id}'")
        rows[task_id].append(Row(key, solution, metric))
        table[task_id][key] = metric

    bounds: dict[str, tuple[float, float]] = {}
    declared = meta.get("norm_bounds", {})
    if not isinstance(declared, dict):
        raise BenchmarkError("meta.json 'norm_bounds' must map task ids to [lo, hi]")
    for t in tasks:
        if not rows[t.task_id]:
            raise BenchmarkError(f"task '{t.task_id}' has no table rows")
        if t.task_id in declared:
            try:
                lo, hi = (check_number("bound", x) for x in declared[t.task_id])
            except (TypeError, ValueError, ValidationError) as exc:
                raise BenchmarkError(f"meta.json norm_bounds for '{t.task_id}': {exc}") from exc
        else:
            metrics = [r.metric for r in rows[t.task_id]]
            lo, hi = min(metrics), max(metrics)
        if not lo < hi:
            raise BenchmarkError(f"task '{t.task_id}': degenerate normalization bounds")
        bounds[t.task_id] = (lo, hi)

    if not isinstance(raw_twins, dict) or not all(
        isinstance(ids, list) and all(isinstance(i, str) for i in ids) for ids in raw_twins.values()
    ):
        raise BenchmarkError("twins.json must map task ids to lists of task ids")
    for tid, ids in raw_twins.items():
        unknown = [i for i in (tid, *ids) if i not in by_id]
        if unknown:
            raise BenchmarkError(f"twins.json names unknown task(s) {unknown}")
        for twin in ids:
            if tid not in raw_twins.get(twin, ()):
                raise BenchmarkError(
                    f"twins.json lists '{twin}' as a twin of '{tid}' but not "
                    f"'{tid}' as a twin of '{twin}'"
                )

    return Benchmark(
        name=meta.get("name", root.name),
        space=space,
        tasks=tuple(tasks),
        direction=direction,
        rows=rows,
        table=table,
        norm_bounds=bounds,
        twins={tid: tuple(ids) for tid, ids in raw_twins.items()},
        task_kind=meta.get("task_kind", "classification dataset"),
    )


def evaluate_solution(b: Benchmark, task_id: str, s: Solution) -> float:
    """Table lookup; off-grid numerics snap to the nearest grid solution."""
    if s.space_id != b.space.space_id:
        raise BenchmarkError(f"solution belongs to space '{s.space_id}', not '{b.space.space_id}'")
    per_task = b.table.get(task_id)
    if per_task is None:
        raise BenchmarkError(f"unknown task '{task_id}'")
    key = solution_key(b.space, s)
    if key in per_task:
        return per_task[key]

    numeric = [p for p in b.space.parameters if p.kind == "numeric"]
    categorical = [p for p in b.space.parameters if p.kind == "categorical"]

    def coords(values) -> list[float]:
        out = []
        for p in numeric:
            lo, hi = p.numeric_range
            if p.log_scale:
                out.append((math.log10(values[p.name]) - math.log10(lo)) / (math.log10(hi) - math.log10(lo)))
            else:
                out.append((values[p.name] - lo) / (hi - lo))
        return out

    target = coords(s.values)
    best: tuple[float, str, float] | None = None
    for row in b.rows[task_id]:
        if any(row.solution.values[p.name] != s.values[p.name] for p in categorical):
            continue
        grid = coords(row.solution.values)
        dist = sum((a - g) ** 2 for a, g in zip(target, grid))
        candidate = (dist, row.key, row.metric)
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise BenchmarkError(
            f"off-grid categorical: no table entry for task '{task_id}' matches the "
            "categorical values"
        )
    return best[2]


def metric_at_t(metrics: Sequence[float], t: int, direction: str) -> float:
    """Best metric among the first t suggestions under the given direction."""
    check_direction(direction)
    if not 1 <= t <= len(metrics):
        raise ValidationError(f"t={t} out of range for {len(metrics)} suggestions")
    head = metrics[:t]
    return max(head) if direction == "higher" else min(head)


def normalize_accuracy(raw: float, task_id: str, b: Benchmark) -> float:
    """Min-max normalize a raw metric to [0, 100], 100 being the task's best."""
    lo, hi = b.norm_bounds[task_id]
    if b.direction == "higher":
        return 100.0 * (raw - lo) / (hi - lo)
    return 100.0 * (hi - raw) / (hi - lo)


def baseline_random(b: Benchmark, task_id: str, n: int, seed: int) -> list[Solution]:
    """Seeded uniform draws from the task's solution grid, without replacement."""
    rows = sorted(b.rows[task_id], key=lambda r: r.key)
    rng = random.Random(seed)
    return [row.solution for row in rng.sample(rows, min(n, len(rows)))]


def baseline_constant(b: Benchmark, train_task_ids: Sequence[str], n: int) -> list[Solution]:
    """Greedy portfolio of solutions with the best mean normalized metric on train tasks."""
    train = list(train_task_ids)
    if not train:
        raise ValidationError("train task set is empty")
    keys, row_of, normalized = b.normalized_table
    scores = normalized[[row_of[tid] for tid in train]]
    shared = np.flatnonzero(~np.isnan(scores).any(axis=0))
    if shared.size == 0:
        raise BenchmarkError("no solution is shared by every training task")
    scores = scores[:, shared]
    by_key = {row.key: row.solution for row in b.rows[train[0]]}

    chosen: list[int] = []
    covered = np.full(len(train), -math.inf)
    for _ in range(min(n, shared.size)):
        candidates = np.maximum(covered[:, None], scores)
        # Accumulate adds each column in task order, left to right, so near-ties
        # resolve exactly as a per-key loop over the tasks would; np.sum would not.
        values = np.add.accumulate(candidates, axis=0)[-1] / len(train)
        values[chosen] = -math.inf
        best = int(np.argmax(values))
        chosen.append(best)
        covered = candidates[:, best]
    return [by_key[keys[shared[j]]] for j in chosen]


def baseline_nearest_task(
    b: Benchmark, train_tasks: Sequence[Task], query: Task, n: int
) -> list[Solution]:
    """Best solutions of the nearest train task by z-scored meta-feature distance."""
    if query.meta_features is None:
        raise ValidationError(f"task '{query.task_id}' has no meta-features")
    for t in train_tasks:
        if t.meta_features is None:
            raise ValidationError(f"task '{t.task_id}' has no meta-features")
        if len(t.meta_features) != len(query.meta_features):
            raise ValidationError("meta-feature dimensions differ")
    X = np.asarray([t.meta_features for t in train_tasks], dtype=float)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    Z = (X - mu) / sd
    q = (np.asarray(query.meta_features, dtype=float) - mu) / sd
    dist = np.linalg.norm(Z - q, axis=1)
    order = sorted(range(len(train_tasks)), key=lambda i: (dist[i], train_tasks[i].task_id))

    out: list[Solution] = []
    for i in order:
        for row in b.rows[train_tasks[i].task_id]:
            out.append(row.solution)
            if len(out) == n:
                return out
    return out


def split_signature(discretizers: Mapping[str, Discretizer]) -> tuple:
    """(split points, level labels) per parameter: all that canonical records depend on."""
    return tuple((d.split_points, d.level_labels) for d in discretizers.values())


def training_ids(b: Benchmark, held: Collection[str]) -> list[str]:
    """The ids of `b`'s tasks outside `held`, in task order: a fold's training tasks."""
    return [t.task_id for t in b.tasks if t.task_id not in held]


@dataclass
class FoldCache:
    """The fits, vectors and retrieval indexes that the folds of one leave-one-out sweep over `b` share.

    `pools` maps a split signature to the `RetrievalIndex` over every task's
    entry under it, in task order, each entry holding its task's `per_task`
    best records; a fold retrieves from its signature's index with its
    held-out ids and twins masked out.
    """

    b: Benchmark
    per_task: int = TOP_RECORDS
    fits: dict[tuple, Discretizer] = field(default_factory=dict)
    pools: dict[tuple, RetrievalIndex] = field(default_factory=dict)
    vectors: dict[str, EmbeddingVector] = field(default_factory=dict)

    def embed(self, backend, text: str) -> EmbeddingVector:
        """`backend.embed(text)`, asked once per cache; a failed embedding is not stored."""
        if text not in self.vectors:
            self.vectors[text] = backend.embed(text)
        return self.vectors[text]


def build_fold_artifacts(cache: FoldCache, held: Collection[str], backend):
    """Offline artifacts for the leave-one-out fold that holds out the task ids in `held`:
    the retrieval index of its split signature and its discretizers.

    Discretizers are fitted on the union of the `TOP_RECORDS` best records per
    training task only, as ingest fits on every task's, so nothing from a
    held-out task leaks into canonicalization. Each distinct multiset of
    fitting values (-0.0 apart from 0.0) is fitted once per cache: with
    `cache.b` fixed, the held-out rows fix the fitting multiset, so the memo is
    keyed by the held-out values (as `float.hex`) and the training values are
    gathered only for a new fit. Canonical records depend on the discretizers
    only through the split signature, so the first fold under a signature
    builds every task's entry (held-out tasks too; retrieval masks them out)
    and its `RetrievalIndex` into `cache.pools`, and later folds under it reuse
    it. A new signature reuses an entry of the last one when every record
    keeps its discrete solution, and rebuilds it otherwise.
    """
    b, held = cache.b, set(held)
    if unknown := held.difference(b._tasks_by_id):
        raise ValidationError(f"held-out ids must be tasks of benchmark '{b.name}': {sorted(unknown)}")

    def top(ids: Collection[str]) -> list[Row]:
        return [row for tid in ids for row in b.rows[tid][:TOP_RECORDS]]

    held_rows, discretizers = top(held), {}
    for p in b.space.parameters:
        if p.kind != "numeric":
            continue
        key = p.name, tuple(sorted(float.hex(r.solution.values[p.name]) for r in held_rows))
        if key not in cache.fits:
            cache.fits[key] = fit_discretizer([r.solution.values[p.name] for r in top(training_ids(b, held))], p)
        discretizers[p.name] = cache.fits[key]
    signature = split_signature(discretizers)
    if signature not in cache.pools:
        last = next(reversed(cache.pools.values()), None)
        entries = []
        for i, task in enumerate(b.tasks):
            rows = b.rows[task.task_id][:cache.per_task]
            entry = last.entries[i] if last else None
            if entry is None or any(
                discretize_solution(row.solution, b.space, discretizers) != exp.discrete_solution
                for exp, row in zip(entry.experiences, rows)
            ):
                entry = PoolEntry(
                    task=task,
                    embedding=cache.embed(backend, task.description),
                    experiences=[
                        canonicalize(ExperienceRecord(task, row.solution, row.metric), b.space, discretizers)
                        for row in rows
                    ],
                )
            entries.append(entry)
        cache.pools[signature] = RetrievalIndex(entries)
    return cache.pools[signature], discretizers


@dataclass(frozen=True)
class EvalConfig:
    suggestion: SuggestionConfig = SuggestionConfig()
    elicitation: ElicitationConfig = ElicitationConfig()
    use_knowledge: bool = False


@dataclass(frozen=True)
class EvalRow:
    method: str
    seed: int
    task_id: str
    metrics: tuple[float, float, float]
    naccs: tuple[float, float, float]
    failed: bool = False


@dataclass(frozen=True)
class EvalReport:
    method: str
    rows: tuple[EvalRow, ...]

    def aggregates(self) -> dict:
        by_seed: dict[int, list[EvalRow]] = {}
        for row in self.rows:
            by_seed.setdefault(row.seed, []).append(row)
        agg: dict = {"method": self.method}
        for name, field_name in (("nacc", "naccs"), ("metric", "metrics")):
            agg[name] = {}
            for t in (1, 2, 3):
                means = [
                    float(np.mean([getattr(r, field_name)[t - 1] for r in by_seed[seed]]))
                    for seed in sorted(by_seed)
                ]
                agg[name][str(t)] = {"mean": float(np.mean(means)), "std": float(np.std(means))}
        agg["failures"] = [{"seed": r.seed, "task_id": r.task_id} for r in self.rows if r.failed]
        return agg


def strip_query_section(prompt: str) -> str:
    """Drop the trailing "Dataset: <query>" block so hygiene scans only see offline content."""
    cut = prompt.rfind("\n\nDataset: ")
    return prompt[:cut] if cut >= 0 else prompt


def _assert_no_leakage(scanned: str, held_out: Task, twins: Sequence[Task]) -> None:
    """Prompts name tasks only by "Dataset: <description>" lines, so only such a
    whole line for the held-out task or a twin is a leak."""
    for t in (held_out, *twins):
        if f"\nDataset: {t.description}\n" in f"\n{scanned}\n":
            raise AssertionError(
                f"leave-one-out hygiene violation: held-out task '{t.task_id}' "
                "appears in a prompt"
            )


def _copilot_solutions(
    cache: FoldCache,
    task: Task,
    held: Collection[str],
    seed: int,
    cfg: EvalConfig,
    backend,
    prompt_sink: list | None,
) -> list[Solution]:
    b = cache.b
    index, discretizers = build_fold_artifacts(cache, held, backend)
    twins = [b.task(tid) for tid in b.twins.get(task.task_id, ())]
    knowledge = []
    if cfg.use_knowledge:
        best, trace = elicit_knowledge(
            [e for e in index.entries if e.task.task_id not in held], b.space, b, cfg.elicitation, backend,
            seed=derive_seed(seed, f"elicit:{task.task_id}"), suggestion_config=cfg.suggestion,
            discretizers=discretizers,
        )
        knowledge = [best]
        for record in trace:
            _assert_no_leakage(record.prompt, task, twins)
            if prompt_sink is not None:
                prompt_sink.append((task.task_id, record.prompt))
    query = cache.embed(backend, task.description)
    demos = retrieve_demos(query, index, cfg.suggestion, exclude=held)
    result = suggest(
        task, demos, knowledge, b.space, discretizers, cfg.suggestion, backend,
        fallback=lambda: baseline_constant(b, training_ids(b, held), cfg.suggestion.n_suggestions),
    )
    scanned = strip_query_section(result.prompt)
    _assert_no_leakage(scanned, task, twins)
    if prompt_sink is not None:
        prompt_sink.append((task.task_id, scanned))
    return result.solutions


def run_loo_eval(
    b: Benchmark,
    method: str,
    seeds: Sequence[int],
    cfg: EvalConfig | None = None,
    backend=None,
    prompt_sink: list | None = None,
) -> EvalReport:
    """Leave-one-out sweep: hold each task out, suggest for it, score metric@{1,2,3}.

    A fold is its held-out set: the task and its twins. Offline artifacts come
    from the best records of the remaining tasks only (`TOP_RECORDS` to fit
    on, `demos_per_task` to demonstrate). One `FoldCache` serves the sweep:
    each distinct fitting multiset is fitted once, each description is
    embedded once, and each split signature gets one retrieval index over
    every task's entry, which a fold queries with its held-out ids masked out
    (see `build_fold_artifacts`). A method failure on a task is recorded as
    the worst score and flagged instead of aborting the sweep.
    """
    cfg = cfg or EvalConfig()
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "copilot" and backend is None:
        raise ConfigError("the copilot method needs a backend")
    if len(b.tasks) < 2:
        raise ValidationError("leave-one-out needs at least 2 tasks")
    n = cfg.suggestion.n_suggestions
    if n < 3:
        raise ConfigError("evaluation scores metric@{1,2,3}; configure n_suggestions >= 3")

    rows: list[EvalRow] = []
    cfg = replace(cfg, suggestion=replace(cfg.suggestion, task_kind=b.task_kind))
    cache = FoldCache(b, cfg.suggestion.demos_per_task)
    for seed in seeds:
        for task in b.tasks:
            held = {task.task_id, *b.twins.get(task.task_id, ())}
            try:
                if len(held) == len(b.tasks):
                    raise BenchmarkError(f"no training tasks remain for '{task.task_id}'")
                if method == "random":
                    solutions = baseline_random(
                        b, task.task_id, n, derive_seed(seed, f"random:{task.task_id}")
                    )
                elif method == "constant":
                    solutions = baseline_constant(b, training_ids(b, held), n)
                elif method == "nearest":
                    train_tasks = [b.task(tid) for tid in training_ids(b, held)]
                    solutions = baseline_nearest_task(b, train_tasks, task, n)
                else:
                    solutions = _copilot_solutions(cache, task, held, seed, cfg, backend, prompt_sink)
                metrics = [evaluate_solution(b, task.task_id, s) for s in solutions]
                mts = tuple(metric_at_t(metrics, t, b.direction) for t in (1, 2, 3))
                failed = False
            except ExpCopilotError:
                lo, hi = b.norm_bounds[task.task_id]
                worst = lo if b.direction == "higher" else hi
                mts = (worst, worst, worst)
                failed = True
            naccs = tuple(normalize_accuracy(m, task.task_id, b) for m in mts)
            rows.append(EvalRow(method, seed, task.task_id, mts, naccs, failed))
    return EvalReport(method=method, rows=tuple(rows))


CSV_HEADER = "method,seed,task_id,metric_at_1,metric_at_2,metric_at_3"


def write_report_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    lines = [CSV_HEADER]
    for report in reports:
        for row in report.rows:
            lines.append(
                f"{row.method},{row.seed},{row.task_id},"
                f"{row.metrics[0]!r},{row.metrics[1]!r},{row.metrics[2]!r}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_report_json(reports: Sequence[EvalReport], path: str | Path) -> None:
    payload = {"reports": [report.aggregates() for report in reports]}
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )
