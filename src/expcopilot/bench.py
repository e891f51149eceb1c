"""Lookup-table benchmarks, Metric@t, the three baselines, and leave-one-out evaluation.

Off-grid numeric values are snapped to the nearest grid solution instead of
being scored by a surrogate model; categorical values must match the grid
exactly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Collection, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    CanonicalExperience,
    ExperienceRecord,
    Solution,
    SolutionSpace,
    Task,
    canonicalize,
    check_direction,
    derive_seed,
    fit_discretizer,
    solution_key,
)
from .elicitation import ElicitationConfig, elicit_knowledge
from .errors import BenchmarkError, ConfigError, ExpCopilotError, ValidationError
from .retrieval import EmbeddingVector, PoolEntry
from .storage import load_space, load_tasks, read_jsonl
from .suggestion import SuggestionConfig, suggest

METHODS = ("random", "constant", "nearest", "copilot")


class Row(NamedTuple):
    key: str
    solution: Solution
    metric: float


@dataclass(frozen=True)
class Benchmark:
    """A lookup table of (task, solution) -> metric with normalization constants."""

    name: str
    space: SolutionSpace
    tasks: tuple[Task, ...]
    direction: str
    rows: Mapping[str, tuple[Row, ...]]
    table: Mapping[str, Mapping[str, float]]
    norm_bounds: Mapping[str, tuple[float, float]]
    twins: Mapping[str, tuple[str, ...]]
    task_kind: str = "classification dataset"

    def task(self, task_id: str) -> Task:
        task = self._tasks_by_id.get(task_id)
        if task is None:
            raise BenchmarkError(f"unknown task '{task_id}'")
        return task

    @cached_property
    def _tasks_by_id(self) -> dict[str, Task]:
        return {t.task_id: t for t in self.tasks}

    @cached_property
    def ranked_rows(self) -> Mapping[str, tuple[Row, ...]]:
        """Each task's rows, best metric first under the direction, stable on ties."""
        sign = -1.0 if self.direction == "higher" else 1.0
        return {
            tid: tuple(sorted(rows, key=lambda row: sign * row.metric))
            for tid, rows in self.rows.items()
        }

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
    """Load and validate a benchmark bundle directory."""
    root = Path(path)
    try:
        meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read benchmark meta: {exc}") from exc
    if not isinstance(meta, dict) or "direction" not in meta:
        raise BenchmarkError("meta.json must be a JSON object with a 'direction'")
    direction = check_direction(meta["direction"])
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
    for lineno, d in enumerate(read_jsonl(root / "table.jsonl"), start=1):
        try:
            task_id = d["task_id"]
            if task_id not in rows:
                raise BenchmarkError(f"unknown task '{task_id}'")
            metric = float(d["metric"])
            if not math.isfinite(metric):
                raise BenchmarkError("metric is not finite")
            solution = Solution(space, d["values"])
        except (BenchmarkError, ValidationError, KeyError, TypeError, ValueError) as exc:
            raise BenchmarkError(f"table.jsonl:{lineno}: {exc}") from exc
        key = solution_key(space, solution)
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
                lo, hi = (float(declared[t.task_id][0]), float(declared[t.task_id][1]))
            except (IndexError, KeyError, TypeError, ValueError) as exc:
                raise BenchmarkError(f"meta.json norm_bounds for '{t.task_id}': {exc}") from exc
        else:
            metrics = [r.metric for r in rows[t.task_id]]
            lo, hi = min(metrics), max(metrics)
        if not lo < hi:
            raise BenchmarkError(f"task '{t.task_id}': degenerate normalization bounds")
        bounds[t.task_id] = (lo, hi)

    twins: dict[str, tuple[str, ...]] = {}
    twins_path = root / "twins.json"
    if twins_path.exists():
        try:
            raw = json.loads(twins_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise BenchmarkError(f"cannot read twins.json: {exc}") from exc
        if not isinstance(raw, dict) or not all(
            isinstance(ids, list) and all(isinstance(i, str) for i in ids) for ids in raw.values()
        ):
            raise BenchmarkError("twins.json must map task ids to lists of task ids")
        for tid, ids in raw.items():
            unknown = [i for i in (tid, *ids) if i not in by_id]
            if unknown:
                raise BenchmarkError(f"twins.json names unknown task(s) {unknown}")
        twins = {tid: tuple(ids) for tid, ids in raw.items()}

    return Benchmark(
        name=meta.get("name", root.name),
        space=space,
        tasks=tuple(tasks),
        direction=direction,
        rows={tid: tuple(rs) for tid, rs in rows.items()},
        table=table,
        norm_bounds=bounds,
        twins=twins,
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
        for row in b.ranked_rows[train_tasks[i].task_id]:
            out.append(row.solution)
            if len(out) == n:
                return out
    return out


def build_fold_artifacts(
    b: Benchmark,
    train_ids: Sequence[str],
    backend,
    records_per_task: int = 3,
    embed_cache: dict[str, EmbeddingVector] | None = None,
):
    """Offline artifacts for one leave-one-out fold: pool entries and discretizers.

    Discretizers are fitted on the union of the best records per training task,
    so nothing from the held-out task leaks into canonicalization. Each
    distinct solution among those records is canonicalized once.
    """
    top = {tid: b.ranked_rows[tid][:records_per_task] for tid in train_ids}
    discretizers = {}
    for p in b.space.parameters:
        if p.kind != "numeric":
            continue
        values = [row.solution.values[p.name] for rows in top.values() for row in rows]
        discretizers[p.name] = fit_discretizer(values, p)
    # Keyed by the exact values: solution keys round numbers to 12 digits.
    canonical: dict[tuple, CanonicalExperience] = {}
    entries = []
    for tid in train_ids:
        task = b.task(tid)
        if embed_cache is not None and task.description in embed_cache:
            vec = embed_cache[task.description]
        else:
            vec = backend.embed(task.description)
            if embed_cache is not None:
                embed_cache[task.description] = vec
        experiences = []
        for row in top[tid]:
            values = tuple(row.solution.values.values())
            c = canonical.get(values)
            if c is None:
                record = ExperienceRecord(task, row.solution, row.metric)
                c = canonical[values] = canonicalize(record, b.space, discretizers)
            experiences.append(
                CanonicalExperience(tid, c.space_id, c.solution_text, c.discrete_solution, row.metric)
            )
        entries.append(PoolEntry(task=task, embedding=vec, experiences=experiences))
    return entries, discretizers


@dataclass(frozen=True)
class EvalConfig:
    suggestion: SuggestionConfig = SuggestionConfig()
    elicitation: ElicitationConfig = ElicitationConfig()
    use_knowledge: bool = False
    records_per_task: int = 3


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
        seeds = sorted({row.seed for row in self.rows})
        agg: dict = {"method": self.method, "nacc": {}, "metric": {}, "failures": []}
        for t in (1, 2, 3):
            nacc_means = []
            metric_means = []
            for seed in seeds:
                seed_rows = [r for r in self.rows if r.seed == seed]
                nacc_means.append(float(np.mean([r.naccs[t - 1] for r in seed_rows])))
                metric_means.append(float(np.mean([r.metrics[t - 1] for r in seed_rows])))
            agg["nacc"][str(t)] = {
                "mean": float(np.mean(nacc_means)),
                "std": float(np.std(nacc_means)),
            }
            agg["metric"][str(t)] = {
                "mean": float(np.mean(metric_means)),
                "std": float(np.std(metric_means)),
            }
        agg["failures"] = [
            {"seed": r.seed, "task_id": r.task_id} for r in self.rows if r.failed
        ]
        return agg


def strip_query_section(prompt: str) -> str:
    """Drop the trailing "Dataset: <query>" block so hygiene scans only see offline content."""
    cut = prompt.rfind("\n\nDataset: ")
    return prompt[:cut] if cut >= 0 else prompt


def _assert_no_leakage(scanned: str, held_out: Task, twins: Sequence[Task]) -> None:
    for t in (held_out, *twins):
        if t.task_id in scanned or t.description in scanned:
            raise AssertionError(
                f"leave-one-out hygiene violation: held-out task '{t.task_id}' "
                "appears in a prompt"
            )


def _copilot_solutions(
    b: Benchmark,
    task: Task,
    train_ids: Sequence[str],
    held: Collection[str],
    seed: int,
    cfg: EvalConfig,
    backend,
    embed_cache: dict,
    prompt_sink: list | None,
) -> list[Solution]:
    pool, discretizers = build_fold_artifacts(
        b, train_ids, backend, cfg.records_per_task, embed_cache
    )
    twins = [b.task(tid) for tid in b.twins.get(task.task_id, ())]
    sug_cfg = replace(cfg.suggestion, task_kind=b.task_kind)
    knowledge = []
    if cfg.use_knowledge:
        e_cfg = replace(cfg.elicitation, seed=derive_seed(seed, f"elicit:{task.task_id}"))
        best, trace = elicit_knowledge(
            pool, b.space, b, e_cfg, backend,
            suggestion_config=sug_cfg, discretizers=discretizers,
        )
        knowledge = [best]
        for record in trace:
            _assert_no_leakage(record.prompt, task, twins)
            if prompt_sink is not None:
                prompt_sink.append((task.task_id, record.prompt))
    result = suggest(
        task, pool, knowledge, b.space, discretizers, sug_cfg, backend,
        fallback=lambda: baseline_constant(b, train_ids, cfg.suggestion.n_suggestions),
        exclude=held,
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

    Offline artifacts are rebuilt per fold from the remaining tasks only; twins
    of the held-out task are excluded as well. A method failure on a task is
    recorded as the worst score and flagged instead of aborting the sweep.
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
    embed_cache: dict[str, EmbeddingVector] = {}
    for seed in seeds:
        for task in b.tasks:
            held = {task.task_id} | set(b.twins.get(task.task_id, ()))
            train_ids = [t.task_id for t in b.tasks if t.task_id not in held]
            try:
                if not train_ids:
                    raise BenchmarkError(f"no training tasks remain for '{task.task_id}'")
                if method == "random":
                    solutions = baseline_random(
                        b, task.task_id, n, derive_seed(seed, f"random:{task.task_id}")
                    )
                elif method == "constant":
                    solutions = baseline_constant(b, train_ids, n)
                elif method == "nearest":
                    train_tasks = [b.task(tid) for tid in train_ids]
                    solutions = baseline_nearest_task(b, train_tasks, task, n)
                else:
                    solutions = _copilot_solutions(
                        b, task, train_ids, held, seed, cfg, backend, embed_cache, prompt_sink
                    )
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
