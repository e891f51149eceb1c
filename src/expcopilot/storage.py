"""File formats: spaces, tasks, history, pools, discretizers, embeddings, knowledge.

Every input file, configs, bundle metadata and replay cassettes included, is read by
`read_json` or `iter_jsonl`, so each kind of bad input is reported one way; pool and
history records are checked as they stream, other JSONL files are read whole. All writers
emit sorted-key JSON so re-running a command over identical inputs reproduces identical
bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    CanonicalExperience,
    Discretizer,
    ExperienceRecord,
    ParameterDef,
    SolutionSpace,
    Task,
    check_number,
    solution_reader,
)
from .errors import ValidationError
from .retrieval import EmbeddingVector, KnowledgeItem, json_embedding


# One shared encoder: `json.dumps(obj, sort_keys=True)` without building one per record.
dumps = json.JSONEncoder(sort_keys=True).encode


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(dumps(record) + "\n")


def _open(path: str | Path):
    try:
        return Path(path).open(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def read_json(path: str | Path):
    """Parse one JSON file; a missing, unreadable, non-UTF-8 or malformed file raises
    ValidationError naming `path`."""
    with _open(path) as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
        except ValueError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


_decode = json.JSONDecoder().raw_decode


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, JSON value) of each non-blank line, stripped, decoded one at a time: the
    values and errors of `json.loads` without its whitespace scans. Line numbers count every
    physical line, blank ones too. A malformed line raises ValidationError naming
    `path:lineno`, and a file that is not UTF-8 one naming `path`."""
    with _open(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    value, end = _decode(line)
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
                yield lineno, value
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def read_jsonl(path: str | Path) -> list[tuple[int, object]]:
    """Every (line number, JSON value) of `iter_jsonl`, for files that are kept whole."""
    return list(iter_jsonl(path))


def parse_records(path: str | Path, lines: Iterable[tuple[int, object]], parse, what: str = "record"):
    """`parse` of each record of `lines`, read from `path`, in turn; a malformed record raises
    ValidationError naming `path:lineno`."""
    for lineno, d in lines:
        try:
            record = parse(d)
        except (AttributeError, KeyError, TypeError, ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}:{lineno}: malformed {what} ({exc!r})") from exc
        yield record


def load_records(path: str | Path, parse, what: str = "record") -> list:
    """`parse` of every record of a JSONL file (see `read_jsonl` and `parse_records`)."""
    return list(parse_records(path, read_jsonl(path), parse, what))


def parameter_from_dict(d: Mapping) -> ParameterDef:
    return ParameterDef(
        name=d["name"],
        kind=d["kind"],
        numeric_range=tuple(d["numeric_range"]) if d.get("numeric_range") else None,
        log_scale=d.get("log_scale", False),
        choices=d.get("choices"),
    )


def parameter_to_dict(p: ParameterDef) -> dict:
    d: dict = {"name": p.name, "kind": p.kind}
    if p.kind == "numeric":
        d["numeric_range"] = list(p.numeric_range)
        d["log_scale"] = p.log_scale
    else:
        d["choices"] = list(p.choices)
    return d


def space_from_dict(d: Mapping) -> SolutionSpace:
    return SolutionSpace(
        space_id=d["space_id"],
        description=d["description"],
        parameters=tuple(parameter_from_dict(p) for p in d["parameters"]),
        level_lexicon=d.get("level_lexicon"),
    )


def space_to_dict(space: SolutionSpace) -> dict:
    d: dict = {
        "space_id": space.space_id,
        "description": space.description,
        "parameters": [parameter_to_dict(p) for p in space.parameters],
    }
    if space.level_lexicon is not None:
        d["level_lexicon"] = list(space.level_lexicon)
    return d


def load_json(path: str | Path, parse, what: str):
    """`parse` of a JSON file's value; a malformed value raises ValidationError naming `path`."""
    value = read_json(path)
    try:
        return parse(value)
    except (AttributeError, KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed {what} ({exc!r})") from exc


def load_space(path: str | Path) -> SolutionSpace:
    return load_json(path, space_from_dict, "space")


def save_space(space: SolutionSpace, path: str | Path) -> None:
    Path(path).write_text(dumps(space_to_dict(space)) + "\n", encoding="utf-8")


def task_from_dict(d: Mapping) -> Task:
    return Task(
        task_id=d["task_id"],
        space_id=d["space_id"],
        description=d["description"],
        meta_features=tuple(d["meta_features"]) if d.get("meta_features") else None,
    )


def task_to_dict(task: Task) -> dict:
    d: dict = {
        "task_id": task.task_id,
        "space_id": task.space_id,
        "description": task.description,
    }
    if task.meta_features is not None:
        d["meta_features"] = list(task.meta_features)
    return d


def load_tasks(path: str | Path) -> list[Task]:
    return load_records(path, task_from_dict)


def save_tasks(tasks: Sequence[Task], path: str | Path) -> None:
    write_jsonl(path, (task_to_dict(t) for t in tasks))


def load_history(
    paths: Sequence[str | Path],
    tasks_by_id: Mapping[str, Task],
    space: SolutionSpace,
) -> list[ExperienceRecord]:
    """Read history records (task_id, values, metric), resolving tasks by id.
    Records with equal `values` share one `Solution` (see `core.solution_reader`)."""
    read_solution = solution_reader(space)

    def parse(d: Mapping) -> ExperienceRecord:
        task = tasks_by_id.get(d["task_id"])
        if task is None:
            raise ValidationError(f"unknown task_id {d['task_id']!r}")
        metric = check_number("metric", d["metric"])
        return ExperienceRecord(task=task, solution=read_solution(d["values"])[0], metric=metric)
    return [record for path in paths for record in parse_records(path, iter_jsonl(path), parse)]


def discretizer_to_dict(d: Discretizer) -> dict:
    return {
        "parameter": d.parameter,
        "split_points": list(d.split_points),
        "level_labels": list(d.level_labels),
        "representatives": dict(d.representatives),
        "fitted_in_log": d.fitted_in_log,
    }


def discretizer_from_dict(d: Mapping) -> Discretizer:
    return Discretizer(
        parameter=d["parameter"],
        split_points=tuple(d["split_points"]),
        level_labels=tuple(d["level_labels"]),
        representatives=dict(d["representatives"]),
        fitted_in_log=d["fitted_in_log"],
    )


def save_discretizers(discretizers: Mapping[str, Discretizer], path: str | Path) -> None:
    payload = {name: discretizer_to_dict(d) for name, d in sorted(discretizers.items())}
    Path(path).write_text(dumps(payload) + "\n", encoding="utf-8")


def load_discretizers(path: str | Path) -> dict[str, Discretizer]:
    return load_json(path, lambda raw: {k: discretizer_from_dict(v) for k, v in raw.items()}, "discretizers")


def experience_to_dict(exp: CanonicalExperience) -> dict:
    return {
        "task_id": exp.task_id,
        "space_id": exp.space_id,
        "solution_text": exp.solution_text,
        "discrete_solution": dict(exp.discrete_solution),
        "metric": exp.metric,
    }


def experience_from_dict(d: Mapping) -> CanonicalExperience:
    return CanonicalExperience(
        task_id=d["task_id"],
        space_id=d["space_id"],
        solution_text=d["solution_text"],
        discrete_solution=dict(d["discrete_solution"]),
        metric=float(d["metric"]),
    )


def save_pool(experiences: Sequence[CanonicalExperience], path: str | Path) -> None:
    write_jsonl(path, (experience_to_dict(e) for e in experiences))


def read_pool_rows(path: str | Path) -> Iterator[tuple[str, float, dict]]:
    """(task_id, metric, record) of each pool record as it is read, checked but not yet built."""
    fields = {"task_id", "space_id", "solution_text", "discrete_solution", "metric"}

    def parse(d: dict) -> tuple[str, float, dict]:
        if not d.keys() >= fields:
            raise KeyError(f"a pool record needs the fields {sorted(fields)}")
        if not (isinstance(d["task_id"], str) and isinstance(d["discrete_solution"], dict)):
            raise TypeError("task_id must be a string and discrete_solution an object")
        metric = check_number("metric", d["metric"])
        if not math.isfinite(metric):
            raise ValueError(f"metric must be finite, got {metric!r}")
        return d["task_id"], metric, d
    return parse_records(path, iter_jsonl(path), parse)


def save_embeddings(embeddings: Sequence[tuple[str, EmbeddingVector]], path: str | Path) -> None:
    write_jsonl(
        path,
        (
            {"task_id": task_id, "model_tag": vec.model_tag, "values": list(vec.values)}
            for task_id, vec in embeddings
        ),
    )


def load_embeddings(path: str | Path) -> dict[str, EmbeddingVector]:
    def parse(d: Mapping) -> tuple[str, EmbeddingVector]:
        return d["task_id"], json_embedding(d["values"], d["model_tag"])
    return dict(load_records(path, parse))


def knowledge_to_dict(item: KnowledgeItem) -> dict:
    return {
        "space_id": item.space_id,
        "text": item.text,
        "validation_score": item.validation_score,
        "provenance": dict(item.provenance),
    }


def knowledge_from_dict(d: Mapping) -> KnowledgeItem:
    return KnowledgeItem(
        space_id=d["space_id"],
        text=d["text"],
        validation_score=check_number("validation_score", d["validation_score"]),
        provenance=dict(d.get("provenance", {})),
    )


def save_knowledge(items: Sequence[KnowledgeItem], path: str | Path) -> None:
    write_jsonl(path, (knowledge_to_dict(k) for k in items))


def load_knowledge(path: str | Path) -> list[KnowledgeItem]:
    return load_records(path, knowledge_from_dict)
