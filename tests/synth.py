"""Synthetic 12-task benchmark used across the test suite.

Six families of two tasks each: family members share a vocabulary and an
optimal grid point, different families prefer different corners of the grid.
A small booster-mismatch penalty keeps each task's top-3 solutions at the
family's numeric optimum, so canonicalization round-trips exactly onto the
grid. Metrics carry a deterministic sub-1e-6 jitter so every (task, solution)
value is unique.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DEPTH_GRID = [1.0, 3.0, 5.0, 7.0, 9.0]
SHRINK_GRID = [0.2, 0.4, 0.6, 0.8]
BOOSTERS = ["tree", "forest", "dart"]

# (vocabulary, depth index, shrinkage index, booster index)
FAMILIES = [
    ("retina vessel microscopy slides diabetic screening", 0, 0, 0),
    ("credit default loans banking repayment ledgers", 1, 1, 2),
    ("bird song spectrograms rainforest acoustic monitoring", 2, 2, 1),
    ("satellite crop boundaries irrigation farming plots", 3, 3, 2),
    ("handwritten postal digits envelopes routing archive", 4, 1, 0),
    ("protein residue contacts folding structural biology", 4, 3, 1),
]

ORDINALS = [
    "one", "two", "three", "four", "five", "six",
    "seven", "eight", "nine", "ten", "eleven", "twelve",
]

SPACE = {
    "space_id": "synth-gbt",
    "description": (
        "Here are some classification datasets along with best hyper-parameter "
        "configurations to train a gradient boosted tree classifier on them."
    ),
    "parameters": [
        {"name": "depth", "kind": "numeric", "numeric_range": [1.0, 9.0], "log_scale": False},
        {"name": "shrinkage", "kind": "numeric", "numeric_range": [0.1, 0.9], "log_scale": False},
        {"name": "booster", "kind": "categorical", "choices": BOOSTERS},
    ],
}


def task_id_for(index: int) -> str:
    return f"synth-{index + 1:02d}"


def description_for(index: int) -> str:
    words = FAMILIES[index // 2][0]
    return f"The dataset covers {words}, cohort {ORDINALS[index]}."


def family_of(index: int) -> tuple[str, int, int, int]:
    return FAMILIES[index // 2]


def optimum_values(index: int) -> dict:
    _, di, si, bi = family_of(index)
    return {"depth": DEPTH_GRID[di], "shrinkage": SHRINK_GRID[si], "booster": BOOSTERS[bi]}


def _unit(label: str) -> float:
    """Deterministic pseudo-random number in [0, 1) derived from a label."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:4], "big") / 2.0**32


def _metric(task_id: str, family: tuple, di: int, si: int, bi: int) -> float:
    _, odi, osi, obi = family
    d2 = ((di - odi) / 4.0) ** 2 + ((si - osi) / 3.0) ** 2 + (0.05 * abs(bi - obi)) ** 2
    base = 1.0 - 0.8 * d2 / 2.01
    return base + 1e-6 * _unit(f"{task_id}|{di}|{si}|{bi}")


def metric_for(task_index: int, di: int, si: int, bi: int) -> float:
    return _metric(task_id_for(task_index), family_of(task_index), di, si, bi)


def write_benchmark(root: Path) -> Path:
    """Write the benchmark bundle (space, tasks, table, meta) under `root`."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "space.json").write_text(json.dumps(SPACE, sort_keys=True) + "\n", encoding="utf-8")

    task_lines = []
    for i in range(12):
        family_idx = i // 2
        member = i % 2
        task_lines.append(
            json.dumps(
                {
                    "task_id": task_id_for(i),
                    "space_id": SPACE["space_id"],
                    "description": description_for(i),
                    "meta_features": [10.0 * family_idx + member, 5.0 * family_idx - 0.5 * member],
                },
                sort_keys=True,
            )
        )
    (root / "tasks.jsonl").write_text("\n".join(task_lines) + "\n", encoding="utf-8")

    table_lines = []
    for i in range(12):
        for di in range(len(DEPTH_GRID)):
            for si in range(len(SHRINK_GRID)):
                for bi in range(len(BOOSTERS)):
                    table_lines.append(
                        json.dumps(
                            {
                                "task_id": task_id_for(i),
                                "values": {
                                    "depth": DEPTH_GRID[di],
                                    "shrinkage": SHRINK_GRID[si],
                                    "booster": BOOSTERS[bi],
                                },
                                "metric": metric_for(i, di, si, bi),
                            },
                            sort_keys=True,
                        )
                    )
    (root / "table.jsonl").write_text("\n".join(table_lines) + "\n", encoding="utf-8")

    meta = {"name": "synth-12", "direction": "higher", "task_kind": "classification dataset"}
    (root / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    return root


def write_continuous_benchmark(root: Path, n_tasks: int = 18) -> Path:
    """A bundle like `write_benchmark` whose numeric values differ per task.

    Task i belongs to family i % 6 and jitters every grid value inside its
    grid cell by its own amount, so no two tasks share a numeric value and the
    quantile split points move whenever a different task is held out.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "space.json").write_text(json.dumps(SPACE, sort_keys=True) + "\n", encoding="utf-8")
    task_lines, table_lines = [], []
    for i in range(n_tasks):
        family_idx, member = i % len(FAMILIES), i // len(FAMILIES)
        task_id = f"cont-{i + 1:02d}"
        task_lines.append(json.dumps({
            "task_id": task_id,
            "space_id": SPACE["space_id"],
            "description": f"The dataset covers {FAMILIES[family_idx][0]}, batch {i + 1}.",
            "meta_features": [10.0 * family_idx + member, 5.0 * family_idx - 0.5 * member],
        }, sort_keys=True))
        for di in range(len(DEPTH_GRID)):
            depth = 1.0 + 8.0 * (di + _unit(f"{task_id}|depth|{di}")) / len(DEPTH_GRID)
            for si in range(len(SHRINK_GRID)):
                shrinkage = 0.1 + 0.8 * (si + _unit(f"{task_id}|shrinkage|{si}")) / len(SHRINK_GRID)
                for bi, booster in enumerate(BOOSTERS):
                    table_lines.append(json.dumps({
                        "task_id": task_id,
                        "values": {"depth": depth, "shrinkage": shrinkage, "booster": booster},
                        "metric": _metric(task_id, FAMILIES[family_idx], di, si, bi),
                    }, sort_keys=True))
    (root / "tasks.jsonl").write_text("\n".join(task_lines) + "\n", encoding="utf-8")
    (root / "table.jsonl").write_text("\n".join(table_lines) + "\n", encoding="utf-8")
    meta = {
        "name": f"synth-continuous-{n_tasks}",
        "direction": "higher",
        "task_kind": "classification dataset",
    }
    (root / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    return root
