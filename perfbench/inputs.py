"""Seeded benchmark inputs, the flaky completion policy, and the independent oracle.

The generator scales the six-family synthetic benchmark of the test suite to N
tasks. Family counts stay balanced, so the quantile discretizer fitted on the
top-3 records of every task round-trips onto the 5x4x3 grid and the pipeline
with the scripted nearest-neighbour backend equals a nearest-neighbour
recommender, which the oracle below recomputes without calling the program.

The seed drives the task order, the cohort tokens, the metric jitter salt, the
flaky-prompt salt and the leave-one-out seed; the program sees only the files.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from expcopilot.gateway import NearestNeighborPolicy

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

_TOKEN = re.compile(r"[a-z0-9]+")
_RESERVED = set(_TOKEN.findall(" ".join(f[0] for f in FAMILIES) + " the dataset covers cohort"))


def _digest(*parts) -> bytes:
    return hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()


def _sub_seed(seed: int, label: str) -> int:
    return int.from_bytes(_digest(seed, label)[:8], "big")


@dataclass(frozen=True)
class SynthTask:
    task_id: str
    family: int
    description: str


@dataclass
class Inputs:
    """Everything one run needs: tasks, the full lookup table, and the salts."""

    tasks: list[SynthTask]
    queries: list[SynthTask]
    table: dict[str, dict[tuple[int, int, int], float]]
    loo_seed: int
    flaky_salt: str

    def best_cell(self, task_id: str) -> tuple[int, int, int]:
        cells = self.table[task_id]
        return max(cells, key=lambda c: cells[c])


def cell_values(cell: tuple[int, int, int]) -> dict:
    di, si, bi = cell
    return {"depth": DEPTH_GRID[di], "shrinkage": SHRINK_GRID[si], "booster": BOOSTERS[bi]}


def _metric(family: int, cell: tuple[int, int, int], salt: str, task_id: str) -> float:
    _, odi, osi, obi = FAMILIES[family]
    di, si, bi = cell
    d2 = ((di - odi) / 4.0) ** 2 + ((si - osi) / 3.0) ** 2 + (0.05 * abs(bi - obi)) ** 2
    jitter = int.from_bytes(_digest(salt, task_id, di, si, bi)[:4], "big") / 2.0**32
    return 1.0 - 0.8 * d2 / 2.01 + 1e-6 * jitter


def _cohort_tokens(seed: int, count: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    out: list[str] = []
    seen = set(_RESERVED)
    i = 0
    while len(out) < count:
        d = _digest(seed, "cohort", i)
        word = "".join(letters[b % 26] for b in d[:7])
        i += 1
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def generate(seed: int, n_tasks: int, n_queries: int = 0) -> Inputs:
    """Balanced families, seeded order and cohort tokens; queries are unseen tasks."""
    if n_tasks % len(FAMILIES) or n_queries % len(FAMILIES):
        raise ValueError("task and query counts must be multiples of the family count")
    rng = random.Random(_sub_seed(seed, "order"))
    families = [i % len(FAMILIES) for i in range(n_tasks)]
    rng.shuffle(families)
    query_families = [i % len(FAMILIES) for i in range(n_queries)]
    rng.shuffle(query_families)
    cohorts = _cohort_tokens(seed, n_tasks + n_queries)

    def make(prefix: str, index: int, family: int, cohort: str) -> SynthTask:
        words = FAMILIES[family][0]
        return SynthTask(
            f"{prefix}-{index + 1:03d}", family, f"The dataset covers {words}, cohort {cohort}."
        )

    tasks = [make("synth", i, f, cohorts[i]) for i, f in enumerate(families)]
    queries = [make("query", i, f, cohorts[n_tasks + i]) for i, f in enumerate(query_families)]
    salt = f"jitter:{seed}"
    cells = [
        (di, si, bi)
        for di in range(len(DEPTH_GRID))
        for si in range(len(SHRINK_GRID))
        for bi in range(len(BOOSTERS))
    ]
    table = {t.task_id: {c: _metric(t.family, c, salt, t.task_id) for c in cells} for t in tasks}
    return Inputs(
        tasks=tasks,
        queries=queries,
        table=table,
        loo_seed=_sub_seed(seed, "loo") % 2**31,
        flaky_salt=f"flaky:{seed}",
    )


def _task_dict(t: SynthTask) -> dict:
    return {"task_id": t.task_id, "space_id": SPACE["space_id"], "description": t.description}


def _jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8")


def _table_records(inputs: Inputs):
    for t in inputs.tasks:
        for cell, metric in inputs.table[t.task_id].items():
            yield {"task_id": t.task_id, "values": cell_values(cell), "metric": metric}


def write_bundle(inputs: Inputs, root: Path) -> Path:
    """Lookup-table benchmark bundle read by `bench.load_benchmark`."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "space.json").write_text(json.dumps(SPACE, sort_keys=True) + "\n", encoding="utf-8")
    _jsonl(root / "tasks.jsonl", (_task_dict(t) for t in inputs.tasks))
    _jsonl(root / "table.jsonl", _table_records(inputs))
    meta = {"name": f"synth-{len(inputs.tasks)}", "direction": "higher",
            "task_kind": "classification dataset"}
    (root / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    return root


def write_cli_inputs(inputs: Inputs, root: Path) -> dict:
    """History, space and task files for `cmd_ingest`, plus one task file per query."""
    root.mkdir(parents=True, exist_ok=True)
    paths = {"space": root / "space.json", "tasks": root / "tasks.jsonl",
             "history": root / "history.jsonl"}
    paths["space"].write_text(json.dumps(SPACE, sort_keys=True) + "\n", encoding="utf-8")
    _jsonl(paths["tasks"], (_task_dict(t) for t in inputs.tasks))
    _jsonl(paths["history"], _table_records(inputs))
    query_files = []
    for q in inputs.queries:
        path = root / f"{q.task_id}.json"
        path.write_text(json.dumps(_task_dict(q), sort_keys=True), encoding="utf-8")
        query_files.append(path)
    paths["queries"] = query_files
    return paths


# ---------------------------------------------------------------- oracle


def _bow_matrix(texts: list[str], dim: int = 256) -> np.ndarray:
    """Feature-hashed bag of words, L2-normalised rows (same recipe as the program's)."""
    m = np.zeros((len(texts), dim))
    for row, text in enumerate(texts):
        for token in _TOKEN.findall(text.lower()):
            m[row, int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big") % dim] += 1.0
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _nearest(query_vecs: np.ndarray, pool: list[SynthTask], pool_vecs: np.ndarray,
             skip_self: bool) -> list[SynthTask]:
    sims = query_vecs @ pool_vecs.T
    out = []
    for i, row in enumerate(sims):
        ranked = sorted(
            (-s, pool[j].task_id, j) for j, s in enumerate(row) if not (skip_self and j == i)
        )
        out.append(pool[ranked[0][2]])
    return out


def loo_expected_metric1(inputs: Inputs) -> dict[str, float]:
    """Per held-out task: the table value of its nearest other task's best grid row."""
    vecs = _bow_matrix([t.description for t in inputs.tasks])
    neighbours = _nearest(vecs, inputs.tasks, vecs, skip_self=True)
    return {
        t.task_id: inputs.table[t.task_id][inputs.best_cell(nb.task_id)]
        for t, nb in zip(inputs.tasks, neighbours)
    }


def cli_expected_rank1(inputs: Inputs) -> dict[str, dict]:
    """Per query task: the values of the nearest pool task's best grid row."""
    pool_vecs = _bow_matrix([t.description for t in inputs.tasks])
    query_vecs = _bow_matrix([q.description for q in inputs.queries])
    neighbours = _nearest(query_vecs, inputs.tasks, pool_vecs, skip_self=False)
    return {q.task_id: cell_values(inputs.best_cell(nb.task_id))
            for q, nb in zip(inputs.queries, neighbours)}


# ---------------------------------------------------------------- flaky policy


class FlakyPolicy:
    """Nearest-neighbour answers, degraded for a salted quarter of suggestion prompts.

    A selected prompt gets its last configuration line dropped at temperature 0,
    which forces the repair retry, and an unparseable line on the retry, which
    forces a `ParseError`, the constant fallback, or a validation score of 0.
    Rank 1 is always the nearest task's best configuration, so metric@1 still
    equals the oracle.
    """

    def __init__(self, salt: str):
        self.salt = salt
        self.base = NearestNeighborPolicy()

    def __call__(self, prompt: str, temperature: float) -> str:
        text = self.base(prompt, temperature)
        lines = text.splitlines()
        if len(lines) < 2 or not all(ln.startswith("Configuration ") for ln in lines):
            return text
        if _digest(self.salt, prompt)[0] % 4:
            return text
        if temperature == 0.0:
            return "\n".join(lines[:-1])
        return "Configuration 1: depth is bottomless. booster is quantum."
