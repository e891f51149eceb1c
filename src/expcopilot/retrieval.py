"""Experience retrieval by embedding similarity and knowledge retrieval by space match."""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Collection, Mapping, Sequence

import numpy as np

from .core import CanonicalExperience, Task
from .errors import ValidationError

BOW_DIM = 256
_TOKEN = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class EmbeddingVector:
    """Fixed-length embedding tagged with the model that produced it."""

    values: tuple[float, ...]
    model_tag: str

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValidationError("embedding must be non-empty")
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        with np.errstate(over="ignore"):
            if not math.isfinite(self.norm):
                raise ValidationError("embedding values and their norm must be finite")

    @cached_property
    def array(self) -> np.ndarray:
        array = np.asarray(self.values)
        array.setflags(write=False)
        return array

    @cached_property
    def norm(self) -> float:
        return float(np.linalg.norm(self.array))


def json_embedding(values, model_tag: str) -> EmbeddingVector:
    """The embedding of a decoded JSON array of numbers, as files, cassettes and HTTP answers
    carry it; any other value, a string or a bool among them, raises ValidationError."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise ValidationError(f"embedding values must be a list of JSON numbers, got {values!r:.80}")
    return EmbeddingVector(values=values, model_tag=model_tag)


@dataclass(frozen=True)
class KnowledgeItem:
    """Natural-language guidelines elicited for one solution space."""

    space_id: str
    text: str
    validation_score: float
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.text:
            raise ValidationError("knowledge text must be non-empty")
        if not math.isfinite(self.validation_score):
            raise ValidationError("validation_score must be finite")
        object.__setattr__(self, "provenance", MappingProxyType(dict(self.provenance)))


@dataclass(frozen=True)
class PoolEntry:
    """One historical task with its embedding and best canonical experiences."""

    task: Task
    embedding: EmbeddingVector
    experiences: tuple[CanonicalExperience, ...]

    def __post_init__(self):
        object.__setattr__(self, "experiences", tuple(self.experiences))

    @cached_property
    def block(self) -> str:
        """The demonstration block: the dataset line, then every configuration the entry holds.
        Online and offline prompts both show entries in this format; it is rendered once, so
        every prompt, fold and round reuses it.
        """
        lines = [f"Dataset: {self.task.description}"]
        for i, exp in enumerate(self.experiences, start=1):
            lines.append(f"Configuration {i}: {exp.solution_text}")
        return "\n".join(lines)


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of the angle between two compatible embeddings."""
    if a.model_tag != b.model_tag:
        raise ValidationError(f"embedding model mismatch: {a.model_tag!r} vs {b.model_tag!r}")
    if len(a.values) != len(b.values):
        raise ValidationError(f"embedding length mismatch: {len(a.values)} vs {len(b.values)}")
    if a.norm == 0.0 or b.norm == 0.0:
        raise ValidationError("cannot compute cosine similarity with a zero vector")
    return float(np.dot(a.array, b.array) / (a.norm * b.norm))


class RetrievalIndex:
    """A pool stacked once for ranking by cosine similarity: the one implementation of retrieval.

    It holds each embedding shape's stacked matrix and norms, each task id's
    rank in Python string order, and the shortest demonstration block. A query
    masks out the excluded ids, scores the rest with one `np.vecdot`, which
    runs the per-pair dot kernel of `np.dot`, so every similarity equals
    `cosine_similarity` bit for bit, keeps the k best (with every tie at the
    k-th similarity) and orders them by (-similarity, task id).
    """

    def __init__(self, pool: Sequence[PoolEntry]):
        self.entries = tuple(pool)
        self._positions: dict[str, list[int]] = {}
        groups: dict[tuple[str, int], list[int]] = {}
        for i, entry in enumerate(self.entries):
            self._positions.setdefault(entry.task.task_id, []).append(i)
            groups.setdefault((entry.embedding.model_tag, len(entry.embedding.values)), []).append(i)
        rank = {task_id: r for r, task_id in enumerate(sorted(self._positions))}
        self._id_rank = np.array([rank[e.task.task_id] for e in self.entries], dtype=np.intp)
        # Per shape: the rows it holds, their stacked vectors, their norms, and which
        # entries of the pool it can score (its rows with a nonzero norm).
        self._shapes = {}
        for shape, rows in groups.items():
            norms = np.array([self.entries[i].embedding.norm for i in rows])
            scorable = np.zeros(len(self.entries), dtype=bool)
            scorable[rows] = norms != 0.0
            matrix = np.concatenate([self.entries[i].embedding.array for i in rows]).reshape(len(rows), -1)
            self._shapes[shape] = np.array(rows, dtype=np.intp), matrix, norms, scorable

    @cached_property
    def shortest_block(self) -> int:
        """Length of the shortest demonstration block; 0 for an empty pool."""
        return min((len(entry.block) for entry in self.entries), default=0)

    def query(
        self, query: EmbeddingVector, k: int, exclude: Collection[str] = ()
    ) -> list[tuple[PoolEntry, float]]:
        """The k entries most similar to `query`, descending, ties by task id, leaving out the
        ids in `exclude`. An entry left in with another model tag or length, or a zero vector,
        raises the error `cosine_similarity` gives the first such entry in pool order."""
        if k < 1:
            raise ValidationError("k must be at least 1")
        keep = np.ones(len(self.entries), dtype=bool)
        for task_id in exclude:
            keep[self._positions.get(task_id, [])] = False
        if not keep.any():
            return []
        group = self._shapes.get((query.model_tag, len(query.values)))
        offending = keep & ~group[3] if group is not None and query.norm else keep
        if offending.any():  # cosine_similarity raises for this entry
            cosine_similarity(query, self.entries[int(np.argmax(offending))].embedding)
        rows, matrix, norms, _ = group
        # Excluded rows are scored too (a zero norm among them divides by zero) and dropped.
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = np.vecdot(matrix, query.array) / (query.norm * norms)
        kept = keep[rows]
        rows, sims = rows[kept], sims[kept]
        if k < len(rows):
            kth = np.partition(sims, len(rows) - k)[len(rows) - k]
            top = sims >= kth
            rows, sims = rows[top], sims[top]
        order = np.lexsort((self._id_rank[rows], -sims))[:k]
        return [(self.entries[i], sim) for i, sim in zip(rows[order].tolist(), sims[order].tolist())]


def retrieve_experience(
    query: EmbeddingVector,
    pool: Sequence[PoolEntry] | RetrievalIndex,
    k: int,
    exclude: Collection[str] = (),
) -> list[tuple[PoolEntry, float]]:
    """The k pool tasks most similar to the query, descending; ties by task_id.

    `exclude` holds task ids that must not be retrieved (e.g. the evaluation
    task itself during leave-one-out). A pool that is not yet a
    `RetrievalIndex` is indexed first; see `RetrievalIndex.query`.
    """
    index = pool if isinstance(pool, RetrievalIndex) else RetrievalIndex(pool)
    return index.query(query, k, exclude)


def retrieve_knowledge(space_id: str, knowledge_pool: Sequence[KnowledgeItem]) -> list[KnowledgeItem]:
    """All knowledge elicited for the given space, best-validated first."""
    matches = [k for k in knowledge_pool if k.space_id == space_id]
    matches.sort(key=lambda k: -k.validation_score)
    return matches


def hashed_bow_embedding(text: str) -> EmbeddingVector:
    """Deterministic feature-hashed bag-of-words embedding, L2-normalized.

    Stands in for a live embedding model so retrieval is meaningful offline.
    """
    if not text:
        raise ValidationError("cannot embed empty text")
    counts = np.zeros(BOW_DIM)
    for token in _TOKEN.findall(text.lower()):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        counts[int.from_bytes(digest[:8], "big") % BOW_DIM] += 1.0
    norm = float(np.linalg.norm(counts))
    if norm == 0.0:
        raise ValidationError("text has no embeddable tokens")
    return EmbeddingVector(values=tuple(counts / norm), model_tag=f"hashed-bow-{BOW_DIM}")
