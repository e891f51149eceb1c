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
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @cached_property
    def array(self) -> np.ndarray:
        array = np.asarray(self.values)
        array.setflags(write=False)
        return array

    @cached_property
    def norm(self) -> float:
        return float(np.linalg.norm(self.array))


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


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of the angle between two compatible embeddings."""
    if a.model_tag != b.model_tag:
        raise ValidationError(f"embedding model mismatch: {a.model_tag!r} vs {b.model_tag!r}")
    if len(a.values) != len(b.values):
        raise ValidationError(f"embedding length mismatch: {len(a.values)} vs {len(b.values)}")
    if a.norm == 0.0 or b.norm == 0.0:
        raise ValidationError("cannot compute cosine similarity with a zero vector")
    return float(np.dot(a.array, b.array) / (a.norm * b.norm))


def retrieve_experience(
    query: EmbeddingVector,
    pool: Sequence[PoolEntry],
    k: int,
    exclude: Collection[str] = (),
) -> list[tuple[PoolEntry, float]]:
    """The k pool tasks most similar to the query, descending; ties by task_id.

    `exclude` holds task ids that must not be retrieved (e.g. the evaluation
    task itself during leave-one-out).
    """
    if k < 1:
        raise ValidationError("k must be at least 1")
    excluded = set(exclude)
    scored = [
        (entry, cosine_similarity(query, entry.embedding))
        for entry in pool
        if entry.task.task_id not in excluded
    ]
    scored.sort(key=lambda item: (-item[1], item[0].task.task_id))
    return scored[:k]


def retrieve_knowledge(space_id: str, knowledge_pool: Sequence[KnowledgeItem]) -> list[KnowledgeItem]:
    """All knowledge elicited for the given space, best-validated first."""
    matches = [k for k in knowledge_pool if k.space_id == space_id]
    matches.sort(key=lambda k: -k.validation_score)
    return matches


def hashed_bow_embedding(text: str, dim: int = BOW_DIM) -> EmbeddingVector:
    """Deterministic feature-hashed bag-of-words embedding, L2-normalized.

    Stands in for a live embedding model so retrieval is meaningful offline.
    """
    if not text:
        raise ValidationError("cannot embed empty text")
    counts = np.zeros(dim)
    for token in _TOKEN.findall(text.lower()):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        counts[int.from_bytes(digest[:8], "big") % dim] += 1.0
    norm = float(np.linalg.norm(counts))
    if norm == 0.0:
        raise ValidationError("text has no embeddable tokens")
    return EmbeddingVector(values=tuple(counts / norm), model_tag=f"hashed-bow-{dim}")
