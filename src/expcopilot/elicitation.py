"""Offline knowledge elicitation: candidate generation with mock-online post-validation.

Each round samples a subset of experience, a question, and a temperature, asks
the backend for a knowledge candidate, and scores the candidate by running the
online suggestion stage on held-out validation tasks. A stagnation counter
stops the loop once improvements dry up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence, TypeVar

from .core import Discretizer, SolutionSpace, Task, check_int, check_strings
from .errors import ConfigError, ElicitationError, ExpCopilotError, GatewayError, ValidationError
from .gateway import CompletionRequest
from .retrieval import KnowledgeItem, PoolEntry, RetrievalIndex
from .suggestion import SuggestionConfig, retrieve_demos, suggest

DEFAULT_QUESTIONS = (
    "Q: From the examples above, what patterns can we observe about the relationship "
    "between dataset characteristics and the best hyper-parameter configurations? "
    "Answer MUST be concise, critical, point-by-point, line-by-line, and brief. "
    "Only include relevant observations without unnecessary elaboration.",
    "Q: Looking carefully at the examples above, which dataset characteristics drive "
    "the choice of hyper-parameter configurations, and how? Answer with short, "
    "numbered observations.",
    "Q: What rules of thumb connect the dataset characteristics above to their best "
    "hyper-parameter configurations? State each rule on its own line.",
    "Q: Summarize, point by point, how the best hyper-parameter configurations shift "
    "as the dataset characteristics change in the examples above.",
)


@dataclass(frozen=True)
class ElicitationConfig:
    rounds: int = 10
    patience: int = 3
    questions: tuple[str, ...] = DEFAULT_QUESTIONS
    subset_size: int = 3
    val_fraction: float = 0.10
    max_tokens: int = 512

    def __post_init__(self):
        for name in ("rounds", "patience", "subset_size", "max_tokens"):
            check_int(name, getattr(self, name), 1)
        object.__setattr__(self, "questions", check_strings("questions", self.questions))
        if not self.questions:
            raise ValidationError("questions must be non-empty")
        if not (0.0 < self.val_fraction < 1.0):
            raise ValidationError("val_fraction must be within (0, 1)")


@dataclass(frozen=True)
class ElicitationRound:
    """Audit record of one elicitation round."""

    round: int
    question: str
    temperature: float
    prompt: str
    candidate: str | None
    score: float | None
    improved: bool
    stagnation: int
    error: str | None = None


T = TypeVar("T")


def split_validation(
    items: Sequence[T], val_fraction: float, seed: int
) -> tuple[list[T], list[T]]:
    """Seeded split by index into (train, validation); validation gets ceil(fraction * N) items."""
    if len(items) < 2:
        raise ValidationError("need at least 2 tasks to split off a validation set")
    if not (0.0 < val_fraction < 1.0):
        raise ValidationError("val_fraction must be within (0, 1)")
    n_val = math.ceil(val_fraction * len(items))
    n_val = min(n_val, len(items) - 1)  # train must stay non-empty
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(len(items)), n_val))
    chosen_set = set(chosen)
    val = [items[i] for i in chosen]
    train = [x for i, x in enumerate(items) if i not in chosen_set]
    return train, val


def build_elicitation_prompt(space: SolutionSpace, sampled: Sequence[PoolEntry], question: str) -> str:
    """Prompt asking for knowledge: space description, per-task demonstrations, question.

    Each entry shows all its experiences, in the same block format as the
    online prompt's demonstrations.
    """
    if not sampled:
        raise ValidationError("cannot build an elicitation prompt without experience")
    blocks = [space.description, *(entry.block for entry in sampled), question]
    return "\n\n".join(blocks)


def validate_candidate(
    candidate: KnowledgeItem,
    queries: Sequence[tuple[Task, Sequence[PoolEntry]]],
    space: SolutionSpace,
    discretizers: Mapping[str, Discretizer],
    benchmark,
    suggestion_config: SuggestionConfig,
    backend,
) -> float:
    """Score knowledge by mock-running the online stage on the validation tasks.

    `queries` pairs each validation task with its demonstrations from
    `retrieve_demos`. Returns the mean normalized metric@1; a task whose
    suggestion fails with an `ExpCopilotError` scores 0 instead of aborting
    the loop. Any other exception is a programming error and propagates.
    """
    from .bench import evaluate_solution, normalize_accuracy

    if not queries:
        raise ValidationError("validation task set is empty")
    cfg = replace(suggestion_config, temperature=0.0)
    scores = []
    for task, demos in queries:
        try:
            result = suggest(task, demos, [candidate], space, discretizers, cfg, backend)
            raw = evaluate_solution(benchmark, task.task_id, result.solutions[0])
            scores.append(normalize_accuracy(raw, task.task_id, benchmark))
        except ExpCopilotError:
            scores.append(0.0)
    return sum(scores) / len(scores)


def elicit_knowledge(
    pool: Sequence[PoolEntry],
    space: SolutionSpace,
    benchmark,
    cfg: ElicitationConfig,
    backend,
    seed: int = 0,
    suggestion_config: SuggestionConfig | None = None,
    discretizers: Mapping[str, Discretizer] | None = None,
    validator: Callable[[KnowledgeItem], float] | None = None,
) -> tuple[KnowledgeItem, list[ElicitationRound]]:
    """Iterative knowledge elicitation with post-validation and stagnation stopping.

    Per round: sample an experience subset and question, draw a temperature
    uniformly, generate a candidate, and validate it. Strict improvements reset
    the stagnation counter; the loop breaks once stagnation exceeds patience.
    Returns the best candidate (with its provenance and score) plus the trace.
    `seed` drives the validation split and every round's draws.

    The default scorer splits off validation entries and retrieves each one's
    demonstrations from the remaining entries by the entry's own embedding,
    once, before the first round: only the candidate changes between rounds.

    `validator` overrides the default mock-online scorer, in which case the
    benchmark may be None.
    """
    entries = [e for e in pool if e.task.space_id == space.space_id]
    if not entries:
        raise ValidationError(f"experience pool has no entries for space '{space.space_id}'")

    if validator is None:
        if benchmark is None or suggestion_config is None or discretizers is None:
            raise ConfigError(
                "elicitation needs a benchmark, suggestion config, and discretizers "
                "unless a validator is supplied"
            )
        gen_entries, val_entries = split_validation(entries, cfg.val_fraction, seed)
        index = RetrievalIndex(gen_entries)
        queries = [
            (e.task, retrieve_demos(e.embedding, index, suggestion_config, exclude={e.task.task_id}))
            for e in val_entries
        ]

        def validator(item: KnowledgeItem) -> float:
            return validate_candidate(
                item, queries, space, discretizers, benchmark, suggestion_config, backend
            )
    else:
        gen_entries = entries

    rng = random.Random(seed)
    best: KnowledgeItem | None = None
    best_score = -math.inf
    stagnation = 0
    trace: list[ElicitationRound] = []

    for round_index in range(1, cfg.rounds + 1):
        subset = rng.sample(gen_entries, min(cfg.subset_size, len(gen_entries)))
        question = rng.choice(cfg.questions)
        temperature = rng.uniform(0.0, 1.0)
        prompt = build_elicitation_prompt(space, subset, question)
        provenance = {"question": question, "temperature": temperature, "round": round_index}
        try:
            text = backend.complete(
                CompletionRequest(prompt, temperature=temperature, max_tokens=cfg.max_tokens)
            )
            candidate = KnowledgeItem(
                space_id=space.space_id, text=text, validation_score=0.0, provenance=provenance
            )
            score, error = validator(candidate), None
        except (GatewayError, ValidationError) as exc:
            text, score, error = None, None, str(exc)

        improved = score is not None and score > best_score
        if improved:
            best_score = score
            best = replace(candidate, validation_score=score)
            stagnation = 0
        else:
            stagnation += 1
        trace.append(
            ElicitationRound(
                round=round_index, question=question, temperature=temperature,
                prompt=prompt, candidate=text, score=score, improved=improved,
                stagnation=stagnation, error=error,
            )
        )
        if stagnation > cfg.patience:
            break

    if best is None:
        raise ElicitationError("no knowledge candidate could be generated", trace=trace)
    return best, trace
