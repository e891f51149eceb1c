"""Online suggestion stage: retrieve, prompt under a token budget, parse, concretize.

One completion call produces all suggestions; a single repair retry and a
constant-baseline fallback, computed only when a slot needs it, keep the
returned set full and inside the solution space even when the model response
is malformed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

from .core import (
    Discretizer, Solution, SolutionSpace, Task, check_int, check_number, check_strings, discretize_solution,
)
from .errors import ParseError, ValidationError
from .gateway import CONFIG_LINE, CompletionRequest, estimate_tokens, max_prompt_chars
from .retrieval import (
    EmbeddingVector,
    KnowledgeItem,
    PoolEntry,
    RetrievalIndex,
    retrieve_experience,
    retrieve_knowledge,
)

FILL_BUDGET = "fill-budget"


@dataclass(frozen=True)
class SuggestionConfig:
    n_suggestions: int = 3
    k_tasks: int | str = FILL_BUDGET
    demos_per_task: int = 3
    token_budget: int = 3000
    temperature: float = 0.0
    task_kind: str = "classification dataset"
    max_tokens: int = 512
    stop_sequences: tuple[str, ...] | None = ("\n\nDataset:",)

    def __post_init__(self):
        for name, least in (("n_suggestions", 1), ("demos_per_task", 1), ("token_budget", 256), ("max_tokens", 1)):
            check_int(name, getattr(self, name), least)
        if not 0.0 <= check_number("temperature", self.temperature) <= 1.0:
            raise ValidationError(f"temperature must be within [0, 1], got {self.temperature!r}")
        if self.k_tasks != FILL_BUDGET and (type(self.k_tasks) is not int or self.k_tasks < 1):
            raise ValidationError(f"k_tasks must be a positive integer or '{FILL_BUDGET}'")
        if not isinstance(self.task_kind, str):
            raise ValidationError(f"task_kind must be a string, got {self.task_kind!r}")
        if self.stop_sequences is not None:
            object.__setattr__(self, "stop_sequences", check_strings("stop_sequences", self.stop_sequences))


@dataclass(frozen=True)
class SuggestionSet:
    """Ordered suggestions for one task, with the prompt and raw response that produced them."""

    task_id: str
    items: tuple[tuple[Mapping[str, str], Solution], ...]
    prompt: str
    raw_response: str
    repair_response: str | None = None
    fallback_count: int = 0

    @property
    def solutions(self) -> list[Solution]:
        return [solution for _, solution in self.items]


def _instruction(n: int, task_kind: str, have_demos: bool, have_knowledge: bool) -> str:
    tail = f"recommend {n} hyper-parameter configurations for a new {task_kind}"
    if have_demos and have_knowledge:
        return f"Based on the examples and guidelines above, {tail}"
    if have_demos:
        return f"Based on the examples above, {tail}"
    if have_knowledge:
        return f"Based on the guidelines above, {tail}"
    return tail[0].upper() + tail[1:]


def build_suggestion_prompt(
    space: SolutionSpace,
    task: Task,
    demos: Sequence[PoolEntry],
    knowledge: Sequence[KnowledgeItem],
    cfg: SuggestionConfig,
) -> str:
    """Assemble the online prompt, fitting demonstrations into the token budget.

    Demonstration blocks are taken most-similar-first, stopping at the first
    one that would push the prompt past `max_prompt_chars`, the length limit
    of the ceil(chars / 4) estimate; the prompt is joined once. The result is
    the prompt with the most demonstrations that fits: the prompt grows with
    every block, and the one without demonstrations is the shortest.
    """

    def tail(have_demos: bool) -> str:
        parts = []
        if knowledge:
            numbered = "\n".join(f"{i}. {k.text}" for i, k in enumerate(knowledge, start=1))
            parts.append("Guidelines:\n" + numbered)
        parts.append(_instruction(cfg.n_suggestions, cfg.task_kind, have_demos, bool(knowledge)))
        parts.append(f"Dataset: {task.description}")
        return "\n\n".join(parts)

    sections = [space.description]
    demo_tail = tail(True)
    # Characters left for demonstration blocks; every section after the first adds a "\n\n".
    room = max_prompt_chars(cfg.token_budget)
    room -= len(space.description) + 2 + len(demo_tail)
    for entry in demos:
        block = entry.block
        room -= len(block) + 2
        if room < 0:
            break
        sections.append(block)
    sections.append(demo_tail if len(sections) > 1 else tail(False))
    prompt = "\n\n".join(sections)
    if estimate_tokens(prompt) > cfg.token_budget:
        raise ValidationError(
            f"budget exhausted: {cfg.token_budget} tokens cannot fit the prompt even "
            "without demonstrations"
        )
    return prompt


def parse_solutions(
    response: str, space: SolutionSpace, expected_n: int
) -> list[dict[str, str]]:
    """Extract discrete solutions from "Configuration i: ..." lines.

    Values are matched case-insensitively: numeric parameters against the level
    lexicon, categorical parameters against their choices. Any offending clause
    fails the whole parse.
    """
    by_lower = {p.name.lower(): p for p in space.parameters}
    problems: list[str] = []
    configs: list[dict[str, str]] = []
    for line in response.splitlines():
        m = CONFIG_LINE.match(line)
        if not m:
            continue
        body = m.group("body").strip()
        if not body:
            problems.append(f"empty configuration line: {line.strip()!r}")
            continue
        current: dict[str, str] = {}
        for clause in body.split(". "):
            clause = clause.strip().rstrip(".").strip()
            if not clause:
                continue
            name_part, sep, value_part = clause.partition(" is ")
            if not sep:
                problems.append(f"malformed clause {clause!r}")
                continue
            name_norm = " ".join(name_part.lower().split())
            value_norm = " ".join(value_part.lower().split())
            param = by_lower.get(name_norm)
            if param is None:
                problems.append(f"unknown parameter in clause {clause!r}")
                continue
            if param.name in current:
                problems.append(f"duplicate parameter '{param.name}' in {body!r}")
                continue
            if param.kind == "numeric":
                level = space.resolve_level(value_norm)
                if level is None:
                    problems.append(f"unknown level {value_part.strip()!r} in clause {clause!r}")
                    continue
                current[param.name] = level
            else:
                match = next((c for c in param.choices if c.lower() == value_norm), None)
                if match is None:
                    problems.append(f"unknown choice {value_part.strip()!r} in clause {clause!r}")
                    continue
                current[param.name] = match
        configs.append(current)
    if problems:
        raise ParseError("unparseable configuration response: " + "; ".join(problems))
    if not configs:
        raise ParseError("zero parseable configurations in response")
    return configs[:expected_n]


def concretize(
    discrete: Mapping[str, str],
    space: SolutionSpace,
    discretizers: Mapping[str, Discretizer],
) -> Solution:
    """Turn a discrete solution into a concrete one via per-level representatives."""
    values: dict[str, float | str] = {}
    for p in space.parameters:
        if p.name not in discrete:
            raise ValidationError(f"discrete solution is missing parameter '{p.name}'")
        v = discrete[p.name]
        if p.kind == "numeric":
            x = discretizers[p.name].representative(v) if isinstance(v, str) else float(v)
            lo, hi = p.numeric_range
            values[p.name] = min(max(x, lo), hi)
        else:
            values[p.name] = v
    return Solution(space, values)


def retrieve_demos(
    query: EmbeddingVector,
    pool: Sequence[PoolEntry] | RetrievalIndex,
    cfg: SuggestionConfig,
    exclude: Collection[str] = (),
) -> list[PoolEntry]:
    """The pool entries to demonstrate for the task embedded as `query`, most similar first.

    Ranks the pool (indexed first unless it is a `RetrievalIndex`) by cosine
    similarity, leaving out the task ids in `exclude`, and keeps the k_tasks
    best. Under fill-budget `build_suggestion_prompt` cuts the list at the
    token budget: each block it keeps costs its length plus 2 of at most
    `max_prompt_chars(token_budget)` characters, so no prompt keeps more than
    `max_prompt_chars(token_budget) // (shortest block + 2)` blocks, and
    k is that bound plus 1.
    """
    index = pool if isinstance(pool, RetrievalIndex) else RetrievalIndex(pool)
    if cfg.k_tasks == FILL_BUDGET:
        k = max_prompt_chars(cfg.token_budget) // (index.shortest_block + 2) + 1
    else:
        k = cfg.k_tasks
    return [entry for entry, _ in retrieve_experience(query, index, k, exclude=exclude)]


def suggest(
    task: Task,
    demos: Sequence[PoolEntry],
    knowledge_pool: Sequence[KnowledgeItem],
    space: SolutionSpace,
    discretizers: Mapping[str, Discretizer],
    cfg: SuggestionConfig,
    backend,
    fallback: Callable[[], Sequence[Solution]] | None = None,
) -> SuggestionSet:
    """Run the online stage for one task: prompt once, parse, concretize.

    `demos` are the ranked pool entries from `retrieve_demos`; the prompt
    holds as many of them as the token budget allows. If the response yields
    fewer than n_suggestions valid configurations, one repair retry at
    temperature 0.7 is attempted. Slots still empty after it are filled from
    the solutions returned by `fallback`, a zero-argument callable (typically
    the constant baseline) that is called only then.
    """
    if task.space_id != space.space_id:
        raise ValidationError(
            f"task '{task.task_id}' belongs to space '{task.space_id}', not '{space.space_id}'"
        )
    knowledge = retrieve_knowledge(space.space_id, knowledge_pool)
    prompt = build_suggestion_prompt(space, task, demos, knowledge, cfg)

    def run(temperature: float) -> tuple[str, list[tuple[dict[str, str], Solution]]]:
        response = backend.complete(
            CompletionRequest(
                prompt,
                temperature=temperature,
                max_tokens=cfg.max_tokens,
                stop_sequences=cfg.stop_sequences,
            )
        )
        items: list[tuple[dict[str, str], Solution]] = []
        try:
            parsed = parse_solutions(response, space, cfg.n_suggestions)
        except ParseError:
            return response, items
        for discrete in parsed:
            try:
                items.append((discrete, concretize(discrete, space, discretizers)))
            except ValidationError:
                continue
        return response, items

    raw_response, items = run(cfg.temperature)
    repair_response = None
    if len(items) < cfg.n_suggestions:
        repair_response, extra = run(0.7)
        items.extend(extra[: cfg.n_suggestions - len(items)])

    fallback_count = 0
    if len(items) < cfg.n_suggestions and fallback is not None:
        for solution in fallback():
            if len(items) >= cfg.n_suggestions:
                break
            items.append((discretize_solution(solution, space, discretizers), solution))
            fallback_count += 1
    if len(items) < cfg.n_suggestions:
        raise ParseError(
            f"response for task '{task.task_id}' yielded {len(items)} of "
            f"{cfg.n_suggestions} configurations after repair, and no constant "
            "fallback is available"
        )
    return SuggestionSet(
        task_id=task.task_id,
        items=tuple(items),
        prompt=prompt,
        raw_response=raw_response,
        repair_response=repair_response,
        fallback_count=fallback_count,
    )
