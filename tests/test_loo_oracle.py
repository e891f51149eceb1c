"""Whole-sweep oracle: `run_loo_eval` against a leave-one-out sweep that caches nothing.

Every fold of `reference_loo` refits, canonicalizes, embeds and ranks from
scratch, so the sweep's fit memo, pool indexes, embedding cache and masked
retrieval must reproduce it exactly: equal rows and the same prompts, in the
same order, sent to the model.
"""

from dataclasses import replace

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from test_elicitation import GuidedBackend, reference_elicit
from test_suggestion import reference_prompt

from expcopilot.bench import (
    Benchmark,
    EvalConfig,
    EvalRow,
    Row,
    baseline_constant,
    evaluate_solution,
    metric_at_t,
    normalize_accuracy,
    run_loo_eval,
)
from expcopilot.core import (
    TOP_RECORDS,
    ExperienceRecord,
    ParameterDef,
    Solution,
    SolutionSpace,
    Task,
    canonicalize,
    derive_seed,
    fit_discretizer,
    solution_key,
)
from expcopilot.elicitation import ElicitationConfig
from expcopilot.errors import ExpCopilotError, ParseError, ValidationError
from expcopilot.gateway import CompletionRequest, prompt_sha256
from expcopilot.retrieval import PoolEntry, cosine_similarity
from expcopilot.suggestion import FILL_BUDGET, SuggestionConfig, concretize, parse_solutions

# About 2 s of tier-1 on a 2-vCPU x86_64 VM.
MAX_EXAMPLES = 100

SPACE = SolutionSpace(
    "oracle",
    "Here are some datasets along with the best settings for a boosted learner.",
    (
        ParameterDef("depth", "numeric", numeric_range=(1.0, 9.0)),
        ParameterDef("rate", "numeric", numeric_range=(1e-4, 1.0), log_scale=True),
        ParameterDef("shift", "numeric", numeric_range=(-1.0, 1.0)),
        ParameterDef("booster", "categorical", choices=("tree", "dart")),
    ),
)
_NAMES = tuple(p.name for p in SPACE.parameters)


class RecordingBackend(GuidedBackend):
    """`GuidedBackend` that keeps every prompt it is asked to complete, in order."""

    def __init__(self):
        super().__init__()
        self.prompts = []

    def complete(self, req):
        self.prompts.append((req.prompt, req.temperature))
        return super().complete(req)


def reference_suggest(task, demos, knowledge, cfg, backend, discretizers, fallback):
    """The online stage with the prefix-loop prompt: one answer, one repair, then the fallback."""
    prompt = reference_prompt(SPACE, task, demos, knowledge, cfg)
    solutions = []
    for temperature in (cfg.temperature, 0.7):
        if len(solutions) < cfg.n_suggestions:
            request = CompletionRequest(
                prompt, temperature=temperature, max_tokens=cfg.max_tokens, stop_sequences=cfg.stop_sequences
            )
            try:
                parsed = parse_solutions(backend.complete(request), SPACE, cfg.n_suggestions)
            except ParseError:
                parsed = []
            answered = []
            for discrete in parsed:
                try:
                    answered.append(concretize(discrete, SPACE, discretizers))
                except ValidationError:
                    pass
            solutions += answered[: cfg.n_suggestions - len(solutions)]
    if len(solutions) < cfg.n_suggestions:
        solutions += fallback()[: cfg.n_suggestions - len(solutions)]
    if len(solutions) < cfg.n_suggestions:
        raise ParseError("too few configurations")
    return solutions


def reference_fold(b, task, held, seed, cfg, backend):
    """One copilot fold built from the training tasks alone, with nothing reused."""
    train = [t for t in b.tasks if t.task_id not in held]
    if not train:
        raise ExpCopilotError("no training tasks")
    sug = replace(cfg.suggestion, task_kind=b.task_kind)
    top = [row for t in train for row in b.rows[t.task_id][:TOP_RECORDS]]
    discretizers = {
        p.name: fit_discretizer([row.solution.values[p.name] for row in top], p)
        for p in SPACE.parameters
        if p.kind == "numeric"
    }
    pool = [
        PoolEntry(t, backend.embed(t.description), [
            canonicalize(ExperienceRecord(t, row.solution, row.metric), SPACE, discretizers)
            for row in b.rows[t.task_id][: sug.demos_per_task]
        ])
        for t in train
    ]
    knowledge = []
    if cfg.use_knowledge:
        seed = derive_seed(seed, f"elicit:{task.task_id}")
        best, _ = reference_elicit(pool, SPACE, b, cfg.elicitation, seed, backend, sug, discretizers)
        knowledge = [best]
    query = backend.embed(task.description)
    ranked = sorted(pool, key=lambda e: (-cosine_similarity(query, e.embedding), e.task.task_id))
    demos = ranked if sug.k_tasks == FILL_BUDGET else ranked[: sug.k_tasks]
    return reference_suggest(
        task, demos, knowledge, sug, backend, discretizers,
        fallback=lambda: baseline_constant(b, [t.task_id for t in train], sug.n_suggestions),
    )


def reference_loo(b, seeds, cfg, backend):
    """The copilot sweep's rows, and each fold's held-out ids with the prompts it sent."""
    rows, folds = [], []
    for seed in seeds:
        for task in b.tasks:
            held = {task.task_id, *b.twins.get(task.task_id, ())}
            first = len(backend.prompts)
            try:
                metrics = [
                    evaluate_solution(b, task.task_id, s) for s in reference_fold(b, task, held, seed, cfg, backend)
                ]
                mts = tuple(metric_at_t(metrics, t, b.direction) for t in (1, 2, 3))
                failed = False
            except ExpCopilotError:
                lo, hi = b.norm_bounds[task.task_id]
                mts = (lo, lo, lo) if b.direction == "higher" else (hi, hi, hi)
                failed = True
            naccs = tuple(normalize_accuracy(m, task.task_id, b) for m in mts)
            rows.append(EvalRow("copilot", seed, task.task_id, mts, naccs, failed))
            folds.append((task, held, [prompt for prompt, _ in backend.prompts[first:]]))
    return tuple(rows), folds


def oracle_benchmark(tasks, twins=(), direction="higher"):
    """A benchmark of `(task id, description, rows)` triples, each row a
    `(depth, rate, shift, booster, metric)` tuple; `twins` lists twin pairs."""
    rows = {}
    for task_id, _, drawn in tasks:
        solutions = [(Solution(SPACE, dict(zip(_NAMES, row[:4]))), row[4]) for row in drawn]
        rows[task_id] = tuple(Row(solution_key(SPACE, s), s, m) for s, m in solutions)
    paired = {}
    for a, c in twins:
        if a != c:
            paired.setdefault(a, set()).add(c)
            paired.setdefault(c, set()).add(a)
    return Benchmark(
        name="oracle",
        space=SPACE,
        tasks=tuple(Task(task_id, SPACE.space_id, description) for task_id, description, _ in tasks),
        direction=direction,
        rows=rows,
        table={tid: {r.key: r.metric for r in rs} for tid, rs in rows.items()},
        norm_bounds={task_id: (0.0, 1.0) for task_id, _, _ in tasks},
        twins={tid: tuple(sorted(others)) for tid, others in paired.items()},
    )


# Task ids that are digits, or prefixes of one another, so string order and
# numeric order disagree. Descriptions share words, so retrieval ties.
_IDS = ("1", "10", "2", "a", "a1", "ab", "b", "11")
_WORDS = ("alpha", "beta", "gamma", "delta")
# Grid values: signed zeros on `shift` as two distinct solutions.
_VALUES = ((1.0, 2.5, 9.0), (1e-4, 1e-2, 0.3), (-0.0, 0.0, 0.5), ("tree", "dart"))


@st.composite
def benchmarks(draw):
    n = draw(st.integers(2, 6))
    ids = draw(st.permutations(_IDS))[:n]
    descriptions = draw(st.lists(
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
        min_size=n, max_size=n, unique=True,
    ))
    # Few values per parameter, so that folds share split points and fits, and
    # a representative lands on a grid solution.
    values = [draw(st.lists(st.sampled_from(v), min_size=1, max_size=len(v), unique_by=repr)) for v in _VALUES]
    grid = draw(st.lists(st.tuples(*map(st.sampled_from, values)), min_size=1, max_size=8, unique_by=repr))

    def rows():
        picked = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=6, unique_by=repr))
        return [(*point, draw(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)))) for point in picked]

    tasks = [(tid, description, rows()) for tid, description in zip(ids, descriptions)]
    twins = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=2))
    return oracle_benchmark(tasks, twins, draw(st.sampled_from(("higher", "lower"))))


def _rows(*rows):
    return [(depth, 1e-4, shift, "tree", metric) for depth, shift, metric in rows]


# Two folds whose held-out `shift` values differ only in the sign of a zero;
# a fit memo that merged -0.0 and 0.0 would serve one fold the other's fit.
SIGNED_ZERO_FITS = oracle_benchmark([
    ("1", "alpha", _rows((1.0, -0.0, 0.0), (1.0, 0.0, 0.0), (9.0, 0.0, 0.0))),
    ("10", "alpha alpha", _rows((1.0, -0.0, 0.0), (1.0, 0.0, 0.0), (9.0, 0.0, 0.0), (1.0, 0.5, 0.0), (9.0, -0.0, 0.25))),
    ("2", "beta", _rows((1.0, -0.0, 0.0))),
    ("a", "alpha alpha alpha", _rows((1.0, -0.0, 0.0), (9.0, 0.0, 0.0))),
    ("a1", "alpha alpha gamma", _rows((1.0, -0.0, 0.0), (1.0, 0.0, 0.0), (9.0, 0.0, 0.0))),
    ("ab", "alpha beta", _rows((1.0, -0.0, 0.0))),
])


@example(
    b=SIGNED_ZERO_FITS, seeds=[0], use_knowledge=False, demos_per_task=2, k_tasks=FILL_BUDGET,
    token_budget=256, rounds=1, val_fraction=0.1,
)
@given(
    b=benchmarks(),
    seeds=st.sampled_from(([0], [0, 1])),
    use_knowledge=st.booleans(),
    demos_per_task=st.integers(1, 5),
    k_tasks=st.sampled_from((FILL_BUDGET, 1, 2)),
    token_budget=st.sampled_from((256, 300, 3000)),
    rounds=st.integers(1, 3),
    val_fraction=st.sampled_from((0.1, 0.5)),
)
# Hypothesis's explain phase trips an internal assertion on some failures of
# this test; it only annotates a failure, so it is left out.
@settings(max_examples=MAX_EXAMPLES, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
def test_sweep_equals_a_cache_free_reference(
    b, seeds, use_knowledge, demos_per_task, k_tasks, token_budget, rounds, val_fraction
):
    cfg = EvalConfig(
        suggestion=SuggestionConfig(demos_per_task=demos_per_task, k_tasks=k_tasks, token_budget=token_budget),
        elicitation=ElicitationConfig(rounds=rounds, patience=1, subset_size=2, val_fraction=val_fraction),
        use_knowledge=use_knowledge,
    )
    backend = RecordingBackend()
    report = run_loo_eval(b, "copilot", seeds, cfg, backend=backend)
    reference = RecordingBackend()
    rows, folds = reference_loo(b, seeds, cfg, reference)
    assert report.rows == rows
    sent = [(prompt_sha256(p), t) for p, t in backend.prompts]
    assert sent == [(prompt_sha256(p), t) for p, t in reference.prompts]

    # No prompt of a fold names its held-out task or a twin, apart from the
    # held-out task's own query line that ends its suggestion prompt.
    by_description = {t.description: t.task_id for t in b.tasks}
    for task, held, prompts in folds:
        for prompt in prompts:
            lines = prompt.removesuffix(f"\n\nDataset: {task.description}").split("\n")
            named = {by_description[line[len("Dataset: "):]] for line in lines if line.startswith("Dataset: ")}
            assert not named & held
