"""Knowledge elicitation tests: splits, prompt golden, loop control flow, retrieval once per run."""

import math
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expcopilot.bench import Benchmark, FoldCache, Row, build_fold_artifacts, evaluate_solution, normalize_accuracy
from expcopilot.core import ParameterDef, Solution, SolutionSpace, Task, solution_key
from expcopilot.elicitation import (
    DEFAULT_QUESTIONS,
    ElicitationConfig,
    ElicitationRound,
    build_elicitation_prompt,
    elicit_knowledge,
    split_validation,
    validate_candidate,
)
from expcopilot.errors import ElicitationError, ExpCopilotError, GatewayError, ValidationError
from expcopilot.gateway import CompletionRequest, ScriptedBackend, prompt_sha256
from expcopilot.retrieval import KnowledgeItem, cosine_similarity, hashed_bow_embedding, retrieve_experience
from expcopilot.suggestion import FILL_BUDGET, SuggestionConfig, retrieve_demos, suggest

GOLDEN = Path(__file__).parent / "golden"


def make_tasks(n):
    return [Task(task_id=f"t{i:02d}", space_id="s", description=f"task number {i}") for i in range(n)]


class TestSplitValidation:
    def test_ten_tasks_yield_one(self):
        train, val = split_validation(make_tasks(10), 0.10, seed=0)
        assert len(val) == 1 and len(train) == 9

    def test_twelve_tasks_yield_two(self):
        train, val = split_validation(make_tasks(12), 0.10, seed=0)
        assert len(val) == 2 and len(train) == 10

    def test_deterministic_per_seed(self):
        tasks = make_tasks(20)
        assert split_validation(tasks, 0.25, 7) == split_validation(tasks, 0.25, 7)
        assert split_validation(tasks, 0.25, 7) != split_validation(tasks, 0.25, 8)

    def test_disjoint_and_complete(self):
        tasks = make_tasks(9)
        train, val = split_validation(tasks, 0.3, 3)
        assert set(t.task_id for t in train) | set(t.task_id for t in val) == {
            t.task_id for t in tasks
        }
        assert not set(t.task_id for t in train) & set(t.task_id for t in val)

    def test_needs_two_tasks(self):
        with pytest.raises(ValidationError):
            split_validation(make_tasks(1), 0.5, 0)

    def test_train_never_empty(self):
        train, val = split_validation(make_tasks(2), 0.9, 0)
        assert len(train) == 1 and len(val) == 1


class TestElicitationPrompt:
    def test_matches_golden(self, svm_space, offline_demo_entries):
        prompt = build_elicitation_prompt(svm_space, offline_demo_entries, DEFAULT_QUESTIONS[0])
        assert prompt == (GOLDEN / "offline_prompt.txt").read_text(encoding="utf-8")

    def test_minimal_prompt_has_all_sections(self, svm_space, offline_demo_entries):
        entry = offline_demo_entries[0]
        single = type(entry)(
            task=entry.task, embedding=entry.embedding, experiences=entry.experiences[:1]
        )
        prompt = build_elicitation_prompt(svm_space, [single], DEFAULT_QUESTIONS[1])
        assert prompt.startswith(svm_space.description)
        assert f"Dataset: {entry.task.description}" in prompt
        assert "Configuration 1:" in prompt
        assert prompt.endswith(DEFAULT_QUESTIONS[1])

    def test_byte_identical_rebuild(self, svm_space, offline_demo_entries):
        first = build_elicitation_prompt(svm_space, offline_demo_entries, DEFAULT_QUESTIONS[0])
        second = build_elicitation_prompt(svm_space, offline_demo_entries, DEFAULT_QUESTIONS[0])
        assert first == second

    def test_empty_sample_rejected(self, svm_space):
        with pytest.raises(ValidationError):
            build_elicitation_prompt(svm_space, [], DEFAULT_QUESTIONS[0])


class SequenceBackend:
    """Completion stub that returns 'candidate <n>' for the n-th call."""

    def __init__(self, fail_rounds=()):
        self.calls = 0
        self.fail_rounds = set(fail_rounds)

    def complete(self, req):
        self.calls += 1
        if self.calls in self.fail_rounds:
            raise GatewayError("injected failure")
        return f"candidate {self.calls}"

    def embed(self, text):
        return hashed_bow_embedding(text)


def scripted_validator(scores):
    def validator(item: KnowledgeItem) -> float:
        index = int(item.text.split()[-1]) - 1
        return scores[index]

    return validator


def reference_loop(scores, rounds, patience):
    """Line-by-line simulation of the elicitation loop for cross-checking."""
    best_score, best_round, stagnation, calls = -math.inf, None, 0, 0
    for n in range(1, rounds + 1):
        calls += 1
        if scores[n - 1] > best_score:
            best_score, best_round = scores[n - 1], n
            stagnation = 0
        else:
            stagnation += 1
            if stagnation > patience:
                break
    return calls, best_round, best_score


def run_elicit(scores, rounds, patience, pool, space, fail_rounds=()):
    backend = SequenceBackend(fail_rounds)
    cfg = ElicitationConfig(rounds=rounds, patience=patience, subset_size=2)
    best, trace = elicit_knowledge(
        pool, space, None, cfg, backend, seed=1, validator=scripted_validator(scores)
    )
    return backend, best, trace


class TestElicitControlFlow:
    def test_spec_sequence_stops_after_round_five(self, svm_space, online_demo_entries):
        scores = [0.2, 0.5, 0.5, 0.3, 0.4]
        backend, best, trace = run_elicit(scores, 10, 2, online_demo_entries, svm_space)
        assert backend.calls == 5
        assert len(trace) == 5
        assert best.text == "candidate 2"
        assert best.validation_score == 0.5

    def test_single_round(self, svm_space, online_demo_entries):
        backend, best, trace = run_elicit([0.9], 1, 3, online_demo_entries, svm_space)
        assert backend.calls == 1
        assert best.text == "candidate 1"

    def test_strictly_improving_runs_all_rounds(self, svm_space, online_demo_entries):
        scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        backend, best, _ = run_elicit(scores, 6, 1, online_demo_entries, svm_space)
        assert backend.calls == 6
        assert best.text == "candidate 6"

    def test_ties_keep_first_best(self, svm_space, online_demo_entries):
        backend, best, _ = run_elicit([0.5, 0.5, 0.5, 0.5], 4, 5, online_demo_entries, svm_space)
        assert best.text == "candidate 1"

    def test_improvement_resets_stagnation(self, svm_space, online_demo_entries):
        # Stagnation builds to patience, then an improvement resets it to zero.
        scores = [0.5, 0.4, 0.4, 0.9, 0.1, 0.1, 0.1]
        backend, best, trace = run_elicit(scores, 7, 2, online_demo_entries, svm_space)
        assert best.text == "candidate 4"
        assert trace[3].improved and trace[3].stagnation == 0
        assert backend.calls == 7

    def test_matches_reference_on_randomized_sequences(self, svm_space, online_demo_entries):
        import random

        rng = random.Random(2024)
        for trial in range(50):
            rounds = rng.randint(1, 20)
            patience = rng.choice([1, 2, 3])
            scores = [rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]) for _ in range(rounds)]
            calls, best_round, best_score = reference_loop(scores, rounds, patience)
            backend, best, trace = run_elicit(
                scores, rounds, patience, online_demo_entries, svm_space
            )
            assert backend.calls == calls, f"trial {trial}"
            assert best.text == f"candidate {best_round}"
            assert best.validation_score == best_score
            assert best.validation_score == max(r.score for r in trace if r.score is not None)
            assert backend.calls <= rounds
            assert backend.calls <= best_round + patience + 1

    def test_provenance_recorded(self, svm_space, online_demo_entries):
        _, best, trace = run_elicit([0.2, 0.7], 2, 1, online_demo_entries, svm_space)
        assert best.provenance["round"] == 2
        assert best.provenance["question"] in DEFAULT_QUESTIONS
        assert 0.0 <= best.provenance["temperature"] <= 1.0

    def test_failed_round_counts_as_stagnant(self, svm_space, online_demo_entries):
        scores = [0.5, 0.0, 0.6]  # round 2 fails before the validator runs
        backend, best, trace = run_elicit(
            scores, 3, 3, online_demo_entries, svm_space, fail_rounds=(2,)
        )
        assert trace[1].error is not None and trace[1].candidate is None
        assert best.text == "candidate 3"

    def test_failed_rounds_count_toward_patience(self, svm_space, online_demo_entries):
        # Rounds 2 and 3 fail: stagnation reaches 2 > patience 1, so round 3 is the last.
        backend, best, trace = run_elicit(
            [0.5, 0.9, 0.9, 0.9], 4, 1, online_demo_entries, svm_space, fail_rounds=(2, 3)
        )
        assert backend.calls == 3 and best.text == "candidate 1"
        assert [(r.candidate, r.score, r.improved, r.stagnation, r.error) for r in trace[1:]] == [
            (None, None, False, 1, "injected failure"),
            (None, None, False, 2, "injected failure"),
        ]

    def test_all_rounds_failing_raises_with_trace(self, svm_space, online_demo_entries):
        backend = SequenceBackend(fail_rounds=range(1, 20))
        cfg = ElicitationConfig(rounds=5, patience=10)
        with pytest.raises(ElicitationError) as excinfo:
            elicit_knowledge(
                online_demo_entries, svm_space, None, cfg, backend, seed=1,
                validator=scripted_validator([0.0] * 5),
            )
        assert len(excinfo.value.trace) == 5


def whole_pool(b, backend):
    """Every task's entry, in task order, and the discretizers of a fold that holds nothing out."""
    index, discretizers = build_fold_artifacts(FoldCache(b), (), backend)
    return index.entries, discretizers


def queries_for(entries, pool, cfg=SuggestionConfig()):
    """(task, demos) pairs as `elicit_knowledge` passes them to `validate_candidate`."""
    return [(e.task, retrieve_demos(e.embedding, pool, cfg, exclude={e.task.task_id})) for e in entries]


class TestValidateCandidate:
    def test_score_equals_nearest_neighbor_oracle(self, synth_benchmark):
        b = synth_benchmark
        backend = ScriptedBackend()
        entries, discretizers = whole_pool(b, backend)
        train_entries = entries[:9]
        val_tasks = [entries[i].task for i in (9, 10, 11)]
        candidate = KnowledgeItem(space_id=b.space.space_id, text="prefer shallow trees", validation_score=0.0)

        score = validate_candidate(
            candidate, queries_for(entries[9:], train_entries), b.space, discretizers,
            b, SuggestionConfig(), backend,
        )

        expected = []
        for task in val_tasks:
            query = hashed_bow_embedding(task.description)
            ranked = sorted(
                (
                    (-cosine_similarity(query, e.embedding), e.task.task_id, e)
                    for e in train_entries
                    if e.task.task_id != task.task_id
                )
            )
            neighbor = ranked[0][2]
            rows = b.rows[neighbor.task.task_id]
            best_row = min(enumerate(rows), key=lambda item: (-item[1].metric, item[0]))[1]
            raw = b.table[task.task_id][best_row.key]
            expected.append(normalize_accuracy(raw, task.task_id, b))
        assert score == sum(expected) / len(expected)

    def test_programming_error_in_backend_propagates(self, synth_benchmark):
        # Only package errors score 0; anything else is a bug and must surface.
        class BrokenBackend(ScriptedBackend):
            def complete(self, request):
                raise RuntimeError("bug in the backend")

        b = synth_benchmark
        backend = BrokenBackend()
        entries, discretizers = whole_pool(b, backend)
        candidate = KnowledgeItem(space_id=b.space.space_id, text="x", validation_score=0.0)
        with pytest.raises(RuntimeError, match="bug in the backend"):
            validate_candidate(
                candidate, queries_for(entries[-1:], entries[:-1]), b.space,
                discretizers, b, SuggestionConfig(), backend,
            )

    def test_package_error_in_backend_scores_zero(self, synth_benchmark):
        class FailingBackend(ScriptedBackend):
            def complete(self, request):
                raise GatewayError("backend unavailable")

        b = synth_benchmark
        backend = FailingBackend()
        entries, discretizers = whole_pool(b, backend)
        candidate = KnowledgeItem(space_id=b.space.space_id, text="x", validation_score=0.0)
        score = validate_candidate(
            candidate, queries_for(entries[-1:], entries[:-1]), b.space,
            discretizers, b, SuggestionConfig(), backend,
        )
        assert score == 0.0

    def test_empty_validation_set_rejected(self, synth_benchmark):
        b = synth_benchmark
        backend = ScriptedBackend()
        entries, discretizers = whole_pool(b, backend)
        candidate = KnowledgeItem(space_id=b.space.space_id, text="x", validation_score=0.0)
        with pytest.raises(ValidationError):
            validate_candidate(
                candidate, [], b.space, discretizers, b, SuggestionConfig(), backend
            )

    def test_scripted_backend_gives_identical_scores_across_candidates(self, synth_benchmark):
        # The scripted policy ignores the injected guideline, so scores only
        # reflect generation settings; candidates tie.
        b = synth_benchmark
        backend = ScriptedBackend()
        entries, discretizers = whole_pool(b, backend)
        queries = queries_for(entries[-1:], entries[:-1])
        scores = [
            validate_candidate(
                KnowledgeItem(space_id=b.space.space_id, text=text, validation_score=0.0),
                queries, b.space, discretizers, b, SuggestionConfig(), backend,
            )
            for text in ("guideline one", "guideline two")
        ]
        assert scores[0] == scores[1]


class TestElicitEndToEnd:
    def test_deterministic_trace_with_scripted_backend(self, synth_benchmark):
        b = synth_benchmark
        cfg = ElicitationConfig(rounds=4, patience=2, subset_size=3)

        def run():
            backend = ScriptedBackend()
            entries, discretizers = whole_pool(b, backend)
            return elicit_knowledge(
                entries, b.space, b, cfg, backend, seed=13,
                suggestion_config=SuggestionConfig(), discretizers=discretizers,
            )

        best_a, trace_a = run()
        best_b, trace_b = run()
        assert best_a == best_b
        assert trace_a == trace_b
        # Identical scripted scores: the incumbent is round 1 and the loop
        # stops once stagnation exceeds patience.
        assert len(trace_a) == min(cfg.rounds, 1 + cfg.patience + 1)

    def test_validation_prompts_match_golden(self, synth_benchmark):
        # The scripted policy reads only the first demonstration, so no score
        # shows where the budget cuts the list; the prompt hashes do. At 300
        # tokens the cut falls mid-list, after 2 of the 8 training tasks.
        b = synth_benchmark
        cfg = ElicitationConfig(rounds=3, patience=3, val_fraction=0.3)
        lines = []
        for budget, kept in ((3000, 8), (300, 2)):
            prompts = []

            class RecordingBackend(ScriptedBackend):
                def complete(self, req):
                    prompts.append(req.prompt)
                    return super().complete(req)

            backend = RecordingBackend()
            pool, discretizers = whole_pool(b, backend)
            _, trace = elicit_knowledge(
                pool, b.space, b, cfg, backend, seed=5,
                suggestion_config=SuggestionConfig(token_budget=budget), discretizers=discretizers,
            )
            elicitation_prompts = {r.prompt for r in trace}
            suggestion_prompts = [p for p in prompts if p not in elicitation_prompts]
            assert len(suggestion_prompts) == 12  # 3 rounds x 4 validation tasks
            assert all(p.count("Dataset: ") == kept + 1 for p in suggestion_prompts)
            lines.extend(f"{budget} {prompt_sha256(p)}\n" for p in suggestion_prompts)
        golden = (GOLDEN / "elicit_validation_prompts.txt").read_text(encoding="utf-8")
        assert "".join(lines) == golden

    def test_empty_pool_rejected(self, synth_benchmark):
        with pytest.raises(ValidationError):
            elicit_knowledge(
                [], synth_benchmark.space, synth_benchmark,
                ElicitationConfig(), ScriptedBackend(),
            )


GRID_SPACE = SolutionSpace(
    "grid",
    "Here are some datasets along with the best configurations of a boosted tree model.",
    (
        ParameterDef("depth", "numeric", numeric_range=(1.0, 9.0)),
        ParameterDef("rate", "numeric", numeric_range=(1e-3, 1.0), log_scale=True),
        ParameterDef("booster", "categorical", choices=("tree", "dart")),
    ),
)
GRID = tuple(
    Solution(GRID_SPACE, {"depth": d, "rate": r, "booster": bo})
    for d in (1.0, 3.0, 5.0, 7.0, 9.0)
    for r in (1e-3, 1e-2, 1e-1, 1.0)
    for bo in ("tree", "dart")
)
WORDS = ("wide", "tall", "noisy", "sparse", "dense", "images", "text", "tabular", "binary", "skewed")


def generated_benchmark(n_tasks, seed, direction):
    """Benchmark whose tasks have random word descriptions and random metrics on one grid."""
    rng = random.Random(seed)
    tasks = tuple(
        Task(f"g-{i:02d}", "grid", " ".join(rng.choices(WORDS, k=rng.randint(2, 5))))
        for i in range(n_tasks)
    )
    rows = {
        t.task_id: tuple(Row(solution_key(GRID_SPACE, s), s, rng.random()) for s in GRID)
        for t in tasks
    }
    return Benchmark(
        name="grid",
        space=GRID_SPACE,
        tasks=tasks,
        direction=direction,
        rows=rows,
        table={tid: {r.key: r.metric for r in rs} for tid, rs in rows.items()},
        norm_bounds={tid: (min(r.metric for r in rs), max(r.metric for r in rs)) for tid, rs in rows.items()},
        twins={},
    )


class GuidedBackend(ScriptedBackend):
    """Scripted backend whose suggestions depend on the whole prompt, knowledge included.

    A suggestion prompt gets the configurations of the demonstration picked by
    the prompt's hash, so candidates score differently, or a fixed
    configuration when it has no demonstrations; one prompt in four gets an
    unparseable answer at temperature 0, which the repair retry fixes.
    """

    def __init__(self):
        super().__init__(policy=self.answer)

    @staticmethod
    def answer(prompt, temperature):
        digest = int(prompt_sha256(prompt)[:8], 16)
        if prompt.splitlines()[-1].startswith("Q:"):
            return f"Prefer guideline {digest % 97}."
        if temperature == 0.0 and digest % 4 == 0:
            return "no configurations here"
        blocks = prompt.split("\n\nDataset: ")[1:-1]
        if not blocks:
            return "\n".join(f"Configuration {i}: depth is medium. rate is low. booster is tree." for i in (1, 2, 3))
        chosen = blocks[digest % len(blocks)].splitlines()[1:]
        return "\n".join(chosen)


def reference_elicit(pool, space, benchmark, cfg, seed, backend, sug_cfg, discretizers):
    """The elicitation loop as it was when each validation call retrieved its own
    demonstrations, so every round embedded and ranked every validation task again.
    `GuidedBackend` never fails a completion, so the failed-round branch is left out."""
    entries = [e for e in pool if e.task.space_id == space.space_id]
    train, val = split_validation([e.task for e in entries], cfg.val_fraction, seed)
    train_ids = {t.task_id for t in train}
    gen = [e for e in entries if e.task.task_id in train_ids]
    val_cfg = replace(sug_cfg, temperature=0.0)

    def score(candidate):
        scores = []
        for task in val:
            try:
                query = backend.embed(task.description)
                k = len(gen) if sug_cfg.k_tasks == FILL_BUDGET else sug_cfg.k_tasks
                ranked = retrieve_experience(query, gen, max(k, 1), exclude={task.task_id})
                demos = [entry for entry, _ in ranked]
                result = suggest(task, demos, [candidate], space, discretizers, val_cfg, backend)
                raw = evaluate_solution(benchmark, task.task_id, result.solutions[0])
                scores.append(normalize_accuracy(raw, task.task_id, benchmark))
            except ExpCopilotError:
                scores.append(0.0)
        return sum(scores) / len(scores)

    rng = random.Random(seed)
    best, best_score, stagnation, trace = None, -math.inf, 0, []
    for n in range(1, cfg.rounds + 1):
        subset = rng.sample(gen, min(cfg.subset_size, len(gen)))
        question = rng.choice(cfg.questions)
        temperature = rng.uniform(0.0, 1.0)
        prompt = build_elicitation_prompt(space, subset, question)
        text = backend.complete(CompletionRequest(prompt, temperature=temperature, max_tokens=cfg.max_tokens))
        provenance = {"question": question, "temperature": temperature, "round": n}
        candidate = KnowledgeItem(space.space_id, text, 0.0, provenance)
        value = score(candidate)
        improved = value > best_score
        if improved:
            best, best_score, stagnation = replace(candidate, validation_score=value), value, 0
        else:
            stagnation += 1
        trace.append(ElicitationRound(n, question, temperature, prompt, text, value, improved, stagnation))
        if stagnation > cfg.patience:
            break
    return best, trace


class TestRetrieveOncePerRun:
    @given(
        n_tasks=st.integers(3, 9),
        bench_seed=st.integers(0, 2**16),
        direction=st.sampled_from(("higher", "lower")),
        data=st.data(),
        rounds=st.integers(1, 6),
        patience=st.integers(1, 3),
        val_fraction=st.sampled_from((0.1, 0.3, 0.5)),
        subset_size=st.integers(1, 3),
        k_tasks=st.sampled_from((FILL_BUDGET, 1, 2)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_per_round_retrieval(
        self, n_tasks, bench_seed, direction, data, rounds, patience, val_fraction,
        subset_size, k_tasks, seed,
    ):
        b = generated_benchmark(n_tasks, bench_seed, direction)
        ids = [t.task_id for t in b.tasks]
        train_ids = data.draw(st.lists(st.sampled_from(ids), min_size=2, unique=True))
        index, discretizers = build_fold_artifacts(FoldCache(b), set(ids) - set(train_ids), ScriptedBackend())
        by_id = {e.task.task_id: e for e in index.entries}
        pool = [by_id[tid] for tid in train_ids]
        cfg = ElicitationConfig(
            rounds=rounds, patience=patience, subset_size=subset_size, val_fraction=val_fraction,
        )
        sug_cfg = SuggestionConfig(k_tasks=k_tasks)
        got = elicit_knowledge(
            pool, b.space, b, cfg, GuidedBackend(), seed,
            suggestion_config=sug_cfg, discretizers=discretizers,
        )
        assert got == reference_elicit(
            pool, b.space, b, cfg, seed, GuidedBackend(), sug_cfg, discretizers
        )

    def test_elicitation_embeds_nothing(self, synth_benchmark):
        b = synth_benchmark
        pool, discretizers = whole_pool(b, ScriptedBackend())
        embedded = Counter()

        class CountingBackend(ScriptedBackend):
            def embed(self, text):
                embedded[text] += 1
                return super().embed(text)

        cfg = ElicitationConfig(rounds=6, patience=6, val_fraction=0.3)
        _, trace = elicit_knowledge(
            pool, b.space, b, cfg, CountingBackend(), seed=3,
            suggestion_config=SuggestionConfig(), discretizers=discretizers,
        )
        # Validation queries rank by their pool entries' vectors.
        assert len(trace) == 6 and all(r.score is not None for r in trace)
        assert embedded == Counter()
