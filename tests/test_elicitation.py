"""Knowledge elicitation tests: splits, prompt golden, and loop control flow."""

import math
from pathlib import Path

import pytest

from expcopilot.bench import build_fold_artifacts, normalize_accuracy
from expcopilot.core import Task
from expcopilot.elicitation import (
    DEFAULT_QUESTIONS,
    ElicitationConfig,
    build_elicitation_prompt,
    elicit_knowledge,
    split_validation,
    validate_candidate,
)
from expcopilot.errors import ElicitationError, GatewayError, ValidationError
from expcopilot.gateway import ScriptedBackend
from expcopilot.retrieval import KnowledgeItem, cosine_similarity, hashed_bow_embedding
from expcopilot.suggestion import SuggestionConfig

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
    cfg = ElicitationConfig(rounds=rounds, patience=patience, seed=1, subset_size=2)
    best, trace = elicit_knowledge(
        pool, space, None, cfg, backend, validator=scripted_validator(scores)
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

    def test_all_rounds_failing_raises_with_trace(self, svm_space, online_demo_entries):
        backend = SequenceBackend(fail_rounds=range(1, 20))
        cfg = ElicitationConfig(rounds=5, patience=10, seed=1)
        with pytest.raises(ElicitationError) as excinfo:
            elicit_knowledge(
                online_demo_entries, svm_space, None, cfg, backend,
                validator=scripted_validator([0.0] * 5),
            )
        assert len(excinfo.value.trace) == 5


class TestValidateCandidate:
    def test_score_equals_nearest_neighbor_oracle(self, synth_benchmark):
        b = synth_benchmark
        backend = ScriptedBackend()
        all_ids = [t.task_id for t in b.tasks]
        entries, discretizers = build_fold_artifacts(b, all_ids, backend)
        train_entries = entries[:9]
        val_tasks = [entries[i].task for i in (9, 10, 11)]
        candidate = KnowledgeItem(space_id=b.space.space_id, text="prefer shallow trees", validation_score=0.0)

        score = validate_candidate(
            candidate, val_tasks, train_entries, b.space, discretizers,
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
        entries, discretizers = build_fold_artifacts(b, [t.task_id for t in b.tasks], backend)
        candidate = KnowledgeItem(space_id=b.space.space_id, text="x", validation_score=0.0)
        with pytest.raises(RuntimeError, match="bug in the backend"):
            validate_candidate(
                candidate, [entries[-1].task], entries[:-1], b.space, discretizers,
                b, SuggestionConfig(), backend,
            )

    def test_package_error_in_backend_scores_zero(self, synth_benchmark):
        class FailingBackend(ScriptedBackend):
            def complete(self, request):
                raise GatewayError("backend unavailable")

        b = synth_benchmark
        backend = FailingBackend()
        entries, discretizers = build_fold_artifacts(b, [t.task_id for t in b.tasks], backend)
        candidate = KnowledgeItem(space_id=b.space.space_id, text="x", validation_score=0.0)
        score = validate_candidate(
            candidate, [entries[-1].task], entries[:-1], b.space, discretizers,
            b, SuggestionConfig(), backend,
        )
        assert score == 0.0

    def test_empty_validation_set_rejected(self, synth_benchmark):
        b = synth_benchmark
        backend = ScriptedBackend()
        entries, discretizers = build_fold_artifacts(b, [t.task_id for t in b.tasks], backend)
        candidate = KnowledgeItem(space_id=b.space.space_id, text="x", validation_score=0.0)
        with pytest.raises(ValidationError):
            validate_candidate(
                candidate, [], entries, b.space, discretizers, b, SuggestionConfig(), backend
            )

    def test_scripted_backend_gives_identical_scores_across_candidates(self, synth_benchmark):
        # The scripted policy ignores the injected guideline, so scores only
        # reflect generation settings; candidates tie.
        b = synth_benchmark
        backend = ScriptedBackend()
        entries, discretizers = build_fold_artifacts(b, [t.task_id for t in b.tasks], backend)
        val_tasks = [entries[-1].task]
        scores = [
            validate_candidate(
                KnowledgeItem(space_id=b.space.space_id, text=text, validation_score=0.0),
                val_tasks, entries[:-1], b.space, discretizers, b, SuggestionConfig(), backend,
            )
            for text in ("guideline one", "guideline two")
        ]
        assert scores[0] == scores[1]


class TestElicitEndToEnd:
    def test_deterministic_trace_with_scripted_backend(self, synth_benchmark):
        b = synth_benchmark
        cfg = ElicitationConfig(rounds=4, patience=2, seed=13, subset_size=3)

        def run():
            backend = ScriptedBackend()
            entries, discretizers = build_fold_artifacts(b, [t.task_id for t in b.tasks], backend)
            return elicit_knowledge(
                entries, b.space, b, cfg, backend,
                suggestion_config=SuggestionConfig(), discretizers=discretizers,
            )

        best_a, trace_a = run()
        best_b, trace_b = run()
        assert best_a == best_b
        assert trace_a == trace_b
        # Identical scripted scores: the incumbent is round 1 and the loop
        # stops once stagnation exceeds patience.
        assert len(trace_a) == min(cfg.rounds, 1 + cfg.patience + 1)

    def test_empty_pool_rejected(self, synth_benchmark):
        with pytest.raises(ValidationError):
            elicit_knowledge(
                [], synth_benchmark.space, synth_benchmark,
                ElicitationConfig(), ScriptedBackend(),
            )
