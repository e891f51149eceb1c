"""Online-stage tests: prompt golden, budget, parsing, concretization, suggest()."""

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expcopilot.bench import FoldCache, build_fold_artifacts
from expcopilot.core import (
    DEFAULT_LEVELS,
    CanonicalExperience,
    Solution,
    SolutionSpace,
    Task,
    verbalize_solution,
)
from expcopilot.errors import ParseError, ValidationError
from expcopilot.gateway import CHARS_PER_TOKEN, NearestNeighborPolicy, ScriptedBackend, estimate_tokens
from expcopilot.retrieval import EmbeddingVector, KnowledgeItem, PoolEntry
from expcopilot.suggestion import (
    SuggestionConfig,
    _instruction,
    build_suggestion_prompt,
    concretize,
    parse_solutions,
    retrieve_demos,
    suggest,
)

GOLDEN = Path(__file__).parent / "golden"


def prompt_sections(prompt):
    return prompt.split("\n\n")


def reference_prompt(space, task, demos, knowledge, cfg):
    """The quadratic builder the single pass replaced: re-join every prefix, longest first."""

    def assemble(m):
        parts = [space.description]
        parts.extend(entry.block for entry in demos[:m])
        if knowledge:
            numbered = "\n".join(f"{i}. {k.text}" for i, k in enumerate(knowledge, start=1))
            parts.append("Guidelines:\n" + numbered)
        parts.append(_instruction(cfg.n_suggestions, cfg.task_kind, m > 0, bool(knowledge)))
        parts.append(f"Dataset: {task.description}")
        return "\n\n".join(parts)

    for m in range(len(demos), -1, -1):
        prompt = assemble(m)
        if estimate_tokens(prompt) <= cfg.token_budget:
            return prompt
    raise ValidationError("budget exhausted")


def text_entry(i, description, solution_texts):
    task = Task(task_id=f"demo-{i}", space_id="s", description=description)
    experiences = [
        CanonicalExperience(task.task_id, "s", text, {}, 0.0) for text in solution_texts
    ]
    return PoolEntry(task, EmbeddingVector((1.0,), "unit"), experiences)


_words = st.text(alphabet="abc xyz.", min_size=1, max_size=300)


class TestBuildSuggestionPrompt:
    def test_matches_golden(self, svm_space, online_demo_entries, guideline_items, gina_task):
        prompt = build_suggestion_prompt(
            svm_space, gina_task, online_demo_entries, guideline_items, SuggestionConfig()
        )
        assert prompt == (GOLDEN / "online_prompt.txt").read_text(encoding="utf-8")

    def test_zero_knowledge_elides_guidelines(
        self, svm_space, online_demo_entries, gina_task
    ):
        prompt = build_suggestion_prompt(
            svm_space, gina_task, online_demo_entries, [], SuggestionConfig()
        )
        assert "Guidelines:" not in prompt
        assert "Based on the examples above, recommend 3 hyper-parameter" in prompt

    def test_knowledge_only_prompt(self, svm_space, guideline_items, gina_task):
        prompt = build_suggestion_prompt(
            svm_space, gina_task, [], guideline_items, SuggestionConfig()
        )
        assert "Guidelines:" in prompt
        assert "Based on the guidelines above, recommend 3" in prompt

    def test_budget_drops_least_similar_demo(
        self, svm_space, online_demo_entries, guideline_items, gina_task
    ):
        cfg = SuggestionConfig()
        full = build_suggestion_prompt(
            svm_space, gina_task, online_demo_entries, guideline_items, cfg
        )
        two = build_suggestion_prompt(
            svm_space, gina_task, online_demo_entries[:2], guideline_items, cfg
        )
        # A budget between the two-demo and three-demo estimates must keep
        # exactly the two most similar tasks.
        budget = estimate_tokens(full) - 1
        assert estimate_tokens(two) <= budget
        truncated = build_suggestion_prompt(
            svm_space, gina_task, online_demo_entries, guideline_items,
            SuggestionConfig(token_budget=budget),
        )
        assert truncated == two
        assert estimate_tokens(truncated) <= budget

    def test_budget_exhausted(self, svm_space, online_demo_entries, guideline_items, gina_task):
        # Enough guidelines to push the fixed sections past the minimum budget.
        many = guideline_items * 4
        with pytest.raises(ValidationError, match="budget exhausted"):
            build_suggestion_prompt(
                svm_space, gina_task, online_demo_entries, many,
                SuggestionConfig(token_budget=256),
            )

    def test_k_tasks_caps_demonstrations(
        self, svm_space, online_demo_entries, guideline_items, gina_task
    ):
        # retrieve_demos makes the k_tasks cut; the prompt shows what it keeps.
        cfg = SuggestionConfig(k_tasks=1)
        demos = retrieve_demos(ScriptedBackend().embed(gina_task.description), online_demo_entries, cfg)
        assert len(demos) == 1
        prompt = build_suggestion_prompt(svm_space, gina_task, demos, guideline_items, cfg)
        assert prompt.count("Dataset:") == 2  # one demo block plus the query

    # Descriptions long enough that the pool always holds more entries than the bound.
    @given(lengths=st.lists(st.integers(40, 120), min_size=30, max_size=40), budget=st.integers(256, 300))
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fill_budget_retrieves_the_bound_and_prompts_as_without_it(self, svm_space, gina_task, lengths, budget):
        # The bound is max_prompt_chars // (shortest block + 2) + 1 entries; the
        # prompt from them equals the prompt from the whole ranking.
        pool = [
            PoolEntry(Task(f"t{i:02d}", svm_space.space_id, "d" * n), EmbeddingVector((1.0, float(i)), "e"), ())
            for i, n in enumerate(lengths)
        ]
        cfg = SuggestionConfig(token_budget=budget)
        query = EmbeddingVector((1.0, 0.0), "e")
        demos = retrieve_demos(query, pool, cfg)
        bound = budget * CHARS_PER_TOKEN // (len("Dataset: ") + min(lengths) + 2) + 1
        assert len(demos) == bound < len(pool)
        every = retrieve_demos(query, pool, replace(cfg, k_tasks=len(pool)))
        assert demos == every[: len(demos)]
        assert build_suggestion_prompt(svm_space, gina_task, demos, [], cfg) == build_suggestion_prompt(
            svm_space, gina_task, every, [], cfg
        )

    def test_section_order_is_fixed(
        self, svm_space, online_demo_entries, guideline_items, gina_task
    ):
        prompt = build_suggestion_prompt(
            svm_space, gina_task, online_demo_entries, guideline_items, SuggestionConfig()
        )
        sections = prompt_sections(prompt)
        assert sections[0] == svm_space.description
        for block in sections[1:4]:
            assert block.startswith("Dataset: ")
            assert "Configuration 1:" in block
        assert sections[4].startswith("Guidelines:\n1.")
        assert sections[5].startswith("Based on the examples and guidelines above")
        assert sections[6] == f"Dataset: {gina_task.description}"

    @given(
        space_text=st.text(alphabet="abc xyz.", min_size=1, max_size=2500),
        query=_words,
        demos=st.lists(st.tuples(_words, st.lists(_words, min_size=1, max_size=4)), max_size=12),
        knowledge=st.lists(_words, max_size=3),
        budget=st.integers(256, 1200),
        edge=st.one_of(st.none(), st.tuples(st.integers(0, 12), st.integers(-1, 1))),
        n_suggestions=st.integers(1, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_single_pass_matches_prefix_loop(
        self, space_text, query, demos, knowledge, budget, edge, n_suggestions,
    ):
        if edge is not None:
            # Pad the description so every prompt is over the minimum budget.
            space_text = "p" * 256 * CHARS_PER_TOKEN + space_text
        space = SolutionSpace("s", space_text, ())
        task = Task(task_id="query", space_id="s", description=query)
        entries = [text_entry(i, d, texts) for i, (d, texts) in enumerate(demos)]
        items = [KnowledgeItem("s", text, 0.0) for text in knowledge]
        cfg = SuggestionConfig(n_suggestions=n_suggestions, token_budget=10**9)
        if edge is not None:
            # Put the budget at, or one token beside, the size of the prompt with m demos.
            m, slack = edge
            sized = reference_prompt(space, task, entries[:m], items, cfg)
            budget = estimate_tokens(sized) + slack
        cfg = replace(cfg, token_budget=budget)
        try:
            expected = reference_prompt(space, task, entries, items, cfg)
        except ValidationError:
            with pytest.raises(ValidationError, match="budget exhausted"):
                build_suggestion_prompt(space, task, entries, items, cfg)
            return
        assert build_suggestion_prompt(space, task, entries, items, cfg) == expected

    def test_budget_checks_are_linear_in_kept_demos(self, svm_space, gina_task, monkeypatch):
        # The budget is fitted by summing block lengths, so the work is one
        # block lookup per kept demo plus the one that overflows.
        checks = []
        real_block = PoolEntry.block.func

        def counting_block(entry):
            checks.append(entry.task.task_id)
            return real_block(entry)

        monkeypatch.setattr(PoolEntry, "block", property(counting_block))
        entries = [
            text_entry(i, f"dataset {i} " * 5, ["cost is low. gamma is high. kernel is radial."] * 3)
            for i in range(150)
        ]
        prompt = build_suggestion_prompt(svm_space, gina_task, entries, [], SuggestionConfig())
        kept = prompt.count("\n\nDataset: ") - 1
        assert 0 < kept < len(entries)
        assert len(checks) == kept + 1

    def test_n_suggestions_substituted(self, svm_space, online_demo_entries, gina_task):
        prompt = build_suggestion_prompt(
            svm_space, gina_task, online_demo_entries, [], SuggestionConfig(n_suggestions=5)
        )
        assert "recommend 5 hyper-parameter configurations" in prompt


class TestParseSolutions:
    def test_demonstration_format_line(self, svm_space):
        response = "Configuration 1: cost is medium. gamma is small. kernel is radial."
        got = parse_solutions(response, svm_space, 3)
        assert got == [{"cost": "medium", "gamma": "low", "kernel": "radial"}]

    def test_unknown_level_named(self, svm_space):
        with pytest.raises(ParseError, match="enormous"):
            parse_solutions("Configuration 1: cost is enormous.", svm_space, 3)

    def test_unknown_parameter_named(self, svm_space):
        with pytest.raises(ParseError, match="epsilon"):
            parse_solutions("Configuration 1: epsilon is medium.", svm_space, 3)

    def test_duplicate_parameter_rejected(self, svm_space):
        with pytest.raises(ParseError, match="duplicate"):
            parse_solutions("Configuration 1: cost is medium. cost is small.", svm_space, 3)

    def test_zero_configurations_rejected(self, svm_space):
        with pytest.raises(ParseError, match="zero parseable"):
            parse_solutions("I would recommend a radial kernel.", svm_space, 3)

    def test_case_and_whitespace_normalized(self, svm_space):
        response = "CONFIGURATION  2 :  Cost is  Very  Small. KERNEL is Radial."
        got = parse_solutions(response, svm_space, 1)
        assert got == [{"cost": "very low", "kernel": "radial"}]

    def test_canonical_labels_accepted_alongside_aliases(self, svm_space):
        response = "Configuration 1: cost is very low. kernel is linear."
        got = parse_solutions(response, svm_space, 1)
        assert got[0]["cost"] == "very low"

    def test_returns_at_most_expected_n(self, svm_space):
        response = "\n".join(
            f"Configuration {i}: cost is medium. kernel is linear." for i in range(1, 6)
        )
        assert len(parse_solutions(response, svm_space, 3)) == 3

    def test_round_trip_identity(self, svm_space):
        rng = random.Random(99)
        kernels = svm_space.parameter("kernel").choices
        for _ in range(200):
            discrete = {
                "cost": rng.choice(DEFAULT_LEVELS),
                "gamma": rng.choice(DEFAULT_LEVELS),
                "kernel": rng.choice(kernels),
            }
            response = "Configuration 1: " + verbalize_solution(discrete, svm_space)
            assert parse_solutions(response, svm_space, 1) == [discrete]


LINEAR = "Configuration 2: kernel is linear."


class TestConfigLine:
    """The parser and the scripted policy share one "Configuration i:" pattern. Both
    strip the body; a blank body is an empty configuration to the parser and no
    configuration to the policy."""

    @pytest.mark.parametrize(
        "line, parsed, echoed",
        [
            ("Configuration 1: cost is medium. kernel is radial.  \t",
             {"cost": "medium", "kernel": "radial"}, "cost is medium. kernel is radial."),
            ("  configuration 3 :  cost is small. ", {"cost": "low"}, "cost is small."),
            ("Configuration 1: cost is large.\xa0", {"cost": "high"}, "cost is large."),
            ("Configuration 1:", None, None),
            ("Configuration 1:   \t", None, None),
        ],
    )
    def test_parser_and_policy_read_lines_as_before(self, svm_space, line, parsed, echoed):
        response = f"{line}\n{LINEAR}"
        if parsed is None:
            with pytest.raises(ParseError, match="empty configuration line: 'Configuration 1:'"):
                parse_solutions(response, svm_space, 3)
        else:
            assert parse_solutions(response, svm_space, 3) == [parsed, {"kernel": "linear"}]

        def echo(block, bodies):
            got = NearestNeighborPolicy()(f"desc\n\nDataset: d\n{block}\n\nDataset: q\n", 0.0)
            bodies = [b for b in bodies if b]
            return got == "\n".join(f"Configuration {i}: {b}" for i, b in enumerate(bodies, start=1))

        assert echo(f"{line}\n{LINEAR}", [echoed, "kernel is linear."])
        assert echo(f"Configuration 1: kernel is linear.\n{line}", ["kernel is linear.", echoed])


class TestConcretize:
    def test_uses_representatives(self, svm_space, svm_discretizers):
        discrete = {"cost": "very low", "gamma": "high", "kernel": "radial"}
        solution = concretize(discrete, svm_space, svm_discretizers)
        assert solution.values["cost"] == svm_discretizers["cost"].representative("very low")
        assert solution.values["kernel"] == "radial"

    def test_all_categorical_identity(self):
        from expcopilot.core import ParameterDef, SolutionSpace

        space = SolutionSpace(
            space_id="c",
            description="d",
            parameters=(ParameterDef("kernel", "categorical", choices=("linear", "radial")),),
        )
        assert concretize({"kernel": "linear"}, space, {}).values["kernel"] == "linear"

    def test_degenerate_discretizer_gives_constant(self, svm_space):
        from expcopilot.core import fit_discretizer

        discretizers = {
            "cost": fit_discretizer([2.0] * 5, svm_space.parameter("cost")),
            "gamma": fit_discretizer([0.5] * 5, svm_space.parameter("gamma")),
        }
        solution = concretize(
            {"cost": "medium", "gamma": "medium", "kernel": "linear"}, svm_space, discretizers
        )
        assert solution.values["cost"] == 2.0
        assert solution.values["gamma"] == 0.5

    def test_missing_parameter_rejected(self, svm_space, svm_discretizers):
        with pytest.raises(ValidationError, match="gamma"):
            concretize({"cost": "medium", "kernel": "radial"}, svm_space, svm_discretizers)

    def test_representative_outside_range_is_clamped(self, svm_space, svm_discretizers):
        from expcopilot.core import Discretizer

        drifted = {
            "cost": Discretizer(parameter="cost", split_points=(), representatives={"medium": 2000.0}),
            "gamma": svm_discretizers["gamma"],
        }
        solution = concretize(
            {"cost": "medium", "gamma": "medium", "kernel": "radial"}, svm_space, drifted
        )
        assert solution.values["cost"] == 1000.0  # clamped to the range's upper bound


class CannedBackend:
    """Returns fixed responses in order; embeds like the scripted backend."""

    def __init__(self, *responses):
        self.responses = list(responses)
        self.completion_calls = 0

    def complete(self, req):
        self.completion_calls += 1
        index = min(self.completion_calls - 1, len(self.responses) - 1)
        return self.responses[index]

    def embed(self, text):
        from expcopilot.retrieval import hashed_bow_embedding

        return hashed_bow_embedding(text)


class TestSuggest:
    def test_nearest_neighbor_echo(self, synth_benchmark):
        b = synth_benchmark
        backend = ScriptedBackend()
        index, discretizers = build_fold_artifacts(FoldCache(b), (), backend)
        task = b.tasks[0]
        before = backend.completion_calls
        query = backend.embed(task.description)
        demos = retrieve_demos(query, index, SuggestionConfig(), exclude={task.task_id})
        result = suggest(task, demos, [], b.space, discretizers, SuggestionConfig(), backend)
        # Exactly one completion call and the partner task's best configurations.
        assert backend.completion_calls - before == 1
        partner = index.entries[1]  # synth-02
        assert [d for d, _ in result.items] == [
            dict(exp.discrete_solution) for exp in partner.experiences
        ]
        for solution in result.solutions:
            assert solution.space_id == b.space.space_id
        assert result.fallback_count == 0 and result.repair_response is None

    def test_empty_pool_with_default_completion(self, svm_space, svm_discretizers, gina_task, guideline_items):
        default = "\n".join(
            f"Configuration {i}: cost is medium. gamma is medium. kernel is radial."
            for i in range(1, 4)
        )
        backend = ScriptedBackend(policy=lambda prompt, temperature: default)
        result = suggest(
            gina_task, [], guideline_items, svm_space, svm_discretizers,
            SuggestionConfig(), backend,
        )
        assert len(result.solutions) == 3
        assert "Dataset:" in result.prompt and "Configuration" not in result.prompt

    def test_garbage_response_fills_from_fallback(self, svm_space, svm_discretizers, gina_task):
        backend = CannedBackend("no configurations here at all")
        fallback = [
            Solution(svm_space, {"cost": 1.0, "gamma": 0.01, "kernel": "radial"}),
            Solution(svm_space, {"cost": 10.0, "gamma": 0.1, "kernel": "linear"}),
            Solution(svm_space, {"cost": 0.1, "gamma": 1.0, "kernel": "polynomial"}),
        ]
        result = suggest(
            gina_task, [], [], svm_space, svm_discretizers, SuggestionConfig(), backend,
            fallback=lambda: fallback,
        )
        assert backend.completion_calls == 2  # primary plus one repair retry
        assert result.fallback_count == 3
        assert result.solutions == fallback

    def test_fallback_not_called_when_every_slot_is_filled(self, svm_space, svm_discretizers, gina_task):
        good = "\n".join(
            f"Configuration {i}: cost is medium. gamma is medium. kernel is radial."
            for i in range(1, 4)
        )

        def fallback():
            raise AssertionError("the fallback must only run for empty slots")

        result = suggest(
            gina_task, [], [], svm_space, svm_discretizers, SuggestionConfig(),
            CannedBackend(good), fallback=fallback,
        )
        assert result.fallback_count == 0 and len(result.solutions) == 3

    def test_garbage_response_without_fallback_raises(self, svm_space, svm_discretizers, gina_task):
        backend = CannedBackend("still not a configuration")
        with pytest.raises(ParseError):
            suggest(
                gina_task, [], [], svm_space, svm_discretizers, SuggestionConfig(), backend
            )

    def test_repair_retry_recovers(self, svm_space, svm_discretizers, gina_task):
        good = "\n".join(
            f"Configuration {i}: cost is medium. gamma is medium. kernel is radial."
            for i in range(1, 4)
        )
        backend = CannedBackend("garbled", good)
        result = suggest(
            gina_task, [], [], svm_space, svm_discretizers, SuggestionConfig(), backend
        )
        assert backend.completion_calls == 2
        assert result.repair_response == good
        assert len(result.solutions) == 3

    def test_partial_response_tops_up_from_fallback(self, svm_space, svm_discretizers, gina_task):
        one_line = "Configuration 1: cost is large. gamma is small. kernel is radial."
        backend = CannedBackend(one_line, "repair also garbled")
        fallback = [
            Solution(svm_space, {"cost": 1.0, "gamma": 0.01, "kernel": "radial"}),
            Solution(svm_space, {"cost": 10.0, "gamma": 0.1, "kernel": "linear"}),
            Solution(svm_space, {"cost": 0.1, "gamma": 1.0, "kernel": "polynomial"}),
        ]
        result = suggest(
            gina_task, [], [], svm_space, svm_discretizers, SuggestionConfig(), backend,
            fallback=lambda: fallback,
        )
        assert len(result.solutions) == 3
        assert result.items[0][0] == {"cost": "high", "gamma": "low", "kernel": "radial"}
        assert result.fallback_count == 2
        assert result.solutions[1:] == fallback[:2]

    def test_adversarial_fuzz_never_leaves_space(self, svm_space, svm_discretizers, gina_task):
        rng = random.Random(5)
        valid = "Configuration 1: cost is medium. gamma is small. kernel is radial."
        vocabulary = ["cost", "gamma", "kernel", "is", "enormous", "tiny", "radial", ".", ":"]
        fallback = [
            Solution(svm_space, {"cost": 1.0, "gamma": 0.01, "kernel": "radial"})
        ] * 3
        for _ in range(100):
            mutated = list(valid)
            for _ in range(rng.randint(1, 12)):
                op = rng.randint(0, 2)
                pos = rng.randrange(len(mutated))
                if op == 0:
                    mutated[pos] = rng.choice("abcdefghijklmnop .:")
                elif op == 1:
                    mutated.insert(pos, rng.choice("abcdefghijklmnop .:"))
                else:
                    del mutated[pos]
            response = "".join(mutated)
            if rng.random() < 0.3:
                response += "\nConfiguration 2: " + " ".join(
                    rng.choice(vocabulary) for _ in range(6)
                )
            backend = CannedBackend(response)
            try:
                result = suggest(
                    gina_task, [], [], svm_space, svm_discretizers,
                    SuggestionConfig(), backend, fallback=lambda: fallback,
                )
            except ParseError:
                continue
            for solution in result.solutions:
                Solution(svm_space, dict(solution.values))  # revalidates bounds

    def test_space_mismatch_rejected(self, synth_benchmark, gina_task):
        b = synth_benchmark
        with pytest.raises(ValidationError):
            suggest(
                gina_task, [], [], b.space, {}, SuggestionConfig(), ScriptedBackend()
            )
