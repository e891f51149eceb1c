"""Backend tests: scripted policy, replay cassettes, and the HTTP client contract."""

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from expcopilot import gateway
from expcopilot.bench import FoldCache, build_fold_artifacts
from expcopilot.cli import main
from expcopilot.elicitation import ElicitationConfig, elicit_knowledge
from expcopilot.errors import ConfigError, GatewayError
from expcopilot.gateway import (
    API_KEY_ENV,
    CompletionRequest,
    HttpBackend,
    NearestNeighborPolicy,
    ReplayBackend,
    ScriptedBackend,
    backend_from_config,
    embed_batch,
    estimate_tokens,
    max_prompt_chars,
    prompt_sha256,
)
from expcopilot.suggestion import SuggestionConfig, build_suggestion_prompt, retrieve_demos, suggest


class TestEstimateTokens:
    def test_rounds_up(self):
        assert estimate_tokens("abcd") == 1
        assert estimate_tokens("abcde") == 2
        assert estimate_tokens("") == 0

    @given(st.integers(0, 5000), st.integers(0, 1000))
    def test_max_prompt_chars_is_the_estimate_limit(self, length, budget):
        fits = estimate_tokens("x" * length) <= budget
        assert fits == (length <= max_prompt_chars(budget))


class TestScriptedPolicy:
    def test_echoes_first_demo_configurations(
        self, svm_space, online_demo_entries, guideline_items, gina_task
    ):
        prompt = build_suggestion_prompt(
            svm_space, gina_task, online_demo_entries, guideline_items, SuggestionConfig()
        )
        response = NearestNeighborPolicy()(prompt, 0.0)
        # The first demonstrated task's configurations, straight from the prompt.
        expected = "\n".join(
            f"Configuration {i}: {exp.solution_text}"
            for i, exp in enumerate(online_demo_entries[0].experiences, start=1)
        )
        assert response == expected

    def test_elicitation_prompt_is_deterministic(self):
        prompt = (
            "space description\n\nDataset: d\nConfiguration 1: cost is medium.\n\n"
            "Q: From the examples above, what patterns can we observe about the "
            "relationship between dataset characteristics and the best "
            "hyper-parameter configurations?"
        )
        policy = NearestNeighborPolicy()
        first = policy(prompt, 0.3)
        second = policy(prompt, 0.3)
        assert first == second
        assert prompt_sha256(prompt)[:12] in first

    def test_different_elicitation_prompts_differ(self):
        policy = NearestNeighborPolicy()
        base = "desc\n\nDataset: d\nConfiguration 1: cost is low.\n\nQ: what patterns can we observe here?"
        other = base.replace("cost is low", "cost is high")
        assert policy(base, 0.0) != policy(other, 0.0)

    def test_no_demonstrations_falls_back_to_default(self, svm_space, guideline_items, gina_task):
        prompt = build_suggestion_prompt(
            svm_space, gina_task, [], guideline_items, SuggestionConfig()
        )
        assert NearestNeighborPolicy()(prompt, 0.0) == ""

    def test_backend_counts_calls(self):
        backend = ScriptedBackend()
        backend.complete(CompletionRequest(prompt="Dataset: x\nConfiguration 1: a is b."))
        backend.embed("some text")
        assert backend.completion_calls == 1
        assert backend.embed_calls == 1

    def test_embeddings_deterministic(self):
        backend = ScriptedBackend()
        assert backend.embed("twice embedded") == backend.embed("twice embedded")


class TestReplayBackend:
    def test_replays_recorded_responses(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        prompt = "the recorded prompt"
        entries = [
            {
                "prompt_sha256": prompt_sha256(prompt),
                "request": {"kind": "complete", "temperature": 0.0},
                "response": "recorded completion",
            },
            {
                "prompt_sha256": prompt_sha256("embed me"),
                "request": {"kind": "embed", "model": "emb-1"},
                "response": [0.6, 0.8],
            },
        ]
        cassette.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        backend = ReplayBackend(cassette)
        assert backend.complete(CompletionRequest(prompt=prompt)) == "recorded completion"
        vector = backend.embed("embed me")
        assert vector.values == (0.6, 0.8)
        assert vector.model_tag == "emb-1"
        assert backend.embed("embed me") is vector

    def test_miss_identifies_prompt_hash(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        cassette.write_text("")
        backend = ReplayBackend(cassette)
        with pytest.raises(GatewayError, match=prompt_sha256("unseen")):
            backend.complete(CompletionRequest(prompt="unseen"))

    def test_repeated_prompt_replays_in_recorded_order(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        sha = prompt_sha256("asked twice")
        entries = [
            {"prompt_sha256": sha, "request": {"kind": "complete", "temperature": t}, "response": text}
            for t, text in ((0.0, "first answer"), (0.7, "second answer"))
        ]
        cassette.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        backend = ReplayBackend(cassette)
        replies = [backend.complete(CompletionRequest(prompt="asked twice")) for _ in range(3)]
        # Once a prompt's recorded responses run out, the last one repeats.
        assert replies == ["first answer", "second answer", "second answer"]

    def test_missing_cassette_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ReplayBackend(tmp_path / "nope.jsonl")

    def test_malformed_cassette_line_names_its_position(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        good = {"prompt_sha256": prompt_sha256("p"), "request": {"kind": "complete"}, "response": "r"}
        cassette.write_text(json.dumps(good) + "\n\n{not json\n")
        with pytest.raises(ConfigError, match=f"{cassette}:3"):
            ReplayBackend(cassette)

    def test_malformed_cassette_entry_names_its_physical_line(self, tmp_path):
        # Blank lines count: the entry without a request is on line 3.
        cassette = tmp_path / "cassette.jsonl"
        good = {"prompt_sha256": prompt_sha256("p"), "request": {"kind": "complete"}, "response": "r"}
        cassette.write_text(json.dumps(good) + "\n\n" + json.dumps({"prompt_sha256": "x", "response": "r"}) + "\n")
        with pytest.raises(ConfigError, match=f"{cassette}:3: malformed cassette entry"):
            ReplayBackend(cassette)

    def test_cassette_line_without_request_names_its_position(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        cassette.write_text(json.dumps({"prompt_sha256": prompt_sha256("p"), "response": "r"}) + "\n")
        with pytest.raises(ConfigError, match=f"{cassette}:1"):
            ReplayBackend(cassette)

    @pytest.mark.parametrize("response", [["a"], 5, [None], [], [float("nan")], ["0.5", " 1 ", True], [0.5, True]])
    def test_malformed_embedding_names_its_position(self, tmp_path, response):
        cassette = tmp_path / "cassette.jsonl"
        good = {"prompt_sha256": prompt_sha256("p"), "request": {"kind": "complete"}, "response": "r"}
        bad = {"prompt_sha256": prompt_sha256("e"), "request": {"kind": "embed"}, "response": response}
        cassette.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ConfigError, match=f"{cassette}:2: malformed cassette entry"):
            ReplayBackend(cassette)


    @pytest.mark.parametrize("response", [None, 5, ["text"]])
    def test_non_string_completion_names_its_position(self, tmp_path, response):
        # Replaying it as str(response) would not reproduce the live run.
        cassette = tmp_path / "cassette.jsonl"
        good = {"prompt_sha256": prompt_sha256("p"), "request": {"kind": "complete"}, "response": "r"}
        bad = {"prompt_sha256": prompt_sha256("q"), "request": {"kind": "complete"}, "response": response}
        cassette.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ConfigError, match=f"{cassette}:2: malformed cassette entry.*must be a string"):
            ReplayBackend(cassette)

def stub_vector(text):
    """The stub's embedding of `text`: distinct per text, so order is observable."""
    return [(1 + b) / 256 for b in hashlib.sha256(text.encode()).digest()[:3]]


# Ways a stub answer for two texts can break the index contract of the batched route.
MANGLED_ROWS = {
    "missing index": lambda rows: [{"embedding": rows[0]["embedding"]}, rows[1]],
    "duplicate index": lambda rows: [rows[0], rows[0]],
    "index out of range": lambda rows: [rows[0], {**rows[1], "index": 2}],
    "short data list": lambda rows: rows[:1],
}


class _Handler(BaseHTTPRequestHandler):
    server_state: dict = {}

    def do_POST(self):
        state = self.server_state
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        state["requests"].append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
        )
        fail_budget = state.get("failures_left", 0)
        if fail_budget > 0:
            state["failures_left"] = fail_budget - 1
            self.send_response(state.get("failure_status", 500))
            self.end_headers()
            return
        if self.path.endswith("/completions"):
            text = state.get("completion", "ok completion")
            text = state.get("by_temperature", {}).get(body["temperature"], text)
            payload = {"choices": [{"text": text}]}
        else:
            # One vector per input text, listed in reverse order with its index.
            rows = [
                {"index": i, "embedding": state["embedding"] if "embedding" in state else stub_vector(text)}
                for i, text in enumerate(body["input"])
            ][::-1]
            payload = {"data": state.get("rows", lambda rows: rows)(rows)}
        raw = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    state = {"requests": [], "failures_left": 0}

    class Handler(_Handler):
        server_state = state

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", state
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def make_backend(url, tmp_path=None, **kwargs):
    kwargs.setdefault("backoff", (0.01, 0.01, 0.01))
    return HttpBackend(
        endpoint=url,
        model="test-model",
        embed_model="test-embed",
        api_key="sk-test",
        journal_path=(tmp_path / "journal.jsonl") if tmp_path else None,
        **kwargs,
    )


class TestHttpBackend:
    def test_sends_request_parameters_verbatim(self, http_server):
        url, state = http_server
        backend = make_backend(url)
        req = CompletionRequest(
            prompt="hello", temperature=0.35, max_tokens=77, stop_sequences=("\n\nDataset:",)
        )
        assert backend.complete(req) == "ok completion"
        sent = state["requests"][0]["body"]
        assert sent["temperature"] == 0.35
        assert sent["max_tokens"] == 77
        assert sent["stop"] == ["\n\nDataset:"]
        assert sent["model"] == "test-model"
        assert state["requests"][0]["auth"] == "Bearer sk-test"

    def test_retries_on_server_errors(self, http_server):
        url, state = http_server
        state["failures_left"] = 2
        backend = make_backend(url)
        assert backend.complete(CompletionRequest(prompt="retry me")) == "ok completion"
        assert len(state["requests"]) == 3

    def test_gives_up_after_max_attempts(self, http_server):
        url, state = http_server
        state["failures_left"] = 10
        backend = make_backend(url)
        with pytest.raises(GatewayError, match="HTTP 500"):
            backend.complete(CompletionRequest(prompt="never works"))
        assert len(state["requests"]) == 3

    def test_client_errors_do_not_retry(self, http_server):
        url, state = http_server
        state["failures_left"] = 1
        state["failure_status"] = 404
        backend = make_backend(url)
        with pytest.raises(GatewayError, match="HTTP 404"):
            backend.complete(CompletionRequest(prompt="bad route"))
        assert len(state["requests"]) == 1

    def test_embed(self, http_server):
        url, state = http_server
        backend = make_backend(url)
        vector = backend.embed("embed this")
        assert vector.values == tuple(stub_vector("embed this"))
        assert vector.model_tag == "test-embed"
        assert state["requests"][0]["body"] == {"model": "test-embed", "input": ["embed this"]}

    def test_single_text_journal_line_keeps_its_bytes(self, http_server, tmp_path):
        url, state = http_server
        state["embedding"] = [0.3, 0.4, 0.5]
        make_backend(url, tmp_path).embed("journal me")
        sha = prompt_sha256("journal me")
        assert (tmp_path / "journal.jsonl").read_text() == (
            f'{{"prompt_sha256": "{sha}", "request": {{"kind": "embed", "model": "test-embed"}}, '
            '"response": [0.3, 0.4, 0.5]}\n'
        )

    @pytest.mark.parametrize(
        "embedding, rows",
        [(["a"], None), ([None], None), ([], None), ([float("nan")], None), (["0.5"], None), ([0.5, True], None)]
        + [(None, name) for name in MANGLED_ROWS],
    )
    def test_malformed_embedding_is_a_gateway_error_and_not_journaled(self, http_server, tmp_path, embedding, rows):
        url, state = http_server
        if embedding is not None:
            state["embedding"] = embedding
        if rows is not None:
            state["rows"] = MANGLED_ROWS[rows]
        backend = make_backend(url, tmp_path)
        with pytest.raises(GatewayError, match="malformed embedding response"):
            backend.embed_many(["bad vector", "second text"])
        assert not (tmp_path / "journal.jsonl").exists()

    def test_empty_text_is_rejected_before_any_request(self, http_server):
        url, state = http_server
        with pytest.raises(GatewayError, match="empty text"):
            make_backend(url).embed_many(["some text", ""])
        assert state["requests"] == []

    @pytest.mark.parametrize("text", [None, 5])
    def test_non_string_completion_is_a_gateway_error_and_not_journaled(self, http_server, tmp_path, text):
        url, state = http_server
        state["completion"] = text
        backend = make_backend(url, tmp_path)
        with pytest.raises(GatewayError, match="text must be a string"):
            backend.complete(CompletionRequest(prompt="null text"))
        assert not (tmp_path / "journal.jsonl").exists()

    def test_journal_replays_byte_identical(self, http_server, tmp_path):
        url, state = http_server
        state["completion"] = "journaled text"
        backend = make_backend(url, tmp_path)
        req = CompletionRequest(prompt="journal me", temperature=0.2)
        live_completion = backend.complete(req)
        live_embedding = backend.embed("journal me too")

        replay = ReplayBackend(tmp_path / "journal.jsonl")
        assert replay.complete(req) == live_completion
        assert replay.embed("journal me too").values == live_embedding.values

    def test_repair_retry_replays_from_journal(self, http_server, tmp_path, synth_benchmark):
        # The repair retry resends the prompt at temperature 0.7; replay must
        # give the first call the garbage and the retry the valid text.
        url, state = http_server
        valid = "\n".join(
            f"Configuration {i}: depth is low. shrinkage is high. booster is dart." for i in (1, 2, 3)
        )
        state["by_temperature"] = {0.0: "I cannot recommend anything.", 0.7: valid}
        b = synth_benchmark

        def run(backend):
            held = {b.tasks[0].task_id}
            index, discretizers = build_fold_artifacts(FoldCache(b), held, backend)
            demos = retrieve_demos(backend.embed(b.tasks[0].description), index, SuggestionConfig(), exclude=held)
            return suggest(b.tasks[0], demos, [], b.space, discretizers, SuggestionConfig(), backend)

        live = run(make_backend(url, tmp_path))
        assert live.raw_response == "I cannot recommend anything."
        assert live.repair_response == valid
        assert run(ReplayBackend(tmp_path / "journal.jsonl")) == live

    def test_elicitation_replays_from_journal(self, http_server, tmp_path, synth_benchmark):
        # Live elicitation journals every round's completions and no embedding:
        # validation queries use their pool entries' vectors. Replaying the
        # journal gives the same run.
        url, state = http_server
        state["completion"] = "\n".join(
            f"Configuration {i}: depth is {level}. shrinkage is high. booster is dart."
            for i, level in enumerate(("low", "medium", "high"), start=1)
        )
        b = synth_benchmark
        cfg = ElicitationConfig(rounds=3, patience=3, val_fraction=0.3)

        def run(backend):
            index, discretizers = build_fold_artifacts(FoldCache(b), (), backend)
            return elicit_knowledge(
                index.entries, b.space, b, cfg, backend, seed=5,
                suggestion_config=SuggestionConfig(), discretizers=discretizers,
            )

        live_best, live_trace = run(make_backend(url, tmp_path))
        assert len(live_trace) == 3 and all(r.score is not None for r in live_trace)
        embeds = [r for r in state["requests"] if r["path"].endswith("/embeddings")]
        assert len(embeds) == len(b.tasks)  # the pool's only
        assert run(ReplayBackend(tmp_path / "journal.jsonl")) == (live_best, live_trace)

    def test_requires_api_key(self, monkeypatch):
        monkeypatch.delenv("EXPCOPILOT_API_KEY", raising=False)
        with pytest.raises(ConfigError, match="EXPCOPILOT_API_KEY"):
            HttpBackend(endpoint="http://x", model="m", embed_model="e")


class TestEmbedBatch:
    def test_scripted_preserves_order(self):
        backend = ScriptedBackend()
        texts = [f"document number {i}" for i in range(6)]
        batch = embed_batch(backend, texts)
        assert batch == [backend.embed(t) for t in texts]

    def test_http_sends_one_request_and_keeps_input_order(self, http_server, tmp_path):
        url, state = http_server
        texts = [f"text {i}" for i in range(8)]
        batch = embed_batch(make_backend(url, tmp_path), texts)
        assert [r["body"]["input"] for r in state["requests"]] == [texts]
        assert [vec.values for vec in batch] == [tuple(stub_vector(t)) for t in texts]
        journal = [json.loads(line) for line in (tmp_path / "journal.jsonl").read_text().splitlines()]
        assert [entry["prompt_sha256"] for entry in journal] == [prompt_sha256(t) for t in texts]

    def test_http_sends_one_request_per_chunk(self, http_server, monkeypatch):
        url, state = http_server
        monkeypatch.setattr(gateway, "EMBED_CHUNK", 3)
        texts = [f"text {i}" for i in range(8)]
        batch = embed_batch(make_backend(url), texts)
        assert [r["body"]["input"] for r in state["requests"]] == [texts[:3], texts[3:6], texts[6:]]
        assert [vec.values for vec in batch] == [tuple(stub_vector(t)) for t in texts]


def test_ingest_over_http_journals_in_task_order_and_replays_byte_identical(
    http_server, tmp_path, monkeypatch, synth_dir
):
    url, state = http_server
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    journal = tmp_path / "journal.jsonl"
    backends = {
        "live": {"kind": "http", "endpoint": url, "model": "test-model", "embed_model": "test-embed",
                 "journal": str(journal)},
        "replay": {"kind": "replay", "cassette": str(journal)},
    }
    for name, backend in backends.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"backend": backend}))
        result = CliRunner().invoke(main, [
            "ingest", "--config", str(tmp_path / f"{name}.json"), "--history", str(synth_dir / "table.jsonl"),
            "--space", str(synth_dir / "space.json"), "--tasks", str(synth_dir / "tasks.jsonl"),
            "--out", str(tmp_path / name),
        ])
        assert result.exit_code == 0, result.output
    descriptions = [json.loads(line)["description"] for line in (synth_dir / "tasks.jsonl").read_text().splitlines()]
    assert len(descriptions) >= 6
    assert [r["body"]["input"] for r in state["requests"] if r["path"].endswith("/embeddings")] == [descriptions]
    entries = [json.loads(line) for line in journal.read_text().splitlines()]
    assert [e["prompt_sha256"] for e in entries if e["request"]["kind"] == "embed"] == [
        prompt_sha256(d) for d in descriptions
    ]
    for name in ("embeddings.jsonl", "pool.jsonl", "discretizers.json"):
        assert (tmp_path / "live" / name).read_bytes() == (tmp_path / "replay" / name).read_bytes()


class TestBackendFactory:
    def test_scripted(self):
        backend = backend_from_config({"kind": "scripted"})
        assert isinstance(backend, ScriptedBackend)

    def test_replay_requires_cassette(self):
        with pytest.raises(ConfigError):
            backend_from_config({"kind": "replay"})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            backend_from_config({"kind": "telepathy"})

    @pytest.mark.parametrize(
        "key, value",
        [("max_attempts", 0), ("timeout", -5), ("timeout", 0), ("timeout", float("nan"))],
    )
    def test_numbers_must_be_positive(self, monkeypatch, key, value):
        # With a key set, the http backend would otherwise be built.
        monkeypatch.setenv(API_KEY_ENV, "test-key")
        cfg = {"kind": "http", "endpoint": "http://localhost:9", "model": "m", "embed_model": "e", key: value}
        with pytest.raises(ConfigError, match=f"backend {key} must be positive"):
            backend_from_config(cfg)

    def test_smallest_valid_numbers_accepted(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "test-key")
        backend = backend_from_config({"kind": "http", "endpoint": "http://localhost:9", "model": "m",
                                       "embed_model": "e", "max_attempts": 1, "timeout": 0.5})
        assert (backend.max_attempts, backend.timeout) == (1, 0.5)

    @pytest.mark.parametrize("key", ["max_attemps", "max_in_flight"])
    def test_a_key_no_kind_reads_is_named(self, key):
        with pytest.raises(ConfigError, match=f"unknown backend key.*'{key}'"):
            backend_from_config({"kind": "scripted", key: 3})

    def test_keys_of_other_kinds_are_kept(self):
        # `suggest --backend scripted` keeps the http settings of the config.
        cfg = {"kind": "scripted", "endpoint": "http://localhost:9", "model": "m", "embed_model": "e",
               "timeout": 5, "max_attempts": 2, "journal": "j.jsonl", "cassette": "c.jsonl"}
        assert isinstance(backend_from_config(cfg), ScriptedBackend)
