"""Uniform interface to completion and embedding backends.

Three interchangeable backends: a live OpenAI-compatible HTTP backend, a
deterministic scripted backend whose policy doubles as a testing oracle, and a
record/replay backend driven by a cassette file. Live calls are journaled in
cassette format, so any live run can be replayed later.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import requests

from .core import check_int, check_number
from .errors import ConfigError, GatewayError, ValidationError
from .retrieval import EmbeddingVector, hashed_bow_embedding, json_embedding
from .storage import dumps, load_records

API_KEY_ENV = "EXPCOPILOT_API_KEY"

ELICITATION_MARKER = "what patterns can we observe"

# A "Configuration i: ..." line of a model response; the body may be blank.
CONFIG_LINE = re.compile(r"^\s*configuration\s+\d+\s*:\s*(?P<body>.*)$", re.IGNORECASE)


CHARS_PER_TOKEN = 4  # of the prompt-budget estimate

EMBED_CHUNK = 2048  # the most inputs one OpenAI-compatible /embeddings request takes


def estimate_tokens(text: str) -> int:
    """Token-count heuristic used for prompt budgeting: ceil(chars / 4)."""
    return -(-len(text) // CHARS_PER_TOKEN)


def max_prompt_chars(budget: int) -> int:
    """The longest text `estimate_tokens` keeps within `budget`: ceil(L / c) <= B iff L <= B * c."""
    return budget * CHARS_PER_TOKEN


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    temperature: float = 0.0
    max_tokens: int = 512
    stop_sequences: tuple[str, ...] | None = None


def prompt_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class NearestNeighborPolicy:
    """Scripted completion policy that echoes the most similar task's configurations.

    Suggestion prompts get the first demonstrated task's configuration lines
    back verbatim (renumbered), which turns the whole pipeline into a
    nearest-neighbor recommender with an exact oracle. Elicitation prompts get
    a fixed knowledge template parameterized by the prompt hash.
    """

    def __call__(self, prompt: str, temperature: float) -> str:
        if self._is_elicitation(prompt):
            digest = prompt_sha256(prompt)[:12]
            return (
                "1. Reuse configurations that performed best on the most similar "
                f"datasets. (analysis {digest})"
            )
        configs = self._first_demo_configs(prompt)
        if not configs:
            return ""
        return "\n".join(f"Configuration {i}: {body}" for i, body in enumerate(configs, start=1))

    @staticmethod
    def _is_elicitation(prompt: str) -> bool:
        lowered = prompt.lower()
        if ELICITATION_MARKER in lowered:
            return True
        lines = [ln.strip() for ln in prompt.splitlines() if ln.strip()]
        return bool(lines) and lines[-1].lower().startswith("q:")

    @staticmethod
    def _first_demo_configs(prompt: str) -> list[str]:
        configs: list[str] = []
        in_block = False
        for line in prompt.splitlines():
            if line.startswith("Dataset: "):
                if configs:
                    break
                in_block = True
                continue
            m = CONFIG_LINE.match(line)
            body = m.group("body").strip() if m else ""
            if in_block and body:
                configs.append(body)
            elif configs:
                break
        return configs


class ScriptedBackend:
    """Deterministic backend: completions from a policy, embeddings from hashed BoW."""

    def __init__(self, policy: Callable[[str, float], str] | None = None):
        self.policy = policy if policy is not None else NearestNeighborPolicy()
        self.completion_calls = 0
        self.embed_calls = 0
        self._lock = threading.Lock()

    def complete(self, req: CompletionRequest) -> str:
        with self._lock:
            self.completion_calls += 1
        return self.policy(req.prompt, req.temperature)

    def embed(self, text: str) -> EmbeddingVector:
        if not text:
            raise GatewayError("cannot embed empty text")
        with self._lock:
            self.embed_calls += 1
        return hashed_bow_embedding(text)


class ReplayBackend:
    """Backend replaying recorded responses from a cassette file.

    Requests are matched on (kind, prompt sha256). Responses recorded for the
    same key replay in recorded order, so a prompt sent twice (e.g. the repair
    retry at another temperature) gets each of its answers back in turn; once
    a key's responses run out, its last one repeats. Each embedding is built
    as the cassette is read, so a malformed one fails there, naming its line.
    """

    def __init__(self, cassette_path: str | Path):
        def parse(entry: dict) -> tuple[tuple[str, str], str | EmbeddingVector]:
            request, sha, response = entry["request"], entry["prompt_sha256"], entry["response"]
            kind = request.get("kind", "complete")
            if kind == "embed":
                response = json_embedding(response, request.get("model", "replay"))
            elif not isinstance(response, str):
                raise TypeError(f"a completion must be a string, got {response!r}")
            return (kind, sha), response

        try:
            entries = load_records(cassette_path, parse, "cassette entry")
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        self._responses: dict[tuple[str, str], deque] = {}
        for key, response in entries:
            self._responses.setdefault(key, deque()).append(response)

    def _next(self, kind: str, sha: str):
        queue = self._responses.get((kind, sha))
        if not queue:
            noun = "embedding" if kind == "embed" else "completion"
            raise GatewayError(f"replay miss: no recorded {noun} for prompt sha256={sha}")
        return queue.popleft() if len(queue) > 1 else queue[0]

    def complete(self, req: CompletionRequest) -> str:
        return self._next("complete", prompt_sha256(req.prompt))

    def embed(self, text: str) -> EmbeddingVector:
        return self._next("embed", prompt_sha256(text))


class HttpBackend:
    """OpenAI-compatible completions/embeddings client with retries and journaling."""

    RETRYABLE = {429}

    def __init__(
        self,
        endpoint: str,
        model: str,
        embed_model: str,
        api_key: str | None = None,
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff: Sequence[float] = (1.0, 2.0, 4.0),
        journal_path: str | Path | None = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.embed_model = embed_model
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not key:
            raise ConfigError(f"http backend requires an API key (set {API_KEY_ENV})")
        self._key = key
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = tuple(backoff)
        self._journal_path = Path(journal_path) if journal_path else None
        self._journal_lock = threading.Lock()

    def complete(self, req: CompletionRequest) -> str:
        body: dict = {"model": self.model, "prompt": req.prompt, "temperature": req.temperature,
                      "max_tokens": req.max_tokens}
        if req.stop_sequences:
            body["stop"] = list(req.stop_sequences)
        data = self._post("/completions", body)
        try:
            text = data["choices"][0]["text"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):
            raise GatewayError(f"malformed completion response: text must be a string, got {text!r}")
        request = {"kind": "complete", "model": self.model, "temperature": req.temperature,
                   "max_tokens": req.max_tokens, "stop": body.get("stop")}
        self._journal(prompt_sha256(req.prompt), request, text)
        return text

    def embed(self, text: str) -> EmbeddingVector:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        """One request per `EMBED_CHUNK` texts; each vector is checked, then journalled, in input order."""
        if not all(texts):
            raise GatewayError("cannot embed empty text")
        vectors: list[EmbeddingVector] = []
        for start in range(0, len(texts), EMBED_CHUNK):
            chunk = texts[start : start + EMBED_CHUNK]
            data = self._post("/embeddings", {"model": self.embed_model, "input": list(chunk)})
            try:
                rows = sorted(data["data"], key=lambda row: row["index"])
                if [row["index"] for row in rows] != list(range(len(chunk))):
                    raise ValueError(f"indices {[row['index'] for row in rows]} for {len(chunk)} inputs")
                raw = [row["embedding"] for row in rows]
                batch = [json_embedding(values, self.embed_model) for values in raw]
            except (KeyError, TypeError, ValueError, ValidationError) as exc:
                raise GatewayError(f"malformed embedding response: {exc}") from exc
            for text, values in zip(chunk, raw):
                self._journal(prompt_sha256(text), {"kind": "embed", "model": self.embed_model}, values)
            vectors += batch
        return vectors

    def _post(self, route: str, body: dict) -> dict:
        url = self.endpoint + route
        headers = {"Authorization": f"Bearer {self._key}", "Content-Type": "application/json"}
        last_detail = "no attempts made"
        for attempt in range(self.max_attempts):
            try:
                resp = requests.post(url, json=body, headers=headers, timeout=self.timeout)
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_detail = f"{type(exc).__name__}: {exc}"
            else:
                if resp.status_code < 400:
                    try:
                        return resp.json()
                    except ValueError as exc:
                        raise GatewayError(f"non-JSON response from {url}: {exc}") from exc
                last_detail = f"HTTP {resp.status_code}: {resp.text[:200]}"
                if not (resp.status_code in self.RETRYABLE or resp.status_code >= 500):
                    raise GatewayError(f"request to {url} failed ({last_detail})")
            if attempt + 1 < self.max_attempts:
                time.sleep(self.backoff[min(attempt, len(self.backoff) - 1)])
        raise GatewayError(f"request to {url} failed after {self.max_attempts} attempts ({last_detail})")

    def _journal(self, sha: str, request: dict, response: object) -> None:
        if self._journal_path is None:
            return
        line = dumps({"prompt_sha256": sha, "request": request, "response": response})
        with self._journal_lock, self._journal_path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def embed_batch(backend, texts: Sequence[str]) -> list[EmbeddingVector]:
    """Embed many texts in input order; batched requests for the live backend."""
    return backend.embed_many(texts) if isinstance(backend, HttpBackend) else [backend.embed(t) for t in texts]


# Every kind's keys: `suggest --backend KIND` swaps the kind and keeps the others' keys.
BACKEND_KEYS = {"kind", "cassette", "endpoint", "model", "embed_model", "timeout", "max_attempts", "journal"}


def backend_from_config(cfg: dict) -> ScriptedBackend | ReplayBackend | HttpBackend:
    """Build a backend from its config mapping ({"kind": ..., ...}); a key no kind reads is an error."""

    def positive(key: str, value):
        if not value > 0:
            raise ConfigError(f"backend {key} must be positive, got {cfg.get(key)!r}")
        return value

    def number(key: str, default, check):
        try:
            return positive(key, check(f"backend {key}", cfg.get(key, default)))
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc

    if unknown := sorted(set(cfg) - BACKEND_KEYS):
        raise ConfigError(f"unknown backend key(s) {unknown}")
    kind = cfg.get("kind")
    if kind == "scripted":
        return ScriptedBackend()
    if kind == "replay":
        if "cassette" not in cfg:
            raise ConfigError("replay backend requires a 'cassette' path")
        return ReplayBackend(cfg["cassette"])
    if kind == "http":
        missing = [k for k in ("endpoint", "model", "embed_model") if k not in cfg]
        if missing:
            raise ConfigError(f"http backend config missing {missing}")
        return HttpBackend(
            endpoint=cfg["endpoint"],
            model=cfg["model"],
            embed_model=cfg["embed_model"],
            timeout=number("timeout", 30.0, check_number),
            max_attempts=number("max_attempts", 3, check_int),
            journal_path=cfg.get("journal"),
        )
    raise ConfigError(f"unknown backend kind: {kind!r}")
