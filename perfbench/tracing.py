"""Outside-in layer trace: spans and counters around the program's public functions.

Only traced runs install it. Each wrapped function is swapped in every
`expcopilot` module attribute that refers to it, so a caller that imported the
name (`bench.suggest`) and one that looks it up on its home module
(`suggestion.suggest`) both hit the wrapper. Spans stay in memory as
[name, start, end, parent index, fold or call id, error type] and are written
out once the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from expcopilot import bench, cli, core, elicitation, retrieval, storage, suggestion

NAME, START, END, PARENT, UNIT, ERROR = range(6)

# Span or counter name -> the end-to-end metric and workloads it should move.
LAYER_TARGETS = {
    "bench.run_loo_eval": "throughput_per_s (loo-*)",
    "bench.load_benchmark": "setup_s (loo-*)",
    "bench.fold_artifacts": "throughput_per_s (loo-copilot-150); setup_s if work moves into load",
    "core.fit_discretizer": "throughput_per_s (loo-copilot-150); setup_s (cli-pool-150)",
    "core.canonicalize": "throughput_per_s (loo-copilot-150); setup_s (cli-pool-150)",
    "bench.baseline_constant": "throughput_per_s (loo-copilot-150)",
    "bench.evaluate_solution": "throughput_per_s (loo-elicit-flaky-48)",
    "retrieval.retrieve": "throughput_per_s (loo-*); latency_ms_p50 (cli-pool-150)",
    "retrieval.similarities": "throughput_per_s (loo-*); latency_ms_p50 (cli-pool-150)",
    "suggestion.suggest": "throughput_per_s (loo-copilot-150); latency_ms_p50/p75 (cli-pool-150)",
    "suggestion.build_prompt": "throughput_per_s (loo-copilot-150); latency_ms_p50/p75 (cli-pool-150)",
    "suggestion.prompt": "throughput_per_s (loo-copilot-150); latency_ms_p50/p75 (cli-pool-150)",
    "suggestion.demos": "throughput_per_s (loo-copilot-150); latency_ms_p50/p75 (cli-pool-150)",
    "suggestion.parse": "throughput_per_s, failed (loo-elicit-flaky-48)",
    "suggestion.concretize": "throughput_per_s, failed (loo-elicit-flaky-48)",
    "suggestion.repairs": "throughput_per_s, failed (loo-elicit-flaky-48)",
    "suggestion.fallback_slots": "throughput_per_s, failed (loo-elicit-flaky-48)",
    "elicitation.elicit": "throughput_per_s (loo-elicit-flaky-48)",
    "elicitation.validate": "throughput_per_s (loo-elicit-flaky-48)",
    "elicitation.round": "throughput_per_s (loo-elicit-flaky-48)",
    "gateway.complete": "throughput_per_s (loo-elicit-flaky-48)",
    "gateway.embed": "throughput_per_s (loo-elicit-flaky-48); setup_s (cli-pool-150)",
    "storage.read_jsonl": "latency_ms_p50/p75 (cli-pool-150)",
    "storage.records_read": "latency_ms_p50/p75 (cli-pool-150)",
    "storage.write_jsonl": "setup_s (cli-pool-150)",
    "cli.cmd_ingest": "setup_s (cli-pool-150)",
    "cli.cmd_suggest": "latency_ms_p50/p75 (cli-pool-150)",
}


def target_of(key: str) -> str:
    """Target of the longest span or counter name that `key` starts with."""
    names = [n for n in LAYER_TARGETS if key.startswith(n)]
    return LAYER_TARGETS[max(names, key=len)] if names else "-"


def _program_modules():
    return [m for n, m in sys.modules.items() if n == "expcopilot" or n.startswith("expcopilot.")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.unit: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def timed(self, name, fn, enter=None, after=None):
        """`fn` recording one span per call; `enter` runs first, `after(result)` on success."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter()
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else None, self.unit, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, original, replacement, modules=None) -> None:
        for module in modules or _program_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def next_unit(self) -> None:
        self.unit = 0 if self.unit is None else self.unit + 1

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are taken at."""
        c = self.counts

        def add(key, value):
            c[key] += value

        def wrap(fn, name, **hooks):
            self.patch(fn, self.timed(name, fn, **hooks))

        wrap(bench.load_benchmark, "bench.load_benchmark")
        wrap(bench.run_loo_eval, "bench.run_loo_eval")
        wrap(bench.build_fold_artifacts, "bench.fold_artifacts", enter=self.next_unit)
        wrap(bench.baseline_constant, "bench.baseline_constant")
        wrap(bench.evaluate_solution, "bench.evaluate_solution")
        wrap(core.fit_discretizer, "core.fit_discretizer")
        wrap(core.canonicalize, "core.canonicalize")
        wrap(retrieval.retrieve_experience, "retrieval.retrieve",
             after=lambda r: add("retrieval.retrieved", len(r)))
        self.patch(retrieval.cosine_similarity,
                   self.counted("retrieval.similarities", retrieval.cosine_similarity))
        wrap(suggestion.suggest, "suggestion.suggest",
             after=lambda r: add("suggestion.fallback_slots", r.fallback_count))
        wrap(suggestion.build_suggestion_prompt, "suggestion.build_prompt",
             after=lambda p: add("suggestion.demos_kept", p.count("\n\nDataset: ") - 1))
        # Only the budget loop's calls count as prompt assemblies.
        self.patch(suggestion.estimate_tokens,
                   self.counted("suggestion.prompt_assemblies", suggestion.estimate_tokens),
                   modules=[suggestion])
        wrap(suggestion.parse_solutions, "suggestion.parse")
        wrap(suggestion.concretize, "suggestion.concretize")

        def rounds(result):
            _, trace = result
            add("elicitation.rounds", len(trace))
            add("elicitation.round_errors", sum(r.error is not None for r in trace))

        wrap(elicitation.elicit_knowledge, "elicitation.elicit", after=rounds)
        wrap(elicitation.validate_candidate, "elicitation.validate")
        wrap(storage.read_jsonl, "storage.read_jsonl",
             after=lambda r: add("storage.records_read", len(r)))
        wrap(storage.write_jsonl, "storage.write_jsonl")
        wrap(cli.cmd_ingest, "cli.cmd_ingest")
        wrap(cli.cmd_suggest, "cli.cmd_suggest", enter=self.next_unit)
        factory = cli.backend_from_config
        self.patch(factory, lambda cfg: TracedBackend(self, factory(cfg)))

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def unit_walls(self) -> dict[int, float]:
        """Wall time per fold (first span to next fold's first span) or per CLI call."""
        first: dict[int, float] = {}
        last_end: dict[int, float] = {}
        for s in self.spans:
            if s[UNIT] is None:
                continue
            first.setdefault(s[UNIT], s[START])
            last_end[s[UNIT]] = max(last_end.get(s[UNIT], s[END]), s[END])
        units = sorted(first)
        return {
            u: (first[units[i + 1]] if i + 1 < len(units) else last_end[u]) - first[u]
            for i, u in enumerate(units)
        }

    def check_self_times(self) -> list[str]:
        """Within each fold or call, span self times must not exceed its wall time."""
        own = self.self_times()
        per_unit: dict[int, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            if s[UNIT] is not None:
                per_unit[s[UNIT]] += t
        problems = [f"negative self time in {s[NAME]}" for s, t in zip(self.spans, own) if t < -1e-6]
        for unit, wall in self.unit_walls().items():
            if per_unit[unit] > wall + 1e-6:
                problems.append(f"unit {unit}: self times {per_unit[unit]:.6f}s > wall {wall:.6f}s")
        return problems

    def summary(self) -> dict[str, float]:
        """Every span's call count and self time, plus the counters and derived ratios."""
        own = self.self_times()
        out: dict[str, float] = defaultdict(float)
        children: dict[int, Counter] = defaultdict(Counter)
        for i, (s, t) in enumerate(zip(self.spans, own)):
            out[f"{s[NAME]}_calls"] += 1
            out[f"{s[NAME]}_s"] += t
            if s[ERROR] is not None:
                out[f"{s[NAME]}_errors"] += 1
            if s[PARENT] is not None:
                children[s[PARENT]][s[NAME]] += 1
        out["suggestion.repairs"] = sum(
            max(0, children[i]["gateway.complete"] - 1)
            for i, s in enumerate(self.spans) if s[NAME] == "suggestion.suggest"
        )
        out["suggestion.parse_failures"] = out["suggestion.parse_errors"]
        out.update(self.counts)
        assemblies = out["suggestion.prompt_assemblies"]
        out["suggestion.prompts_per_assembly"] = (
            out["suggestion.build_prompt_calls"] / assemblies if assemblies else 0.0
        )
        retrieved = out["retrieval.retrieved"]
        out["suggestion.demos_kept_ratio"] = out["suggestion.demos_kept"] / retrieved if retrieved else 0.0
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "unit": s[UNIT], "error": s[ERROR],
                }) + "\n")


class TracedBackend:
    """Backend whose completion and embedding calls are `gateway` spans."""

    def __init__(self, tracer: Tracer, backend):
        self._backend = backend
        self.complete = tracer.timed("gateway.complete", backend.complete)
        self.embed = tracer.timed("gateway.embed", backend.embed)

    def __getattr__(self, name):
        return getattr(self._backend, name)
