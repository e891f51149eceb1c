"""Benchmark of the expcopilot pipeline with the scripted backend.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory, in this process, on one thread. Inputs come from the seed
only. Every run, timed or traced, checks each output against an independent
nearest-neighbour oracle and exits with code 1 on any mismatch. With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a separate traced pass, which
also reports the tracing overhead against an untraced pass of the same work.
Result files and spans go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "loo-copilot-150": {"kind": "loo", "tasks": 150, "knowledge": False},
    "loo-elicit-flaky-48": {"kind": "loo", "tasks": 48, "knowledge": True, "rounds": 6},
    "cli-pool-150": {"kind": "cli", "tasks": 150, "queries": 102},
}
# A timed run repeats identical rounds of work (a LOO sweep, or one cmd_suggest
# call per query) and keeps, per fold or query, the best of its times. Shared
# hosts such as small VMs slow down by 30-70% for phases of several seconds, and
# such interference only ever adds time. Set-up is timed SETUP_FIRST times
# before the first round and SETUP_PER_ROUND times after each, so its samples
# spread over the run.
MIN_ROUNDS = 3
SETUP_FIRST = 3
SETUP_PER_ROUND = 2
TRACE_CALLS = 48
TRACE_PAIRS = 2  # untraced then traced pass, twice; the overhead compares the best of each
N_SUGGESTIONS = 3

# Metric names and units come from the benchmark manifest. Per-layer metrics are
# read from Tracer.summary(); its times are self times and cover only layers
# every workload runs, and the rest are counts, which may be 0.
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}


def _import_program():
    """Import expcopilot from this checkout's src/, never from anywhere else."""
    if not (SRC / "expcopilot" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import expcopilot

    if Path(expcopilot.__file__).resolve().parent != (SRC / "expcopilot").resolve():
        raise SystemExit(f"error: imported expcopilot from {expcopilot.__file__}, not {SRC}")


_import_program()

import numpy  # noqa: E402

import inputs as gen  # noqa: E402
import tracing  # noqa: E402
from expcopilot import ElicitationConfig, NearestNeighborPolicy, ScriptedBackend, bench, cli  # noqa: E402


class CheckFailed(Exception):
    """An output disagreed with the oracle or with an earlier repeat."""


def env_info() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentiles(samples: list[float]) -> dict[str, float]:
    """p50, p75 and p90, with how many samples lie beyond p75 and p90."""
    q = statistics.quantiles(samples, n=20)
    p75, p90 = q[14], q[17]
    return {"p50": statistics.median(samples), "p75": p75, "p90": p90,
            "beyond_p75": sum(s > p75 for s in samples), "beyond_p90": sum(s > p90 for s in samples)}


def measure(one_round, set_up, seconds: float) -> tuple[list[list[float]], list[float]]:
    """Rounds of identical work until `seconds` are spent, at least MIN_ROUNDS of them.

    `one_round` returns one time per fold or query; `set_up` returns its own time.
    """
    setups = [set_up() for _ in range(SETUP_FIRST)]
    rounds, spent = [], []
    while len(rounds) < MIN_ROUNDS or sum(spent) + statistics.mean(spent) <= seconds:
        t0 = perf_counter()
        rounds.append(one_round())
        spent.append(perf_counter() - t0)
        setups.extend(set_up() for _ in range(SETUP_PER_ROUND))
    return rounds, setups


def summarize(rounds: list[list[float]], setups: list[float], attempted: int) -> dict:
    best = [min(times) for times in zip(*rounds)]
    p = percentiles(best)
    return {
        "attempted": attempted,
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_per_s": (len(best) / sum(best), "1/s"),
            "latency_ms_p50": (1000.0 * p["p50"], "ms"),
            "latency_ms_p75": (1000.0 * p["p75"], "ms"),
        },
        "detail": {"rounds": len(rounds), "samples": len(best), "beyond_p75": p["beyond_p75"],
                   "p90_ms": 1000.0 * p["p90"], "beyond_p90": p["beyond_p90"],
                   "setups": len(setups), "round_s": [sum(r) for r in rounds]},
    }


# ---------------------------------------------------------------- LOO workloads


class FoldClock:
    """Policy wrapper noting when each fold asks for its held-out task's suggestions.

    The program is not touched: the policy is the scripted model, and the
    moment a fold's final suggestion prompt reaches it marks that fold. The
    gaps between consecutive marks are the fold periods.
    """

    def __init__(self, policy):
        self.policy = policy
        self.marks: list[tuple[float, str]] = []

    def __call__(self, prompt: str, temperature: float) -> str:
        self.marks.append((perf_counter(), prompt[-240:]))
        return self.policy(prompt, temperature)

    def fold_periods(self, held_out_descriptions: list[str]) -> list[float]:
        """A fold's query text ends only its own final prompt, and folds run in task order."""
        times = []
        for t, tail in self.marks:
            if len(times) < len(held_out_descriptions) and tail.endswith(
                "\n\nDataset: " + held_out_descriptions[len(times)]
            ):
                times.append(t)
        self.marks.clear()
        if len(times) != len(held_out_descriptions):
            raise CheckFailed(f"saw {len(times)} of {len(held_out_descriptions)} final fold prompts")
        return [b - a for a, b in zip(times, times[1:])]


class LooRun:
    def __init__(self, spec, inputs, work: Path):
        self.spec = spec
        self.inputs = inputs
        self.bundle = gen.write_bundle(inputs, work / "bundle")
        self.expected = gen.loo_expected_metric1(inputs)
        # With patience equal to rounds every fold runs all rounds, so the work
        # per fold does not depend on which validation scores the seed produces.
        rounds = spec.get("rounds")
        elicit = ElicitationConfig(rounds=rounds, patience=rounds) if rounds else ElicitationConfig()
        self.cfg = bench.EvalConfig(use_knowledge=spec["knowledge"], elicitation=elicit)
        self.work = work
        self.csv: bytes | None = None
        self.loaded = None

    def policy(self):
        return gen.FlakyPolicy(self.inputs.flaky_salt) if self.spec["knowledge"] else NearestNeighborPolicy()

    def setup(self, policy, wrap_backend=lambda b: b):
        """load_benchmark plus backend construction: the set-up every sweep needs."""
        return bench.load_benchmark(self.bundle), wrap_backend(ScriptedBackend(policy=policy))

    def sweep(self, b, backend) -> tuple[float, object]:
        t0 = perf_counter()
        report = bench.run_loo_eval(b, "copilot", [self.inputs.loo_seed], self.cfg, backend=backend)
        return perf_counter() - t0, report

    def check(self, report) -> None:
        """Rows against the oracle; the report CSV against the first sweep's."""
        if len(report.rows) != len(self.inputs.tasks):
            raise CheckFailed(f"{len(report.rows)} rows for {len(self.inputs.tasks)} tasks")
        for row in report.rows:
            if row.failed or row.metrics[0] != self.expected[row.task_id]:
                raise CheckFailed(
                    f"fold {row.task_id}: metric@1 {row.metrics[0]!r} (failed={row.failed}) "
                    f"!= oracle {self.expected[row.task_id]!r}"
                )
        path = self.work / "report.csv"
        bench.write_report_csv([report], path)
        data = path.read_bytes()
        if self.csv is None:
            self.csv = data
        elif data != self.csv:
            raise CheckFailed("report CSV differs between sweeps of one run")

    def timed(self, seconds: float) -> dict:
        clock = FoldClock(self.policy())

        def set_up() -> float:
            t0 = perf_counter()
            self.loaded = self.setup(clock)
            return perf_counter() - t0

        def one_round() -> list[float]:
            b, backend = self.loaded
            _, report = self.sweep(b, backend)
            self.check(report)
            return clock.fold_periods([t.description for t in b.tasks])

        rounds, setups = measure(one_round, set_up, seconds)
        return summarize(rounds, setups, len(rounds) * len(self.inputs.tasks))

    def traced(self, tracer_cls, traced_backend) -> dict:
        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            b, backend = self.setup(self.policy())
            dt, report = self.sweep(b, backend)
            self.check(report)
            plain.append(dt)
            tracer = tracer_cls()
            tracer.install()
            try:
                b, backend = self.setup(self.policy(), lambda be: traced_backend(tracer, be))
                dt, report = self.sweep(b, backend)
            finally:
                tracer.restore()
            self.check(report)
            traced.append(dt)
        return {"tracer": tracer, "attempted": 2 * TRACE_PAIRS * len(b.tasks),
                "overhead_ratio": min(traced) / min(plain),
                "detail": {"untraced_sweep_s": plain, "traced_sweep_s": traced}}


# ---------------------------------------------------------------- CLI workload


class CliRun:
    def __init__(self, spec, inputs, work: Path):
        self.paths = gen.write_cli_inputs(inputs, work / "cli")
        self.expected = gen.cli_expected_rank1(inputs)
        self.cfg = cli.AppConfig()
        self.pool = work / "pool"
        self.stdouts: dict[str, str] = {}

    def ingest(self) -> float:
        shutil.rmtree(self.pool, ignore_errors=True)
        t0 = perf_counter()
        cli.cmd_ingest(self.cfg, [self.paths["history"]], self.paths["space"], self.paths["tasks"], self.pool)
        return perf_counter() - t0

    def calls(self, queries) -> tuple[list[float], list]:
        """Closed loop, one client: the next cmd_suggest call as soon as the last returns."""
        latencies, outputs = [], []
        for query in queries:
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                cli.cmd_suggest(self.cfg, query, self.pool, None, False)
            latencies.append(perf_counter() - t0)
            outputs.append((query, buf.getvalue()))
        self.check(outputs)
        return latencies, outputs

    def check(self, outputs) -> None:
        """JSON lines, n ranked rows, rank 1 from the oracle, same stdout on every repeat."""
        for query, text in outputs:
            task_id = query.stem
            rows = [json.loads(line) for line in text.splitlines()]
            if [r.get("rank") for r in rows] != list(range(1, N_SUGGESTIONS + 1)):
                raise CheckFailed(f"{task_id}: expected ranks 1..{N_SUGGESTIONS}, got {text!r}")
            if any(r.get("task_id") != task_id for r in rows):
                raise CheckFailed(f"{task_id}: rows name another task")
            if rows[0]["values"] != self.expected[task_id]:
                raise CheckFailed(f"{task_id}: rank 1 {rows[0]['values']} != oracle {self.expected[task_id]}")
            if self.stdouts.setdefault(task_id, text) != text:
                raise CheckFailed(f"{task_id}: stdout differs between repeats")

    def timed(self, seconds: float) -> dict:
        queries = self.paths["queries"]
        rounds, setups = measure(lambda: self.calls(queries)[0], self.ingest, seconds)
        return summarize(rounds, setups, len(rounds) * len(queries))

    def traced(self, tracer_cls, traced_backend) -> dict:
        queries = self.paths["queries"][:TRACE_CALLS]
        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            self.ingest()
            plain.append(statistics.median(self.calls(queries)[0]))
            tracer = tracer_cls()
            tracer.install()
            try:
                self.ingest()
                traced.append(statistics.median(self.calls(queries)[0]))
            finally:
                tracer.restore()
        return {"tracer": tracer, "attempted": 2 * TRACE_PAIRS * len(queries),
                "overhead_ratio": min(traced) / min(plain),
                "detail": {"untraced_p50_s": plain, "traced_p50_s": traced}}


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        data = gen.generate(args.seed, spec["tasks"], spec.get("queries", 0))
        run = (LooRun if spec["kind"] == "loo" else CliRun)(spec, data, work)
        if args.trace:
            result = run.traced(tracing.Tracer, tracing.TracedBackend)
        else:
            result = run.timed(args.seconds)
    except CheckFailed as exc:
        print(f"CHECK FAILED [{args.workload} seed={args.seed}]: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = env_info()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload={args.workload} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        tracer = result.pop("tracer")
        problems = tracer.check_self_times()
        if problems:
            print("CHECK FAILED: " + "; ".join(problems[:5]), file=sys.stderr)
            return 1
        summary = tracer.summary()
        summary["trace.overhead_ratio"] = result["overhead_ratio"]
        tracer.write(OUT / f"{tag}.spans.jsonl")
        for name in sorted(summary):
            print(f"  {name:36s} {summary[name]:14.6f}  -> {tracing.target_of(name)}")
        metrics = {name: (float(summary.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
        result["detail"]["spans"] = len(tracer.spans)
        result["detail"]["summary"] = summary
    else:
        metrics = result["metrics"]
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        if {name: unit for name, (_, unit) in metrics.items()} != END_TO_END:
            print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
            return 2
        for name, (value, unit) in metrics.items():
            print(f"  {name:20s} {value:14.6f} {unit}")
        print("  " + " ".join(f"{k}={v}" for k, v in result["detail"].items() if not isinstance(v, list)))
    line = {
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": 0,  # a failed fold or call stops the run before this point
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(
        json.dumps({"env": env, "result": line, "detail": result["detail"]}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
