"""Benchmark loading, Metric@t, baselines, and leave-one-out evaluation tests."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from expcopilot.bench import (
    Benchmark,
    Row,
    baseline_constant,
    baseline_nearest_task,
    baseline_random,
    evaluate_solution,
    load_benchmark,
    metric_at_t,
    normalize_accuracy,
    run_loo_eval,
    strip_query_section,
    write_report_csv,
    write_report_json,
)
from expcopilot.core import ParameterDef, Solution, SolutionSpace, Task, solution_key
from expcopilot.errors import BenchmarkError, ConfigError, ValidationError
from expcopilot.gateway import ScriptedBackend


def write_bundle(root, space, tasks, rows, direction="higher", twins=None):
    """Write a benchmark bundle from plain dicts; returns the bundle path."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "space.json").write_text(json.dumps(space))
    (root / "tasks.jsonl").write_text("\n".join(json.dumps(t) for t in tasks) + "\n")
    (root / "table.jsonl").write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    (root / "meta.json").write_text(json.dumps({"name": "mini", "direction": direction}))
    if twins is not None:
        (root / "twins.json").write_text(json.dumps(twins))
    return root


MINI_SPACE = {
    "space_id": "mini",
    "description": "Here are some datasets along with best settings for a tiny learner.",
    "parameters": [
        {"name": "x", "kind": "numeric", "numeric_range": [0.0, 1.0], "log_scale": False},
        {"name": "mode", "kind": "categorical", "choices": ["fast", "slow"]},
    ],
}


def mini_task(i, meta=None):
    return {
        "task_id": f"mini-{i}",
        "space_id": "mini",
        "description": f"The mini dataset number {i} with distinct tokens token{i}.",
        **({"meta_features": meta} if meta else {}),
    }


def mini_row(task_id, x, mode, metric):
    return {"task_id": task_id, "values": {"x": x, "mode": mode}, "metric": metric}


def valid_bundle(tmp_path, twins=None):
    rows = [mini_row("mini-1", 0.25, "fast", 0.4), mini_row("mini-1", 0.75, "fast", 0.6)]
    return write_bundle(tmp_path / "b", MINI_SPACE, [mini_task(1)], rows, twins=twins)


class TestLoadBenchmark:
    def test_loads_synthetic_bundle(self, synth_benchmark):
        b = synth_benchmark
        assert len(b.tasks) == 12
        assert all(len(b.rows[t.task_id]) == 60 for t in b.tasks)
        for task_id, (lo, hi) in b.norm_bounds.items():
            metrics = [r.metric for r in b.rows[task_id]]
            assert lo == min(metrics) and hi == max(metrics)

    def test_nan_metric_rejected(self, tmp_path):
        rows = [mini_row("mini-1", 0.25, "fast", float("nan"))]
        root = write_bundle(tmp_path / "b", MINI_SPACE, [mini_task(1)], rows)
        with pytest.raises(BenchmarkError, match="table.jsonl:1"):
            load_benchmark(root)

    def test_out_of_space_solution_rejected(self, tmp_path):
        rows = [mini_row("mini-1", 2.5, "fast", 0.5)]
        root = write_bundle(tmp_path / "b", MINI_SPACE, [mini_task(1)], rows)
        with pytest.raises(BenchmarkError, match="'x'"):
            load_benchmark(root)

    def test_duplicate_row_rejected(self, tmp_path):
        rows = [mini_row("mini-1", 0.25, "fast", 0.5), mini_row("mini-1", 0.25, "fast", 0.6)]
        root = write_bundle(tmp_path / "b", MINI_SPACE, [mini_task(1)], rows)
        with pytest.raises(BenchmarkError, match="duplicate"):
            load_benchmark(root)

    def test_degenerate_bounds_rejected(self, tmp_path):
        rows = [
            mini_row("mini-1", 0.25, "fast", 0.5),
            mini_row("mini-1", 0.75, "fast", 0.5),
        ]
        root = write_bundle(tmp_path / "b", MINI_SPACE, [mini_task(1)], rows)
        with pytest.raises(BenchmarkError, match="degenerate"):
            load_benchmark(root)

    def test_malformed_meta_rejected(self, tmp_path):
        root = valid_bundle(tmp_path)
        (root / "meta.json").write_text('{"direction": "higher",')
        with pytest.raises(BenchmarkError, match="meta"):
            load_benchmark(root)

    def test_missing_direction_rejected(self, tmp_path):
        root = valid_bundle(tmp_path)
        (root / "meta.json").write_text(json.dumps({"name": "mini"}))
        with pytest.raises(BenchmarkError, match="direction"):
            load_benchmark(root)

    @pytest.mark.parametrize("bounds", [{"mini-1": [0.0]}, {"mini-1": "ab"}, [0.0, 1.0]])
    def test_malformed_norm_bounds_rejected(self, tmp_path, bounds):
        root = valid_bundle(tmp_path)
        (root / "meta.json").write_text(json.dumps({"direction": "higher", "norm_bounds": bounds}))
        with pytest.raises(BenchmarkError, match="norm_bounds"):
            load_benchmark(root)

    def test_malformed_twins_rejected(self, tmp_path):
        root = valid_bundle(tmp_path)
        (root / "twins.json").write_text('{"mini-1": ')
        with pytest.raises(BenchmarkError, match="twins.json"):
            load_benchmark(root)

    def test_twins_naming_unknown_task_rejected(self, tmp_path):
        root = valid_bundle(tmp_path, twins={"mini-1": ["mini-9"]})
        with pytest.raises(BenchmarkError, match="mini-9"):
            load_benchmark(root)

    def test_declared_norm_bounds_override(self, tmp_path):
        rows = [
            mini_row("mini-1", 0.25, "fast", 0.4),
            mini_row("mini-1", 0.75, "fast", 0.6),
        ]
        root = write_bundle(tmp_path / "b", MINI_SPACE, [mini_task(1)], rows)
        meta = json.loads((root / "meta.json").read_text())
        meta["norm_bounds"] = {"mini-1": [0.0, 1.0]}
        (root / "meta.json").write_text(json.dumps(meta))
        b = load_benchmark(root)
        assert b.norm_bounds["mini-1"] == (0.0, 1.0)


@pytest.fixture
def mini_benchmark(tmp_path):
    tasks = [mini_task(1), mini_task(2)]
    rows = []
    metrics = {("mini-1", 0.25): 0.9, ("mini-1", 0.75): 0.3, ("mini-2", 0.25): 0.2, ("mini-2", 0.75): 0.8}
    for task_id in ("mini-1", "mini-2"):
        for x in (0.25, 0.75):
            for mode in ("fast", "slow"):
                bump = 0.05 if mode == "slow" else 0.0
                rows.append(mini_row(task_id, x, mode, metrics[(task_id, x)] + bump))
    return load_benchmark(write_bundle(tmp_path / "mini", MINI_SPACE, tasks, rows))


class TestEvaluateSolution:
    def test_exact_grid_point(self, mini_benchmark):
        b = mini_benchmark
        s = Solution(b.space, {"x": 0.25, "mode": "fast"})
        assert evaluate_solution(b, "mini-1", s) == 0.9

    def test_midpoint_snaps_to_lexicographically_smaller_key(self, mini_benchmark):
        b = mini_benchmark
        s = Solution(b.space, {"x": 0.5, "mode": "fast"})
        # Equidistant between x=0.25 and x=0.75; "x=0.25|..." sorts first.
        assert evaluate_solution(b, "mini-1", s) == 0.9

    def test_off_grid_snaps_to_nearest(self, mini_benchmark):
        b = mini_benchmark
        s = Solution(b.space, {"x": 0.7, "mode": "slow"})
        assert evaluate_solution(b, "mini-1", s) == pytest.approx(0.35)

    def test_categorical_must_match(self, tmp_path):
        rows = [
            mini_row("mini-1", 0.25, "fast", 0.1),
            mini_row("mini-1", 0.75, "fast", 0.9),
        ]
        b = load_benchmark(write_bundle(tmp_path / "c", MINI_SPACE, [mini_task(1)], rows))
        s = Solution(b.space, {"x": 0.25, "mode": "slow"})
        with pytest.raises(BenchmarkError, match="off-grid categorical"):
            evaluate_solution(b, "mini-1", s)

    def test_log_scale_distance_uses_exponents(self, tmp_path):
        space = {
            "space_id": "logspace",
            "description": "log-scaled learner settings for tiny problems.",
            "parameters": [
                {"name": "lr", "kind": "numeric", "numeric_range": [1e-6, 1.0], "log_scale": True},
            ],
        }
        tasks = [{"task_id": "t1", "space_id": "logspace", "description": "a log task"}]
        rows = [
            {"task_id": "t1", "values": {"lr": 1e-5}, "metric": 0.2},
            {"task_id": "t1", "values": {"lr": 1e-2}, "metric": 0.7},
        ]
        b = load_benchmark(write_bundle(tmp_path / "log", space, tasks, rows))
        # 1e-4 is one decade from 1e-5 but two from 1e-2: snaps to 1e-5 in log
        # space even though it is far closer to 1e-2 linearly.
        s = Solution(b.space, {"lr": 1e-4})
        assert evaluate_solution(b, "t1", s) == 0.2


class TestMetricAtT:
    def test_higher_better(self):
        metrics = [0.5, 0.7, 0.6]
        assert metric_at_t(metrics, 1, "higher") == 0.5
        assert metric_at_t(metrics, 2, "higher") == 0.7
        assert metric_at_t(metrics, 3, "higher") == 0.7

    def test_lower_better_ranks(self):
        ranks = [109.0, 73.0, 54.0]
        assert metric_at_t(ranks, 2, "lower") == 73.0

    def test_single(self):
        assert metric_at_t([0.4], 1, "higher") == 0.4

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            metric_at_t([0.4], 2, "higher")

    def test_monotone_under_direction(self):
        import random

        rng = random.Random(0)
        for _ in range(200):
            seq = [rng.random() for _ in range(rng.randint(1, 6))]
            highs = [metric_at_t(seq, t, "higher") for t in range(1, len(seq) + 1)]
            lows = [metric_at_t(seq, t, "lower") for t in range(1, len(seq) + 1)]
            assert highs == sorted(highs)
            assert lows == sorted(lows, reverse=True)


class TestNormalizeAccuracy:
    def test_endpoints_and_midpoint(self, mini_benchmark):
        b = mini_benchmark
        lo, hi = b.norm_bounds["mini-1"]
        assert normalize_accuracy(hi, "mini-1", b) == 100.0
        assert normalize_accuracy(lo, "mini-1", b) == 0.0
        assert normalize_accuracy((lo + hi) / 2, "mini-1", b) == pytest.approx(50.0)

    def test_lower_better_flips(self, tmp_path):
        rows = [
            mini_row("mini-1", 0.25, "fast", 10.0),
            mini_row("mini-1", 0.75, "fast", 30.0),
        ]
        b = load_benchmark(
            write_bundle(tmp_path / "low", MINI_SPACE, [mini_task(1)], rows, direction="lower")
        )
        assert normalize_accuracy(10.0, "mini-1", b) == 100.0
        assert normalize_accuracy(30.0, "mini-1", b) == 0.0

    def test_ranking_preserved(self, synth_benchmark):
        b = synth_benchmark
        task_id = b.tasks[0].task_id
        metrics = [r.metric for r in b.rows[task_id]]
        naccs = [normalize_accuracy(m, task_id, b) for m in metrics]
        assert sorted(range(60), key=metrics.__getitem__) == sorted(
            range(60), key=naccs.__getitem__
        )


class TestBaselineRandom:
    def test_seeded_repeatability(self, synth_benchmark):
        b = synth_benchmark
        a = baseline_random(b, "synth-01", 3, seed=42)
        c = baseline_random(b, "synth-01", 3, seed=42)
        assert a == c
        assert a != baseline_random(b, "synth-01", 3, seed=43)

    def test_full_size_is_permutation(self, mini_benchmark):
        b = mini_benchmark
        drawn = baseline_random(b, "mini-1", 99, seed=0)
        assert len(drawn) == 4
        assert len({solution_key(b.space, s) for s in drawn}) == 4


def reference_baseline_constant(b, train, n):
    """The per-key triple loop the normalized matrix replaced, kept as the reference."""
    common = set(b.table[train[0]])
    for tid in train[1:]:
        common &= set(b.table[tid])
    if not common:
        raise BenchmarkError("no solution is shared by every training task")
    keys = sorted(common)
    by_key = {row.key: row.solution for row in b.rows[train[0]]}
    scores = {key: [normalize_accuracy(b.table[tid][key], tid, b) for tid in train] for key in keys}
    chosen = []
    covered = [-math.inf] * len(train)
    for _ in range(min(n, len(keys))):
        best_key = None
        best_value = -math.inf
        for key in keys:
            if key in chosen:
                continue
            value = sum(max(c, s) for c, s in zip(covered, scores[key])) / len(train)
            if value > best_value:
                best_value = value
                best_key = key
        chosen.append(best_key)
        covered = [max(c, s) for c, s in zip(covered, scores[best_key])]
    return [by_key[key] for key in chosen]


GRID_SPACE = SolutionSpace(
    "grid", "an eight-point grid.", (ParameterDef("x", "numeric", numeric_range=(0.0, 1.0)),)
)


def grid_benchmark(cells, bounds, direction):
    """In-memory benchmark: cells[i] maps grid indices to task i's metrics."""
    tasks = tuple(Task(f"g-{i}", "grid", f"grid task {i}") for i in range(len(cells)))
    rows = {}
    for task, per_task in zip(tasks, cells):
        solutions = [(Solution(GRID_SPACE, {"x": j / 8}), m) for j, m in sorted(per_task.items())]
        rows[task.task_id] = tuple(Row(solution_key(GRID_SPACE, s), s, m) for s, m in solutions)
    return Benchmark(
        name="grid",
        space=GRID_SPACE,
        tasks=tasks,
        direction=direction,
        rows=rows,
        table={tid: {r.key: r.metric for r in rs} for tid, rs in rows.items()},
        norm_bounds={t.task_id: bound for t, bound in zip(tasks, bounds)},
        twins={},
    )


# Few distinct values, so exact ties and sums whose last bits depend on the
# order of addition both occur often.
_METRICS = st.sampled_from([0.1, 0.2, 0.3, 0.1 + 0.2, 1 / 3, 0.7, 2 / 3, 0.9])
_BOUNDS = st.sampled_from([(0.0, 1.0), (0.05, 0.95), (0.1, 0.7), (-0.3, 1.3)])


class TestBaselineConstant:
    @given(
        data=st.data(),
        n_tasks=st.integers(1, 12),
        n=st.integers(1, 9),
        direction=st.sampled_from(["higher", "lower"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matrix_greedy_matches_loop_reference(self, data, n_tasks, n, direction):
        # Cells in `columns` exist for every task; the others come and go. Some
        # columns permute one base column, so their exact sums tie and only the
        # order of addition separates their floating-point values.
        base = [data.draw(_METRICS) for _ in range(n_tasks)]
        any_column = st.lists(_METRICS, min_size=n_tasks, max_size=n_tasks)
        columns = {
            j: data.draw(st.one_of(st.permutations(base), any_column))
            for j in sorted(data.draw(st.sets(st.integers(0, 7))))
        }
        cells = [
            {
                **data.draw(st.dictionaries(st.integers(0, 7), _METRICS, min_size=1)),
                **{j: column[i] for j, column in columns.items()},
            }
            for i in range(n_tasks)
        ]
        if data.draw(st.booleans()):
            bounds = [data.draw(_BOUNDS)] * n_tasks
        else:
            bounds = [data.draw(_BOUNDS) for _ in range(n_tasks)]
        b = grid_benchmark(cells, bounds, direction)
        order = data.draw(st.permutations([t.task_id for t in b.tasks]))
        train = order[: data.draw(st.integers(1, n_tasks))]
        try:
            expected = reference_baseline_constant(b, train, n)
        except BenchmarkError:
            with pytest.raises(BenchmarkError):
                baseline_constant(b, train, n)
            return
        picked = baseline_constant(b, train, n)
        assert [solution_key(b.space, s) for s in picked] == [
            solution_key(b.space, s) for s in expected
        ]

    def test_first_pick_is_exhaustive_argmax(self, tmp_path):
        space = {
            "space_id": "c4",
            "description": "four configurations for three tasks.",
            "parameters": [
                {"name": "x", "kind": "numeric", "numeric_range": [0.0, 4.0], "log_scale": False},
            ],
        }
        tasks = [
            {"task_id": f"c-{i}", "space_id": "c4", "description": f"task {i}"} for i in range(3)
        ]
        grid = [0.0, 1.0, 2.0, 3.0]
        metrics = {
            "c-0": [0.1, 0.9, 0.6, 0.3],
            "c-1": [0.2, 0.5, 0.9, 0.1],
            "c-2": [0.9, 0.4, 0.7, 0.2],
        }
        rows = [
            {"task_id": tid, "values": {"x": x}, "metric": m}
            for tid, ms in metrics.items()
            for x, m in zip(grid, ms)
        ]
        b = load_benchmark(write_bundle(tmp_path / "c4", space, tasks, rows))
        train = ["c-0", "c-1", "c-2"]
        picked = baseline_constant(b, train, 1)[0]

        def mean_nacc(x):
            s = Solution(b.space, {"x": x})
            return sum(
                normalize_accuracy(evaluate_solution(b, tid, s), tid, b) for tid in train
            ) / len(train)

        exhaustive_best = max(grid, key=mean_nacc)
        assert picked.values["x"] == exhaustive_best

    def test_n_equal_table_covers_all(self, mini_benchmark):
        b = mini_benchmark
        portfolio = baseline_constant(b, ["mini-1", "mini-2"], 4)
        assert len(portfolio) == 4
        assert len({solution_key(b.space, s) for s in portfolio}) == 4

    def test_identical_metrics_tie_by_key_order(self, tmp_path):
        rows = [
            mini_row("mini-1", x, mode, 0.5 if (x, mode) != (0.75, "slow") else 0.6)
            for x, mode in itertools.product((0.25, 0.75), ("fast", "slow"))
        ]
        b = load_benchmark(write_bundle(tmp_path / "tie", MINI_SPACE, [mini_task(1)], rows))
        picked = baseline_constant(b, ["mini-1"], 2)
        assert solution_key(b.space, picked[0]) == "x=0.75|mode=slow"
        # Remaining candidates all tie at the same portfolio value: key order wins.
        assert solution_key(b.space, picked[1]) == "x=0.25|mode=fast"


class TestBaselineNearestTask:
    def test_exact_feature_match(self, synth_benchmark):
        b = synth_benchmark
        query = b.tasks[0]  # synth-01, partner synth-02 has the closest features
        train = [t for t in b.tasks if t.task_id != query.task_id]
        top = baseline_nearest_task(b, train, query, 3)
        partner_best = max(b.rows["synth-02"], key=lambda r: r.metric)
        assert solution_key(b.space, top[0]) == partner_best.key

    def test_two_task_distance_fixture(self, tmp_path):
        tasks = [
            mini_task(1, meta=[0.0, 0.0]),
            mini_task(2, meta=[10.0, 10.0]),
            mini_task(3, meta=[1.0, 1.0]),
        ]
        rows = []
        for i, tid in enumerate(("mini-1", "mini-2", "mini-3")):
            for j, x in enumerate((0.25, 0.75)):
                rows.append(mini_row(tid, x, "fast", 0.2 + 0.1 * i + 0.4 * j))
        b = load_benchmark(write_bundle(tmp_path / "nn", MINI_SPACE, tasks, rows))
        query = b.task("mini-3")
        train = [b.task("mini-1"), b.task("mini-2")]
        top = baseline_nearest_task(b, train, query, 1)
        # mini-1 is nearer to (1, 1); its best row is x=0.75.
        assert solution_key(b.space, top[0]) == "x=0.75|mode=fast"

    def test_falls_through_to_second_nearest(self, tmp_path):
        tasks = [mini_task(1, meta=[0.0]), mini_task(2, meta=[5.0]), mini_task(3, meta=[0.5])]
        rows = [
            mini_row("mini-1", 0.25, "fast", 0.9),
            mini_row("mini-1", 0.25, "slow", 0.85),
            mini_row("mini-2", 0.25, "fast", 0.3),
            mini_row("mini-2", 0.75, "fast", 0.8),
            mini_row("mini-3", 0.25, "fast", 0.1),
            mini_row("mini-3", 0.75, "fast", 0.2),
        ]
        b = load_benchmark(write_bundle(tmp_path / "ft", MINI_SPACE, tasks, rows))
        top = baseline_nearest_task(b, [b.task("mini-1"), b.task("mini-2")], b.task("mini-3"), 3)
        # mini-1 contributes both of its rows, then mini-2's best follows.
        assert [solution_key(b.space, s) for s in top] == [
            "x=0.25|mode=fast",
            "x=0.25|mode=slow",
            "x=0.75|mode=fast",
        ]

    def test_missing_meta_features_rejected(self, mini_benchmark):
        b = mini_benchmark
        with pytest.raises(ValidationError, match="meta-features"):
            baseline_nearest_task(b, [b.task("mini-1")], b.task("mini-2"), 1)


class TestRunLooEval:
    def test_random_monotone_metric_at_t(self, synth_benchmark):
        report = run_loo_eval(synth_benchmark, "random", seeds=[0, 1, 2, 3, 4])
        for row in report.rows:
            assert row.metrics[0] <= row.metrics[1] <= row.metrics[2]
            assert not row.failed

    def test_copilot_deterministic(self, synth_benchmark):
        a = run_loo_eval(synth_benchmark, "copilot", seeds=[0], backend=ScriptedBackend())
        b = run_loo_eval(synth_benchmark, "copilot", seeds=[0], backend=ScriptedBackend())
        assert a == b

    def test_unknown_method_rejected(self, synth_benchmark):
        with pytest.raises(ValidationError):
            run_loo_eval(synth_benchmark, "astrology", seeds=[0])

    def test_copilot_requires_backend(self, synth_benchmark):
        with pytest.raises(ConfigError):
            run_loo_eval(synth_benchmark, "copilot", seeds=[0])

    @pytest.fixture
    def disjoint_benchmark(self, tmp_path):
        # Each task has its own three grid points, so no two tasks share a
        # solution and the constant baseline fails on every fold.
        tasks = [mini_task(i) for i in (1, 2, 3)]
        rows = [
            mini_row(f"mini-{i}", x, "fast", metric)
            for i in (1, 2, 3)
            for x, metric in zip((0.3 * i - 0.2, 0.3 * i - 0.1, 0.3 * i), (0.9, 0.6, 0.3))
        ]
        return load_benchmark(write_bundle(tmp_path / "disjoint", MINI_SPACE, tasks, rows))

    def test_fallback_is_not_built_when_the_model_fills_every_slot(self, disjoint_benchmark):
        with pytest.raises(BenchmarkError, match="shared"):
            baseline_constant(disjoint_benchmark, ["mini-2", "mini-3"], 3)
        report = run_loo_eval(disjoint_benchmark, "copilot", seeds=[0], backend=ScriptedBackend())
        assert not any(row.failed for row in report.rows)

    def test_fold_fails_when_a_slot_needs_the_missing_fallback(self, disjoint_benchmark):
        class GarbageBackend(ScriptedBackend):
            def complete(self, request):
                return "no configurations here"

        report = run_loo_eval(disjoint_benchmark, "copilot", seeds=[0], backend=GarbageBackend())
        assert all(row.failed for row in report.rows)

    def test_nearest_failure_recorded_not_raised(self, tmp_path):
        # No meta-features anywhere: the nearest baseline fails on every task
        # and each fold is recorded as the worst score with a flag.
        tasks = [mini_task(1), mini_task(2)]
        rows = [
            mini_row("mini-1", 0.25, "fast", 0.2),
            mini_row("mini-1", 0.75, "fast", 0.9),
            mini_row("mini-2", 0.25, "fast", 0.4),
            mini_row("mini-2", 0.75, "fast", 0.7),
        ]
        b = load_benchmark(write_bundle(tmp_path / "fail", MINI_SPACE, tasks, rows))
        report = run_loo_eval(b, "nearest", seeds=[0])
        assert all(row.failed for row in report.rows)
        assert all(row.naccs == (0.0, 0.0, 0.0) for row in report.rows)

    def test_twins_are_excluded_from_prompts(self, tmp_path):
        space = dict(synth.SPACE, space_id="twin-space")
        tasks = []
        rows = []
        for i in range(4):
            tid = f"twin-{i}"
            tasks.append(
                {
                    "task_id": tid,
                    "space_id": "twin-space",
                    "description": f"The twin dataset number {synth.ORDINALS[i]} about topic{i // 2}.",
                }
            )
            for di, depth in enumerate(synth.DEPTH_GRID):
                for si, shrink in enumerate(synth.SHRINK_GRID):
                    rows.append(
                        {
                            "task_id": tid,
                            "values": {"depth": depth, "shrinkage": shrink, "booster": "tree"},
                            "metric": 1.0 - 0.1 * abs(di - i) - 0.01 * si,
                        }
                    )
        twins = {"twin-0": ["twin-1"], "twin-1": ["twin-0"]}
        b = load_benchmark(
            write_bundle(tmp_path / "twins", space, tasks, rows, twins=twins)
        )
        sink = []
        run_loo_eval(b, "copilot", seeds=[0], backend=ScriptedBackend(), prompt_sink=sink)
        for held_id, prompt in sink:
            held = b.task(held_id)
            assert held.description not in prompt
            for twin_id in b.twins.get(held_id, ()):
                assert b.task(twin_id).description not in prompt

    def test_strip_query_section(self):
        prompt = "desc\n\nDataset: demo one\nConfiguration 1: x\n\nDataset: the query"
        assert strip_query_section(prompt) == "desc\n\nDataset: demo one\nConfiguration 1: x"


class TestReports:
    def test_csv_contract_and_determinism(self, synth_benchmark, tmp_path):
        reports = [
            run_loo_eval(synth_benchmark, "random", seeds=[0, 1]),
            run_loo_eval(synth_benchmark, "constant", seeds=[0, 1]),
        ]
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_report_csv(reports, path_a)
        write_report_csv(reports, path_b)
        text = path_a.read_text()
        assert text.splitlines()[0] == "method,seed,task_id,metric_at_1,metric_at_2,metric_at_3"
        assert len(text.splitlines()) == 1 + 2 * 2 * 12
        assert text == path_b.read_text()

    def test_json_aggregates(self, synth_benchmark, tmp_path):
        report = run_loo_eval(synth_benchmark, "constant", seeds=[0, 1])
        out = tmp_path / "agg.json"
        write_report_json([report], out)
        payload = json.loads(out.read_text())
        agg = payload["reports"][0]
        assert agg["method"] == "constant"
        assert set(agg["nacc"]) == {"1", "2", "3"}
        assert agg["nacc"]["1"]["std"] == 0.0  # constant ignores the seed
        assert agg["failures"] == []
