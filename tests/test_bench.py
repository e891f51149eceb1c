"""Benchmark loading, Metric@t, baselines, and leave-one-out evaluation tests."""

import itertools
import json
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from expcopilot import bench
from expcopilot.bench import (
    Benchmark,
    FoldCache,
    Row,
    baseline_constant,
    baseline_nearest_task,
    baseline_random,
    build_fold_artifacts,
    evaluate_solution,
    load_benchmark,
    metric_at_t,
    normalize_accuracy,
    run_loo_eval,
    strip_query_section,
    write_report_csv,
    write_report_json,
)
from expcopilot.core import (
    TOP_RECORDS,
    ExperienceRecord,
    ParameterDef,
    Solution,
    SolutionSpace,
    Task,
    canonicalize,
    fit_discretizer,
    solution_key,
)
from expcopilot.elicitation import ElicitationConfig
from expcopilot.errors import BenchmarkError, ConfigError, GatewayError, ValidationError
from expcopilot.gateway import ScriptedBackend
from expcopilot.retrieval import PoolEntry, RetrievalIndex
from expcopilot.suggestion import SuggestionConfig


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

    def test_signed_zeros_are_distinct_solutions(self, tmp_path):
        # Rows share one Solution per distinct values; -0.0 and 0.0 must not be merged.
        rows = [mini_row("mini-1", -0.0, "fast", 0.4), mini_row("mini-1", 0.5, "fast", 0.6),
                mini_row("mini-2", 0.0, "fast", 0.4), mini_row("mini-2", 0.5, "fast", 0.6)]
        b = load_benchmark(write_bundle(tmp_path / "b", MINI_SPACE, [mini_task(1), mini_task(2)], rows))
        assert set(b.table["mini-1"]) == {"x=-0|mode=fast", "x=0.5|mode=fast"}
        assert set(b.table["mini-2"]) == {"x=0|mode=fast", "x=0.5|mode=fast"}
        # Rows are kept best first: the 0.6 row is [0], the signed zero [1].
        signs = [math.copysign(1.0, b.rows[tid][1].solution.values["x"]) for tid in ("mini-1", "mini-2")]
        assert signs == [-1.0, 1.0]
        assert b.rows["mini-1"][0].solution is b.rows["mini-2"][0].solution

    @pytest.mark.parametrize(
        "bad, error",
        [({"x": 0.25, "mode": "fast", "depth": 1}, "unknown parameter"),
         ({"x": 0.25}, "missing a value"), ({"x": 0.25, "mode": "Fast"}, "not a valid choice"),
         ([0.25, "fast"], "must be an object")],
    )
    def test_bad_row_after_a_good_lookalike_names_its_line(self, tmp_path, bad, error):
        rows = [mini_row("mini-1", 0.25, "fast", 0.4), mini_row("mini-2", 0.25, "fast", 0.4),
                {"task_id": "mini-2", "values": bad, "metric": 0.5}]
        root = write_bundle(tmp_path / "b", MINI_SPACE, [mini_task(1), mini_task(2)], rows)
        with pytest.raises(BenchmarkError, match=f"table.jsonl:3: .*{error}"):
            load_benchmark(root)

    @pytest.mark.parametrize("x", ["0.5", True, " 1e-1 "])
    def test_numeric_value_that_is_not_a_json_number_names_its_line(self, tmp_path, x):
        rows = [mini_row("mini-1", 0.25, "fast", 0.4), mini_row("mini-1", x, "fast", 0.5)]
        root = write_bundle(tmp_path / "b", MINI_SPACE, [mini_task(1)], rows)
        with pytest.raises(BenchmarkError, match="table.jsonl:2: .*is not a number"):
            load_benchmark(root)

    @pytest.mark.parametrize("metric", ["0.5", True])
    def test_metric_that_is_not_a_json_number_names_its_line(self, tmp_path, metric):
        rows = [mini_row("mini-1", 0.25, "fast", 0.4), mini_row("mini-1", 0.75, "fast", metric)]
        root = write_bundle(tmp_path / "b", MINI_SPACE, [mini_task(1)], rows)
        with pytest.raises(BenchmarkError, match="table.jsonl:2: .*is not a number"):
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

    @pytest.mark.parametrize("bounds", [
        {"mini-1": [0.0]}, {"mini-1": "ab"}, [0.0, 1.0], {"mini-1": ["0", 1.0]}, {"mini-1": [0.0, 1.0, 2.0]},
    ])
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

    def test_asymmetric_twins_rejected(self, tmp_path):
        rows = [mini_row(f"mini-{i}", x, "fast", x) for i in (1, 2) for x in (0.25, 0.75)]
        root = write_bundle(
            tmp_path / "b", MINI_SPACE, [mini_task(1), mini_task(2)], rows,
            twins={"mini-1": ["mini-2"]},
        )
        with pytest.raises(BenchmarkError, match="not 'mini-1' as a twin of 'mini-2'"):
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


def reference_fold_artifacts(b, train_ids, backend):
    """The per-fold rebuild the pool cache replaced, kept as the reference:
    refit the discretizers, then canonicalize and embed every training task."""
    top = {tid: b.rows[tid][:TOP_RECORDS] for tid in train_ids}
    discretizers = {
        p.name: fit_discretizer([row.solution.values[p.name] for rows in top.values() for row in rows], p)
        for p in b.space.parameters
        if p.kind == "numeric"
    }
    entries = []
    for tid in train_ids:
        task = b.task(tid)
        experiences = [
            canonicalize(ExperienceRecord(task, row.solution, row.metric), b.space, discretizers)
            for row in top[tid]
        ]
        entries.append(PoolEntry(task, backend.embed(task.description), experiences))
    return entries, discretizers


CONTINUOUS_SPACE = SolutionSpace(
    "cont",
    "a space with three continuous parameters.",
    (
        ParameterDef("depth", "numeric", numeric_range=(1.0, 9.0)),
        ParameterDef("rate", "numeric", numeric_range=(1e-4, 1.0), log_scale=True),
        ParameterDef("shift", "numeric", numeric_range=(-1.0, 1.0)),
        ParameterDef("booster", "categorical", choices=("tree", "dart")),
    ),
)

# Signed zeros are frequent so that fitting multisets differing only in the sign
# of a zero turn up.
_CONTINUOUS_ROW = st.tuples(
    st.floats(1.0, 9.0),
    st.floats(1e-4, 1.0),
    st.sampled_from((-0.0, 0.0, 0.5)) | st.floats(-1.0, 1.0),
    st.sampled_from(("tree", "dart")),
    st.floats(0.0, 1.0),
)


def continuous_benchmark(task_rows):
    """In-memory benchmark whose tasks have their own continuous numeric values."""
    tasks = tuple(Task(f"c-{i}", "cont", f"continuous task {i}") for i in range(len(task_rows)))
    rows = {}
    for task, drawn in zip(tasks, task_rows):
        solutions = [
            (Solution(CONTINUOUS_SPACE, {"depth": d, "rate": r, "shift": sh, "booster": bo}), m)
            for d, r, sh, bo, m in drawn
        ]
        rows[task.task_id] = tuple(Row(solution_key(CONTINUOUS_SPACE, s), s, m) for s, m in solutions)
    return Benchmark(
        name="cont",
        space=CONTINUOUS_SPACE,
        tasks=tasks,
        direction="higher",
        rows=rows,
        table={tid: {r.key: r.metric for r in rs} for tid, rs in rows.items()},
        norm_bounds={t.task_id: (0.0, 1.0) for t in tasks},
        twins={},
    )


def fitting_multisets(b, train_ids):
    """(parameter, fitting multiset) of each numeric parameter in one fold, the
    multiset as sorted `float.hex` strings, which tell -0.0 from 0.0."""
    top = [row for tid in train_ids for row in b.rows[tid][:TOP_RECORDS]]
    return {
        (p.name, tuple(sorted(float.hex(row.solution.values[p.name]) for row in top)))
        for p in b.space.parameters
        if p.kind == "numeric"
    }


def flip_zero(x):
    return -x if x == 0.0 else x


class TestFoldArtifacts:
    @given(
        data=st.data(),
        task_rows=st.lists(st.lists(_CONTINUOUS_ROW, min_size=1, max_size=5), min_size=2, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_cached_pool_equals_a_fresh_build(self, data, task_rows):
        # Copies of tasks, some with the sign of their zero shifts flipped, and
        # training sets with tasks swapped for their copies give different
        # training sets with equal fitting multisets, or multisets that differ
        # only in the sign of a zero.
        n = len(task_rows)
        copies = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=3))
        task_rows = task_rows + [
            [(d, r, flip_zero(sh) if flip else sh, bo, m) for d, r, sh, bo, m in task_rows[i]]
            for i, flip in copies
        ]
        copy_of = {f"c-{i}": f"c-{n + k}" for k, (i, _) in enumerate(copies)}
        b = continuous_benchmark(task_rows)
        ids = [t.task_id for t in b.tasks]
        subsets = data.draw(
            st.lists(st.lists(st.sampled_from(ids), min_size=1, unique=True), min_size=1, max_size=4)
        )
        swapped = [list(dict.fromkeys(copy_of.get(tid, tid) for tid in s)) for s in subsets]
        folds = data.draw(st.lists(st.sampled_from(subsets + swapped), min_size=1, max_size=8))
        backend, cache = ScriptedBackend(), FoldCache()
        with mock.patch.object(bench, "fit_discretizer", wraps=fit_discretizer) as fit:
            for train_ids in folds:
                got = build_fold_artifacts(b, train_ids, backend, cache)
                want = reference_fold_artifacts(b, train_ids, ScriptedBackend())
                # repr tells -0.0 from 0.0, which == does not.
                assert got == want and repr(got) == repr(want)
                # The fold's index holds every task's entry; the training ones are the fold's.
                index = cache.index(got[1])
                assert [e.task.task_id for e in index.entries] == ids
                by_id = {e.task.task_id: e for e in index.entries}
                indexed = [by_id[tid] for tid in train_ids]
                assert indexed == want[0] and repr(indexed) == repr(want[0])
        # The first fold's index holds every task's entry, so every description is embedded.
        assert backend.embed_calls == len(b.tasks)
        distinct = set().union(*(fitting_multisets(b, fold) for fold in folds))
        assert fit.call_count == len(distinct)

    @pytest.mark.parametrize("bundle", ["synth_dir", "continuous_dir"])
    def test_loo_sweep_fits_each_distinct_multiset_once(self, bundle, request, monkeypatch):
        b = load_benchmark(request.getfixturevalue(bundle))
        fitted = Counter()

        def counting_fit(values, p):
            fitted[p.name, tuple(sorted(map(float.hex, values)))] += 1
            return fit_discretizer(values, p)

        monkeypatch.setattr(bench, "fit_discretizer", counting_fit)
        report = run_loo_eval(b, "copilot", [0, 1], backend=ScriptedBackend())
        assert not any(row.failed for row in report.rows)
        distinct = set()
        for task in b.tasks:
            held = {task.task_id, *b.twins.get(task.task_id, ())}
            distinct |= fitting_multisets(b, [t.task_id for t in b.tasks if t.task_id not in held])
        assert fitted == Counter(dict.fromkeys(distinct, 1))

    def test_cache_serves_one_benchmark(self, synth_benchmark, synth_dir):
        ids = [t.task_id for t in synth_benchmark.tasks]
        cache = FoldCache()
        build_fold_artifacts(synth_benchmark, ids[1:], ScriptedBackend(), cache)
        with pytest.raises(ValidationError, match="one benchmark"):
            build_fold_artifacts(load_benchmark(synth_dir), ids[2:], ScriptedBackend(), cache)
        entries, _ = build_fold_artifacts(synth_benchmark, ids[2:], ScriptedBackend(), cache)
        assert all(len(e.experiences) == TOP_RECORDS for e in entries)

    @pytest.mark.parametrize(
        "train_ids, bad",
        [(["synth-01", "nope"], "nope"), (["synth-01", "synth-02", "synth-01"], "synth-01")],
        ids=["unknown", "repeated"],
    )
    def test_train_ids_must_be_distinct_tasks(self, synth_benchmark, train_ids, bad):
        with pytest.raises(ValidationError, match=f"distinct tasks.*'{bad}'"):
            build_fold_artifacts(synth_benchmark, train_ids, ScriptedBackend())

    def test_loo_sweep_embeds_each_task_once(self, continuous_dir):
        # Split points move between the folds of this bundle, so entries are
        # rebuilt; a rebuild keeps the task's embedding.
        b = load_benchmark(continuous_dir)
        embedded = Counter()

        class CountingBackend(ScriptedBackend):
            def embed(self, text):
                embedded[text] += 1
                return super().embed(text)

        for use_knowledge in (False, True):
            embedded.clear()
            cfg = bench.EvalConfig(use_knowledge=use_knowledge)
            report = run_loo_eval(b, "copilot", [0, 1, 2], cfg, backend=CountingBackend())
            assert not any(row.failed for row in report.rows)
            # One embedding per description for the whole sweep: the held-out
            # queries and elicitation's validation queries reuse the pool's.
            assert embedded == Counter({t.description: 1 for t in b.tasks})

    def test_loo_sweep_retries_a_failed_embedding(self, synth_benchmark):
        flaky = synth_benchmark.tasks[0].description
        failures = Counter()

        class FailingOnceBackend(ScriptedBackend):
            def embed(self, text):
                if text == flaky and not failures[text]:
                    failures[text] += 1
                    raise GatewayError("transient")
                return super().embed(text)

        backend = FailingOnceBackend()
        report = run_loo_eval(synth_benchmark, "copilot", [0], backend=backend)
        # The first fold fails on its query embedding. The failure is not
        # cached: the next fold asks again for its pool and gets the vector.
        assert [row.task_id for row in report.rows if row.failed] == [synth_benchmark.tasks[0].task_id]
        assert backend.embed_calls == len(synth_benchmark.tasks)


class TestRunLooEval:
    def test_prompts_show_demos_per_task_configurations(self, synth_benchmark):
        # As `suggest` does; discretizers are still fitted on TOP_RECORDS rows.
        cfg = bench.EvalConfig(suggestion=SuggestionConfig(demos_per_task=5))
        sink = []
        report = run_loo_eval(
            synth_benchmark, "copilot", [0], cfg, backend=ScriptedBackend(), prompt_sink=sink
        )
        assert not any(row.failed for row in report.rows)
        for _, prompt in sink:
            blocks = [s for s in prompt.split("\n\n") if s.startswith("Dataset: ")]
            assert blocks and all(block.count("\nConfiguration ") == 5 for block in blocks)

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

    @pytest.mark.parametrize("use_knowledge", [False, True])
    def test_task_ids_inside_prompt_lines_are_not_leaks(self, synth_dir, tmp_path, use_knowledge):
        # Ids "1" to "12" appear in every prompt ("Configuration 1: ..."), but
        # prompts name tasks only by their "Dataset: <description>" lines.
        cfg = bench.EvalConfig(use_knowledge=use_knowledge, elicitation=ElicitationConfig(rounds=2))
        root = tmp_path / "digit-ids"
        root.mkdir()
        for name in ("space.json", "meta.json", "tasks.jsonl", "table.jsonl"):
            text = (synth_dir / name).read_text()
            for i in range(12):
                text = text.replace(f'"{synth.task_id_for(i)}"', f'"{i + 1}"')
            (root / name).write_text(text)
        b = load_benchmark(root)
        assert [t.task_id for t in b.tasks] == [str(i) for i in range(1, 13)]
        report = run_loo_eval(b, "copilot", [0], cfg, backend=ScriptedBackend())
        assert not any(row.failed for row in report.rows)
        original = run_loo_eval(load_benchmark(synth_dir), "copilot", [0], cfg, backend=ScriptedBackend())
        assert [row.metrics for row in report.rows] == [row.metrics for row in original.rows]

    def test_held_out_dataset_line_is_a_leak(self, synth_benchmark):
        held, twin, other = (synth_benchmark.task(synth.task_id_for(i)) for i in (0, 1, 2))
        block = f"Dataset: {other.description}\nConfiguration 1: depth is low."
        bench._assert_no_leakage(f"desc\n\n{block}", held, [twin])
        # A line that only contains the description, or the id alone, is no leak.
        bench._assert_no_leakage(f"desc {held.task_id}\n\nDataset: {held.description} too", held, [twin])
        for leaked in (held, twin):
            prompt = f"desc\n\n{block}\n\nDataset: {leaked.description}\nConfiguration 1: depth is low."
            with pytest.raises(AssertionError, match=f"held-out task '{leaked.task_id}'"):
                bench._assert_no_leakage(prompt, held, [twin])

    def test_a_pool_holding_the_held_out_task_is_caught(self, synth_benchmark, monkeypatch):
        # A fold's index holds the held-out task's entry too, and only the
        # `exclude` mask keeps it out; an index that ignores the mask leaks it.
        query = RetrievalIndex.query
        monkeypatch.setattr(RetrievalIndex, "query", lambda index, q, k, exclude=(): query(index, q, k))
        with pytest.raises(AssertionError, match="held-out task"):
            run_loo_eval(synth_benchmark, "copilot", seeds=[0], backend=ScriptedBackend())

    def test_every_prompt_of_a_knowledge_fold_is_free_of_the_held_out_task(
        self, synth_benchmark, monkeypatch
    ):
        # Elicitation's validation prompts are not scanned by the sweep, so this
        # test records every prompt the model receives, fold by fold.
        b = synth_benchmark
        folds = []  # (held-out ids, prompts sent) per fold
        fold = bench.build_fold_artifacts

        def tracking(b, train_ids, *args):
            folds.append(({t.task_id for t in b.tasks} - set(train_ids), []))
            return fold(b, train_ids, *args)

        class RecordingBackend(ScriptedBackend):
            def complete(self, request):
                folds[-1][1].append(request.prompt)
                return super().complete(request)

        monkeypatch.setattr(bench, "build_fold_artifacts", tracking)
        cfg = bench.EvalConfig(use_knowledge=True, elicitation=ElicitationConfig(rounds=3, patience=1))
        report = run_loo_eval(b, "copilot", [0], cfg, backend=RecordingBackend())
        assert not any(row.failed for row in report.rows)
        assert len(folds) == len(b.tasks) and sum(len(sent) for _, sent in folds) == 120
        for held, sent in folds:
            for tid in held:
                demo = f"Dataset: {b.task(tid).description}\nConfiguration"
                assert not any(demo in prompt for prompt in sent), tid

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
