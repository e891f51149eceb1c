"""Domain model and discretization tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expcopilot.core import (
    DEFAULT_LEVELS,
    CanonicalExperience,
    Discretizer,
    ExperienceRecord,
    ParameterDef,
    Solution,
    SolutionSpace,
    Task,
    canonicalize,
    discretize_solution,
    fit_discretizer,
    solution_key,
    verbalize_solution,
)
from expcopilot.errors import ValidationError


def quantile_oracle(values, p):
    """Brute-force linear-interpolation quantile over the sorted list."""
    v = sorted(values)
    h = (len(v) - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


class TestParameterDef:
    def test_numeric_requires_ordered_range(self):
        with pytest.raises(ValidationError):
            ParameterDef("x", "numeric", numeric_range=(2.0, 1.0))

    def test_log_scale_requires_positive_range(self):
        with pytest.raises(ValidationError):
            ParameterDef("x", "numeric", numeric_range=(0.0, 1.0), log_scale=True)

    def test_categorical_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            ParameterDef("k", "categorical", choices=("a", "a"))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            ParameterDef("x", "boolean")


class TestSolution:
    def test_constructor_enforces_bounds(self, svm_space):
        with pytest.raises(ValidationError, match="cost"):
            Solution(svm_space, {"cost": 1e6, "gamma": 0.1, "kernel": "radial"})

    def test_constructor_enforces_choices(self, svm_space):
        with pytest.raises(ValidationError, match="kernel"):
            Solution(svm_space, {"cost": 1.0, "gamma": 0.1, "kernel": "rbf"})

    def test_missing_parameter(self, svm_space):
        with pytest.raises(ValidationError, match="gamma"):
            Solution(svm_space, {"cost": 1.0, "kernel": "radial"})

    def test_unknown_parameter(self, svm_space):
        with pytest.raises(ValidationError, match="degree"):
            Solution(svm_space, {"cost": 1.0, "gamma": 0.1, "kernel": "radial", "degree": 3})

    @given(
        cost=st.floats(allow_nan=True, allow_infinity=True),
        gamma=st.floats(allow_nan=True, allow_infinity=True),
        kernel=st.text(max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_constructed_solution_is_in_space(self, cost, gamma, kernel):
        space = SolutionSpace(
            space_id="s",
            description="d",
            parameters=(
                ParameterDef("cost", "numeric", numeric_range=(0.001, 1000.0), log_scale=True),
                ParameterDef("gamma", "numeric", numeric_range=(0.0001, 10.0), log_scale=True),
                ParameterDef("kernel", "categorical", choices=("linear", "radial")),
            ),
        )
        try:
            s = Solution(space, {"cost": cost, "gamma": gamma, "kernel": kernel})
        except ValidationError:
            return
        assert 0.001 <= s.values["cost"] <= 1000.0
        assert 0.0001 <= s.values["gamma"] <= 10.0
        assert s.values["kernel"] in ("linear", "radial")

    def test_solution_key_is_deterministic(self, svm_space):
        a = Solution(svm_space, {"cost": 1.0, "gamma": 0.1, "kernel": "radial"})
        b = Solution(svm_space, {"kernel": "radial", "gamma": 0.1, "cost": 1.0})
        assert solution_key(svm_space, a) == solution_key(svm_space, b)
        assert solution_key(svm_space, a) == "cost=1|gamma=0.1|kernel=radial"


def linear_param(lo=0.0, hi=100.0, name="x"):
    return ParameterDef(name, "numeric", numeric_range=(lo, hi))


class TestFitDiscretizer:
    def test_one_to_ten_split_points(self):
        d = fit_discretizer(range(1, 11), linear_param())
        assert np.allclose(d.split_points, (2.8, 4.6, 6.4, 8.2), atol=1e-12)
        assert d.bin_labels == DEFAULT_LEVELS

    def test_identical_values_collapse_to_medium(self):
        d = fit_discretizer([7.0] * 9, linear_param())
        assert d.split_points == ()
        assert d.bin_labels == ("medium",)
        for x in (-10.0, 7.0, 99.0):
            assert d.discretize(x) == "medium"

    def test_log_scale_splits_are_quantiles_of_exponents(self):
        values = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
        param = ParameterDef("lr", "numeric", numeric_range=(1e-6, 1.0), log_scale=True)
        d = fit_discretizer(values, param)
        expected = [10 ** quantile_oracle(np.log10(values), p) for p in (0.2, 0.4, 0.6, 0.8)]
        assert np.allclose(d.split_points, expected, rtol=1e-12)

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError, match="no best-solution statistics"):
            fit_discretizer([], linear_param())

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValidationError, match="'x'"):
            fit_discretizer([1.0, 150.0], linear_param())

    def test_quantile_oracle_equivalence(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            values = rng.uniform(0.0, 100.0, size=rng.integers(5, 60))
            d = fit_discretizer(values, linear_param())
            expected = [quantile_oracle(values, p) for p in (0.2, 0.4, 0.6, 0.8)]
            assert len(d.split_points) == 4
            assert np.allclose(d.split_points, expected, atol=1e-9)

    @given(
        values=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=60),
        repeats=st.lists(st.integers(0, 59), max_size=30),
        log_scale=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_representatives_are_bin_medians_bit_for_bit(self, values, repeats, log_scale):
        # The reference is the per-bin mask and np.median that the sorted
        # slices replaced; repeats make ties and even-sized bins common.
        values = values + [values[i % len(values)] for i in repeats]
        d = fit_discretizer(values, ParameterDef("x", "numeric", (1.0, 100.0), log_scale))
        vals = np.asarray(values)
        idx = np.searchsorted(np.asarray(d.split_points), vals, side="right")
        for i, label in enumerate(d.bin_labels):
            members = vals[idx == i]
            if members.size:
                assert repr(d.representatives[label]) == repr(float(np.median(members)))

    @given(
        values=st.lists(st.sampled_from((-0.0, 0.0, -0.5, 0.5, 1.0)), min_size=1, max_size=12),
        rnd=st.randoms(),
    )
    @settings(max_examples=200, deadline=None)
    def test_fit_depends_only_on_the_multiset(self, values, rnd):
        # Permutations differ only in where -0.0 and 0.0 (equal under ==) sit;
        # repr shows the sign of a zero split point or representative.
        shuffled = list(values)
        rnd.shuffle(shuffled)
        param = linear_param(-1.0, 1.0)
        assert repr(fit_discretizer(shuffled, param)) == repr(fit_discretizer(values, param))

    def test_partial_collapse_uses_centered_labels(self):
        # Quantiles land on 1 (dropped: equals the minimum), 2, 2.4, and 3.
        values = [1, 1, 1, 2, 2, 2, 3, 3, 3, 10]
        d = fit_discretizer(values, linear_param(0, 10))
        assert d.split_points == pytest.approx((2.0, 2.4, 3.0))
        assert d.bin_labels == ("very low", "low", "medium", "high")
        # The empty [2.4, 3) bin gets the midpoint as its representative.
        assert d.representatives["medium"] == pytest.approx(2.7)


class TestDiscretize:
    def test_bin_membership(self):
        d = fit_discretizer(range(1, 11), linear_param())
        assert d.discretize(3.5) == "low"

    def test_clamps_below_and_above(self):
        d = fit_discretizer(range(1, 11), linear_param())
        assert d.discretize(-1e9) == "very low"
        assert d.discretize(1e9) == "very high"

    def test_split_point_goes_to_upper_bin(self):
        d = fit_discretizer(range(1, 11), linear_param())
        assert d.discretize(2.8) == "low"

    def test_non_finite_rejected(self):
        d = fit_discretizer(range(1, 11), linear_param())
        with pytest.raises(ValidationError):
            d.discretize(float("nan"))

    def test_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.uniform(0, 100, size=rng.integers(3, 40))
            d = fit_discretizer(values, linear_param())
            xs = np.sort(rng.uniform(-20, 120, size=100))
            ordinals = [d.level_labels.index(d.discretize(x)) for x in xs]
            assert ordinals == sorted(ordinals)


class TestRepresentative:
    def test_median_of_bin(self):
        d = fit_discretizer(range(1, 11), linear_param())
        assert d.representative("very low") == pytest.approx(1.5)

    def test_degenerate_returns_constant(self):
        d = fit_discretizer([7.0] * 4, linear_param())
        assert d.representative("medium") == 7.0

    def test_round_trip_on_non_empty_bins(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            values = rng.uniform(0, 100, size=rng.integers(3, 50))
            d = fit_discretizer(values, linear_param())
            for label in d.bin_labels:
                if any(d.discretize(v) == label for v in values):
                    assert d.discretize(d.representative(label)) == label

    def test_unknown_label_rejected(self):
        d = fit_discretizer(range(1, 11), linear_param())
        with pytest.raises(ValidationError, match="enormous"):
            d.representative("enormous")

    def test_collapsed_label_clamps_to_surviving_bin(self):
        d = fit_discretizer([7.0] * 4, linear_param())
        assert d.representative("very high") == 7.0


class TestVerbalize:
    def test_lexicon_rendering(self, svm_space):
        text = verbalize_solution({"cost": "very low", "kernel": "linear"}, svm_space)
        assert text == "cost is very small. kernel is linear."

    def test_single_categorical(self):
        space = SolutionSpace(
            space_id="k",
            description="d",
            parameters=(ParameterDef("kernel", "categorical", choices=("radial",)),),
        )
        assert verbalize_solution({"kernel": "radial"}, space) == "kernel is radial."

    def test_numeric_value_is_discretized(self, svm_space, svm_discretizers):
        solution = Solution(svm_space, {"cost": 0.0011, "gamma": 0.0002, "kernel": "radial"})
        record = ExperienceRecord(Task("t", svm_space.space_id, "d"), solution, 0.5)
        text = canonicalize(record, svm_space, svm_discretizers).solution_text
        assert text.startswith("cost is very small. gamma is very small.")

    def test_determinism(self, svm_space):
        discrete = {"cost": "medium", "gamma": "high", "kernel": "radial"}
        assert verbalize_solution(discrete, svm_space) == verbalize_solution(discrete, svm_space)


class TestCanonicalize:
    def test_composition(self, svm_space, svm_discretizers):
        task = Task(task_id="t", space_id=svm_space.space_id, description="d")
        solution = Solution(svm_space, {"cost": 1.0, "gamma": 0.01, "kernel": "radial"})
        record = ExperienceRecord(task=task, solution=solution, metric=0.5)
        exp = canonicalize(record, svm_space, svm_discretizers)
        assert exp.discrete_solution["cost"] == svm_discretizers["cost"].discretize(1.0)
        assert exp.discrete_solution["kernel"] == "radial"
        assert exp.solution_text == verbalize_solution(exp.discrete_solution, svm_space)
        assert exp.metric == 0.5

    def test_unknown_parameter_named(self, svm_space, svm_discretizers):
        bigger = SolutionSpace(
            space_id=svm_space.space_id,
            description=svm_space.description,
            parameters=svm_space.parameters
            + (ParameterDef("degree", "numeric", numeric_range=(1.0, 5.0)),),
            level_lexicon=svm_space.level_lexicon,
        )
        task = Task(task_id="t", space_id=bigger.space_id, description="d")
        solution = Solution(
            bigger, {"cost": 1.0, "gamma": 0.01, "kernel": "radial", "degree": 2.0}
        )
        record = ExperienceRecord(task=task, solution=solution, metric=0.5)
        with pytest.raises(ValidationError, match="degree"):
            canonicalize(record, svm_space, svm_discretizers)

    def test_discretize_solution_skips_absent_parameters(self, svm_space, svm_discretizers):
        # A space with an extra (conditional) parameter: the solution has no value for it.
        bigger = SolutionSpace(
            space_id=svm_space.space_id,
            description=svm_space.description,
            parameters=svm_space.parameters
            + (ParameterDef("degree", "numeric", numeric_range=(1.0, 5.0)),),
        )
        solution = Solution(svm_space, {"cost": 1.0, "gamma": 0.01, "kernel": "radial"})
        record = ExperienceRecord(Task("t", svm_space.space_id, "d"), solution, 0.5)
        discrete = discretize_solution(solution, bigger, svm_discretizers)
        assert list(discrete) == ["cost", "gamma", "kernel"]
        assert discrete == dict(canonicalize(record, bigger, svm_discretizers).discrete_solution)
        assert discrete == discretize_solution(solution, svm_space, svm_discretizers)


class TestExperienceRecord:
    def test_space_mismatch_rejected(self, svm_space):
        task = Task(task_id="t", space_id="other-space", description="d")
        solution = Solution(svm_space, {"cost": 1.0, "gamma": 0.01, "kernel": "radial"})
        with pytest.raises(ValidationError, match="different spaces"):
            ExperienceRecord(task=task, solution=solution, metric=0.5)

    def test_non_finite_metric_rejected(self, svm_space):
        task = Task(task_id="t", space_id=svm_space.space_id, description="d")
        solution = Solution(svm_space, {"cost": 1.0, "gamma": 0.01, "kernel": "radial"})
        with pytest.raises(ValidationError, match="finite"):
            ExperienceRecord(task=task, solution=solution, metric=float("inf"))


class TestTask:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_meta_feature_rejected(self, bad):
        # A NaN feature would make the nearest-task baseline sort NaN distances.
        with pytest.raises(ValidationError, match="meta-features must be finite"):
            Task(task_id="t", space_id="s", description="d", meta_features=(0.5, bad))


class TestCanonicalExperienceInvariant:
    def test_text_reproducible_from_discrete(self, svm_space):
        discrete = {"cost": "low", "gamma": "very high", "kernel": "polynomial"}
        exp = CanonicalExperience(
            task_id="t",
            space_id=svm_space.space_id,
            solution_text=verbalize_solution(discrete, svm_space),
            discrete_solution=discrete,
            metric=0.1,
        )
        assert exp.solution_text == verbalize_solution(exp.discrete_solution, svm_space)


class TestDiscretizerType:
    def test_non_increasing_splits_rejected(self):
        with pytest.raises(ValidationError):
            Discretizer(parameter="x", split_points=(2.0, 2.0))

    def test_more_bins_than_labels_rejected(self):
        with pytest.raises(ValidationError):
            Discretizer(parameter="x", split_points=(1.0, 2.0, 3.0, 4.0, 5.0))
