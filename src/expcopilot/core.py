"""Domain model: solution spaces, experience records, and quantile discretization.

Numeric parameter values are canonicalized into five ordinal levels fitted on
the statistics of the best historical solutions; verbalization turns discrete
solutions into the sentence format used throughout the prompts.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError

DEFAULT_LEVELS = ("very low", "low", "medium", "high", "very high")

DIRECTIONS = ("higher", "lower")

# How many best records of each task the discretizers are fitted on, at ingest and in every fold.
TOP_RECORDS = 3


def check_direction(direction: str) -> str:
    if direction not in DIRECTIONS:
        raise ValidationError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return direction


def check_int(name: str, value, least: int | None = None) -> int:
    """`value` if it is an int (a bool is not) of at least `least`; a ValidationError otherwise."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be at least {least}")
    return value


def check_number(name: str, value) -> float:
    """`value` as a float if it is an int or a float (a bool is not); a ValidationError otherwise."""
    if type(value) is float:  # most values; it skips the slower isinstance tests on per-record paths
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} {value!r} is not a number")
    return float(value)


def check_strings(name: str, value) -> tuple[str, ...]:
    """`value` as a tuple if it is a list or tuple of strings; a ValidationError otherwise
    (a lone string would otherwise split into characters)."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


def derive_seed(root: int, label: str) -> int:
    """Derive a named sub-stream seed from a root seed."""
    digest = hashlib.sha256(f"{root}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ParameterDef:
    """One configurable dimension of a solution space."""

    name: str
    kind: str  # "numeric" | "categorical"
    numeric_range: tuple[float, float] | None = None
    log_scale: bool = False
    choices: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("parameter name must be non-empty")
        if not isinstance(self.log_scale, bool):
            raise ValidationError(f"parameter '{self.name}': log_scale must be true or false")
        if self.kind == "numeric":
            if self.numeric_range is None:
                raise ValidationError(f"numeric parameter '{self.name}' needs a numeric_range")
            lo, hi = (check_number(f"parameter '{self.name}': bound", b) for b in self.numeric_range)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValidationError(f"parameter '{self.name}': range must satisfy lo < hi")
            if self.log_scale and lo <= 0:
                raise ValidationError(f"parameter '{self.name}': log scale requires a positive range")
            object.__setattr__(self, "numeric_range", (lo, hi))
            if self.choices is not None:
                raise ValidationError(f"numeric parameter '{self.name}' cannot declare choices")
        elif self.kind == "categorical":
            if not self.choices:
                raise ValidationError(f"categorical parameter '{self.name}' needs choices")
            choices = check_strings(f"parameter '{self.name}': choices", self.choices)
            if len(set(choices)) != len(choices):
                raise ValidationError(f"parameter '{self.name}': duplicate choices")
            object.__setattr__(self, "choices", choices)
            if self.numeric_range is not None:
                raise ValidationError(f"categorical parameter '{self.name}' cannot declare a range")
        else:
            raise ValidationError(f"parameter '{self.name}': unknown kind {self.kind!r}")


@dataclass(frozen=True)
class SolutionSpace:
    """Schema of configurable parameters for one ML scenario."""

    space_id: str
    description: str
    parameters: tuple[ParameterDef, ...]
    level_lexicon: tuple[str, ...] | None = None  # per-space aliases for the five ordinals

    def __post_init__(self):
        if not self.space_id:
            raise ValidationError("space_id must be non-empty")
        if not self.description:
            raise ValidationError(f"space '{self.space_id}': description must be non-empty")
        params = tuple(self.parameters)
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValidationError(f"space '{self.space_id}': duplicate parameter names")
        object.__setattr__(self, "parameters", params)
        if self.level_lexicon is not None:
            lex = check_strings(f"space '{self.space_id}': level lexicon", self.level_lexicon)
            if len(lex) != len(DEFAULT_LEVELS) or len(set(lex)) != len(lex):
                raise ValidationError(
                    f"space '{self.space_id}': level lexicon must alias all "
                    f"{len(DEFAULT_LEVELS)} levels uniquely"
                )
            object.__setattr__(self, "level_lexicon", lex)

    def parameter(self, name: str) -> ParameterDef:
        for p in self.parameters:
            if p.name == name:
                return p
        raise ValidationError(f"unknown parameter '{name}' for space '{self.space_id}'")

    @cached_property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    def render_level(self, label: str) -> str:
        """Render a canonical level label through the space's lexicon."""
        if self.level_lexicon is not None and label in DEFAULT_LEVELS:
            return self.level_lexicon[DEFAULT_LEVELS.index(label)]
        return label

    def resolve_level(self, text: str) -> str | None:
        """Map a canonical label or lexicon alias back to the canonical label."""
        norm = " ".join(text.lower().split())
        if norm in DEFAULT_LEVELS:
            return norm
        if self.level_lexicon is not None:
            aliases = [a.lower() for a in self.level_lexicon]
            if norm in aliases:
                return DEFAULT_LEVELS[aliases.index(norm)]
        return None


@dataclass(frozen=True)
class Task:
    """An ML problem to solve, described in natural language."""

    task_id: str
    space_id: str
    description: str
    meta_features: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.task_id:
            raise ValidationError("task_id must be non-empty")
        if not self.description:
            raise ValidationError(f"task '{self.task_id}': description must be non-empty")
        if self.meta_features is not None:
            features = tuple(check_number(f"task '{self.task_id}': feature", x) for x in self.meta_features)
            if not all(map(math.isfinite, features)):
                raise ValidationError(f"task '{self.task_id}': meta-features must be finite")
            object.__setattr__(self, "meta_features", features)


@dataclass(frozen=True, init=False)
class Solution:
    """A concrete assignment of every parameter in a solution space.

    Construction validates against the space, so any Solution that exists is
    inside the space bounds.
    """

    space_id: str
    values: Mapping[str, float | str]

    def __init__(self, space: SolutionSpace, values: Mapping[str, float | str]):
        checked: dict[str, float | str] = {}
        for p in space.parameters:
            if p.name not in values:
                raise ValidationError(f"solution is missing a value for parameter '{p.name}'")
            v = values[p.name]
            if p.kind == "numeric":
                x = check_number(f"parameter '{p.name}': value", v)
                lo, hi = p.numeric_range
                if not math.isfinite(x):
                    raise ValidationError(f"parameter '{p.name}': value must be finite")
                if not (lo <= x <= hi):
                    raise ValidationError(
                        f"parameter '{p.name}': value {x!r} outside range [{lo}, {hi}]"
                    )
                checked[p.name] = x
            else:
                if v not in p.choices:
                    raise ValidationError(f"parameter '{p.name}': {v!r} is not a valid choice")
                checked[p.name] = str(v)
        extra = set(values) - set(space.parameter_names)
        if extra:
            raise ValidationError(f"unknown parameter(s) {sorted(extra)} for space '{space.space_id}'")
        object.__setattr__(self, "space_id", space.space_id)
        object.__setattr__(self, "values", MappingProxyType(checked))


def solution_key(space: SolutionSpace, solution: Solution) -> str:
    """Deterministic string key for a solution, used for table lookups and tie-breaking."""
    parts = []
    for p in space.parameters:
        v = solution.values[p.name]
        if p.kind == "numeric":
            parts.append(f"{p.name}={format(float(v), '.12g')}")
        else:
            parts.append(f"{p.name}={v}")
    return "|".join(parts)


def solution_reader(space: SolutionSpace) -> Callable[[object], tuple[Solution, str]]:
    """`read(values)`: the `Solution` of `values` in `space` and its `solution_key`, built once
    per distinct values. Tables and histories repeat few solutions over many rows, so rows
    share them. The memo key is `repr(values)`, which tells -0.0 from 0.0 and 1 from 1.0;
    values that fail validation raise and are never stored."""
    memo: dict[str, tuple[Solution, str]] = {}

    def read(values) -> tuple[Solution, str]:
        key = repr(values)
        if key not in memo:
            if not isinstance(values, Mapping):
                raise ValidationError(f"solution values must be an object, got {values!r}")
            solution = Solution(space, values)
            memo[key] = solution, solution_key(space, solution)
        return memo[key]

    return read


@dataclass(frozen=True)
class ExperienceRecord:
    """One historical record: a task, the solution tried on it, and the metric achieved."""

    task: Task
    solution: Solution
    metric: float

    def __post_init__(self):
        if self.task.space_id != self.solution.space_id:
            raise ValidationError(
                f"task '{self.task.task_id}' and solution belong to different spaces"
            )
        if not math.isfinite(self.metric):
            raise ValidationError(f"task '{self.task.task_id}': metric must be finite")
        object.__setattr__(self, "metric", float(self.metric))


def _centered_subset(labels: Sequence[str], m: int) -> tuple[str, ...]:
    offset = (len(labels) - m) // 2
    return tuple(labels[offset:offset + m])


@dataclass(frozen=True)
class Discretizer:
    """Per-parameter quantile split points mapping reals to ordinal levels and back."""

    parameter: str
    split_points: tuple[float, ...]
    level_labels: tuple[str, ...] = DEFAULT_LEVELS
    representatives: Mapping[str, float] = field(default_factory=dict)
    fitted_in_log: bool = False

    def __post_init__(self):
        splits = tuple(check_number(f"parameter '{self.parameter}': split", s) for s in self.split_points)
        if not isinstance(self.fitted_in_log, bool):
            raise ValidationError(f"parameter '{self.parameter}': fitted_in_log must be true or false")
        for x in self.representatives.values():
            check_number(f"parameter '{self.parameter}': representative", x)
        if any(b <= a for a, b in zip(splits, splits[1:])):
            raise ValidationError(f"parameter '{self.parameter}': split points must be strictly increasing")
        if len(splits) + 1 > len(self.level_labels):
            raise ValidationError(f"parameter '{self.parameter}': more bins than labels")
        object.__setattr__(self, "split_points", splits)

    @property
    def bin_labels(self) -> tuple[str, ...]:
        """Labels of the surviving bins: the centered subset of the level lexicon."""
        return _centered_subset(self.level_labels, len(self.split_points) + 1)

    def discretize(self, x: float) -> str:
        """Map a real to the label of its bin; values beyond the outer splits clamp."""
        x = float(x)
        if not math.isfinite(x):
            raise ValidationError(f"parameter '{self.parameter}': cannot discretize non-finite value")
        return self.bin_labels[bisect_right(self.split_points, x)]

    def representative(self, level: str) -> float:
        """Real value standing in for a level; inverse of discretize on non-empty bins."""
        if level not in self.level_labels:
            raise ValidationError(f"unknown level '{level}' for parameter '{self.parameter}'")
        if level in self.representatives:
            return self.representatives[level]
        # Bin collapsed away during fitting: clamp to the nearest surviving level.
        target = self.level_labels.index(level)
        best = min(
            self.bin_labels,
            key=lambda b: (abs(self.level_labels.index(b) - target), self.level_labels.index(b)),
        )
        return self.representatives[best]


def fit_discretizer(values: Iterable[float], param: ParameterDef) -> Discretizer:
    """Fit five-level quantile split points and per-bin representatives on best-solution statistics.

    Split points sit at the 1/5..4/5 empirical quantiles (linear interpolation
    between order statistics), computed in log10 domain for log-scale parameters.
    Duplicate or non-separating split points are dropped; surviving bins are
    relabeled to the centered subset of the five levels.
    """
    if param.kind != "numeric":
        raise ValidationError(f"parameter '{param.name}' is not numeric")
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValidationError(f"no best-solution statistics for parameter '{param.name}'")
    lo, hi = param.numeric_range
    if not np.all(np.isfinite(vals)) or vals.min() < lo or vals.max() > hi:
        raise ValidationError(f"fitting values outside the range of parameter '{param.name}'")
    # -0.0 first (they compare equal), so the fit depends only on the multiset of values.
    vals = np.asarray(sorted(vals.tolist(), key=lambda v: (v, math.copysign(1.0, v))))

    work = np.log10(vals) if param.log_scale else vals
    probs = [i / len(DEFAULT_LEVELS) for i in range(1, len(DEFAULT_LEVELS))]
    raw_splits = np.quantile(work, probs)
    if param.log_scale:
        raw_splits = np.power(10.0, raw_splits)
    vmin = float(vals.min())
    splits: list[float] = []
    for s in raw_splits.tolist():
        # A split at or below the minimum value separates nothing; drop it with
        # the duplicates so fully degenerate inputs collapse to a single bin.
        if s > vmin and (not splits or s > splits[-1]):
            splits.append(float(s))

    bin_labels = _centered_subset(DEFAULT_LEVELS, len(splits) + 1)

    edges_lo = [lo] + splits
    edges_hi = splits + [hi]
    # Bin i holds the values in [edges_lo[i], edges_hi[i]): a slice of the sorted values.
    ordered = np.sort(vals).tolist()
    cuts = [0, *(bisect_left(ordered, s) for s in splits), len(ordered)]
    reps: dict[str, float] = {}
    for i, label in enumerate(bin_labels):
        members = ordered[cuts[i]:cuts[i + 1]]
        if members:
            reps[label] = statistics.median(members)
        elif param.log_scale:
            reps[label] = float(10 ** ((math.log10(edges_lo[i]) + math.log10(edges_hi[i])) / 2))
        else:
            reps[label] = float((edges_lo[i] + edges_hi[i]) / 2)

    return Discretizer(
        parameter=param.name,
        split_points=tuple(splits),
        representatives=reps,
        fitted_in_log=param.log_scale,
    )


@dataclass(frozen=True)
class CanonicalExperience:
    """A historical record canonicalized into natural language."""

    task_id: str
    space_id: str
    solution_text: str
    discrete_solution: Mapping[str, str]
    metric: float

    def __post_init__(self):
        object.__setattr__(self, "discrete_solution", MappingProxyType(dict(self.discrete_solution)))


def verbalize_solution(discrete: Mapping[str, str], space: SolutionSpace) -> str:
    """Render a discrete solution as one sentence per parameter, in space order.

    Level labels render through the space lexicon, choices as they are.
    Parameters absent from the solution (conditional parameters) are skipped.
    """
    parts = []
    for p in space.parameters:
        if p.name in discrete:
            v = discrete[p.name]
            text = space.render_level(v) if p.kind == "numeric" else v
            parts.append(f"{p.name} is {text}.")
    return " ".join(parts)


def discretize_solution(
    solution: Solution, space: SolutionSpace, discretizers: Mapping[str, Discretizer]
) -> dict[str, str]:
    """Each parameter's level label (numeric) or choice (categorical), in space order;
    parameters absent from the solution are skipped."""
    discrete: dict[str, str] = {}
    for p in space.parameters:
        if p.name in solution.values:
            v = solution.values[p.name]
            discrete[p.name] = discretizers[p.name].discretize(float(v)) if p.kind == "numeric" else str(v)
    return discrete


def canonicalize(
    record: ExperienceRecord,
    space: SolutionSpace,
    discretizers: Mapping[str, Discretizer],
) -> CanonicalExperience:
    """Convert a raw record into discrete levels plus its verbalized sentence."""
    if record.solution.space_id != space.space_id:
        raise ValidationError(
            f"record for task '{record.task.task_id}' belongs to space "
            f"'{record.solution.space_id}', not '{space.space_id}'"
        )
    for name in record.solution.values:
        if name not in space.parameter_names:
            raise ValidationError(f"record parameter '{name}' is absent from space '{space.space_id}'")
    discrete = discretize_solution(record.solution, space, discretizers)
    text = verbalize_solution(discrete, space)
    return CanonicalExperience(
        task_id=record.task.task_id,
        space_id=space.space_id,
        solution_text=text,
        discrete_solution=discrete,
        metric=record.metric,
    )


def top_by_task(triples: Iterable[tuple[str, float, object]], direction: str, k: int) -> dict[str, list]:
    """The `k` best items of each task from (task_id, metric, item) triples, best metric first
    under the direction, stable on ties (-0.0 ties 0.0): the head of a stable sort, kept
    without holding the rest."""
    sign = -1.0 if check_direction(direction) == "higher" else 1.0
    groups: dict[str, list] = {}
    for index, (task_id, metric, item) in enumerate(triples):
        group = groups.setdefault(task_id, [])
        key = (sign * metric, index)
        if len(group) < k or key < group[-1][0]:
            # Indices are unique, so insertion never compares the items themselves.
            insort(group, (key, item))
            del group[k:]
    return {task_id: [item for _, item in group] for task_id, group in groups.items()}
