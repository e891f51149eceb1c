"""Domain model: solution spaces, experience records, and quantile discretization.

Numeric parameter values are canonicalized into five ordinal levels fitted on
the statistics of the best historical solutions; verbalization turns discrete
solutions into the sentence format used throughout the prompts.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError

DEFAULT_LEVELS = ("very low", "low", "medium", "high", "very high")

DIRECTIONS = ("higher", "lower")


def check_direction(direction: str) -> str:
    if direction not in DIRECTIONS:
        raise ValidationError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return direction


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
        if self.kind == "numeric":
            if self.numeric_range is None:
                raise ValidationError(f"numeric parameter '{self.name}' needs a numeric_range")
            lo, hi = (float(self.numeric_range[0]), float(self.numeric_range[1]))
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
            choices = tuple(str(c) for c in self.choices)
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
            lex = tuple(str(a) for a in self.level_lexicon)
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
            object.__setattr__(self, "meta_features", tuple(float(x) for x in self.meta_features))


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
                x = float(v)
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


def solution_key(space: SolutionSpace, solution: Solution | Mapping[str, float | str]) -> str:
    """Deterministic string key for a solution, used for table lookups and tie-breaking."""
    values = solution.values if isinstance(solution, Solution) else solution
    parts = []
    for p in space.parameters:
        v = values[p.name]
        if p.kind == "numeric":
            parts.append(f"{p.name}={format(float(v), '.12g')}")
        else:
            parts.append(f"{p.name}={v}")
    return "|".join(parts)


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
        splits = tuple(float(s) for s in self.split_points)
        if any(b <= a for a, b in zip(splits, splits[1:])):
            raise ValidationError(f"parameter '{self.parameter}': split points must be strictly increasing")
        if len(splits) + 1 > len(self.level_labels):
            raise ValidationError(f"parameter '{self.parameter}': more bins than labels")
        object.__setattr__(self, "split_points", splits)

    @property
    def bin_labels(self) -> tuple[str, ...]:
        """Labels of the surviving bins: the centered subset of the level lexicon."""
        return _centered_subset(self.level_labels, len(self.split_points) + 1)

    def ordinal(self, label: str) -> int:
        if label not in self.level_labels:
            raise ValidationError(f"unknown level '{label}' for parameter '{self.parameter}'")
        return self.level_labels.index(label)

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


def fit_discretizer(values: Iterable[float], param: ParameterDef, n_levels: int = 5) -> Discretizer:
    """Fit quantile split points and per-bin representatives on best-solution statistics.

    Split points sit at the 1/n..(n-1)/n empirical quantiles (linear interpolation
    between order statistics), computed in log10 domain for log-scale parameters.
    Duplicate or non-separating split points are dropped; surviving bins are
    relabeled to the centered subset of the level lexicon.
    """
    if param.kind != "numeric":
        raise ValidationError(f"parameter '{param.name}' is not numeric")
    if n_levels < 2:
        raise ValidationError("n_levels must be at least 2")
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValidationError(f"no best-solution statistics for parameter '{param.name}'")
    lo, hi = param.numeric_range
    if not np.all(np.isfinite(vals)) or vals.min() < lo or vals.max() > hi:
        raise ValidationError(f"fitting values outside the range of parameter '{param.name}'")

    work = np.log10(vals) if param.log_scale else vals
    probs = [i / n_levels for i in range(1, n_levels)]
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

    if n_levels == len(DEFAULT_LEVELS):
        labels = DEFAULT_LEVELS
    else:
        labels = tuple(f"level {i + 1}" for i in range(n_levels))
    bin_labels = _centered_subset(labels, len(splits) + 1)

    edges_lo = [lo] + splits
    edges_hi = splits + [hi]
    idx = np.searchsorted(np.asarray(splits), vals, side="right")
    reps: dict[str, float] = {}
    for i, label in enumerate(bin_labels):
        members = vals[idx == i]
        if members.size:
            reps[label] = float(np.median(members))
        elif param.log_scale:
            reps[label] = float(10 ** ((math.log10(edges_lo[i]) + math.log10(edges_hi[i])) / 2))
        else:
            reps[label] = float((edges_lo[i] + edges_hi[i]) / 2)

    return Discretizer(
        parameter=param.name,
        split_points=tuple(splits),
        level_labels=labels,
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


def verbalize_solution(
    solution: Solution | Mapping[str, float | str],
    space: SolutionSpace,
    discretizers: Mapping[str, Discretizer] | None = None,
) -> str:
    """Render a solution as one sentence per parameter, in space order.

    Numeric values are discretized on the fly; values that are already level
    labels render through the space lexicon. Parameters absent from the
    solution (conditional parameters) are skipped.
    """
    values = solution.values if isinstance(solution, Solution) else solution
    parts = []
    for p in space.parameters:
        if p.name not in values:
            continue
        v = values[p.name]
        if p.kind == "numeric":
            if isinstance(v, str):
                label = v
            else:
                if discretizers is None or p.name not in discretizers:
                    raise ValidationError(f"no discretizer for numeric parameter '{p.name}'")
                label = discretizers[p.name].discretize(float(v))
            text = space.render_level(label)
        else:
            text = str(v)
        parts.append(f"{p.name} is {text}.")
    return " ".join(parts)


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
    discrete: dict[str, str] = {}
    for p in space.parameters:
        if p.name not in record.solution.values:
            continue
        v = record.solution.values[p.name]
        if p.kind == "numeric":
            discrete[p.name] = discretizers[p.name].discretize(float(v))
        else:
            discrete[p.name] = str(v)
    text = verbalize_solution(discrete, space, discretizers)
    return CanonicalExperience(
        task_id=record.task.task_id,
        space_id=space.space_id,
        solution_text=text,
        discrete_solution=discrete,
        metric=record.metric,
    )


def best_solutions(
    records: Sequence[ExperienceRecord],
    task_id: str,
    n: int,
    direction: str = "higher",
) -> list[ExperienceRecord]:
    """The n best records for a task under the metric direction, stable on ties."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    check_direction(direction)
    sign = -1.0 if direction == "higher" else 1.0
    mine = [(i, r) for i, r in enumerate(records) if r.task.task_id == task_id]
    mine.sort(key=lambda item: (sign * item[1].metric, item[0]))
    return [r for _, r in mine[:n]]
