"""Shared fixtures: the SVM prompt-fixture space and the synthetic 12-task benchmark."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import synth
from expcopilot.bench import load_benchmark
from expcopilot.core import (
    CanonicalExperience,
    ParameterDef,
    SolutionSpace,
    Task,
    fit_discretizer,
    verbalize_solution,
)
from expcopilot.retrieval import KnowledgeItem, PoolEntry, hashed_bow_embedding

GOLDEN_DIR = Path(__file__).parent / "golden"

SVM_DESCRIPTION = (
    "Here are some classification datasets along with best hyper-parameter "
    'configurations to train a R language model "Learner mlr.classif.svm from '
    'package(s) e1071" on them.'
)

DATASETS = {
    "ada_agnostic": (
        'The dataset name is "ada_agnostic". It contains 2 classes, 4562 instances, '
        "49 features, 48 numeric features, 1 categorical features. The majority class "
        "size is 3430 and the minority class size is 1132."
    ),
    "credit-g": (
        'The dataset name is "credit-g". It contains 2 classes, 1000 instances, '
        "21 features, 7 numeric features, 14 categorical features. The majority class "
        "size is 700 and the minority class size is 300."
    ),
    "ozone-level-8hr": (
        'The dataset name is "ozone-level-8hr". It contains 2 classes, 2534 instances, '
        "73 features, 72 numeric features, 1 categorical features. The majority class "
        "size is 2374 and the minority class size is 160."
    ),
    "gina_agnostic": (
        'The dataset name is "gina_agnostic". It contains 2 classes, 3468 instances, '
        "971 features, 970 numeric features, 1 categorical features. The majority class "
        "size is 1763 and the minority class size is 1705."
    ),
    "wilt": (
        'The dataset name is "wilt". It contains 2 classes, 4839 instances, 6 features, '
        "5 numeric features, 1 categorical features. The majority class size is 4578 "
        "and the minority class size is 261."
    ),
    "ilpd": (
        'The dataset name is "ilpd". It contains 2 classes, 583 instances, 11 features, '
        "9 numeric features, 2 categorical features. The majority class size is 416 "
        "and the minority class size is 167."
    ),
    "steel-plates-fault": (
        'The dataset name is "steel-plates-fault". It contains 2 classes, 1941 instances, '
        "34 features, 33 numeric features, 1 categorical features. The majority class "
        "size is 1268 and the minority class size is 673."
    ),
}

GUIDELINES = (
    "For datasets with many numeric features, larger cost values and smaller gamma "
    "values tend to be more effective.",
    "For datasets with many categorical features, linear kernels tend to be more "
    "effective.",
    "For datasets with few numeric features, small cost values and larger gamma "
    "values tend to be more effective.",
    "For datasets with few categorical features, polynomial kernels tend to be more "
    "effective.",
)

ONLINE_DEMOS = (
    ("ada_agnostic", (
        {"cost": "very low", "kernel": "linear"},
        {"cost": "very low", "kernel": "linear"},
        {"cost": "very low", "kernel": "linear"},
    )),
    ("credit-g", (
        {"cost": "medium", "gamma": "low", "kernel": "radial"},
        {"cost": "medium", "gamma": "very low", "kernel": "radial"},
        {"cost": "medium", "gamma": "low", "kernel": "radial"},
    )),
    ("ozone-level-8hr", (
        {"cost": "low", "gamma": "low", "kernel": "radial"},
        {"cost": "very low", "gamma": "low", "kernel": "radial"},
        {"cost": "low", "gamma": "low", "kernel": "radial"},
    )),
)

OFFLINE_DEMOS = (
    ("wilt", (
        {"cost": "medium", "gamma": "high", "kernel": "radial"},
        {"cost": "medium", "gamma": "medium", "kernel": "radial"},
        {"cost": "high", "gamma": "medium", "kernel": "radial"},
    )),
    ("ilpd", (
        {"cost": "medium", "gamma": "medium", "kernel": "radial"},
        {"cost": "very low", "gamma": "very high", "kernel": "radial"},
        {"cost": "medium", "gamma": "very high", "kernel": "radial"},
    )),
    ("steel-plates-fault", (
        {"cost": "low", "kernel": "linear"},
        {"cost": "very low", "kernel": "linear"},
        {"cost": "very low", "kernel": "linear"},
    )),
)


@pytest.fixture
def svm_space() -> SolutionSpace:
    return SolutionSpace(
        space_id="svm-e1071",
        description=SVM_DESCRIPTION,
        parameters=(
            ParameterDef("cost", "numeric", numeric_range=(0.001, 1000.0), log_scale=True),
            ParameterDef("gamma", "numeric", numeric_range=(0.0001, 10.0), log_scale=True),
            ParameterDef("kernel", "categorical", choices=("linear", "polynomial", "radial")),
        ),
        level_lexicon=("very small", "small", "medium", "large", "very large"),
    )


@pytest.fixture
def svm_discretizers(svm_space):
    rng = np.random.default_rng(7)
    cost_values = np.geomspace(0.002, 800.0, 60) * rng.uniform(0.9, 1.1, 60)
    gamma_values = np.geomspace(0.0002, 5.0, 60) * rng.uniform(0.9, 1.1, 60)
    return {
        "cost": fit_discretizer(cost_values, svm_space.parameter("cost")),
        "gamma": fit_discretizer(gamma_values, svm_space.parameter("gamma")),
    }


def make_task(space: SolutionSpace, name: str) -> Task:
    return Task(task_id=name, space_id=space.space_id, description=DATASETS[name])


def make_entry(space: SolutionSpace, name: str, discretes) -> PoolEntry:
    task = make_task(space, name)
    experiences = tuple(
        CanonicalExperience(
            task_id=task.task_id,
            space_id=space.space_id,
            solution_text=verbalize_solution(discrete, space),
            discrete_solution=discrete,
            metric=0.9 - 0.1 * i,
        )
        for i, discrete in enumerate(discretes)
    )
    return PoolEntry(task=task, embedding=hashed_bow_embedding(task.description), experiences=experiences)


@pytest.fixture
def online_demo_entries(svm_space):
    return [make_entry(svm_space, name, discretes) for name, discretes in ONLINE_DEMOS]


@pytest.fixture
def offline_demo_entries(svm_space):
    return [make_entry(svm_space, name, discretes) for name, discretes in OFFLINE_DEMOS]


@pytest.fixture
def guideline_items(svm_space):
    return [
        KnowledgeItem(
            space_id=svm_space.space_id,
            text=text,
            validation_score=0.9 - 0.1 * i,
            provenance={"round": i + 1},
        )
        for i, text in enumerate(GUIDELINES)
    ]


@pytest.fixture
def gina_task(svm_space):
    return make_task(svm_space, "gina_agnostic")


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth") / "bench"
    return synth.write_benchmark(root)


@pytest.fixture(scope="session")
def continuous_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("continuous") / "bench"
    return synth.write_continuous_benchmark(root)


@pytest.fixture(scope="session")
def synth_benchmark(synth_dir):
    return load_benchmark(synth_dir)
