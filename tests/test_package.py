"""The package root: README's library example runs as written, and the root re-exports
exactly the names that the README and the benchmark harness import from it."""

import ast
import re
import shutil
from pathlib import Path

import expcopilot

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def names_imported_from_root(source: str) -> set[str]:
    """Names of `from expcopilot import ...` statements, submodules left out."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "expcopilot" and node.level == 0
        for alias in node.names
        if not (ROOT / "src" / "expcopilot" / f"{alias.name}.py").exists()
    }


def test_root_exports_exactly_the_names_imported_from_it():
    assert expcopilot.__all__ == ["ElicitationConfig", "NearestNeighborPolicy", "ScriptedBackend"]
    harness = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    assert names_imported_from_root(library_example()) | names_imported_from_root(harness) == set(
        expcopilot.__all__
    )


def test_readme_library_example_runs(synth_dir, tmp_path, monkeypatch, capsys):
    shutil.copytree(synth_dir, tmp_path / "bench")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    aggregate = ast.literal_eval(capsys.readouterr().out)
    assert set(aggregate) == {"mean", "std"} and 0.0 <= aggregate["mean"] <= 100.0
