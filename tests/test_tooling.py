"""Every ``python -m repro…`` module the docs, CI and hooks name exists.

A module that is deleted or renamed leaves its commands behind in
workflow steps, hooks and how-to prose, where nothing executes them
until someone copies one.  This test resolves each module those files
name, so a stale command fails here instead.
"""

import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parents[1]

#: The files whose commands people and CI run verbatim.
FILES = (
    ".github/workflows/ci.yml",
    ".pre-commit-config.yaml",
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
)

COMMAND = re.compile(r"\bpython3? -m (repro(?:\.\w+)*)")


def named_modules(path):
    return set(COMMAND.findall((ROOT / path).read_text(encoding="utf-8")))


@pytest.mark.parametrize("path", FILES)
def test_named_modules_resolve(path):
    missing = sorted(module for module in named_modules(path)
                     if importlib.util.find_spec(module) is None)
    assert not missing, f"{path} runs modules that do not exist: {missing}"


def test_the_scan_finds_the_known_entry_points():
    found = set().union(*(named_modules(path) for path in FILES))
    assert {"repro.analysis.lint", "repro.experiments",
            "repro.experiments.scaleout"} <= found
