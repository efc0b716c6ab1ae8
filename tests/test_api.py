"""Every exported name, and every hook point the benchmark patches, exists,
and each hook point is still of the kind (function, method, classmethod)
the benchmark wraps.  Every search option is one the command line sets.

Deleting a public name must also delete it from ``__all__`` and from the
package re-exports; renaming a function the benchmark's tracing hooks
into must be caught here rather than in a benchmark run.
"""

import ast
import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

import qdmr2sql
from qdmr2sql import cli
from qdmr2sql.search import SynthesisConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdmr2sql"
MODULES = sorted(
    f"qdmr2sql.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"
)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_package_reexports_resolve():
    """Each re-export exists and is public in the module it comes from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    for module, name in reexports:
        source = importlib.import_module(f"qdmr2sql.{module}")
        assert getattr(qdmr2sql, name) is getattr(source, name)
        assert name in getattr(source, "__all__", [name]), f"{module}.{name}"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_benchmark_hook_points_resolve(tracing):
    """Each hook point exists and is still of the kind the hook wraps."""
    for module, attr, _, kind in tracing.HOOKS:
        owner, leaf = tracing._resolve(module, attr)
        is_classmethod = isinstance(vars(owner)[leaf], classmethod)
        assert (kind == tracing.CLASSMETHOD) == is_classmethod, f"{module}.{attr}"


def test_benchmark_sample_points_resolve(tracing):
    for module, attr in tracing.SAMPLE_POINTS:
        tracing._resolve(module, attr)


def test_every_config_field_is_set_from_the_command_line():
    """A ``SynthesisConfig`` field that no flag sets is an option that only
    tests can choose."""
    args = cli.build_parser().parse_args(
        ["coverage", "--examples", "e.jsonl", "--db-dir", "dbs",
         "--embeddings", "v.txt", "--out", "r.json",
         "--top-k", "3", "--max-assignments", "7", "--timeout-secs", "5",
         "--allow-empty", "--jobs", "2"]
    )
    config, default = cli._config(args), SynthesisConfig()
    unset = [
        field.name
        for field in dataclasses.fields(SynthesisConfig)
        if getattr(config, field.name) == getattr(default, field.name)
    ]
    assert not unset
