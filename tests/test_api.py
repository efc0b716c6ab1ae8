"""Every exported name, and every hook point the benchmark patches, exists,
and each hook point is still of the kind (function, method, classmethod)
the benchmark wraps.  Every search option is one the command line sets,
and ``search`` takes nothing but an example and a session.

Deleting a public name must also delete it from ``__all__`` and from the
package re-exports; renaming a function the benchmark's tracing hooks
into must be caught here rather than in a benchmark run.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import sqlite3
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
         "--allow-empty"]
    )
    config, default = cli._config(args), SynthesisConfig()
    unset = [
        field.name
        for field in dataclasses.fields(SynthesisConfig)
        if getattr(config, field.name) == getattr(default, field.name)
    ]
    assert not unset


def test_search_takes_an_example_and_a_session():
    """A defaulted parameter of ``search`` would be an option that only
    tests choose."""
    search = importlib.import_module("qdmr2sql.search")
    params = inspect.signature(search.search).parameters.values()
    assert [p.name for p in params] == ["example", "session"]
    assert all(p.default is inspect.Parameter.empty for p in params)


# Each operation the search runs, with the one signature its one mode
# needs.  A defaulted parameter would be a mode the search never selects,
# an option that only tests choose.
ONE_MODE = [
    ("qdmr2sql.executor", "Database.execute", ["self", "sql", "target"]),
    ("qdmr2sql.linking", "rank_columns", ["phrase", "schema", "lexicon", "top_k"]),
    ("qdmr2sql.linking", "enumerate_assignments", ["slots", "limit"]),
    ("qdmr2sql.linking", "plan_bindings", ["program", "value_index"]),
    ("qdmr2sql.linking", "link_program",
     ["plan", "schema", "lexicon", "value_index", "top_k", "rankings"]),
    ("qdmr2sql.search", "_program_variants", ["program"]),
    ("qdmr2sql.text", "lemmatize", ["token"]),
    ("qdmr2sql.text", "content_lemmas", ["tokens"]),
]


@pytest.mark.parametrize(
    ("module", "attr", "names"), ONE_MODE, ids=[attr for _, attr, _ in ONE_MODE]
)
def test_search_operations_have_one_mode(module, attr, names):
    fn = importlib.import_module(module)
    for part in attr.split("."):
        fn = getattr(fn, part)
    params = inspect.signature(fn).parameters.values()
    assert [p.name for p in params] == names
    assert all(p.default is inspect.Parameter.empty for p in params)


def test_search_exports_only_its_own_names():
    """``search`` imports ``synthesize`` as a hook point, not to export it."""
    search = importlib.import_module("qdmr2sql.search")
    foreign = [
        name for name in search.__all__
        if getattr(search, name).__module__ != "qdmr2sql.search"
    ]
    assert not foreign


def test_session_is_exported():
    search = importlib.import_module("qdmr2sql.search")
    assert "Session" in search.__all__
    assert qdmr2sql.Session is search.Session


def test_an_assignment_is_one_map_from_slot_to_column():
    """Which column fills which phrase or literal is recorded once, keyed
    by ``Slot``: no second encoding of the same choice rides along."""
    linking = importlib.import_module("qdmr2sql.linking")
    fields = {
        cls: [f.name for f in dataclasses.fields(cls)]
        for cls in (linking.Assignment, linking.LinkCandidate, linking.BindingPlan)
    }
    assert fields == {
        linking.Assignment: ["columns"],
        linking.LinkCandidate: ["column", "tier", "similarity"],
        linking.BindingPlan: ["slots"],
    }
    assert linking.Slot._fields == ("step", "text")
    assert not hasattr(linking, "PhraseLinking")
    assert not hasattr(qdmr2sql, "PhraseLinking")


def test_each_step_reads_its_own_slots():
    """A plan lists each step's own ``Slot``s, and a rule reads its columns
    under its own step's shape texts: no role names, binder, per-kind
    dispatch chain or second per-step encoding sit between the assignment
    and the rules."""
    linking = importlib.import_module("qdmr2sql.linking")
    sqlgen = importlib.import_module("qdmr2sql.sqlgen")
    program = qdmr2sql.parse_qdmr(
        "return ships; return injuries of #1; return number of #2 for each type"
    )
    by_step = linking.plan_bindings(program, None).slots
    slots = [slot for own in by_step.values() for slot in own]
    assert slots and all(type(slot) is linking.Slot for slot in slots)
    assert all(slot.step == index for index, own in by_step.items() for slot in own)
    assert set(sqlgen._RULES) == set(qdmr2sql.OpKind)
    for gone in ("_Binder", "_map_step", "step_slots", "StepSlots"):
        assert not hasattr(sqlgen, gone)


def test_a_columns_lookup_is_read_once_at_introspection():
    """How a literal is looked up in a column is recorded once, on the
    column: the value index neither classifies declared types nor reads
    the schema a second time, and builds its maps when constructed."""
    executor = importlib.import_module("qdmr2sql.executor")
    schema = importlib.import_module("qdmr2sql.schema")
    names = [f.name for f in dataclasses.fields(schema.ColumnRef)]
    assert "lookup" in names and "value_kind" not in names
    for gone in ("_value_kind", "_text_affinity"):
        assert not hasattr(schema, gone)
    for gone in ("_comparable_columns", "_build"):
        assert not hasattr(schema.ValueIndex, gone)
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (name TEXT)")
        index = schema.ValueIndex(executor.Database(conn), schema.load_schema(conn))
        assert not hasattr(index, "_schema")
    finally:
        conn.close()


def test_an_example_is_planned_once():
    """Every rewrite maps under its example's one plan, and the search loop
    builds each candidate itself: no generator yields errors for queries."""
    search = importlib.import_module("qdmr2sql.search")
    assert not hasattr(search, "_candidates")


def test_the_schema_graph_is_whole_when_built():
    """A schema graph takes its foreign keys when constructed and builds
    its adjacency once; no caller rebuilds it or assigns keys later."""
    schema = importlib.import_module("qdmr2sql.schema")
    assert not hasattr(schema.SchemaGraph, "table_adjacency")
    graph = schema.load_schema({
        "tables": {"a": {"id": "INTEGER"}, "b": {"a_id": "INTEGER"}},
        "foreign_keys": {"b.a_id": "a.id"},
    })
    assert isinstance(graph.fks, tuple)
    assert [n for n, _ in graph.adjacency["a"]] == ["b"]
    assert [n for n, _ in graph.adjacency["b"]] == ["a"]


def test_a_cell_has_one_canonical_form():
    """A denotation stores each cell as the comparison reads it, and a
    cell's kind is its type: no raw form, separate canonical set or kind
    string rides along."""
    executor = importlib.import_module("qdmr2sql.executor")
    for gone in ("_cell", "cell_kind"):
        assert not hasattr(executor, gone)
    assert not hasattr(executor.Denotation, "_canonical")
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (b BLOB, i INTEGER, j, s TEXT, n)")
        conn.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", (b"x ", 1, 5, "a  ", None))
        want = (("x", 1.0, 5.0, "a", None),)
        target = executor.answer_denotation([["x", 1, 5, "a", None]])
        read = executor.Database(conn).execute("SELECT * FROM t", target)
        built = executor.Denotation.from_rows(conn.execute("SELECT * FROM t"))
        for result in (read, built):
            assert result.rows == want
            assert result.kinds == {(str, float, float, str, type(None))}
    finally:
        conn.close()


def test_one_module_runs_statements():
    """A ``Database`` runs every statement a session issues, and only the
    executor tells a statement its deadline interrupted from an engine
    error: the schema keeps no copy of that test, the search imports no
    ``sqlite3``, and no second row reader or per-decomposition family of
    shared functions is left."""
    executor = importlib.import_module("qdmr2sql.executor")
    schema = importlib.import_module("qdmr2sql.schema")
    search = importlib.import_module("qdmr2sql.search")
    assert "interrupted" not in schema.__all__
    for gone in ("interrupted", "_PROGRESS_GRANULARITY"):
        assert not hasattr(schema, gone)
    assert not hasattr(executor.Database, "execute_row")
    assert not hasattr(search, "_family")
    assert not hasattr(search, "sqlite3")


def _starts_a_statement(node) -> bool:
    """Whether a string or f-string literal begins with SELECT or WITH."""
    if isinstance(node, ast.JoinedStr):
        node = node.values[0] if node.values else None
    return (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
        and re.match(r"\s*(SELECT|WITH)\b", node.value, re.IGNORECASE) is not None
    )


def test_search_writes_no_sql():
    """``sqlgen`` writes each statement the search runs, the shared
    aggregate statements and tie probes among them, and ``executor`` the
    census: no string in ``search.py`` but a docstring starts a statement,
    and the helpers that wrote or laid them out there are gone."""
    tree = ast.parse((PACKAGE / "search.py").read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    statements = [
        ast.unparse(node) for node in ast.walk(tree)
        if id(node) not in docstrings and _starts_a_statement(node)
    ]
    assert not statements
    search = importlib.import_module("qdmr2sql.search")
    sqlgen = importlib.import_module("qdmr2sql.sqlgen")
    for gone in ("_SHARED_FNS", "_shared_column", "_queries", "sqlgen", "TYPEOF_KINDS"):
        assert not hasattr(search, gone), gone
    assert not hasattr(sqlgen, "render_aggregates")
