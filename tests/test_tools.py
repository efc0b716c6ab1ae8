"""The command-line tools under ``tools/``, loaded from their files."""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

from qdmr2sql.qdmr import OpKind

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SHIP = ("scaled_ship\tfound 8/16\ttried 2680\tstatements {}"
         "\tstatuses Exhausted:8 Found:8\tsha256 {}")
_FIXTURE = ("fixture\tfound 920/1080\ttried 4840\tstatements 4338"
            "\tstatuses Exhausted:120 Found:920 MappingFailed:40\tsha256 3e4c")


class TestAgree:
    """``output_digests.agree`` names each field that differs, with both
    values, the other run's first, so a change of statements alone reads
    as one."""

    def test_equal_lines_agree(self, capsys):
        digests = _tool("output_digests")
        lines = [_FIXTURE, _SHIP.format(488, "23c0")]
        assert digests.agree(lines, list(reversed(lines)), "--expect f") == 0
        out, err = capsys.readouterr()
        assert out == "all workloads agree with --expect f\n" and not err

    def test_each_differing_field_named_with_both_values(self, capsys):
        digests = _tool("output_digests")
        ours = [_FIXTURE, _SHIP.format(372, "23c0"), "wide_schema\tfound 6/12"]
        theirs = [_FIXTURE, _SHIP.format(488, "23c0"), "wide_schema\tfound 5/12"]
        assert digests.agree(ours, theirs, "--against p") == 1
        out, err = capsys.readouterr()
        assert not out
        assert err.splitlines() == [
            "differs from --against p (its value first):",
            "  scaled_ship: statements 488 != 372",
            "  wide_schema: found 5/12 != 6/12",
        ]

    def test_outputs_and_missing_fields_and_workloads(self, capsys):
        digests = _tool("output_digests")
        ours = [_SHIP.format(372, "aaaa"), "new\tfound 1/1"]
        theirs = [_FIXTURE, _SHIP.format(488, "bbbb").replace("\ttried 2680", "")]
        assert digests.agree(ours, theirs, "--expect f") == 1
        assert capsys.readouterr().err.splitlines() == [
            "differs from --expect f (its value first):",
            "  fixture: only in --expect f",
            "  new: only in this run",
            "  scaled_ship: statements 488 != 372",
            "  scaled_ship: sha256 bbbb != aaaa",
            "  scaled_ship: tried (none) != 2680",
        ]


def _workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = TOOLS.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestMappingWork:
    """``mapping_work.count`` counts the calls, steps built, pattern hits
    and tries decided before their tree was built of one workload pass."""

    def test_fixture_with_and_without_patterns(self, tmp_path, monkeypatch):
        work, workloads = _tool("mapping_work"), _workloads(monkeypatch)
        search = importlib.import_module("qdmr2sql.search")
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        with_patterns = work.count(workloads, "fixture", 11, first)
        monkeypatch.setattr(search, "_PATTERN_STEPS", math.inf)
        without = work.count(workloads, "fixture", 11, second)
        # The memos change what is built, never which tries are mapped.
        assert with_patterns["calls"] == without["calls"] == 3120
        assert (without["hits"], without["decided"]) == (0, 0)
        assert 0 < with_patterns["hits"] < with_patterns["calls"]
        assert 0 <= with_patterns["decided"] <= with_patterns["hits"]
        assert with_patterns["steps"] < without["steps"]
        for counts in (with_patterns, without):
            assert counts["steps"] == sum(counts["by_kind"].values())
            assert set(counts["by_kind"]) <= {kind.name for kind in OpKind}
        line = work.line("fixture", with_patterns)
        assert line.startswith("fixture\tcalls 3120\tsteps ")
        assert line.endswith(f"\thits {with_patterns['hits']}\tdecided {with_patterns['decided']}")
