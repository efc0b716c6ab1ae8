"""The command-line tools under ``tools/``, loaded from their files."""

import importlib.util
from pathlib import Path

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
