"""CLI behavior: the four subcommands and the exit-code contract.

Everything runs in-process through main(argv); 0 success, 1 usage,
2 input validation, 3 internal error.
"""

import json
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qdmr2sql.cli
import qdmr2sql.corpus
import qdmr2sql.executor
import qdmr2sql.schema
from conftest import DATA_DIR
from qdmr2sql.cli import main

CORPUS = DATA_DIR / "corpus.jsonl"
EMBEDDINGS = DATA_DIR / "mini_glove.txt"
# Valid JSON whose decomposition holds a lone surrogate, which no SQL text
# can carry to SQLite.
SURROGATE_LINE = (
    '{"id": "sur", "question": "q", "db_id": "ship_death", "answer": 1, '
    '"qdmr": "return ships; return #1 where tonnage is more than \\ud800"}'
)
# A chain of 1000 projections, whose query nests deeper than Python can
# render it; SQLite's parser already refuses a chain of 20.
DEEP_QDMR = "; ".join(
    ["return ships"]
    + [f"return the {('name', 'tonnage')[i % 2]} of #{i}" for i in range(1, 1000)]
)


def batch_args(db_dir, **extra):
    args = {
        "--examples": str(CORPUS),
        "--db-dir": str(db_dir),
        "--embeddings": str(EMBEDDINGS),
    }
    args.update(extra)
    return [x for pair in args.items() for x in pair]


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["synth", "--examples", "x.jsonl"]) == 1
        err = capsys.readouterr().err
        assert "--db-dir" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out


class TestSynth:
    def test_full_pipeline(self, db_dir, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        report = tmp_path / "report.json"
        code = main(
            ["synth"]
            + batch_args(db_dir)
            + ["--out-pairs", str(pairs), "--out-report", str(report)]
        )
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line == (
            f"synthesized 23/27 examples (85.2%), 0 rejected; pairs -> {pairs}"
        )

        assert len(pairs.read_text().splitlines()) == 23
        failures = tmp_path / "pairs.failures.jsonl"
        assert len(failures.read_text().splitlines()) == 4
        # No rejects, so no rejects file.
        assert not (tmp_path / "pairs.rejects.jsonl").exists()

        doc = json.loads(report.read_text())
        assert doc["total"]["synthesized"] == 23
        assert doc["total"]["coverage"] == 85.2

    def test_rejected_lines_get_their_own_file(self, db_dir, tmp_path, capsys):
        corpus = tmp_path / "tiny.jsonl"
        corpus.write_text(
            '{"id": "ok", "dataset": "d", "db_id": "products", '
            '"question": "how many kinds?", '
            '"qdmr": "return product types; return the number of #1", '
            '"answer": 3}\n'
            "this line is garbage\n"
        )
        pairs = tmp_path / "out.jsonl"
        report = tmp_path / "report.json"
        code = main(
            ["synth", "--examples", str(corpus), "--db-dir", str(db_dir),
             "--embeddings", str(EMBEDDINGS),
             "--out-pairs", str(pairs), "--out-report", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "synthesized 1/1 examples (100.0%), 1 rejected" in out
        rejects = [
            json.loads(l)
            for l in (tmp_path / "out.rejects.jsonl").read_text().splitlines()
        ]
        assert rejects[0]["line"] == 2

    # Answers with no canonical cell or one that no cell matches, and JSON
    # that Python will not read.
    BAD_ANSWERS = {
        "overflow": "[" + "9" * 400 + "]",
        "too_many_digits": "1" * 5000,
        "deep_nesting": "[" * 100_000,
        "nan": "[1, NaN]",
    }

    def _synth_lines(self, db_dir, tmp_path, lines):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(line + "\n" for line in lines))
        pairs = tmp_path / "out.jsonl"
        return main(
            ["synth", "--examples", str(corpus), "--db-dir", str(db_dir),
             "--embeddings", str(EMBEDDINGS),
             "--out-pairs", str(pairs), "--out-report", str(tmp_path / "r.json")]
        )

    @staticmethod
    def _line(id_, answer):
        return (
            f'{{"id": "{id_}", "dataset": "d", "db_id": "products", '
            '"question": "how many kinds?", '
            '"qdmr": "return product types; return the number of #1", '
            f'"answer": {answer}}}'
        )

    @pytest.mark.parametrize("bad", sorted(BAD_ANSWERS))
    def test_bad_answer_alone_rejects_every_line(self, db_dir, tmp_path, capsys, bad):
        line = self._line("bad", self.BAD_ANSWERS[bad])
        assert self._synth_lines(db_dir, tmp_path, [line]) == 2
        assert "all 1 lines" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", sorted(BAD_ANSWERS))
    def test_bad_answer_next_to_a_valid_line(self, db_dir, tmp_path, capsys, bad):
        lines = [self._line("ok", 3), self._line("bad", self.BAD_ANSWERS[bad])]
        assert self._synth_lines(db_dir, tmp_path, lines) == 0
        out = capsys.readouterr().out
        assert "synthesized 1/1 examples (100.0%), 1 rejected" in out
        rejects = [
            json.loads(l)
            for l in (tmp_path / "out.rejects.jsonl").read_text().splitlines()
        ]
        assert [r["line"] for r in rejects] == [2]
        if bad == "overflow":
            assert rejects[0]["reason"] == "answer number too large for a float"
        elif bad == "nan":
            assert rejects[0]["reason"] == "answer cell NaN matches no cell"
        else:
            assert rejects[0]["reason"].startswith("invalid JSON: ")

    def test_lone_surrogate_rejects_only_its_line(self, db_dir, tmp_path, capsys):
        lines = [SURROGATE_LINE, self._line("ok", 3)]
        assert self._synth_lines(db_dir, tmp_path, lines) == 0
        out = capsys.readouterr().out
        assert "synthesized 1/1 examples (100.0%), 1 rejected" in out
        assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 1
        (reject,) = [
            json.loads(l)
            for l in (tmp_path / "out.rejects.jsonl").read_text().splitlines()
        ]
        assert (reject["line"], reject["id"]) == (1, "sur")

    def test_missing_examples_file(self, db_dir, tmp_path, capsys):
        code = main(
            ["synth", "--examples", str(tmp_path / "none.jsonl"),
             "--db-dir", str(db_dir), "--embeddings", str(EMBEDDINGS),
             "--out-pairs", str(tmp_path / "p.jsonl"),
             "--out-report", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")



class TestUnwritableOutputs:
    """An output file that cannot be written is an input problem: exit 2
    with the path, whichever file it is, before any example is searched."""

    @pytest.mark.parametrize("output", ["pairs", "report", "rejects", "coverage"])
    def test_exits_2_naming_the_file(
        self, db_dir, tmp_path, capsys, monkeypatch, output
    ):
        searched = []
        real_search = qdmr2sql.corpus.search

        def counting_search(example, session):
            searched.append(example.id)
            return real_search(example, session)

        monkeypatch.setattr(qdmr2sql.corpus, "search", counting_search)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(CORPUS.read_text() + "this line is garbage\n")
        unwritable = tmp_path / "no" / "dir" / "out.json"
        pairs, report = tmp_path / "pairs.jsonl", tmp_path / "report.json"
        if output == "pairs":
            pairs = unwritable
        elif output == "report":
            report = unwritable
        elif output == "rejects":
            unwritable = tmp_path / "pairs.rejects.jsonl"
            unwritable.mkdir()
        args = batch_args(db_dir, **{"--examples": str(corpus)})
        if output == "coverage":
            argv = ["coverage"] + args + ["--out", str(unwritable)]
        else:
            argv = ["synth"] + args + [
                "--out-pairs", str(pairs), "--out-report", str(report)
            ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {unwritable}: ")
        assert searched == []


class TestOutputClashes:
    """An output file that is an input file, the database of one of the
    examples, or another output file, is a usage error: exit 1 before any
    file is created or changed."""

    PAIRS = {"--out-pairs": "p.jsonl", "--out-report": "r.json"}

    @pytest.mark.parametrize(
        "command, examples, outputs, message",
        [
            ("synth", "in.jsonl", {**PAIRS, "--out-pairs": "in.jsonl"},
             "--out-pairs {}/in.jsonl is also --examples"),
            ("synth", "in.jsonl", {**PAIRS, "--out-pairs": "sub/../in.jsonl"},
             "--out-pairs {}/sub/../in.jsonl is also --examples"),
            ("synth", "in.jsonl", {**PAIRS, "--out-pairs": "link.jsonl"},
             "--out-pairs {}/link.jsonl is also --examples"),
            ("synth", "in.jsonl", {**PAIRS, "--out-report": "vectors.txt"},
             "--out-report {}/vectors.txt is also --embeddings"),
            ("synth", "in.failures.jsonl", {**PAIRS, "--out-pairs": "in.jsonl"},
             "the failures file of --out-pairs {}/in.failures.jsonl is also --examples"),
            ("synth", "in.rejects.jsonl", {**PAIRS, "--out-pairs": "in.jsonl"},
             "the rejects file of --out-pairs {}/in.rejects.jsonl is also --examples"),
            ("synth", "in.jsonl", {**PAIRS, "--out-report": "p.jsonl"},
             "--out-report {}/p.jsonl is also --out-pairs"),
            ("synth", "in.jsonl", {**PAIRS, "--out-report": "p.failures.jsonl"},
             "--out-report {}/p.failures.jsonl is also the failures file of --out-pairs"),
            ("synth", "in.jsonl", {**PAIRS, "--out-report": "p.rejects.jsonl"},
             "the rejects file of --out-pairs {}/p.rejects.jsonl is also --out-report"),
            ("coverage", "in.jsonl", {"--out": "in.jsonl"},
             "--out {}/in.jsonl is also --examples"),
            ("coverage", "in.jsonl", {"--out": "vectors.txt"},
             "--out {}/vectors.txt is also --embeddings"),
            ("synth", "in.jsonl", {**PAIRS, "--out-report": "ship_death.sqlite"},
             "--out-report {}/ship_death.sqlite is also the database of db_id 'ship_death'"),
            ("synth", "in.jsonl", {**PAIRS, "--out-pairs": "p.sqlite"},
             "the failures file of --out-pairs {}/p.failures.sqlite"
             " is also the database of db_id 'geo'"),
            ("coverage", "in.jsonl", {"--out": "academic.sqlite"},
             "--out {}/academic.sqlite is also the database of db_id 'academic'"),
        ],
    )
    def test_exits_1_before_any_file_is_written(
        self, db_dir, tmp_path, capsys, command, examples, outputs, message
    ):
        (tmp_path / "sub").mkdir()
        (tmp_path / examples).write_bytes(CORPUS.read_bytes())
        (tmp_path / "vectors.txt").write_bytes(EMBEDDINGS.read_bytes())
        (tmp_path / "link.jsonl").symlink_to(tmp_path / examples)
        # The databases, geo's reached through a link, so that the failures
        # file of --out-pairs p.sqlite is it.
        for db in db_dir.glob("*.sqlite"):
            (tmp_path / db.name).write_bytes(db.read_bytes())
        (tmp_path / "geo.sqlite").rename(tmp_path / "p.failures.sqlite")
        (tmp_path / "geo.sqlite").symlink_to(tmp_path / "p.failures.sqlite")
        argv = [command] + batch_args(tmp_path, **{
            "--examples": str(tmp_path / examples),
            "--embeddings": str(tmp_path / "vectors.txt"),
        }) + [x for flag, name in outputs.items() for x in (flag, str(tmp_path / name))]
        before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"qdmr2sql {command}: error: {message.format(tmp_path)}\n"
        )
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


class TestInvalidConfigFlags:
    @staticmethod
    def _outputs(tmp_path, command):
        return {
            "synth": ["--out-pairs", str(tmp_path / "p.jsonl"),
                      "--out-report", str(tmp_path / "r.json")],
            "coverage": ["--out", str(tmp_path / "r.json")],
        }[command]

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--top-k", "top_k must be at least 1"),
            ("--max-assignments", "max_assignments must be at least 1"),
            ("--timeout-secs", "per_example_timeout must be positive"),
        ],
    )
    @pytest.mark.parametrize("command", ["synth", "coverage"])
    def test_usage_error_before_any_work(
        self, db_dir, tmp_path, capsys, command, flag, message
    ):
        argv = (
            [command] + batch_args(db_dir, **{flag: "0"})
            + self._outputs(tmp_path, command)
        )
        assert main(argv) == 1
        assert capsys.readouterr().err == f"qdmr2sql {command}: error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["synth", "coverage"])
    def test_nan_timeout_is_a_usage_error(self, db_dir, tmp_path, capsys, command):
        # NaN passes a ``<= 0`` check and would switch the deadline off.
        argv = (
            [command] + batch_args(db_dir, **{"--timeout-secs": "nan"})
            + self._outputs(tmp_path, command)
        )
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"qdmr2sql {command}: error: per_example_timeout must be positive\n"
        )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["synth", "coverage"])
    def test_jobs_flag_is_unrecognized(self, db_dir, tmp_path, capsys, command):
        # Every corpus is searched serially; there is no ``--jobs``.
        argv = (
            [command] + batch_args(db_dir, **{"--jobs": "2"})
            + self._outputs(tmp_path, command)
        )
        assert main(argv) == 1
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestNulInPath:
    """A path argument holding a NUL byte, which no OS call accepts, is a
    usage error that names the argument, not an internal error."""

    OUTPUTS = {"synth": ["--out-pairs", "--out-report"], "coverage": ["--out"]}

    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command, outputs in OUTPUTS.items()
        for flag in ["--examples", "--db-dir", "--embeddings", *outputs]
    ])
    def test_exits_1_naming_the_argument(self, db_dir, tmp_path, capsys, command, flag):
        args = {
            "--examples": str(CORPUS),
            "--db-dir": str(db_dir),
            "--embeddings": str(EMBEDDINGS),
            "--out-pairs": str(tmp_path / "p.jsonl"),
            "--out-report": str(tmp_path / "r.json"),
            "--out": str(tmp_path / "r.json"),
        }
        args = {f: args[f] for f in ["--examples", "--db-dir", "--embeddings",
                                     *self.OUTPUTS[command]]}
        args[flag] = args[flag][:-1] + "\x00" + args[flag][-1:]
        argv = [command] + [x for pair in args.items() for x in pair]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qdmr2sql " + command)
        assert err.endswith(
            f"qdmr2sql {command}: error: argument {flag}: a path cannot hold a NUL byte\n"
        )
        assert not list(tmp_path.iterdir())


class TestCoverage:
    def test_report_only(self, db_dir, tmp_path, capsys):
        out = tmp_path / "cov.json"
        code = main(["coverage"] + batch_args(db_dir) + ["--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line == f"coverage 85.2% (23/27); report -> {out}"
        doc = json.loads(out.read_text())
        assert doc["non_empty"]["total"]["coverage"] == 88.5

    def test_matches_synth_report_byte_for_byte(self, db_dir, tmp_path):
        synth_report = tmp_path / "synth.json"
        cov_report = tmp_path / "cov.json"
        main(
            ["synth"]
            + batch_args(db_dir)
            + ["--out-pairs", str(tmp_path / "p.jsonl"),
               "--out-report", str(synth_report)]
        )
        main(["coverage"] + batch_args(db_dir) + ["--out", str(cov_report)])
        assert synth_report.read_bytes() == cov_report.read_bytes()


class TestMap:
    def test_prints_sql_without_executing(self, ship_death_db, capsys):
        code = main(
            ["map", "--qdmr", "return ships; return the name of #1",
             "--schema", str(ship_death_db)]
        )
        assert code == 0
        # Without embeddings the first assignment is lemma-tier order,
        # which puts death.caused_by_ship_id ahead of ship.id for "ships".
        assert capsys.readouterr().out == (
            "SELECT ship.name FROM ship, death "
            "WHERE death.caused_by_ship_id = ship.id "
            "AND death.caused_by_ship_id IN "
            "( SELECT death.caused_by_ship_id FROM death )\n"
        )

    def test_explicit_assignment(self, ship_death_db, capsys):
        assignment = json.dumps(
            {"1:ships": "ship.tonnage", "2:the name of": "ship.name"}
        )
        code = main(
            ["map", "--qdmr", "return ships; return the name of #1",
             "--schema", str(ship_death_db), "--assignment", assignment]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "SELECT ship.name FROM ship WHERE ship.tonnage IN "
            "( SELECT ship.tonnage FROM ship )\n"
        )

    def test_json_schema_source(self, tmp_path, capsys):
        doc = {
            "tables": {
                "ship": {
                    "id": "INTEGER",
                    "name": "TEXT",
                    "ship_type": "TEXT",
                    "tonnage": "INTEGER",
                }
            },
            "foreign_keys": {},
        }
        schema_file = tmp_path / "ship.json"
        schema_file.write_text(json.dumps(doc))
        code = main(["map", "--qdmr", "return ships", "--schema", str(schema_file)])
        assert code == 0
        assert capsys.readouterr().out == "SELECT ship.id FROM ship\n"

    def test_bad_decomposition(self, ship_death_db, capsys):
        # A dangling reference, and a chain whose query nests too deeply to render.
        for qdmr in ("return #3", DEEP_QDMR):
            code = main(["map", "--qdmr", qdmr, "--schema", str(ship_death_db)])
            assert code == 2
            assert capsys.readouterr().err.startswith("error:")

    def test_decomposition_that_is_not_utf8(self, ship_death_db, capsys):
        # A lone surrogate, as an undecodable command-line byte arrives.
        code = main(
            ["map", "--qdmr", "return ships where name is \udcff",
             "--schema", str(ship_death_db)]
        )
        assert code == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_unbound_intersect_head_is_reported(self, academic_db, capsys):
        # A head phrase left out of the assignment is not replaced by the
        # left operand's column.
        assignment = json.dumps({
            "1:papers": "publication.pid",
            "value:H. V. Jagadish": "author.name",
            "value:Yunyao Li": "author.name",
        })
        code = main(
            ["map", "--qdmr",
             "return papers; return #1 by H. V. Jagadish; "
             "return #1 by Yunyao Li; return titles in both #2 and #3",
             "--schema", str(academic_db), "--assignment", assignment]
        )
        assert code == 2
        assert "'titles'" in capsys.readouterr().err

    def test_unbound_literal_is_reported(self, academic_db, capsys):
        # The literal is in the database; only the assignment lacks it.
        code = main(
            ["map", "--qdmr", "return papers; return #1 by H. V. Jagadish",
             "--schema", str(academic_db),
             "--assignment", json.dumps({"1:papers": "publication.pid"})]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'H. V. Jagadish'" in err
        assert "no database value matches" not in err

    def test_bad_assignment_json(self, ship_death_db, capsys):
        code = main(
            ["map", "--qdmr", "return ships", "--schema", str(ship_death_db),
             "--assignment", "{not json"]
        )
        assert code == 2
        assert "--assignment" in capsys.readouterr().err

    def test_pairs_file_assignments_map_back_to_their_sql(self, db_dir, capsys):
        """The keys the pairs file writes are the keys ``--assignment``
        reads: mapping each golden pair's decomposition with its assignment
        prints its SQL.  ``map`` makes no repairs, so a pair that needed
        DISTINCT is skipped."""
        checked = 0
        for line in (DATA_DIR / "golden" / "pairs.jsonl").read_text().splitlines():
            pair = json.loads(line)
            if "distinct" in pair["heuristics"]:
                continue
            argv = [
                "map", "--qdmr", pair["qdmr"],
                "--schema", str(db_dir / f"{pair['db_id']}.sqlite"),
                "--assignment", json.dumps(pair["assignment"]),
            ]
            assert main(argv) == 0, pair["id"]
            assert capsys.readouterr().out == pair["sql"] + "\n", pair["id"]
            checked += 1
        assert checked == 23


class TestMalformedJsonSchema:
    @pytest.mark.parametrize(
        "doc, reason",
        [
            ({"tables": [{"t": {"a": "text"}}]}, "'tables' must be an object"),
            ({"tables": {"t": ["a"]}}, "columns of table t must be an object"),
            ({"tables": {"t": {"a": 5}}}, "type of t.a must be a string"),
            (
                {"tables": {"t": {"a": "text"}}, "foreign_keys": {"ta": "t.a"}},
                "column ta is not of the form table.column",
            ),
            ({"tables": {"\ud800": {"a": "text"}}}, "is not valid UTF-8"),
        ],
        ids=["tables_list", "columns_list", "type_number", "fk_no_dot", "surrogate"],
    )
    @pytest.mark.parametrize("command", ["map", "link"])
    def test_exits_2_with_the_reason(self, tmp_path, capsys, command, doc, reason):
        schema_file = tmp_path / "schema.json"
        schema_file.write_text(json.dumps(doc))
        argv = {
            "map": ["map", "--qdmr", "return a"],
            "link": ["link", "--phrase", "a", "--embeddings", str(EMBEDDINGS)],
        }[command]
        assert main(argv + ["--schema", str(schema_file)]) == 2
        assert reason in capsys.readouterr().err


class TestDottedNames:
    """``--assignment`` names a column ``table.column``, and either name may
    hold dots: a quoted spelling names one column, and otherwise each split
    is tried against the schema."""

    @pytest.fixture()
    def dotted_db(self, tmp_path):
        path = tmp_path / "dbs" / "dotted.sqlite"
        path.parent.mkdir()
        conn = sqlite3.connect(path)
        conn.executescript(
            'CREATE TABLE "a.b" (c TEXT);'
            'CREATE TABLE a ("b.c" TEXT, d TEXT);'
            'CREATE TABLE "x.y" (z TEXT);'
            'CREATE TABLE t ("order" TEXT);'
            "INSERT INTO \"a.b\" VALUES ('p'), ('q');"
            "INSERT INTO a VALUES ('r', NULL), ('s', NULL);"
            "INSERT INTO t VALUES ('u'), ('v');"
        )
        conn.close()
        return path

    def run_map(self, dotted_db, target):
        return main(
            ["map", "--qdmr", "return things", "--schema", str(dotted_db),
             "--assignment", json.dumps({"1:things": target})]
        )

    def test_the_one_split_that_resolves_is_used(self, dotted_db, capsys):
        assert self.run_map(dotted_db, "x.y.z") == 0
        assert capsys.readouterr().out == 'SELECT "x.y".z FROM "x.y"\n'

    def test_two_splits_that_resolve_are_ambiguous(self, dotted_db, capsys):
        assert self.run_map(dotted_db, "a.b.c") == 2
        assert capsys.readouterr().err == (
            'error: ambiguous column a.b.c: a."b.c" or "a.b".c\n'
        )

    def test_no_split_that_resolves_is_unknown(self, dotted_db, capsys):
        assert self.run_map(dotted_db, "a.b.d") == 2
        assert capsys.readouterr().err == "error: unknown column a.b.d\n"

    def test_a_quoted_spelling_names_one_column(self, dotted_db, capsys):
        assert self.run_map(dotted_db, '"A.B"."C"') == 0
        assert capsys.readouterr().out == 'SELECT "a.b".c FROM "a.b"\n'

    def test_pairs_file_spellings_map_back(self, dotted_db, tmp_path, capsys):
        """Each answer lies in one column: the two whose ``str`` spellings
        are both ``a.b.c``, and one named by a keyword.  The pairs file
        spells each so that ``map --assignment`` reads back that column."""
        answers = {"ab": ["p", "q"], "a": ["r", "s"], "t": ["u", "v"]}
        examples = tmp_path / "examples.jsonl"
        examples.write_text("".join(
            json.dumps({"id": key, "db_id": "dotted", "question": "?",
                        "qdmr": "return things", "answer": answer}) + "\n"
            for key, answer in answers.items()
        ))
        pairs = tmp_path / "pairs.jsonl"
        argv = ["synth", "--examples", str(examples),
                "--db-dir", str(dotted_db.parent),
                "--embeddings", str(EMBEDDINGS), "--out-pairs", str(pairs),
                "--out-report", str(tmp_path / "report.json")]
        assert main(argv) == 0
        capsys.readouterr()
        written = [json.loads(line) for line in pairs.read_text().splitlines()]
        assert {p["id"]: p["assignment"] for p in written} == {
            "ab": {"1:things": '"a.b".c'},
            "a": {"1:things": 'a."b.c"'},
            "t": {"1:things": 't."order"'},
        }
        for pair in written:
            argv = ["map", "--qdmr", pair["qdmr"], "--schema", str(dotted_db),
                    "--assignment", json.dumps(pair["assignment"])]
            assert main(argv) == 0, pair["id"]
            assert capsys.readouterr().out == pair["sql"] + "\n", pair["id"]


class TestLink:
    def test_ranked_candidates(self, ship_death_db, capsys):
        code = main(
            ["link", "--phrase", "ships", "--schema", str(ship_death_db),
             "--embeddings", str(EMBEDDINGS), "--top-k", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "0\ttier=2\tsim=0.8000\tship.id",
            "1\ttier=2\tsim=0.5954\tship.name",
            "2\ttier=2\tsim=0.5000\tship.ship_type",
        ]

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one_is_a_usage_error(self, ship_death_db, capsys, top_k):
        code = main(
            ["link", "--phrase", "ships", "--schema", str(ship_death_db),
             "--embeddings", str(EMBEDDINGS), "--top-k", top_k]
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qdmr2sql link: error: top_k must be at least 1\n"

    def test_missing_embeddings_file(self, ship_death_db, tmp_path, capsys):
        code = main(
            ["link", "--phrase", "ships", "--schema", str(ship_death_db),
             "--embeddings", str(tmp_path / "none.txt")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestConnections:
    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--qdmr", "return ships; return the name of #1"],
            ["link", "--phrase", "ships", "--embeddings", str(EMBEDDINGS)],
        ],
    )
    def test_database_is_closed(self, ship_death_db, monkeypatch, capsys, argv):
        opened = []
        real = qdmr2sql.schema.open_readonly

        def recording(path):
            conn = real(path)
            opened.append(conn)
            return conn

        monkeypatch.setattr(qdmr2sql.executor, "open_readonly", recording)
        monkeypatch.setattr(qdmr2sql.schema, "open_readonly", recording)
        assert main(argv + ["--schema", str(ship_death_db)]) == 0
        assert opened
        for conn in opened:
            with pytest.raises(sqlite3.ProgrammingError):
                conn.execute("SELECT 1")


def _add_unloadable_table(path):
    """Declare in the file at ``path`` a virtual table whose module no SQLite
    here has, as a file written where that module exists would hold it."""
    conn = sqlite3.connect(path)
    try:
        conn.execute("PRAGMA writable_schema = ON")
        conn.execute(
            "INSERT INTO sqlite_master (type, name, tbl_name, rootpage, sql) VALUES"
            " ('table', 'v', 'v', 0, 'CREATE VIRTUAL TABLE v USING nosuchmod(a)')"
        )
        conn.commit()
    finally:
        conn.close()


class TestTableOfAnUnknownModule:
    """A table the engine cannot describe is left out of the schema."""

    def test_map_reads_the_other_tables(self, tmp_path, capsys):
        path = tmp_path / "orders.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE orders (id INTEGER PRIMARY KEY, item TEXT);"
            "INSERT INTO orders VALUES (1, 'pen');"
        )
        conn.close()
        _add_unloadable_table(path)
        assert main(["map", "--qdmr", "return orders", "--schema", str(path)]) == 0
        assert capsys.readouterr().out == "SELECT orders.id FROM orders\n"

    def test_synth_outputs_are_unchanged(self, db_dir, tmp_path, capsys):
        odd_dir = tmp_path / "dbs"
        odd_dir.mkdir()
        for db in db_dir.glob("*.sqlite"):
            (odd_dir / db.name).write_bytes(db.read_bytes())
        _add_unloadable_table(odd_dir / "ship_death.sqlite")
        outputs = {}
        for name, dbs in (("plain", db_dir), ("odd", odd_dir)):
            pairs, report = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.json"
            argv = ["synth"] + batch_args(dbs) + [
                "--out-pairs", str(pairs), "--out-report", str(report)]
            assert main(argv) == 0
            assert "synthesized 23/27 examples" in capsys.readouterr().out
            failures = tmp_path / f"{name}.failures.jsonl"
            outputs[name] = [p.read_bytes() for p in (pairs, failures, report)]
        assert outputs["odd"] == outputs["plain"]


# --- drawn corpora: whatever the loader accepts, synth exits 0 or 2 --------

_NOUNS = [
    "ships", "names", "tonnage", "injuries", "states", "population", "rivers",
    "papers", "authors", "products", "types", "students", "majors", "schools",
]
_VALUES = ["Lettice", "texas", "PVLDB", "Food", "1e5", "800", "3.5", "O'Brien", ""]
_STEPS = [
    "return {n} of #{r}", "return the {n} of #{r}",
    "return #{r} where #{q} is more than {v}", "return #{r} where #{q} is {v}",
    "return #{r} with {n} {v}", "return #{r} in {v}", "return #{r} by {v}",
    "return the number of #{r}", "return the sum of #{r}",
    "return the average of #{r}", "return number of #{r} for each #{q}",
    "return #{r} where #{q} is highest", "return #{r} where #{q} is lowest",
    "return {n} with the largest #{r}", "return #{r} sorted by #{q}",
    "return #{r} and #{q}", "return #{r} or #{q}", "return #{r} besides #{q}",
    "return #{r} in both #{q} and #{r}", "return the difference of #{r} and #{q}",
]

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-(10**500), 10**500), st.floats(),
    st.text(max_size=6), st.sampled_from(["NaN", "\u2028", "a\u2029b", "Lettice"]),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)
# Raw JSON text, so that it may also be what json.dumps never writes.
_ODD_ANSWERS = st.one_of(
    st.builds(json.dumps, _JSON),
    st.sampled_from(["NaN", "-Infinity", "9" * 400, "1" * 5000, "[1, 2,", "[[]]"]),
    st.sampled_from([50, 5000, 100_000]).map(lambda n: "[" * n + "]" * n),
)
_DB_IDS = ["ship_death", "geo", "academic", "voting_record", "products", "university"]


def _mostly(draw, usual, other):
    """A draw from ``usual`` nine times in ten, else from ``other``."""
    return draw(other if draw(st.integers(0, 9)) == 0 else usual)


@st.composite
def _decomposition(draw):
    """Steps from a small grammar; now and then a step is noise or
    refers to a step that does not precede it."""
    steps = [f"return {draw(st.sampled_from(_NOUNS))}"]
    for i in range(1, draw(st.integers(1, 4))):
        ref = _mostly(draw, st.just(st.integers(1, i)), st.just(st.integers(0, i + 2)))
        step = draw(st.sampled_from(_STEPS)).format(
            n=draw(st.sampled_from(_NOUNS)), v=draw(st.sampled_from(_VALUES)),
            r=draw(ref), q=draw(ref),
        )
        noise = st.one_of(st.text(max_size=12), st.just("return #" + "1" * 5000))
        steps.append(_mostly(draw, st.just(step), noise))
    return "; ".join(steps)


@st.composite
def _corpus_line(draw):
    if draw(st.integers(0, 19)) == 0:
        return draw(st.text(max_size=20).filter(lambda t: "\n" not in t))
    fields = {
        "id": draw(st.one_of(st.text(max_size=4), st.integers())),
        "question": draw(st.text(max_size=10)),
        "qdmr": _mostly(draw, _decomposition(), _JSON),
        # An unknown db_id stops the whole run before any search.
        "db_id": _mostly(draw, st.sampled_from(_DB_IDS), _JSON),
    }
    parts = [
        f"{json.dumps(name)}: {json.dumps(value, ensure_ascii=draw(st.booleans()))}"
        for name, value in fields.items()
        if draw(st.integers(0, 29))  # now and then a field is missing
    ]
    if draw(st.integers(0, 29)):
        answer = _mostly(
            draw,
            st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4)).map(json.dumps),
            _ODD_ANSWERS,
        )
        parts.append(f'"answer": {answer}')
    return "{" + ", ".join(parts) + "}"


class TestDrawnCorpora:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(lines=st.lists(_corpus_line(), min_size=1, max_size=3))
    @example(lines=[SURROGATE_LINE])
    @example(lines=[
        json.dumps({"id": "deep", "question": "q", "db_id": "ship_death", "answer": 1,
                    "qdmr": DEEP_QDMR}),
        '{"id": "ok", "question": "q", "db_id": "ship_death", "answer": 6, '
        '"qdmr": "return ships; return the number of #1"}',
    ])
    def test_synth_never_exits_with_an_internal_error(self, db_dir, lines):
        with tempfile.TemporaryDirectory() as out:
            corpus = Path(out) / "corpus.jsonl"
            corpus.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            code = main(
                ["synth", "--examples", str(corpus), "--db-dir", str(db_dir),
                 "--embeddings", str(EMBEDDINGS), "--timeout-secs", "0.2",
                 "--out-pairs", str(Path(out) / "pairs.jsonl"),
                 "--out-report", str(Path(out) / "report.json")]
            )
        assert code in (0, 2)
