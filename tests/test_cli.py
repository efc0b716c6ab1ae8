"""CLI behavior: the four subcommands and the exit-code contract.

Everything runs in-process through main(argv); 0 success, 1 usage,
2 input validation, 3 internal error.
"""

import json
import sqlite3

import pytest

import qdmr2sql.cli
import qdmr2sql.schema
from conftest import DATA_DIR
from qdmr2sql.cli import main

CORPUS = DATA_DIR / "corpus.jsonl"
EMBEDDINGS = DATA_DIR / "mini_glove.txt"


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

    def test_missing_examples_file(self, db_dir, tmp_path, capsys):
        code = main(
            ["synth", "--examples", str(tmp_path / "none.jsonl"),
             "--db-dir", str(db_dir), "--embeddings", str(EMBEDDINGS),
             "--out-pairs", str(tmp_path / "p.jsonl"),
             "--out-report", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_report_is_internal(self, db_dir, tmp_path, capsys):
        code = main(
            ["synth"]
            + batch_args(db_dir)
            + ["--out-pairs", str(tmp_path / "p.jsonl"),
               "--out-report", str(tmp_path / "no" / "dir" / "r.json")]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("internal error:")


class TestInvalidConfigFlags:
    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--top-k", "top_k must be at least 1"),
            ("--max-assignments", "max_assignments must be at least 1"),
            ("--timeout-secs", "per_example_timeout must be positive"),
            ("--jobs", "jobs must be at least 1"),
        ],
    )
    @pytest.mark.parametrize("command", ["synth", "coverage"])
    def test_usage_error_before_any_work(
        self, db_dir, tmp_path, capsys, command, flag, message
    ):
        outputs = {
            "synth": ["--out-pairs", str(tmp_path / "p.jsonl"),
                      "--out-report", str(tmp_path / "r.json")],
            "coverage": ["--out", str(tmp_path / "r.json")],
        }
        argv = [command] + batch_args(db_dir, **{flag: "0"}) + outputs[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"qdmr2sql {command}: error: {message}\n"
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
        code = main(["map", "--qdmr", "return #3", "--schema", str(ship_death_db)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_assignment_json(self, ship_death_db, capsys):
        code = main(
            ["map", "--qdmr", "return ships", "--schema", str(ship_death_db),
             "--assignment", "{not json"]
        )
        assert code == 2
        assert "--assignment" in capsys.readouterr().err


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
    hold dots: each split is tried against the schema."""

    @pytest.fixture()
    def dotted_db(self, tmp_path):
        path = tmp_path / "dotted.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            'CREATE TABLE "a.b" (c TEXT);'
            'CREATE TABLE a ("b.c" TEXT, d TEXT);'
            'CREATE TABLE "x.y" (z TEXT);'
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

        monkeypatch.setattr(qdmr2sql.cli, "open_readonly", recording)
        monkeypatch.setattr(qdmr2sql.schema, "open_readonly", recording)
        assert main(argv + ["--schema", str(ship_death_db)]) == 0
        assert opened
        for conn in opened:
            with pytest.raises(sqlite3.ProgrammingError):
                conn.execute("SELECT 1")
