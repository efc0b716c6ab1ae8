"""Command-line entry points.

Four subcommands: ``synth`` runs the full pipeline (examples in, training
pairs and a coverage report out), ``coverage`` runs the same search but
writes only the report, ``map`` prints the SQL for one decomposition
without executing anything, and ``link`` prints the ranked column
candidates for one phrase.

Exit codes: 0 success, 1 usage error, 2 input validation failure,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .corpus import (
    CoverageReport,
    emit_training_pairs,
    load_examples,
    rejects_path,
    run_corpus,
    write_rejects,
)
from .errors import Qdmr2SqlError
from .linking import (
    Assignment,
    EmbeddingLexicon,
    enumerate_assignments,
    link_program,
    rank_columns,
)
from .qdmr import parse_qdmr
from .schema import ValueIndex, load_schema, open_readonly
from .search import SearchStatus, SynthesisConfig
from .sqlgen import render_sql, synthesize

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--top-k", type=int, default=20)
    sub.add_argument("--max-assignments", type=int, default=1000)
    sub.add_argument("--timeout-secs", type=float, default=60.0)
    sub.add_argument("--allow-empty", action="store_true")
    sub.add_argument("--jobs", type=int, default=1)


class _UsageError(Exception):
    """A flag value the command cannot run with: exit 1, before any work."""


def _config(args: argparse.Namespace) -> SynthesisConfig:
    if args.jobs < 1:
        raise _UsageError("jobs must be at least 1")
    try:
        return SynthesisConfig(
            top_k=args.top_k,
            max_assignments=args.max_assignments,
            per_example_timeout=args.timeout_secs,
            allow_empty_denotation=args.allow_empty,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdmr2sql", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command")

    synth = commands.add_parser(
        "synth", help="synthesize SQL for a corpus and emit training pairs"
    )
    synth.add_argument("--examples", required=True)
    synth.add_argument("--db-dir", required=True)
    synth.add_argument("--embeddings", required=True)
    _add_config_flags(synth)
    synth.add_argument("--out-pairs", required=True)
    synth.add_argument("--out-report", required=True)
    synth.set_defaults(func=_cmd_synth)

    coverage = commands.add_parser(
        "coverage", help="run synthesis and write only the coverage report"
    )
    coverage.add_argument("--examples", required=True)
    coverage.add_argument("--db-dir", required=True)
    coverage.add_argument("--embeddings", required=True)
    _add_config_flags(coverage)
    coverage.add_argument("--out", required=True)
    coverage.set_defaults(func=_cmd_coverage)

    map_cmd = commands.add_parser(
        "map", help="print the SQL for one decomposition without executing it"
    )
    map_cmd.add_argument("--qdmr", required=True)
    map_cmd.add_argument("--schema", required=True)
    map_cmd.add_argument("--assignment", default=None)
    map_cmd.set_defaults(func=_cmd_map)

    link = commands.add_parser(
        "link", help="print ranked column candidates for a phrase"
    )
    link.add_argument("--phrase", required=True)
    link.add_argument("--schema", required=True)
    link.add_argument("--embeddings", required=True)
    link.add_argument("--top-k", type=int, default=20)
    link.set_defaults(func=_cmd_link)

    return parser


def _run_batch(args: argparse.Namespace):
    config = _config(args)
    examples, rejects = load_examples(args.examples)
    lexicon = EmbeddingLexicon.load(args.embeddings)
    outcomes, report = run_corpus(
        examples, args.db_dir, config=config, jobs=args.jobs, lexicon=lexicon
    )
    return examples, rejects, outcomes, report


def _cmd_synth(args: argparse.Namespace) -> int:
    examples, rejects, outcomes, report = _run_batch(args)
    written = emit_training_pairs(examples, outcomes, args.out_pairs)
    if rejects:
        write_rejects(rejects, rejects_path(args.out_pairs))
    Path(args.out_report).write_text(report.to_json(), encoding="utf-8")
    found = sum(1 for o in outcomes if o.status is SearchStatus.FOUND)
    pct = CoverageReport.percent(found, len(examples))
    print(
        f"synthesized {written}/{len(examples)} examples ({pct}%), "
        f"{len(rejects)} rejected; pairs -> {args.out_pairs}"
    )
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    examples, rejects, outcomes, report = _run_batch(args)
    Path(args.out).write_text(report.to_json(), encoding="utf-8")
    found = sum(1 for o in outcomes if o.status is SearchStatus.FOUND)
    pct = CoverageReport.percent(found, len(examples))
    print(f"coverage {pct}% ({found}/{len(examples)}); report -> {args.out}")
    return 0


def _parse_assignment(doc_text: str, schema) -> Assignment:
    try:
        doc = json.loads(doc_text)
    except json.JSONDecodeError as exc:
        raise Qdmr2SqlError(f"--assignment is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise Qdmr2SqlError("--assignment must be a JSON object")
    choices = {}
    literal_choices = {}
    for key, target in doc.items():
        col = schema.resolve(str(target))
        slot, _, rest = key.partition(":")
        if slot == "value":
            literal_choices[rest] = col
        else:
            try:
                idx = int(slot)
            except ValueError as exc:
                raise Qdmr2SqlError(
                    f"assignment key {key!r} is neither 'step:phrase' nor 'value:literal'"
                ) from exc
            choices[(idx, rest)] = col
    return Assignment(choices=choices, literal_choices=literal_choices, ranks=())


def _cmd_map(args: argparse.Namespace) -> int:
    program = parse_qdmr(args.qdmr)
    if Path(args.schema).suffix.lower() == ".json":
        schema = load_schema(args.schema)
        plan, linkings = link_program(program, schema)
    else:
        # A database source also locates literals through a value index.
        conn = open_readonly(args.schema)
        try:
            schema = load_schema(conn)
            value_index = ValueIndex(conn, schema)
            plan, linkings = link_program(program, schema, None, value_index)
        finally:
            conn.close()
    if args.assignment is not None:
        assignment = _parse_assignment(args.assignment, schema)
    else:
        assignment = next(
            enumerate_assignments(linkings, plan.literal_candidates, limit=1),
            None,
        )
        if assignment is None:
            raise Qdmr2SqlError("no phrase assignment could be formed")
    query = synthesize(program, schema, assignment, plan)
    print(render_sql(query))
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    if args.top_k < 1:
        raise _UsageError("top_k must be at least 1")
    schema = load_schema(args.schema)
    lexicon = EmbeddingLexicon.load(args.embeddings)
    for cand in rank_columns(args.phrase, schema, lexicon, args.top_k):
        print(
            f"{cand.rank}\ttier={cand.tier}\tsim={cand.similarity:.4f}\t{cand.column}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except Qdmr2SqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
