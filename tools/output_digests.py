"""Digest the output files of the benchmark workloads.

For each workload of ``perfbench/workloads.py`` this builds the inputs at
one seed in a temporary directory, runs ``run_corpus`` on them with the
package under ``--src``, and writes the pairs, failures and report files
as ``perfbench/worker.py`` does.  It prints one line per workload: the
number of examples found, the candidates tried summed over the examples,
the SQLite statements run on the connections ``Database.open`` returned
(counted by a trace callback on each), the number of examples of each
status, and the SHA-256 of the three files together.  The output files do
not hold a Found example's candidate count, so the sum shows a change in
tries that the files would not, and the statement count shows a
statement added or lost that changes no try.  Two versions of the
package whose lines agree wrote byte-identical files, tried as many
candidates and ran as many statements for the same inputs; the inputs
always come from this checkout.

With ``--against DIR`` the tool runs itself again in a subprocess with
``--src DIR`` and the same ``--seed``, prints that run's lines too,
and exits 1 naming each field that differs, with that run's value first
(``scaled_ship: statements 488 != 373``), and each workload only one
run has (0 when all agree).  To check a change against its parent commit:

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    python3 tools/output_digests.py --against /tmp/parent/src

With ``--expect FILE`` it compares its lines with those in ``FILE``,
as an earlier run printed them, and exits 1 naming what differs as
``--against`` does, the file's value first.  ``tools/digests.seed11.tsv``
and ``tools/digests.seed7.tsv`` hold this checkout's lines at seeds 11
and 7; a change that alters outputs, tries or statements on purpose
rewrites both:

    python3 tools/output_digests.py --expect tools/digests.seed11.tsv
    python3 tools/output_digests.py > tools/digests.seed11.tsv
    python3 tools/output_digests.py --seed 7 > tools/digests.seed7.tsv

Standard library only.  Usage:

    python3 tools/output_digests.py [--src DIR] [--seed N] [--against DIR]
                                    [--expect FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
OUTPUTS = ("pairs.jsonl", "pairs.failures.jsonl", "report.json")


def digest(out_dir: Path) -> str:
    """The SHA-256 of the output files, each preceded by its name."""
    h = hashlib.sha256()
    for name in OUTPUTS:
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def run_workload(workloads, name: str, seed: int, work: Path) -> str:
    """Build workload ``name``, run the corpus on it, and describe the files."""
    corpus = importlib.import_module("qdmr2sql.corpus")
    executor = importlib.import_module("qdmr2sql.executor")
    linking = importlib.import_module("qdmr2sql.linking")
    search = importlib.import_module("qdmr2sql.search")
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir()
    out.mkdir()
    workload = workloads.GENERATORS[name](REPO, inputs, seed)
    lexicon = linking.EmbeddingLexicon.load(workload.lexicon)
    examples, rejects = corpus.load_examples(workload.corpus)
    if rejects:
        raise RuntimeError(f"{name}: {len(rejects)} corpus lines were rejected")
    statements = []
    real_open, saved = executor.Database.open, vars(executor.Database)["open"]

    def open_traced(path):
        database = real_open(path)
        database.conn.set_trace_callback(statements.append)
        return database

    executor.Database.open = staticmethod(open_traced)
    try:
        outcomes, report = corpus.run_corpus(
            examples, workload.db_dir, config=search.SynthesisConfig(), lexicon=lexicon,
        )
    finally:
        executor.Database.open = saved
    corpus.emit_training_pairs(examples, outcomes, out / "pairs.jsonl")
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    found = sum(o.status is search.SearchStatus.FOUND for o in outcomes)
    tried = sum(o.candidates_tried for o in outcomes)
    statuses = Counter(o.status.value for o in outcomes)
    histogram = " ".join(f"{status}:{n}" for status, n in sorted(statuses.items()))
    return (f"{name}\tfound {found}/{len(examples)}\ttried {tried}"
            f"\tstatements {len(statements)}\tstatuses {histogram}\tsha256 {digest(out)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=REPO / "src",
                   help="directory holding the qdmr2sql package (default: %(default)s)")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--against", type=Path, default=None,
                   help="a second package directory whose lines must agree")
    p.add_argument("--expect", type=argparse.FileType("r"), default=None,
                   help="a file of lines, as this tool prints them, that must agree")
    args = p.parse_args(argv)

    sys.dont_write_bytecode = True  # leave perfbench/ and --src as they are
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(REPO / "perfbench"))
    package = importlib.import_module("qdmr2sql")
    if not Path(package.__file__).resolve().is_relative_to(src):
        print(f"error: qdmr2sql was imported from {package.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workloads = importlib.import_module("workloads")
    lines = []
    for name in sorted(workloads.GENERATORS):
        with tempfile.TemporaryDirectory(prefix="qdmr2sql-digests-") as tmp:
            lines.append(run_workload(workloads, name, args.seed, Path(tmp)))
        print(lines[-1], flush=True)
    status = 0
    if args.expect is not None:
        expected = args.expect.read().splitlines()
        status = agree(lines, expected, f"--expect {args.expect.name}")
    if args.against is not None:
        status = compare(lines, args) or status
    return status


def _fields(line: str) -> dict:
    """A line's fields after the workload name, each as ``name: value``."""
    return dict(field.partition(" ")[::2] for field in line.split("\t")[1:])


def agree(lines, theirs, what: str) -> int:
    """0 when ``lines`` and ``theirs`` hold the same line for each workload;
    else 1, after naming each workload that only one of them has and each
    field that differs, as ``workload: field theirs != ours``."""
    ours = {line.split("\t", 1)[0]: line for line in lines}
    theirs = {line.split("\t", 1)[0]: line for line in theirs}
    differ = []
    for name in sorted(ours.keys() | theirs.keys()):
        if name not in ours or name not in theirs:
            differ.append(f"{name}: only in {what if name in theirs else 'this run'}")
            continue
        mine, other = _fields(ours[name]), _fields(theirs[name])
        differ += [
            f"{name}: {field} {other.get(field, '(none)')} != {mine.get(field, '(none)')}"
            for field in dict.fromkeys([*other, *mine])
            if other.get(field) != mine.get(field)
        ]
    if differ:
        print(f"differs from {what} (its value first):", file=sys.stderr)
        for line in differ:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"all workloads agree with {what}")
    return 0


def compare(lines, args) -> int:
    """Run this tool on ``--against`` and name the workloads that differ."""
    other = subprocess.run(
        [sys.executable, __file__, "--src", str(args.against),
         "--seed", str(args.seed)],
        capture_output=True, text=True,
    )
    print(f"--against {args.against}:")
    print(other.stdout, end="")
    if other.returncode:
        print(other.stderr, end="", file=sys.stderr)
        return other.returncode
    return agree(lines, other.stdout.splitlines(), f"--against {args.against}")


if __name__ == "__main__":
    sys.exit(main())
