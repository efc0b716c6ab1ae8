"""Count the mapping work of the benchmark workloads.

For each workload of ``perfbench/workloads.py`` this builds the inputs at
one seed in a temporary directory and runs ``run_corpus`` on them once,
with the package under ``--src``.  It wraps, in this process alone,
``search.synthesize`` and each rule of ``sqlgen._RULES``, and prints one
line per workload:

- ``calls``: the ``synthesize`` calls the search made;
- ``steps``: the steps built, that is the rule calls, then the same by
  operator kind;
- ``hits``: the calls that ran no rule, their program taken from the
  pattern memo (``sqlgen.StepMemo.patterns``), a failure included;
- ``decided``: the hits that returned no query, whose tries were decided
  by kind before their tree was built.

A package without a pattern memo reads 0 hits and 0 decided.  To count a
change and its parent commit:

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    python3 tools/mapping_work.py --src /tmp/parent/src
    python3 tools/mapping_work.py

Standard library only.  Usage:

    python3 tools/mapping_work.py [--src DIR] [--seed N] [--workload NAME]
"""

from __future__ import annotations

import argparse
import importlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def count(workloads, name: str, seed: int, work: Path) -> dict:
    """Build workload ``name`` in ``work``, run the corpus once, and count
    its mapping work; the wrappers are removed before this returns."""
    corpus = importlib.import_module("qdmr2sql.corpus")
    linking = importlib.import_module("qdmr2sql.linking")
    search = importlib.import_module("qdmr2sql.search")
    sqlgen = importlib.import_module("qdmr2sql.sqlgen")
    workload = workloads.GENERATORS[name](REPO, work, seed)
    lexicon = linking.EmbeddingLexicon.load(workload.lexicon)
    examples, rejects = corpus.load_examples(workload.corpus)
    if rejects:
        raise RuntimeError(f"{name}: {len(rejects)} corpus lines were rejected")

    steps: Counter = Counter()
    counts = Counter()
    rules = dict(sqlgen._RULES)
    real_synthesize = search.synthesize

    def counted_rule(kind, rule):
        def run(step, ctx):
            steps[kind.name] += 1
            return rule(step, ctx)
        return run

    def counted_synthesize(*args, **kwargs):
        counts["calls"] += 1
        before = sum(steps.values())
        failed = True
        try:
            query = real_synthesize(*args, **kwargs)
            failed = False
        finally:
            if sum(steps.values()) == before:
                counts["hits"] += 1
                counts["decided"] += not failed and query is None
        return query

    sqlgen._RULES.update({kind: counted_rule(kind, rule) for kind, rule in rules.items()})
    search.synthesize = counted_synthesize
    try:
        corpus.run_corpus(
            examples, workload.db_dir, config=search.SynthesisConfig(), lexicon=lexicon,
        )
    finally:
        sqlgen._RULES.update(rules)
        search.synthesize = real_synthesize
    return {"calls": counts["calls"], "steps": sum(steps.values()), "hits": counts["hits"],
            "decided": counts["decided"], "by_kind": dict(sorted(steps.items()))}


def line(name: str, counts: dict) -> str:
    kinds = " ".join(f"{kind}:{n}" for kind, n in counts["by_kind"].items())
    return (f"{name}\tcalls {counts['calls']}\tsteps {counts['steps']}\t{kinds}"
            f"\thits {counts['hits']}\tdecided {counts['decided']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=REPO / "src",
                   help="directory holding the qdmr2sql package (default: %(default)s)")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--workload", action="append", default=None,
                   help="a workload to count (repeatable; default: all)")
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
    for name in args.workload or sorted(workloads.GENERATORS):
        with tempfile.TemporaryDirectory(prefix="qdmr2sql-mapping-") as tmp:
            print(line(name, count(workloads, name, args.seed, Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
