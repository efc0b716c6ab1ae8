"""Measure what loading a large word-vector file costs.

Writes a seeded GloVe-shaped file into a temporary directory: ``--words``
lines of a distinct lowercase word and ``--dim`` values with five decimals,
separated by single spaces.  It then loads the file through
``qdmr2sql.linking.EmbeddingLexicon.load`` and prints, one tab-separated
line each, the seconds the load took, how far it raised the process's peak
resident set size, and that rise per vector component (words times dim).
The rise covers what the lexicon keeps and what the load held for a while;
it reads 0 until the load needs more than the process's earlier peak, so
measure on a file of tens of MB, such as the default.

With ``--max-bytes-per-component B`` it exits 1 when the rise per
component is above ``B``.

Standard library only.  Usage:

    python3 tools/lexicon_load.py [--words N] [--dim D] [--seed S]
        [--max-bytes-per-component B] [--src DIR]
"""

from __future__ import annotations

import argparse
import importlib
import random
import resource
import string
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def peak_rss_bytes() -> int:
    """The process's peak resident set size so far, in bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024  # bytes or KiB


def write_vectors(path: Path, words: int, dim: int, seed: int) -> None:
    """Write ``words`` lines of a word and ``dim`` values drawn from ``seed``.

    The values are drawn from a pool of 4096 normal deviates, which keeps
    writing a large file quick."""
    rng = random.Random(seed)
    pool = [f"{rng.gauss(0.0, 0.4):.5f}" for _ in range(4096)]
    seen = set()
    with open(path, "w", encoding="utf-8") as fh:
        while len(seen) < words:
            word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 12)))
            if word in seen:
                continue
            seen.add(word)
            fh.write(f"{word} {' '.join(rng.choices(pool, k=dim))}\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--words", type=int, default=20_000)
    p.add_argument("--dim", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-bytes-per-component", type=float, default=None,
                   help="exit 1 when the peak RSS rise per component is above this")
    p.add_argument("--src", type=Path, default=REPO / "src",
                   help="directory holding the qdmr2sql package (default: %(default)s)")
    args = p.parse_args(argv)
    if args.words < 1 or args.dim < 1:
        p.error("--words and --dim must be at least 1")

    sys.dont_write_bytecode = True  # leave --src as it is
    sys.path.insert(0, str(args.src.resolve()))
    linking = importlib.import_module("qdmr2sql.linking")

    with tempfile.TemporaryDirectory(prefix="qdmr2sql-lexicon-") as tmp:
        path = Path(tmp) / "vectors.txt"
        write_vectors(path, args.words, args.dim, args.seed)
        before = peak_rss_bytes()
        start = time.perf_counter()
        linking.EmbeddingLexicon.load(path)
        seconds = time.perf_counter() - start
        rise = peak_rss_bytes() - before
    per_component = rise / (args.words * args.dim)
    print(f"load_s\t{seconds:.3f}\t{args.words} words of width {args.dim}")
    print(f"peak_rss_rise_mb\t{rise / 2**20:.1f}")
    print(f"bytes_per_component\t{per_component:.1f}")
    limit = args.max_bytes_per_component
    if limit is not None and per_component > limit:
        print(f"above the limit of {limit:g} bytes per component", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
