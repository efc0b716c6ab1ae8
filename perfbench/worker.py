"""The process that runs only the program under test.

``run.py`` generates a workload, then starts this script on it; no data
generation happens here, so the process's peak RSS is the program's.  The
script drives the path of the ``synth`` subcommand: load the word vectors
and the corpus (set-up, repeated and timed on its own), then pass after
pass of ``run_corpus`` followed by writing the pairs and report files.
Before every set-up and every pass the package is imported afresh and the
corpus loaded again, so no state of one pass carries over to the next, as
none carries over between two ``synth`` processes.  After the timed
passes, whose peak RSS is reported, one ``--jobs 2`` pass checks that its
files equal those of ``--jobs 1``.  Results go to a JSON file that
``run.py`` checks and summarises.

Untraced passes carry only the completion probe of ``tracing.py``: a
timestamp per finished search, which gives the per-example wall times, and
samples of the host's speed (see ``hostspeed.py``).  In trace mode, rounds
of an untraced pass, a traced pass and an untraced ``--jobs 2`` pass repeat
until the time is up; the spans of the traced passes are written out at
the end.

Usage: python3 worker.py SPEC.json RESULT.json
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import resource
import sys
import time
import typing
from pathlib import Path

# Set-up runs at least this many times, and until this many seconds of
# wall time, the fresh imports included, have passed.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 2.0

# The first pass warms caches; its files are the ones the oracle checks,
# and its timings are not reported.
WARMUP = "warmup"


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ("pairs.jsonl", "pairs.failures.jsonl", "report.json"):
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


class Runner:
    """Set-up and corpus passes on one workload, the way ``synth`` runs them."""

    def __init__(self, spec: dict, host, tracing):
        self.spec = spec
        self.host = host
        self.tracing = tracing
        self.out_root = Path(spec["out_dir"])
        self.lexicon = None
        self.examples = None

    def reimport(self) -> None:
        """Drop every module of the package and import it again."""
        self.lexicon = self.examples = None
        for name in [n for n in sys.modules if n.split(".")[0] == "qdmr2sql"]:
            del sys.modules[name]
        # typing's caches of subscripted types (Union[...], Dict[...]) would
        # keep every old copy of the package alive; RSS would grow per pass.
        for clear in getattr(typing, "_cleanups", ()):
            clear()
        gc.collect()
        self.corpus = importlib.import_module("qdmr2sql.corpus")
        self.linking = importlib.import_module("qdmr2sql.linking")
        self.search = importlib.import_module("qdmr2sql.search")

    def setup(self) -> float:
        """Import the package afresh, then load the word vectors and the
        corpus; the seconds the loading took."""
        self.reimport()
        return self.load()

    def load(self) -> float:
        """Load the word vectors and the corpus; the seconds it took."""
        start = time.perf_counter()
        lexicon = self.linking.EmbeddingLexicon.load(self.spec["lexicon"])
        examples, rejects = self.corpus.load_examples(self.spec["corpus"])
        elapsed = time.perf_counter() - start
        if rejects:
            raise RuntimeError(f"{len(rejects)} corpus lines were rejected")
        self.lexicon, self.examples = lexicon, examples
        return elapsed

    def run_pass(self, label: str, jobs: int, probe=None, recorder=None) -> dict:
        """One corpus pass after a fresh set-up; its timings, with the probe's
        records if given.  With a recorder, every hook is installed and
        ``run_corpus`` is the root span."""
        self.setup()
        out_dir = self.out_root / label
        out_dir.mkdir(parents=True)
        config = self.search.SynthesisConfig()
        run_corpus = self.corpus.run_corpus
        hooks = None
        if probe is not None:
            probe.reset()
            probe.install()
        if recorder is not None:
            recorder.reset()
            hooks = self.tracing.Hooks(recorder)
            hooks.install()
            original = run_corpus

            def run_corpus(*args, **kwargs):
                return recorder.call(self.tracing.ROOT, original, args, kwargs)

        try:
            before = self.host.sample()
            start = time.perf_counter()
            outcomes, report = run_corpus(
                self.examples,
                self.spec["db_dir"],
                config=config,
                jobs=jobs,
                lexicon=self.lexicon,
            )
            self.corpus.emit_training_pairs(
                self.examples, outcomes, out_dir / "pairs.jsonl"
            )
            (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
            end = time.perf_counter()
            after = self.host.sample()
        finally:
            if hooks is not None:
                hooks.remove()
            if probe is not None:
                probe.remove()
        record = {
            "label": label,
            "jobs": jobs,
            "start": start,
            "wall_s": end - start,
            "ref_ms": [before, after],
            "digest": _digest(out_dir),
        }
        if probe is not None:
            record.update(
                wall_s=end - start - probe.paused,
                stamps=list(probe.stamps),
                ids=list(probe.ids),
                statuses=list(probe.statuses),
                samples=list(probe.samples),
            )
        if label != WARMUP:
            for child in out_dir.iterdir():
                child.unlink()
            out_dir.rmdir()
        return record


def run_plain(runner: Runner, seconds: float) -> dict:
    probe = runner.tracing.CompletionProbe(runner.host.sample)
    warmup = runner.run_pass(WARMUP, 1, probe)
    passes: list = []
    deadline = time.perf_counter() + seconds
    while len(passes) < runner.spec["min_passes"] or time.perf_counter() < deadline:
        passes.append(runner.run_pass(f"pass{len(passes)}", 1, probe))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check = runner.run_pass("jobs2", 2, runner.tracing.CompletionProbe())
    return {"warmup": warmup, "passes": passes, "checks": [check],
            "peak_rss_kb": peak_rss_kb}


def run_traced(runner: Runner, seconds: float) -> dict:
    tracing = runner.tracing
    sampling = tracing.CompletionProbe(runner.host.sample)
    counting = tracing.CompletionProbe()  # two threads: count completions only
    recorder = tracing.SpanRecorder()

    # One traced set-up, for the split of set-up time.
    runner.reimport()
    hooks = tracing.Hooks(recorder)
    before = runner.host.sample()
    hooks.install()
    try:
        recorder.call(tracing.SETUP, runner.load, (), {})
    finally:
        hooks.remove()
    traced_spans = [("setup", recorder.spans)]
    setup_ref = [before, runner.host.sample()]

    warmup = runner.run_pass(WARMUP, 1, sampling)
    passes: list = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        n = len(passes)
        record = runner.run_pass(f"plain1.{n}", 1, sampling)
        passes.append(dict(record, kind="plain", completions=len(record["stamps"])))
        record = runner.run_pass(f"traced1.{n + 1}", 1, recorder=recorder)
        passes.append(dict(record, kind="traced", completions=recorder.completed))
        traced_spans.append((record["label"], recorder.spans))
        record = runner.run_pass(f"plain2.{n + 2}", 2, counting)
        passes.append(dict(record, kind="plain", completions=len(record["stamps"])))
    spans_path = runner.out_root / "spans.jsonl"
    tracing.write_spans(spans_path, traced_spans)
    return {"warmup": warmup, "passes": passes, "spans": str(spans_path),
            "setup_trace_ref_ms": setup_ref}


def main(argv) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = spec["src"]
    sys.path.insert(0, src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    package = importlib.import_module("qdmr2sql")
    if not Path(package.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"qdmr2sql was imported from {package.__file__}, not {src}")
    tracing = importlib.import_module("tracing")
    hostspeed = importlib.import_module("hostspeed")

    host = hostspeed.HostSpeed()
    try:
        runner = Runner(spec, host, tracing)
        setup_s, setup_ref = [], [host.sample()]
        deadline = time.perf_counter() + SETUP_BUDGET_S
        while len(setup_s) < SETUP_REPEATS or time.perf_counter() < deadline:
            setup_s.append(runner.setup())
            setup_ref.append(host.sample())
        result: dict = {
            "setup_s": setup_s,
            "setup_ref_ms": setup_ref,
            "examples": [ex.id for ex in runner.examples],
        }
        if spec["trace"]:
            result.update(run_traced(runner, spec["seconds"]))
        else:
            result.update(run_plain(runner, spec["seconds"]))
    finally:
        host.close()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except RuntimeError as exc:  # HookError included: name the broken point
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
