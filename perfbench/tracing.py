"""Spans around the package's public functions, installed from outside.

Each hook replaces one public function in the namespace of the module that
calls it (``search`` imports ``link_program``, so the hook replaces
``qdmr2sql.search.link_program``), or one method on its class.  Modules are
resolved through :func:`importlib.import_module`, because attribute access
on the package finds the re-exported function ``qdmr2sql.search`` instead
of the module.  A hook point that no longer exists aborts the run with its
name.

A span records its name, start, end, parent span and the index of the
example being searched (the number of searches completed so far in the
pass).  Spans stay in memory and are written out when the benchmark ends;
:func:`layer_metrics` turns one pass of them into per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

FUNCTION = "function"
METHOD = "method"
CLASSMETHOD = "classmethod"
GENERATOR = "generator"

# (module, attribute in that module, span name, kind).  The layer is the
# span name's prefix, named after the module that does the work.
HOOKS: Tuple[Tuple[str, str, str, str], ...] = (
    ("qdmr2sql.corpus", "search", "search.search", FUNCTION),
    ("qdmr2sql.corpus", "load_schema", "schema.introspect", FUNCTION),
    ("qdmr2sql.corpus", "parse_qdmr", "qdmr.parse", FUNCTION),
    ("qdmr2sql.executor", "Database.open", "schema.open", CLASSMETHOD),
    ("qdmr2sql.schema", "ValueIndex.__init__", "schema.value_index", METHOD),
    ("qdmr2sql.schema", "ValueIndex.columns_containing", "schema.probe", METHOD),
    ("qdmr2sql.search", "parse_qdmr", "qdmr.parse", FUNCTION),
    ("qdmr2sql.search", "link_program", "linking.link", FUNCTION),
    ("qdmr2sql.linking", "EmbeddingLexicon.load", "linking.lexicon_load", CLASSMETHOD),
    ("qdmr2sql.linking", "rank_columns", "linking.rank", FUNCTION),
    ("qdmr2sql.linking", "plan_bindings", "linking.plan", FUNCTION),
    ("qdmr2sql.search", "plan_bindings", "linking.plan", FUNCTION),
    ("qdmr2sql.search", "enumerate_assignments", "linking.enumerate", GENERATOR),
    ("qdmr2sql.sqlgen", "join_tables", "joinpath.join", FUNCTION),
    ("qdmr2sql.search", "synthesize", "sqlgen.map", FUNCTION),
    ("qdmr2sql.search", "render_sql", "sqlgen.render", FUNCTION),
    ("qdmr2sql.executor", "Database.execute", "executor.execute", METHOD),
    ("qdmr2sql.executor", "Denotation.from_rows", "executor.materialise", CLASSMETHOD),
    ("qdmr2sql.search", "denotations_equal", "executor.compare", FUNCTION),
)

ROOT = "corpus.run_corpus"
SETUP = "setup.load"

# Every corpus pass must record at least one span of each layer.
LAYERS = ("schema", "qdmr", "linking", "joinpath", "sqlgen", "executor", "search")


class HookError(RuntimeError):
    """A hook point is missing or a layer recorded no calls."""


class SpanRecorder:
    """Collects spans; one list entry per span, appended on entry.

    An entry is ``[name, start, end, parent, example, info]``; ``parent``
    indexes the same list (``-1`` for a root) and ``info`` holds what the
    hook saw: a row count, a status, or the name of the exception raised.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = [-1]
        self.completed = 0

    def reset(self) -> None:
        self.spans = []
        self._stack = [-1]
        self.completed = 0

    def call(self, name: str, fn: Callable, args, kwargs, info: Callable = None):
        record = [name, 0.0, 0.0, self._stack[-1], self.completed, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            record[2] = time.perf_counter()
            record[5] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
        record[2] = time.perf_counter()
        if info is not None:
            record[5] = info(result)
        return result

    def generator(self, name: str, gen: Iterable):
        """Wrap a generator: each ``next`` becomes one span."""
        it = iter(gen)
        while True:
            record = [name, 0.0, 0.0, self._stack[-1], self.completed, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                record[2] = time.perf_counter()
                return
            except BaseException as exc:
                record[2] = time.perf_counter()
                record[5] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            record[2] = time.perf_counter()
            record[5] = 1
            yield item


def _resolve(module: str, attr: str):
    """The object that owns the hook point and the attribute's name on it."""
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise HookError(f"hook point {module}.{attr} is missing: {exc}") from exc
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise HookError(f"hook point {module}.{attr} is missing")
    if leaf not in vars(owner) or not callable(getattr(owner, leaf)):
        raise HookError(f"hook point {module}.{attr} is missing")
    return owner, leaf


def _search_info(outcome):
    return [outcome.status.value, outcome.candidates_tried]


def _rows_info(result):
    return len(result)


_INFO = {
    "search.search": _search_info,
    "executor.execute": _rows_info,
}


class Hooks:
    """Installs every hook of :data:`HOOKS` into one recorder, reversibly.

    Hook points are resolved on :meth:`install`, in the modules imported
    at that time.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        rec = self.recorder
        points = [(*_resolve(m, a), n, k) for m, a, n, k in HOOKS]
        for owner, leaf, _, kind in points:
            if (kind == CLASSMETHOD) != isinstance(vars(owner)[leaf], classmethod):
                raise HookError(f"hook point {owner.__name__}.{leaf} changed its kind")
        for owner, leaf, name, kind in points:
            original = vars(owner)[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, _wrap(rec, name, kind, original))

    def remove(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


def _wrap(rec: SpanRecorder, name: str, kind: str, original):
    info = _INFO.get(name)
    if kind == CLASSMETHOD:
        fn = original.__func__

        def classmethod_hook(cls, *args, **kwargs):
            return rec.call(name, fn, (cls, *args), kwargs, info)

        return classmethod(classmethod_hook)
    if kind == GENERATOR:

        def generator_hook(*args, **kwargs):
            return rec.generator(name, original(*args, **kwargs))

        return generator_hook

    def hook(*args, **kwargs):
        return rec.call(name, original, args, kwargs, info)

    if name == "search.search":

        def search_hook(*args, **kwargs):
            try:
                return hook(*args, **kwargs)
            finally:
                rec.completed += 1

        return search_hook
    return hook


# Functions after which a probe may sample the host's speed, so long
# searches get samples too.  A missing one only makes sampling sparser.
SAMPLE_POINTS = (
    ("qdmr2sql.executor", "Database.execute"),
    ("qdmr2sql.schema", "ValueIndex.columns_containing"),
    ("qdmr2sql.linking", "rank_columns"),
)


class CompletionProbe:
    """The hooks of an untraced pass: a timestamp per finished search.

    With one caller, the time between two completions is the wall time of
    the later example, database open and schema introspection included.
    Given a ``sample`` function, the probe also samples the host's speed
    at most every ``interval`` seconds, after a search or after a call to
    one of :data:`SAMPLE_POINTS`.  Samples are ``(time, ms)`` pairs.  The
    time sampling takes is kept in ``paused`` and left out of every
    recorded time.  Hook points are resolved on :meth:`install`.
    """

    def __init__(self, sample: Optional[Callable[[], float]] = None,
                 interval: float = 0.025) -> None:
        self.sample = sample
        self.interval = interval
        self._saved: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stamps: List[float] = []
        self.ids: List[str] = []
        self.statuses: List[str] = []
        self.samples: List[Tuple[float, float]] = []
        self.paused = 0.0
        self._last = time.perf_counter()

    def _maybe_sample(self, now: float) -> None:
        if self.sample is not None and now - self._last >= self.interval:
            self.samples.append((now - self.paused, self.sample()))
            self._last = time.perf_counter()
            self.paused += self._last - now

    def install(self) -> None:
        clock = time.perf_counter
        corpus, search_leaf = _resolve("qdmr2sql.corpus", "search")
        rest = []
        if self.sample is not None:
            for module, attr in SAMPLE_POINTS:
                try:
                    rest.append(_resolve(module, attr))
                except HookError:
                    pass
        search = vars(corpus)[search_leaf]

        def search_probe(example, *args, **kwargs):
            outcome = search(example, *args, **kwargs)
            now = clock()
            self.stamps.append(now - self.paused)
            self.ids.append(example.id)
            self.statuses.append(outcome.status.value)
            self._maybe_sample(now)
            return outcome

        self._saved.append((corpus, search_leaf, search))
        setattr(corpus, search_leaf, search_probe)
        for owner, leaf in rest:
            original = vars(owner)[leaf]

            def sample_probe(*args, _original=original, **kwargs):
                try:
                    return _original(*args, **kwargs)
                finally:
                    self._maybe_sample(clock())

            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, sample_probe)

    def remove(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


# --- analysis ------------------------------------------------------------------


def write_spans(path, passes: Sequence[Tuple[str, List[list]]]) -> None:
    """One JSON array per span: pass label, then the span's fields."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, spans in passes:
            for span in spans:
                fh.write(json.dumps([label, *span]) + "\n")


def read_spans(path) -> Dict[str, List[list]]:
    passes: Dict[str, List[list]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            label, *span = json.loads(line)
            passes.setdefault(label, []).append(span)
    return passes


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


@dataclass
class PassSplit:
    metrics: Dict[str, float]
    counts: Dict[str, int]


def layer_metrics(spans: Sequence[list], answer_rows: Sequence[int]) -> PassSplit:
    """Per-layer metrics of one traced corpus pass.

    ``answer_rows[i]`` is the answer size of the i-th example; spans carry
    the example index they ran under.
    """
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    if len(roots) != 1 or spans[roots[0]][0] != ROOT:
        raise HookError(f"a traced pass must have one {ROOT} root span")
    root = spans[roots[0]]
    wall = root[2] - root[1]
    own = self_times(spans)

    by_name: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    by_layer = {layer: 0.0 for layer in LAYERS}
    for span, t in zip(spans, own):
        name = span[0]
        by_name[name] = by_name.get(name, 0.0) + t
        counts[name] = counts.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer] += t
    unclaimed = wall - sum(by_layer.values())

    def errors(name: str, kind: str) -> int:
        return sum(1 for s in spans if s[0] == name and s[5] == kind)

    executions = [s for s in spans if s[0] == "executor.execute"]
    fetched = sum(s[5] for s in executions if isinstance(s[5], int))
    wanted = sum(answer_rows[s[4]] for s in executions if isinstance(s[5], int))
    searches = [s[5] for s in spans if s[0] == "search.search"]
    statuses = [info[0] for info in searches if isinstance(info, list)]
    candidates = sum(info[1] for info in searches if isinstance(info, list))
    found = statuses.count("Found")

    m = {
        "schema.open_s": by_name.get("schema.open", 0.0) + by_name.get("schema.introspect", 0.0),
        "schema.opens": counts.get("schema.open", 0),
        "schema.probe_s": by_name.get("schema.probe", 0.0),
        "schema.probes": counts.get("schema.probe", 0),
        "schema.value_indexes": counts.get("schema.value_index", 0),
        "qdmr.parse_s": by_name.get("qdmr.parse", 0.0),
        "qdmr.parses": counts.get("qdmr.parse", 0),
        "linking.link_s": by_name.get("linking.link", 0.0),
        "linking.rank_s": by_name.get("linking.rank", 0.0),
        "linking.ranks": counts.get("linking.rank", 0),
        "linking.plan_s": by_name.get("linking.plan", 0.0),
        "linking.enumerate_s": by_name.get("linking.enumerate", 0.0),
        "linking.assignments": sum(
            1 for s in spans if s[0] == "linking.enumerate" and s[5] == 1
        ),
        "joinpath.join_s": by_name.get("joinpath.join", 0.0),
        "joinpath.joins": counts.get("joinpath.join", 0),
        "sqlgen.map_s": by_name.get("sqlgen.map", 0.0),
        "sqlgen.maps": counts.get("sqlgen.map", 0),
        "sqlgen.map_errors": sum(
            1 for s in spans if s[0] == "sqlgen.map" and isinstance(s[5], str)
        ),
        "sqlgen.render_s": by_name.get("sqlgen.render", 0.0),
        "sqlgen.renders": counts.get("sqlgen.render", 0),
        "executor.execute_s": by_name.get("executor.execute", 0.0),
        "executor.materialise_s": by_name.get("executor.materialise", 0.0),
        "executor.executions": len(executions),
        "executor.sql_errors": errors("executor.execute", "SqlError"),
        "executor.timeouts": errors("executor.execute", "ExecutionTimeout"),
        "executor.rows_fetched": fetched,
        "executor.answer_rows_per_fetched_row": wanted / fetched if fetched else 0.0,
        "executor.compare_s": by_name.get("executor.compare", 0.0),
        "executor.compares": counts.get("executor.compare", 0),
        "search.self_s": by_name.get("search.search", 0.0),
        "search.candidates": candidates,
        "search.found_per_candidate": found / candidates if candidates else 0.0,
        "search.found": found,
        "search.exhausted": statuses.count("Exhausted"),
        "search.timeout": statuses.count("Timeout"),
        "search.mapping_failed": statuses.count("MappingFailed"),
        "corpus.run_corpus_s": wall,
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = by_layer[layer] / wall
    m["share.unclaimed"] = unclaimed / wall
    return PassSplit(metrics=m, counts=counts)


def setup_metrics(spans: Sequence[list]) -> Dict[str, float]:
    """Set-up split: lexicon load and the parses inside ``load_examples``."""
    own = self_times(spans)
    out = {"linking.lexicon_load_s": 0.0, "qdmr.setup_parse_s": 0.0, "qdmr.setup_parses": 0}
    for span, t in zip(spans, own):
        if span[0] == "linking.lexicon_load":
            out["linking.lexicon_load_s"] += t
        elif span[0] == "qdmr.parse":
            out["qdmr.setup_parse_s"] += t
            out["qdmr.setup_parses"] += 1
    return out


def check_layers(counts: Dict[str, int], workload: str) -> None:
    """Abort if a layer recorded no calls in a corpus pass."""
    for layer in LAYERS:
        if not any(name.split(".", 1)[0] == layer for name in counts):
            raise HookError(f"layer {layer} recorded no calls on workload {workload}")


def median_split(splits: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """The split of the traced pass with the median ``run_corpus`` time.

    One whole pass, not a median per metric, so the shares still add up
    to 1 and the counts belong together.
    """
    ordered = sorted(splits, key=lambda s: s["corpus.run_corpus_s"])
    return dict(ordered[(len(ordered) - 1) // 2])
