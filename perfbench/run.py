"""Corpus benchmark for qdmr2sql.

Builds one seeded workload in a scratch directory inside the checkout,
runs the program on it in a separate process (``worker.py``), checks every
output against an oracle that does not use the package, and prints one
JSON result line: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 20 --trace 0

Workloads: ``fixture``, ``scaled_ship`` and ``wide_schema``; see
``perfbench/README.md``.  The size options exist for manual sweeps, such
as ``--ships 100000``; the gated runs use the defaults.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Every run, set-up and generation included, must end well within 180 s.
RUN_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ships", type=int,
                   help="scaled_ship: number of ships, for manual size sweeps")
    p.add_argument("--limit", type=float, default=RUN_LIMIT_S,
                   help="seconds the whole run may take (default %(default)s)")
    args = p.parse_args(argv)
    if args.ships is not None and args.workload != "scaled_ship":
        p.error("--ships applies to scaled_ship only")
    return args


def percentile(values, p: float):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def block_tail(passes_ms: List[List[float]], p: float) -> float:
    """The median, over blocks of consecutive passes, of each block's p-th
    percentile.  A block is the fewest passes whose samples put at least
    10 beyond the percentile; left-over passes join the last block.  A
    burst of host noise in one pass then moves one block, not the tail."""
    blocks: List[List[float]] = []
    block: List[float] = []
    for ms in passes_ms:
        block = block + ms
        if percentile(block, p)[1] >= 10:
            blocks.append(block)
            block = []
    if not blocks:
        raise BenchmarkError(
            f"fewer than 10 of {len(block)} samples lie beyond p{p}; run more passes"
        )
    blocks[-1] += block
    return statistics.median(percentile(b, p)[0] for b in blocks)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _run_worker(spec_path: Path, result_path: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)]
    try:
        proc = subprocess.run(cmd, cwd=str(REPO), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"the program did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _check_completions(workload, result) -> None:
    n = len(workload.expected)
    if len(result["examples"]) != n:
        raise BenchmarkError(f"load_examples returned {len(result['examples'])} of {n} examples")
    for record in result["passes"] + result.get("checks", []):
        done = record.get("completions", len(record.get("stamps", ())))
        if done != n:
            raise BenchmarkError(
                f"pass {record['label']} counted {done} completed searches for {n} examples"
            )
        if record["jobs"] == 1 and "ids" in record and record["ids"] != result["examples"]:
            raise BenchmarkError(f"pass {record['label']} did not search in input order")


def _verdicts(workload, result, work: Path):
    """Oracle verdicts on the warm-up pass's files, extended to every pass.

    The oracle checks the warm-up files.  Every other pass must write the
    same bytes, and the statuses its searches returned must be those of the
    files.  A pass with other files counts all its examples as failed, as
    does every pass when the files as a whole are inconsistent.  Returns
    the warm-up statuses, the number of example results checked (warm-up,
    timed and check passes) and the number that failed.
    """
    check = oracle.Oracle(workload)
    try:
        statuses, wrong, problems = check.check(work / "out" / "warmup")
    finally:
        check.close()
    inconsistent = bool(problems)
    n = len(workload.expected)
    first = result["warmup"]
    checked = [first] + result["passes"] + result.get("checks", [])
    failed = 0
    for record in checked:
        if record["digest"] != first["digest"]:
            problems.append(
                f"outputs of pass {record['label']} (jobs {record['jobs']}) differ from"
                f" pass {first['label']} (jobs {first['jobs']})"
            )
            failed += n
            continue
        bad = set(wrong)
        for ex_id, status in zip(record.get("ids", ()), record.get("statuses", ())):
            if status != statuses.get(ex_id):
                problems.append(f"pass {record['label']}: search returned {status} for"
                                f" {ex_id}, the files say {statuses.get(ex_id)}")
                bad.add(ex_id)
        failed += n if inconsistent else len(bad)
    for ex_id, reason in sorted(wrong.items()):
        print(f"wrong: {ex_id}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return statuses, n * len(checked), failed


def calibrated(record):
    """Per-example milliseconds and the pass's seconds at reference speed.

    Host-speed samples cut the pass into stretches; each stretch is scaled
    by the sample that ends it, the last one by the pass's closing sample.
    An example's time is the scaled length of the stretches it spans.  A
    pass without per-example stamps is scaled by the mean of its opening
    and closing samples.
    """
    before, after = record["ref_ms"]
    if record["jobs"] != 1 or "stamps" not in record:
        return [], record["wall_s"] * hostspeed.factor((before + after) / 2)
    start = record["start"]
    cuts = [start] + [t for t, _ in record["samples"]] + [start + record["wall_s"]]
    factors = [hostspeed.factor(ms) for _, ms in record["samples"]]
    factors.append(hostspeed.factor(after))
    scaled_at_cut = [0.0]
    for i, f in enumerate(factors):
        scaled_at_cut.append(scaled_at_cut[-1] + (cuts[i + 1] - cuts[i]) * f)

    def scaled(t: float) -> float:
        """Scaled seconds from the pass's start to ``t``."""
        i = min(max(bisect.bisect_right(cuts, t) - 1, 0), len(factors) - 1)
        return scaled_at_cut[i] + (t - cuts[i]) * factors[i]

    ms, previous = [], start
    for stamp in record["stamps"]:
        ms.append((scaled(stamp) - scaled(previous)) * 1000.0)
        previous = stamp
    return ms, scaled_at_cut[-1]


def end_to_end(workload, result, statuses, attempted: int, failed: int) -> dict:
    """The user-visible metrics of the timed passes.

    Times between search completions are the per-example samples.  The
    tail is a percentile per block of passes (:func:`block_tail`).
    Medians are taken over groups of
    examples doing the same work (one fixture example and its repetitions,
    one generated example across passes): each group's median first, then
    the median over groups, so a median never sits on the edge between two
    examples' samples.
    """
    n = len(workload.expected)
    samples: List[List[float]] = []
    by_group: Dict[str, List[float]] = {}
    group_status: Dict[str, str] = {}
    rates = []
    for record in result["passes"]:
        per_example, seconds = calibrated(record)
        rates.append(n / seconds)
        samples.append(per_example)
        for ms, ex_id, status in zip(per_example, record["ids"], record["statuses"]):
            group = workload.expected[ex_id].group
            by_group.setdefault(group, []).append(ms)
            if group_status.setdefault(group, status) != status:
                raise BenchmarkError(f"examples of group {group} ended as {status} and"
                                     f" {group_status[group]}")
    medians = {g: statistics.median(v) for g, v in by_group.items()}
    found_ms = [ms for g, ms in medians.items() if group_status[g] == "Found"]
    miss_ms = [ms for g, ms in medians.items() if group_status[g] != "Found"]
    if not found_ms or not miss_ms:
        raise BenchmarkError("a workload must have both Found and missed examples")
    tail = block_tail(samples, workload.tail_percentile)
    found = sum(1 for s in statuses.values() if s == "Found")
    refs = result["setup_ref_ms"]  # one sample before each set-up, one after the last
    setup = [
        t * hostspeed.factor((refs[i] + refs[i + 1]) / 2)
        for i, t in enumerate(result["setup_s"])
    ]
    return {
        "examples_per_s": _metric(statistics.median(rates), "1/s"),
        "example_ms_p50": _metric(statistics.median(medians.values()), "ms"),
        "example_ms_tail": _metric(tail, "ms"),
        "found_ms_p50": _metric(statistics.median(found_ms), "ms"),
        "miss_ms_p50": _metric(statistics.median(miss_ms), "ms"),
        "found": _metric(found, "count"),
        "right_share": _metric(1.0 - failed / attempted, "ratio"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(result["peak_rss_kb"] / 1024.0, "MB"),
    }


def _layer_unit(name: str) -> str:
    if name.startswith(("share.", "trace.", "corpus.jobs2")) or name.endswith(
        ("_per_candidate", "_per_fetched_row")
    ):
        return "ratio"
    if name.endswith("_per_s_wall"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


def _scale_times(metrics: Dict[str, float], factor: float) -> Dict[str, float]:
    return {k: v * factor if k.endswith("_s") else v for k, v in metrics.items()}


def per_layer(workload, result) -> dict:
    passes = tracing.read_spans(result["spans"])
    answers = [len(oracle.answer_rows(workload.expected[i].answer)) for i in result["examples"]]
    seconds = {r["label"]: calibrated(r)[1] for r in result["passes"]}
    splits = []
    for label, spans in passes.items():
        if label == "setup":
            continue
        split = tracing.layer_metrics(spans, answers)
        tracing.check_layers(split.counts, workload.name)
        record = next(r for r in result["passes"] if r["label"] == label)
        splits.append(_scale_times(split.metrics, seconds[label] / record["wall_s"]))
    metrics = tracing.median_split(splits)
    ref = statistics.mean(result["setup_trace_ref_ms"])
    metrics.update(_scale_times(tracing.setup_metrics(passes["setup"]), hostspeed.factor(ref)))

    n = len(workload.expected)

    def rate(kind, jobs, wall=False):
        return statistics.median(
            n / (r["wall_s"] if wall else seconds[r["label"]])
            for r in result["passes"]
            if r["kind"] == kind and r["jobs"] == jobs
        )

    plain = rate("plain", 1)
    metrics["corpus.jobs2_speedup"] = rate("plain", 2) / plain
    metrics["corpus.examples_per_s_wall"] = rate("plain", 1, wall=True)
    metrics["host.reference_ms"] = statistics.median(
        statistics.mean(r["ref_ms"]) for r in result["passes"]
    )
    metrics["trace.speed_ratio"] = rate("traced", 1) / plain
    return {k: _metric(v, _layer_unit(k)) for k, v in sorted(metrics.items())}


def main(argv=None) -> int:
    args = _parse(argv)
    started = time.monotonic()
    if not (REPO / "src" / "qdmr2sql" / "__init__.py").is_file():
        print(f"error: no qdmr2sql package under {REPO / 'src'}", file=sys.stderr)
        return 2
    scratch = REPO / ".perfbench-work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        sizes = {"ships": args.ships} if args.ships is not None else {}
        workload = workloads.GENERATORS[args.workload](REPO, inputs, args.seed, **sizes)
        spec = dict(
            workload.worker_spec(),
            src=str(REPO / "src"),
            out_dir=str(work / "out"),
            seconds=args.seconds,
            trace=bool(args.trace),
        )
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = args.limit - (time.monotonic() - started)
        result = _run_worker(spec_path, work / "result.json", timeout)
        _check_completions(workload, result)
        statuses, attempted, failed = _verdicts(workload, result, work)
        if args.trace:
            metrics = per_layer(workload, result)
        else:
            metrics = end_to_end(workload, result, statuses, attempted, failed)
        line = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        print(json.dumps(line))
        return 0
    except (BenchmarkError, tracing.HookError, workloads.WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
