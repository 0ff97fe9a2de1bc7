"""Benchmark of the maskorder pipeline, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload decode-long --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another
    python3 bench/selftest.py                    # the benchmark's own checks

A run builds its inputs from ``--seed``, sets the workload up at least three
times (``setup_s`` is the median), then repeats the timed round until ``--seconds``
have passed and reports medians over rounds. Every output is checked, and
``failed``/``attempted`` count the decodes, merge analyses, label cuts,
training epochs and file round trips that raised or failed a check.

With ``--trace 0`` no hooks are installed. The report lines give every
named end-to-end metric the workload defines, with its unit; the last line
holds the ones ``BENCHMARK.json`` lists, which every workload defines
(set-up time, round wall time, peak RSS), and ``failed_frac`` is
``failed / attempted``. With ``--trace 1`` half the time runs untraced and
half traced, and the run checks that both halves produce the same digests
and counts. The report lines give every per-layer metric and the tracing
overhead; the last line holds the ones ``BENCHMARK.json`` lists, which leave
out the times of layers some workload never runs (they would read 0.0 on
every run of it). With ``--workload all`` the workloads share one process, so
``peak_rss_mb`` is the peak so far.

Each run writes its full record (every named metric, machine-independent
counts next to the timings, output digest, environment) to
``bench/out/<workload>-seed<seed>-trace<t>.json``, and a traced run writes its
spans to ``bench/out/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy loads: one process, one thread, and no more
# threads than the processors this process may run on.
BLAS_THREADS = min(1, len(os.sched_getaffinity(0)))
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path[:0] = [SRC, BENCH_DIR]

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

# set-up runs at least MIN_SETUPS times, and more while it is cheap, so that
# setup_s, a median, is steady even when one set-up takes milliseconds
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 25, 0.5
MAX_MEASURE_S = 150.0  # a run must end within 180 s whatever --seconds asks

# name, unit, better; BENCHMARK.json lists the ones every workload defines
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("failed_frac", "share", "lower"),
    ("decode_tok_per_s", "tokens/s", "higher"),
    ("merge_traj_per_s", "trajectories/s", "higher"),
    ("merge_steps_per_seq", "steps", "lower"),
    ("ni_seq_ms_p50", "ms", "lower"),
    ("ni_seq_ms_p90", "ms", "lower"),
    ("ni_steps_per_seq", "steps", "lower"),
    ("ni_exact_match", "share", "higher"),
    ("label_ex_per_s", "examples/s", "higher"),
    ("train_ex_per_s", "example-epochs/s", "higher"),
    ("holdout_acc", "share", "higher"),
)

# counts that must repeat exactly, and agree between hooks and outputs
HOOKED_COUNTS = (
    "orders.decode_steps",
    "ni_sampler.steps",
    "merge.trajectories",
    "labeling.cuts",
    "labeling.examples",
    "indicator.minibatches",
)


def _import_program():
    """Import maskorder from this checkout's ``src``, or exit with a nonzero code."""
    try:
        import maskorder
    except ImportError as exc:
        sys.exit(f"bench: cannot import maskorder from {SRC}: {exc}")
    if not os.path.realpath(maskorder.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"bench: maskorder resolves to {maskorder.__file__}, outside {SRC}")
    return maskorder


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ.get(var) for var in _BLAS_VARS},
        "machine": platform.machine(),
    }


def _median(values):
    return statistics.median(values) if values else None


def _run_rounds(workload, state, tracer, budget: float, min_samples: dict) -> list:
    from workloads import Round

    rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()
        rd = Round()
        first_span = len(getattr(tracer, "spans", ()))
        t0 = time.perf_counter()
        crashed = False
        try:
            workload.round(state, tracer, rd)
        except Exception:
            # the round's remaining operations never ran; count the crash as one
            rd.check(False, traceback.format_exc(limit=4))
            crashed = True
        rd.wall = time.perf_counter() - t0
        rd.spans = (first_span, len(getattr(tracer, "spans", ())))
        rounds.append(rd)
        elapsed = time.perf_counter() - start
        if crashed or elapsed >= MAX_MEASURE_S:
            break
        pooled = {k: sum(len(r.samples.get(k, ())) for r in rounds) for k in min_samples}
        if elapsed >= budget and all(pooled[k] >= n for k, n in min_samples.items()):
            break
    return rounds


def end_to_end(rounds, setup_times, peak_rss_mb, attempted, failed) -> dict:
    """Every named end-to-end metric this workload defines, from untraced rounds."""

    def rate(count, stage):
        vals = [r.counts[count] / r.stages[stage] for r in rounds if stage in r.stages and count in r.counts]
        return _median(vals)

    values = {
        "setup_s": _median(setup_times),
        "wall_s": _median([r.wall for r in rounds]),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted if attempted else 1.0,
        "decode_tok_per_s": rate("decode_tokens", "decode"),
        "merge_traj_per_s": rate("merge.trajectories", "merge"),
        "label_ex_per_s": rate("labeling.examples", "label"),
        "train_ex_per_s": rate("train_example_epochs", "train"),
    }
    samples = [ms for r in rounds for ms in r.samples.get("ni_seq_ms", ())]
    if len(samples) >= 2:
        values["ni_seq_ms_p50"] = statistics.median(samples)
        values["ni_seq_ms_p90"] = statistics.quantiles(samples, n=10)[8]
    for key in ("merge_steps_per_seq", "ni_steps_per_seq", "ni_exact_match", "holdout_acc"):
        if key in rounds[0].quality:
            values[key] = rounds[0].quality[key]
    units = {name: unit for name, unit, _ in END_TO_END}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items() if v is not None}


def per_layer(tracer, bounds, traced, plain) -> tuple:
    """Per-layer metrics (counts from the first traced round, times as medians
    over traced rounds), and each traced round's own figures."""
    from spans import layer_metrics

    per_round = [layer_metrics(tracer.spans, a, b) for a, b in bounds]
    missing = set(tracer.missing_metrics())
    out = {}
    for name in per_round[0]:
        if name in missing:
            continue
        if name.endswith("_s"):
            out[name] = statistics.median(m[name] for m in per_round)
        else:
            out[name] = per_round[0][name]
    out["labeling.positive_frac"] = traced[0].quality.get("labeling.positive_frac", 0.0)
    out["labeling.dataset_bytes"] = traced[0].counts.get("labeling.dataset_bytes", 0)
    out["trace.overhead_s"] = _median([r.wall for r in traced]) - _median([r.wall for r in plain])
    out["trace.overhead_frac"] = out["trace.overhead_s"] / _median([r.wall for r in plain])
    return out, per_round


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_yield")):
        return "share"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; return its full record."""
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times, state = [], None
        while len(setup_times) < MIN_SETUPS or (
            len(setup_times) < MAX_SETUPS and sum(setup_times) < SETUP_BUDGET_S
        ):
            gc.collect()
            t0 = time.perf_counter()
            st = workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)
            state = state or st
        state["workdir"] = workdir

        budget = seconds / 2 if trace else seconds
        plain = _run_rounds(workload, state, NullTracer(), budget, {} if trace else workload.min_samples)
        traced, tracer = [], None
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = _run_rounds(workload, state, tracer, budget, {})
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [e for r in rounds for e in r.errors][:10]
    if len({r.digest for r in rounds}) != 1:
        problems.append("output digests differ between rounds" + (" (traced vs untraced)" if trace else ""))
    if any(r.counts != rounds[0].counts for r in rounds):
        problems.append("output counts differ between rounds")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "why": next(w["why"] for w in _spec()["workloads"] if w["name"] == name),
        "environment": environment(),
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": rounds[0].digest,
        "counts": dict(sorted(rounds[0].counts.items())),
        "quality": rounds[0].quality,
        "setup_times_s": setup_times,
        "round_walls_s": [r.wall for r in plain],
        "stage_s": {k: _median([r.stages.get(k, 0.0) for r in plain]) for k in plain[0].stages},
        "samples": {k: sum(len(r.samples.get(k, ())) for r in plain) for k in plain[0].samples},
        "end_to_end": end_to_end(plain, setup_times, peak_rss_mb, attempted, failed),
    }
    if trace:
        layers, per_round = per_layer(tracer, [r.spans for r in traced], traced, plain)
        for key in HOOKED_COUNTS:
            if key in layers and key in rounds[0].counts and layers[key] != rounds[0].counts[key]:
                record["problems"].append(f"{key}: hooks counted {layers[key]}, outputs {rounds[0].counts[key]}")
        for key, value in per_round[0].items():
            if not key.endswith("_s") and any(m[key] != value for m in per_round):
                record["problems"].append(f"{key} differs between traced rounds")
        record["correct"] = record["correct"] and not record["problems"]
        record["traced_round_walls_s"] = [r.wall for r in traced]
        record["missing"] = tracer.missing_metrics()
        record["per_layer"] = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
        tracer.write(os.path.join(OUT_DIR, f"{name}-seed{seed}.spans.jsonl"))
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    """Human-readable lines: every named metric this workload defines, with its unit."""
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} blas_threads={env['blas_threads']}"
    )
    print(f"#   why: {record['why']}")
    samples = ", ".join(f"{k}: {v} samples" for k, v in record["samples"].items())
    print(f"#   rounds: {len(record['round_walls_s'])} untraced" + (f"; {samples}" if samples else ""))
    for name, unit, better in END_TO_END:
        if name in record["end_to_end"]:
            value = record["end_to_end"][name]["value"]
            print(f"#   {name:<22} {value:>14.6g} {unit:<18} ({better} is better)")
    for name, m in record.get("per_layer", {}).items():
        print(f"#   {name:<30} {m['value']:>14.6g} {m['unit']}")
    if record.get("missing"):
        print(f"#   missing (hook target gone): {', '.join(record['missing'])}")
    print(f"#   counts: {json.dumps(record['counts'])}")
    print(f"#   digest: {record['digest']}")
    for problem in record["problems"]:
        print(f"#   PROBLEM: {problem.splitlines()[-1] if problem else problem}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(record: dict) -> dict:
    """The last line: the metrics ``BENCHMARK.json`` lists for this kind of run."""
    spec = _spec()
    source = record["per_layer"] if record["trace"] else record["end_to_end"]
    names = [m["name"] for m in spec["per_layer" if record["trace"] else "end_to_end"]]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: source[name] for name in names if name in source},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        record = run(name, args.seed, args.seconds, bool(args.trace))
        report(record)
        lines[name] = result_line(record)
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(v["correct"] for v in lines.values()),
                    "attempted": sum(v["attempted"] for v in lines.values()),
                    "failed": sum(v["failed"] for v in lines.values()),
                    "metrics": {f"{n}/{k}": m for n, v in lines.items() for k, m in v["metrics"].items()},
                }
            )
        )
    return 0


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
