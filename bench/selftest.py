"""Self-test of the benchmark itself.

Usage, from the root of a checkout:

    python3 bench/selftest.py [--seconds 1]

For every workload it checks that

1. traced and untraced rounds produce identical output digests, and the
   digest repeats across two runs of the same seed;
2. the machine-independent counts repeat exactly across two traced runs;
3. those counts are stored in the run record next to the timings, so runs
   on different machines can be compared;
4. the workload runs clean (no failed operation, every check passing) on the
   default seed and on a held-out seed that no tuning used.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

import run as bench  # pins BLAS threads and puts the checkout's src on sys.path

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

REPEATED_COUNTS = (
    "denoiser.queries",
    "denoiser.rows",
    "orders.positions_scored",
    "orders.decode_steps",
    "ni_sampler.steps",
    "labeling.examples",
    "indicator.minibatches",
)


def check_workload(name: str, seconds: float) -> list:
    """Failed checks for one workload, as human-readable strings."""
    failures = []
    first = bench.run(name, DEFAULT_SEED, seconds, trace=True)
    second = bench.run(name, DEFAULT_SEED, seconds, trace=True)
    held_out = bench.run(name, HELD_OUT_SEED, seconds, trace=True)
    for label, rec in (("seed 0, run 1", first), ("seed 0, run 2", second), (f"seed {HELD_OUT_SEED}", held_out)):
        if not rec["correct"] or rec["failed"]:
            failures.append(f"{label}: {rec['failed']}/{rec['attempted']} failed, problems {rec['problems']}")
    if first["digest"] != second["digest"]:
        failures.append("output digest differs between two runs of one seed")
    if first["digest"] == held_out["digest"]:
        failures.append("the held-out seed produced the default seed's outputs")
    for key in REPEATED_COUNTS:
        a, b = first["per_layer"][key]["value"], second["per_layer"][key]["value"]
        if a != b:
            failures.append(f"{key} does not repeat: {a} then {b}")
    for key in ("counts", "per_layer", "round_walls_s", "traced_round_walls_s", "setup_times_s", "environment"):
        if key not in first:
            failures.append(f"run record lacks {key!r}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description="Self-test of the maskorder benchmark")
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    bench._import_program()
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        failures = check_workload(name, args.seconds)
        ok = ok and not failures
        print(f"{'PASS' if not failures else 'FAIL'} {name}")
        for failure in failures:
            print(f"  - {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
