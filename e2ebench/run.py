"""Repository benchmark: one command per workload, run from a checkout's root.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``serve_tcp``, ``msoa_4k`` and ``shard_stream`` (see
``e2ebench/README.md``).  Every run clears a fixed number of timed
rounds, ``--seconds`` times the workload's sizing constant and never
fewer than :data:`MIN_ROUNDS`; it is never cut off by a clock.

``--trace 0`` reports the end-to-end metrics.  Set-up is measured in
:data:`SETUP_SAMPLES` fresh processes (the measured run plus probes that
stop once set-up is done) and reported as their median.

``--trace 1`` reports the per-layer metrics.  It runs the workload twice
on half the rounds, once untraced and once with every layer wrapped, and
reports per-round medians plus ``trace.overhead_ratio``, the traced
median round over the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Nothing is
printed there if the program cannot be run; the exit code is then not 0.
This file imports nothing from ``repro``; the measured processes do.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from percentiles import median, percentile  # noqa: E402

WORKLOADS: dict[str, tuple[int, float]] = {
    # name: (warm-up rounds, timed rounds per --seconds).  The constants
    # give every workload's run about the same wall time on a 2-core VM,
    # counting set-up probes and the correctness replay.
    "serve_tcp": (3, 13.0),
    "msoa_4k": (1, 7.0),
    "shard_stream": (1, 7.0),
}
MIN_ROUNDS = 100
"""Timed rounds a run never goes below: the p90 needs 10 rounds beyond it."""
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END = {
    "rounds_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def timed_rounds(workload: str, seconds: int, *, trace: bool) -> int:
    """The fixed number of timed rounds of one run."""
    rounds = max(MIN_ROUNDS, round(seconds * WORKLOADS[workload][1]))
    return rounds // 2 if trace else rounds


def measure(workload: str, seed: int, rounds: int, deadline: float,
            *flags: str) -> dict:
    """Run one measured process to completion and return its JSON line."""
    command = [
        sys.executable,
        os.path.join(HERE, "measure.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--warmup", str(WORKLOADS[workload][0]),
        "--rounds", str(rounds),
        *flags,
    ]
    completed = subprocess.run(
        command,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"measured process exited with {completed.returncode}: "
            + (lines[-1] if lines else "no output")
        )
    return json.loads(lines[-1])


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    rounds = timed_rounds(args.workload, args.seconds, trace=False)
    run = measure(args.workload, args.seed, rounds, deadline)
    probes = [
        measure(args.workload, args.seed, rounds, deadline, "--probe")
        for _ in range(SETUP_SAMPLES - 1)
    ]
    round_ms = run["round_ms"]
    print(f"timed rounds: {len(round_ms)}, "
          f"{len(round_ms) - math.ceil(0.9 * len(round_ms))} beyond the p90")
    print(f"set-up samples (s): "
          f"{[round(s['setup_s'], 4) for s in [run, *probes]]}")
    values = {
        "rounds_per_s": len(round_ms) / run["segment_s"],
        "round_ms_p50": median(round_ms),
        "round_ms_p90": percentile(round_ms, 90),
        "setup_s": median([s["setup_s"] for s in [run, *probes]]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }
    return metrics, [run]


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    from layers import LAYER_METRICS

    rounds = timed_rounds(args.workload, args.seconds, trace=True)
    plain = measure(args.workload, args.seed, rounds, deadline)
    traced = measure(args.workload, args.seed, rounds, deadline, "--trace")
    metrics = {
        name: {"value": traced["layers"][name], "unit": unit}
        for name, unit in LAYER_METRICS.items()
    }
    metrics["trace.overhead_ratio"] = {
        "value": median(traced["round_ms"]) / median(plain["round_ms"]),
        "unit": "ratio",
    }
    return metrics, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro is missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, runs = per_layer(args, deadline)
        else:
            metrics, runs = end_to_end(args, deadline)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    problems = [p for run in runs for p in run["problems"]]
    digests = sorted({run["digest"] for run in runs})
    correct = not problems and len(digests) == 1
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for problem in problems[:10]:
        print(f"incorrect: {problem}")
    print(f"workload {args.workload} seed {args.seed}: attempted={attempted} "
          f"failed={failed} correct={str(correct).lower()} digest={digests[0]}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
