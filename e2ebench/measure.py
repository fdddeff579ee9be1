"""One measured process: set up a workload, clear its rounds, report.

Started by ``run.py`` from the root of a checkout; not meant to be run by
hand.  The set-up clock starts on the first line below, before
``import repro``, and stops when the first timed round is ready.  The
last line on standard output is one JSON object with the raw
measurements, which ``run.py`` summarizes.

``--probe`` stops once set-up is done (plus what it takes to shut the
system down cleanly) and reports only ``setup_s``.  ``--trace`` installs
the per-layer wrappers of ``layers.py`` before anything is built.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from workloads import Session, run_workload

    layers = None
    if args.trace:
        from layers import Layers

        layers = Layers()
        layers.install()
    session = Session(
        T0,
        seed=args.seed,
        warmup=args.warmup,
        rounds=args.rounds,
        layers=layers,
        probe=args.probe,
    )
    try:
        run_workload(args.workload, session)
    finally:
        if layers is not None:
            layers.uninstall()
    result = {
        "setup_s": session.setup_s,
        "round_ms": session.round_ms,
        "segment_s": session.segment_s,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "digest": session.digest,
        "peak_rss_mb": session.peak_rss_mb,
    }
    if layers is not None:
        result["layers"] = layers.medians()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
