"""The benchmark's own tests: percentiles, failure accounting, digests, names.

Run from the repository root with ``python3 -m pytest e2ebench/tests``.
"""

import json
import multiprocessing
import os
import time
from types import SimpleNamespace

import pytest

import run
from layers import LAYER_METRICS, Layers
from percentiles import MIN_BEYOND, percentile
from workloads import Session, run_workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def small_session(seed=3, *, warmup=1, rounds=3, layers=None):
    return Session(time.perf_counter(), seed=seed, warmup=warmup,
                   rounds=rounds, layers=layers)


def test_percentile_refuses_a_thin_tail():
    assert percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(2 * MIN_BEYOND - 1)), 50)


def test_raising_round_is_counted_and_aborts_the_session(monkeypatch):
    from repro.edge.platform import EdgePlatform

    begin = EdgePlatform.begin_round

    def begin_round(self):
        if len(self.reports) == 2:
            raise RuntimeError("injected round failure")
        return begin(self)

    monkeypatch.setattr(EdgePlatform, "begin_round", begin_round)
    session = small_session(warmup=1, rounds=4)
    run_workload("serve_tcp", session)
    # Rounds 0 and 1 clear; round 2 raises; rounds 3 and 4 never run.
    assert session.failed == 3
    assert session.problems == []
    assert len(session.round_ms) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_small_runs_repeat_their_digest(workload):
    first, second = small_session(), small_session()
    run_workload(workload, first)
    run_workload(workload, second)
    assert first.failed == second.failed == 0
    assert first.problems == second.problems == []
    assert len(first.round_ms) == 3
    assert first.digest == second.digest
    assert first.setup_s > 0 and first.peak_rss_mb > 0


@pytest.mark.parametrize("workload,exercised", [
    ("shard_stream", ("shard.partition_ms", "shard.local_busy_ms",
                      "shard.local_parallelism", "ssam.calls")),
    ("serve_tcp", ("edge.begin_round_ms", "dist.collect_ms",
                   "dist.write_frame_ms", "dist.frames_in", "msoa.self_ms")),
])
def test_traced_run_reports_every_layer_and_restores_the_program(
    workload, exercised
):
    import repro.core.msoa as msoa
    from repro.edge.platform import EdgePlatform

    before = (msoa.run_ssam, EdgePlatform.__dict__["begin_round"])
    layers = Layers()
    layers.install()
    try:
        session = small_session(layers=layers)
        run_workload(workload, session)
    finally:
        layers.uninstall()
    assert (msoa.run_ssam, EdgePlatform.__dict__["begin_round"]) == before
    assert session.problems == [] and session.failed == 0
    medians = layers.medians()
    assert set(medians) == set(LAYER_METRICS)
    for name in exercised:
        assert medians[name] > 0, name
    assert medians["dist.bids_missing"] == 0


def test_every_named_metric_is_reported_with_its_unit(monkeypatch):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)

    fake = {
        "setup_s": 1.5, "round_ms": [float(i) for i in range(1, 101)],
        "segment_s": 10.0, "attempted": 101, "failed": 0, "problems": [],
        "digest": "d", "peak_rss_mb": 100.0,
        "layers": dict.fromkeys(LAYER_METRICS, 1.0),
    }
    monkeypatch.setattr(run, "measure", lambda *args: fake)
    args = SimpleNamespace(workload="msoa_4k", seed=1, seconds=1)
    e2e, _ = run.end_to_end(args, deadline=0.0)
    layers, _ = run.per_layer(args, deadline=0.0)
    assert {n: m["unit"] for n, m in e2e.items()} == declared_e2e
    assert {n: m["unit"] for n, m in layers.items()} == declared_layers
    assert e2e["round_ms_p90"]["value"] == 90.0
    assert e2e["rounds_per_s"]["value"] == 10.0
