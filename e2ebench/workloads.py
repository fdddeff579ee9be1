"""The benchmark's three closed-loop workloads, driven through public APIs.

Each workload clears a fixed, seeded sequence of rounds: ``warmup``
rounds, then ``rounds`` timed ones.  One process generates the load and
waits for each round before starting the next.  Inputs are generated
lazily, one round at a time, outside every timed interval, and the
time spent generating them is left out of ``setup_s``.  No workload
passes a mechanism option (``engine=``, ``parallelism=``,
``shard_workers=``, ``columnar_incremental=``): every measured call runs
on the program's defaults.

Correctness is checked in the same process, outside the timed intervals:

* every cleared round covers its demand and pays each winner at least
  its (scaled) ask, which is individual rationality;
* one sampled round is cleared again on the ``reference`` engine and
  must match on winners and payments;
* ``serve_tcp`` outcomes must equal ``replay_scenario`` of the same
  scenario.

A round that raises counts as failed.  For ``serve_tcp``, a round in
which an opened seller's bid never arrived (timeout, late or
disconnect) also counts as failed, and if the session aborts, its
remaining rounds count as failed.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import resource
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

from repro.api import (
    DistScenario,
    MarketConfig,
    MultiStageOnlineAuction,
    generate_round,
    replay_scenario,
    run_ssam,
    serve,
)
from repro.dist.messages import BidSubmission
from repro.obs.runtime import is_enabled as obs_enabled
from repro.shard import (
    ShardedOnlineAuction,
    StreamConfig,
    region_plan,
    run_sharded_ssam,
    stream_capacities,
    stream_rounds,
)
from repro.workload import generate_capacities

MSOA_4K = MarketConfig(
    n_sellers=2000, n_buyers=16, demand_units_range=(1, 3), coverage_range=(1, 3)
)
SERVE_SERVICES = 256


class Session:
    """What one measured process observes about its workload run."""

    def __init__(self, t0: float, *, seed: int, warmup: int, rounds: int,
                 layers=None, probe: bool = False) -> None:
        self.t0 = t0
        self.seed = seed
        self.warmup = warmup
        self.rounds = rounds
        self.layers = layers
        self.probe = probe
        self.gen_s = 0.0
        self.setup_s: float | None = None
        self.round_ms: list[float] = []
        self.segment_s = 0.0
        self.attempted = warmup + rounds
        self.failed = 0
        self.first_failed: int | None = None
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self._digest = hashlib.sha256()
        # The round re-cleared on the reference engine (a timed round).
        self.sample_index = warmup + int(
            np.random.default_rng(seed).integers(rounds)
        )

    @property
    def total(self) -> int:
        return self.warmup + self.rounds

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @contextmanager
    def generating(self):
        """The benchmark's own input generation (kept out of ``setup_s``)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.gen_s += time.perf_counter() - started

    def ready(self) -> None:
        """The first timed round is ready: set-up ends here."""
        self.setup_s = time.perf_counter() - self.t0 - self.gen_s

    def fail(self, round_index: int, why: str) -> None:
        self.failed += 1
        if self.first_failed is None:
            self.first_failed = round_index
        if self.failed <= 5:
            print(f"round {round_index} failed: {why}", file=sys.stderr)

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def record(self, *parts) -> None:
        """Fold one round's outcome into the run's digest."""
        self._digest.update(repr(parts).encode())

    def measure_rss(self) -> None:
        """Peak RSS of this process plus its largest reaped child, in MB."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.peak_rss_mb = (own + child) / 1024.0


def _winners(outcome) -> tuple:
    return tuple((w.bid.key, w.payment) for w in outcome.winners)


def _check_outcome(session: Session, round_index: int, outcome) -> None:
    """Coverage and individual rationality of one cleared round."""
    if not outcome.satisfied:
        session.problem(f"round {round_index}: demand not covered")
    for w in outcome.winners:
        if w.payment + 1e-9 < w.bid.price:
            session.problem(
                f"round {round_index}: seller {w.bid.seller} paid "
                f"{w.payment} below its ask {w.bid.price}"
            )


def _recheck(session: Session, result, clear_reference) -> None:
    """Clear ``result``'s round again on the reference engine; compare."""
    if session.probe or result is None:
        return  # a sampled round that raised is already a counted failure
    outcome = result.outcome
    original = {key: result.original_bids[key].price for key in result.scaled_prices}
    reference = clear_reference(outcome.instance, original)
    if sorted(_winners(reference)) != sorted(_winners(outcome)):
        session.problem(
            f"round {result.round_index}: reference engine disagrees on "
            "winners or payments"
        )


def _reap_children() -> None:
    """Join every child process this one started (terminating stragglers)."""
    for child in multiprocessing.active_children():
        child.join(10.0)
        if child.is_alive():
            child.terminate()
            child.join(5.0)


# ----------------------------------------------------------------------
# in-process online auctions: msoa_4k and shard_stream
# ----------------------------------------------------------------------
def _drive_online(session: Session, auction, next_instance, clear_reference) -> None:
    layers = session.layers
    sampled = None
    for i in range(session.total):
        with session.generating():
            instance = next_instance()
        if i == session.warmup:
            session.ready()
            if session.probe:
                return
        timed = i >= session.warmup
        if timed and layers is not None:
            layers.round_begin()
        started = time.perf_counter()
        try:
            result = auction.process_round(instance)
        except Exception:  # a raising round is a counted failure
            session.fail(i, traceback.format_exc(limit=3))
            result = None
        elapsed = time.perf_counter() - started
        if timed:
            if layers is not None:
                layers.round_end()
            session.segment_s += elapsed
            if result is not None:
                session.round_ms.append(elapsed * 1e3)
        if result is None:
            continue
        _check_outcome(session, i, result.outcome)
        session.record(i, _winners(result.outcome))
        if i == session.sample_index:
            sampled = result
    session.measure_rss()
    _recheck(session, sampled, clear_reference)


def run_msoa_4k(session: Session) -> None:
    """One big SSAM instance per round: 2000 sellers x 2 bids, 16 buyers."""
    rng = np.random.default_rng(session.seed)
    with session.generating():
        capacities = generate_capacities(MSOA_4K, rng)
    auction = MultiStageOnlineAuction(capacities)
    _drive_online(
        session,
        auction,
        lambda: generate_round(MSOA_4K, rng),
        lambda instance, original: run_ssam(
            instance, engine="reference", original_prices=original
        ),
    )


def run_shard_stream(session: Session) -> None:
    """Eight region shards: about nine tiny SSAM calls per round."""
    config = StreamConfig(
        rounds=session.total,
        regions=8,
        buyers_per_region=25,
        sellers_per_region=75,
        demand_range=(2, 3),
        cross_region_fraction=0.05,
    )
    with session.generating():
        capacities = stream_capacities(config)
        plan = region_plan(config)
        stream = stream_rounds(config, np.random.default_rng(session.seed))
    auction = ShardedOnlineAuction(capacities, plan=plan)
    _drive_online(
        session,
        auction,
        lambda: next(stream),
        lambda instance, original: run_sharded_ssam(
            instance, plan, engine="reference", original_prices=original
        ).outcome,
    )


# ----------------------------------------------------------------------
# serve_tcp: the platform served over TCP to one agent-worker process
# ----------------------------------------------------------------------
class _BidWatch:
    """Counts, per round, opened sellers whose bid never arrived in time.

    Mirrors the orchestrator's acceptance rule from outside: a seller is
    served when a ``BidSubmission`` for the open round reaches the
    orchestrator's mailbox by the round's deadline.
    """

    def __init__(self, service) -> None:
        self.round_index = -1
        self.opened: set[int] = set()
        self.accepted: set[int] = set()
        self.deadline = 0.0
        platform, orchestrator = service.platform, service.orchestrator
        transport = service.transport
        begin, put = platform.begin_round, orchestrator.mailbox.put

        def begin_round():
            context = begin()
            self.round_index = context.round_index
            self.opened = {sc.seller_id for sc in context.seller_contexts}
            self.accepted = set()
            self.deadline = transport.now + orchestrator.grace_window
            return context

        def deliver(envelope):
            message = envelope.message
            if (
                isinstance(message, BidSubmission)
                and message.round_index == self.round_index
                and envelope.deliver_at <= self.deadline
            ):
                self.accepted.add(message.seller_id)
            put(envelope)

        platform.begin_round = begin_round
        orchestrator.mailbox.put = deliver

    def missing(self) -> int:
        return len(self.opened - self.accepted)


def _report_key(report) -> tuple:
    auction = report.auction
    return (
        report.round_index,
        tuple(sorted(report.demand_units.items())),
        tuple((seller, tuple(sorted(covered))) for seller, covered in report.transfers),
        None if auction is None else _winners(auction.outcome),
    )


def run_serve_tcp(session: Session) -> None:
    """``serve(DistScenario(n_services=256))`` over TCP, virtual clock."""
    scenario = DistScenario(
        seed=session.seed, n_services=SERVE_SERVICES, horizon_rounds=session.total
    )
    service = serve(scenario, listen=("127.0.0.1", 0), agent_processes=1)
    orchestrator = service.orchestrator
    watch = _BidWatch(service)
    layers = session.layers
    run_round = orchestrator.run_round
    served = 0
    segment_start = None

    async def timed_round():
        nonlocal served, segment_start
        i = served
        served += 1
        timed = i >= session.warmup
        if i == session.warmup:
            session.ready()
        if timed and layers is not None:
            layers.round_begin()
        started = time.perf_counter()
        if timed and segment_start is None:
            segment_start = started
        try:
            report = await run_round()
        except Exception:
            session.fail(i, traceback.format_exc(limit=3))
            raise
        ended = time.perf_counter()
        missing = watch.missing()
        if timed:
            if layers is not None:
                layers.add("dist.bids_missing", missing)
                layers.round_end()
            session.round_ms.append((ended - started) * 1e3)
            session.segment_s = ended - segment_start
        if missing:
            session.fail(i, f"{missing} opened sellers' bids never arrived")
        return report

    orchestrator.run_round = timed_round
    planned = session.warmup + 1 if session.probe else session.total
    try:
        reports = service.run(planned)
    except Exception:
        reports = list(service.reports)
        # The session aborted: the raising round is already counted.
        session.failed += max(0, planned - served)
    finally:
        _reap_children()
    session.measure_rss()
    if session.probe:
        return
    sampled = None
    for report in reports:
        if report.auction is None:
            continue
        _check_outcome(session, report.round_index, report.auction.outcome)
        if sampled is None and report.round_index >= session.sample_index:
            sampled = report.auction
    for report in reports:
        session.record(*_report_key(report))
    # After a failed round the served session legitimately leaves the
    # replay's trajectory, so only the rounds before it are compared.
    compared = len(reports) if session.first_failed is None else session.first_failed
    if compared:
        replayed = replay_scenario(scenario, rounds=compared)
        for mine, oracle in zip(reports[:compared], replayed):
            if _report_key(mine) != _report_key(oracle):
                session.problem(
                    f"round {mine.round_index}: served outcome differs from "
                    "replay_scenario"
                )
                break
    _recheck(
        session,
        sampled,
        lambda instance, original: run_ssam(
            instance, engine="reference", original_prices=original
        ),
    )


WORKLOADS = {
    "serve_tcp": run_serve_tcp,
    "msoa_4k": run_msoa_4k,
    "shard_stream": run_shard_stream,
}


def run_workload(name: str, session: Session) -> None:
    """Run workload ``name`` into ``session`` (obs must stay disabled)."""
    if obs_enabled():
        session.problem("repro.obs is enabled; the benchmark measures it off")
    WORKLOADS[name](session)
