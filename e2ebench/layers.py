"""Per-layer timing for the traced run, recorded from outside the program.

:class:`Layers` wraps the public functions at each layer boundary of
``repro`` (module attributes and class attributes, restored on
:meth:`Layers.uninstall`), records how long each call took and what it
counted, and folds the records into per-round values between
:meth:`Layers.round_begin` and :meth:`Layers.round_end`.  Nothing inside
``repro`` is edited and ``repro.obs`` stays disabled, so the program
under measurement runs the same code as in the untraced run, plus the
wrappers.

A layer's *self* time is its call's duration minus the part covered by
the wrapped calls it makes (``msoa.self_ms``, ``dist.collect_ms``).
Selection time counts only the selection a clearing run makes itself,
not the replays inside critical payments, which count as payments.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

from percentiles import median

LAYER_METRICS: dict[str, str] = {
    "edge.begin_round_ms": "ms",
    "edge.complete_round_ms": "ms",
    "edge.demand_units": "count",
    "edge.sellers_opened": "count",
    "dist.collect_ms": "ms",
    "dist.broadcast_ms": "ms",
    "dist.write_frame_ms": "ms",
    "dist.frames_out": "count",
    "dist.frames_in": "count",
    "dist.frame_bytes_out": "B",
    "dist.bids_missing": "count",
    "msoa.self_ms": "ms",
    "msoa.bids_excluded": "count",
    "ssam.layout_ms": "ms",
    "ssam.selection_ms": "ms",
    "ssam.payments_ms": "ms",
    "ssam.ratio_bound_ms": "ms",
    "ssam.calls": "count",
    "ssam.bids": "count",
    "ssam.winners": "count",
    "engine.payment_pool_workers": "count",
    "shard.partition_ms": "ms",
    "shard.local_busy_ms": "ms",
    "shard.local_parallelism": "ratio",
    "shard.reconcile_ms": "ms",
    "shard.cross_bids": "count",
    "shard.clamped_shards": "count",
}
"""Every per-layer metric the traced run reports, with its unit.  A
layer a workload never calls reads 0 on that workload."""

_PAYMENTS = "payments"


class Layers:
    """Wraps repro's layer entry points and aggregates per-round values."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._round: dict[str, float] | None = None
        self._round_started = 0.0
        self._partition = None
        self._local_window: list[float] = []
        self.rounds: list[dict[str, float]] = []

    # ------------------------------------------------------------------
    # per-round aggregation
    # ------------------------------------------------------------------
    def round_begin(self) -> None:
        """Start accumulating one timed round."""
        with self._lock:
            self._round = defaultdict(float)
        self._round_started = time.perf_counter()

    def round_end(self) -> None:
        """Close the current round and derive its self times."""
        round_ms = (time.perf_counter() - self._round_started) * 1e3
        with self._lock:
            acc, self._round = self._round, None
        if acc is None:
            return
        if acc["edge.begin_round_ms"]:
            acc["dist.collect_ms"] = round_ms - (
                acc["edge.begin_round_ms"]
                + acc["edge.complete_round_ms"]
                + acc["dist.broadcast_ms"]
            )
        acc["msoa.self_ms"] = acc.pop("msoa.round_ms", 0.0) - acc.pop(
            "msoa.clear_ms", 0.0
        )
        wall = acc.pop("shard.local_wall_ms", 0.0)
        if wall > 0:
            acc["shard.local_parallelism"] = acc["shard.local_busy_ms"] / wall
        self.rounds.append({name: acc.get(name, 0.0) for name in LAYER_METRICS})

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to metric ``name`` of the open round (if any)."""
        with self._lock:
            if self._round is not None:
                self._round[name] += value

    def medians(self) -> dict[str, float]:
        """Per-round median of every metric over the recorded rounds."""
        return {
            name: median([r[name] for r in self.rounds])
            for name in LAYER_METRICS
        }

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` with ``make(original)``; remember it."""
        if isinstance(owner, type):
            original = owner.__dict__[name]
        else:
            original = getattr(owner, name)
        self._patches.append((owner, name, original))
        if isinstance(original, classmethod):
            setattr(owner, name, classmethod(make(original.__func__)))
        else:
            setattr(owner, name, make(original))

    def _timed(self, span: str, on_exit=None):
        """Wrapper factory: time each call, then hand it to ``on_exit``.

        ``on_exit(ms, result, args, kwargs, started, ended)`` runs after
        a call that returned; ``span`` is pushed on this thread's stack
        while the call runs so nested wrappers can see their caller.
        """

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = self._stack()
                stack.append(span)
                started = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ended = time.perf_counter()
                    stack.pop()
                if on_exit is not None:
                    on_exit((ended - started) * 1e3, result, args, kwargs,
                            started, ended)
                return result

            return wrapper

        return make

    def _adder(self, metric: str):
        return lambda ms, *_: self.add(metric, ms)

    def install(self) -> None:
        """Wrap every layer boundary.  Call before the system is built."""
        import repro.core.columnar as columnar
        import repro.core.engine as engine
        import repro.core.msoa as msoa
        import repro.core.ssam as ssam
        import repro.dist.tcp as tcp
        import repro.shard.msoa as shard_msoa
        import repro.shard.ssam as shard_ssam
        from repro.core.msoa import MultiStageOnlineAuction
        from repro.dist.tcp import TcpTransport
        from repro.edge.platform import EdgePlatform

        # repro.edge
        def begun(ms, context, *_):
            self.add("edge.begin_round_ms", ms)
            self.add("edge.demand_units", sum(context.demand_units.values()))
            self.add("edge.sellers_opened", len(context.seller_contexts))

        self._patch(EdgePlatform, "begin_round", self._timed("edge", begun))
        self._patch(
            EdgePlatform,
            "complete_round",
            self._timed("edge", self._adder("edge.complete_round_ms")),
        )

        # repro.dist
        self._patch(
            TcpTransport,
            "broadcast",
            self._timed("dist", self._adder("dist.broadcast_ms")),
        )

        def wrote(ms, _result, args, *_):
            body = json.dumps(args[1], separators=(",", ":")).encode("utf-8")
            self.add("dist.write_frame_ms", ms)
            self.add("dist.frames_out", 1)
            self.add("dist.frame_bytes_out", len(body) + 4)

        self._patch(tcp, "write_frame", self._timed("dist", wrote))

        def count_reads(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                frame = await fn(*args, **kwargs)
                self.add("dist.frames_in", 1)
                return frame

            return wrapper

        self._patch(tcp, "read_frame", count_reads)

        # repro.core.msoa: the round, and the clearing call it makes
        def processed(ms, _result, args, *_):
            self.add("msoa.round_ms", ms)
            self.add("msoa.bids_excluded", len(args[1].bids))

        self._patch(
            MultiStageOnlineAuction,
            "process_round",
            self._timed("msoa", processed),
        )

        def cleared(ms, _result, args, *_):
            self.add("msoa.clear_ms", ms)
            self.add("msoa.bids_excluded", -len(args[0].bids))

        # repro.core.ssam / engine / columnar
        def ssam_call(ms, outcome, args, _kwargs, started, ended):
            instance = args[0]
            self.add("ssam.calls", 1)
            self.add("ssam.bids", len(instance.bids))
            self.add("ssam.winners", len(outcome.winners))
            partition = self._partition
            if partition is not None and instance.bids and any(
                instance.bids is local for local in partition.local_bids
            ):
                self.add("shard.local_busy_ms", ms)
                with self._lock:
                    self._local_window.append(started)
                    self._local_window.append(ended)

        def clearing(fn):
            return self._timed("msoa", cleared)(self._timed("ssam", ssam_call)(fn))

        self._patch(msoa, "run_ssam", clearing)
        self._patch(shard_ssam, "run_ssam", self._timed("ssam", ssam_call))

        def selected(ms, *_):
            if _PAYMENTS not in self._stack():
                self.add("ssam.selection_ms", ms)

        for module, name in (
            (engine, "fast_greedy_selection"),
            (columnar, "columnar_greedy_selection"),
            (ssam, "greedy_selection"),
        ):
            self._patch(module, name, self._timed("selection", selected))
        self._patch(
            engine,
            "compute_critical_payments",
            self._timed(_PAYMENTS, self._adder("ssam.payments_ms")),
        )
        for module in (ssam, msoa, shard_ssam):
            self._patch(
                module,
                "ssam_ratio_bound",
                self._timed("ratio", self._adder("ssam.ratio_bound_ms")),
            )
        for name in ("build", "with_bids", "subset"):
            self._patch(
                columnar.ColumnarInstance,
                name,
                self._timed("layout", self._adder("ssam.layout_ms")),
            )

        def resolved(_ms, workers, *_):
            if workers > 1:
                self.add("engine.payment_pool_workers", workers)

        self._patch(engine, "resolve_parallelism", self._timed("engine", resolved))

        # repro.shard
        def partitioned(ms, partition, *_):
            self.add("shard.partition_ms", ms)
            self._partition = partition
            with self._lock:
                self._local_window = []

        self._patch(shard_ssam, "partition_round", self._timed("shard", partitioned))

        def sharded(ms, result, args, *_):
            stats = result.stats
            cleared(ms, result, args)
            self.add("shard.reconcile_ms", stats.reconcile_ms)
            self.add("shard.cross_bids", stats.cross_bids)
            self.add("shard.clamped_shards", stats.clamped_shards)
            with self._lock:
                window, self._local_window = self._local_window, []
            self._partition = None
            if window:
                self.add("shard.local_wall_ms", (max(window) - min(window)) * 1e3)

        self._patch(shard_msoa, "run_sharded_ssam", self._timed("shard", sharded))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
