"""Columnar numerical core: the numpy-backed engine representation.

The fast engine (:mod:`repro.core.engine`) removed the reference loop's
per-iteration rescans, but it still walks Python objects — dict-of-set
coverage maps, per-bid ``Bid`` attribute loads, a heap of tuples.  At
10^4–10^5 bids that object layer is the ceiling.  This module rebuilds
the greedy machinery on flat numpy arrays:

* :class:`ColumnarInstance` — the immutable *structure* of a market:
  price/seller/index columns, a CSR-style bid→buyer incidence (plus its
  CSC transpose and a dense bid×buyer mask), per-seller bid groupings,
  and a seller×buyer coverage matrix for the stranding guard.  Built
  once from ``(bids, demand)``; re-pricing (MSOA's ψ-scaled rounds)
  shares every structural array via :meth:`ColumnarInstance.with_bids`.
* :class:`ColumnarState` — the mutable per-run arrays (residual demand,
  active mask, marginal utilities, supplier counts).  ``fork()`` is a
  handful of ``ndarray.copy()`` calls, which is what makes the batched
  payment kernel cheap.
* :func:`columnar_greedy_selection` — the greedy selection loop as
  vectorized candidate scans (``lexsort`` over the exact reference key
  ``(ratio, price, seller, index)``; on large markets only over the
  head of the candidates, found with ``np.partition``).
* :func:`columnar_critical_payments` — a batched critical-value kernel.
  For a winner chosen at main-run iteration ``k``, the +∞-replay of
  :func:`repro.core.ssam._critical_payment` provably follows the main
  trajectory for every iteration before ``k`` (the stranding guard is
  price-independent, and an ∞-priced bid sorts last so it is never
  preferred while its real-priced twin was still losing).  The kernel
  therefore walks the main trajectory *once*, accumulating every
  pending winner's threshold per iteration, and forks a state copy only
  at each winner's own divergence point to finish its private suffix —
  instead of re-running the whole greedy once per winner.

Bit-identical outcomes to the ``fast``/``reference`` engines are the
contract (IEEE-754 division of the same operands, the same lexicographic
candidate order, the same guard walk), pinned by
``tests/properties/test_columnar_equivalence.py``.

The layout targets the paper's regime — buyers (edge cloudlets) number
in the tens while bids number in the thousands-to-hundreds-of-thousands
— so dense ``n_bids × n_buyers`` and ``n_sellers × n_buyers`` masks are
deliberately used for the guard probes; memory is linear in ``n·B``.

This is the default engine: use ``run_ssam(...)`` (or
:class:`~repro.core.msoa.MultiStageOnlineAuction`, which carries the
layout across rounds in a :class:`LayoutCache`) rather than calling
these directly.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from itertools import chain

import numpy as np

from repro.core.bids import Bid
from repro.core.ssam import GreedyStep, _residual_feasible
from repro.core.wsp import CoverageState
from repro.errors import InfeasibleInstanceError
from repro.obs.profiler import profiled
from repro.obs.runtime import STATE as _OBS

__all__ = [
    "ColumnarInstance",
    "ColumnarState",
    "LayoutCache",
    "columnar_greedy_selection",
    "columnar_critical_payments",
    "structure_fingerprint",
]


def structure_fingerprint(
    bids: Sequence[Bid], demand: Mapping[int, int]
) -> tuple:
    """Hashable identity of a market's *structure* (prices excluded).

    Two instances with equal fingerprints share seller/index/coverage
    columns and the demand vector, so a :class:`ColumnarInstance` built
    for one can be re-priced for the other via
    :meth:`ColumnarInstance.with_bids` — the MSOA incrementality hook.
    """
    return (
        tuple((b.seller, b.index, b.covered) for b in bids),
        tuple(demand.items()),
    )


def group_rows(labels: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Rows of each label ``0..n_groups-1``, ascending within a group.

    Equal to ``[np.flatnonzero(labels == g) for g in range(n_groups)]``
    but in O(n log n): one stable sort of the labels, split at the
    group boundaries.
    """
    if n_groups == 0:
        return []
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels, minlength=n_groups)).tolist()
    return [order[a:b] for a, b in zip([0, *bounds[:-1]], bounds)]


class ColumnarInstance:
    """Immutable columnar view of one winner-selection problem.

    All arrays are index-aligned with ``bids`` (rows) and the demand
    map's key order (buyer columns).  Structural arrays are shared, not
    copied, across re-pricings (:meth:`with_bids`).
    """

    __slots__ = (
        "bids",
        "demand_map",
        "buyers",
        "demand",
        "prices",
        "seller_ids",
        "bid_indices",
        "seller_rows",
        "sellers",
        "cover",
        "cover_indptr",
        "cover_cols",
        "covering_rows",
        "seller_bid_rows",
        "seller_cov",
        "initial_utilities",
        "initial_suppliers",
        "row_of",
        "key_rank",
        "_fingerprint",
    )

    def __init__(self, **fields) -> None:
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    @classmethod
    @profiled("columnar.build")
    def build(
        cls, bids: Sequence[Bid], demand: Mapping[int, int]
    ) -> "ColumnarInstance":
        """Construct the columnar layout from a bid list and demand map."""
        if _OBS.enabled:
            _OBS.metrics.counter("engine.columnar.builds").inc()
        bids = tuple(bids)
        n = len(bids)
        buyers = [int(b) for b in demand]
        n_buyers = len(buyers)
        demand_arr = np.fromiter(
            (demand[b] for b in buyers), dtype=np.int64, count=n_buyers
        )
        prices = np.fromiter(
            (b.price for b in bids), dtype=np.float64, count=n
        )
        seller_ids = np.fromiter(
            (b.seller for b in bids), dtype=np.int64, count=n
        )
        bid_indices = np.fromiter(
            (b.index for b in bids), dtype=np.int64, count=n
        )
        sizes = np.fromiter(
            (len(b.covered) for b in bids), dtype=np.int64, count=n
        )
        covered = np.fromiter(
            chain.from_iterable(b.covered for b in bids),
            dtype=np.int64,
            count=int(sizes.sum()),
        )
        cover = np.zeros((n, n_buyers), dtype=bool)
        if n_buyers and covered.size:
            # Map buyer ids to demand-map columns; buyers outside the
            # demand map (zero demand) drop out of the layout.
            buyer_ids = np.asarray(buyers, dtype=np.int64)
            by_id = np.argsort(buyer_ids)
            slot = np.searchsorted(buyer_ids, covered, sorter=by_id)
            cols = by_id[np.minimum(slot, n_buyers - 1)]
            known = buyer_ids[cols] == covered
            rows = np.repeat(np.arange(n, dtype=np.int64), sizes)
            cover[rows[known], cols[known]] = True
        return cls._assemble(
            bids=bids,
            demand_map=dict(demand),
            buyers=buyers,
            demand=demand_arr,
            prices=prices,
            seller_ids=seller_ids,
            bid_indices=bid_indices,
            cover=cover,
        )

    @classmethod
    def _assemble(
        cls,
        *,
        cover: np.ndarray,
        demand: np.ndarray,
        seller_ids: np.ndarray,
        bid_indices: np.ndarray,
        **columns,
    ) -> "ColumnarInstance":
        """Derive every index array from the dense cover mask."""
        n, n_buyers = cover.shape
        sellers, seller_rows = np.unique(seller_ids, return_inverse=True)
        seller_rows = seller_rows.astype(np.int64, copy=False)
        cover_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(cover.sum(axis=1, dtype=np.int64), out=cover_indptr[1:])
        # np.nonzero walks row-major: columns arrive grouped by row in
        # ascending column order, which is the CSR layout.
        cover_cols = cover.nonzero()[1].astype(np.int64, copy=False)
        seller_cov = np.zeros((sellers.size, n_buyers), dtype=bool)
        np.logical_or.at(seller_cov, seller_rows, cover)
        positive = demand > 0
        keys = zip(seller_ids.tolist(), bid_indices.tolist())
        return cls(
            **columns,
            demand=demand,
            seller_ids=seller_ids,
            bid_indices=bid_indices,
            seller_rows=seller_rows,
            sellers=sellers,
            cover=cover,
            cover_indptr=cover_indptr,
            cover_cols=cover_cols,
            covering_rows=[cover[:, j].nonzero()[0] for j in range(n_buyers)],
            seller_bid_rows=group_rows(seller_rows, sellers.size),
            seller_cov=seller_cov,
            initial_utilities=(cover & positive[None, :]).sum(
                axis=1, dtype=np.int64
            ),
            initial_suppliers=seller_cov.sum(axis=0, dtype=np.int64),
            row_of=dict(zip(keys, range(n))),
            key_rank=np.lexsort((bid_indices, seller_ids)).argsort(),
            _fingerprint=None,
        )

    @property
    def fingerprint(self) -> tuple:
        """:func:`structure_fingerprint` of this layout (computed once)."""
        if self._fingerprint is None:
            self._fingerprint = structure_fingerprint(
                self.bids, self.demand_map
            )
        return self._fingerprint

    @property
    def n_bids(self) -> int:
        return len(self.bids)

    @property
    def n_buyers(self) -> int:
        return len(self.buyers)

    def with_bids(self, bids: Sequence[Bid]) -> "ColumnarInstance":
        """Re-price the instance, sharing every structural array.

        ``bids`` must be structurally identical to the originals (same
        sellers, indices, and coverage sets, in the same order) — only
        prices may differ.  This is the MSOA round-to-round refresh: a
        new ψ-scaled price column, zero structural work.  The caller is
        responsible for the structural match (compare
        :func:`structure_fingerprint`); lengths and keys are checked.
        """
        bids = tuple(bids)
        if len(bids) != len(self.bids):
            raise ValueError(
                f"with_bids: expected {len(self.bids)} bids, got {len(bids)}"
            )
        for new, old in zip(bids, self.bids):
            if new.key != old.key:
                raise ValueError(
                    f"with_bids: bid key mismatch {new.key} != {old.key}"
                )
        if _OBS.enabled:
            _OBS.metrics.counter("engine.columnar.price_refreshes").inc()
        prices = np.fromiter(
            (b.price for b in bids), dtype=np.float64, count=len(bids)
        )
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields["bids"] = bids
        fields["prices"] = prices
        return ColumnarInstance(**fields)

    @profiled("columnar.subset")
    def subset(
        self, rows: Sequence[int], buyers: Sequence[int]
    ) -> "ColumnarInstance":
        """Fork a shard-local layout by slicing this one.

        ``rows`` selects bid rows (ascending, preserving the original
        bid order) and ``buyers`` selects demand-map keys (in this
        instance's buyer order).  The sliced layout is exactly what
        :meth:`build` would produce for the sub-market, but derived with
        vectorized slicing instead of a per-bid Python walk — this is
        the per-round fork the sharded clearing path
        (:mod:`repro.shard`) uses to hand each shard its own columnar
        view of one shared parent build.
        """
        if _OBS.enabled:
            _OBS.metrics.counter("engine.columnar.subsets").inc()
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size > 1 and not np.all(np.diff(rows) > 0):
            raise ValueError("subset: rows must be strictly ascending")
        buyer_pos = {buyer: j for j, buyer in enumerate(self.buyers)}
        try:
            cols = np.fromiter(
                (buyer_pos[int(b)] for b in buyers),
                dtype=np.int64,
                count=len(buyers),
            )
        except KeyError as exc:  # buyer not in the parent demand map
            raise ValueError(f"subset: unknown buyer {exc.args[0]}") from exc
        bids = tuple(self.bids[i] for i in rows)
        cover = (
            self.cover[np.ix_(rows, cols)]
            if rows.size and cols.size
            else np.zeros((rows.size, cols.size), dtype=bool)
        )
        return ColumnarInstance._assemble(
            bids=bids,
            demand_map={
                int(b): int(self.demand_map[int(b)]) for b in buyers
            },
            buyers=[int(b) for b in buyers],
            demand=self.demand[cols],
            prices=self.prices[rows],
            seller_ids=self.seller_ids[rows],
            bid_indices=self.bid_indices[rows],
            cover=cover,
        )


class LayoutCache:
    """One columnar layout carried across calls, re-priced on a match.

    :meth:`layout` returns the carried layout re-priced via
    :meth:`ColumnarInstance.with_bids` when the market's structure
    (:func:`structure_fingerprint`) equals the previous call's, and
    builds (and carries) a fresh one otherwise.  MSOA passes one to
    every round's ``run_ssam(columnar=...)``: ψ only moves prices, so a
    round whose structure repeats costs a price-column refresh instead
    of a build.
    """

    __slots__ = ("_fingerprint", "_layout")

    def __init__(self) -> None:
        self._fingerprint: tuple | None = None
        self._layout: ColumnarInstance | None = None

    def layout(
        self, bids: Sequence[Bid], demand: Mapping[int, int]
    ) -> ColumnarInstance:
        """The layout for ``(bids, demand)``; ``demand`` is positive."""
        fingerprint = structure_fingerprint(bids, demand)
        if self._layout is not None and fingerprint == self._fingerprint:
            self._layout = self._layout.with_bids(bids)
            outcome = "engine.columnar.cache_hits"
        else:
            self._layout = ColumnarInstance.build(bids, demand)
            self._fingerprint = fingerprint
            outcome = "engine.columnar.cache_misses"
        if _OBS.enabled:
            _OBS.metrics.counter(outcome).inc()
        return self._layout


class ColumnarState:
    """Mutable greedy-run state over a :class:`ColumnarInstance`.

    Mirrors :class:`~repro.core.wsp.CoverageState` +
    :class:`~repro.core.wsp.ActiveBidIndex` exactly: ``residual`` is
    demand minus granted units and goes negative when a winner covers
    an already-saturated buyer, so a buyer is unsatisfied exactly while
    its residual is positive; ``utilities`` only ever decrease, sellers
    leave the market wholesale, and ``suppliers`` counts distinct
    in-market sellers with any bid covering the buyer.
    """

    __slots__ = (
        "inst",
        "prices",
        "residual",
        "active",
        "utilities",
        "suppliers",
        "unmet",
    )

    def __init__(
        self, inst: ColumnarInstance, prices: np.ndarray | None = None
    ) -> None:
        self.inst = inst
        self.prices = inst.prices if prices is None else prices
        self.residual = inst.demand.copy()
        self.active = np.ones(inst.n_bids, dtype=bool)
        self.utilities = inst.initial_utilities.copy()
        self.suppliers = inst.initial_suppliers.copy()
        self.unmet = int(inst.demand.sum())

    def fork(self) -> "ColumnarState":
        """Independent copy (payment suffix replays mutate it freely)."""
        twin = ColumnarState.__new__(ColumnarState)
        twin.inst = self.inst
        twin.prices = self.prices
        twin.residual = self.residual.copy()
        twin.active = self.active.copy()
        twin.utilities = self.utilities.copy()
        twin.suppliers = self.suppliers.copy()
        twin.unmet = self.unmet
        return twin

    @property
    def satisfied(self) -> bool:
        return self.unmet == 0

    @property
    def granted(self) -> np.ndarray:
        """Units granted per buyer column (may overshoot demand)."""
        return self.inst.demand - self.residual

    def coverage_before(self) -> dict[int, int]:
        """Granted units per buyer, as the reference engine's dict."""
        return dict(zip(self.inst.buyers, self.granted.tolist()))

    def would_strand(self, row: int) -> bool:
        """Vector twin of :meth:`ActiveBidIndex.would_strand`.

        Accepting ``row`` consumes its seller; some unsatisfied buyer is
        stranded iff its residual demand exceeds the count of *other*
        in-market sellers still covering it.  A buyer the bid leaves
        with residual demand is necessarily unsatisfied now.
        """
        inst = self.inst
        need = self.residual - inst.cover[row]
        short = need > 0
        if not np.count_nonzero(short):
            return False
        avail = self.suppliers - inst.seller_cov[inst.seller_rows[row]]
        return bool(np.count_nonzero(short & (avail < need)))

    def would_strand_many(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`would_strand` for many candidate rows in one shot."""
        inst = self.inst
        need = self.residual - inst.cover[rows]
        avail = self.suppliers - inst.seller_cov[inst.seller_rows[rows]]
        return ((need > 0) & (avail < need)).any(axis=1)

    def apply_win(self, row: int) -> int:
        """Grant the bid's coverage; propagate utility decrements.

        Returns the marginal units contributed, like
        :meth:`CoverageState.apply` (overshoot grants count zero).
        """
        inst = self.inst
        cols = inst.cover_cols[
            inst.cover_indptr[row] : inst.cover_indptr[row + 1]
        ]
        residual = self.residual[cols]
        self.residual[cols] = residual - 1
        gained = int(np.count_nonzero(residual > 0))
        for buyer_col in cols[residual == 1].tolist():
            # The last missing unit of this buyer: every bid covering it
            # loses a point of marginal utility.
            self.utilities[inst.covering_rows[buyer_col]] -= 1
        self.unmet -= gained
        return gained

    def remove_seller(self, seller_row: int) -> None:
        """Deactivate every bid of the seller; update supplier counts."""
        inst = self.inst
        self.active[inst.seller_bid_rows[seller_row]] = False
        self.suppliers -= inst.seller_cov[seller_row]

    def active_bids(self) -> list[Bid]:
        """The in-market ``Bid`` objects, in submission order."""
        bids = self.inst.bids
        return [bids[i] for i in self.active.nonzero()[0]]

    def coverage_view(self) -> CoverageState:
        """A :class:`CoverageState` snapshot (exact-guard escalations)."""
        return CoverageState(
            demand=self.inst.demand_map, granted=self.coverage_before()
        )


HEAD_CANDIDATES = 16
"""Candidates a greedy step orders exactly on a large market.

A step almost always takes one of its first few candidates, so when
more than :data:`PARTIAL_ORDER_MIN` bids compete only the head of the
order is sorted (see :func:`_choose`)."""

PARTIAL_ORDER_MIN = 256
"""Candidate count above which a step sorts only the head.  Below it a
full ``lexsort`` costs no more than the partition that finds the head."""


def _ordered_candidates(
    state: ColumnarState, head: int | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Candidate rows and their ratios in exact reference order, and
    the number of candidates.

    The reference engine sorts candidates by the tuple
    ``(ratio, price, seller, index)``; ``np.lexsort`` with the primary
    key last reproduces that ordering bit-for-bit (the ratios are the
    same IEEE-754 divisions the reference performs, and ``key_rank``
    is each row's position in ``(seller, index)`` order).  With
    ``head`` and more than :data:`PARTIAL_ORDER_MIN` candidates, only
    those whose ratio is at most the ``head + 1``-th smallest are
    returned: every other candidate has a larger ratio, so these are
    exactly the first entries of the full order, found in O(n) by
    ``np.partition``.
    """
    rows = (state.active & (state.utilities > 0)).nonzero()[0]
    n_candidates = rows.size
    prices = state.prices[rows]
    ratios = prices / state.utilities[rows]
    if head is not None and n_candidates > max(PARTIAL_ORDER_MIN, head):
        keep = (ratios <= np.partition(ratios, head)[head]).nonzero()[0]
        rows, prices, ratios = rows[keep], prices[keep], ratios[keep]
    perm = np.lexsort((state.inst.key_rank[rows], prices, ratios))
    return rows[perm], ratios[perm], n_candidates


def _guarded_choice(
    state: ColumnarState,
    order: np.ndarray,
    *,
    guard_feasibility: bool,
    exact_guard: bool,
) -> int | None:
    """Position of the first guard-safe candidate within ``order``.

    Walks candidates in ascending key order, passing over the ones the
    stranding guard (and, when escalated, the exact residual-feasibility
    check) rejects; ``None`` when none in ``order`` is safe.
    """
    if not guard_feasibility:
        return 0
    for pos in range(order.size):
        row = int(order[pos])
        if state.would_strand(row):
            continue
        if exact_guard and not _residual_feasible(
            state.inst.bids[row], state.active_bids(), state.coverage_view()
        ):
            continue
        return pos
    return None


def _choose(
    state: ColumnarState, *, guard_feasibility: bool, exact_guard: bool
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """One greedy step's choice: ``(order, ratios, position, candidates)``.

    ``order`` holds the chosen candidate and, when there is one, its
    runner-up.  If no candidate is safe the guard is waived for the
    iteration and the overall best is taken — exactly the reference
    walk.  The head of the order is tried first; the full order is
    built only when the walk needs a candidate past the head.
    """
    order, ratios, n_candidates = _ordered_candidates(
        state, head=HEAD_CANDIDATES
    )
    pos = _guarded_choice(
        state, order, guard_feasibility=guard_feasibility, exact_guard=exact_guard
    )
    if order.size < n_candidates and (pos is None or pos + 1 == order.size):
        order, ratios, _ = _ordered_candidates(state)
        pos = _guarded_choice(
            state,
            order,
            guard_feasibility=guard_feasibility,
            exact_guard=exact_guard,
        )
    return order, ratios, 0 if pos is None else pos, n_candidates


@profiled("ssam.selection")
def columnar_greedy_selection(
    bids: Sequence[Bid],
    demand: Mapping[int, int],
    *,
    require_feasible: bool = True,
    guard_feasibility: bool = True,
    exact_guard: bool = False,
    columnar: ColumnarInstance | None = None,
) -> list[GreedyStep]:
    """Vectorized twin of :func:`repro.core.ssam.greedy_selection`.

    Same contract, same trace, same exceptions.  Pass a prebuilt
    ``columnar`` instance (for the same bids/demand) to skip the layout
    construction — the MSOA incremental path does.
    """
    inst = (
        columnar
        if columnar is not None
        else ColumnarInstance.build(bids, demand)
    )
    state = ColumnarState(inst)
    steps: list[GreedyStep] = []
    iteration = 0
    while not state.satisfied:
        order, ratios, chosen_pos, n_candidates = _choose(
            state,
            guard_feasibility=guard_feasibility,
            exact_guard=exact_guard,
        )
        if _OBS.enabled:
            _OBS.metrics.counter("engine.columnar.candidates_scanned").inc(
                n_candidates
            )
        if n_candidates == 0:
            if require_feasible:
                raise InfeasibleInstanceError(
                    f"{state.unmet} demand units cannot be covered by the "
                    "remaining bids"
                )
            break
        row = int(order[chosen_pos])
        steps.append(
            GreedyStep(
                iteration=iteration,
                bid=inst.bids[row],
                utility=int(state.utilities[row]),
                ratio=float(ratios[chosen_pos]),
                runner_up_ratio=(
                    float(ratios[chosen_pos + 1])
                    if chosen_pos + 1 < order.size
                    else None
                ),
                coverage_before=state.coverage_before(),
            )
        )
        state.apply_win(row)
        state.remove_seller(int(inst.seller_rows[row]))
        iteration += 1
    return steps


def _suffix_replay(
    state: ColumnarState,
    winner_row: int,
    threshold: float,
    *,
    guard_feasibility: bool,
    exact_guard: bool,
    ceiling: float,
) -> float:
    """Finish one winner's +∞ critical replay from its divergence point.

    ``state`` is a private fork whose price column already carries +∞
    at ``winner_row``; the loop body is the exact tail of
    :func:`repro.core.ssam._critical_payment`.
    """
    inst = state.inst
    winner_seller = int(inst.seller_rows[winner_row])
    while not state.satisfied:
        # The winner stays in the market until the loop breaks (its
        # seller leaves only with a sibling's win), and marginal
        # utilities only fall: once its utility reaches zero no later
        # step can raise the threshold.
        winner_utility = int(state.utilities[winner_row])
        if winner_utility == 0:
            break
        order, ratios, chosen_pos, _ = _choose(
            state,
            guard_feasibility=guard_feasibility,
            exact_guard=exact_guard,
        )
        row = int(order[chosen_pos])
        if row == winner_row:
            threshold = max(threshold, winner_utility * ceiling)
            break
        winner_safe = not guard_feasibility or not state.would_strand(
            winner_row
        )
        if winner_safe and guard_feasibility and exact_guard:
            winner_safe = _residual_feasible(
                inst.bids[winner_row].with_price(math.inf),
                state.active_bids(),
                state.coverage_view(),
            )
        if winner_safe:
            threshold = max(
                threshold, winner_utility * float(ratios[chosen_pos])
            )
        state.apply_win(row)
        seller_row = int(inst.seller_rows[row])
        if seller_row == winner_seller:
            break
        state.remove_seller(seller_row)
    return threshold


@profiled("columnar.payments")
def columnar_critical_payments(
    instance,
    winners: Sequence[Bid],
    *,
    exact_guard: bool = False,
    guard_feasibility: bool = True,
    columnar: ColumnarInstance | None = None,
    trajectory: Sequence[GreedyStep] | None = None,
) -> list[float]:
    """Batched critical values: one shared prefix, per-winner suffixes.

    Each winner's critical replay provably coincides with the main
    greedy trajectory up to the iteration where that winner was chosen
    (see the module docstring), so a single pass over the trajectory
    accumulates every pending winner's threshold — the winner's current
    marginal utility times the iteration's selected ratio, whenever the
    winner is guard-safe — and a state fork at each winner's own
    iteration finishes its divergent suffix with the winner priced +∞.
    A bid whose seller sibling wins first resolves at that iteration
    (the replay breaks there), matching the scalar replay's early exit.

    ``trajectory`` (the main run's :class:`GreedyStep` list) skips the
    re-selection pass; omitted, the kernel re-derives it.  Results are
    bit-identical to :func:`repro.core.engine.fast_critical_payment`
    per winner.
    """
    if not winners:
        return []
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    inst = (
        columnar
        if columnar is not None
        else ColumnarInstance.build(instance.bids, demand)
    )
    if trajectory is None:
        trajectory = columnar_greedy_selection(
            instance.bids,
            demand,
            guard_feasibility=guard_feasibility,
            exact_guard=exact_guard,
            columnar=inst,
        )
    traj_rows = [inst.row_of[step.bid.key] for step in trajectory]
    winner_rows = [inst.row_of[w.key] for w in winners]
    ceiling = instance.effective_ceiling

    thresholds: dict[int, float] = {}
    resolved: dict[int, float] = {}
    pending: list[int] = []
    for row in winner_rows:
        if row not in thresholds:
            thresholds[row] = 0.0
            pending.append(row)

    state = ColumnarState(inst)
    forks = 0
    for chosen_row in traj_rows:
        if not pending:
            break
        if state.satisfied:
            break
        ratio = float(
            state.prices[chosen_row] / state.utilities[chosen_row]
        )
        chosen_seller = int(inst.seller_rows[chosen_row])
        if chosen_row in thresholds and chosen_row not in resolved:
            # This winner's replay diverges here: fork a private state
            # with the winner priced +∞ and run its suffix to the end.
            prices = state.prices.copy()
            prices[chosen_row] = math.inf
            fork = state.fork()
            fork.prices = prices
            resolved[chosen_row] = _suffix_replay(
                fork,
                chosen_row,
                thresholds[chosen_row],
                guard_feasibility=guard_feasibility,
                exact_guard=exact_guard,
                ceiling=ceiling,
            )
            pending.remove(chosen_row)
            forks += 1
        survivors = [row for row in pending if row != chosen_row]
        if survivors:
            rows = np.asarray(survivors, dtype=np.int64)
            utilities = np.where(
                state.active[rows], state.utilities[rows], 0
            )
            updatable = utilities > 0
            if guard_feasibility and updatable.any():
                unsafe = state.would_strand_many(rows)
                if exact_guard:
                    for k in np.flatnonzero(updatable & ~unsafe):
                        infinite = inst.bids[int(rows[k])].with_price(
                            math.inf
                        )
                        if not _residual_feasible(
                            infinite,
                            state.active_bids(),
                            state.coverage_view(),
                        ):
                            unsafe[k] = True
                updatable &= ~unsafe
            for k in np.flatnonzero(updatable):
                row = int(rows[k])
                thresholds[row] = max(
                    thresholds[row], int(utilities[k]) * ratio
                )
        state.apply_win(chosen_row)
        for row in list(pending):
            if int(inst.seller_rows[row]) == chosen_seller:
                # A sibling of this bid's seller won: the scalar replay
                # breaks here, freezing the accumulated threshold.
                resolved[row] = thresholds[row]
                pending.remove(row)
        state.remove_seller(chosen_seller)
    for row in pending:
        resolved[row] = thresholds[row]
    if _OBS.enabled:
        metrics = _OBS.metrics
        metrics.counter("engine.columnar.payment_batches").inc()
        metrics.counter("engine.columnar.payment_forks").inc(forks)
        metrics.counter("engine.columnar.payment_prefix_iterations").inc(
            len(traj_rows)
        )
    return [resolved[row] for row in winner_rows]
