"""Unit tests for the fast-path engine and its incremental index.

The property suite (``tests/properties/test_engine_equivalence.py``)
pins engine↔oracle equivalence statistically; these tests pin the
individual moving parts on hand-built instances — the incremental
bookkeeping, the guard escalation, the payment replay, the process-pool
fan-out, and the ``run_ssam`` option surface (validation + deprecation
shim).
"""

import pytest

from repro.core.bids import Bid
from repro.core.engine import (
    compute_critical_payments,
    fast_critical_payment,
    fast_greedy_selection,
)
from repro.core.ssam import (
    PaymentRule,
    _critical_payment,
    greedy_selection,
    run_ssam,
)
from repro.core.wsp import ActiveBidIndex, CoverageState, WSPInstance
from repro.errors import ConfigurationError, InfeasibleInstanceError


def bid(seller, covered, price, index=0):
    return Bid(seller=seller, index=index, covered=frozenset(covered), price=price)


@pytest.fixture
def market(make_instance):
    return make_instance(42, n_sellers=20, n_buyers=5)


class TestActiveBidIndex:
    BIDS = [
        bid(10, {1, 2}, 12.0),
        bid(11, {1}, 5.0),
        bid(12, {2, 3}, 9.0),
        bid(13, {3}, 4.0),
    ]
    DEMAND = {1: 1, 2: 1, 3: 2}

    def make(self):
        coverage = CoverageState(demand=dict(self.DEMAND))
        return ActiveBidIndex(self.BIDS, coverage), coverage

    def test_initial_utilities_match_rescan(self):
        index, coverage = self.make()
        for bid_id, b in enumerate(self.BIDS):
            assert index.utility(bid_id) == coverage.utility_of(b)

    def test_apply_win_propagates_saturation(self):
        index, coverage = self.make()
        # Winning bid 0 saturates buyers 1 and 2; bid 1 (covers only
        # buyer 1) drops to zero, bid 2 keeps buyer 3's unit.
        gained = index.apply_win(0)
        assert gained == 2
        assert index.utility(1) == 0
        assert index.utility(2) == 1
        for bid_id, b in enumerate(self.BIDS):
            assert index.utility(bid_id) == coverage.utility_of(b)

    def test_remove_seller_deactivates_and_reports(self):
        index, _ = self.make()
        retired = index.remove_seller(12)
        assert retired == [2]
        assert index.active_bid_ids() == [0, 1, 3]
        assert index.remove_seller(12) == []  # idempotent

    def test_would_strand_matches_reference_guard(self):
        from repro.core.ssam import _selection_strands

        index, coverage = self.make()
        active = list(self.BIDS)
        for bid_id, b in enumerate(self.BIDS):
            assert index.would_strand(bid_id) == _selection_strands(
                b, active, coverage
            )

    def test_would_strand_detects_sole_supplier(self):
        # Buyer 1 needs 2 units from distinct sellers, and only sellers
        # 10 and 11 cover it: consuming seller 10 via its buyer-2 bid
        # leaves buyer 1 with a single admissible supplier.
        bids = [
            bid(10, {1}, 6.0, index=0),
            bid(10, {2}, 0.5, index=1),
            bid(11, {1}, 6.0),
            bid(12, {2}, 8.0),
        ]
        coverage = CoverageState(demand={1: 2, 2: 1})
        index = ActiveBidIndex(bids, coverage)
        assert index.would_strand(1)  # seller 10's cheap alternative
        assert not index.would_strand(0)
        assert not index.would_strand(3)


class TestFastGreedySelection:
    def test_matches_reference_on_market(self, market):
        reference = greedy_selection(market.bids, dict(market.demand))
        fast = fast_greedy_selection(market.bids, dict(market.demand))
        assert [s.bid.key for s in fast] == [s.bid.key for s in reference]
        assert [s.ratio for s in fast] == [s.ratio for s in reference]

    def test_infeasible_raises_like_reference(self):
        bids = (bid(10, {1}, 1.0),)
        with pytest.raises(InfeasibleInstanceError):
            fast_greedy_selection(bids, {1: 2})
        assert fast_greedy_selection(bids, {1: 2}, require_feasible=False) != []

    def test_exact_guard_regression_instance(self):
        # The hypothesis-found instance from tests/core/test_guard.py:
        # the cheap guard strands, the exact guard completes.
        bids = (
            bid(100, {2}, 2.0),
            bid(101, {0, 1}, 2.0, index=0),
            bid(101, {2}, 1.0, index=1),
            bid(102, {0}, 1.0, index=0),
            bid(102, {1}, 1.0, index=1),
        )
        demand = {0: 1, 1: 1, 2: 1}
        with pytest.raises(InfeasibleInstanceError):
            fast_greedy_selection(bids, dict(demand))
        fast = fast_greedy_selection(bids, dict(demand), exact_guard=True)
        reference = greedy_selection(bids, dict(demand), exact_guard=True)
        assert [s.bid.key for s in fast] == [s.bid.key for s in reference]


class TestFastCriticalPayment:
    @pytest.mark.parametrize("guard", [True, False])
    def test_matches_reference_per_winner(self, market, guard):
        steps = greedy_selection(
            market.bids, dict(market.demand), guard_feasibility=guard
        )
        for step in steps:
            assert fast_critical_payment(
                market, step.bid, guard_feasibility=guard
            ) == pytest.approx(
                _critical_payment(market, step.bid, guard_feasibility=guard),
                abs=1e-12,
            )

    def test_batch_matches_serial_reference(self, market):
        winners = [s.bid for s in greedy_selection(market.bids, dict(market.demand))]
        fast = compute_critical_payments(market, winners)
        slow = compute_critical_payments(market, winners, use_fast=False)
        assert fast == pytest.approx(slow, abs=1e-12)

    def test_parallel_pool_preserves_order_and_values(self, market):
        winners = [s.bid for s in greedy_selection(market.bids, dict(market.demand))]
        serial = compute_critical_payments(market, winners, parallelism=1)
        parallel = compute_critical_payments(market, winners, parallelism=2)
        assert parallel == pytest.approx(serial, abs=1e-12)


class TestRunSsamOptions:
    def test_parallel_run_identical_to_serial(self, market):
        serial = run_ssam(
            market, payment_rule=PaymentRule.CRITICAL_RERUN, engine="fast"
        )
        parallel = run_ssam(
            market,
            payment_rule=PaymentRule.CRITICAL_RERUN,
            engine="fast",
            parallelism=2,
        )
        assert parallel.to_dict() == serial.to_dict()

    def test_engine_name_validated(self, market):
        with pytest.raises(ConfigurationError):
            run_ssam(market, engine="turbo")

    def test_parallelism_validated(self, market):
        with pytest.raises(ConfigurationError):
            run_ssam(market, parallelism=0)

    def test_positional_payment_rule_deprecated(self, market):
        with pytest.warns(DeprecationWarning):
            legacy = run_ssam(market, PaymentRule.ITERATION_RUNNER_UP)
        modern = run_ssam(market, payment_rule=PaymentRule.ITERATION_RUNNER_UP)
        assert legacy.to_dict() == modern.to_dict()

    def test_extra_positionals_rejected(self, market):
        with pytest.raises(TypeError):
            run_ssam(market, PaymentRule.CRITICAL_RERUN, 4)

    def test_guard_off_raises_on_guard_needing_instance(self):
        # Without the guard (and without escalation) the greedy strands
        # buyer 1's second unit; run_ssam must surface that, not retry.
        instance = WSPInstance.from_bids(
            [
                bid(10, {1}, 6.0, index=0),
                bid(10, {2}, 0.5, index=1),
                bid(11, {1}, 6.0),
                bid(12, {2}, 8.0),
            ],
            {1: 2, 2: 1},
        )
        assert run_ssam(instance).to_dict() == run_ssam(
            instance, engine="reference"
        ).to_dict()
        with pytest.raises(InfeasibleInstanceError):
            run_ssam(instance, guard=False)
