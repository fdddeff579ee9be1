"""Scenario-level regressions for the platform simulation under repro.dist.

Each case replays a :class:`~repro.dist.DistScenario` that once crashed
the synchronous oracle, to its full horizon.
"""

import pytest

from repro.dist import DistScenario, replay_scenario

pytestmark = pytest.mark.dist


def test_allocation_shrink_below_in_service_replays_full_horizon():
    # Seed 10 with three overloaded services shrinks a server's
    # allocation below the requests it has in service; the busy
    # fraction used to exceed 1 and abort the replay in round 12.
    scenario = DistScenario(seed=10, overloaded=(1, 2, 3), horizon_rounds=300)
    reports = replay_scenario(scenario)
    assert len(reports) == scenario.horizon_rounds
