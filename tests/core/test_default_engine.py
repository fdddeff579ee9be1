"""The default clearing engine is ``columnar`` everywhere, and it never
opens a payment process pool.

Every public entry point that takes ``engine=`` defaults to the batched
columnar kernels; the process-pool payment path behind ``parallelism=``
is reached only through an explicit ``engine="fast"``.
"""

import inspect

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.baselines.pay_as_bid import run_pay_as_bid
from repro.cli import build_parser
from repro.core import variants
from repro.core.msoa import MultiStageOnlineAuction, run_msoa
from repro.core.ssam import run_ssam
from repro.dist import DistScenario
from repro.edge.platform import PlatformConfig
from repro.experiments.config import ExperimentConfig
from repro.shard import ShardedOnlineAuction, run_sharded_msoa, run_sharded_ssam
from repro.workload import MarketConfig, generate_capacities, generate_round

# Shaped like the benchmark's big-round workload: 4000 bids and about a
# dozen winners, well past the work threshold where "auto" forks a pool
# on the fast engine.
POOL_SIZED = MarketConfig(
    n_sellers=2000, n_buyers=16, demand_units_range=(1, 3), coverage_range=(1, 3)
)


def _default(fn, name="engine"):
    return inspect.signature(fn).parameters[name].default


class TestDefaults:
    @pytest.mark.parametrize(
        "fn",
        [
            run_ssam,
            run_msoa,
            MultiStageOnlineAuction,
            run_sharded_ssam,
            run_sharded_msoa,
            run_pay_as_bid,
            variants.run_msoa_base,
            variants.run_msoa_da,
            variants.run_msoa_rc,
            variants.run_msoa_oa,
        ],
        ids=lambda fn: fn.__name__,
    )
    def test_functions_default_to_columnar(self, fn):
        assert _default(fn) == "columnar"

    def test_sharded_auction_inherits_the_msoa_default(self):
        auction = ShardedOnlineAuction({1: 5}, shards=2)
        assert auction._ssam_options["engine"] == "columnar"

    @pytest.mark.parametrize(
        "config", [PlatformConfig, DistScenario, ExperimentConfig]
    )
    def test_configs_default_to_columnar(self, config):
        assert config().engine == "columnar"

    @pytest.mark.parametrize("command", [["fig", "4a"], ["serve"]])
    def test_cli_engine_flag_defaults_to_columnar(self, command):
        assert build_parser().parse_args(command).engine == "columnar"


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a payment process pool was opened")


@pytest.fixture
def pool_forbidden(monkeypatch):
    # AssertionError is not one of the errors the pool path degrades
    # from, so an attempt to open a pool fails the test loudly.
    monkeypatch.setattr(engine_module, "ProcessPoolExecutor", _NoPool)


class TestNoPaymentPool:
    def test_pool_sized_instance_would_fork_on_fast(self, pool_forbidden):
        instance = generate_round(POOL_SIZED, np.random.default_rng(3))
        with pytest.raises(AssertionError, match="pool was opened"):
            run_ssam(instance, engine="fast")

    def test_default_run_ssam_never_builds_a_pool(self, pool_forbidden):
        instance = generate_round(POOL_SIZED, np.random.default_rng(3))
        outcome = run_ssam(instance)
        assert outcome.satisfied and len(outcome.winners) >= 2

    def test_default_msoa_round_never_builds_a_pool(self, pool_forbidden):
        rng = np.random.default_rng(4)
        auction = MultiStageOnlineAuction(generate_capacities(POOL_SIZED, rng))
        result = auction.process_round(generate_round(POOL_SIZED, rng))
        assert result.outcome.satisfied and len(result.outcome.winners) >= 2
