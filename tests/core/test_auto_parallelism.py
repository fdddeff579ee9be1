"""The ``parallelism="auto"`` policy: sizing heuristic and validation.

Process pools only pay off on large instances (the engine bench shows
small cases running slower under forced parallelism than serially), so
``"auto"`` — the new default on :func:`repro.core.ssam.run_ssam` and
:func:`repro.core.msoa.run_msoa` — resolves to serial below the
work threshold and to a bounded worker count above it.  Explicit integer
values keep their exact historical meaning.
"""

import pytest

from repro.core.engine import (
    AUTO_PARALLELISM_THRESHOLD,
    MAX_AUTO_WORKERS,
    resolve_parallelism,
    validate_parallelism,
)
from repro.core.msoa import MultiStageOnlineAuction
from repro.core.ssam import PaymentRule, run_ssam
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig


@pytest.fixture
def market(make_instance):
    return make_instance(42, n_sellers=20, n_buyers=5)


class TestResolve:
    def test_explicit_values_are_honoured_verbatim(self):
        for explicit in (1, 2, 7):
            assert (
                resolve_parallelism(explicit, n_bids=10**6, n_winners=10**3)
                == explicit
            )

    def test_auto_stays_serial_below_the_work_threshold(self):
        assert resolve_parallelism("auto", n_bids=150, n_winners=40) == 1
        assert (
            AUTO_PARALLELISM_THRESHOLD > 150 * 40
        ), "fig4b-sized cases must stay serial"

    def test_auto_stays_serial_with_fewer_than_two_winners(self):
        assert resolve_parallelism("auto", n_bids=10**6, n_winners=1) == 1
        assert resolve_parallelism("auto", n_bids=10**6, n_winners=0) == 1

    def test_auto_engages_workers_on_large_instances(self):
        workers = resolve_parallelism("auto", n_bids=1600, n_winners=400)
        assert 2 <= workers <= MAX_AUTO_WORKERS

    def test_auto_never_outnumbers_the_winners(self):
        assert resolve_parallelism("auto", n_bids=10**6, n_winners=3) <= 3


class TestValidate:
    @pytest.mark.parametrize("good", ["auto", 1, 2, 16])
    def test_accepts_auto_and_positive_ints(self, good):
        validate_parallelism(good)  # must not raise

    @pytest.mark.parametrize("bad", [0, -3, "fast", 2.5, True, None])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ConfigurationError):
            validate_parallelism(bad)


class TestEntryPoints:
    def test_auto_default_matches_forced_serial(self, market):
        # parallelism acts only on the fast engine (columnar is the default).
        auto = run_ssam(
            market, payment_rule=PaymentRule.CRITICAL_RERUN, engine="fast"
        )
        serial = run_ssam(
            market,
            payment_rule=PaymentRule.CRITICAL_RERUN,
            engine="fast",
            parallelism=1,
        )
        assert auto.to_dict() == serial.to_dict()

    def test_run_ssam_validates_auto_spelling(self, market):
        with pytest.raises(ConfigurationError):
            run_ssam(market, parallelism="turbo")

    def test_msoa_accepts_auto(self):
        auction = MultiStageOnlineAuction({1: 4.0}, parallelism="auto")
        assert auction._ssam_options["parallelism"] == "auto"
        with pytest.raises(ConfigurationError):
            MultiStageOnlineAuction({1: 4.0}, parallelism=0)

    def test_experiment_config_accepts_auto(self):
        assert ExperimentConfig(parallelism="auto").parallelism == "auto"
        assert ExperimentConfig().parallelism == 1  # sweep default unchanged
        with pytest.raises(ConfigurationError):
            ExperimentConfig(parallelism=0)
