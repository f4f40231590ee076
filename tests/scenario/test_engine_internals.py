"""Edge-case tests for engine internals and scenario plumbing."""

import numpy as np
import pytest

from repro import ScenarioConfig, quiet_config, simulate
from repro.scenario.engine import window_dates
from repro.util import TimeGrid, utc


class TestWindowDates:
    def test_canonical_window(self):
        grid = TimeGrid.paper_window()
        days, baseline = window_dates(grid)
        assert days == ["2015-11-30", "2015-12-01"]
        assert len(baseline) == 7
        assert baseline[0] == "2015-11-23"
        assert baseline[-1] == "2015-11-29"

    def test_june_window(self):
        grid = TimeGrid(start=utc(2016, 6, 24), bin_seconds=600,
                        n_bins=288)
        days, _ = window_dates(grid)
        assert days == ["2016-06-24", "2016-06-25"]


class TestEventMask:
    def test_scenario_event_mask_matches_config(self):
        result = simulate(
            ScenarioConfig(seed=2, n_stubs=80, n_vps=50,
                           letters=("K",), include_nl=False)
        )
        mask = result.event_mask()
        assert mask.sum() == 22  # 160 + 60 minutes of 10-minute bins
        assert result.event_intervals()[0].seconds == 160 * 60

    def test_quiet_scenario_has_empty_mask(self):
        result = simulate(
            quiet_config(seed=2, n_stubs=80, n_vps=50,
                         letters=("K",), include_nl=False)
        )
        assert not result.event_mask().any()
        # And no policy ever fires.
        assert not result.deployments["K"].policy_log


class TestControllerPlumbing:
    def test_bad_controller_return_type_rejected(self):
        class BrokenController:
            def decide(self, observation):
                return ["withdraw LHR"]  # not Action objects

        with pytest.raises(TypeError):
            simulate(
                ScenarioConfig(
                    seed=2, n_stubs=80, n_vps=50, letters=("K",),
                    include_nl=False,
                    controllers={"K": BrokenController()},
                )
            )

    def test_controller_only_affects_its_letter(self):
        from repro.defense import NullController

        result = simulate(
            ScenarioConfig(
                seed=2, n_stubs=120, n_vps=60, letters=("H", "K"),
                include_nl=False,
                controllers={"K": NullController()},
            )
        )
        # K is frozen by its controller; H's static policies still run.
        assert not result.deployments["K"].policy_log
        assert result.deployments["H"].policy_log

    def test_partial_and_restore_actions(self):
        from repro.defense import Action, ActionKind

        class PartialOnce:
            def __init__(self):
                self.fired = False

            def decide(self, observation):
                if not self.fired and observation.bin_index >= 42:
                    self.fired = True
                    return [
                        Action(ActionKind.PARTIAL, "LHR"),
                        Action(ActionKind.RESTORE, "FRA"),
                    ]
                return []

        result = simulate(
            ScenarioConfig(
                seed=2, n_stubs=120, n_vps=60, letters=("K",),
                include_nl=False,
                controllers={"K": PartialOnce()},
            )
        )
        assert result.deployments["K"].states["LHR"].partial


class TestTruthIntegrity:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate(
            ScenarioConfig(seed=5, n_stubs=120, n_vps=60,
                           letters=("E", "K"), include_nl=False)
        )

    def test_catchment_history_shapes(self, result):
        truth = result.truth["K"]
        n_epochs = truth.stub_site_by_epoch.shape[0]
        assert truth.stub_site_by_epoch.shape[1] == len(
            result.topology.stub_asns
        )
        assert truth.epoch_of_bin.max() < n_epochs
        assert truth.epoch_of_bin.min() >= 0

    def test_stub_site_consistent_with_catchments(self, result):
        truth = result.truth["K"]
        # Every recorded site index is valid or -1.
        assert truth.stub_site_by_epoch.max() < len(truth.site_codes)
        assert truth.stub_site_by_epoch.min() >= -1

    def test_epochs_change_with_policies(self, result):
        # K's partial withdrawals create multiple routing epochs.
        truth = result.truth["K"]
        assert len(np.unique(truth.epoch_of_bin)) >= 2

    def test_legit_conservation(self, result):
        truth = result.truth["K"]
        assert (truth.legit_served_qps <= truth.legit_offered_qps
                + 1e-6).all()
        assert (truth.legit_offered_qps >= 0).all()


#: Relative slack for legit served vs offered: served load is summed
#: over per-stub site shares, which rounds a few ulps either way.
ROUNDING = 1e-9


def _controlled_config():
    """A small scenario with a controller and a fault plan, which
    forces the per-bin path and exercises fault-driven re-routing."""
    from repro import BgpSessionReset, FaultPlan, SiteFailure, VpDropout
    from repro.defense import GreedyShedController
    from repro.util.timegrid import EVENT_WINDOW_START as w

    hour = 3600
    return ScenarioConfig(
        seed=6, n_stubs=120, n_vps=60, include_nl=False,
        controllers={"K": GreedyShedController()},
        faults=FaultPlan(
            specs=(
                SiteFailure(letter="K", site="AMS", start=w + 12 * hour,
                            duration_s=2 * hour),
                BgpSessionReset(letter="K", site="LHR",
                                start=w + 15 * hour, duration_s=1800),
                VpDropout(start=w + 18 * hour, duration_s=hour,
                          fraction=0.5),
            )
        ),
    )


class TestPhysicalInvariants:
    """Every letter's truth series obey the physics on every engine
    path: the batched default, the per-bin reference
    (``REPRO_ENGINE_BATCH=0``) and a controlled, faulted run."""

    @pytest.fixture(
        scope="class", params=["batched", "per-bin", "controlled"]
    )
    def result(self, request):
        if request.param == "controlled":
            return simulate(_controlled_config())
        config = ScenarioConfig(seed=5, n_stubs=120, n_vps=60)
        if request.param == "batched":
            return simulate(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_ENGINE_BATCH", "0")
            return simulate(config)

    def test_legit_served_within_offered(self, result):
        for letter in result.letters:
            truth = result.truth[letter]
            offered = truth.legit_offered_qps
            assert (offered >= 0).all(), letter
            assert (
                truth.legit_served_qps <= offered * (1 + ROUNDING)
            ).all(), letter

    def test_loss_is_a_fraction(self, result):
        for letter in result.letters:
            loss = result.truth[letter].loss
            assert ((loss >= 0.0) & (loss <= 1.0)).all(), letter

    def test_delay_within_buffer_cap(self, result):
        buffer_ms = result.config.overload.buffer_ms
        for letter in result.letters:
            cap = result.deployments[letter].buffer_caps(buffer_ms)
            assert (result.truth[letter].delay_ms <= cap).all(), letter
