"""Dense-deployment interference campaign: seeding, trial averaging and
measured-loss behaviour (the ext_interference bugfixes)."""

from __future__ import annotations

import pytest

from repro.experiments import ext_interference
from repro.stats.montecarlo import derive_seed
from repro.stats.sweep import SWEEP_POINT_STREAM


@pytest.fixture
def tiny_campaign(monkeypatch):
    monkeypatch.setattr(ext_interference, "PICONET_COUNTS", [1, 3])
    monkeypatch.setattr(ext_interference, "OBSERVE_SLOTS", 600)
    monkeypatch.delenv("REPRO_TRIALS", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)


class TestSeeding:
    def test_trials_honored_and_rows_trial_averaged(self, tiny_campaign):
        result = ext_interference.run(trials=2, seed=5, jobs=1)
        assert [row[0] for row in result.rows] == [1, 3]
        assert all(row[-1] == "2/2" for row in result.rows), \
            "run(trials=2) must execute (and report) 2 trials per point"

    def test_point_seeds_use_two_level_derivation(self, tiny_campaign):
        """Trial seeds must come from the collision-free splitmix64 path
        (derive_seed over sweep-point coordinates), not ``seed + index``."""
        seen = []
        original = ext_interference.run_point

        def recording(n_piconets, seed):
            seen.append((n_piconets, seed))
            return original(n_piconets, seed)

        ext_interference.run_point = recording
        try:
            ext_interference.run(trials=2, seed=5, jobs=1)
        finally:
            ext_interference.run_point = original
        expected = []
        for point_index in range(2):
            point_master = derive_seed(5, point_index,
                                       stream=SWEEP_POINT_STREAM)
            for trial in range(2):
                expected.append(derive_seed(point_master, trial))
        assert sorted(seed for _, seed in seen) == sorted(expected)
        assert not any(seed in (5, 6) for _, seed in seen), \
            "legacy seed+index arithmetic resurfaced"

    def test_deterministic_across_reruns(self, tiny_campaign):
        first = ext_interference.run(trials=2, seed=9, jobs=1)
        second = ext_interference.run(trials=2, seed=9, jobs=1)
        assert first.rows == second.rows


class TestAnalyticPer:
    def test_closed_form_against_the_interferer_count(self):
        per = ext_interference.analytic_per
        assert per(1) == 0.0  # alone on the air
        assert per(2) == pytest.approx(1 / 79)
        assert per(20) == pytest.approx(1 - (78 / 79) ** 19)
        values = [per(n) for n in range(1, 40)]
        assert values == sorted(values) and values[-1] < 1.0
        with pytest.raises(ValueError):
            per(0)


class TestMeasuredLoss:
    def test_run_point_reports_real_loss(self, tiny_campaign):
        goodput, loss, tx, rx, collisions = ext_interference.run_point(3, 77)
        assert tx > 0 and 0 <= rx <= tx
        assert loss == pytest.approx(1.0 - rx / tx)
        assert goodput > 0

    def test_alone_point_has_negligible_loss(self, tiny_campaign):
        _, loss, tx, _, collisions = ext_interference.run_point(1, 13)
        assert tx > 0
        assert loss == pytest.approx(0.0, abs=0.02)
        assert collisions == 0

    def test_loss_column_reflects_measurement(self, tiny_campaign):
        result = ext_interference.run(trials=2, seed=5, jobs=1)
        per_column = [row[4] for row in result.rows]
        assert per_column[0] == pytest.approx(0.0, abs=2.0)
        assert per_column[1] > per_column[0], \
            "interfered point must show measured (non-zero) packet loss"

    def test_all_failed_baseline_yields_nan_loss_not_poison(
            self, tiny_campaign, monkeypatch):
        # regression: with zero successful trials the baseline point's
        # conditional mean is the flagged NaN — and NaN is *truthy*, so a
        # bare ``if baseline`` guard would divide by it and quietly poison
        # the loss column; the row must show NaN explicitly instead
        import math

        from repro.stats.montecarlo import TrialOutcome

        def all_fail(x, seed):
            return TrialOutcome(seed=seed, success=False, value=0.0,
                                extra=(0.0, 0, 0, 0))

        monkeypatch.setattr(ext_interference, "run_trial", all_fail)
        result = ext_interference.run(trials=2, seed=5, jobs=1)
        assert [row[-1] for row in result.rows] == ["0/2", "0/2"]
        assert all(math.isnan(row[3]) for row in result.rows), \
            "loss vs a NaN baseline must surface as NaN, not a number"


@pytest.fixture
def tiny_spatial_campaign(monkeypatch):
    monkeypatch.setattr(ext_interference, "SPATIAL_RADII", [1.0, 8.0])
    monkeypatch.setattr(ext_interference, "SPATIAL_COUNTS", [2, 8])
    monkeypatch.setattr(ext_interference, "OBSERVE_SLOTS", 1200)
    monkeypatch.delenv("REPRO_TRIALS", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)


class TestSpatialCampaign:
    def test_per_falls_monotonically_with_radius(self):
        """The acceptance curve: at fixed piconet count, opening the
        deployment ring must never raise PER — and the widest ring must
        be strictly better than the tightest.  Packet counts are pooled
        over a few seeds per radius, matching the campaign's trial
        aggregation (a single seed's loss between two radii that are
        both inside the capture zone is hop-collision noise)."""
        losses = []
        for radius in [1.0, 2.0, 4.0, 8.0]:
            tx_total = rx_total = 0
            for seed in (5, 7, 11):
                _, _, tx, rx, _ = ext_interference.run_spatial_point(
                    8, radius, seed)
                tx_total += tx
                rx_total += rx
            assert tx_total > 0
            losses.append(1.0 - rx_total / tx_total)
        assert all(a >= b - 0.005 for a, b in zip(losses, losses[1:])), \
            f"PER must be non-increasing in radius, got {losses}"
        assert losses[0] > losses[-1] + 0.01, \
            "tight ring must show strictly more loss than the wide one"

    def test_spread_deployment_beats_colocated(self, tiny_spatial_campaign):
        """The spatial point at a wide radius must out-deliver the
        co-located (flat) campaign point with the same piconet count."""
        flat_goodput, flat_loss, *_ = ext_interference.run_point(8, 5)
        spread_goodput, spread_loss, *_ = \
            ext_interference.run_spatial_point(8, 8.0, 5)
        assert spread_loss <= flat_loss
        assert spread_goodput > 0

    def test_run_spatial_reports_both_sweeps(self, tiny_spatial_campaign):
        result = ext_interference.run_spatial(trials=2, seed=5, jobs=1)
        labels = [row[0] for row in result.rows]
        assert labels == ["r=1 m", "r=8 m", "n=2", "n=8"]
        assert all(row[-1] == "2/2" for row in result.rows)
        # radius half: wider ring no worse than the tight one
        per_by_label = {row[0]: row[3] for row in result.rows}
        assert per_by_label["r=8 m"] <= per_by_label["r=1 m"]

    def test_registry_exposes_spatial_campaign(self):
        from repro.experiments.registry import EXPERIMENTS

        run_fn, description = EXPERIMENTS["ext_interference_spatial"]
        assert run_fn is ext_interference.run_spatial
        assert "PER" in description
