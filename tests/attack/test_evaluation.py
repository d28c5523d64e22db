"""Tests for campaign evaluation: accuracies, hints and bikz on a
serial :class:`~repro.attack.campaign.CampaignReport`."""

import pytest

from repro.attack.campaign import run_campaign
from repro.attack.pipeline import SingleTraceAttack
from repro.errors import AttackError


@pytest.fixture(scope="module")
def campaign(bench, profiled_attack):
    return run_campaign(profiled_attack, trace_count=12, coeffs_per_trace=4,
                        first_seed=8000)


class TestCampaign:
    def test_requires_profiling(self, bench):
        with pytest.raises(AttackError):
            run_campaign(SingleTraceAttack(bench), trace_count=1)

    def test_counts(self, campaign):
        assert campaign.coefficients_attacked == 48
        assert len(campaign.probability_tables) == 48
        assert campaign.confusion.total() == 48

    def test_accuracies_in_expected_regime(self, campaign):
        assert campaign.sign_accuracy >= 0.95
        assert 0.2 <= campaign.value_accuracy <= 1.0

    def test_hint_statistics(self, campaign):
        stats = campaign.hint_statistics()
        assert 0.05 < stats["perfect_fraction"] < 0.9
        assert stats["mean_approximate_variance"] > 0

    def test_bikz_estimate_below_no_hints(self, campaign):
        from repro.hints.estimator import beta_for_dbdd
        from repro.hints.security import seal_128_dbdd

        beta = campaign.estimate_bikz()
        assert beta < beta_for_dbdd(seal_128_dbdd())

    def test_summary_renders(self, campaign):
        text = campaign.summary()
        assert "sign accuracy" in text
        assert "value accuracy" in text
