"""Tests for the campaign entry point, its report and the profile cache.

Worker-count and engine invariance lives in ``test_orchestrator.py``."""

import numpy as np
import pytest

from repro.attack.campaign import (
    profile_cache_key,
    profiled_attack_cached,
    run_campaign,
)
from repro.attack.pipeline import SingleTraceAttack
from repro.attack.profile_store import ProfileStore
from repro.errors import AttackError
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice, effective_engine
from tests.native_probe import pin_threaded

PAPER_Q = 132120577


def fresh_bench():
    return TraceAcquisition(
        GaussianSamplerDevice([PAPER_Q]), scope=Oscilloscope(noise_std=1.0), rng=0
    )


class TestRunCampaign:
    def test_requires_profiling(self, bench):
        with pytest.raises(AttackError):
            run_campaign(SingleTraceAttack(bench), trace_count=2)

    def test_serial_report(self, profiled_attack):
        report = run_campaign(
            profiled_attack, trace_count=12, coeffs_per_trace=4, first_seed=1
        )
        assert report.coefficients_attacked == 12 * 4 - 4 * report.traces_failed
        assert report.traces_attacked + report.traces_failed == 12
        assert 0.0 <= report.value_accuracy <= 1.0
        assert report.sign_accuracy >= 0.95
        assert report.workers == 1
        assert report.coefficients_per_second > 0

    def test_per_stage_timings(self, profiled_attack):
        report = run_campaign(
            profiled_attack, trace_count=4, coeffs_per_trace=3, first_seed=1
        )
        assert set(report.timings) == {"capture", "segment", "classify", "score"}
        assert all(v >= 0 for v in report.timings.values())
        text = report.format_timings()
        for stage in ("capture", "segment", "classify", "wall"):
            assert stage in text
        assert "coefficients/s" in text

    def test_report_hint_statistics(self, profiled_attack):
        report = run_campaign(
            profiled_attack, trace_count=6, coeffs_per_trace=4, first_seed=1
        )
        assert len(report.probability_tables) == report.coefficients_attacked
        stats = report.hint_statistics()
        assert 0.0 <= stats["perfect_fraction"] <= 1.0

    def test_compiled_bit_identical_to_threaded(self, profiled_attack, monkeypatch):
        """The default engine's campaign equals one run where the native
        probe fails, as on a host without a C toolchain."""
        compiled = run_campaign(
            profiled_attack, trace_count=10, coeffs_per_trace=4, first_seed=1
        )
        assert compiled.engine == effective_engine()
        pin_threaded(monkeypatch)
        threaded = run_campaign(
            profiled_attack, trace_count=10, coeffs_per_trace=4, first_seed=1
        )
        assert threaded.engine == "threaded"
        assert [o[:3] for o in threaded.outcomes] == [o[:3] for o in compiled.outcomes]
        for a, b in zip(threaded.outcomes, compiled.outcomes):
            assert a[3] == b[3]
        assert threaded.sign_accuracy == compiled.sign_accuracy
        assert threaded.value_accuracy == compiled.value_accuracy
        assert f"{compiled.engine} engine" in compiled.format_timings()

    def test_summary_mentions_budget(self, profiled_attack):
        report = run_campaign(
            profiled_attack, trace_count=4, coeffs_per_trace=2, first_seed=1
        )
        summary = report.summary()
        assert "traces attacked" in summary
        assert "sign accuracy" in summary


class TestProfileCache:
    def test_miss_then_hit(self, tmp_path):
        first, cached1, report1 = profiled_attack_cached(
            fresh_bench(), tmp_path, num_traces=40, coeffs_per_trace=4,
            first_seed=50_000,
        )
        assert not cached1 and report1 is not None
        second, cached2, report2 = profiled_attack_cached(
            fresh_bench(), tmp_path, num_traces=40, coeffs_per_trace=4,
            first_seed=50_000,
        )
        assert cached2 and report2 is None
        assert second.templates.pois == first.templates.pois
        np.testing.assert_allclose(
            second.templates.precision, first.templates.precision, atol=1e-12
        )
        a = run_campaign(first, trace_count=6, coeffs_per_trace=4, first_seed=1)
        b = run_campaign(second, trace_count=6, coeffs_per_trace=4, first_seed=1)
        assert [o[:3] for o in a.outcomes] == [o[:3] for o in b.outcomes]

    def test_key_sensitive_to_configuration(self, tmp_path):
        bench = fresh_bench()
        attack = SingleTraceAttack(bench)
        base = profile_cache_key(attack, 40, 4, 50_000, "sequential")
        assert profile_cache_key(attack, 41, 4, 50_000, "sequential") != base
        assert profile_cache_key(attack, 40, 4, 50_000, "per-seed") != base
        other = SingleTraceAttack(bench, poi_count=attack.poi_count + 1)
        assert profile_cache_key(other, 40, 4, 50_000, "sequential") != base
        standardized = SingleTraceAttack(bench, standardize=True)
        assert profile_cache_key(standardized, 40, 4, 50_000, "sequential") != base

    @pytest.mark.parametrize("fault", ["garbage", "truncated"])
    def test_corrupt_archive_reprofiles(self, tmp_path, fault):
        """A damaged archive is a miss: the fresh profile equals an
        uncached one and overwrites the archive."""
        kwargs = dict(num_traces=40, coeffs_per_trace=4, first_seed=50_000)
        uncached, _, _ = profiled_attack_cached(
            fresh_bench(), tmp_path / "reference", **kwargs
        )
        store = ProfileStore(tmp_path / "store")
        key = profile_cache_key(
            SingleTraceAttack(fresh_bench()), 40, 4, 50_000, "sequential"
        )
        path = store.save(uncached, key)
        if fault == "garbage":
            path.write_bytes(b"not a profile archive\n" * 4)
        else:
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.load(fresh_bench(), key) is None
        again, cached, report = profiled_attack_cached(
            fresh_bench(), tmp_path / "store", **kwargs
        )
        assert not cached and report is not None
        assert again.templates.pois == uncached.templates.pois
        np.testing.assert_array_equal(
            again.templates.precision, uncached.templates.precision
        )
        for label, mean in uncached.templates.means.items():
            np.testing.assert_array_equal(again.templates.means[label], mean)
        assert store.load(fresh_bench(), key) is not None

    def test_config_change_misses(self, tmp_path):
        profiled_attack_cached(
            fresh_bench(), tmp_path, num_traces=40, coeffs_per_trace=4,
            first_seed=50_000,
        )
        _, cached, _ = profiled_attack_cached(
            fresh_bench(), tmp_path,
            attack_kwargs={"poi_count": 20},
            num_traces=40, coeffs_per_trace=4, first_seed=50_000,
        )
        assert not cached
