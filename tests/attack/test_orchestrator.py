"""Tests for the orchestrated (process-pool) campaign executor."""

import os
import signal

import pytest

from repro.attack import orchestrator
from repro.attack.campaign import run_campaign
from repro.attack.checkpoint import CampaignCheckpoint
from repro.attack.orchestrator import run_orchestrated
from repro.errors import AttackError

PAPER_Q = 132120577


def assert_reports_identical(a, b):
    """The campaign determinism contract: bit-identical outcomes."""
    assert [o[:3] for o in a.outcomes] == [o[:3] for o in b.outcomes]
    for left, right in zip(a.outcomes, b.outcomes):
        assert left[3] == right[3]  # probability tables, exact
    assert a.sign_accuracy == b.sign_accuracy
    assert a.value_accuracy == b.value_accuracy
    assert a.confusion.counts() == b.confusion.counts()
    assert a.failures == b.failures


class TestOrchestrated:
    def test_requires_profiling(self, bench):
        from repro.attack.pipeline import SingleTraceAttack

        with pytest.raises(AttackError, match="profile"):
            run_orchestrated(SingleTraceAttack(bench), trace_count=4)

    def test_bit_identical_to_run_campaign(self, profiled_attack):
        baseline = run_campaign(
            profiled_attack, trace_count=10, coeffs_per_trace=4, first_seed=1
        )
        report = run_orchestrated(
            profiled_attack,
            trace_count=10,
            coeffs_per_trace=4,
            first_seed=1,
            workers=2,
            grain=3,
        )
        assert_reports_identical(baseline, report)
        assert report.workers == 2

    def test_worker_count_invariant(self, profiled_attack):
        solo = run_orchestrated(
            profiled_attack, trace_count=8, coeffs_per_trace=4,
            first_seed=40, workers=1, grain=2,
        )
        duo = run_orchestrated(
            profiled_attack, trace_count=8, coeffs_per_trace=4,
            first_seed=40, workers=2, grain=2,
        )
        assert_reports_identical(solo, duo)

    def test_report_carries_orchestrator_metadata(self, profiled_attack):
        report = run_orchestrated(
            profiled_attack, trace_count=6, coeffs_per_trace=4,
            first_seed=1, workers=2, grain=2,
        )
        meta = report.orchestrator
        assert meta is not None
        for key in (
            "grain", "shard_size", "grains", "checkpoints", "workers_died",
        ):
            assert key in meta
        assert meta["grain"] == 2
        assert meta["grains"] >= 3
        assert meta["workers_died"] == 0
        text = report.format_timings()
        assert "orchestrator:" in text
        assert "grains=" in text

    def test_crashing_grain_raises_typed_error(self, profiled_attack, monkeypatch):
        """A non-AttackError raised inside a worker grain fails the
        campaign with a typed error naming the exception and the grain's
        seeds."""
        real = orchestrator._attack_seed

        def crash_on_seed_5(attack, seed, *args):
            if seed == 5:
                raise RuntimeError("injected grain crash")
            return real(attack, seed, *args)

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(orchestrator, "_attack_seed", crash_on_seed_5)
        with pytest.raises(AttackError, match=r"\[5, 7\).*RuntimeError"):
            run_orchestrated(
                profiled_attack, trace_count=8, coeffs_per_trace=4,
                first_seed=1, workers=2, grain=2,
            )

    def test_failed_campaign_stops_its_queued_grains(
        self, profiled_attack, monkeypatch, tmp_path
    ):
        """A grain error cancels the grains still queued on the pool
        instead of letting them run to the end."""
        real = orchestrator._attack_seed
        log = tmp_path / "attacked"

        def crash_on_seed_1(attack, seed, *args):
            with open(log, "a") as handle:
                handle.write(f"{seed}\n")
            if seed == 1:
                raise RuntimeError("injected grain crash")
            return real(attack, seed, *args)

        monkeypatch.setattr(orchestrator, "_attack_seed", crash_on_seed_1)
        with pytest.raises(AttackError, match=r"\[1, 2\)"):
            run_orchestrated(
                profiled_attack, trace_count=40, coeffs_per_trace=4,
                first_seed=1, workers=1, grain=1,
            )
        assert len(log.read_text().split()) < 40


class TestCheckpointResume:
    def test_checkpointed_run_bit_identical(self, profiled_attack, tmp_path):
        baseline = run_orchestrated(
            profiled_attack, trace_count=10, coeffs_per_trace=4,
            first_seed=1, workers=1, grain=2,
        )
        report = run_orchestrated(
            profiled_attack, trace_count=10, coeffs_per_trace=4,
            first_seed=1, workers=2, grain=2,
            campaign_dir=tmp_path / "camp", shard_size=4,
        )
        assert_reports_identical(baseline, report)
        assert report.orchestrator["checkpoints"] == 3
        assert (tmp_path / "camp" / "manifest.json").exists()

    def test_resume_of_complete_campaign_is_instant(
        self, profiled_attack, tmp_path
    ):
        directory = tmp_path / "camp"
        first = run_orchestrated(
            profiled_attack, trace_count=8, coeffs_per_trace=4,
            first_seed=1, workers=1, grain=2,
            campaign_dir=directory, shard_size=4,
        )
        resumed = run_orchestrated(
            profiled_attack, trace_count=8, coeffs_per_trace=4,
            first_seed=1, workers=2, grain=2,
            campaign_dir=directory, resume=True, shard_size=4,
        )
        assert_reports_identical(first, resumed)
        # Nothing was re-attacked: no new grains were claimed.
        assert resumed.orchestrator["grains"] == first.orchestrator["grains"]

    def test_resume_rejects_other_fingerprint(self, profiled_attack, tmp_path):
        directory = tmp_path / "camp"
        run_orchestrated(
            profiled_attack, trace_count=6, coeffs_per_trace=4,
            first_seed=1, workers=1, campaign_dir=directory, shard_size=3,
        )
        with pytest.raises(AttackError, match="fingerprint"):
            run_orchestrated(
                profiled_attack, trace_count=7, coeffs_per_trace=4,
                first_seed=1, workers=1, campaign_dir=directory,
                resume=True, shard_size=3,
            )

    def test_resume_without_dir_rejected(self, profiled_attack):
        with pytest.raises(AttackError, match="campaign_dir"):
            run_orchestrated(
                profiled_attack, trace_count=4, coeffs_per_trace=4,
                resume=True,
            )

    def test_sigkilled_worker_mid_shard_recovers(
        self, profiled_attack, monkeypatch, tmp_path
    ):
        """A worker SIGKILLs itself once, mid-shard: the pool breaks, a
        fresh one reruns the lost grains, and the report is
        bit-identical to an uninterrupted single-worker run."""
        baseline = run_orchestrated(
            profiled_attack, trace_count=24, coeffs_per_trace=4,
            first_seed=1, workers=1, grain=2,
        )
        monkeypatch.setattr(
            orchestrator, "_attack_seed", _kill_worker_at_seed_7(tmp_path / "killed")
        )
        report = run_orchestrated(
            profiled_attack, trace_count=24, coeffs_per_trace=4,
            first_seed=1, workers=2, grain=2,
            campaign_dir=tmp_path / "camp", shard_size=6,
        )
        assert (tmp_path / "killed").exists()
        assert report.orchestrator["workers_died"] == 1
        assert_reports_identical(baseline, report)

    def test_grain_that_always_kills_its_worker_fails(
        self, profiled_attack, monkeypatch
    ):
        """A grain that kills its worker on every attempt breaks each
        fresh pool before any grain completes: the campaign fails with
        a typed error instead of forking pools forever."""
        monkeypatch.setattr(
            orchestrator, "_attack_seed", _kill_worker_at_seed_7(marker=None)
        )
        with pytest.raises(AttackError, match="broke twice"):
            run_orchestrated(
                profiled_attack, trace_count=24, coeffs_per_trace=4,
                first_seed=1, workers=2, grain=2,
            )

    def test_failed_grain_then_resume_bit_identical(
        self, profiled_attack, monkeypatch, tmp_path
    ):
        """A grain error fails a checkpointed campaign; the shards it
        wrote stay valid, and resuming without the fault reproduces the
        uninterrupted report."""
        baseline = run_orchestrated(
            profiled_attack, trace_count=24, coeffs_per_trace=4,
            first_seed=1, workers=1, grain=2,
        )
        real = orchestrator._attack_seed

        def crash_on_seed_17(attack, seed, *args):
            if seed == 17:
                raise RuntimeError("injected grain crash")
            return real(attack, seed, *args)

        directory = tmp_path / "camp"
        with monkeypatch.context() as patch:
            patch.setattr(orchestrator, "_attack_seed", crash_on_seed_17)
            with pytest.raises(AttackError, match=r"\[17, 19\).*RuntimeError"):
                run_orchestrated(
                    profiled_attack, trace_count=24, coeffs_per_trace=4,
                    first_seed=1, workers=2, grain=2,
                    campaign_dir=directory, shard_size=4,
                )
        # Shard 4 holds seeds 17..20, so it cannot have been written.
        assert 4 not in CampaignCheckpoint.resume(directory).shards_done
        resumed = run_orchestrated(
            profiled_attack, trace_count=24, coeffs_per_trace=4,
            first_seed=1, workers=2, grain=2,
            campaign_dir=directory, resume=True, shard_size=4,
        )
        assert_reports_identical(baseline, resumed)


def _kill_worker_at_seed_7(marker):
    """An ``_attack_seed`` that SIGKILLs its worker at seed 7: once if
    ``marker`` names a file to create (``O_EXCL`` makes the first
    attempt the only one), on every attempt if it is ``None``."""
    real = orchestrator._attack_seed

    def attack_seed(attack, seed, *args):
        if seed == 7:
            try:
                if marker is not None:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(attack, seed, *args)

    return attack_seed
