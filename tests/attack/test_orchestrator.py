"""Tests for the warm-pool campaign orchestrator."""

import asyncio
import os
import signal
import time

import pytest

from repro.attack import orchestrator
from repro.attack.campaign import run_campaign
from repro.attack.orchestrator import Orchestrator, run_orchestrated
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

        with pytest.raises(AttackError):
            Orchestrator(SingleTraceAttack(bench))

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

    def test_warm_resubmit_reuses_workers(self, profiled_attack):
        with Orchestrator(profiled_attack, workers=2, grain=2) as orch:
            first = orch.submit(6, coeffs_per_trace=4, first_seed=1).result()
            pids = sorted(orch.worker_pids())
            second = orch.submit(6, coeffs_per_trace=4, first_seed=1).result()
            assert sorted(orch.worker_pids()) == pids
        assert_reports_identical(first, second)

    def test_single_flight_submit(self, profiled_attack):
        with Orchestrator(profiled_attack, workers=1, grain=2) as orch:
            job = orch.submit(6, coeffs_per_trace=4, first_seed=1)
            with pytest.raises(AttackError):
                orch.submit(4, coeffs_per_trace=4, first_seed=1)
            job.result()

    def test_progress_and_status(self, profiled_attack):
        with Orchestrator(profiled_attack, workers=1, grain=2) as orch:
            job = orch.submit(6, coeffs_per_trace=4, first_seed=1)
            job.result()
            progress = job.progress()
        assert job.status == "completed"
        assert progress.seeds_done == progress.seeds_total == 6
        assert progress.workers_died == 0
        assert progress.wall_seconds > 0

    def test_crashing_grain_fails_job_then_pool_serves_next(
        self, profiled_attack, monkeypatch
    ):
        """A non-AttackError raised inside a worker grain fails the job
        with a typed error naming the exception and the grain's seeds;
        the same orchestrator then completes a fresh campaign."""
        real = orchestrator._attack_seed

        def crash_on_seed_5(attack, seed, *args):
            if seed == 5:
                raise RuntimeError("injected grain crash")
            return real(attack, seed, *args)

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(orchestrator, "_attack_seed", crash_on_seed_5)
        with Orchestrator(profiled_attack, workers=2, grain=2) as orch:
            job = orch.submit(8, coeffs_per_trace=4, first_seed=1)
            with pytest.raises(AttackError, match=r"\[5, 7\).*RuntimeError"):
                job.result(timeout=60)
            assert job.status == "failed"
            report = orch.submit(
                6, coeffs_per_trace=4, first_seed=100
            ).result(timeout=60)
        baseline = run_campaign(
            profiled_attack, trace_count=6, coeffs_per_trace=4, first_seed=100
        )
        assert_reports_identical(baseline, report)

    def test_awaitable_from_asyncio(self, profiled_attack):
        async def drive():
            with Orchestrator(profiled_attack, workers=1, grain=4) as orch:
                job = orch.submit(4, coeffs_per_trace=4, first_seed=1)
                return await job

        report = asyncio.run(drive())
        baseline = run_campaign(
            profiled_attack, trace_count=4, coeffs_per_trace=4, first_seed=1
        )
        assert_reports_identical(baseline, report)


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

    def test_cancel_then_resume_bit_identical(self, profiled_attack, tmp_path):
        baseline = run_orchestrated(
            profiled_attack, trace_count=20, coeffs_per_trace=4,
            first_seed=1, workers=1, grain=2,
        )
        directory = tmp_path / "camp"
        with Orchestrator(profiled_attack, workers=2, grain=2) as orch:
            job = orch.submit(
                20, coeffs_per_trace=4, first_seed=1,
                campaign_dir=directory, shard_size=4,
            )
            deadline = time.monotonic() + 60
            while (
                job.progress().seeds_done < 2
                and not job.done
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            job.cancel()
            try:
                early = job.result(timeout=60)
            except AttackError:
                early = None
        if early is not None:
            # The job outran the cancel: still must match the baseline.
            assert_reports_identical(baseline, early)
            return
        assert job.status == "cancelled"
        resumed = run_orchestrated(
            profiled_attack, trace_count=20, coeffs_per_trace=4,
            first_seed=1, workers=2, grain=2,
            campaign_dir=directory, resume=True, shard_size=4,
        )
        assert_reports_identical(baseline, resumed)

    def test_sigkilled_worker_mid_shard_recovers(
        self, profiled_attack, tmp_path
    ):
        """Satellite: SIGKILL a worker mid-shard; the resumed/recovered
        campaign is bit-identical to an uninterrupted single-worker run."""
        baseline = run_orchestrated(
            profiled_attack, trace_count=24, coeffs_per_trace=4,
            first_seed=1, workers=1, grain=2,
        )
        with Orchestrator(profiled_attack, workers=2, grain=2) as orch:
            job = orch.submit(
                24, coeffs_per_trace=4, first_seed=1,
                campaign_dir=tmp_path / "camp", shard_size=6,
            )
            deadline = time.monotonic() + 60
            while (
                job.progress().seeds_done < 2
                and not job.done
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert not job.done, "campaign finished before the kill"
            os.kill(job.worker_pids()[0], signal.SIGKILL)
            report = job.result(timeout=120)
        assert report.orchestrator["workers_died"] == 1
        assert_reports_identical(baseline, report)

    def test_worker_killed_between_jobs_recovers(self, profiled_attack):
        """A worker that dies while the pool is idle breaks it; the next
        submit forks a fresh pool instead of failing."""
        with Orchestrator(profiled_attack, workers=2, grain=2) as orch:
            first = orch.submit(6, coeffs_per_trace=4, first_seed=1).result(
                timeout=60
            )
            victim = orch.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while victim in orch.worker_pids() and time.monotonic() < deadline:
                time.sleep(0.01)
            second = orch.submit(6, coeffs_per_trace=4, first_seed=1).result(
                timeout=60
            )
            assert victim not in orch.worker_pids()
        assert second.orchestrator["workers_died"] == 1
        assert_reports_identical(first, second)
