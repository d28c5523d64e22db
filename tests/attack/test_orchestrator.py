"""Tests for the shared-memory, work-stealing campaign orchestrator."""

import asyncio
import dataclasses
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.attack.campaign import run_campaign
from repro.attack.orchestrator import (
    GrainResult,
    JobSpec,
    Orchestrator,
    WorkerFailed,
    WorkerIdle,
    WorkTable,
    run_orchestrated,
)
from repro.errors import AttackError, ParameterError

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


class TestWorkTable:
    def test_owner_claims_bottom_up(self):
        table = WorkTable(capacity=8, workers=2)
        try:
            table.reset([(0, 10)])
            assert table.claim(0, grain=4, min_steal=2) == (0, 4)
            assert table.claim(0, grain=4, min_steal=2) == (4, 8)
            assert table.claim(0, grain=4, min_steal=2) == (8, 10)
            assert table.remaining() == 0
            assert table.counters()["grains"] == 3
            assert table.counters()["steals"] == 0
        finally:
            table.close()

    def test_free_row_then_steal_from_top(self):
        table = WorkTable(capacity=8, workers=2)
        try:
            table.reset([(0, 8), (100, 120)])
            assert table.claim(0, grain=4, min_steal=2) == (0, 4)
            # Worker 1 takes the remaining free row.
            assert table.claim(1, grain=4, min_steal=2) == (100, 104)
            # Worker 0 drains its own row, then must steal from the top
            # of worker 1's row (the fullest).
            assert table.claim(0, grain=4, min_steal=2) == (4, 8)
            assert table.claim(0, grain=4, min_steal=2) == (116, 120)
            assert table.counters()["steals"] == 1
            # The victim's row shrank: its owner continues below the cut.
            assert table.claim(1, grain=20, min_steal=2) == (104, 116)
        finally:
            table.close()

    def test_thief_leaves_min_steal_tail(self):
        table = WorkTable(capacity=8, workers=2)
        try:
            table.reset([(0, 10)])
            assert table.claim(0, grain=8, min_steal=4) == (0, 8)
            # Two seeds remain on worker 0's row: under min_steal, so a
            # thief backs off rather than racing the owner's tail.
            assert table.claim(1, grain=8, min_steal=4) is None
            assert table.claim(0, grain=8, min_steal=4) == (8, 10)
        finally:
            table.close()

    def test_empty_table_returns_none(self):
        table = WorkTable(capacity=4, workers=1)
        try:
            table.reset([])
            assert table.claim(0, grain=4, min_steal=2) is None
        finally:
            table.close()

    def test_requeue_dead_returns_inflight_grain(self):
        table = WorkTable(capacity=8, workers=2)
        try:
            table.reset([(0, 10)])
            assert table.claim(0, grain=4, min_steal=2) == (0, 4)
            assert table.remaining() == 6
            table.requeue_dead(0)
            # The in-flight grain came back as a fresh free row.
            assert table.remaining() == 10
            spans = set()
            while True:
                claim = table.claim(1, grain=16, min_steal=2)
                if claim is None:
                    break
                spans.add(claim)
            assert spans == {(4, 10), (0, 4)}
        finally:
            table.close()

    def test_complete_clears_inflight(self):
        table = WorkTable(capacity=8, workers=2)
        try:
            table.reset([(0, 4)])
            table.claim(0, grain=4, min_steal=2)
            table.complete(0)
            table.requeue_dead(0)  # nothing in flight: no new row
            assert table.remaining() == 0
        finally:
            table.close()

    def test_capacity_overflow_rejected(self):
        table = WorkTable(capacity=2, workers=1)
        try:
            with pytest.raises(ParameterError):
                table.reset([(0, 1), (2, 3), (4, 5)])
        finally:
            table.close()

    def test_pickle_reattaches_by_name(self):
        table = WorkTable(capacity=4, workers=2)
        try:
            table.reset([(7, 9)])
            clone = pickle.loads(pickle.dumps(table))
            try:
                assert clone.name == table.name
                assert clone.capacity == 4
                assert clone.claim(0, grain=4, min_steal=1) == (7, 9)
                # The mutation happened in the shared segment.
                assert table.remaining() == 0
            finally:
                clone.close()
        finally:
            table.close()


class TestMessagePickleBudget:
    """Satellite: the queue carries headers, never arrays (< 1 KB)."""

    MESSAGES = [
        JobSpec(
            job=3,
            first_seed=1,
            trace_count=1_000_000,
            count=8,
            entropy=2**63 - 1,
            grain=64,
            min_steal=8,
            engine="compiled",
            n_labels=83,
            backend="numpy-kernels",
        ),
        GrainResult(worker=7, job=3, slot=15, generation=2**40),
        WorkerIdle(worker=7, job=3),
        WorkerFailed(worker=7, job=3, message="x" * 400),
    ]

    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_under_one_kilobyte(self, message):
        assert len(pickle.dumps(message)) < 1024

    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_no_array_payloads(self, message):
        for field in dataclasses.fields(message):
            assert not isinstance(
                getattr(message, field.name), np.ndarray
            ), f"{type(message).__name__}.{field.name} smuggles an array"


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
            "grain", "shard_size", "steals", "grains", "checkpoints",
            "arena_bytes", "workers_died", "messages",
        ):
            assert key in meta
        assert meta["grain"] == 2
        assert meta["grains"] >= 3
        assert meta["arena_bytes"] > 0
        assert meta["workers_died"] == 0
        text = report.format_timings()
        assert "orchestrator:" in text
        assert "steals=" in text
        assert "arena=" in text

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
