"""Tests for the campaign executor: in-process and pooled grains, the
fold, checkpoint/resume and injected faults."""

import json
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.attack import orchestrator
from repro.attack.campaign import run_campaign
from repro.attack.checkpoint import CampaignCheckpoint
from repro.attack.orchestrator import run_orchestrated
from repro.errors import AttackError
from repro.riscv.device import effective_engine
from repro.utils import pool

PAPER_Q = 132120577


@pytest.fixture(scope="module")
def serial_baseline(profiled_attack):
    return run_campaign(
        profiled_attack, trace_count=10, coeffs_per_trace=4, first_seed=1
    )


def assert_reports_identical(a, b):
    """The campaign determinism contract: bit-identical outcomes."""
    for name in ("ok", "values", "signs", "estimates", "tables"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
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

    @pytest.mark.parametrize("engine", ["threaded", "compiled"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_invariant_to_workers_and_engine(
        self, profiled_attack, serial_baseline, workers, engine
    ):
        """In-process and pooled grains, on either capture engine, fold
        the report of a default serial campaign bit for bit."""
        report = run_orchestrated(
            profiled_attack, trace_count=10, coeffs_per_trace=4,
            first_seed=1, workers=workers, grain=3, engine=engine,
        )
        assert_reports_identical(serial_baseline, report)
        assert report.workers == workers
        assert report.engine == effective_engine(engine)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_one_worker_or_fewer_never_forks(
        self, profiled_attack, monkeypatch, workers
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a serial campaign forked a pool")

        monkeypatch.setattr(pool, "process_pool", no_pool)
        report = run_orchestrated(
            profiled_attack, trace_count=4, coeffs_per_trace=4, workers=workers
        )
        assert report.workers == 1
        assert run_campaign(
            profiled_attack, trace_count=4, coeffs_per_trace=4, workers=workers
        ).workers == 1

    def test_workers_clamped_to_trace_count(self, profiled_attack):
        report = run_orchestrated(
            profiled_attack, trace_count=2, coeffs_per_trace=4, workers=8
        )
        assert report.workers == 2

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

    @staticmethod
    def _crash_on_seed_1(monkeypatch, log):
        """Patch ``_attack_seed`` to log every seed it is asked for and
        raise at seed 1."""
        real = orchestrator._attack_seed

        def crash_on_seed_1(attack, seed, *args):
            with open(log, "a") as handle:
                handle.write(f"{seed}\n")
            if seed == 1:
                raise RuntimeError("injected grain crash")
            return real(attack, seed, *args)

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(orchestrator, "_attack_seed", crash_on_seed_1)

    def test_failed_campaign_stops_its_queued_grains(
        self, profiled_attack, monkeypatch, tmp_path
    ):
        """A grain error cancels the grains still queued on the pool
        instead of letting them run to the end."""
        log = tmp_path / "attacked"
        self._crash_on_seed_1(monkeypatch, log)
        with pytest.raises(AttackError, match=r"\[1, 2\)"):
            run_orchestrated(
                profiled_attack, trace_count=80, coeffs_per_trace=4,
                first_seed=1, workers=2, grain=1,
            )
        assert len(log.read_text().split()) < 40

    def test_in_process_grain_error_stops_the_campaign(
        self, profiled_attack, monkeypatch, tmp_path
    ):
        """At one worker a grain error raises the pool's typed error
        and no later grain runs."""
        log = tmp_path / "attacked"
        self._crash_on_seed_1(monkeypatch, log)
        with pytest.raises(AttackError, match=r"\[1, 2\).*RuntimeError"):
            run_orchestrated(
                profiled_attack, trace_count=8, coeffs_per_trace=4,
                first_seed=1, workers=1, grain=1,
            )
        assert log.read_text().split() == ["1"]


def _tear_manifest(directory):
    path = directory / "manifest.json"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _empty_manifest(directory):
    (directory / "manifest.json").write_bytes(b"")


def _fieldless_manifest(directory):
    (directory / "manifest.json").write_text('{"version": 1}')


def _manifest_without(field):
    def fault(directory):
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest[field]
        path.write_text(json.dumps(manifest))

    return fault


def _shard_1(directory):
    return CampaignCheckpoint.resume(directory).shard_path(1)


def _truncate_shard(directory):
    path = _shard_1(directory)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _garbage_shard(directory):
    _shard_1(directory).write_bytes(b"not a shard archive\n" * 64)


def _misshaped_shard(directory):
    path = _shard_1(directory)
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays["tables"] = arrays["tables"][:, :, :-1]  # one label short
    np.savez(path, **arrays)


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

    def test_worker_killed_mid_fold_recovers(self, profiled_attack, monkeypatch):
        """A worker that dies while the caller folds a finished grain
        breaks the pool under the fold; the lost grains rerun on a fresh
        pool and the report is bit-identical."""
        baseline = run_orchestrated(
            profiled_attack, trace_count=24, coeffs_per_trace=4,
            first_seed=1, workers=1, grain=1,
        )
        real = orchestrator._CampaignState.fold
        killed = []

        def fold(state, record):
            if not killed:
                victim = multiprocessing.active_children()[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
                assert not victim.is_alive()
                killed.append(victim.pid)
            real(state, record)

        monkeypatch.setattr(orchestrator._CampaignState, "fold", fold)
        report = run_orchestrated(
            profiled_attack, trace_count=24, coeffs_per_trace=4,
            first_seed=1, workers=2, grain=1,
        )
        assert killed
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


    @pytest.mark.parametrize(
        "fault, recovers",
        [
            pytest.param(_tear_manifest, False, id="torn-manifest"),
            pytest.param(_empty_manifest, False, id="empty-manifest"),
            pytest.param(_fieldless_manifest, False, id="fieldless-manifest"),
            pytest.param(
                _manifest_without("trace_count"), False,
                id="manifest-without-trace-count",
            ),
            pytest.param(_truncate_shard, True, id="truncated-shard"),
            pytest.param(_garbage_shard, True, id="garbage-shard"),
            pytest.param(_misshaped_shard, True, id="misshaped-shard"),
        ],
    )
    def test_corrupt_checkpoint_on_resume(
        self, profiled_attack, tmp_path, fault, recovers
    ):
        """A manifest that does not parse or lacks a field is a typed
        error naming it; a shard archive that does not load, or holds
        another shape, is attacked again and rewritten, and the report
        is unchanged."""
        directory = tmp_path / "camp"

        def run(**resume):
            return run_orchestrated(
                profiled_attack, trace_count=12, coeffs_per_trace=4,
                first_seed=1, workers=1, grain=2,
                campaign_dir=directory, shard_size=4, **resume,
            )

        first = run()
        fault(directory)
        if not recovers:
            with pytest.raises(AttackError, match="manifest.json"):
                run(resume=True)
            return
        resumed = run(resume=True)
        assert_reports_identical(first, resumed)
        assert resumed.orchestrator["checkpoints"] == 1
        assert CampaignCheckpoint.resume(directory).load_shard(1) is not None


    def test_manifest_lacking_a_field_names_it(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"version": 1}')
        with pytest.raises(AttackError, match="lacks field.*fingerprint"):
            CampaignCheckpoint.resume(tmp_path, "0" * 64)


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
