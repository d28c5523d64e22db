"""Tests for the on-disk profile store (naming, round trip, atomicity)."""

import multiprocessing

from repro.attack.pipeline import SingleTraceAttack
from repro.attack.profile_store import ProfileStore
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice

PAPER_Q = 132120577

KEY_A = "a" * 64


def fresh_bench():
    return TraceAcquisition(
        GaussianSamplerDevice([PAPER_Q]), scope=Oscilloscope(noise_std=1.0), rng=0
    )


class TestNaming:
    def test_legacy_compatible_paths(self, tmp_path):
        store = ProfileStore(tmp_path)
        path = store.path_for(KEY_A)
        assert path.name == f"profile-{'a' * 16}.npz"
        assert path.parent == tmp_path
        assert not store.contains(KEY_A)


class TestSaveLoad:
    def test_roundtrip_and_miss(self, bench, profiled_attack, tmp_path):
        store = ProfileStore(tmp_path)
        assert store.load(bench, KEY_A) is None
        store.save(profiled_attack, KEY_A)
        loaded = store.load(bench, KEY_A)
        assert loaded is not None
        assert list(loaded.templates.labels) == list(
            profiled_attack.templates.labels
        )
        assert loaded.branch_classifier is not None

    def test_save_leaves_no_temp_files(self, profiled_attack, tmp_path):
        store = ProfileStore(tmp_path)
        store.save(profiled_attack, KEY_A)
        assert [p.name for p in tmp_path.iterdir()] == [
            store.path_for(KEY_A).name
        ]


def _stress_writer(directory, key, barrier):
    """Profile a tiny attack and hammer the store with saves."""
    bench = fresh_bench()
    attack = SingleTraceAttack(bench, poi_count=8)
    attack.profile(num_traces=40, coeffs_per_trace=2, first_seed=60_000)
    store = ProfileStore(directory)
    barrier.wait()
    for _ in range(8):
        store.save(attack, key)


class TestConcurrentWriters:
    def test_two_process_write_race_is_benign(self, tmp_path):
        """Satellite: concurrent writers of one key never produce a torn
        archive — every concurrent load sees a complete profile or a miss."""
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(3)
        procs = [
            ctx.Process(target=_stress_writer, args=(tmp_path, KEY_A, barrier))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        bench = fresh_bench()
        store = ProfileStore(tmp_path)
        barrier.wait()
        observed = 0
        while any(proc.is_alive() for proc in procs):
            attack = store.load(bench, KEY_A)
            if attack is not None:
                assert attack.templates is not None
                assert attack.branch_classifier is not None
                observed += 1
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        final = store.load(bench, KEY_A)
        assert final is not None and final.templates is not None
        assert observed > 0
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []
