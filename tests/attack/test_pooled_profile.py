"""Pooled profiling on the grain executor: one fork per profile, worker
death recovered bit for bit, and grain errors raised as typed errors."""

import os
import signal

import numpy as np
import pytest

from repro.attack.pipeline import SingleTraceAttack
from repro.errors import AttackError
from repro.power import capture
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.utils import pool

PAPER_Q = 132120577
FIRST_SEED = 50_000
TRACES = 80  # an 8-trace head, then 72 seeds: grains of 32, 32 and 8


def _profile(device, workers):
    bench = TraceAcquisition(device, scope=Oscilloscope(noise_std=1.0), rng=0)
    attack = SingleTraceAttack(bench, poi_count=24)
    attack.profile(
        num_traces=TRACES, coeffs_per_trace=4, first_seed=FIRST_SEED,
        workers=workers,
    )
    return attack


@pytest.fixture(scope="module")
def uninterrupted(device):
    return _profile(device, workers=2)


def assert_profiles_identical(a, b):
    for left, right in (
        (a.templates, b.templates),
        (a.branch_classifier.templates, b.branch_classifier.templates),
    ):
        assert left.pois == right.pois
        assert left.labels == right.labels
        np.testing.assert_array_equal(left.precision, right.precision)
        for label in left.labels:
            np.testing.assert_array_equal(left.means[label], right.means[label])


def _kill_worker_at(seed_to_kill, marker):
    """A ``_segment_one`` that SIGKILLs its worker at ``seed_to_kill``:
    once if ``marker`` names a file to create (``O_EXCL`` makes the
    first attempt the only one), on every attempt if it is ``None``."""
    real = capture._segment_one

    def segment_one(device, leakage, scope, segmenter, refiner, seed, *args):
        if seed == seed_to_kill:
            try:
                if marker is not None:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(device, leakage, scope, segmenter, refiner, seed, *args)

    return segment_one


def test_pooled_profile_forks_once(device, monkeypatch, uninterrupted):
    """The anchor head is captured in the parent, so only pass 2 forks."""
    calls = []
    real = pool.process_pool

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(pool, "process_pool", counting)
    attack = _profile(device, workers=2)
    assert calls == [2]
    assert_profiles_identical(uninterrupted, attack)


def test_sigkilled_worker_recovers_bit_identical(
    device, monkeypatch, tmp_path, uninterrupted
):
    """A worker SIGKILLed once mid-pass breaks the pool; a fresh pool
    reruns the lost grains and the templates do not change."""
    marker = tmp_path / "killed"
    monkeypatch.setattr(
        capture, "_segment_one", _kill_worker_at(FIRST_SEED + 45, marker)
    )
    attack = _profile(device, workers=2)
    assert marker.exists()
    assert_profiles_identical(uninterrupted, attack)


def test_grain_that_always_kills_its_worker_fails(device, monkeypatch):
    monkeypatch.setattr(
        capture, "_segment_one", _kill_worker_at(FIRST_SEED + 45, marker=None)
    )
    with pytest.raises(AttackError, match="broke twice"):
        _profile(device, workers=2)


@pytest.mark.parametrize("workers", [1, 2])
def test_raising_grain_names_its_seeds(device, monkeypatch, workers):
    real = capture._segment_one

    def crash(device, leakage, scope, segmenter, refiner, seed, *args):
        if seed == FIRST_SEED + 45:
            raise RuntimeError("injected grain crash")
        return real(device, leakage, scope, segmenter, refiner, seed, *args)

    monkeypatch.setattr(capture, "_segment_one", crash)
    # Seed 45 of the profile lies in the grain [40, 72) after the head.
    lo, hi = FIRST_SEED + 40, FIRST_SEED + 72
    with pytest.raises(AttackError, match=rf"\[{lo}, {hi}\).*RuntimeError"):
        _profile(device, workers=workers)
