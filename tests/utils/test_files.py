"""Tests for the atomic-write helper and the writers built on it."""

import errno
import os

import numpy as np
import pytest

from repro.attack.checkpoint import CampaignCheckpoint, campaign_fingerprint
from repro.attack.pipeline import SingleTraceAttack
from repro.attack.profile_store import ProfileStore
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice
from repro.utils.files import atomic_write_bytes

PAPER_Q = 132120577
KEY = "ab" * 32


@pytest.fixture(scope="module")
def tiny_attack():
    bench = TraceAcquisition(
        GaussianSamplerDevice([PAPER_Q]), scope=Oscilloscope(noise_std=1.0), rng=0
    )
    attack = SingleTraceAttack(bench, poi_count=8)
    attack.profile(num_traces=40, coeffs_per_trace=2, first_seed=60_000)
    return attack


def _checkpoint(directory):
    fingerprint = campaign_fingerprint(1, 8, 4, 123, [-1, 1])
    return CampaignCheckpoint(directory, fingerprint, 8, 1, 4, 4)


def _helper(directory, attack):
    path = directory / "blob.bin"
    path.write_bytes(b"old")
    return path, lambda: atomic_write_bytes(path, b"new")


def _shard(directory, attack):
    checkpoint = _checkpoint(directory)
    checkpoint.write_shard(0, ok=np.ones(4, dtype=np.uint8))
    return checkpoint.shard_path(0), lambda: checkpoint.write_shard(
        0, ok=np.zeros(4, dtype=np.uint8)
    )


def _manifest(directory, attack):
    checkpoint = _checkpoint(directory)
    checkpoint.write_manifest()
    checkpoint.counters = {"grains": 7}
    return checkpoint.manifest_path, checkpoint.write_manifest


def _profile(directory, attack):
    store = ProfileStore(directory)
    path = store.path_for(KEY)
    path.write_bytes(b"old archive")
    return path, lambda: store.save(attack, KEY)


@pytest.mark.parametrize(
    "code", [errno.ENOSPC, errno.EACCES], ids=["ENOSPC", "EACCES"]
)
@pytest.mark.parametrize(
    "writer",
    [_helper, _shard, _manifest, _profile],
    ids=["helper", "checkpoint-shard", "checkpoint-manifest", "profile-store"],
)
def test_failed_rename_keeps_target_and_leaves_no_temp(
    tmp_path, monkeypatch, tiny_attack, writer, code
):
    path, write = writer(tmp_path, tiny_attack)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError) as raised:
        write()
    assert raised.value.errno == code
    assert path.read_bytes() == before
    assert [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")] == []

