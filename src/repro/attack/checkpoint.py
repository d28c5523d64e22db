"""Atomic checkpoint/resume state for orchestrated campaigns.

A campaign directory holds one versioned ``manifest.json`` plus one
``shards/shard-<n>.npz`` per *completed* checkpoint shard (a contiguous
block of ``shard_size`` victim seeds).  Everything is written with
temp-file + :func:`os.replace`, so a reader (or a resuming run) only
ever sees a complete previous state — a run killed mid-write loses at
most the shard being written, never the directory's integrity.

The manifest pins a **fingerprint** of everything the per-seed results
depend on (seed range, coefficient count, batch noise entropy, noise
stream version, template labels).  Resuming under a
different configuration is a hard error rather than a silently mixed
report: per-seed outcomes are a pure function of the fingerprint, which
is what makes the resumed report bit-identical to an uninterrupted run.

The npz payload round-trips float64 probability tables in binary, so
checkpointed seeds reproduce their in-memory records bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.errors import AttackError

#: Bump when the on-disk layout changes; resume refuses newer/older
#: layouts instead of guessing.
CHECKPOINT_VERSION = 1

_MANIFEST = "manifest.json"
_SHARD_DIR = "shards"


def campaign_fingerprint(
    first_seed: int,
    trace_count: int,
    coeffs_per_trace: int,
    entropy: int,
    labels: Iterable[int],
) -> str:
    """Hash of everything a campaign's per-seed outcomes depend on."""
    from repro.power.noise import NOISE_STREAM_VERSION

    blob = json.dumps(
        {
            "first_seed": int(first_seed),
            "trace_count": int(trace_count),
            "coeffs_per_trace": int(coeffs_per_trace),
            "entropy": int(entropy),
            "labels": [int(label) for label in labels],
            "noise_stream": NOISE_STREAM_VERSION,
        },
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via temp file + atomic rename."""
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_savez(path: Union[str, Path], **arrays) -> None:
    """``np.savez`` with the same crash consistency as the manifest."""
    import io

    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    _atomic_write_bytes(Path(path), buffer.getvalue())


class CampaignCheckpoint:
    """One campaign directory: manifest + per-shard result archives."""

    def __init__(
        self,
        directory: Union[str, Path],
        fingerprint: str,
        trace_count: int,
        first_seed: int,
        coeffs_per_trace: int,
        shard_size: int,
    ) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.trace_count = int(trace_count)
        self.first_seed = int(first_seed)
        self.coeffs_per_trace = int(coeffs_per_trace)
        self.shard_size = int(shard_size)
        if self.shard_size < 1:
            raise AttackError(f"shard_size must be >= 1, got {shard_size}")
        self.shards_total = -(-self.trace_count // self.shard_size)
        self.shards_done: List[int] = []
        self.counters: Dict[str, int] = {}
        (self.directory / _SHARD_DIR).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST

    def shard_path(self, shard: int) -> Path:
        return self.directory / _SHARD_DIR / f"shard-{shard:06d}.npz"

    def shard_range(self, shard: int) -> range:
        """Seed numbers (absolute) covered by checkpoint shard ``shard``."""
        lo = self.first_seed + shard * self.shard_size
        hi = min(lo + self.shard_size, self.first_seed + self.trace_count)
        return range(lo, hi)

    # ------------------------------------------------------------------
    def write_shard(self, shard: int, **arrays) -> None:
        """Persist one completed shard atomically, then the manifest."""
        atomic_savez(self.shard_path(shard), **arrays)
        if shard not in self.shards_done:
            self.shards_done.append(shard)
            self.shards_done.sort()
        self.write_manifest()

    def write_manifest(self) -> None:
        manifest = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "trace_count": self.trace_count,
            "first_seed": self.first_seed,
            "coeffs_per_trace": self.coeffs_per_trace,
            "shard_size": self.shard_size,
            "shards_total": self.shards_total,
            "shards_done": list(self.shards_done),
            "counters": {k: int(v) for k, v in self.counters.items()},
        }
        _atomic_write_bytes(
            self.manifest_path,
            json.dumps(manifest, indent=1, sort_keys=True).encode(),
        )

    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        directory: Union[str, Path],
        fingerprint: Optional[str] = None,
    ) -> "CampaignCheckpoint":
        """Open an existing campaign directory for resumption.

        Raises :class:`AttackError` when the directory holds no
        manifest, a different layout version, or (when ``fingerprint``
        is given) state from a different campaign configuration.
        """
        directory = Path(directory)
        path = directory / _MANIFEST
        if not path.exists():
            raise AttackError(f"no campaign manifest under {directory}")
        manifest = json.loads(path.read_text())
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise AttackError(
                f"campaign checkpoint version {manifest.get('version')!r} "
                f"!= supported {CHECKPOINT_VERSION}"
            )
        if fingerprint is not None and manifest["fingerprint"] != fingerprint:
            raise AttackError(
                "campaign directory was checkpointed under a different "
                "configuration (fingerprint mismatch); refusing to mix "
                "results"
            )
        state = cls(
            directory,
            manifest["fingerprint"],
            manifest["trace_count"],
            manifest["first_seed"],
            manifest["coeffs_per_trace"],
            manifest["shard_size"],
        )
        # Trust only shards whose archive actually landed: a crash
        # between shard write and manifest write leaves an extra file,
        # never a manifest entry without its file.
        state.shards_done = [
            int(s)
            for s in manifest.get("shards_done", [])
            if state.shard_path(int(s)).exists()
        ]
        state.counters = {
            k: int(v) for k, v in manifest.get("counters", {}).items()
        }
        return state

    def load_shard(self, shard: int) -> Dict[str, np.ndarray]:
        with np.load(self.shard_path(shard), allow_pickle=False) as archive:
            return {key: archive[key] for key in archive.files}

    def completed_seeds(self) -> int:
        return sum(len(self.shard_range(s)) for s in self.shards_done)
