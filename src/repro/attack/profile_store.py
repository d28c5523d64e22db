"""On-disk store for profiled attack archives.

:func:`repro.attack.campaign.profiled_attack_cached` keys each profiled
attack by a SHA-256 of its full configuration and keeps the archives
here, one ``profile-<key16>.npz`` per key.  Archives land via
:func:`repro.utils.files.atomic_write_bytes` (temp file + atomic
rename in the same directory), so concurrent writers of
the same key race benignly (last complete archive wins — both are
bit-identical, being pure functions of the key) and a reader never
observes a torn file.  An archive damaged some other way loads as a
miss and is overwritten by the fresh profile.
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path
from typing import Optional, Union

from repro.attack.persistence import load_attack, save_attack
from repro.attack.pipeline import SingleTraceAttack
from repro.utils.files import atomic_write_bytes

_PREFIX = "profile-"
_SUFFIX = ".npz"


class ProfileStore:
    """A directory of ``profile-<key16>.npz`` archives."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{_PREFIX}{key[:16]}{_SUFFIX}"

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def load(self, acquisition, key: str) -> Optional[SingleTraceAttack]:
        """The profiled attack for ``key``, or ``None`` on a miss.

        An archive that does not load (truncated, garbage, or missing a
        member) is a miss too: the caller profiles afresh and
        :meth:`save` overwrites it.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            return load_attack(acquisition, path)
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
            return None

    def save(self, attack: SingleTraceAttack, key: str) -> Path:
        """Persist atomically (temp file + rename).

        Safe under concurrent writers: each writes its own temp file
        and the rename is atomic, so the path only ever holds a
        complete archive.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        buffer = io.BytesIO()
        save_attack(attack, buffer)
        atomic_write_bytes(path, buffer.getvalue())
        return path
