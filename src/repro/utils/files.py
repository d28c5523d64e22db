"""Crash-consistent file publication."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def atomic_write_bytes(path: Union[str, Path], payload: bytes) -> None:
    """Publish ``payload`` at ``path`` through a temp file in the same
    directory and :func:`os.replace`.  On failure the temp file is
    removed, ``path`` keeps its old content and the error propagates.

    ``repro.backends.native.build_extension``, which builds the one
    native module, keeps its own ``mkdtemp`` build directory: it
    publishes a compiler output, not bytes it holds.
    """
    path = Path(path)
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
