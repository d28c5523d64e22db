"""Tests for the package's process-pool factory."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

# Builds a 2-worker pool, prints its worker pids and blocks until it is
# killed (or its stdin closes).
CHILD = """
import multiprocessing, sys
from repro.utils.pool import process_pool

def init():
    pass

pool = process_pool(2, init, ())
pool.submit(int).result()
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
sys.stdin.read()
"""


def _alive(pid: int) -> bool:
    """True while ``pid`` runs.  A zombie has already exited; only its
    new parent has not reaped it yet."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
def test_workers_exit_when_parent_is_sigkilled():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    pids = [int(pid) for pid in child.stdout.readline().split()]
    try:
        assert len(pids) == 2
        child.kill()
        child.wait()
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids)
    finally:
        child.kill()
        child.stdin.close()
        child.stdout.close()
        for pid in pids:
            if _alive(pid):
                os.kill(pid, 9)
