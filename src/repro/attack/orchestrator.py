"""Shared-memory, work-stealing campaign orchestrator.

:func:`repro.attack.campaign.run_campaign` is a one-shot function: it
spins a fresh process pool per call, ships every task through pickled
queue messages, and a killed run loses everything.  This module is the
service layer ROADMAP item 2 asks for — a persistent campaign engine
where **no trace, slice or result array is ever pickled**:

- **Workers are persistent.**  :class:`Orchestrator` forks its worker
  processes once; every later :meth:`~Orchestrator.submit` reuses them
  warm (no pool spin-up, no re-pickled profiled attack).
- **Work stealing over seed ranges.**  A job's victim seeds live in a
  shared-memory :class:`WorkTable` of ``[lo, hi, cursor, owner)`` rows.
  A worker advances its own row's cursor a *grain* at a time; when its
  row drains it claims a free row, and when none remain it steals a
  grain **from the top** of the fullest row (``hi -= grain``) — the
  fixed-capacity analogue of Chase–Lev deques, so a slow shard never
  gates the tail and the table never grows.
- **Results cross via the arena.**  A worker packs each grain's
  per-seed records (values / signs / estimates / dense probability
  tables / timings / error strings) into one of its two dedicated
  :class:`~repro.attack.arena.SliceArena` slots and sends only a
  ~100-byte :class:`GrainResult` header down its own result pipe; the
  parent folds the arrays straight out of shared memory and releases
  the slot.
- **Checkpoint / resume.**  Folded seeds complete fixed-size checkpoint
  shards; each finished shard is written atomically
  (:mod:`repro.attack.checkpoint`) so a killed campaign resumes from
  the last completed shard under a fingerprint guard.
- **Worker death is survivable.**  The parent monitors its workers;
  a dead worker's result pipe is drained to its end, its rows and
  recorded in-flight range are re-queued and a replacement is forked
  with a fresh pipe.  Each worker writes only its own pipe, with
  synchronous sends, so a SIGKILL can neither strand a sent result in
  a feeder thread nor wedge the other workers' channels.  Duplicated
  grains re-fold bit-identical records, so recovery never changes the
  report.

The determinism contract is the campaign one: per-seed outcomes are a
pure function of ``(attack, seed, coeffs, batch entropy)``, so the
assembled :class:`~repro.attack.campaign.CampaignReport` is
seed-ordered, worker-count-invariant, steal-schedule-invariant and
bit-identical to ``run_campaign`` — pinned by the
``campaign.orchestrated`` oracle and the kill/resume tests.
"""

from __future__ import annotations

import fcntl
import json
import multiprocessing
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_for_channels
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.attack.arena import SliceArena, _note_created, _untrack_attached
from repro.attack.branch import ZERO, sign_of
from repro.attack.campaign import (
    STAGES,
    CampaignReport,
    SeedOutcome,
    _attack_seed,
    aggregate_outcomes,
)
from repro.attack.checkpoint import CampaignCheckpoint, campaign_fingerprint
from repro.attack.pipeline import SingleTraceAttack
from repro.errors import AttackError, ParameterError, VerificationError
from repro.riscv.device import resolve_engine

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

_TABLE_MAGIC = 0x5245_5645_414C_5754  # work-table header tag


# ----------------------------------------------------------------------
# Channel messages — each a few hundred bytes, never any array payload.
# The pickle-size regression test pins this (< 1 KB per message), which
# also keeps every result-pipe write below PIPE_BUF and hence atomic.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One campaign broadcast to the workers (work lives in the table)."""

    job: int
    first_seed: int
    trace_count: int
    count: int  # coefficients per trace
    entropy: int
    grain: int
    min_steal: int
    engine: str
    n_labels: int
    backend: Optional[str] = None


@dataclass(frozen=True)
class GrainResult:
    """\"Your arrays are in arena slot ``slot`` at ``generation``\"."""

    worker: int
    job: int
    slot: int
    generation: int


@dataclass(frozen=True)
class WorkerIdle:
    """The worker found the table empty and went back to its mailbox."""

    worker: int
    job: int


@dataclass(frozen=True)
class WorkerFailed:
    """An unexpected exception escaped the worker's job loop."""

    worker: int
    job: int
    message: str


# ----------------------------------------------------------------------
# Work-stealing table
# ----------------------------------------------------------------------
class WorkTable:
    """Shared-memory seed ranges with grain-at-a-time stealing.

    Layout (int64 words): an 8-word header ``[magic, capacity, n_rows,
    steals, epoch, workers, grains, stop]``, then ``capacity`` rows of
    ``[lo, hi, cursor, owner]`` (absolute victim seeds, half-open;
    ``owner == -1`` means unclaimed), then per-worker in-flight words
    ``[lo, hi)`` recording the grain a worker has claimed but not yet
    completed — what the parent re-queues when that worker dies.

    Every mutation happens under :meth:`locked`, held for microseconds;
    the claim policy is owner-from-the-bottom (``cursor += grain``),
    thief-from-the-top (``hi -= grain``), and a thief never takes a
    victim's last ``min_steal`` seeds (the owner finishes its own tail
    faster than a steal round-trips).  The lock is a POSIX record lock,
    which the kernel releases when its holder dies, and a claim records
    the in-flight grain *before* it moves any row bound — so a worker
    SIGKILLed mid-claim leaves at worst a duplicated grain, never a
    locked table or a lost one.  The ``stop`` word is read lock-free.
    """

    _HEADER = 8
    _ROW = 4

    def __init__(
        self,
        capacity: Optional[int] = None,
        workers: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        if _shared_memory is None:  # pragma: no cover
            raise ParameterError("multiprocessing.shared_memory unavailable")
        if name is None:
            if capacity is None or workers is None:
                raise ParameterError("WorkTable() needs capacity and workers")
            if capacity < max(workers, 1):
                raise ParameterError(
                    f"table capacity {capacity} < workers {workers}"
                )
            words = self._HEADER + capacity * self._ROW + workers * 2
            self._owner = True
            self._shm = _shared_memory.SharedMemory(
                create=True, size=words * 8
            )
            view = self._view(words)
            view[:] = 0
            view[0] = _TABLE_MAGIC
            view[1] = capacity
            view[5] = workers
            _note_created(self._shm.name)
            self._lock_fd = os.open(
                self._lock_path(), os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600
            )
        else:
            self._owner = False
            self._shm = _shared_memory.SharedMemory(name=name)
            _untrack_attached(self._shm)
            head = np.ndarray(
                self._HEADER, dtype=np.int64, buffer=self._shm.buf[: 8 * 8]
            )
            if head[0] != _TABLE_MAGIC:
                raise VerificationError(
                    f"shared segment {name!r} is not a WorkTable"
                )
            capacity = int(head[1])
            workers = int(head[5])
            self._lock_fd = os.open(self._lock_path(), os.O_RDWR)
        self.capacity = int(capacity)
        self.workers = int(workers)
        self._closed = False

    def _view(self, words: Optional[int] = None) -> np.ndarray:
        if words is None:
            words = self._HEADER + self.capacity * self._ROW + self.workers * 2
        return np.ndarray(words, dtype=np.int64, buffer=self._shm.buf[: words * 8])

    @property
    def name(self) -> str:
        return self._shm.name

    def _lock_path(self) -> str:
        return os.path.join(tempfile.gettempdir(), f"{self.name}.lock")

    @contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the table lock (exclusive across processes, not threads)."""
        fcntl.lockf(self._lock_fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.lockf(self._lock_fd, fcntl.LOCK_UN)

    def request_stop(self) -> None:
        """Ask every worker to stop at its next grain boundary."""
        self._view()[7] = 1

    def stop_requested(self) -> bool:
        return bool(self._view()[7])

    def __getstate__(self) -> dict:
        return {"name": self.name}

    def __setstate__(self, state: dict) -> None:
        self.__init__(name=state["name"])

    # -- all methods below assume the caller holds the table lock ------
    def _rows(self) -> np.ndarray:
        base = self._HEADER * 8
        count = self.capacity * self._ROW
        return np.ndarray(
            (self.capacity, self._ROW),
            dtype=np.int64,
            buffer=self._shm.buf[base : base + count * 8],
        )

    def _inflight(self) -> np.ndarray:
        base = (self._HEADER + self.capacity * self._ROW) * 8
        return np.ndarray(
            (self.workers, 2),
            dtype=np.int64,
            buffer=self._shm.buf[base : base + self.workers * 16],
        )

    def reset(self, ranges: Sequence[Tuple[int, int]]) -> None:
        """Load a fresh job's seed ranges; clears counters, in-flight
        grains and any stop request."""
        if len(ranges) > self.capacity:
            raise ParameterError(
                f"{len(ranges)} work ranges exceed table capacity "
                f"{self.capacity}"
            )
        view = self._view()
        rows = self._rows()
        rows[:] = 0
        rows[:, 3] = -1
        for i, (lo, hi) in enumerate(ranges):
            rows[i, 0] = rows[i, 2] = int(lo)
            rows[i, 1] = int(hi)
        view[2] = len(ranges)
        view[3] = 0  # steals
        view[4] += 1  # epoch
        view[6] = 0  # grains
        view[7] = 0  # stop
        self._inflight()[:] = 0

    def _take(self, rows: np.ndarray, row: int, worker: int, grain: int) -> Tuple[int, int]:
        cursor, hi = int(rows[row, 2]), int(rows[row, 1])
        size = min(grain, hi - cursor)
        self._inflight()[worker] = (cursor, cursor + size)
        rows[row, 3] = worker
        rows[row, 2] = cursor + size
        self._view()[6] += 1
        return cursor, cursor + size

    def claim(self, worker: int, grain: int, min_steal: int) -> Optional[Tuple[int, int]]:
        """Claim the next grain for ``worker`` (own row, then a free
        row, then a steal from the top of the fullest row)."""
        view = self._view()
        rows = self._rows()
        n = int(view[2])
        live = rows[:n]
        open_rows = live[:, 2] < live[:, 1]
        if not open_rows.any():
            self.complete(worker)
            return None
        for owner_match in (live[:, 3] == worker, live[:, 3] == -1):
            hits = np.nonzero(open_rows & owner_match)[0]
            if hits.size:
                return self._take(rows, int(hits[0]), worker, grain)
        remaining = np.where(open_rows, live[:, 1] - live[:, 2], 0)
        victim = int(np.argmax(remaining))
        left = int(remaining[victim])
        if left <= min_steal:
            self.complete(worker)
            return None
        size = min(grain, max(left // 2, min_steal))
        hi = int(rows[victim, 1])
        self._inflight()[worker] = (hi - size, hi)
        rows[victim, 1] = hi - size
        view[3] += 1  # steals
        view[6] += 1  # grains
        return hi - size, hi

    def complete(self, worker: int) -> None:
        """The worker's claimed grain has been fully reported."""
        self._inflight()[worker] = 0

    def requeue_dead(self, worker: int) -> None:
        """Return a dead worker's rows and in-flight grain to the pool."""
        view = self._view()
        rows = self._rows()
        n = int(view[2])
        owned = rows[:n, 3] == worker
        rows[:n, 3] = np.where(owned, -1, rows[:n, 3])
        inflight = self._inflight()
        lo, hi = int(inflight[worker, 0]), int(inflight[worker, 1])
        inflight[worker] = 0
        if hi > lo:
            if n >= self.capacity:
                raise AttackError(
                    "work table is full; cannot re-queue the in-flight "
                    "range of a dead worker"
                )
            rows[n, 0] = rows[n, 2] = lo
            rows[n, 1] = hi
            rows[n, 3] = -1
            view[2] = n + 1

    def remaining(self) -> int:
        view = self._view()
        rows = self._rows()[: int(view[2])]
        return int(np.maximum(rows[:, 1] - rows[:, 2], 0).sum())

    def counters(self) -> Dict[str, int]:
        view = self._view()
        return {"steals": int(view[3]), "grains": int(view[6])}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        os.close(self._lock_fd)
        self._shm.close()
        if self._owner:
            for unlink in (self._shm.unlink, lambda: os.unlink(self._lock_path())):
                try:
                    unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    def __del__(self) -> None:  # pragma: no cover - GC ordering varies
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Grain record packing (worker side) and folding (parent side)
# ----------------------------------------------------------------------
def _sign_groups(labels: Sequence[int]) -> Dict[int, List[Tuple[int, int]]]:
    """``sign -> [(column, label), ...]`` in template-bank label order —
    the dense layout both ends of the arena protocol agree on."""
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for column, label in enumerate(int(l) for l in labels):
        groups.setdefault(sign_of(label), []).append((column, label))
    return groups


def _record_cost(outcome: SeedOutcome, coeffs: int, n_labels: int) -> int:
    cost = 1 + 3 * 8 * coeffs + 8 * coeffs * n_labels
    if not outcome.ok:
        cost += len(json.dumps([outcome.seed, outcome.error])) + 2
    return cost


def _chunk_outcomes(
    outcomes: List[SeedOutcome], slot_bytes: int, coeffs: int, n_labels: int
) -> List[List[SeedOutcome]]:
    """Split a grain's consecutive outcomes into runs that each fit a
    record slot (headroom for the meta/timings arrays and alignment)."""
    budget = slot_bytes - 512
    chunks: List[List[SeedOutcome]] = []
    current: List[SeedOutcome] = []
    used = 0
    for outcome in outcomes:
        cost = _record_cost(outcome, coeffs, n_labels)
        if current and used + cost > budget:
            chunks.append(current)
            current, used = [], 0
        if cost > budget and not current:
            raise ParameterError(
                f"one seed record needs {cost} B but record slots hold "
                f"{slot_bytes} B; raise record_slot_bytes"
            )
        current.append(outcome)
        used += cost
    if current:
        chunks.append(current)
    return chunks


def _pack_record(
    chunk: List[SeedOutcome],
    coeffs: int,
    groups: Dict[int, List[Tuple[int, int]]],
    n_labels: int,
) -> List[np.ndarray]:
    """One contiguous run of per-seed outcomes as arena arrays.

    Probability tables go dense: ``tables[i, j, column]`` is the
    probability of the template-bank label at ``column``.  Together
    with the classified sign that is a loss-free encoding —
    ``attack_aligned`` builds each table over exactly the labels whose
    ``sign_of`` matches the classified sign (and ``{0: 1.0}`` for
    ZERO), so the parent rebuilds the dicts bit for bit.
    """
    n = len(chunk)
    ok = np.zeros(n, dtype=np.uint8)
    values = np.zeros((n, coeffs), dtype=np.int64)
    signs = np.zeros((n, coeffs), dtype=np.int64)
    estimates = np.zeros((n, coeffs), dtype=np.int64)
    tables = np.zeros((n, coeffs, n_labels), dtype=np.float64)
    timings = np.zeros(len(STAGES), dtype=np.float64)
    errors: List[List] = []
    for i, outcome in enumerate(chunk):
        values[i] = outcome.values
        for stage_index, stage in enumerate(STAGES):
            timings[stage_index] += outcome.timings.get(stage, 0.0)
        if not outcome.ok:
            errors.append([outcome.seed, outcome.error])
            continue
        ok[i] = 1
        signs[i] = outcome.signs
        estimates[i] = outcome.estimates
        for j, (sign, table) in enumerate(zip(outcome.signs, outcome.tables)):
            if sign == ZERO:
                continue
            for column, label in groups[int(sign)]:
                tables[i, j, column] = table[label]
    meta = np.array(
        [chunk[0].seed, chunk[-1].seed + 1, coeffs, n_labels, len(errors)],
        dtype=np.int64,
    )
    error_blob = np.frombuffer(json.dumps(errors).encode(), dtype=np.uint8)
    return [meta, ok, values, signs, estimates, tables, timings, error_blob]


def _rebuild_tables(
    sign_row: np.ndarray,
    dense_row: np.ndarray,
    groups: Dict[int, List[Tuple[int, int]]],
) -> List[Dict[int, float]]:
    tables: List[Dict[int, float]] = []
    for j, sign in enumerate(int(s) for s in sign_row):
        if sign == ZERO:
            tables.append({0: 1.0})
        else:
            tables.append(
                {label: float(dense_row[j, column]) for column, label in groups[sign]}
            )
    return tables


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(
    worker_id: int,
    attack: SingleTraceAttack,
    control,
    outbox,
    table: WorkTable,
    record_arena: SliceArena,
    record_slots: Tuple[int, int],
    slot_sem,
) -> None:
    """Persistent worker: block on the mailbox, run jobs until ``None``."""
    while True:
        spec = control.get()
        if spec is None:
            return
        try:
            _worker_job(
                worker_id,
                attack,
                spec,
                outbox,
                table,
                record_arena,
                record_slots,
                slot_sem,
            )
        except Exception as exc:  # pragma: no cover - defensive
            outbox.send(
                WorkerFailed(
                    worker_id, spec.job, f"{type(exc).__name__}: {exc}"[:400]
                )
            )
        outbox.send(WorkerIdle(worker_id, spec.job))


def _worker_job(
    worker_id: int,
    attack: SingleTraceAttack,
    spec: JobSpec,
    outbox,
    table: WorkTable,
    record_arena: SliceArena,
    record_slots: Tuple[int, int],
    slot_sem,
) -> None:
    if spec.backend is not None:
        from repro.backends import get_backend, set_backend

        if get_backend().name != spec.backend:
            set_backend(spec.backend)
    labels = [int(l) for l in attack.templates.labels]
    groups = _sign_groups(labels)
    toggle = 0
    while not table.stop_requested():
        with table.locked():
            claim = table.claim(worker_id, spec.grain, spec.min_steal)
        if claim is None:
            return
        lo, hi = claim
        outcomes = [
            _attack_seed(attack, seed, spec.count, spec.entropy, spec.engine)
            for seed in range(lo, hi)
        ]
        for chunk in _chunk_outcomes(
            outcomes, record_arena.slot_bytes, spec.count, spec.n_labels
        ):
            arrays = _pack_record(chunk, spec.count, groups, spec.n_labels)
            slot_sem.acquire()
            slot = record_slots[toggle]
            toggle ^= 1
            generation = record_arena.write(slot, arrays)
            outbox.send(GrainResult(worker_id, spec.job, slot, generation))
        with table.locked():
            table.complete(worker_id)


# ----------------------------------------------------------------------
# Job handle
# ----------------------------------------------------------------------
@dataclass
class CampaignProgress:
    """A point-in-time snapshot of a running campaign."""

    status: str
    seeds_done: int
    seeds_total: int
    shards_done: int
    shards_total: int
    steals: int
    grains: int
    checkpoints: int
    workers_alive: int
    workers_died: int
    wall_seconds: float


class CampaignJob:
    """Handle to one submitted campaign (thread-safe, asyncio-usable).

    ``status``/:meth:`progress` never block; :meth:`result` blocks until
    the report is assembled (or raises on failure/cancellation); the
    handle is awaitable from ``asyncio`` code (``report = await job``).
    """

    def __init__(
        self,
        orchestrator: "Orchestrator",
        spec: JobSpec,
        checkpoint: Optional[CampaignCheckpoint],
    ) -> None:
        self._orchestrator = orchestrator
        self.spec = spec
        self.checkpoint = checkpoint
        n, coeffs = spec.trace_count, spec.count
        self.folded = np.zeros(n, dtype=bool)
        self.ok = np.zeros(n, dtype=np.uint8)
        self.values = np.zeros((n, coeffs), dtype=np.int64)
        self.signs = np.zeros((n, coeffs), dtype=np.int64)
        self.estimates = np.zeros((n, coeffs), dtype=np.int64)
        self.tables = np.zeros((n, coeffs, spec.n_labels), dtype=np.float64)
        self.errors: Dict[int, str] = {}
        self.timings = {stage: 0.0 for stage in STAGES}
        self.base_counters: Dict[str, int] = {}
        self.checkpoints_written = 0
        self.workers_died = 0
        self.messages = 0
        self._status = "pending"
        self._error: Optional[str] = None
        self._report: Optional[CampaignReport] = None
        self._done = threading.Event()
        self._cancel = threading.Event()
        self._started = time.perf_counter()

    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        return self._status

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def worker_pids(self) -> List[int]:
        return self._orchestrator.worker_pids()

    def progress(self) -> CampaignProgress:
        counters = self._orchestrator._table_counters()
        shard_size = self.checkpoint.shard_size if self.checkpoint else 0
        return CampaignProgress(
            status=self._status,
            seeds_done=int(self.folded.sum()),
            seeds_total=self.spec.trace_count,
            shards_done=len(self.checkpoint.shards_done) if self.checkpoint else 0,
            shards_total=self.checkpoint.shards_total if self.checkpoint else 0,
            steals=self.base_counters.get("steals", 0) + counters.get("steals", 0),
            grains=self.base_counters.get("grains", 0) + counters.get("grains", 0),
            checkpoints=self.checkpoints_written,
            workers_alive=self._orchestrator.workers_alive(),
            workers_died=self.workers_died,
            wall_seconds=time.perf_counter() - self._started,
        )

    def cancel(self) -> None:
        """Stop at the next grain boundary; completed shards stay
        checkpointed, so a later ``resume`` picks up from here."""
        if not self._done.is_set():
            self._cancel.set()
            self._orchestrator._table.request_stop()

    def result(self, timeout: Optional[float] = None) -> CampaignReport:
        if not self._done.wait(timeout):
            raise AttackError("campaign job still running (timeout)")
        if self._report is None:
            raise AttackError(self._error or "campaign job did not complete")
        return self._report

    async def wait(self) -> CampaignReport:
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.result)

    def __await__(self):
        return self.wait().__await__()


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
class Orchestrator:
    """A persistent, shared-memory campaign engine over one attack.

    Workers fork once (carrying the profiled attack by copy-on-write;
    under ``spawn`` the attack pickles through the slim
    ``__getstate__`` payloads) and then serve any number of submitted
    campaigns.  See the module docstring for the data-plane design.
    """

    def __init__(
        self,
        attack: SingleTraceAttack,
        workers: Optional[int] = None,
        grain: Optional[int] = None,
        min_steal: int = 8,
        engine: Optional[str] = None,
        record_slot_bytes: Optional[int] = None,
        start_method: Optional[str] = None,
        respawn: bool = True,
    ) -> None:
        if attack.templates is None or attack.branch_classifier is None:
            raise AttackError("profile() must run before a campaign")
        self.attack = attack
        acquisition = attack.acquisition
        self.workers = max(1, int(workers) if workers else min(4, os.cpu_count() or 1))
        self.engine = resolve_engine(
            engine if engine is not None else getattr(acquisition, "engine", None)
        )
        self.grain = max(1, int(grain) if grain else 32)
        self.min_steal = max(1, int(min_steal))
        self.record_slot_bytes = record_slot_bytes
        self.respawn = respawn
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._labels = [int(l) for l in attack.templates.labels]
        self._groups = _sign_groups(self._labels)
        self._started = False
        self._closed = False
        self._job_counter = 0
        self._active: Optional[CampaignJob] = None
        self._submit_lock = threading.Lock()
        self._procs: Dict[int, multiprocessing.Process] = {}
        self._controls: Dict[int, object] = {}
        self._inboxes: Dict[int, object] = {}
        self._sems: Dict[int, object] = {}

    # ------------------------------------------------------------------
    def __enter__(self) -> "Orchestrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def worker_pids(self) -> List[int]:
        return [p.pid for p in self._procs.values() if p.is_alive()]

    def workers_alive(self) -> int:
        return sum(1 for p in self._procs.values() if p.is_alive())

    def _table_counters(self) -> Dict[str, int]:
        if not self._started or self._closed:
            return {}
        return self._table.counters()

    # ------------------------------------------------------------------
    def _ensure_started(self, coeffs: int) -> None:
        if self._started:
            return
        record_bytes = self.record_slot_bytes
        if record_bytes is None:
            per_seed = 1 + 24 * coeffs + 8 * coeffs * len(self._labels) + 64
            record_bytes = max(64 << 10, self.grain * per_seed + (8 << 10))
        self.record_slot_bytes = int(record_bytes)
        capacity = max(256, self.workers * 16)
        self._table = WorkTable(capacity=capacity, workers=self.workers)
        self._record_arena = SliceArena(
            slots=2 * self.workers, slot_bytes=self.record_slot_bytes
        )
        self._started = True
        for worker in range(self.workers):
            self._spawn(worker)

    def _spawn(self, worker: int) -> None:
        control = self._ctx.Queue()
        inbox, outbox = self._ctx.Pipe(duplex=False)
        sem = self._ctx.BoundedSemaphore(2)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker,
                self.attack,
                control,
                outbox,
                self._table,
                self._record_arena,
                (2 * worker, 2 * worker + 1),
                sem,
            ),
            daemon=True,
        )
        proc.start()
        # The worker now holds the pipe's only write end, so its death
        # reads as end-of-file once everything it sent is consumed.
        outbox.close()
        self._procs[worker] = proc
        self._controls[worker] = control
        self._inboxes[worker] = inbox
        self._sems[worker] = sem

    def _receive(self, timeout: float) -> List[object]:
        """Wait up to ``timeout`` for worker messages; at most one per
        ready pipe.  A pipe at end-of-file belongs to a dead worker and
        is dropped here, so it cannot keep the wait spinning."""
        messages = []
        for inbox in wait_for_channels(list(self._inboxes.values()), timeout):
            try:
                messages.append(inbox.recv())
            except (EOFError, OSError):
                self._drop_inbox(inbox)
        return messages

    def _drop_inbox(self, inbox) -> None:
        for worker, candidate in list(self._inboxes.items()):
            if candidate is inbox:
                del self._inboxes[worker]
        inbox.close()

    def _drain_dead(self, worker: int) -> List[object]:
        """Everything a dead worker sent, up to its pipe's end-of-file."""
        inbox = self._inboxes.pop(worker, None)
        messages: List[object] = []
        if inbox is None:
            return messages
        while True:
            try:
                messages.append(inbox.recv())
            except (EOFError, OSError):
                break
        inbox.close()
        return messages

    # ------------------------------------------------------------------
    def submit(
        self,
        trace_count: int,
        coeffs_per_trace: int = 8,
        first_seed: int = 1,
        campaign_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        shard_size: int = 256,
    ) -> CampaignJob:
        """Start a campaign; returns immediately with a job handle.

        With ``campaign_dir`` every completed shard of ``shard_size``
        seeds is checkpointed atomically; ``resume=True`` reloads
        completed shards (fingerprint-checked) and only the remainder
        is attacked.  One job runs at a time per orchestrator.
        """
        with self._submit_lock:
            if self._closed:
                raise AttackError("orchestrator is closed")
            if self._active is not None and not self._active.done:
                raise AttackError("a campaign job is already active")
            if trace_count < 1:
                raise AttackError(f"trace_count must be >= 1, got {trace_count}")
            if resume and campaign_dir is None:
                raise AttackError("resume=True needs campaign_dir")
            entropy = self.attack.acquisition.batch_entropy()
            fingerprint = campaign_fingerprint(
                first_seed, trace_count, coeffs_per_trace, entropy, self._labels
            )
            self._ensure_started(coeffs_per_trace)
            checkpoint = None
            if campaign_dir is not None:
                if resume:
                    checkpoint = CampaignCheckpoint.resume(campaign_dir, fingerprint)
                else:
                    checkpoint = CampaignCheckpoint(
                        campaign_dir,
                        fingerprint,
                        trace_count,
                        first_seed,
                        coeffs_per_trace,
                        shard_size,
                    )
                    checkpoint.write_manifest()
            self._job_counter += 1
            backend_name = None
            try:
                from repro.backends import get_backend

                backend_name = get_backend().name
            except Exception:  # pragma: no cover - probing never fails here
                pass
            spec = JobSpec(
                job=self._job_counter,
                first_seed=first_seed,
                trace_count=trace_count,
                count=coeffs_per_trace,
                entropy=entropy,
                grain=self.grain,
                min_steal=self.min_steal,
                engine=self.engine,
                n_labels=len(self._labels),
                backend=backend_name,
            )
            job = CampaignJob(self, spec, checkpoint)
            if checkpoint is not None and resume:
                self._preload(job)
            self._active = job
            thread = threading.Thread(
                target=self._run_job, args=(job,), daemon=True
            )
            job._thread = thread
            thread.start()
            return job

    def _preload(self, job: CampaignJob) -> None:
        """Fold already-checkpointed shards into the job's store."""
        checkpoint = job.checkpoint
        for shard in checkpoint.shards_done:
            seeds = checkpoint.shard_range(shard)
            lo = seeds.start - job.spec.first_seed
            hi = lo + len(seeds)
            arrays = checkpoint.load_shard(shard)
            job.ok[lo:hi] = arrays["ok"]
            job.values[lo:hi] = arrays["values"]
            job.signs[lo:hi] = arrays["signs"]
            job.estimates[lo:hi] = arrays["estimates"]
            job.tables[lo:hi] = arrays["tables"]
            job.folded[lo:hi] = True
            for seed, message in json.loads(bytes(arrays["errors"].tobytes()).decode()):
                job.errors[int(seed)] = str(message)
        for key, value in checkpoint.counters.items():
            if key.startswith("t_") and key.endswith("_us"):
                job.timings[key[2:-3]] = value / 1e6
            else:
                job.base_counters[key] = int(value)

    # ------------------------------------------------------------------
    def _work_ranges(self, job: CampaignJob) -> List[Tuple[int, int]]:
        """Contiguous unfolded seed ranges, coalesced to fit the table
        (a gap swallowed by coalescing just re-folds identical bits)."""
        first = job.spec.first_seed
        ranges: List[Tuple[int, int]] = []
        run_start: Optional[int] = None
        for i, folded in enumerate(job.folded):
            if not folded and run_start is None:
                run_start = i
            elif folded and run_start is not None:
                ranges.append((first + run_start, first + i))
                run_start = None
        if run_start is not None:
            ranges.append((first + run_start, first + len(job.folded)))
        limit = self._table.capacity - self.workers * 4
        while len(ranges) > limit:
            gaps = [
                (ranges[i + 1][0] - ranges[i][1], i)
                for i in range(len(ranges) - 1)
            ]
            _, i = min(gaps)
            ranges[i : i + 2] = [(ranges[i][0], ranges[i + 1][1])]
        return ranges

    def _run_job(self, job: CampaignJob) -> None:
        try:
            self._drive(job)
        except Exception as exc:  # pragma: no cover - defensive
            job._error = f"{type(exc).__name__}: {exc}"
            job._status = "failed"
            job._done.set()

    def _drive(self, job: CampaignJob) -> None:
        spec = job.spec
        ranges = self._work_ranges(job)
        idle: set = set()
        with self._table.locked():
            self._table.reset(ranges)
        if ranges:
            job._status = "running"
            for worker, control in self._controls.items():
                control.put(spec)
        else:
            idle = set(self._procs)
        finishing = not ranges
        while True:
            if job._cancel.is_set():
                break
            messages = self._receive(timeout=0.2)
            if not messages:
                if self._check_deaths(job, spec, idle) is False:
                    return
                if finishing and idle >= set(self._procs):
                    break
                continue
            for message in messages:
                job.messages += 1
                if isinstance(message, WorkerFailed):
                    if message.job == spec.job:
                        job._error = (
                            f"worker {message.worker} failed: {message.message}"
                        )
                        self._table.request_stop()
                        self._drain_to_idle(idle)
                        job._status = "failed"
                        job._done.set()
                        return
                else:
                    self._handle(job, message, idle)
            if not finishing and bool(job.folded.all()):
                finishing = True
            if finishing and idle >= set(self._procs):
                break
        if job._cancel.is_set() and not bool(job.folded.all()):
            self._drain_to_idle(idle)
            self._finalize_checkpoint(job)
            job._status = "cancelled"
            job._error = "campaign cancelled"
            job._done.set()
            return
        self._finalize_checkpoint(job)
        wall = time.perf_counter() - job._started
        job._report = self._assemble(job, wall)
        job._status = "completed"
        job._done.set()

    def _handle(self, job: CampaignJob, message, idle: set) -> None:
        """Fold a result or note an idle worker (stale jobs' slots are
        freed without folding)."""
        if isinstance(message, GrainResult):
            if message.job == job.spec.job:
                self._fold(job, message)
            else:  # stale slot from a cancelled job: free it anyway
                self._release(message)
        elif isinstance(message, WorkerIdle) and message.job == job.spec.job:
            idle.add(message.worker)

    def _release(self, message: GrainResult) -> None:
        try:
            self._record_arena.read(message.slot, message.generation)
        except VerificationError:
            pass
        sem = self._sems.get(message.worker)
        if sem is not None:
            try:
                sem.release()
            except ValueError:  # pragma: no cover - respawned semaphore
                pass

    def _fold(self, job: CampaignJob, message: GrainResult) -> None:
        arrays = self._record_arena.read(message.slot, message.generation)
        self._release_sem(message.worker)
        meta, ok, values, signs, estimates, tables, timings, error_blob = arrays
        lo = int(meta[0]) - job.spec.first_seed
        hi = int(meta[1]) - job.spec.first_seed
        job.ok[lo:hi] = ok
        job.values[lo:hi] = values
        job.signs[lo:hi] = signs
        job.estimates[lo:hi] = estimates
        job.tables[lo:hi] = tables
        for stage_index, stage in enumerate(STAGES):
            job.timings[stage] += float(timings[stage_index])
        for seed, text in json.loads(error_blob.tobytes().decode() or "[]"):
            job.errors[int(seed)] = str(text)
        newly = ~job.folded[lo:hi]
        job.folded[lo:hi] = True
        if job.checkpoint is not None and bool(newly.any()):
            self._maybe_checkpoint(job, lo, hi)

    def _release_sem(self, worker: int) -> None:
        sem = self._sems.get(worker)
        if sem is not None:
            try:
                sem.release()
            except ValueError:  # pragma: no cover - respawned semaphore
                pass

    def _maybe_checkpoint(self, job: CampaignJob, lo: int, hi: int) -> None:
        checkpoint = job.checkpoint
        size = checkpoint.shard_size
        for shard in range(lo // size, (hi - 1) // size + 1):
            if shard in checkpoint.shards_done:
                continue
            seeds = checkpoint.shard_range(shard)
            a = seeds.start - job.spec.first_seed
            b = a + len(seeds)
            if not bool(job.folded[a:b].all()):
                continue
            errors = [
                [seed, job.errors[seed]]
                for seed in seeds
                if seed in job.errors
            ]
            self._sync_counters(job)
            checkpoint.write_shard(
                shard,
                ok=job.ok[a:b],
                values=job.values[a:b],
                signs=job.signs[a:b],
                estimates=job.estimates[a:b],
                tables=job.tables[a:b],
                errors=np.frombuffer(
                    json.dumps(errors).encode(), dtype=np.uint8
                ),
            )
            job.checkpoints_written += 1

    def _sync_counters(self, job: CampaignJob) -> None:
        checkpoint = job.checkpoint
        if checkpoint is None:
            return
        counters = self._table.counters()
        merged = dict(job.base_counters)
        for key, value in counters.items():
            merged[key] = merged.get(key, 0) + value
        merged["checkpoints"] = (
            job.base_counters.get("checkpoints", 0) + job.checkpoints_written
        )
        merged["workers_died"] = (
            job.base_counters.get("workers_died", 0) + job.workers_died
        )
        for stage, seconds in job.timings.items():
            merged[f"t_{stage}_us"] = int(seconds * 1e6)
        checkpoint.counters = merged

    def _finalize_checkpoint(self, job: CampaignJob) -> None:
        if job.checkpoint is None:
            return
        self._sync_counters(job)
        job.checkpoint.counters["checkpoints"] = (
            job.base_counters.get("checkpoints", 0) + job.checkpoints_written
        )
        job.checkpoint.write_manifest()

    def _drain_to_idle(self, idle: set, timeout: float = 30.0) -> None:
        """After stop/cancel: keep releasing slots until workers idle."""
        deadline = time.monotonic() + timeout
        while idle < set(self._procs) and time.monotonic() < deadline:
            alive = {w for w, p in self._procs.items() if p.is_alive()}
            if idle >= alive:
                break
            for message in self._receive(timeout=0.2):
                if isinstance(message, GrainResult):
                    self._release(message)
                elif isinstance(message, WorkerIdle):
                    idle.add(message.worker)

    def _check_deaths(self, job: CampaignJob, spec: JobSpec, idle: set):
        """Detect SIGKILLed workers; re-queue their work and respawn."""
        dead = [
            w
            for w, p in self._procs.items()
            if not p.is_alive()
        ]
        if not dead:
            return True
        for worker in dead:
            job.workers_died += 1
            # Fold everything the worker sent before touching the table,
            # so re-queued ranges shrink to what was actually lost.
            for message in self._drain_dead(worker):
                self._handle(job, message, idle)
            with self._table.locked():
                self._table.requeue_dead(worker)
            idle.discard(worker)
            self._procs.pop(worker).join(timeout=0.1)
            if self.respawn:
                self._spawn(worker)
                self._controls[worker].put(spec)
        if not self.workers_alive():
            job._error = "all campaign workers died"
            job._status = "failed"
            job._done.set()
            return False
        # Wake any idle workers: the re-queued ranges are claimable.
        for worker in sorted(idle):
            control = self._controls.get(worker)
            if control is not None:
                control.put(spec)
        idle.clear()
        return True

    # ------------------------------------------------------------------
    def _assemble(self, job: CampaignJob, wall: float) -> CampaignReport:
        spec = job.spec
        results: List[SeedOutcome] = []
        for i in range(spec.trace_count):
            seed = spec.first_seed + i
            if job.ok[i]:
                results.append(
                    SeedOutcome(
                        seed=seed,
                        values=[int(v) for v in job.values[i]],
                        signs=[int(s) for s in job.signs[i]],
                        estimates=[int(e) for e in job.estimates[i]],
                        tables=_rebuild_tables(
                            job.signs[i], job.tables[i], self._groups
                        ),
                        timings={},
                    )
                )
            else:
                results.append(
                    SeedOutcome(
                        seed=seed,
                        values=[int(v) for v in job.values[i]],
                        signs=[],
                        estimates=[],
                        tables=[],
                        timings={},
                        error=job.errors.get(seed, "worker did not report"),
                    )
                )
        counters = self._table.counters()
        metadata = {
            "grain": self.grain,
            "shard_size": job.checkpoint.shard_size if job.checkpoint else 0,
            "steals": job.base_counters.get("steals", 0) + counters["steals"],
            "grains": job.base_counters.get("grains", 0) + counters["grains"],
            "checkpoints": job.checkpoints_written,
            "arena_bytes": self._record_arena.total_bytes,
            "workers_died": job.workers_died,
            "messages": job.messages,
        }
        return aggregate_outcomes(
            results,
            spec.trace_count,
            wall,
            self.workers,
            spec.engine,
            base_timings=job.timings,
            orchestrator=metadata,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._active is not None and not self._active.done:
            self._active.cancel()
            self._active._done.wait(timeout=10.0)
        if self._started:
            self._table.request_stop()
            for control in self._controls.values():
                try:
                    control.put(None)
                except Exception:  # pragma: no cover
                    pass
            for proc in self._procs.values():
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
            for inbox in self._inboxes.values():
                inbox.close()
            self._record_arena.close()
            self._table.close()

    def __del__(self) -> None:  # pragma: no cover - GC ordering varies
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Conveniences
# ----------------------------------------------------------------------
def run_orchestrated(
    attack: SingleTraceAttack,
    trace_count: int,
    coeffs_per_trace: int = 8,
    first_seed: int = 1,
    workers: Optional[int] = None,
    grain: Optional[int] = None,
    min_steal: int = 8,
    engine: Optional[str] = None,
    campaign_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    shard_size: int = 256,
) -> CampaignReport:
    """One-shot orchestrated campaign (the ``run_campaign`` signature
    plus checkpointing) — submit, wait, tear down."""
    with Orchestrator(
        attack,
        workers=workers,
        grain=grain,
        min_steal=min_steal,
        engine=engine,
    ) as orchestrator:
        job = orchestrator.submit(
            trace_count,
            coeffs_per_trace=coeffs_per_trace,
            first_seed=first_seed,
            campaign_dir=campaign_dir,
            resume=resume,
            shard_size=shard_size,
        )
        return job.result()
