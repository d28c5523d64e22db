"""Warm-pool campaign orchestrator with checkpoint/resume.

:class:`Orchestrator` is the package's one parallel attack executor:
:func:`repro.attack.campaign.run_campaign` with ``workers > 1`` and the
``campaign`` CLI target both run through it.

- **Futures on a warm pool.**  The orchestrator forks one process pool
  (:func:`repro.utils.pool.process_pool`) on its first
  :meth:`~Orchestrator.submit`; the pool initializer hands every worker
  the profiled attack once, and later submits reuse the same warm
  workers.  A job's unfolded victim seeds are cut into *grains* of at
  most ``grain`` consecutive seeds.  Each grain is one future: it runs
  the per-seed chain (:func:`~repro.attack.campaign._attack_seed`) and
  returns the grain's records as the dense arrays checkpoint shards
  store (:func:`_pack_record`).
- **Driver fold.**  A driver thread folds futures as they complete into
  the job's seed-indexed arrays and serves the :class:`CampaignJob`
  handle's progress, cancel and result calls.
- **Checkpoint / resume.**  Folded seeds complete fixed-size checkpoint
  shards; each finished shard is written atomically
  (:mod:`repro.attack.checkpoint`) so a killed campaign resumes from
  the last completed shard under a fingerprint guard.
- **Worker death is survivable.**  A dead worker breaks the pool
  (``BrokenProcessPool``).  The driver counts the break, forks a fresh
  pool and resubmits every grain it has not folded, so a break costs at
  most the grains in flight.

The determinism contract is the campaign one: per-seed outcomes are a
pure function of ``(attack, seed, coeffs, batch entropy)``, so the
assembled :class:`~repro.attack.campaign.CampaignReport` is
seed-ordered, worker-count-invariant, completion-order-invariant and
bit-identical to the serial ``run_campaign`` — rerun grains fold the
same bits.  The ``campaign.orchestrated`` oracle and the kill/resume
tests pin it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

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
from repro.errors import AttackError
from repro.riscv.device import effective_engine
from repro.utils.pool import process_pool

Grain = Tuple[int, int]


# ----------------------------------------------------------------------
# Grain record packing (worker side) and unpacking (parent side)
# ----------------------------------------------------------------------
def _sign_groups(labels: Sequence[int]) -> Dict[int, List[Tuple[int, int]]]:
    """``sign -> [(column, label), ...]`` in template-bank label order —
    the dense table layout both ends of a grain record agree on."""
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for column, label in enumerate(int(l) for l in labels):
        groups.setdefault(sign_of(label), []).append((column, label))
    return groups


def _pack_record(
    chunk: List[SeedOutcome],
    coeffs: int,
    groups: Dict[int, List[Tuple[int, int]]],
    n_labels: int,
) -> List[np.ndarray]:
    """One contiguous run of per-seed outcomes as dense arrays.

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
# Worker-process state: the profiled attack arrives once through the
# pool initializer instead of being pickled into every grain.
_WORKER: dict = {}


def _worker_init(attack: SingleTraceAttack) -> None:
    _WORKER["attack"] = attack
    _WORKER["groups"] = _sign_groups(attack.templates.labels)


def _run_grain(
    lo: int, hi: int, count: int, entropy: int, engine: str
) -> List[np.ndarray]:
    """Attack victim seeds ``[lo, hi)`` in a warm worker; return the
    grain's packed record."""
    attack = _WORKER["attack"]
    outcomes = [
        _attack_seed(attack, seed, count, entropy, engine) for seed in range(lo, hi)
    ]
    return _pack_record(
        outcomes, count, _WORKER["groups"], len(attack.templates.labels)
    )


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
        trace_count: int,
        count: int,
        first_seed: int,
        entropy: int,
        checkpoint: Optional[CampaignCheckpoint],
    ) -> None:
        self._orchestrator = orchestrator
        self.trace_count = trace_count
        self.count = count  # coefficients per trace
        self.first_seed = first_seed
        self.entropy = entropy
        self.checkpoint = checkpoint
        n, n_labels = trace_count, len(orchestrator._labels)
        self.folded = np.zeros(n, dtype=bool)
        self.ok = np.zeros(n, dtype=np.uint8)
        self.values = np.zeros((n, count), dtype=np.int64)
        self.signs = np.zeros((n, count), dtype=np.int64)
        self.estimates = np.zeros((n, count), dtype=np.int64)
        self.tables = np.zeros((n, count, n_labels), dtype=np.float64)
        self.errors: Dict[int, str] = {}
        self.timings = {stage: 0.0 for stage in STAGES}
        self.base_counters: Dict[str, int] = {}
        self.grains = 0
        self.checkpoints_written = 0
        self.workers_died = 0
        self._grains_at_break: Optional[int] = None
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
        return CampaignProgress(
            status=self._status,
            seeds_done=int(self.folded.sum()),
            seeds_total=self.trace_count,
            shards_done=len(self.checkpoint.shards_done) if self.checkpoint else 0,
            shards_total=self.checkpoint.shards_total if self.checkpoint else 0,
            grains=self.base_counters.get("grains", 0) + self.grains,
            checkpoints=self.checkpoints_written,
            workers_alive=len(self._orchestrator.worker_pids()),
            workers_died=self.workers_died,
            wall_seconds=time.perf_counter() - self._started,
        )

    def cancel(self) -> None:
        """Stop at the next grain boundary; completed shards stay
        checkpointed, so a later ``resume`` picks up from here."""
        if not self._done.is_set():
            self._cancel.set()

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
    """A persistent campaign engine over one profiled attack.

    The worker pool forks on the first :meth:`submit` (carrying the
    profiled attack by copy-on-write; under ``spawn`` the attack pickles
    once per worker) and then serves any number of submitted campaigns.
    See the module docstring for the design.
    """

    def __init__(
        self,
        attack: SingleTraceAttack,
        workers: Optional[int] = None,
        grain: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> None:
        if attack.templates is None or attack.branch_classifier is None:
            raise AttackError("profile() must run before a campaign")
        self.attack = attack
        self.workers = max(1, int(workers) if workers else min(4, os.cpu_count() or 1))
        # effective_engine: "compiled" degrades to "threaded" without a C
        # toolchain, and the report records the engine that actually ran.
        self.engine = effective_engine(
            engine if engine is not None else getattr(attack.acquisition, "engine", None)
        )
        self.grain = max(1, int(grain) if grain else 32)
        self._labels = [int(l) for l in attack.templates.labels]
        self._groups = _sign_groups(self._labels)
        self._pool = None
        self._closed = False
        self._active: Optional[CampaignJob] = None
        self._submit_lock = threading.Lock()

    # ------------------------------------------------------------------
    def __enter__(self) -> "Orchestrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def worker_pids(self) -> List[int]:
        if self._pool is None:
            return []
        # ProcessPoolExecutor has no public view of its workers; its
        # ``_processes`` map (pid -> Process) is None after shutdown.
        processes = self._pool._processes or {}
        return [p.pid for p in list(processes.values()) if p.is_alive()]

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
            job = CampaignJob(
                self,
                trace_count,
                coeffs_per_trace,
                first_seed,
                entropy,
                checkpoint,
            )
            if checkpoint is not None and resume:
                self._preload(job)
            # Submitting here forks a cold pool from the caller's thread,
            # before the driver thread exists.
            futures = self._submit_grains(job, self._grains(job))
            if futures:
                job._status = "running"
            self._active = job
            thread = threading.Thread(
                target=self._run_job, args=(job, futures), daemon=True
            )
            thread.start()
            return job

    def _preload(self, job: CampaignJob) -> None:
        """Fold already-checkpointed shards into the job's store."""
        checkpoint = job.checkpoint
        for shard in checkpoint.shards_done:
            seeds = checkpoint.shard_range(shard)
            lo = seeds.start - job.first_seed
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
    def _grains(self, job: CampaignJob) -> List[Grain]:
        """The job's unfolded seeds as ``[lo, hi)`` runs of at most
        ``grain`` consecutive seeds."""
        grains: List[Grain] = []
        for index in np.flatnonzero(~job.folded):
            seed = job.first_seed + int(index)
            if grains and grains[-1][1] == seed and seed - grains[-1][0] < self.grain:
                grains[-1] = (grains[-1][0], seed + 1)
            else:
                grains.append((seed, seed + 1))
        return grains

    def _submit_grains(
        self, job: CampaignJob, grains: List[Grain]
    ) -> Dict[Future, Grain]:
        """One future per grain on the warm pool (forked on first use).

        A pool that broke while idle refuses new work; that refusal
        becomes a failed future, so the driver's break recovery covers
        it like any other."""
        if grains and self._pool is None:
            self._pool = process_pool(self.workers, _worker_init, (self.attack,))
        futures: Dict[Future, Grain] = {}
        for lo, hi in grains:
            try:
                future = self._pool.submit(
                    _run_grain, lo, hi, job.count, job.entropy, self.engine
                )
            except BrokenProcessPool as exc:
                future = Future()
                future.set_exception(exc)
            futures[future] = (lo, hi)
        return futures

    def _run_job(self, job: CampaignJob, futures: Dict[Future, Grain]) -> None:
        try:
            self._drive(job, futures)
        # Nothing above the driver thread catches: fail the job, never hang.
        except Exception as exc:
            job._error = str(exc) if isinstance(exc, AttackError) else (
                f"{type(exc).__name__}: {exc}"
            )
            job._status = "failed"
            job._done.set()

    def _drive(self, job: CampaignJob, futures: Dict[Future, Grain]) -> None:
        try:
            while futures and not job._cancel.is_set():
                done, _ = wait(futures, timeout=0.2, return_when=FIRST_COMPLETED)
                lost: List[Grain] = []
                for future in done:
                    grain = futures.pop(future)
                    if not self._settle(job, future, grain):
                        lost.append(grain)
                if lost:
                    futures = self._recover(job, futures, lost)
        finally:
            # Grains of a cancelled or failed job must not hold the
            # pool; ones already running finish and are dropped.
            for future in futures:
                future.cancel()
        if job._cancel.is_set() and not bool(job.folded.all()):
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

    def _settle(self, job: CampaignJob, future: Future, grain: Grain) -> bool:
        """Fold a finished grain; ``False`` if the pool broke under it."""
        error = future.exception()
        if isinstance(error, BrokenProcessPool):
            return False
        if error is not None:
            lo, hi = grain
            raise AttackError(
                f"seeds [{lo}, {hi}) failed in a worker: "
                f"{type(error).__name__}: {error}"
            ) from error
        self._fold(job, future.result())
        return True

    def _recover(
        self,
        job: CampaignJob,
        futures: Dict[Future, Grain],
        lost: List[Grain],
    ) -> Dict[Future, Grain]:
        """A worker died and broke the pool: fold what finished, fork a
        fresh pool and resubmit every unfolded grain."""
        job.workers_died += 1
        if job._grains_at_break == job.grains:
            raise AttackError(
                "the worker pool broke twice without completing a grain; "
                "a grain may be killing its worker"
            )
        job._grains_at_break = job.grains
        # Shutting the broken pool down waits for its manager thread,
        # which has failed every future that had not finished.
        self._pool.shutdown(wait=True)
        self._pool = None
        for future, grain in futures.items():
            if not self._settle(job, future, grain):
                lost.append(grain)
        return self._submit_grains(job, sorted(lost))

    def _fold(self, job: CampaignJob, arrays: List[np.ndarray]) -> None:
        meta, ok, values, signs, estimates, tables, timings, error_blob = arrays
        lo = int(meta[0]) - job.first_seed
        hi = int(meta[1]) - job.first_seed
        job.ok[lo:hi] = ok
        job.values[lo:hi] = values
        job.signs[lo:hi] = signs
        job.estimates[lo:hi] = estimates
        job.tables[lo:hi] = tables
        for stage_index, stage in enumerate(STAGES):
            job.timings[stage] += float(timings[stage_index])
        for seed, text in json.loads(error_blob.tobytes().decode() or "[]"):
            job.errors[int(seed)] = str(text)
        job.grains += 1
        newly = ~job.folded[lo:hi]
        job.folded[lo:hi] = True
        if job.checkpoint is not None and bool(newly.any()):
            self._maybe_checkpoint(job, lo, hi)

    def _maybe_checkpoint(self, job: CampaignJob, lo: int, hi: int) -> None:
        checkpoint = job.checkpoint
        size = checkpoint.shard_size
        for shard in range(lo // size, (hi - 1) // size + 1):
            if shard in checkpoint.shards_done:
                continue
            seeds = checkpoint.shard_range(shard)
            a = seeds.start - job.first_seed
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
        merged = dict(job.base_counters)
        merged["grains"] = job.base_counters.get("grains", 0) + job.grains
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
        job.checkpoint.write_manifest()

    # ------------------------------------------------------------------
    def _assemble(self, job: CampaignJob, wall: float) -> CampaignReport:
        results: List[SeedOutcome] = []
        for i in range(job.trace_count):
            seed = job.first_seed + i
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
        metadata = {
            "grain": self.grain,
            "shard_size": job.checkpoint.shard_size if job.checkpoint else 0,
            "grains": job.base_counters.get("grains", 0) + job.grains,
            "checkpoints": job.checkpoints_written,
            "workers_died": job.workers_died,
        }
        return aggregate_outcomes(
            results,
            job.trace_count,
            wall,
            self.workers,
            self.engine,
            base_timings=job.timings,
            orchestrator=metadata,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop any active job and shut the pool down; workers exit
        normally, so their exit handlers run."""
        if self._closed:
            return
        self._closed = True
        if self._active is not None and not self._active.done:
            self._active.cancel()
            self._active._done.wait(timeout=10.0)
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    def __del__(self) -> None:  # pragma: no cover - GC ordering varies
        try:
            self.close()
        except Exception:  # interpreter teardown may have freed what close() needs
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
    engine: Optional[str] = None,
    campaign_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    shard_size: int = 256,
) -> CampaignReport:
    """One-shot orchestrated campaign (the ``run_campaign`` signature
    plus checkpointing) — submit, wait, tear down."""
    with Orchestrator(
        attack, workers=workers, grain=grain, engine=engine
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
