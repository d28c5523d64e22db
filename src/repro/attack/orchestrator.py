"""The parallel campaign executor, with checkpoint/resume.

:func:`run_orchestrated` is the package's one parallel attack executor:
:func:`repro.attack.campaign.run_campaign` with ``workers > 1`` and the
``campaign`` CLI target both call it.  It is one synchronous call:

- **Futures on a forked pool.**  The call forks one process pool
  (:func:`repro.utils.pool.process_pool`); the pool initializer hands
  every worker the profiled attack once.  The campaign's unfolded victim
  seeds are cut into *grains* of at most ``grain`` consecutive seeds.
  Each grain is one future: it runs the per-seed chain
  (:func:`~repro.attack.campaign._attack_seed`) and returns the grain's
  records as the dense arrays checkpoint shards store
  (:func:`_pack_record`).
- **Fold in the caller's thread.**  The call folds futures as they
  complete into the campaign's seed-indexed arrays, then shuts the pool
  down before it returns or raises.
- **Checkpoint / resume.**  Folded seeds complete fixed-size checkpoint
  shards; each finished shard is written atomically
  (:mod:`repro.attack.checkpoint`) so a killed or interrupted campaign
  resumes from its completed shards under a fingerprint guard.
- **Worker death is survivable.**  A dead worker breaks the pool
  (``BrokenProcessPool``).  The fold counts the break, forks a fresh
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
import time
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool
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
# Parent-side fold
# ----------------------------------------------------------------------
class _CampaignState:
    """One call's seed-indexed result arrays, the counters its report
    and checkpoint manifest carry, and the fold that fills them."""

    def __init__(
        self,
        trace_count: int,
        count: int,
        first_seed: int,
        n_labels: int,
        checkpoint: Optional[CampaignCheckpoint],
    ) -> None:
        self.trace_count = trace_count
        self.count = count  # coefficients per trace
        self.first_seed = first_seed
        self.checkpoint = checkpoint
        n = trace_count
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

    def preload(self) -> None:
        """Fold already-checkpointed shards into the arrays."""
        checkpoint = self.checkpoint
        for shard in checkpoint.shards_done:
            seeds = checkpoint.shard_range(shard)
            lo = seeds.start - self.first_seed
            hi = lo + len(seeds)
            arrays = checkpoint.load_shard(shard)
            self.ok[lo:hi] = arrays["ok"]
            self.values[lo:hi] = arrays["values"]
            self.signs[lo:hi] = arrays["signs"]
            self.estimates[lo:hi] = arrays["estimates"]
            self.tables[lo:hi] = arrays["tables"]
            self.folded[lo:hi] = True
            for seed, message in json.loads(bytes(arrays["errors"].tobytes()).decode()):
                self.errors[int(seed)] = str(message)
        for key, value in checkpoint.counters.items():
            if key.startswith("t_") and key.endswith("_us"):
                self.timings[key[2:-3]] = value / 1e6
            else:
                self.base_counters[key] = int(value)

    def unfolded_grains(self, grain: int) -> List[Grain]:
        """The unfolded seeds as ``[lo, hi)`` runs of at most ``grain``
        consecutive seeds."""
        grains: List[Grain] = []
        for index in np.flatnonzero(~self.folded):
            seed = self.first_seed + int(index)
            if grains and grains[-1][1] == seed and seed - grains[-1][0] < grain:
                grains[-1] = (grains[-1][0], seed + 1)
            else:
                grains.append((seed, seed + 1))
        return grains

    def fold(self, arrays: List[np.ndarray]) -> None:
        meta, ok, values, signs, estimates, tables, timings, error_blob = arrays
        lo = int(meta[0]) - self.first_seed
        hi = int(meta[1]) - self.first_seed
        self.ok[lo:hi] = ok
        self.values[lo:hi] = values
        self.signs[lo:hi] = signs
        self.estimates[lo:hi] = estimates
        self.tables[lo:hi] = tables
        for stage_index, stage in enumerate(STAGES):
            self.timings[stage] += float(timings[stage_index])
        for seed, text in json.loads(error_blob.tobytes().decode() or "[]"):
            self.errors[int(seed)] = str(text)
        self.grains += 1
        newly = ~self.folded[lo:hi]
        self.folded[lo:hi] = True
        if self.checkpoint is not None and bool(newly.any()):
            self._maybe_checkpoint(lo, hi)

    def _maybe_checkpoint(self, lo: int, hi: int) -> None:
        checkpoint = self.checkpoint
        size = checkpoint.shard_size
        for shard in range(lo // size, (hi - 1) // size + 1):
            if shard in checkpoint.shards_done:
                continue
            seeds = checkpoint.shard_range(shard)
            a = seeds.start - self.first_seed
            b = a + len(seeds)
            if not bool(self.folded[a:b].all()):
                continue
            errors = [
                [seed, self.errors[seed]]
                for seed in seeds
                if seed in self.errors
            ]
            self._sync_counters()
            checkpoint.write_shard(
                shard,
                ok=self.ok[a:b],
                values=self.values[a:b],
                signs=self.signs[a:b],
                estimates=self.estimates[a:b],
                tables=self.tables[a:b],
                errors=np.frombuffer(
                    json.dumps(errors).encode(), dtype=np.uint8
                ),
            )
            self.checkpoints_written += 1

    def _sync_counters(self) -> None:
        merged = dict(self.base_counters)
        merged["grains"] = self.base_counters.get("grains", 0) + self.grains
        merged["checkpoints"] = (
            self.base_counters.get("checkpoints", 0) + self.checkpoints_written
        )
        merged["workers_died"] = (
            self.base_counters.get("workers_died", 0) + self.workers_died
        )
        for stage, seconds in self.timings.items():
            merged[f"t_{stage}_us"] = int(seconds * 1e6)
        self.checkpoint.counters = merged

    def finalize_checkpoint(self) -> None:
        if self.checkpoint is None:
            return
        self._sync_counters()
        self.checkpoint.write_manifest()

    def assemble(
        self,
        groups: Dict[int, List[Tuple[int, int]]],
        grain: int,
        workers: int,
        engine: str,
        wall: float,
    ) -> CampaignReport:
        results: List[SeedOutcome] = []
        for i in range(self.trace_count):
            seed = self.first_seed + i
            if self.ok[i]:
                results.append(
                    SeedOutcome(
                        seed=seed,
                        values=[int(v) for v in self.values[i]],
                        signs=[int(s) for s in self.signs[i]],
                        estimates=[int(e) for e in self.estimates[i]],
                        tables=_rebuild_tables(self.signs[i], self.tables[i], groups),
                        timings={},
                    )
                )
            else:
                results.append(
                    SeedOutcome(
                        seed=seed,
                        values=[int(v) for v in self.values[i]],
                        signs=[],
                        estimates=[],
                        tables=[],
                        timings={},
                        error=self.errors.get(seed, "worker did not report"),
                    )
                )
        metadata = {
            "grain": grain,
            "shard_size": self.checkpoint.shard_size if self.checkpoint else 0,
            "grains": self.base_counters.get("grains", 0) + self.grains,
            "checkpoints": self.checkpoints_written,
            "workers_died": self.workers_died,
        }
        return aggregate_outcomes(
            results,
            self.trace_count,
            wall,
            workers,
            engine,
            base_timings=self.timings,
            orchestrator=metadata,
        )


def _execute(
    state: _CampaignState,
    attack: SingleTraceAttack,
    workers: int,
    grain: int,
    entropy: int,
    engine: str,
) -> None:
    """Attack every unfolded seed on a forked pool, folding grains as
    they complete; fork a fresh pool for the grains a broken one lost."""
    grains_at_break: Optional[int] = None
    grains = state.unfolded_grains(grain)
    while grains:
        broke = False
        pool = process_pool(workers, _worker_init, (attack,))
        try:
            futures = {}
            for lo, hi in grains:
                try:
                    future = pool.submit(
                        _run_grain, lo, hi, state.count, entropy, engine
                    )
                except BrokenProcessPool:  # a worker died during submission
                    broke = True
                    break
                futures[future] = (lo, hi)
            for future in as_completed(futures):
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    broke = True
                elif error is not None:
                    lo, hi = futures[future]
                    raise AttackError(
                        f"seeds [{lo}, {hi}) failed in a worker: "
                        f"{type(error).__name__}: {error}"
                    ) from error
                else:
                    state.fold(future.result())
        finally:
            # The pool's own __exit__ would run every queued grain of a
            # failed or interrupted campaign to the end.
            pool.shutdown(wait=True, cancel_futures=True)
        grains = state.unfolded_grains(grain)
        if broke:
            state.workers_died += 1
            if grains_at_break == state.grains:
                raise AttackError(
                    "the worker pool broke twice without completing a grain; "
                    "a grain may be killing its worker"
                )
            grains_at_break = state.grains


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
    """Attack ``trace_count`` victim seeds on a pool of ``workers``
    processes (the ``run_campaign`` signature plus checkpointing).

    With ``campaign_dir`` every completed shard of ``shard_size`` seeds
    is checkpointed atomically; ``resume=True`` reloads completed shards
    (fingerprint-checked) and only the remainder is attacked.  A failed
    grain raises :class:`~repro.errors.AttackError`; the shards written
    before it stay valid for a later ``resume``.
    """
    if attack.templates is None or attack.branch_classifier is None:
        raise AttackError("profile() must run before a campaign")
    if trace_count < 1:
        raise AttackError(f"trace_count must be >= 1, got {trace_count}")
    if resume and campaign_dir is None:
        raise AttackError("resume=True needs campaign_dir")
    workers = max(1, int(workers) if workers else min(4, os.cpu_count() or 1))
    grain = max(1, int(grain) if grain else 32)
    # effective_engine: "compiled" degrades to "threaded" without a C
    # toolchain, and the report records the engine that actually ran.
    engine = effective_engine(
        engine if engine is not None else getattr(attack.acquisition, "engine", None)
    )
    labels = [int(l) for l in attack.templates.labels]
    entropy = attack.acquisition.batch_entropy()
    fingerprint = campaign_fingerprint(
        first_seed, trace_count, coeffs_per_trace, entropy, labels
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
    state = _CampaignState(
        trace_count, coeffs_per_trace, first_seed, len(labels), checkpoint
    )
    started = time.perf_counter()
    if checkpoint is not None and resume:
        state.preload()
    _execute(state, attack, workers, grain, entropy, engine)
    state.finalize_checkpoint()
    wall = time.perf_counter() - started
    return state.assemble(_sign_groups(labels), grain, workers, engine, wall)
