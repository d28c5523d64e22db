"""The campaign executor, with checkpoint/resume.

:func:`run_orchestrated` runs every attack campaign in the package:
:func:`repro.attack.campaign.run_campaign` and the ``campaign`` CLI
target both call it, at any worker count.  It is one synchronous call:

- **Grains.**  The unfolded victim seeds are cut into *grains* of at
  most ``grain`` consecutive seeds.  A grain runs :func:`_attack_seed`
  per seed, which writes the seed's row straight into the grain's
  dense record: the arrays checkpoint shards store (``ok``, ``values``,
  ``signs``, ``estimates``, posterior ``tables``), plus stage timings
  and error messages.
- **One worker-count rule.**  ``workers=None`` picks ``min(4, cpus)``;
  any count is clamped to ``trace_count``.  The grains run on
  :func:`repro.utils.pool.run_grains`: at one worker or fewer in the
  calling thread with no fork, else one future each on a forked pool.
- **Fold in the caller's thread.**  Records are folded as they complete
  into the campaign's seed-indexed arrays, and completed checkpoint
  shards are written atomically (:mod:`repro.attack.checkpoint`), so a
  killed campaign resumes from them under a fingerprint guard.  A shard
  archive that does not load, or has another shape, is attacked again.
- **Worker death is survivable.**  A dead worker breaks the pool; the
  executor counts it in ``workers_died``, forks a fresh pool and
  resubmits every grain it has not yielded, for profiling grains too.

Per-seed outcomes are a pure function of ``(attack, seed, coeffs, batch
entropy)``, so the :class:`~repro.attack.campaign.CampaignReport` is
seed-ordered and invariant to worker count, completion order and
interruption.  The ``campaign.orchestrated`` oracle (against a plain
per-trace loop) and the kill/resume tests pin it.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import closing
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.attack.campaign import STAGES, CampaignReport, aggregate_outcomes
from repro.attack.checkpoint import CampaignCheckpoint, campaign_fingerprint
from repro.attack.pipeline import SingleTraceAttack
from repro.errors import AttackError
from repro.power.capture import _capture_one
from repro.riscv.device import effective_engine
from repro.utils.pool import DEFAULT_GRAIN, Grain, run_grains

#: The per-seed arrays of a grain record, of a campaign's state and of a
#: checkpoint shard (which adds ``errors``, a JSON blob).
_FIELDS = ("ok", "values", "signs", "estimates", "tables")


def _empty_arrays(n: int, count: int, n_labels: int) -> Dict[str, np.ndarray]:
    return {
        "ok": np.zeros(n, dtype=np.uint8),
        "values": np.zeros((n, count), dtype=np.int64),
        "signs": np.zeros((n, count), dtype=np.int64),
        "estimates": np.zeros((n, count), dtype=np.int64),
        "tables": np.zeros((n, count, n_labels), dtype=np.float64),
    }


# ----------------------------------------------------------------------
# Grains
# ----------------------------------------------------------------------
def _attack_seed(
    attack: SingleTraceAttack,
    seed: int,
    count: int,
    entropy: int,
    engine: str,
    record: Dict[str, Any],
    row: int,
) -> None:
    """Capture, segment, classify and score victim ``seed`` into row
    ``row`` of a grain ``record``; a trace that cannot be attacked
    leaves ``ok`` at 0 and appends ``[seed, message]`` to its errors."""
    seconds = record["timings"]
    acquisition = attack.acquisition
    tick = time.perf_counter()
    captured = _capture_one(
        acquisition.device,
        acquisition.leakage,
        acquisition.scope,
        seed,
        count,
        entropy,
        engine=engine,
    )
    record["values"][row] = captured.values
    tick, stage = _lap(seconds, 0, tick), 1
    try:
        aligned = attack.segmenter.aligned_slices(
            captured.trace.samples, refiner=attack.refiner
        )
        if len(aligned) != len(captured.values):
            raise AttackError(
                f"segmented {len(aligned)} coefficients, "
                f"expected {len(captured.values)}"
            )
        tick, stage = _lap(seconds, 1, tick), 2
        result = attack.attack_aligned(aligned)
    except AttackError as exc:
        _lap(seconds, stage, tick)
        record["errors"].append([seed, str(exc)])
        return
    tick = _lap(seconds, 2, tick)
    record["ok"][row] = 1
    record["signs"][row] = result.signs
    record["estimates"][row] = result.estimates
    record["tables"][row] = result.probability_matrix
    _lap(seconds, 3, tick)


def _lap(seconds: List[float], stage: int, tick: float) -> float:
    """Add the time since ``tick`` to ``seconds[stage]``; return now.
    A grain sums its stage times in a list of floats, not an array:
    numpy scalar arithmetic costs a microsecond per lap."""
    now = time.perf_counter()
    seconds[stage] += now - tick
    return now


def _run_grain(
    attack: SingleTraceAttack,
    lo: int,
    hi: int,
    count: int,
    entropy: int,
    engine: str,
) -> Dict[str, Any]:
    """Attack victim seeds ``[lo, hi)``; return the grain's record."""
    record: Dict[str, Any] = _empty_arrays(
        hi - lo, count, len(attack.templates.labels)
    )
    record.update(lo=lo, timings=[0.0] * len(STAGES), errors=[])
    for row, seed in enumerate(range(lo, hi)):
        _attack_seed(attack, seed, count, entropy, engine, record, row)
    record["timings"] = np.array(record["timings"])
    return record


# ----------------------------------------------------------------------
# Caller-side fold
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
        self.count = count  # coefficients per trace
        self.first_seed = first_seed
        self.checkpoint = checkpoint
        self.arrays = _empty_arrays(trace_count, count, n_labels)
        self.folded = np.zeros(trace_count, dtype=bool)
        self.errors: Dict[int, str] = {}
        self.timings = {stage: 0.0 for stage in STAGES}
        self.base_counters: Dict[str, int] = {}
        self.grains = 0
        self.checkpoints_written = 0
        self.workers_died = 0

    def _put(self, lo: int, arrays: Dict[str, Any], errors) -> Tuple[int, int]:
        """Copy per-seed rows for seeds ``lo, lo + 1, ...`` into the
        campaign's arrays; return their ``[a, b)`` index range."""
        a = lo - self.first_seed
        b = a + len(arrays["ok"])
        for key in _FIELDS:
            self.arrays[key][a:b] = arrays[key]
        for seed, message in errors:
            self.errors[int(seed)] = str(message)
        self.folded[a:b] = True
        return a, b

    def preload(self) -> None:
        """Fold already-checkpointed shards into the arrays.  A shard
        whose archive does not load or does not match this campaign's
        shard shape is dropped from the checkpoint and attacked again."""
        checkpoint = self.checkpoint
        for shard in list(checkpoint.shards_done):
            seeds = checkpoint.shard_range(shard)
            a = seeds.start - self.first_seed
            arrays = checkpoint.load_shard(shard)
            errors = _shard_errors(arrays, self.arrays, a, len(seeds))
            if errors is None:
                checkpoint.shards_done.remove(shard)
                continue
            self._put(seeds.start, arrays, errors)
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

    def worker_died(self) -> None:
        self.workers_died += 1

    def fold(self, record: Dict[str, Any]) -> None:
        a, b = self._put(record["lo"], record, record["errors"])
        for stage, seconds in zip(STAGES, record["timings"].tolist()):
            self.timings[stage] += seconds
        self.grains += 1
        if self.checkpoint is not None:
            self._maybe_checkpoint(a, b)

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
                **{key: self.arrays[key][a:b] for key in _FIELDS},
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
        labels: List[int],
        grain: int,
        workers: int,
        engine: str,
        wall: float,
    ) -> CampaignReport:
        metadata = {
            "grain": grain,
            "shard_size": self.checkpoint.shard_size if self.checkpoint else 0,
            "grains": self.base_counters.get("grains", 0) + self.grains,
            "checkpoints": self.checkpoints_written,
            "workers_died": self.workers_died,
        }
        return aggregate_outcomes(
            self.first_seed,
            labels,
            self.arrays,
            self.errors,
            self.timings,
            wall,
            workers,
            engine,
            metadata,
        )


def _shard_errors(arrays, like: Dict[str, np.ndarray], a: int, n: int):
    """A loaded shard's ``[seed, message]`` list; ``None`` unless every
    per-seed array matches rows ``[a, a + n)`` of ``like`` in shape and
    dtype and the error blob parses."""
    if arrays is None:
        return None
    for key in _FIELDS:
        want = like[key][a : a + n]
        got = arrays.get(key)
        if got is None or got.shape != want.shape or got.dtype != want.dtype:
            return None
    try:
        return json.loads(arrays["errors"].tobytes().decode())
    except (KeyError, ValueError):
        return None


def _execute(
    state: _CampaignState,
    attack: SingleTraceAttack,
    workers: int,
    grain: int,
    entropy: int,
    engine: str,
) -> None:
    """Attack every unfolded seed; fold each grain as it completes."""
    records = run_grains(
        _run_grain,
        attack,
        state.unfolded_grains(grain),
        workers,
        (state.count, entropy, engine),
        on_break=state.worker_died,
    )
    with closing(records):
        for _, record in records:
            state.fold(record)


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
    """Attack ``trace_count`` victim seeds (the ``run_campaign``
    signature plus grain size and checkpointing).

    ``workers=None`` runs ``min(4, cpus)`` worker processes; the count
    is clamped to ``trace_count``, and at one or fewer the grains run
    in this thread without forking.  With ``campaign_dir`` every
    completed shard of ``shard_size`` seeds is checkpointed atomically;
    ``resume=True`` reloads completed shards (fingerprint-checked) and
    only the remainder is attacked.  A failed grain raises
    :class:`~repro.errors.AttackError`; the shards written before it
    stay valid for a later ``resume``.
    """
    if attack.templates is None or attack.branch_classifier is None:
        raise AttackError("profile() must run before a campaign")
    if trace_count < 1:
        raise AttackError(f"trace_count must be >= 1, got {trace_count}")
    if resume and campaign_dir is None:
        raise AttackError("resume=True needs campaign_dir")
    cpus = os.cpu_count() or 1
    if workers is None:
        workers = min(4, cpus)
    workers = max(1, min(int(workers), trace_count, cpus * 4))
    grain = max(1, int(grain) if grain else DEFAULT_GRAIN)
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
    return state.assemble(labels, grain, workers, engine, wall)
