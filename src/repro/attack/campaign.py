"""Campaign-scale end-to-end attack evaluation.

The paper profiles with 220,000 device executions and evaluates on tens
of thousands of attack traces.  This module is the campaign entry
point:

- :func:`run_campaign` runs ``capture -> segment -> classify -> score``
  for N victim seeds: in-process when serial, and on the process
  pool of :mod:`repro.attack.orchestrator` for ``workers > 1``.  Every
  trace's measurement noise is a pure function of ``(batch entropy,
  seed)`` under the counter-based stream of :mod:`repro.power.noise` —
  so the report is **identical** for any worker count, engine or
  completion order.
- :func:`aggregate_outcomes` is the one fold from per-seed outcomes to
  a :class:`CampaignReport`: accuracies, the confusion matrix, the
  probability tables (the LWE-with-hints input, with
  :meth:`~CampaignReport.hint_statistics` and
  :meth:`~CampaignReport.estimate_bikz` on top) and **per-stage
  wall-time counters**.
- :func:`profiled_attack_cached` keys a profiled attack archive
  (:mod:`repro.attack.persistence`) by a hash of the full attack +
  profiling + bench configuration, so a campaign profiles once per
  configuration and every later run loads in milliseconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.attack import evaluation
from repro.attack.branch import sign_of
from repro.backends import backend_id
from repro.attack.metrics import ConfusionMatrix
from repro.attack.pipeline import ProfilingReport, SingleTraceAttack
from repro.errors import AttackError
from repro.power.capture import CapturedTrace, _capture_one
from repro.power.noise import NOISE_STREAM_VERSION
from repro.riscv.device import effective_engine

#: Timing stages reported by the campaign workers, in pipeline order.
STAGES = ("capture", "segment", "classify", "score")


@dataclass
class SeedOutcome:
    """One victim seed's end-to-end result (the worker return payload)."""

    seed: int
    values: List[int]
    signs: List[int]
    estimates: List[int]
    tables: List[Dict[int, float]]
    timings: Dict[str, float]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CampaignReport:
    """Aggregated outcome of a parallel attack campaign."""

    outcomes: List[Tuple[int, int, int, Dict[int, float]]] = field(repr=False)
    confusion: ConfusionMatrix = field(repr=False)
    sign_accuracy: float
    value_accuracy: float
    coefficients_attacked: int
    traces_attacked: int
    traces_failed: int
    failures: List[Tuple[int, str]] = field(repr=False)
    timings: Dict[str, float]
    wall_seconds: float
    workers: int
    engine: str = "threaded"
    #: ``name-version`` of the compute backend the campaign ran under
    #: (see :mod:`repro.backends`), as provenance only: every backend
    #: kernel is bit-exact, so reports are bit-identical across
    #: backends.
    backend: str = "reference"
    #: Orchestrated runs attach their executor counters here (grain
    #: size, grains folded, checkpoint shards written, worker deaths
    #: survived) — :meth:`format_timings` shows them.  ``None`` for
    #: serial :func:`run_campaign` reports.  Deliberately excluded
    #: from the determinism contract: the *outcomes* are bit-identical
    #: across schedules, the schedule itself is not.
    orchestrator: Optional[Dict[str, int]] = None

    @property
    def coefficients_per_second(self) -> float:
        """End-to-end throughput (capture included)."""
        return self.coefficients_attacked / max(self.wall_seconds, 1e-12)

    @property
    def probability_tables(self) -> List[Dict[int, float]]:
        return [table for _, _, _, table in self.outcomes]

    def hint_statistics(self) -> Dict[str, float]:
        """Perfect-hint fraction and mean posterior variance."""
        return evaluation.hint_statistics(self.probability_tables)

    def estimate_bikz(self, params=None) -> float:
        """bikz of the SEAL-128 primal attack given this campaign's
        hints (see :func:`repro.attack.evaluation.estimate_bikz`)."""
        return evaluation.estimate_bikz(self.probability_tables, params)

    def format_timings(self) -> str:
        """Per-stage timing table (summed worker seconds + wall clock)."""
        busy = sum(self.timings.get(stage, 0.0) for stage in STAGES)
        lines = [
            f"per-stage timings ({self.workers} worker(s), "
            f"{self.engine} engine):"
        ]
        for stage in STAGES:
            seconds = self.timings.get(stage, 0.0)
            share = 100.0 * seconds / max(busy, 1e-12)
            lines.append(f"  {stage:<9} {seconds:8.3f} s  ({share:4.1f}%)")
        lines.append(
            f"  {'wall':<9} {self.wall_seconds:8.3f} s  "
            f"({self.coefficients_per_second:,.0f} coefficients/s)"
        )
        if self.orchestrator:
            meta = self.orchestrator
            lines.append(
                "orchestrator: "
                f"grain={meta.get('grain', 0)} "
                f"shard_size={meta.get('shard_size', 0)} "
                f"grains={meta.get('grains', 0)} "
                f"checkpoints={meta.get('checkpoints', 0)} "
                f"worker_deaths={meta.get('workers_died', 0)}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        return "\n".join(
            [
                f"traces attacked       : {self.traces_attacked} "
                f"({self.traces_failed} failed)",
                f"coefficients attacked : {self.coefficients_attacked}",
                f"sign accuracy         : {100 * self.sign_accuracy:.2f}%",
                f"value accuracy        : {100 * self.value_accuracy:.2f}%",
                self.format_timings(),
            ]
        )


def _attack_seed(
    attack: SingleTraceAttack,
    seed: int,
    count: int,
    entropy: int,
    engine: str = "threaded",
) -> SeedOutcome:
    """The whole per-seed chain, shared by the serial path and workers."""
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
    return _attack_captured(attack, captured, time.perf_counter() - tick)


def _attack_captured(
    attack: SingleTraceAttack, captured: CapturedTrace, capture_seconds: float
) -> SeedOutcome:
    """Segment, classify and score one captured trace."""
    seed = captured.seed
    timings: Dict[str, float] = {"capture": capture_seconds}

    tick = time.perf_counter()
    try:
        aligned = attack.segmenter.aligned_slices(
            captured.trace.samples, refiner=attack.refiner
        )
    except AttackError as exc:
        timings["segment"] = time.perf_counter() - tick
        return SeedOutcome(seed, captured.values, [], [], [], timings, str(exc))
    timings["segment"] = time.perf_counter() - tick
    if len(aligned) != len(captured.values):
        return SeedOutcome(
            seed,
            captured.values,
            [],
            [],
            [],
            timings,
            f"segmented {len(aligned)} coefficients, expected {len(captured.values)}",
        )

    tick = time.perf_counter()
    try:
        result = attack.attack_aligned(aligned)
    except AttackError as exc:
        timings["classify"] = time.perf_counter() - tick
        return SeedOutcome(seed, captured.values, [], [], [], timings, str(exc))
    timings["classify"] = time.perf_counter() - tick

    tick = time.perf_counter()
    outcome = SeedOutcome(
        seed=seed,
        values=captured.values,
        signs=result.signs,
        estimates=result.estimates,
        tables=result.probabilities,
        timings=timings,
    )
    timings["score"] = time.perf_counter() - tick
    return outcome


def run_campaign(
    attack: SingleTraceAttack,
    trace_count: int,
    coeffs_per_trace: int = 8,
    first_seed: int = 1,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
) -> CampaignReport:
    """Attack ``trace_count`` fresh executions, optionally in parallel.

    The attack must already be profiled.  ``workers > 1`` runs the
    campaign on :func:`repro.attack.orchestrator.run_orchestrated`'s
    process pool; otherwise it runs in this process.  Noise is drawn from
    the bench's batch-entropy streams (per-seed), so the report is
    bit-identical for any ``workers`` value and any completion order.
    Traces that fail to segment are recorded in ``report.failures`` and
    excluded from the statistics.

    ``engine`` picks the capture execution engine (``None`` defers to
    the bench's setting, then ``REVEAL_ENGINE``, then compiled, threaded
    without a C toolchain); every engine produces the identical report.
    """
    if attack.templates is None or attack.branch_classifier is None:
        raise AttackError("profile() must run before a campaign")
    acquisition = attack.acquisition
    # effective_engine: "compiled" degrades to "threaded" without a C
    # toolchain, and the report records the engine that actually ran.
    engine = effective_engine(
        engine if engine is not None else getattr(acquisition, "engine", None)
    )
    if workers is not None and workers > 1 and trace_count > 1:
        from repro.attack.orchestrator import run_orchestrated

        return run_orchestrated(
            attack,
            trace_count,
            coeffs_per_trace=coeffs_per_trace,
            first_seed=first_seed,
            workers=min(workers, trace_count, (os.cpu_count() or 1) * 4),
            engine=engine,
        )
    entropy = acquisition.batch_entropy()
    start = time.perf_counter()
    results = [
        _attack_seed(attack, first_seed + i, coeffs_per_trace, entropy, engine)
        for i in range(trace_count)
    ]
    wall = time.perf_counter() - start
    return aggregate_outcomes(results, trace_count, wall, 1, engine)


def aggregate_outcomes(
    results: List[SeedOutcome],
    trace_count: int,
    wall_seconds: float,
    workers: int,
    engine: str,
    base_timings: Optional[Dict[str, float]] = None,
    orchestrator: Optional[Dict[str, int]] = None,
) -> CampaignReport:
    """Fold seed-ordered :class:`SeedOutcome`\\ s into a report.

    This is the single aggregation path shared by :func:`run_campaign`
    and the orchestrator — the report's deterministic
    payload (outcomes, confusion, accuracies, failures) depends only on
    the per-seed outcomes, never on who computed them.
    ``base_timings`` seeds the per-stage counters for callers that
    accumulated worker time out of band (the orchestrator's grain
    records, resumed checkpoint shards).
    """
    confusion = ConfusionMatrix()
    outcomes: List[Tuple[int, int, int, Dict[int, float]]] = []
    failures: List[Tuple[int, str]] = []
    timings = {stage: 0.0 for stage in STAGES}
    for stage, seconds in (base_timings or {}).items():
        timings[stage] = timings.get(stage, 0.0) + seconds
    sign_hits = value_hits = 0
    for outcome in results:
        for stage, seconds in outcome.timings.items():
            timings[stage] = timings.get(stage, 0.0) + seconds
        if not outcome.ok:
            failures.append((outcome.seed, outcome.error))
            continue
        for value, sign, estimate, table in zip(
            outcome.values, outcome.signs, outcome.estimates, outcome.tables
        ):
            sign_hits += sign_of(value) == sign
            value_hits += estimate == value
            confusion.record(value, estimate)
            outcomes.append((value, sign, estimate, table))
    if not outcomes:
        raise AttackError("no trace in the campaign could be attacked")
    total = len(outcomes)
    return CampaignReport(
        outcomes=outcomes,
        confusion=confusion,
        sign_accuracy=sign_hits / total,
        value_accuracy=value_hits / total,
        coefficients_attacked=total,
        traces_attacked=trace_count - len(failures),
        traces_failed=len(failures),
        failures=failures,
        timings=timings,
        wall_seconds=wall_seconds,
        workers=workers,
        engine=engine,
        backend=backend_id(),
        orchestrator=orchestrator,
    )


# ----------------------------------------------------------------------
# Config-hash-keyed profile cache
# ----------------------------------------------------------------------
def _jsonable(value):
    """Best-effort stable JSON representation for hashing."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    return value


def profile_cache_key(
    attack: SingleTraceAttack,
    num_traces: int,
    coeffs_per_trace: int,
    first_seed: int,
    noise_mode: str,
) -> str:
    """Hash of everything the profiled state depends on.

    Covers the attack configuration (segmenter tunables, POI method and
    count, priors, covariance/standardisation modes, branch region),
    the profiling budget and seeds, the acquisition noise mode and the
    measurement bench itself (device moduli and clipping bound, scope
    front-end, leakage weights, batch entropy).  Any change produces a
    different key, so stale cache entries can never be served.
    """
    acquisition = attack.acquisition
    device = acquisition.device
    descriptor = {
        "segmenter": _jsonable(attack.segmenter.config),
        "poi_method": attack.poi_method,
        "poi_count": attack.poi_count,
        "use_prior": attack.use_prior,
        "sigma": attack.sigma,
        "pooled_covariance": attack.pooled_covariance,
        "standardize": attack.standardize,
        "branch_region": list(attack.branch_region),
        "num_traces": int(num_traces),
        "coeffs_per_trace": int(coeffs_per_trace),
        "first_seed": int(first_seed),
        "noise_mode": noise_mode,
        # Stream-construction version: profiles templated under one
        # noise stream must never be served against traces captured
        # under another (the v1 -> v2 Philox migration changed every
        # noise value while keeping the distribution).
        "noise_stream": NOISE_STREAM_VERSION,
        "batch_entropy": acquisition.batch_entropy(),
        "moduli": getattr(device, "moduli", None),
        "max_deviation": getattr(device, "max_deviation", None),
        "scope": _jsonable(acquisition.scope),
        "leakage": _jsonable(acquisition.leakage),
    }
    blob = json.dumps(descriptor, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def profiled_attack_cached(
    acquisition,
    cache_dir: Union[str, Path],
    attack_kwargs: Optional[dict] = None,
    num_traces: int = 400,
    coeffs_per_trace: int = 8,
    first_seed: int = 1,
    min_class_count: int = 3,
    workers: Optional[int] = None,
) -> Tuple[SingleTraceAttack, bool, Optional[ProfilingReport]]:
    """Profile once per configuration; later calls load from disk.

    Returns ``(attack, was_cached, profiling_report)`` — the report is
    ``None`` on a cache hit.  The archive is keyed by
    :func:`profile_cache_key`, so any change to the attack, profiling
    budget or bench produces a fresh profile instead of a stale hit.

    Note the profiling *noise* differs between serial (bench-sequential
    stream) and batch (per-seed streams) acquisition; the mode is part
    of the key.
    """
    from repro.attack.profile_store import ProfileStore

    attack = SingleTraceAttack(acquisition, **(attack_kwargs or {}))
    noise_mode = "sequential" if workers is None else "per-seed"
    key = profile_cache_key(
        attack, num_traces, coeffs_per_trace, first_seed, noise_mode
    )
    store = ProfileStore(Path(cache_dir))
    cached = store.load(acquisition, key)
    if cached is not None:
        return cached, True, None
    report = attack.profile(
        num_traces=num_traces,
        coeffs_per_trace=coeffs_per_trace,
        first_seed=first_seed,
        min_class_count=min_class_count,
        workers=workers,
    )
    # Atomic rename via the store: concurrent writers of the same key
    # race benignly (both archives are bit-identical pure functions of
    # the key) and readers never see a torn file.
    store.save(attack, key)
    return attack, False, report
