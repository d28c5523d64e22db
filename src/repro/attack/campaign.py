"""Campaign-scale end-to-end attack evaluation.

The paper profiles with 220,000 device executions and evaluates on tens
of thousands of attack traces.  This module is the campaign entry
point:

- :func:`run_campaign` runs ``capture -> segment -> classify -> score``
  for N victim seeds.  It is a call into
  :func:`repro.attack.orchestrator.run_orchestrated`, the one campaign
  executor, with ``workers=None`` meaning serial.  Every trace's
  measurement noise is a pure function of ``(batch entropy, seed)``
  under the counter-based stream of :mod:`repro.power.noise`, so the
  report is **identical** for any worker count, engine or completion
  order.
- :func:`aggregate_outcomes` is the one fold from the campaign's
  seed-indexed result arrays to a :class:`CampaignReport`: accuracies,
  the confusion matrix, the dense probability tables (the
  LWE-with-hints input, with :meth:`~CampaignReport.hint_statistics`
  and :meth:`~CampaignReport.estimate_bikz` on top) and **per-stage
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
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.attack import evaluation
from repro.backends import backend_id
from repro.attack.metrics import ConfusionMatrix
from repro.attack.pipeline import ProfilingReport, SingleTraceAttack, probability_tables
from repro.errors import AttackError
from repro.power.noise import NOISE_STREAM_VERSION

#: Timing stages reported by the campaign grains, in pipeline order.
STAGES = ("capture", "segment", "classify", "score")


@dataclass
class CampaignReport:
    """Aggregated outcome of an attack campaign.

    Per-seed results stay dense, indexed by ``seed - first_seed``:
    ``ok`` marks the traces that were attacked, ``values``, ``signs``
    and ``estimates`` are ``(traces, coeffs)`` and ``tables`` holds
    each coefficient's posterior over ``labels`` (the
    :attr:`~repro.attack.pipeline.AttackResult.probability_matrix`
    rows).  ``errors`` maps each failed seed to its message.
    :attr:`outcomes`, :attr:`failures` and :attr:`probability_tables`
    are seed-ordered views of them, derived once on first use.
    """

    first_seed: int
    labels: Sequence[int] = field(repr=False)
    ok: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)
    estimates: np.ndarray = field(repr=False)
    tables: np.ndarray = field(repr=False)
    errors: Dict[int, str] = field(repr=False)
    confusion: ConfusionMatrix = field(repr=False)
    sign_accuracy: float
    value_accuracy: float
    coefficients_attacked: int
    traces_attacked: int
    traces_failed: int
    timings: Dict[str, float]
    wall_seconds: float
    workers: int
    #: The executor's counters (grain size, grains folded, checkpoint
    #: shards written, worker deaths survived), present at every worker
    #: count; :meth:`format_timings` shows them.  Deliberately excluded
    #: from the determinism contract: the *outcomes* are bit-identical
    #: across schedules, the schedule itself is not.
    orchestrator: Dict[str, int]
    engine: str = "threaded"
    #: ``name-version`` of the compute backend the campaign ran under
    #: (see :mod:`repro.backends`), as provenance only: every backend
    #: kernel is bit-exact, so reports are bit-identical across
    #: backends.
    backend: str = "reference"

    @cached_property
    def outcomes(self) -> List[Tuple[int, int, int, Dict[int, float]]]:
        """``(value, sign, estimate, probability table)`` per attacked
        coefficient, in seed order."""
        rows = self.ok.astype(bool)
        signs = self.signs[rows].ravel().tolist()
        tables = probability_tables(
            signs, self.tables[rows].reshape(-1, len(self.labels)), self.labels
        )
        values = self.values[rows].ravel().tolist()
        estimates = self.estimates[rows].ravel().tolist()
        return list(zip(values, signs, estimates, tables))

    @cached_property
    def failures(self) -> List[Tuple[int, str]]:
        """``(seed, message)`` per trace that could not be attacked."""
        return sorted(self.errors.items())

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
        meta = self.orchestrator
        lines.append(
            f"orchestrator: grain={meta['grain']} shard_size={meta['shard_size']} "
            f"grains={meta['grains']} checkpoints={meta['checkpoints']} "
            f"worker_deaths={meta['workers_died']}"
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


def run_campaign(
    attack: SingleTraceAttack,
    trace_count: int,
    coeffs_per_trace: int = 8,
    first_seed: int = 1,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
) -> CampaignReport:
    """Attack ``trace_count`` fresh executions, optionally in parallel.

    The attack must already be profiled.  This is
    :func:`repro.attack.orchestrator.run_orchestrated` with its default
    grain and no checkpoint, except that ``workers=None`` runs serially
    in this process (``run_orchestrated`` reads ``None`` as its default
    pool size).  Noise is drawn from the bench's batch-entropy streams
    (per-seed), so the report is bit-identical for any ``workers``
    value and any completion order.  Traces that fail to segment are
    recorded in ``report.failures`` and excluded from the statistics.

    ``engine`` picks the capture execution engine (``None`` defers to
    the bench's setting, then ``REVEAL_ENGINE``, then compiled, threaded
    without a C toolchain); every engine produces the identical report.
    """
    from repro.attack.orchestrator import run_orchestrated

    return run_orchestrated(
        attack,
        trace_count,
        coeffs_per_trace=coeffs_per_trace,
        first_seed=first_seed,
        workers=1 if workers is None else workers,
        engine=engine,
    )


def aggregate_outcomes(
    first_seed: int,
    labels: Sequence[int],
    arrays: Dict[str, np.ndarray],
    errors: Dict[int, str],
    timings: Dict[str, float],
    wall_seconds: float,
    workers: int,
    engine: str,
    orchestrator: Dict[str, int],
) -> CampaignReport:
    """Fold a campaign's seed-indexed result arrays into a report.

    ``arrays`` holds ``ok``, ``values``, ``signs``, ``estimates`` and
    ``tables`` (the layout of the orchestrator's grain records and
    checkpoint shards) for seeds ``first_seed, first_seed + 1, ...``.
    The report's deterministic payload (outcomes, confusion, accuracies,
    failures) depends only on these arrays, never on who computed them.
    """
    ok = arrays["ok"].astype(bool)
    values = arrays["values"][ok]
    estimates = arrays["estimates"][ok]
    total = values.size
    if total == 0:
        raise AttackError("no trace in the campaign could be attacked")
    confusion = ConfusionMatrix()
    confusion.record_many(values.ravel().tolist(), estimates.ravel().tolist())
    sign_hits = int(np.count_nonzero(np.sign(values) == arrays["signs"][ok]))
    value_hits = int(np.count_nonzero(values == estimates))
    attacked = int(np.count_nonzero(ok))
    return CampaignReport(
        first_seed=first_seed,
        labels=list(labels),
        ok=arrays["ok"],
        values=arrays["values"],
        signs=arrays["signs"],
        estimates=arrays["estimates"],
        tables=arrays["tables"],
        errors=dict(errors),
        confusion=confusion,
        sign_accuracy=sign_hits / total,
        value_accuracy=value_hits / total,
        coefficients_attacked=total,
        traces_attacked=attacked,
        traces_failed=len(ok) - attacked,
        timings=dict(timings),
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
