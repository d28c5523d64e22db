"""Golden end-to-end fixtures for the attack pipeline.

The differential oracles pin each fast path to its reference twin, but
a regression that changes *both* sides identically — a tweak to the
leakage weights, an assembler fix that shifts firmware cycle counts, a
sampler change — slips straight through.  The goldens close that gap:
one small-parameter profiling + campaign run (the Table 1/2 flow at
toy scale) is serialised to JSON and committed under ``tests/golden/``;
every CI run replays the flow and compares **bit-exact**.

Bit-exactness is deliberate and achievable because the whole pipeline
is deterministic: the bench noise is drawn from per-seed
``Philox``-derived streams (so any worker count produces the same
traces), and JSON serialises floats with ``repr`` shortest-round-trip
semantics, so ``loads(dumps(x)) == x`` exactly.  The fixture is
therefore identical for ``REVEAL_WORKERS=1`` and ``=4`` — the
acceptance criterion this module exists to enforce.

When an *intentional* behaviour change lands, regenerate with::

    PYTHONPATH=src python -m pytest tests/golden -q --regen-goldens

or equivalently ``python -m repro.verify golden --regen``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.power.noise import NOISE_STREAM_VERSION
from repro.verify.compare import EXACT, diff_values

#: Fixture scale: big enough that profiling sees every value class and
#: the campaign exercises the parallel path, small enough for CI.
GOLDEN_PROFILE = {"num_traces": 60, "coeffs_per_trace": 6, "first_seed": 100_000}
GOLDEN_CAMPAIGN = {"trace_count": 24, "coeffs_per_trace": 8, "first_seed": 1}

#: Probability tables are large (one float per value class per
#: coefficient); committing the first few keeps the fixture readable
#: while still pinning the posterior arithmetic bit-for-bit.
TABLES_COMMITTED = 10


def golden_workers() -> int:
    """Worker count for golden runs: ``REVEAL_WORKERS``, at least 1.

    Never ``None``: the sequential ``workers=None`` profiling path draws
    bench-sequential noise, while any ``workers >= 1`` uses the per-seed
    batch streams — only the latter is worker-count invariant.
    """
    return max(1, int(os.environ.get("REVEAL_WORKERS", "1")))


def _golden_bench():
    from repro.power.capture import TraceAcquisition
    from repro.power.scope import Oscilloscope
    from repro.riscv.device import GaussianSamplerDevice

    device = GaussianSamplerDevice([132120577])
    return TraceAcquisition(device, scope=Oscilloscope(noise_std=1.0), rng=0)


def build_golden_attack(workers: Optional[int] = None):
    """Profile the fixture attack (the Table 1/2 bench at toy scale).

    Runs under whatever compute backend this host probes: every backend
    kernel is bit-exact, so the fixture is the same on all of them.
    """
    from repro.attack.pipeline import SingleTraceAttack

    attack = SingleTraceAttack(_golden_bench(), poi_count=24)
    attack.profile(workers=workers or golden_workers(), **GOLDEN_PROFILE)
    return attack


def golden_payload(workers: Optional[int] = None) -> Dict[str, Any]:
    """Run the golden flow end to end and distil the committed payload."""
    from repro.attack.campaign import run_campaign
    from repro.hints.hintgen import moments_of_table

    workers = workers or golden_workers()
    attack = build_golden_attack(workers)
    report = run_campaign(attack, workers=workers, **GOLDEN_CAMPAIGN)

    counts = report.confusion.counts()
    confusion = [
        [actual, predicted, counts[(actual, predicted)]]
        for actual, predicted in sorted(counts)
    ]
    outcomes: List[Dict[str, Any]] = []
    for index, (value, sign, estimate, table) in enumerate(report.outcomes):
        mean, variance = moments_of_table(table)
        entry: Dict[str, Any] = {
            "value": value,
            "sign": sign,
            "estimate": estimate,
            "mean": mean,
            "variance": variance,
        }
        if index < TABLES_COMMITTED:
            entry["table"] = {
                str(label): probability
                for label, probability in sorted(table.items())
            }
        outcomes.append(entry)

    return {
        "config": {
            "profile": dict(GOLDEN_PROFILE),
            "campaign": dict(GOLDEN_CAMPAIGN),
            "noise_std": 1.0,
            # Bumped with repro.power.noise: a fixture regenerated under
            # a different stream version is an intentional bit-compat
            # break, and the diff must show it.
            "noise_stream": NOISE_STREAM_VERSION,
            "modulus": 132120577,
        },
        "profiling": {
            "classes": attack.templates.labels,
            "pois": list(attack.templates.pois),
        },
        "table1": {
            "sign_accuracy": report.sign_accuracy,
            "value_accuracy": report.value_accuracy,
            "coefficients_attacked": report.coefficients_attacked,
            "traces_attacked": report.traces_attacked,
            "traces_failed": report.traces_failed,
            "confusion": confusion,
        },
        "table2": {"outcomes": outcomes},
    }


def canonical(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The payload exactly as a JSON round-trip normalises it."""
    return json.loads(json.dumps(payload))


def save_golden(payload: Dict[str, Any], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def load_golden(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text())


def compare_golden(
    actual: Dict[str, Any], expected: Dict[str, Any]
) -> List[str]:
    """Bit-exact mismatch paths between a fresh run and the fixture.

    ``actual`` is canonicalised through a JSON round-trip first, so the
    comparison sees exactly what a committed fixture would contain —
    JSON's shortest-repr float serialisation is lossless for float64,
    which is what makes "bit-exact via JSON" sound.
    """
    return diff_values(canonical(actual), expected, EXACT, path="golden")
