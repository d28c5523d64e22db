"""Campaign-engine throughput benchmark.

Measures the three layers the campaign engine accelerates:

- **profiling**: the materialized capture-everything reference
  (``SingleTraceAttack.profile_reference``) vs the one-pass streaming
  path (``profile``), serial and with worker-side segmentation;
- **attack campaign**: the campaign engine
  (``repro.attack.campaign.run_campaign``), serial and on the
  orchestrator's worker pool;
- the campaign engine's per-stage timing counters.

Worker numbers depend on core count; on a 1-vCPU container the pool
pays startup for no gain, so ``--workers`` defaults to serial and CI
smoke runs serial only.

Run directly::

    PYTHONPATH=src python benchmarks/bench_campaign.py            # full
    PYTHONPATH=src python benchmarks/bench_campaign.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_campaign.py --workers 4
    PYTHONPATH=src python benchmarks/bench_campaign.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Optional

from repro.attack.campaign import run_campaign
from repro.attack.pipeline import SingleTraceAttack
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice

PAPER_Q = 132120577
FIRST_PROFILE_SEED = 100_000


def _fresh_bench() -> TraceAcquisition:
    device = GaussianSamplerDevice([PAPER_Q])
    return TraceAcquisition(device, scope=Oscilloscope(noise_std=1.0), rng=0)


def _profile(method: str, traces: int, coeffs: int, workers=None):
    """Time one profiling run on a fresh bench; returns (attack, seconds)."""
    attack = SingleTraceAttack(_fresh_bench(), poi_count=24)
    runner = getattr(attack, method)
    start = time.perf_counter()
    report = runner(
        num_traces=traces,
        coeffs_per_trace=coeffs,
        first_seed=FIRST_PROFILE_SEED,
        workers=workers,
    )
    return attack, report, time.perf_counter() - start


def bench_profiling(traces: int, coeffs: int, workers: Optional[int]) -> Dict:
    slices = traces * coeffs
    results: Dict = {"traces": traces, "coeffs_per_trace": coeffs}
    _, _, reference_s = _profile("profile_reference", traces, coeffs)
    attack, report, streaming_s = _profile("profile", traces, coeffs)
    results["reference_s"] = round(reference_s, 3)
    results["streaming_s"] = round(streaming_s, 3)
    results["reference_slices_per_s"] = round(slices / reference_s, 1)
    results["streaming_slices_per_s"] = round(slices / streaming_s, 1)
    results["streaming_speedup"] = round(reference_s / streaming_s, 2)
    results["streaming_stage_s"] = {
        k: round(v, 3) for k, v in (report.timings or {}).items()
    }
    if workers:
        _, _, pooled_s = _profile("profile", traces, coeffs, workers=workers)
        results[f"streaming_workers{workers}_s"] = round(pooled_s, 3)
        results[f"streaming_workers{workers}_slices_per_s"] = round(
            slices / pooled_s, 1
        )
    return attack, results


def bench_campaign(
    attack: SingleTraceAttack, traces: int, coeffs: int, workers: Optional[int]
) -> Dict:
    results: Dict = {"traces": traces, "coeffs_per_trace": coeffs}

    report = run_campaign(
        attack, trace_count=traces, coeffs_per_trace=coeffs, first_seed=1
    )
    results["engine_serial_s"] = round(report.wall_seconds, 3)
    results["engine_serial_coeffs_per_s"] = round(
        report.coefficients_per_second, 1
    )
    results["engine_stage_s"] = {
        k: round(v, 3) for k, v in report.timings.items()
    }

    if workers:
        pooled = run_campaign(
            attack,
            trace_count=traces,
            coeffs_per_trace=coeffs,
            first_seed=1,
            workers=workers,
        )
        results[f"engine_workers{workers}_s"] = round(pooled.wall_seconds, 3)
        results[f"engine_workers{workers}_coeffs_per_s"] = round(
            pooled.coefficients_per_second, 1
        )
        same = [a[:3] for a in report.outcomes] == [
            b[:3] for b in pooled.outcomes
        ]
        results["pool_matches_serial"] = same
        if not same:
            raise AssertionError("pooled campaign diverged from serial")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--traces", type=int, default=200, help="profiling trace budget"
    )
    parser.add_argument(
        "--attack-traces", type=int, default=64, help="campaign trace budget"
    )
    parser.add_argument(
        "--coeffs", type=int, default=8, help="coefficients per trace"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="also measure a process pool of this size (default: serial only)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: tiny budgets"
    )
    parser.add_argument("--json", metavar="PATH", help="also write results as JSON")
    args = parser.parse_args(argv)
    if args.quick:
        args.traces = min(args.traces, 60)
        args.attack_traces = min(args.attack_traces, 16)
        args.coeffs = min(args.coeffs, 4)

    attack, profiling = bench_profiling(args.traces, args.coeffs, args.workers)
    campaign = bench_campaign(
        attack, args.attack_traces, args.coeffs, args.workers
    )

    print(f"Profiling ({args.traces} traces x {args.coeffs} coefficients):")
    print(f"  reference (materialized) {profiling['reference_s']:>8.3f} s  "
          f"({profiling['reference_slices_per_s']:,.0f} slices/s)")
    print(f"  streaming (one-pass)     {profiling['streaming_s']:>8.3f} s  "
          f"({profiling['streaming_slices_per_s']:,.0f} slices/s, "
          f"{profiling['streaming_speedup']:.2f}x)")
    stages = "  ".join(
        f"{k} {v:.2f}s" for k, v in profiling["streaming_stage_s"].items()
    )
    print(f"  streaming stages: {stages}")
    if args.workers:
        key = f"streaming_workers{args.workers}"
        print(f"  streaming, {args.workers} workers  {profiling[key + '_s']:>8.3f} s  "
              f"({profiling[key + '_slices_per_s']:,.0f} slices/s)")

    print(f"Campaign ({args.attack_traces} traces x {args.coeffs} coefficients):")
    print(f"  campaign engine, serial  {campaign['engine_serial_s']:>8.3f} s  "
          f"({campaign['engine_serial_coeffs_per_s']:,.0f} coeffs/s)")
    stages = "  ".join(
        f"{k} {v:.2f}s" for k, v in campaign["engine_stage_s"].items()
    )
    print(f"  engine stages: {stages}")
    if args.workers:
        key = f"engine_workers{args.workers}"
        print(f"  campaign engine, {args.workers} workers {campaign[key + '_s']:>7.3f} s  "
              f"({campaign[key + '_coeffs_per_s']:,.0f} coeffs/s)  "
              f"pool==serial: {campaign['pool_matches_serial']}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"profiling": profiling, "campaign": campaign}, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
