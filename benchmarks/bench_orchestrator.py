"""Orchestrator-vs-campaign throughput benchmark (A/B, interleaved).

Compares two ways to run the same attack campaign:

- **A: per-call campaign engine** — ``repro.attack.campaign.run_campaign``
  with a process pool: every call re-spawns the pool, re-pickles the
  profiled attack into the initializers, and pickles every per-seed
  ``SeedOutcome`` (probability tables included) back over the result
  queue;
- **B: warm orchestrator** — one persistent
  :class:`repro.attack.orchestrator.Orchestrator`: workers forked once,
  work claimed grain-at-a-time from the shared work-stealing table, and
  results crossing as packed arrays in shared-memory arena slots (only
  ~100-byte headers on the result pipes).

Both sides run the threaded engine, so the A/B isolates the executor.

On a 1-vCPU container (the CI box) extra workers buy no parallelism,
so the win is pure overhead removal: no per-call pool spin-up, no
pickled attack, no per-seed pickles — the gap therefore *grows* with
the worker count, which is what the ``--quick`` floor pins (>= 1.3x at
4 workers).  The A and B runs are interleaved within each repetition
(A, B, A, B, ...) so drift on a shared box hits both sides equally,
and each side scores its minimum across repetitions.

Run directly::

    PYTHONPATH=src python benchmarks/bench_orchestrator.py            # full
    PYTHONPATH=src python benchmarks/bench_orchestrator.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_orchestrator.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

from repro.attack.campaign import run_campaign
from repro.attack.orchestrator import Orchestrator
from repro.attack.pipeline import SingleTraceAttack
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice

PAPER_Q = 132120577
FIRST_PROFILE_SEED = 100_000


def _fresh_bench() -> TraceAcquisition:
    device = GaussianSamplerDevice([PAPER_Q])
    return TraceAcquisition(device, scope=Oscilloscope(noise_std=1.0), rng=0)


def _profiled(traces: int, coeffs: int) -> SingleTraceAttack:
    attack = SingleTraceAttack(_fresh_bench(), poi_count=24)
    attack.profile(
        num_traces=traces, coeffs_per_trace=coeffs,
        first_seed=FIRST_PROFILE_SEED,
    )
    return attack


def _identical(a, b) -> bool:
    if [o[:3] for o in a.outcomes] != [o[:3] for o in b.outcomes]:
        return False
    return all(x[3] == y[3] for x, y in zip(a.outcomes, b.outcomes))


def bench_workers(
    attack: SingleTraceAttack,
    workers: int,
    traces: int,
    coeffs: int,
    reps: int,
    grain: int,
) -> Dict:
    """Interleaved A/B at one worker count; min-of-reps each side."""
    campaign_s: List[float] = []
    orchestrated_s: List[float] = []
    with Orchestrator(
        attack, workers=workers, grain=grain, engine="threaded"
    ) as orchestrator:
        # Warm the service once (fork + first-touch) outside the timed
        # region: the orchestrator is a persistent engine and its
        # steady state is what a campaign sees; run_campaign pays its
        # spin-up on every call *by design* — that cost is the point.
        orchestrator.submit(
            min(8, traces), coeffs_per_trace=coeffs, first_seed=1
        ).result()
        reference = None
        for _ in range(reps):
            start = time.perf_counter()
            baseline = run_campaign(
                attack,
                trace_count=traces,
                coeffs_per_trace=coeffs,
                first_seed=1,
                workers=workers,
                engine="threaded",
            )
            campaign_s.append(time.perf_counter() - start)

            start = time.perf_counter()
            report = orchestrator.submit(
                traces, coeffs_per_trace=coeffs, first_seed=1
            ).result()
            orchestrated_s.append(time.perf_counter() - start)
            reference = reference or baseline
            if not _identical(baseline, report):
                raise AssertionError(
                    f"orchestrated report diverged at workers={workers}"
                )
    coefficients = traces * coeffs
    a, b = min(campaign_s), min(orchestrated_s)
    return {
        "workers": workers,
        "run_campaign_s": round(a, 3),
        "orchestrated_s": round(b, 3),
        "run_campaign_coeffs_per_s": round(coefficients / a, 1),
        "orchestrated_coeffs_per_s": round(coefficients / b, 1),
        "speedup": round(a / b, 2),
        "bit_identical": True,
    }


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
        nargs="+",
        default=[1, 2, 4],
        help="worker counts to sweep (default: 1 2 4)",
    )
    parser.add_argument(
        "--grain", type=int, default=64, help="orchestrator steal grain"
    )
    parser.add_argument(
        "--reps", type=int, default=3, help="interleaved repetitions per side"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller budgets plus the 1.3x floor check",
    )
    parser.add_argument("--json", metavar="PATH", help="also write results as JSON")
    args = parser.parse_args(argv)
    if args.quick:
        args.traces = min(args.traces, 80)
        args.attack_traces = min(args.attack_traces, 64)
        args.reps = min(args.reps, 2)

    attack = _profiled(args.traces, args.coeffs)
    coefficients = args.attack_traces * args.coeffs
    print(
        f"Orchestrator A/B ({args.attack_traces} traces x {args.coeffs} "
        f"coefficients, grain {args.grain}, min of {args.reps}):"
    )
    rows = []
    for workers in args.workers:
        row = bench_workers(
            attack,
            workers,
            args.attack_traces,
            args.coeffs,
            args.reps,
            args.grain,
        )
        rows.append(row)
        print(
            f"  workers={workers}: run_campaign {row['run_campaign_s']:>7.3f} s "
            f"({row['run_campaign_coeffs_per_s']:,.0f} coeffs/s)  "
            f"orchestrator {row['orchestrated_s']:>7.3f} s "
            f"({row['orchestrated_coeffs_per_s']:,.0f} coeffs/s)  "
            f"{row['speedup']:.2f}x  bit-identical: {row['bit_identical']}"
        )

    results = {
        "attack_traces": args.attack_traces,
        "coeffs_per_trace": args.coeffs,
        "coefficients": coefficients,
        "grain": args.grain,
        "reps": args.reps,
        "sweep": rows,
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.json}")

    if args.quick:
        floor_rows = [r for r in rows if r["workers"] == max(args.workers)]
        if floor_rows and floor_rows[0]["speedup"] < 1.3:
            print(
                f"FAIL: orchestrator speedup {floor_rows[0]['speedup']:.2f}x "
                f"at {floor_rows[0]['workers']} workers is below the 1.3x floor"
            )
            return 1
        print("quick floor: orchestrator >= 1.3x at "
              f"{max(args.workers)} workers -- ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
