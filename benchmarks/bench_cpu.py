"""Interpreter and template-matching throughput benchmark.

Measures instructions/second of the RV32IM core on the Gaussian
sampling kernel — the compiled (one fixed C interpreter core), threaded
(block-translating) and scalar reference engines, with and without
event recording — plus the batched vs scalar template-matching rate.
The acceptance bars are >= 5x reference for the threaded engine with
recording enabled, and >= 1x threaded for the compiled engine on the
no-event path (it measures several times that; the guard only proves
the C core actually engaged).

Every arm pins its program seed explicitly (``--seed``/``--count``
flow into each ``device.run`` call), so interleaved A/B comparisons
always execute the identical instruction stream — nothing inherits
ambient generator state between arms.

Run directly::

    PYTHONPATH=src python benchmarks/bench_cpu.py             # full (5 reps)
    PYTHONPATH=src python benchmarks/bench_cpu.py --quick     # CI smoke (1 rep)
    PYTHONPATH=src python benchmarks/bench_cpu.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict

import numpy as np

from repro.attack.template import TemplateSet, gaussian_priors
from repro.backends import probe_backend, probe_error
from repro.riscv.device import GaussianSamplerDevice

MODULI = [0xFFEE001, 0xFFC4001, 0x7FE2001, 0x7F54001]
COUNT = 8
SEED = 1234


def bench_cpu(
    repetitions: int, seed: int = SEED, count: int = COUNT
) -> Dict[str, float]:
    """Best-of-N instructions/second for each engine/recording combo.

    ``seed``/``count`` are passed explicitly to every run so all arms
    execute the same program on the same data.  The compiled engine's
    rows appear only where the native backend's probe passes; the probe
    failure reason is recorded under ``compiled_unavailable`` instead.
    """
    device = GaussianSamplerDevice(MODULI)
    results: Dict[str, float] = {}
    engines = ["threaded", "reference"]
    if probe_backend("native") is not None:
        engines.insert(1, "compiled")
    else:
        results["compiled_unavailable"] = probe_error("native")  # type: ignore[assignment]
    for engine in engines:
        for record in (True, False):
            # warm-up covers translation, C compilation and numpy
            # one-time costs
            device.run(seed, count, record_events=record, engine=engine)
            best = 0.0
            for _ in range(repetitions):
                start = time.perf_counter()
                run = device.run(seed, count, record_events=record, engine=engine)
                elapsed = time.perf_counter() - start
                best = max(best, run.instruction_count / elapsed)
            key = f"{engine}_{'events_on' if record else 'events_off'}"
            results[key] = round(best, 1)
    results["speedup_events_on"] = round(
        results["threaded_events_on"] / results["reference_events_on"], 2
    )
    results["speedup_events_off"] = round(
        results["threaded_events_off"] / results["reference_events_off"], 2
    )
    if "compiled_events_on" in results:
        results["compiled_vs_threaded_events_on"] = round(
            results["compiled_events_on"] / results["threaded_events_on"], 2
        )
        results["compiled_vs_threaded_events_off"] = round(
            results["compiled_events_off"] / results["threaded_events_off"], 2
        )
    results.update(bench_retire_overhead(repetitions, device, seed, count))
    return results


def bench_retire_overhead(
    repetitions: int,
    device: GaussianSamplerDevice,
    seed: int = SEED,
    count: int = COUNT,
) -> Dict[str, float]:
    """Threaded events-on throughput with and without retire logging.

    The two configurations run *interleaved per repetition* on the same
    explicit seed so machine drift cancels and both arms execute the
    identical instruction stream; ``retire_off_vs_on`` is the quantity
    the ``--quick`` guard checks — the capture path (retires disabled,
    the default) must never pay for the conformance-only retire
    projection.
    """
    for record_retires in (False, True):  # warm both paths
        device.run(seed, count, engine="threaded", record_retires=record_retires)
    best_off = best_on = 0.0
    for _ in range(repetitions):
        start = time.perf_counter()
        run = device.run(seed, count, engine="threaded")
        best_off = max(
            best_off, run.instruction_count / (time.perf_counter() - start)
        )
        start = time.perf_counter()
        run = device.run(seed, count, engine="threaded", record_retires=True)
        best_on = max(
            best_on, run.instruction_count / (time.perf_counter() - start)
        )
    return {
        "threaded_events_on_retires": round(best_on, 1),
        "retire_off_vs_on": round(best_off / best_on, 3),
    }


def bench_template_matching(repetitions: int) -> Dict[str, float]:
    """Slices/second: batched probabilities_matrix vs the scalar loop."""
    rng = np.random.default_rng(5)
    labels = list(range(-14, 15))
    traces = {l: rng.normal(l, 1.0, size=(40, 160)) for l in labels}
    templates = TemplateSet.build(
        traces,
        pois=sorted(rng.choice(160, size=24, replace=False).tolist()),
        priors=gaussian_priors(labels, 3.19),
    )
    slices = rng.normal(0.0, 2.0, size=(256, 160))
    best_batched = best_scalar = 0.0
    for _ in range(repetitions + 1):  # first rep is warm-up
        start = time.perf_counter()
        templates.probabilities_matrix(slices)
        best_batched = max(best_batched, len(slices) / (time.perf_counter() - start))
        start = time.perf_counter()
        for row in slices:
            templates.probabilities(row)
        best_scalar = max(best_scalar, len(slices) / (time.perf_counter() - start))
    return {
        "batched_slices_per_s": round(best_batched, 1),
        "scalar_slices_per_s": round(best_scalar, 1),
        "speedup": round(best_batched / best_scalar, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repetitions", type=int, default=5, help="timed repetitions per case"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: 1 repetition"
    )
    parser.add_argument(
        "--seed", type=int, default=SEED, help="sampler PRNG seed (every arm)"
    )
    parser.add_argument(
        "--count", type=int, default=COUNT, help="coefficients per run"
    )
    parser.add_argument("--json", metavar="PATH", help="also write results as JSON")
    args = parser.parse_args(argv)
    repetitions = 1 if args.quick else args.repetitions

    cpu = bench_cpu(repetitions, seed=args.seed, count=args.count)
    template = bench_template_matching(repetitions)

    print(f"RV32IM interpreter (Gaussian kernel, count={args.count}, "
          f"seed={args.seed}, instr/sec, best of {repetitions}):")
    for key in ("compiled_events_on", "threaded_events_on",
                "reference_events_on", "compiled_events_off",
                "threaded_events_off", "reference_events_off"):
        if key in cpu:
            print(f"  {key:26s} {cpu[key]:>14,.0f}")
    print(f"  speedup events on  {cpu['speedup_events_on']:.2f}x")
    print(f"  speedup events off {cpu['speedup_events_off']:.2f}x")
    if "compiled_vs_threaded_events_off" in cpu:
        print(f"  compiled vs threaded events on  "
              f"{cpu['compiled_vs_threaded_events_on']:.2f}x")
        print(f"  compiled vs threaded events off "
              f"{cpu['compiled_vs_threaded_events_off']:.2f}x")
    else:
        print(f"  compiled engine unavailable, rows skipped "
              f"({cpu.get('compiled_unavailable')})")
    print(f"  {'threaded_events_on_retires':26s} "
          f"{cpu['threaded_events_on_retires']:>14,.0f}")
    print(f"  retires off vs on  {cpu['retire_off_vs_on']:.3f}x "
          "(interleaved; capture path must not pay for retire logging)")
    if args.quick and cpu["retire_off_vs_on"] < 0.98:
        print(
            "FAIL: the default events-on path (record_retires=False) ran "
            f"slower than 98% of the retire-logging path "
            f"({cpu['retire_off_vs_on']:.3f}x) — the disabled path is "
            "doing retire work"
        )
        return 1
    if args.quick and cpu.get("compiled_vs_threaded_events_off", 99.0) < 1.0:
        print(
            "FAIL: the compiled engine ran slower than threaded on the "
            f"no-event path ({cpu['compiled_vs_threaded_events_off']:.2f}x) "
            "— the C core is not engaging"
        )
        return 1
    print("Template matching (256 slices, 29 classes, 24 POIs, slices/sec):")
    print(f"  batched {template['batched_slices_per_s']:>14,.0f}")
    print(f"  scalar  {template['scalar_slices_per_s']:>14,.0f}")
    print(f"  speedup {template['speedup']:.2f}x")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"cpu": cpu, "template_matching": template}, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
