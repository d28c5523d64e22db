"""Compute-backend kernel benchmark: accelerated vs reference numpy.

For every backend that probes available on this host (``native`` when a
C compiler exists) this measures each hot kernel A/B against the inline
numpy reference path — the same call sites, with the backend armed via
``use_backend`` on one side and pinned to ``reference`` on the other.
The two sides are interleaved within each repetition (best-of-N per
side) so speedups compare like-for-like machine conditions on shared
runners.

Kernels:

* ``ntt_forward`` / ``ntt_inverse`` — n=1024 butterflies at the
  paper's modulus (Shoup multiplication vs the numpy ladder);
* ``pointwise_mulmod`` — the negacyclic product's O(n) core;
* ``expand`` — ``LeakageModel.expand`` over a real device event log
  (the compiled event emitter vs the vectorized numpy expansion);
* ``segment`` — ``Segmenter.aligned_slices`` with an anchor refiner on a
  captured 1024-coefficient trace (the exact native segmentation kernel
  vs the numpy path).

Run directly::

    PYTHONPATH=src python benchmarks/bench_backends.py           # full (5 reps)
    PYTHONPATH=src python benchmarks/bench_backends.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_backends.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.backends import (
    available_backends,
    backend_id,
    probe_backend,
    use_backend,
)

PAPER_Q = 132120577
N = 1024
COUNT = 8

#: (kernel name, inner calls per timing sample).  Inner iteration
#: counts keep each sample well above timer resolution for the
#: microsecond-scale kernels.
KERNELS: Tuple[Tuple[str, int], ...] = (
    ("ntt_forward", 50),
    ("ntt_inverse", 50),
    ("pointwise_mulmod", 50),
    ("expand", 50),
    ("segment", 2),
)

#: Coefficients in the captured trace behind the ``segment`` row.
SEGMENT_COUNT = 1024


def _build_cases() -> Dict[str, Callable[[], None]]:
    """One closure per kernel, running the call site under test."""
    from repro.attack.segmentation import AnchorRefiner, Segmenter
    from repro.power.capture import TraceAcquisition
    from repro.power.leakage import LeakageModel
    from repro.power.scope import Oscilloscope
    from repro.riscv.device import GaussianSamplerDevice
    from repro.ring.ntt import get_ntt_context

    rng = np.random.default_rng(0)
    context = get_ntt_context(PAPER_Q, N)
    a = rng.integers(0, PAPER_Q, N, dtype=np.int64)
    b = rng.integers(0, PAPER_Q, N, dtype=np.int64)

    model = LeakageModel()
    events = GaussianSamplerDevice([PAPER_Q]).run(
        seed=7, count=COUNT, record_events=True
    ).events

    bench = TraceAcquisition(
        GaussianSamplerDevice([PAPER_Q]), scope=Oscilloscope(noise_std=1.0),
        rng=0,
    )
    segmenter = Segmenter()
    refiner = AnchorRefiner.learn(
        segmenter, [bench.capture(800 + i, 8).trace.samples for i in range(6)]
    )
    trace = bench.capture(4242, SEGMENT_COUNT).trace.samples

    return {
        "ntt_forward": lambda: context.forward(a),
        "ntt_inverse": lambda: context.inverse(a),
        "pointwise_mulmod": lambda: context.multiply(a, b),
        "expand": lambda: model.expand(events),
        "segment": lambda: segmenter.aligned_slices(trace, refiner),
    }


def bench_backend(
    backend: str, repetitions: int
) -> Dict[str, Dict[str, float]]:
    """Best-of-N per-call seconds for ``backend`` vs ``reference``."""
    cases = _build_cases()
    sides = [backend, "reference"]
    best: Dict[str, Dict[str, float]] = {name: {} for name, _ in KERNELS}

    for side in sides:  # warm kernels and caches
        with use_backend(side):
            for name, _ in KERNELS:
                cases[name]()

    for _ in range(repetitions):
        for name, inner in KERNELS:
            for side in sides:
                with use_backend(side):
                    run = cases[name]
                    start = time.perf_counter()
                    for _i in range(inner):
                        run()
                    per_call = (time.perf_counter() - start) / inner
                prev = best[name].get(side)
                best[name][side] = (
                    per_call if prev is None else min(prev, per_call)
                )

    for name, _ in KERNELS:
        best[name]["speedup"] = round(
            best[name]["reference"] / best[name][backend], 2
        )
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repetitions", type=int, default=5, help="timed repetitions per case"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 1 repetition + kernel speedup guards",
    )
    parser.add_argument("--json", metavar="PATH", help="also write results as JSON")
    args = parser.parse_args(argv)
    repetitions = 1 if args.quick else args.repetitions

    compiled = [b for b in available_backends() if b != "reference"]
    if not compiled:
        print("no compiled backend available on this host "
              "(no C compiler); nothing to measure")
        return 0

    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    failures: List[str] = []
    for backend in compiled:
        with use_backend(backend):
            ident = backend_id()
        print(f"backend {ident} vs reference "
              f"({COUNT}-coefficient expand, n={N} NTT, "
              f"{SEGMENT_COUNT}-coefficient segment, best of {repetitions}):")
        table = bench_backend(backend, repetitions)
        results[backend] = table
        for name, _ in KERNELS:
            row = table[name]
            print(f"  {name:17s} {1e6 * row[backend]:>10.1f}us vs "
                  f"{1e6 * row['reference']:>10.1f}us  "
                  f"-> {row['speedup']:.2f}x")

        # Guard: the compiled kernels must hold a decisive win on the
        # hottest microbenches.  Measured ~9x (NTT forward), ~2.6x
        # (expand) and ~2.9x (segment) for the native backend on a
        # 2-vCPU Xeon; the floors tolerate one noisy shared-runner
        # repetition while still catching a backend that silently fell
        # back to numpy (1.0x).  A floor only applies when the backend
        # declares the kernel that accelerates the bench.
        if args.quick:
            declared = probe_backend(backend).kernels
            for bench_name, kernel, floor in (
                ("ntt_forward", "ntt_forward", 2.0),
                ("expand", "expand_events", 1.5),
                ("segment", "segment", 1.3),
            ):
                if kernel not in declared:
                    continue
                if table[bench_name]["speedup"] < floor:
                    failures.append(
                        f"{backend}: {bench_name} speedup "
                        f"{table[bench_name]['speedup']:.2f}x < {floor}x"
                    )

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.json}")

    if failures:
        print("REGRESSION: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
