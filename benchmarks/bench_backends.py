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
* ``expand_1024`` — the same over the event log of a 1024-coefficient
  run (about 310k events), where the kernel reads the log's rows in
  place instead of copying its columns;
* ``segment`` — ``Segmenter.aligned_slices`` with an anchor refiner on a
  captured 1024-coefficient trace (the exact native segmentation kernel,
  with its bound-pruned matched filter, vs the numpy path);
* ``noise_1024`` — ``noise.add_noise`` in place over the leakage of the
  same 1024-coefficient run (2.3M samples; the native Philox and
  ziggurat kernel vs ``Generator(Philox).standard_normal`` and ``+=``);
* ``noise_v1_8`` — ``Oscilloscope.capture`` in place over one serial
  profiling trace (8 coefficients on the quad chain, about 19.6k
  samples), with noise from a ``default_rng`` stream (the native
  sequential-stream kernel, drawing through the generator's
  ``bitgen_t``, vs ``rng.normal`` and ``+=``).

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
    ("expand_1024", 2),
    ("segment", 2),
    ("noise_1024", 2),
    ("noise_v1_8", 50),
)

#: The RNS chain of a serial profiling trace behind the ``noise_v1_8``
#: row (the perfbench workloads' quad moduli).
PROFILE_MODULI = (0xFFEE001, 0xFFC4001, 0x7FE2001, 0x7F54001)

#: Coefficients in the captured trace behind the ``segment`` row and in
#: the run behind the ``expand_1024`` row.
SEGMENT_COUNT = 1024


def _build_cases() -> Dict[str, Callable[[], None]]:
    """One closure per kernel, running the call site under test."""
    from repro.attack.segmentation import AnchorRefiner, Segmenter
    from repro.power.capture import TraceAcquisition
    from repro.power import noise
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
    long_events = GaussianSamplerDevice([PAPER_Q]).run(
        seed=4242, count=SEGMENT_COUNT, record_events=True
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
    # in place, onto the same buffer every call: the cost does not
    # depend on the values
    noisy = model.expand(long_events)[0]
    profiling = model.expand(
        GaussianSamplerDevice(list(PROFILE_MODULI)).run(
            seed=7, count=COUNT, record_events=True
        ).events
    )[0]
    profile_scope = Oscilloscope(noise_std=1.0)
    stream = np.random.default_rng(2022)

    return {
        "ntt_forward": lambda: context.forward(a),
        "ntt_inverse": lambda: context.inverse(a),
        "pointwise_mulmod": lambda: context.multiply(a, b),
        "expand": lambda: model.expand(events),
        "expand_1024": lambda: model.expand(long_events),
        "segment": lambda: segmenter.aligned_slices(trace, refiner),
        "noise_1024": lambda: noise.add_noise(noisy, 2022, 3, 1.0),
        "noise_v1_8": lambda: profile_scope.capture(
            profiling, rng=stream, out=profiling
        ),
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
              f"({COUNT}- and {SEGMENT_COUNT}-coefficient expand, n={N} NTT, "
              f"{SEGMENT_COUNT}-coefficient segment and noise, "
              f"{COUNT}-coefficient sequential noise, "
              f"best of {repetitions}):")
        table = bench_backend(backend, repetitions)
        results[backend] = table
        for name, _ in KERNELS:
            row = table[name]
            print(f"  {name:17s} {1e6 * row[backend]:>10.1f}us vs "
                  f"{1e6 * row['reference']:>10.1f}us  "
                  f"-> {row['speedup']:.2f}x")

        # Guard: the compiled kernels must hold a decisive win on the
        # hottest microbenches.  Measured ~9x (NTT forward), ~4.3x
        # (expand), ~6x (segment), ~3x (noise) and ~3x (noise_v1_8) for
        # the native backend on a 2-vCPU Xeon; the floors tolerate one noisy shared-runner
        # repetition while still catching a backend that silently fell
        # back to numpy (1.0x).  A floor only applies when the backend
        # declares the kernel that accelerates the bench.
        if args.quick:
            declared = probe_backend(backend).kernels
            for bench_name, kernel, floor in (
                ("ntt_forward", "ntt_forward", 2.0),
                ("expand", "expand_events", 1.5),
                ("segment", "segment", 1.3),
                ("noise_1024", "add_noise", 1.5),
                ("noise_v1_8", "add_normal", 1.5),
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
