"""One benchmark process: set up, warm up, then run timed campaign cycles.

``run.py`` starts this script in a pinned environment and reads the one
JSON object it prints on stdout.  Modes:

- ``--setup-only``: time set-up (imports, probes, bench construction,
  warm-up mini-run) and exit.  ``run.py`` runs one untimed first, to
  fill the native module cache, then several timed, so ``setup_s`` is a
  median.
- default: set up, then repeat profile → attack cycles for
  ``--seconds``.  With ``--trace-dir`` every other cycle runs with the
  layer shims of :mod:`tracer` installed (workers write their records
  to that directory); the untraced cycles in between give the tracing
  overhead and a digest to compare against.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-warmup", action="store_true")
    parser.add_argument("--max-cycles", type=int, default=0)
    parser.add_argument("--trace-dir", default="")
    return parser.parse_args(argv)


def _attack(workload, attack, traces, coeffs, first_seed):
    from repro.attack.campaign import run_campaign
    from repro.attack.orchestrator import run_orchestrated

    if workload.workers:
        return run_orchestrated(
            attack, traces, coeffs, first_seed=first_seed, workers=workload.workers
        )
    return run_campaign(attack, traces, coeffs, first_seed=first_seed, workers=None)


def _bench(device, noise_seed):
    from repro.attack.pipeline import SingleTraceAttack
    from repro.power.capture import TraceAcquisition
    from repro.power.scope import Oscilloscope
    from workloads import NOISE_STD, POI_COUNT

    acquisition = TraceAcquisition(
        device, scope=Oscilloscope(noise_std=NOISE_STD), rng=noise_seed
    )
    return SingleTraceAttack(acquisition, poi_count=POI_COUNT)


def warm_up(device, workload, inputs) -> None:
    """Profile and attack once on a separate bench sharing ``device``.

    The warm-up bench has its own noise seed and device seeds disjoint
    from the timed ones, so the timed bench's sequential noise stream
    (consumed by serial profiling) is untouched."""
    from workloads import (
        PROFILE_COEFFS,
        WARMUP_ATTACK_COEFFS,
        WARMUP_ATTACK_TRACES,
        WARMUP_PROFILE_TRACES,
    )

    attack = _bench(device, inputs.warmup_noise_seed)
    attack.profile(
        num_traces=WARMUP_PROFILE_TRACES,
        coeffs_per_trace=PROFILE_COEFFS,
        first_seed=inputs.warmup_profile_seed,
        workers=workload.workers,
    )
    _attack(
        workload,
        attack,
        WARMUP_ATTACK_TRACES,
        min(workload.attack_coeffs, WARMUP_ATTACK_COEFFS),
        inputs.warmup_attack_seed,
    )


def _kernel() -> float:
    """One 10-17 ms pass shaped like the campaign's own work: a dict- and
    list-heavy dispatch loop (like the threaded engine's generated code)
    and numpy passes over a trace-sized array (noise, sliding sums,
    percentile thresholds, a matched filter)."""
    import numpy as np

    tick = time.perf_counter()
    regs = [0] * 32
    table = {i: (i * 7) % 32 for i in range(64)}
    pc = 0
    for i in range(40_000):
        op = table[pc & 63]
        regs[op] = (regs[op - 1] + i) & 0xFFFFFFFF
        pc += 1 + (regs[op] & 1)
    rng = np.random.default_rng(pc)
    reference = rng.random(220)
    for _ in range(6):
        samples = rng.standard_normal(20_000)
        sums = np.cumsum(samples)
        window = sums[50:] - sums[:-50]
        np.flatnonzero(np.diff(window > np.percentile(window, 50)))
        np.argmin(np.correlate(samples[:3000], reference, mode="valid"))
    return time.perf_counter() - tick


def calibrate() -> float:
    """Seconds the calibration kernel takes right now (about 50 ms).

    The host's speed swings by a quarter and more within minutes (CPU
    time swings with it, so it is not hypervisor steal alone).  The
    kernel runs before, between and after the phases; no repository
    change can speed it up, so ``run.py`` scales each phase's rate by
    the kernel time around it over ``workloads.CALIBRATION_REFERENCE_S``.
    Five times the median of five passes keeps one burst from skewing it.
    """
    return 5 * sorted(_kernel() for _ in range(5))[2]


def run_cycle(device, workload, inputs, before, recorder=None):
    """One timed profile → attack cycle on a fresh bench.

    ``before`` is the calibration taken just before the cycle; the
    kernel runs again after the profile and after every attack call."""
    import contextlib

    from repro.attack.branch import sign_of
    from workloads import PROFILE_COEFFS, PROFILE_TRACES, outcome_digest

    def span(name):
        return recorder.span(name) if recorder else contextlib.nullcontext()

    def phase(name):
        if recorder:
            recorder.phase = name

    attack = _bench(device, inputs.noise_seed)
    phase("profile")
    with span("phase.profile"):
        tick = time.perf_counter()
        profiled = attack.profile(
            num_traces=PROFILE_TRACES,
            coeffs_per_trace=PROFILE_COEFFS,
            first_seed=inputs.profile_first_seed,
            workers=workload.workers,
        )
        profile_s = time.perf_counter() - tick
    calibrations = [before, calibrate()]

    per_call = workload.attack_traces // workload.attack_calls
    calls, outcomes, failures, steals = [], [], [], 0
    for call in range(workload.attack_calls):
        phase("attack")
        executor = span("executor") if workload.workers else contextlib.nullcontext()
        with span("phase.attack"), executor:
            tick = time.perf_counter()
            report = _attack(
                workload,
                attack,
                per_call,
                workload.attack_coeffs,
                inputs.attack_first_seed + call * per_call,
            )
            calls.append([report.coefficients_attacked, time.perf_counter() - tick])
        phase("idle")
        calibrations.append(calibrate())
        outcomes.extend(report.outcomes)
        failures.extend(report.failures)
        steals += (report.orchestrator or {}).get("steals", 0)

    profile_ok = profiled.slice_count // PROFILE_COEFFS
    sign_hits = sum(sign_of(value) == sign for value, sign, _, _ in outcomes)
    value_hits = sum(value == estimate for value, _, estimate, _ in outcomes)
    return attack, (outcomes, failures), {
        "traced": recorder is not None,
        "profile_s": profile_s,
        "attack_calls": calls,
        "calibrations": calibrations,
        "slices": profiled.slice_count,
        "profile_traces": PROFILE_TRACES,
        "profile_failed": PROFILE_TRACES - profile_ok,
        "attack_traces": workload.attack_traces,
        "attack_failed": len(failures),
        "sign_accuracy": sign_hits / len(outcomes),
        "value_accuracy": value_hits / len(outcomes),
        "digest": outcome_digest(outcomes, failures),
        "steals": steals,
    }


def cross_check(attack, attacked, workload, inputs) -> str:
    """Re-attack the last attack seed through the per-trace public path
    (``capture_batch`` + ``SingleTraceAttack.attack``) and compare it
    with the campaign's outcome for that seed; '' when they agree."""
    outcomes, failures = attacked
    seed = inputs.attack_first_seed + workload.attack_traces - 1
    failed = {s for s, _ in failures}
    if seed in failed:
        return ""
    index = sum(
        1 for s in range(inputs.attack_first_seed, seed) if s not in failed
    )
    coeffs = workload.attack_coeffs
    campaign = outcomes[index * coeffs : (index + 1) * coeffs]
    (captured,) = attack.acquisition.capture_batch(1, coeffs, first_seed=seed)
    direct = attack.attack(captured)
    expected = [(v, s, e) for v, s, e, _ in campaign]
    got = list(zip(captured.values, direct.signs, direct.estimates))
    if expected != got:
        return f"seed {seed}: campaign and per-trace attack disagree"
    return ""


def _layer_summary(parent, workers, cycle):
    """Fold one traced cycle's parent and worker records."""
    from tracer import ENVELOPES

    self_s, attack_self_s, counts, attack_counts = {}, {}, {}, {}
    parent_attributed = 0.0
    envelope_wall = 0.0
    for record in [parent] + workers:
        for phase, name, own, total, _ in record["layers"]:
            if name in ENVELOPES:
                envelope_wall += total
                continue
            self_s[name] = self_s.get(name, 0.0) + own
            if phase == "attack":
                attack_self_s[name] = attack_self_s.get(name, 0.0) + own
            if record is parent:
                parent_attributed += own
        for phase, name, value in record["counts"]:
            counts[name] = counts.get(name, 0) + value
            if phase == "attack":
                attack_counts[name] = attack_counts.get(name, 0) + value
    # Start-up: from each phase call to its first emulation in any
    # process (in-process dispatch when serial, forking when pooled).
    startup = 0.0
    for start, end, first_run in parent["envelopes"]:
        firsts = [
            w["first_start"] for w in workers if start <= w["first_start"] <= end
        ]
        if first_run is not None:
            firsts.append(first_run)
        if firsts:
            startup += min(firsts) - start
    call_wall = sum(end - start for start, end in parent["executor_calls"])
    worker_busy = sum(w["busy"] for w in workers)
    chains = list(parent["chains"])
    for w in workers:
        chains.extend(w["chains"])
    return {
        "wall": envelope_wall,
        "unattributed": envelope_wall - parent_attributed,
        "self_s": self_s,
        "attack_self_s": attack_self_s,
        "counts": counts,
        "attack_counts": attack_counts,
        "chains": chains,
        "executor_startup_s": startup,
        "executor_wall": call_wall,
        "worker_busy": worker_busy,
        "steals": cycle["steals"],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    from repro.backends import backend_id, get_backend
    from repro.power.noise import NOISE_STREAM_VERSION
    from repro.riscv.device import GaussianSamplerDevice, effective_engine
    import repro
    import tracer
    import workloads

    import_s = time.perf_counter() - START
    tick = time.perf_counter()
    get_backend()
    engine = effective_engine()
    backend = backend_id()
    probe_s = time.perf_counter() - tick

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.inputs_for(args.seed)
    tick = time.perf_counter()
    device = GaussianSamplerDevice(list(workloads.MODULI))
    if not args.no_warmup:
        warm_up(device, workload, inputs)
    warmup_s = time.perf_counter() - tick
    setup = {
        "setup_s": time.perf_counter() - START,
        "import_s": import_s,
        "probe_s": probe_s,
        "warmup_s": warmup_s,
        "calibrations": [calibrate() for _ in range(3)],
    }
    result = {
        "setup": setup,
        "env": {
            "engine": engine,
            "backend": backend,
            "noise_stream": NOISE_STREAM_VERSION,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "repro": os.path.dirname(repro.__file__),
        },
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    recorder = tracer.Recorder(args.trace_dir) if args.trace_dir else None
    cycles, traced = [], []
    check_error = ""
    before = setup["calibrations"][-1]
    begin = time.perf_counter()
    while True:
        use_tracer = recorder is not None and len(cycles) % 2 == 1
        if use_tracer:
            recorder.reset()
            with recorder.instrument():
                attack, attacked, cycle = run_cycle(
                    device, workload, inputs, before, recorder
                )
            traced.append(
                _layer_summary(
                    recorder.snapshot(), recorder.collect_workers(), cycle
                )
            )
        else:
            attack, attacked, cycle = run_cycle(device, workload, inputs, before)
        before = cycle["calibrations"][-1]
        cycles.append(cycle)
        if len(cycles) == 1:
            # Worker peaks creep up over many forks; the first cycle's
            # largest worker is the footprint a single campaign has.
            worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            check_error = cross_check(attack, attacked, workload, inputs)
            before = calibrate()
        elapsed = time.perf_counter() - begin
        per_cycle = elapsed / len(cycles)
        if args.max_cycles and len(cycles) >= args.max_cycles:
            break
        if len(cycles) >= 2 and elapsed + 0.5 * per_cycle >= args.seconds:
            break

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(
        cycles=cycles,
        traced=traced,
        cross_check=check_error,
        peak_rss_mb=(self_kb + (workload.workers or 0) * worker_kb) / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
