"""Layer-attributed Table I campaign benchmark.

Runs the RevEAL Table I campaign (profile templates, then segment →
classify → score every attack trace) on one workload and prints every
metric with its unit, then, as the last line, one JSON object::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 32 --trace 0

Run it from the repository root.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same cycles, every other one with the
layer shims of ``perfbench/tracer.py`` installed, and reports the
per-layer metrics.  ``--record`` (maintainers only) re-records the
expected outcome of a workload seed into ``perfbench/expected.json``.

The run is split over fresh processes in one pinned environment:

1. prime (untimed): compile bytecode and fill the benchmark-owned native
   module cache, then run the warm-up once;
2. ``SETUP_REPEATS`` set-up-only processes, so ``setup_s`` is a median;
3. the measuring process: set-up, then timed profile → attack cycles.

See ``perfbench/README.md`` for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(HERE, ".state")
EXPECTED = os.path.join(HERE, "expected.json")
SESSION = os.path.join(HERE, "session.py")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

#: Set-up-only processes per run, besides the measuring process.
SETUP_REPEATS = 5
#: Attack sanity floors for any seed, as loose as the repository's own
#: end-to-end tests (sign accuracy is 100 % on most seeds, not all);
#: exact per-seed values are pinned in ``expected.json``.
MIN_SIGN_ACCURACY = 0.9
MIN_VALUE_ACCURACY = 0.3
THREAD_CAPS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def pinned_env() -> dict:
    """The environment every benchmark process runs in.

    Engine/backend selection is left to the repository's defaults (all
    ``REVEAL_*`` overrides cleared), compiled modules and bytecode live in
    benchmark-owned caches, and BLAS/OpenMP run one thread per process.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REVEAL_", "PYTHON"))
    }
    for name in ("native", "pycache", "tmp", "spans", "results"):
        os.makedirs(os.path.join(STATE, name), exist_ok=True)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        PYTHONNOUSERSITE="1",
        PYTHONPYCACHEPREFIX=os.path.join(STATE, "pycache"),
        REVEAL_NATIVE_CACHE=os.path.join(STATE, "native"),
        TMPDIR=os.path.join(STATE, "tmp"),
    )
    env.update({name: "1" for name in THREAD_CAPS})
    return env


def _run(argv, env, timeout: float) -> str:
    """Run one child in its own process group; kill the group on exit."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:]} timed out after {timeout:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited with code {proc.returncode}")
    return out


def session(env, args, timeout: float) -> dict:
    out = _run([sys.executable, SESSION, *args], env, timeout)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"session {args} printed nothing")
    return json.loads(lines[-1])


def prime(env, workload: str) -> None:
    _run(
        [sys.executable, "-m", "compileall", "-q",
         os.path.join(ROOT, "src", "repro"), HERE],
        env, 900,
    )
    session(env, ["--setup-only", "--workload", workload, "--seed", "0"], 900)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(env_report: dict) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".c", ".h")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = "unknown"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True,
        )
        commit = probe.stdout.strip() or "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha": digest.hexdigest()[:12],
        "machine": f"{platform.machine()} {env_report['cpus']} cpu {cpu}",
        "python": env_report["python"],
        "engine": env_report["engine"],
        "backend": env_report["backend"],
        "noise_stream": env_report["noise_stream"],
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def spread(values):
    """(median, p25, p75, n) as ``statistics.quantiles`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return statistics.median(values), p25, p75, len(values)


def tail(values) -> float:
    """The highest order statistic with at least ten samples above it
    (the median when there are too few samples for one)."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return statistics.median(ordered)
    return ordered[-11]


def unattributed_share(traced) -> float:
    return sum(t["unattributed"] for t in traced) / sum(t["wall"] for t in traced)


def speed(calibrations) -> float:
    """How much slower than the reference host the kernel ran."""
    return statistics.median(calibrations) / workloads.CALIBRATION_REFERENCE_S


def rates(result, scaled: bool):
    """Per untraced cycle: (profile slices/s, attack coefficients/s),
    each scaled by the calibrations either side of its phase."""
    profile, attack = [], []
    for cycle in result["cycles"]:
        if cycle["traced"]:
            continue
        cal = cycle["calibrations"]
        profile.append(
            cycle["slices"] / cycle["profile_s"]
            * (speed(cal[0:2]) if scaled else 1.0)
        )
        for index, (coeffs, seconds) in enumerate(cycle["attack_calls"]):
            attack.append(
                coeffs / seconds
                * (speed(cal[index + 1 : index + 3]) if scaled else 1.0)
            )
    return profile, attack


def end_to_end(result, setups):
    """Times and rates in reference-host seconds (see README)."""
    outcome = outcome_of(result["cycles"][0])
    profile, attack = rates(result, scaled=True)
    return {
        "setup_s": (
            "s", [s["setup_s"] / speed(s["calibrations"]) for s in setups]
        ),
        "profile_slices_per_s": ("slice/s", profile),
        "attack_coeffs_per_s": ("coeff/s", attack),
        "peak_rss_mb": ("MB", [result["peak_rss_mb"]]),
        "sign_accuracy": ("fraction", [outcome["sign_accuracy"]]),
        "value_accuracy": ("fraction", [outcome["value_accuracy"]]),
        "trace_success_fraction": (
            "fraction", [1.0 - outcome["failed_trace_fraction"]]
        ),
    }


def per_layer(result, setups, workers):
    traced = result["traced"]
    n = len(traced)

    def per_cycle(key, layer):
        return sum(t[key].get(layer, 0.0) for t in traced) / n

    def total(key, name):
        return sum(t[key].get(name, 0) for t in traced)

    def rate(counter, layer, scale):
        busy = total("self_s", layer)
        return total("counts", counter) / busy / scale if busy else 0.0

    def attack_cost(layer, counter, scale):
        coeffs = total("attack_counts", counter)
        return total("attack_self_s", layer) / coeffs * scale if coeffs else 0.0

    chains = [s * 1e3 for t in traced for s in t["chains"]] or [0.0]
    executor_wall = sum(t["executor_wall"] for t in traced)
    worker_busy = sum(t["worker_busy"] for t in traced)
    overhead = (
        1.0 - worker_busy / (workers * executor_wall) if executor_wall else 0.0
    )
    walls = [
        c["profile_s"] + sum(s for _, s in c["attack_calls"])
        for c in result["cycles"]
    ]
    traced_wall = statistics.median(
        w for w, c in zip(walls, result["cycles"]) if c["traced"]
    )
    plain_wall = statistics.median(
        w for w, c in zip(walls, result["cycles"]) if not c["traced"]
    )
    profile_rates, attack_rates = rates(result, scaled=False)
    calibrations = [c for cycle in result["cycles"] for c in cycle["calibrations"]]
    return {
        "host.calibration_ms": ("ms", [c * 1e3 for c in calibrations]),
        "wall.setup_s": ("s", [s["setup_s"] for s in setups]),
        "wall.profile_slices_per_s": ("slice/s", profile_rates),
        "wall.attack_coeffs_per_s": ("coeff/s", attack_rates),
        "setup.import_s": ("s", [s["import_s"] for s in setups]),
        "setup.probe_s": ("s", [s["probe_s"] for s in setups]),
        "setup.warmup_s": ("s", [s["warmup_s"] for s in setups]),
        "riscv.busy_s": ("s", [per_cycle("self_s", "riscv")]),
        "riscv.sim_minstr_per_s": (
            "Minstr/s", [rate("riscv.instructions", "riscv", 1e6)]
        ),
        "riscv.sim_cycles_per_coeff": (
            "cycle/coeff",
            [total("counts", "riscv.cycles") / max(total("counts", "riscv.coeffs"), 1)],
        ),
        "leakage.busy_s": ("s", [per_cycle("self_s", "leakage")]),
        "leakage.msamples_per_s": (
            "Msample/s", [rate("leakage.samples", "leakage", 1e6)]
        ),
        "scope.busy_s": ("s", [per_cycle("self_s", "scope")]),
        "scope.msamples_per_s": ("Msample/s", [rate("scope.samples", "scope", 1e6)]),
        "segment.busy_s": ("s", [per_cycle("self_s", "segment")]),
        "segment.ms_per_coeff": (
            "ms/coeff", [attack_cost("segment", "segment.coeffs", 1e3)]
        ),
        "segment.failures": ("count", [per_cycle("counts", "segment.failures")]),
        "classify.busy_s": ("s", [per_cycle("self_s", "classify")]),
        "classify.us_per_coeff": (
            "us/coeff", [attack_cost("classify", "classify.coeffs", 1e6)]
        ),
        "profile.refine_s": ("s", [per_cycle("self_s", "profile.refine")]),
        "profile.fold_s": ("s", [per_cycle("self_s", "profile.fold")]),
        "profile.build_s": ("s", [per_cycle("self_s", "profile.build")]),
        "aggregate.busy_s": ("s", [per_cycle("self_s", "aggregate")]),
        "trace.p50_ms": ("ms", [statistics.median(chains)]),
        "trace.tail_ms": ("ms", [tail(chains)]),
        "executor.startup_s": (
            "s", [sum(t["executor_startup_s"] for t in traced) / n]
        ),
        "executor.overhead_frac": ("fraction", [overhead]),
        "executor.steals": ("count", [sum(t["steals"] for t in traced) / n]),
        "traced.unattributed_frac": ("fraction", [unattributed_share(traced)]),
        "traced.overhead_frac": ("fraction", [traced_wall / plain_wall - 1.0]),
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def outcome_of(cycle) -> dict:
    attempted = cycle["profile_traces"] + cycle["attack_traces"]
    return {
        "digest": cycle["digest"],
        "sign_accuracy": cycle["sign_accuracy"],
        "value_accuracy": cycle["value_accuracy"],
        "failed_trace_fraction": (
            (cycle["profile_failed"] + cycle["attack_failed"]) / attempted
        ),
    }


def load_expected() -> dict:
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED) as handle:
        return json.load(handle)


def check(result, workload, seed, trace: bool):
    """Check one measuring session.  Returns the problems found, the
    number of failed traces and whether the seed has recorded values."""
    problems = []
    recorded = load_expected().get(workload.name, {}).get(str(seed))
    reference = recorded or outcome_of(result["cycles"][0])
    failed = 0
    for index, cycle in enumerate(result["cycles"]):
        outcome = outcome_of(cycle)
        if outcome != reference:
            kind = "traced " if cycle["traced"] else ""
            source = "recorded" if recorded else "cycle 0"
            problems.append(
                f"{kind}cycle {index}: outcome {outcome} != {source} {reference}"
            )
            failed += cycle["profile_traces"] + cycle["attack_traces"]
        else:
            failed += cycle["profile_failed"] + cycle["attack_failed"]
    first = outcome_of(result["cycles"][0])
    if first["sign_accuracy"] < MIN_SIGN_ACCURACY:
        problems.append(f"sign accuracy {first['sign_accuracy']} below floor")
    if first["value_accuracy"] < MIN_VALUE_ACCURACY:
        problems.append(f"value accuracy {first['value_accuracy']} below floor")
    if result["cross_check"]:
        problems.append(result["cross_check"])
    src = os.path.realpath(os.path.join(ROOT, "src", "repro"))
    if os.path.realpath(result["env"]["repro"]) != src:
        problems.append(f"imported repro from {result['env']['repro']}, not {src}")
    if trace:
        share = unattributed_share(result["traced"])
        if share > workloads.UNATTRIBUTED_BOUND:
            problems.append(
                f"unattributed remainder {share:.3f} exceeds "
                f"{workloads.UNATTRIBUTED_BOUND}"
            )
    return problems, failed, recorded is not None


# ----------------------------------------------------------------------
def record(env, workload, seed: int, seconds: float) -> int:
    """Record the expected outcome of ``seed`` from a run without
    warm-up, after checking that a warmed-up run agrees."""
    base = ["--workload", workload.name, "--seed", str(seed),
            "--max-cycles", "1", "--seconds", str(seconds)]
    cold = session(env, base + ["--no-warmup"], 900)
    warm = session(env, base, 900)
    cold_outcome = outcome_of(cold["cycles"][0])
    warm_outcome = outcome_of(warm["cycles"][0])
    if cold_outcome != warm_outcome or cold["cross_check"]:
        print(f"refusing to record: {cold_outcome} vs {warm_outcome} "
              f"{cold['cross_check']}", file=sys.stderr)
        return 1
    expected = load_expected()
    expected.setdefault(workload.name, {})[str(seed)] = cold_outcome
    with open(EXPECTED + ".tmp", "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(EXPECTED + ".tmp", EXPECTED)
    print(f"recorded {workload.name} seed {seed}: {cold_outcome}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = pinned_env()
    spans = os.path.join(STATE, "spans", str(os.getpid()))
    try:
        prime(env, workload.name)
        if args.record:
            return record(env, workload, args.seed, args.seconds)
        common = ["--workload", workload.name, "--seed", str(args.seed)]
        setups = [
            session(env, common + ["--setup-only"], 60)["setup"]
            for _ in range(SETUP_REPEATS)
        ]
        extra = []
        if args.trace:
            os.makedirs(spans)
            extra = ["--trace-dir", spans]
        result = session(
            env, common + ["--seconds", str(args.seconds)] + extra,
            args.seconds + 120,
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(spans, ignore_errors=True)
    setups.append(result["setup"])

    problems, failed, recorded = check(result, workload, args.seed, bool(args.trace))
    table = (
        per_layer(result, setups, workload.workers or 0)
        if args.trace
        else end_to_end(result, setups)
    )
    info = provenance(result["env"])
    cycles = result["cycles"]
    attempted = sum(c["profile_traces"] + c["attack_traces"] for c in cycles)

    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
        f"cycles={len(cycles)} | " + " ".join(f"{k}={v}" for k, v in info.items())
    )
    print(f"  {'metric':<28}{'median':>14}{'p25':>14}{'p75':>14}{'n':>4}  unit")
    metrics = {}
    for name, (unit, values) in table.items():
        median, p25, p75, count = spread(values)
        metrics[name] = {"value": median, "unit": unit}
        print(f"  {name:<28}{median:>14.6g}{p25:>14.6g}{p75:>14.6g}{count:>4}  {unit}")
    outcome = outcome_of(cycles[0])
    print(
        f"  outcome digest {outcome['digest']} failed_trace_fraction "
        f"{outcome['failed_trace_fraction']:.6g} "
        f"({'recorded value checked' if recorded else 'no recorded value'})"
    )
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    report = {"provenance": info, "problems": problems, "metrics": metrics,
              "session": result}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE, "results", name), "w") as handle:
        json.dump(report, handle, indent=1)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
