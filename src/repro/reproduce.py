"""Command-line reproduction of the paper's tables and figures.

Usage::

    python -m repro.reproduce table3          # fast (estimator only)
    python -m repro.reproduce table4
    python -m repro.reproduce fig3            # needs ~10 s of simulation
    python -m repro.reproduce table1 --traces 80
    python -m repro.reproduce table2 --traces 40
    python -m repro.reproduce all --workers 4
    python -m repro.reproduce campaign --traces 512 --workers 4 \
        --campaign-dir runs/c1 --shard-size 128   # resumable campaign
    python -m repro.reproduce campaign --traces 512 --workers 4 \
        --campaign-dir runs/c1 --resume           # pick up where it died

The pytest benchmarks in ``benchmarks/`` are the full-fidelity
regeneration path; this module is the quick look.  ``table1``/``table2``
run on the campaign engine (:mod:`repro.attack.campaign`): ``--workers
N`` fans profiling captures and the attack phase across a process pool
(bit-identical results for any worker count), and each run prints the
engine's per-stage timing counters.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.backends import BACKEND_NAMES, resolve_backend, set_backend


def _make_bench(noise: float = 1.0):
    from repro.power.capture import TraceAcquisition
    from repro.power.scope import Oscilloscope
    from repro.riscv.device import GaussianSamplerDevice

    device = GaussianSamplerDevice([132120577])
    return TraceAcquisition(device, scope=Oscilloscope(noise_std=noise), rng=0)


def _profiled_attack(bench, traces: int, workers=None):
    from repro.attack.pipeline import SingleTraceAttack

    attack = SingleTraceAttack(bench, poi_count=24)
    report = attack.profile(
        num_traces=max(traces, 60),
        coeffs_per_trace=8,
        first_seed=100_000,
        workers=workers,
    )
    timings = report.timings or {}
    stages = "  ".join(f"{k} {v:.2f}s" for k, v in timings.items())
    print(f"profiling ({report.slice_count} slices): {stages}")
    return attack


def run_fig3() -> None:
    from repro.attack.segmentation import Segmenter

    bench = _make_bench()
    captured = bench.capture(seed=3, count=3)
    print("Fig. 3(a): one trace, three coefficient samplings")
    print(f"  sampled coefficients: {captured.values}")
    for window in Segmenter().windows(captured.trace.samples):
        print(f"  window {window.index}: [{window.start}, {window.end}) "
              f"anchor {window.anchor}")


def run_table1(traces: int, workers=None, engine=None) -> None:
    from repro.attack.campaign import run_campaign

    bench = _make_bench()
    attack = _profiled_attack(bench, traces, workers=workers)
    report = run_campaign(
        attack, trace_count=traces, coeffs_per_trace=8, first_seed=1,
        workers=workers, engine=engine,
    )
    labels = [v for v in range(-5, 6) if report.confusion.total(v) >= 3]
    print("Table I (condensed):")
    print(report.confusion.format_table(labels))
    print(f"sign accuracy {100 * report.sign_accuracy:.2f}% [paper: 100%]")
    print(report.format_timings())


def run_table2(traces: int, workers=None, engine=None) -> None:
    from repro.attack.campaign import run_campaign
    from repro.hints.hintgen import moments_of_table

    bench = _make_bench()
    attack = _profiled_attack(bench, traces, workers=workers)
    report = run_campaign(
        attack, trace_count=traces, coeffs_per_trace=8, first_seed=1,
        workers=workers, engine=engine,
    )
    print("Table II: probability tables (centered / variance):")
    shown = set()
    for value, _, _, table in report.outcomes:
        if value in shown or not (-2 <= value <= 2):
            continue
        shown.add(value)
        mean, variance = moments_of_table(table)
        print(f"  secret {value:3d}: centered {mean:7.3f}  variance {variance:.3e}")
        if len(shown) == 5:
            break
    print(report.format_timings())


def run_campaign_target(
    traces: int,
    workers=None,
    engine=None,
    coeffs: int = 8,
    campaign_dir=None,
    resume: bool = False,
    shard_size: int = 256,
    grain=None,
    profile_cache=None,
) -> None:
    """An orchestrated campaign with checkpoint/resume.

    ``--campaign-dir`` makes the run resumable: every completed shard
    of ``--shard-size`` seeds is checkpointed atomically, and
    ``--resume`` picks up a killed or cancelled run from the last
    completed shard — the final report is bit-identical to an
    uninterrupted run.
    """
    from repro.attack.campaign import profiled_attack_cached
    from repro.attack.orchestrator import run_orchestrated

    bench = _make_bench()
    if profile_cache is not None:
        attack, was_cached, _ = profiled_attack_cached(
            bench,
            profile_cache,
            attack_kwargs={"poi_count": 24},
            num_traces=max(traces, 60),
            coeffs_per_trace=8,
            first_seed=100_000,
            workers=workers,
        )
        print(f"profile cache: {'hit' if was_cached else 'miss (profiled)'}")
    else:
        attack = _profiled_attack(bench, traces, workers=workers)
    report = run_orchestrated(
        attack,
        trace_count=traces,
        coeffs_per_trace=coeffs,
        first_seed=1,
        workers=workers,
        grain=grain,
        engine=engine,
        campaign_dir=campaign_dir,
        resume=resume,
        shard_size=shard_size,
    )
    print("orchestrated campaign:")
    print(report.summary())


def run_table3() -> None:
    from repro.hints.estimator import beta_for_dbdd, bikz_to_bits
    from repro.hints.security import (
        PAPER_BIKZ_NO_HINTS,
        PAPER_BIKZ_WITH_HINTS,
        seal_128_dbdd,
        seal_128_parameters,
    )

    params = seal_128_parameters()
    rng = np.random.default_rng(0)
    e2 = np.rint(np.clip(rng.normal(0, params.error_sigma, params.m), -41, 41))
    beta0 = beta_for_dbdd(seal_128_dbdd())
    instance = seal_128_dbdd()
    for i, value in enumerate(e2):
        instance.integrate_perfect_hint(params.n + i, float(value))
    beta1 = beta_for_dbdd(instance)
    print("Table III (SEAL-128):")
    print(f"  without hints: {beta0:7.2f} bikz = 2^{bikz_to_bits(beta0):.2f} "
          f"[paper {PAPER_BIKZ_NO_HINTS}]")
    print(f"  with hints:    {beta1:7.2f} bikz = 2^{bikz_to_bits(beta1):.2f} "
          f"[paper {PAPER_BIKZ_WITH_HINTS}] -> complete break")


def run_table4() -> None:
    from repro.hints.estimator import beta_for_dbdd, bikz_to_bits
    from repro.hints.hintgen import apply_guesses, apply_hints, hints_from_signs
    from repro.hints.security import (
        PAPER_BIKZ_BRANCH_AND_GUESS,
        PAPER_BIKZ_BRANCH_ONLY,
        PAPER_BIKZ_NO_HINTS,
        seal_128_dbdd,
        seal_128_parameters,
    )

    params = seal_128_parameters()
    rng = np.random.default_rng(7)
    e2 = np.rint(np.clip(rng.normal(0, params.error_sigma, params.m), -41, 41))
    signs = np.sign(e2.astype(int))
    beta0 = beta_for_dbdd(seal_128_dbdd())
    instance = seal_128_dbdd()
    hints = hints_from_signs(signs, params.error_sigma)
    apply_hints(instance, hints, params.n)
    beta1 = beta_for_dbdd(instance)
    apply_guesses(instance, hints, params.n, count=1)
    beta2 = beta_for_dbdd(instance)
    print("Table IV (branch vulnerability only):")
    print(f"  without hints:        {beta0:7.2f} [paper {PAPER_BIKZ_NO_HINTS}]")
    print(f"  with hints:           {beta1:7.2f} [paper {PAPER_BIKZ_BRANCH_ONLY}]")
    print(f"  with hints & 1 guess: {beta2:7.2f} [paper {PAPER_BIKZ_BRANCH_AND_GUESS}]")
    print(f"  -> {bikz_to_bits(beta1):.1f} bits remain: signs alone cannot "
          f"recover the message")


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (a clean usage error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.reproduce",
        description="Quick reproduction of the RevEAL paper's tables/figures.",
    )
    parser.add_argument(
        "target",
        choices=[
            "fig3", "table1", "table2", "table3", "table4", "campaign", "all",
        ],
    )
    parser.add_argument(
        "--traces",
        type=_positive_int,
        default=60,
        help="attack/profiling trace budget for table1/table2 (default 60)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for table1/table2 capture+attack "
        "(default: serial)",
    )
    parser.add_argument(
        "--engine",
        choices=["interpreter", "threaded", "compiled"],
        default=None,
        help="execution engine for table1/table2/campaign attack captures "
        "(default: $REVEAL_ENGINE, then compiled, threaded without a "
        "C toolchain)",
    )
    parser.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default=None,
        help="numeric kernel backend for the hot loops "
        "(default: $REVEAL_BACKEND, then capability probe)",
    )
    parser.add_argument(
        "--coeffs",
        type=int,
        default=8,
        help="coefficients per trace for the campaign target (default 8)",
    )
    parser.add_argument(
        "--campaign-dir",
        default=None,
        help="checkpoint directory for the campaign target; completed "
        "shards are written atomically and --resume restarts from them",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the campaign in --campaign-dir from its last "
        "completed shard (fingerprint-checked)",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=256,
        help="seeds per checkpoint shard for the campaign target "
        "(default 256)",
    )
    parser.add_argument(
        "--grain",
        type=int,
        default=None,
        help="seeds per worker task (grain) for the campaign target "
        "(default 32)",
    )
    parser.add_argument(
        "--profile-cache",
        default=None,
        help="profile-store directory for the campaign target "
        "(profile once, reuse across runs)",
    )
    args = parser.parse_args(argv)
    if args.resume and args.campaign_dir is None:
        parser.error("--resume needs --campaign-dir")
    if args.backend is not None:
        set_backend(args.backend)
    else:
        # Surface a bad REVEAL_BACKEND value here, at parse time, rather
        # than mid-campaign on the first kernel dispatch.
        resolve_backend(None)
    runners = {
        "fig3": run_fig3,
        "table1": lambda: run_table1(args.traces, args.workers, args.engine),
        "table2": lambda: run_table2(args.traces, args.workers, args.engine),
        "table3": run_table3,
        "table4": run_table4,
        "campaign": lambda: run_campaign_target(
            args.traces,
            workers=args.workers,
            engine=args.engine,
            coeffs=args.coeffs,
            campaign_dir=args.campaign_dir,
            resume=args.resume,
            shard_size=args.shard_size,
            grain=args.grain,
            profile_cache=args.profile_cache,
        ),
    }
    targets = (
        [name for name in runners if name != "campaign"]
        if args.target == "all"
        else [args.target]
    )
    for index, name in enumerate(targets):
        if index:
            print()
        runners[name]()


if __name__ == "__main__":
    main()
