"""The fast/reference oracle registry.

Every performance PR in this repo keeps the original implementation of
the path it optimised as a ``*_reference`` twin; this module registers
each such pair behind one :class:`Oracle` record so they can all be
driven by the same harness:

- ``riscv.cpu.run`` — threaded-code engine vs the scalar interpreter,
  on randomized RV32IM programs (full machine state + EventLog + error
  parity);
- ``power.leakage.expand`` — vectorized trace synthesis vs the scalar
  expansion (bit-exact float64);
- ``attack.segmentation.moving_average`` — cumulative-sum sliding mean
  vs ``np.convolve`` (input-scaled envelope: both reassociate float
  sums, with error proportional to ``eps * sum(|x|)``);
- ``segmentation.windows`` — the native ``segment`` kernel vs the numpy
  reference path: windows, anchors, aligned slices with and without an
  anchor refiner (the refined ones under every variant of the kernel's
  loops and offset pruning), and errors, on synthetic burst traces
  (bit-exact);
- ``ring.ntt`` — level-order vectorized butterflies vs the per-group
  loops, plus the inverse∘forward identity;
- ``ring.negacyclic_multiply`` — NTT-domain product vs a schoolbook
  O(n²) negacyclic convolution;
- ``attack.persistence`` — profiled-attack save/load round-trip
  (bit-exact template state across the ``.npz`` v2 format);
- ``attack.profile`` — streaming-moments profiling vs the materialized
  flow (1e-9 on raw moments, condition-number headroom on the
  inverted per-class templates; expensive, deep tier only).

Each oracle knows how to *sample* a case from a seeded numpy generator,
so any failure is replayable from two integers: the oracle name and the
case seed.  :func:`format_repro_command` renders the exact command
line.  The Hypothesis suites in ``tests/differential/`` drive the same
``run_fast``/``run_reference`` entry points with shrinking strategies
from ``tests/strategies.py``; this registry is the dependency-free
(no-Hypothesis) core that the CLI, CI smoke and tests all share.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.errors import SimulationError, VerificationError
from repro.verify.compare import EXACT, Tolerance, diff_values

_MASK32 = 0xFFFFFFFF

#: The paper's coefficient modulus, used by the bench-level oracles.
PAPER_Q = 132120577


# ----------------------------------------------------------------------
# Oracle protocol
# ----------------------------------------------------------------------
@dataclass
class OracleReport:
    """Outcome of checking one sampled case."""

    oracle: str
    case_seed: int
    ok: bool
    mismatches: List[str] = field(default_factory=list)
    case_summary: str = ""

    def repro_command(self) -> str:
        return format_repro_command(self.oracle, self.case_seed)


@dataclass
class Oracle:
    """One registered fast/reference pair.

    ``sample`` draws a case payload from a seeded generator; ``fast``
    and ``reference`` map the payload to comparable result structures;
    ``tolerance`` decides leaf equality (exact unless the pair is only
    pinned up to float reassociation).  It may also be a *callable*
    taking the case and returning a :class:`Tolerance` — for pairs
    whose honest error bound depends on the input (the sliding mean's
    cancellation error scales with ``sum(|x|)``).  ``expensive`` marks
    pairs that cost seconds per case (profiling); the CLI and the quick
    CI tier skip them unless asked.  ``fuzzable`` marks oracles whose
    samplers are cheap and adversarial enough for the high-volume
    ``python -m repro.verify fuzz`` driver.
    """

    name: str
    description: str
    sample: Callable[[np.random.Generator], Any]
    fast: Callable[[Any], Any]
    reference: Callable[[Any], Any]
    tolerance: Any = EXACT
    expensive: bool = False
    fuzzable: bool = False
    summarize: Callable[[Any], str] = staticmethod(lambda case: "")

    def tolerance_for(self, case: Any) -> Tolerance:
        """The comparison envelope for one concrete case."""
        if callable(self.tolerance):
            return self.tolerance(case)
        return self.tolerance

    def check_case(self, case: Any, case_seed: int = -1) -> OracleReport:
        """Run both implementations on one case and diff the results."""
        mismatches = diff_values(
            self.fast(case), self.reference(case), self.tolerance_for(case)
        )
        return OracleReport(
            oracle=self.name,
            case_seed=case_seed,
            ok=not mismatches,
            mismatches=mismatches,
            case_summary=self.summarize(case),
        )

    def check_seed(self, case_seed: int) -> OracleReport:
        """Sample the case for ``case_seed`` and check it."""
        case = self.sample(np.random.default_rng(case_seed))
        return self.check_case(case, case_seed)


_REGISTRY: Dict[str, Oracle] = {}


def register(oracle: Oracle) -> Oracle:
    """Add an oracle to the process-wide registry (name must be new)."""
    if oracle.name in _REGISTRY:
        raise VerificationError(f"oracle {oracle.name!r} registered twice")
    _REGISTRY[oracle.name] = oracle
    return oracle


def get_oracle(name: str) -> Oracle:
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise VerificationError(f"unknown oracle {name!r} (known: {known})")
    return _REGISTRY[name]


def all_oracles(include_expensive: bool = True) -> List[Oracle]:
    """Registered oracles in name order."""
    return [
        _REGISTRY[name]
        for name in sorted(_REGISTRY)
        if include_expensive or not _REGISTRY[name].expensive
    ]


def format_repro_command(oracle_name: str, case_seed: int) -> str:
    """The exact shell command that replays one failing case."""
    return (
        "PYTHONPATH=src python -m repro.verify replay "
        f"{oracle_name} --case-seed {case_seed}"
    )


def run_oracle(
    oracle: Oracle, examples: int, base_seed: int
) -> List[OracleReport]:
    """Check ``examples`` cases with seeds ``base_seed + i``; all reports."""
    return [oracle.check_seed(base_seed + i) for i in range(examples)]


# ----------------------------------------------------------------------
# Case generators
# ----------------------------------------------------------------------
#: Scratch data region used by generated load/store instructions (well
#: above any generated code, well inside the 64 KiB test memory).
SCRATCH_BASE = 0x8000

_ALU_RR = [
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
    "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
]
_ALU_IMM = ["addi", "slti", "sltiu", "xori", "ori", "andi"]
_SHIFT_IMM = ["slli", "srli", "srai"]
_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]
_LOADS = ["lw", "lh", "lhu", "lb", "lbu"]
_STORES = ["sw", "sh", "sb"]

#: Operand values overrepresented in generated registers: the RV32IM
#: corner cases (INT_MIN, -1, 0) that the div/rem and shift semantics
#: special-case.
_SPICY_VALUES = (0, 1, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF, 2, 0xAAAAAAAA)


def _random_register_file(rng: np.random.Generator) -> Dict[int, int]:
    """Initial values for x1..x15: mostly uniform, corners mixed in."""
    regs = {}
    for index in range(1, 16):
        if rng.random() < 0.3:
            regs[index] = int(rng.choice(_SPICY_VALUES))
        else:
            regs[index] = int(rng.integers(0, 1 << 32))
    return regs


def random_program(rng: np.random.Generator) -> Dict[str, Any]:
    """One randomized RV32IM program case for the engine-parity oracle.

    Mostly well-behaved straight-line code over x1..x15 with loads and
    stores into a scratch region, forward branches over small bodies and
    bounded down-counting loops — plus, occasionally, a wild memory
    access or a tiny instruction budget, because the two engines must
    agree on *faults* (message and machine state) exactly as they agree
    on results.
    """
    lines: List[str] = [f"li x5, {SCRATCH_BASE}"]
    label_count = 0
    n_instr = int(rng.integers(3, 36))
    i = 0
    while i < n_instr:
        kind = rng.random()
        rd = int(rng.integers(1, 16))
        rs1 = int(rng.integers(0, 16))
        rs2 = int(rng.integers(0, 16))
        if kind < 0.40:
            lines.append(f"{rng.choice(_ALU_RR)} x{rd}, x{rs1}, x{rs2}")
        elif kind < 0.55:
            imm = int(rng.integers(-2048, 2048))
            lines.append(f"{rng.choice(_ALU_IMM)} x{rd}, x{rs1}, {imm}")
        elif kind < 0.62:
            lines.append(
                f"{rng.choice(_SHIFT_IMM)} x{rd}, x{rs1}, {int(rng.integers(0, 32))}"
            )
        elif kind < 0.68:
            lines.append(f"lui x{rd}, {int(rng.integers(0, 1 << 20))}")
        elif kind < 0.72:
            lines.append(f"auipc x{rd}, {int(rng.integers(0, 1 << 20))}")
        elif kind < 0.82:
            offset = int(rng.integers(0, 64)) * 4
            if rng.random() < 0.95:
                base = "x5"  # safe scratch pointer
            else:
                base = f"x{int(rng.integers(1, 16))}"  # may fault: parity!
            if rng.random() < 0.5:
                lines.append(f"{rng.choice(_LOADS)} x{rd}, {offset}({base})")
            else:
                lines.append(f"{rng.choice(_STORES)} x{rd}, {offset}({base})")
        elif kind < 0.92:
            # forward branch over a small always-assembled body
            label = f"skip_{label_count}"
            label_count += 1
            lines.append(
                f"{rng.choice(_BRANCHES)} x{rs1}, x{rs2}, {label}"
            )
            for _ in range(int(rng.integers(1, 4))):
                lines.append(
                    f"{rng.choice(_ALU_RR[:10])} "
                    f"x{int(rng.integers(1, 16))}, x{rs1}, x{rs2}"
                )
                i += 1
            lines.append(f"{label}:")
        else:
            # bounded down-counting loop (exercises backward branches,
            # superblock unrolling, warm block-cache replay)
            label = f"loop_{label_count}"
            label_count += 1
            counter = int(rng.integers(6, 10))  # x6..x9, never the scratch base
            lines.append(f"li x{counter}, {int(rng.integers(1, 7))}")
            lines.append(f"{label}:")
            for _ in range(int(rng.integers(1, 3))):
                lines.append(
                    f"{rng.choice(_ALU_RR)} "
                    f"x{int(rng.integers(10, 16))}, x{int(rng.integers(0, 16))}, "
                    f"x{counter}"
                )
                i += 1
            lines.append(f"addi x{counter}, x{counter}, -1")
            lines.append(f"bnez x{counter}, {label}")
            i += 2
        i += 1
    lines.append("ebreak")
    budget = 10_000 if rng.random() < 0.85 else int(rng.integers(1, 40))
    return {
        "source": "\n".join(lines),
        "registers": _random_register_file(rng),
        "max_instructions": budget,
    }


def _run_engine(case: Dict[str, Any], engine: str) -> Dict[str, Any]:
    from repro.riscv.assembler import assemble
    from repro.riscv.cpu import Cpu
    from repro.riscv.device import run_engine
    from repro.riscv.memory import Memory

    cpu = Cpu(Memory(size_bytes=1 << 16), record_events=True)
    cpu.load_program(assemble(case["source"]).words, 0)
    for index, value in case["registers"].items():
        cpu.write_register(index, value)
    error: Optional[str] = None
    try:
        run_engine(cpu, engine, case["max_instructions"])
    except SimulationError as exc:
        error = str(exc)
    return {
        "registers": list(cpu.registers),
        "pc": cpu.pc,
        "cycle_count": cpu.cycle_count,
        "instruction_count": cpu.instruction_count,
        "halted": cpu.halted,
        "error": error,
        "events": cpu.events.columns().copy(),
    }


# ----------------------------------------------------------------------
# Retire-log conformance (the cross-engine fuzz oracle)
# ----------------------------------------------------------------------
def sample_retire_case(rng: np.random.Generator) -> Dict[str, Any]:
    """Half well-behaved programs, half targeted adversarial cases."""
    if rng.random() < 0.5:
        case = random_program(rng)
        case["kind"] = "random"
        return case
    from repro.verify.conformance import random_adversarial_program

    return random_adversarial_program(rng)


def _retire_state(run: Any) -> Dict[str, Any]:
    return {
        "registers": run.registers,
        "pc": run.pc,
        "cycle_count": run.cycle_count,
        "instruction_count": run.instruction_count,
        "halted": run.halted,
        "error": run.error,
        "retire_count": int(run.retires.shape[0]),
        "retires": run.retires,
    }


#: ``state`` payload preference when several engines ran (the first
#: active engine in this order supplies the machine state).
_RETIRE_STATE_PRIORITY = ("threaded", "compiled", "reference")


def _retire_fast(case: Dict[str, Any]) -> Dict[str, Any]:
    """Run every active engine pair; report per-pair retire divergence.

    The pair set comes from :func:`repro.verify.conformance.
    active_engine_pairs` — all three pairings of reference / threaded /
    compiled by default, minus ``compiled`` where no C
    toolchain probes, minus anything outside the ``--engines`` filter.
    The payload's ``state`` comes from the first active engine in
    :data:`_RETIRE_STATE_PRIORITY`, so diffing against
    :func:`_retire_reference` (scalar interpreter state, all
    divergences ``None``) catches both a pair disagreeing and the fast
    engines drifting from the reference machine state.
    """
    from repro.riscv.assembler import assemble
    from repro.verify import conformance

    words = assemble(case["source"]).words
    kwargs = {"max_instructions": case["max_instructions"]}
    runs = {
        engine: conformance.run_scalar_engine(
            words, case["registers"], engine=engine, **kwargs
        )
        for engine in conformance.active_engines()
    }
    divergence: Dict[str, Optional[str]] = {}
    for left, right in conformance.active_engine_pairs():
        mismatches = conformance.compare_runs(runs[left], runs[right])
        divergence[f"{left}_vs_{right}"] = (
            "; ".join(mismatches) if mismatches else None
        )
    state_engine = next(e for e in _RETIRE_STATE_PRIORITY if e in runs)
    return {"divergence": divergence, "state": _retire_state(runs[state_engine])}


def _retire_reference(case: Dict[str, Any]) -> Dict[str, Any]:
    from repro.riscv.assembler import assemble
    from repro.verify import conformance

    run = conformance.run_scalar_engine(
        assemble(case["source"]).words,
        case["registers"],
        engine="reference",
        max_instructions=case["max_instructions"],
    )
    divergence: Dict[str, Optional[str]] = {
        f"{left}_vs_{right}": None
        for left, right in conformance.active_engine_pairs()
    }
    return {"divergence": divergence, "state": _retire_state(run)}


def sample_events(rng: np.random.Generator, max_events: int = 60) -> List[Any]:
    """A synthetic event log: random op classes, adversarial fields."""
    from repro.riscv import cycles as cy
    from repro.riscv.cpu import ExecutionEvent

    count = int(rng.integers(0, max_events + 1))
    events = []
    for _ in range(count):
        op = int(rng.integers(0, len(cy.CYCLES)))
        fields = []
        for _f in range(7):
            if rng.random() < 0.25:
                fields.append(int(rng.choice(_SPICY_VALUES)))
            else:
                fields.append(int(rng.integers(0, 1 << 32)))
        events.append(ExecutionEvent(op, *fields))
    return events


def _sample_leakage_case(rng: np.random.Generator) -> Dict[str, Any]:
    from repro.power.leakage import LeakageModel

    if rng.random() < 0.5:
        model = LeakageModel()
    else:
        model = LeakageModel(
            weight_data=float(rng.uniform(0.0, 2.0)),
            weight_transition=float(rng.uniform(0.0, 2.0)),
            weight_fetch=float(rng.uniform(0.0, 1.0)),
            weight_engine=float(rng.uniform(0.0, 2.0)),
            engine_offset=float(rng.uniform(0.0, 80.0)),
            baseline=float(rng.uniform(0.0, 10.0)),
        )
    return {"model": model, "events": sample_events(rng)}


def _sample_noise_v2_case(rng: np.random.Generator) -> Dict[str, Any]:
    n = int(rng.integers(60_000, 200_000))
    return {
        "entropy": int(rng.integers(0, 1 << 63)),
        "seed": int(rng.integers(0, 1 << 31)),
        "n": n,
        # Spans block boundaries (NOISE_BLOCK = 16384), so the
        # continuation probe exercises mid-stream re-entry.
        "offset": int(rng.integers(1, 40_000)),
    }


def _noise_moments(x: np.ndarray) -> Dict[str, float]:
    return {
        "mean": float(x.mean()),
        "var": float(x.var()),
        "abs_mean": float(np.abs(x).mean()),
        "extreme_frac": float((np.abs(x) > 3.0).mean()),
    }


def _noise_v2_fast(case: Dict[str, Any]) -> Dict[str, Any]:
    from repro.power import noise

    entropy, seed, n = case["entropy"], case["seed"], case["n"]
    x = noise.standard_noise(entropy, seed, n)
    off = case["offset"]
    head = noise.standard_noise(entropy, seed, off)
    tail = noise.standard_noise(entropy, seed, n - off, offset=off)
    return {
        "moments": _noise_moments(x),
        # Exact 0/1 indicator floats: the v2 contract's hard guarantees.
        "deterministic": float(
            np.array_equal(x, noise.standard_noise(entropy, seed, n))
        ),
        "offset_continuation": float(
            np.array_equal(np.concatenate([head, tail]), x)
        ),
        "distinct_across_seeds": float(
            not np.array_equal(x, noise.standard_noise(entropy, seed + 1, n))
        ),
    }


def _noise_rng(batch_entropy: int, seed: int) -> np.random.Generator:
    """The v1 per-trace noise generator (sequential, trace-at-a-time):
    stream v2's statistical reference."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(int(batch_entropy), int(seed)))
    )


def _noise_v2_reference(case: Dict[str, Any]) -> Dict[str, Any]:
    x = _noise_rng(case["entropy"], case["seed"]).standard_normal(case["n"])
    return {
        "moments": _noise_moments(x),
        "deterministic": 1.0,
        "offset_continuation": 1.0,
        "distinct_across_seeds": 1.0,
    }


def _noise_v2_tolerance(case: Dict[str, Any]) -> Tolerance:
    """Sampling envelope for the v1-vs-v2 marginal-distribution match.

    The streams are *independent* draws from the same N(0, 1), so each
    sample moment differs by ~sqrt(2/n) standard errors; 8 sigma keeps
    the nightly 500-case sweep deterministic-in-practice.  Everything
    outside ``moments`` (the indicator probes) stays bit-exact.
    """
    return Tolerance(
        overrides=(
            ("moments", Tolerance(rtol=0.0, atol=8.0 * math.sqrt(2.0 / case["n"]))),
        )
    )


def _sample_moving_average_case(rng: np.random.Generator) -> Dict[str, Any]:
    n = int(rng.integers(1, 400))
    style = rng.random()
    if style < 0.6:
        x = rng.normal(0.0, float(rng.uniform(0.1, 100.0)), n)
    elif style < 0.8:
        x = np.full(n, float(rng.uniform(-1e6, 1e6)))
    else:
        x = rng.normal(0.0, 1.0, n) * (10.0 ** rng.integers(-6, 7, n))
    window = int(rng.integers(1, max(2, 2 * n)))
    return {"x": x, "window": window}


def _sample_windows_case(rng: np.random.Generator) -> Dict[str, Any]:
    """Synthetic burst trace: per coefficient, one long log burst, then
    engine bursts separated by random (sometimes too short) quiet gaps,
    plus an anchor refiner.

    Half the cases segment with unsmoothed envelopes (``window = 1``), so
    rectangular bursts are detected at their exact first sample: each
    log burst is then also an engine burst starting exactly at its
    window's ``w_start`` and at the previous window's ``w_end``, the two
    edges of the ``w_start <= start < w_end`` rule.  Noise-free traces
    are 0/1-valued, so every refiner score is an exact integer; the
    reference is then often the trace's own pattern, planted a second
    time further on (an exact tie wherever both copies fall in one
    window, which the first offset wins).  Some traces are flat (one
    constant level), so their envelopes hold no burst at all.

    The rest stress the refiner's offset bound: a periodic texture over
    the bursts (many offsets share chunk sums), a reference constant
    over chunks, and traces scaled far up or down or shifted negative
    (the bound's margins then dominate).
    """
    from repro.attack.segmentation import AnchorRefiner, SegmenterConfig

    if rng.random() < 0.5:
        config = SegmenterConfig(envelope_window=1, frac_window=1)
    else:
        config = SegmenterConfig(
            envelope_window=int(rng.choice([2, 3, 16, 17])),
            frac_window=int(rng.choice([33, 64, 65])),
        )
    pieces = [np.zeros(int(rng.integers(50, 400)))]
    for _ in range(int(rng.integers(1, 13))):
        pieces.append(np.ones(int(rng.integers(650, 1400))))
        for _ in range(int(rng.integers(0, 5))):
            pieces.append(np.zeros(int(rng.integers(5, 160))))
            pieces.append(np.ones(int(rng.integers(20, 130))))
        pieces.append(np.zeros(int(rng.integers(0, 300))))
    samples = np.concatenate(pieces)
    if rng.random() < 0.05:
        samples = np.full(samples.size, float(rng.choice([0.0, 1.0, 7.25])))
    elif rng.random() < 0.15:
        period = int(rng.integers(2, 30))
        texture = rng.integers(0, 3, period).astype(np.float64) * 0.25
        samples += np.resize(texture, samples.size)
    before, after = int(rng.integers(1, 160)), int(rng.integers(0, 60))
    length = before + after
    style = rng.random()
    if style < 0.1:
        # constant over chunks of the kernel's width, ceil(length / 11)
        width = -(-length // 11)
        levels = rng.normal(0.5, 0.5, -(-length // width))
        reference = np.repeat(levels, width)[:length]
    elif style < 0.4 and samples.size >= 2 * length + 2:
        # the trace's own pattern, planted again further on
        first = int(rng.integers(0, samples.size - 2 * length))
        second = int(rng.integers(first + length, samples.size - length + 1))
        reference = samples[first : first + length].copy()
        samples[second : second + length] = reference
    elif style < 0.5:
        reference = np.full(length, float(rng.choice([0.0, 1.0])))
    else:
        reference = rng.normal(0.5, 0.5, length)
    samples += rng.normal(0.0, float(rng.choice([0.0, 0.02, 0.1])), samples.size)
    if rng.random() < 0.15:
        shift = float(rng.choice([0.0, -3.0]))
        scale = float(rng.choice([1e-150, 1e-20, 1e100, 1e140, 1e148]))
        samples = (samples + shift) * scale
        reference = (reference + shift) * scale
    return {
        "samples": samples,
        "config": config,
        "refiner": AnchorRefiner(reference, before=before, after=after),
    }


#: The native refiner's ``variant`` bits (see ``_segment_kernel``): 1
#: for its AVX2 loops, 2 to switch its offset pruning off.
_SEGMENT_VARIANTS = (0, 1, 2, 3)


def _segment_variants(case: Dict[str, Any], backend: str) -> Dict[str, Any]:
    """:func:`_segment_with`, plus the refined slices of every variant of
    the native refiner (numpy's own refined slices on the reference
    backend, which has no variants)."""
    from repro.attack.segmentation import Segmenter
    from repro.backends import probe_backend

    result = _segment_with(case, backend)
    if "refined" not in result:
        return result
    if backend == "reference":
        result["variants"] = [result["refined"]] * len(_SEGMENT_VARIANTS)
        return result
    kernel = probe_backend(backend).kernels["segment"]
    segmenter = Segmenter(case["config"])
    samples, refiner = case["samples"], case["refiner"]
    variants = []
    for variant in _SEGMENT_VARIANTS:
        reason, found = kernel(
            samples, case["config"], refiner, slices=True, variant=variant
        )
        if reason == "ok":
            variants.append(segmenter._refine_pending(samples, refiner, *found))
        else:  # deferred to numpy, as aligned_slices does
            variants.append(result["refined"])
    result["variants"] = variants
    return result


def _segment_with(case: Dict[str, Any], backend: str) -> Dict[str, Any]:
    """Windows, plain and refined slices (or the error) on ``backend``."""
    from repro.attack.segmentation import Segmenter
    from repro.backends import use_backend
    from repro.errors import AttackError

    segmenter = Segmenter(case["config"])
    samples = case["samples"]
    result: Dict[str, Any] = {}
    with use_backend(backend):
        try:
            result["windows"] = [
                (w.index, w.start, w.end, w.anchor)
                for w in segmenter.windows(samples)
            ]
            result["slices"] = segmenter.aligned_slices(samples)
            if case.get("refiner") is not None:
                result["refined"] = segmenter.aligned_slices(
                    samples, case["refiner"]
                )
        except AttackError as exc:
            result["error"] = str(exc)
    return result


def _fastest_backend() -> str:
    from repro.backends import probe_backend

    return "native" if probe_backend("native") is not None else "reference"


#: Small NTT-friendly (q, n) pairs used by the ring oracles.  Built
#: lazily so importing the registry stays cheap.
_NTT_PAIRS: List = []


def _ntt_pairs() -> List:
    if not _NTT_PAIRS:
        from repro.ring.primes import generate_ntt_primes

        for n in (4, 8, 16, 32, 64, 128):
            for bits in (17, 23, 28):
                _NTT_PAIRS.append((generate_ntt_primes(bits, 1, n)[0], n))
    return _NTT_PAIRS


def _sample_ntt_case(rng: np.random.Generator) -> Dict[str, Any]:
    pairs = _ntt_pairs()
    modulus, n = pairs[int(rng.integers(0, len(pairs)))]
    return {
        "modulus": modulus,
        "n": n,
        "a": rng.integers(0, modulus.value, n, dtype=np.int64),
        "b": rng.integers(0, modulus.value, n, dtype=np.int64),
    }


def schoolbook_negacyclic_multiply(
    a: np.ndarray, b: np.ndarray, q: int
) -> np.ndarray:
    """O(n²) reference for multiplication modulo ``x^n + 1`` over Z_q.

    The definitional double loop with the ``x^n = -1`` wraparound; used
    as the semantic anchor the NTT pipeline is checked against.
    """
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            term = ai * int(b[j])
            k = i + j
            if k < n:
                out[k] = (out[k] + term) % q
            else:
                out[k - n] = (out[k - n] - term) % q
    return np.array(out, dtype=np.int64)


def _sample_persistence_case(rng: np.random.Generator) -> Dict[str, Any]:
    """A synthetic profiled attack: random templates, classifier, refiner."""
    from repro.attack.branch import NEGATIVE, POSITIVE, ZERO, BranchClassifier
    from repro.attack.pipeline import SingleTraceAttack
    from repro.attack.segmentation import AnchorRefiner, Segmenter, SegmenterConfig
    from repro.attack.template import TemplateSet

    config = SegmenterConfig(
        slice_before=int(rng.integers(40, 120)),
        slice_after=int(rng.integers(60, 180)),
    )
    length = config.slice_before + config.slice_after

    def spd(k: int) -> np.ndarray:
        basis = rng.normal(0.0, 1.0, (k, k))
        return basis @ basis.T + k * np.eye(k)

    def template_set(labels: List[int], k: int, priors: bool, pooled: bool):
        pois = sorted(
            int(p) for p in rng.choice(length, size=k, replace=False)
        )
        means = {label: rng.normal(0.0, 5.0, k) for label in labels}
        prior_map = None
        if priors:
            raw = rng.uniform(0.05, 1.0, len(labels))
            prior_map = {
                label: float(p / raw.sum()) for label, p in zip(labels, raw)
            }
        class_precisions = class_log_dets = None
        if not pooled:
            class_precisions = {label: spd(k) for label in labels}
            class_log_dets = {
                label: float(rng.normal(0.0, 2.0)) for label in labels
            }
        return TemplateSet(
            pois=pois,
            means=means,
            precision=spd(k),
            priors=prior_map,
            class_precisions=class_precisions,
            class_log_dets=class_log_dets,
        )

    value_labels = sorted(
        int(v)
        for v in rng.choice(np.arange(-14, 15), size=int(rng.integers(3, 9)),
                            replace=False)
    )
    attack = SingleTraceAttack(
        acquisition=None,
        segmenter=Segmenter(config),
        poi_count=int(rng.integers(4, 30)),
        poi_method=["sosd", "sost", "dom"][int(rng.integers(0, 3))],
        use_prior=bool(rng.random() < 0.5),
        sigma=float(rng.uniform(1.0, 5.0)),
        pooled_covariance=bool(rng.random() < 0.5),
        standardize=bool(rng.random() < 0.5),
    )
    attack.templates = template_set(
        value_labels,
        int(rng.integers(2, 9)),
        priors=attack.use_prior,
        pooled=attack.pooled_covariance,
    )
    branch_templates = template_set(
        [NEGATIVE, ZERO, POSITIVE], int(rng.integers(2, 6)),
        priors=False, pooled=True,
    )
    attack.branch_classifier = BranchClassifier(
        branch_templates, attack.branch_region[0], attack.branch_region[1]
    )
    before = int(rng.integers(40, 200))
    after = int(rng.integers(10, 80))
    attack.refiner = AnchorRefiner(
        rng.normal(0.0, 1.0, before + after), before=before, after=after
    )
    return {"attack": attack}


def attack_state(attack) -> Dict[str, Any]:
    """Everything ``save_attack`` persists, as one comparable structure."""
    templates = attack.templates
    branch = attack.branch_classifier.templates
    return {
        "config": {
            "segmenter": attack.segmenter.config,
            "poi_method": attack.poi_method,
            "poi_count": attack.poi_count,
            "use_prior": attack.use_prior,
            "sigma": attack.sigma,
            "branch_region": list(attack.branch_region),
            "standardize": attack.standardize,
            "pooled_covariance": attack.pooled_covariance,
        },
        "value": {
            "pois": list(templates.pois),
            "means": {int(k): v for k, v in templates.means.items()},
            "precision": templates.precision,
            "priors": templates.priors,
            "class_precisions": templates.class_precisions,
            "class_log_dets": templates.class_log_dets,
        },
        "branch": {
            "pois": list(branch.pois),
            "means": {int(k): v for k, v in branch.means.items()},
            "precision": branch.precision,
        },
        "refiner": {
            "reference": attack.refiner.reference,
            "before": attack.refiner.before,
            "after": attack.refiner.after,
        },
    }


def _persistence_roundtrip(case: Dict[str, Any]) -> Dict[str, Any]:
    from repro.attack.persistence import load_attack, save_attack

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "attack.npz"
        save_attack(case["attack"], path)
        return attack_state(load_attack(None, path))


def _sample_profile_case(rng: np.random.Generator) -> Dict[str, Any]:
    return {
        "standardize": bool(rng.random() < 0.5),
        "pooled": bool(rng.random() < 0.5),
        "num_traces": int(rng.integers(24, 40)),
        "coeffs_per_trace": 4,
        "first_seed": int(rng.integers(1, 200_000)),
    }


def _profile_with(case: Dict[str, Any], reference: bool) -> Dict[str, Any]:
    from repro.attack.pipeline import SingleTraceAttack
    from repro.power.capture import TraceAcquisition
    from repro.power.scope import Oscilloscope
    from repro.riscv.device import GaussianSamplerDevice

    bench = TraceAcquisition(
        GaussianSamplerDevice([PAPER_Q]),
        scope=Oscilloscope(noise_std=1.0),
        rng=0,
    )
    attack = SingleTraceAttack(
        bench,
        poi_count=12,
        standardize=case["standardize"],
        pooled_covariance=case["pooled"],
    )
    profile = attack.profile_reference if reference else attack.profile
    report = profile(
        num_traces=case["num_traces"],
        coeffs_per_trace=case["coeffs_per_trace"],
        first_seed=case["first_seed"],
    )
    state = attack_state(attack)
    state["report"] = {
        "slice_count": report.slice_count,
        "classes": report.classes,
        "pois": report.pois,
    }
    return state


_CAMPAIGN_ORACLE_ATTACK = None


def _campaign_oracle_attack():
    """One profiled attack shared by every campaign-oracle case (the
    profile is a pure function of this fixed configuration)."""
    global _CAMPAIGN_ORACLE_ATTACK
    if _CAMPAIGN_ORACLE_ATTACK is None:
        from repro.attack.pipeline import SingleTraceAttack
        from repro.power.capture import TraceAcquisition
        from repro.power.scope import Oscilloscope
        from repro.riscv.device import GaussianSamplerDevice

        bench = TraceAcquisition(
            GaussianSamplerDevice([PAPER_Q]),
            scope=Oscilloscope(noise_std=1.0),
            rng=0,
        )
        attack = SingleTraceAttack(bench, poi_count=12)
        attack.profile(num_traces=60, coeffs_per_trace=4, first_seed=50_000)
        _CAMPAIGN_ORACLE_ATTACK = attack
    return _CAMPAIGN_ORACLE_ATTACK


def _campaign_payload(report) -> Dict[str, Any]:
    """The deterministic part of a campaign report (timings, wall
    clock, worker counts and schedule metadata excluded by contract)."""
    return {
        "outcomes": [
            [value, sign, estimate, sorted(table.items())]
            for value, sign, estimate, table in report.outcomes
        ],
        "failures": [[seed, message] for seed, message in report.failures],
        "confusion": sorted(
            (list(pair), count) for pair, count in report.confusion.counts().items()
        ),
        "sign_accuracy": report.sign_accuracy,
        "value_accuracy": report.value_accuracy,
        "coefficients_attacked": report.coefficients_attacked,
        "traces_attacked": report.traces_attacked,
        "traces_failed": report.traces_failed,
    }


def _sample_orchestrated_case(rng: np.random.Generator) -> Dict[str, Any]:
    case = {
        "trace_count": int(rng.integers(12, 33)),
        "coeffs_per_trace": 4,
        "first_seed": int(rng.integers(1, 200_000)),
        "workers": int(rng.integers(1, 3)),
        "grain": int(rng.integers(4, 17)),
        "resume": bool(rng.random() < 0.5),
    }
    case["shard_size"] = max(4, case["grain"])
    shards = -(-case["trace_count"] // case["shard_size"])
    case["drop_shards"] = (
        [int(s) for s in np.flatnonzero(rng.random(shards) < 0.5)]
        if case["resume"]
        else []
    )
    return case


def _run_orchestrated_case(case: Dict[str, Any]) -> Dict[str, Any]:
    from repro.attack.checkpoint import CampaignCheckpoint
    from repro.attack.orchestrator import run_orchestrated

    def run(**checkpointing):
        return run_orchestrated(
            _campaign_oracle_attack(),
            case["trace_count"],
            coeffs_per_trace=case["coeffs_per_trace"],
            first_seed=case["first_seed"],
            workers=case["workers"],
            grain=case["grain"],
            **checkpointing,
        )

    if not case["resume"]:
        return _campaign_payload(run())
    # Resumed flavour: checkpoint a whole run, delete the sampled shard
    # archives, then resume.  The manifest still lists the deleted
    # shards, and resume must trust only the archives that exist, so
    # the report is identical whichever partial state it starts from
    # (no shard dropped is the pure checkpoint reload).
    with tempfile.TemporaryDirectory() as tmp:
        run(campaign_dir=tmp, shard_size=case["shard_size"])
        layout = CampaignCheckpoint.resume(tmp)
        for shard in case["drop_shards"]:
            layout.shard_path(shard).unlink()
        report = run(campaign_dir=tmp, resume=True, shard_size=case["shard_size"])
        return _campaign_payload(report)


def _run_campaign_reference(case: Dict[str, Any]) -> Dict[str, Any]:
    """The campaign payload from a plain per-seed loop over the public
    per-trace API (capture, segment, attack), folded coefficient by
    coefficient here: no grain, record, fold or aggregation code."""
    from repro.attack.branch import sign_of
    from repro.errors import AttackError

    attack = _campaign_oracle_attack()
    coeffs = case["coeffs_per_trace"]
    first = case["first_seed"]
    outcomes, failures, confusion = [], [], {}
    for seed in range(first, first + case["trace_count"]):
        (captured,) = attack.acquisition.capture_batch(1, coeffs, first_seed=seed)
        try:
            aligned = attack.segmenter.aligned_slices(
                captured.trace.samples, refiner=attack.refiner
            )
            if len(aligned) != len(captured.values):
                raise AttackError(
                    f"segmented {len(aligned)} coefficients, "
                    f"expected {len(captured.values)}"
                )
            result = attack.attack_aligned(aligned)
        except AttackError as exc:
            failures.append([seed, str(exc)])
            continue
        for value, sign, estimate, table in zip(
            captured.values, result.signs, result.estimates, result.probabilities
        ):
            outcomes.append([value, sign, estimate, sorted(table.items())])
            confusion[(value, estimate)] = confusion.get((value, estimate), 0) + 1
    total = len(outcomes)
    return {
        "outcomes": outcomes,
        "failures": failures,
        "confusion": sorted((list(pair), count) for pair, count in confusion.items()),
        "sign_accuracy": sum(sign_of(v) == s for v, s, _, _ in outcomes) / total,
        "value_accuracy": sum(v == e for v, _, e, _ in outcomes) / total,
        "coefficients_attacked": total,
        "traces_attacked": case["trace_count"] - len(failures),
        "traces_failed": len(failures),
    }


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------
register(
    Oracle(
        name="cpu.run",
        description="threaded-code RV32IM engine vs the scalar interpreter "
        "(registers, pc, cycles, EventLog, faults)",
        sample=random_program,
        fast=lambda case: _run_engine(case, "threaded"),
        reference=lambda case: _run_engine(case, "reference"),
        fuzzable=True,
        summarize=lambda case: (
            f"{len(case['source'].splitlines())} source lines, "
            f"budget {case['max_instructions']}"
        ),
    )
)

register(
    Oracle(
        name="cpu.retire_log",
        description="RVFI-style retire streams across all three engines "
        "(reference vs threaded vs compiled; honors the fuzz --engines "
        "filter)",
        sample=sample_retire_case,
        fast=_retire_fast,
        reference=_retire_reference,
        fuzzable=True,
        summarize=lambda case: (
            f"kind={case.get('kind', 'random')}, "
            f"{len(case['source'].splitlines())} source lines, "
            f"budget {case['max_instructions']}"
        ),
    )
)

register(
    Oracle(
        name="leakage.expand",
        description="vectorized leakage expansion vs the scalar per-event "
        "reference (bit-exact float64)",
        sample=_sample_leakage_case,
        fast=lambda case: case["model"].expand(case["events"]),
        reference=lambda case: case["model"].expand_reference(case["events"]),
        summarize=lambda case: f"{len(case['events'])} events",
    )
)

def _moving_average_tolerance(case: Dict[str, Any]) -> Tolerance:
    """Input-scaled envelope for the cumulative-sum sliding mean.

    The cumsum formulation subtracts two running sums whose magnitude
    can reach ``sum(|x|)``, so its rounding error is *absolute* in that
    scale — up to ``~eps * sum(|x|)`` regardless of how small the
    window mean itself is (catastrophic cancellation).  The convolve
    reference carries a comparable ``eps * window * max|x|`` bound, so
    neither side can promise a fixed 1e-9 on adversarial dynamic range
    (uncovered by Hypothesis: ``x=[3.3554431e7, 0, 1], window=2``
    diverges by 1.6e-9).  The honest comparison is therefore rtol 1e-9
    plus an absolute term scaled to the total input mass, with a
    sqrt(n) factor for error accumulation across the cumulative sum.
    """
    x = np.asarray(case["x"], dtype=np.float64)
    eps = float(np.finfo(np.float64).eps)
    scale = float(np.abs(x).sum())
    atol = max(1e-12, eps * scale * max(8.0, math.sqrt(x.size)))
    return Tolerance(rtol=1e-9, atol=atol)


register(
    Oracle(
        name="segmentation.moving_average",
        description="cumulative-sum sliding mean vs np.convolve "
        "(input-scaled cancellation envelope)",
        sample=_sample_moving_average_case,
        fast=lambda case: __import__(
            "repro.attack.segmentation", fromlist=["_moving_average"]
        )._moving_average(case["x"], case["window"]),
        reference=lambda case: __import__(
            "repro.attack.segmentation", fromlist=["_moving_average_reference"]
        )._moving_average_reference(case["x"], case["window"]),
        tolerance=_moving_average_tolerance,
        summarize=lambda case: f"n={len(case['x'])}, window={case['window']}",
    )
)


register(
    Oracle(
        name="segmentation.windows",
        description="native segment kernel vs the numpy reference path "
        "(bit-exact windows, anchors, aligned and refined slices under "
        "every refiner variant, errors)",
        sample=_sample_windows_case,
        fast=lambda case: _segment_variants(case, _fastest_backend()),
        reference=lambda case: _segment_variants(case, "reference"),
        summarize=lambda case: (
            f"{case['samples'].size} samples, "
            f"windows {case['config'].envelope_window}/{case['config'].frac_window}"
        ),
    )
)


def _ntt_fast(case: Dict[str, Any]) -> Dict[str, Any]:
    from repro.ring.ntt import get_ntt_context

    context = get_ntt_context(case["modulus"], case["n"])
    forward = context.forward(case["a"])
    return {
        "forward": forward,
        "inverse": context.inverse(case["b"]),
        "roundtrip": context.inverse(forward),
    }


def _ntt_reference(case: Dict[str, Any]) -> Dict[str, Any]:
    from repro.ring.ntt import get_ntt_context

    context = get_ntt_context(case["modulus"], case["n"])
    return {
        "forward": context.forward_reference(case["a"]),
        "inverse": context.inverse_reference(case["b"]),
        "roundtrip": case["a"],
    }


register(
    Oracle(
        name="ring.ntt",
        description="level-order vectorized NTT butterflies vs the per-group "
        "reference loops, plus inverse∘forward identity",
        sample=_sample_ntt_case,
        fast=_ntt_fast,
        reference=_ntt_reference,
        summarize=lambda case: f"q={case['modulus'].value}, n={case['n']}",
    )
)

register(
    Oracle(
        name="ring.negacyclic_multiply",
        description="NTT-domain negacyclic product vs the schoolbook O(n²) "
        "convolution",
        sample=_sample_ntt_case,
        fast=lambda case: __import__(
            "repro.ring.ntt", fromlist=["get_ntt_context"]
        ).get_ntt_context(case["modulus"], case["n"]).multiply(
            case["a"], case["b"]
        ),
        reference=lambda case: schoolbook_negacyclic_multiply(
            case["a"], case["b"], case["modulus"].value
        ),
        summarize=lambda case: f"q={case['modulus'].value}, n={case['n']}",
    )
)

register(
    Oracle(
        name="attack.persistence",
        description="profiled-attack save/load round-trip through the .npz "
        "v2 archive (bit-exact state)",
        sample=_sample_persistence_case,
        fast=_persistence_roundtrip,
        reference=lambda case: attack_state(case["attack"]),
        summarize=lambda case: (
            f"{len(case['attack'].templates.labels)} value classes, "
            f"pooled={case['attack'].pooled_covariance}"
        ),
    )
)

#: Per-class covariances are estimated from only a handful of slices,
#: so inverting them amplifies the streaming-vs-materialized last-bit
#: moment differences by the matrix condition number (uncovered by the
#: deep sweep: case seed 8 drifts ~3e-9 relative in a class precision).
#: The raw moments (means, POIs, pooled precision) stay on the tight
#: 1e-9 envelope; only the inverted per-class blocks get headroom.
_PROFILE_TOLERANCE = Tolerance(
    rtol=1e-9,
    atol=1e-12,
    overrides=(
        ("class_precisions", Tolerance(rtol=1e-5, atol=1e-9)),
        ("class_log_dets", Tolerance(rtol=1e-6, atol=1e-9)),
    ),
)

register(
    Oracle(
        name="attack.profile",
        description="streaming-moments profiling vs the materialized "
        "reference flow (1e-9 envelope, condition-number headroom on "
        "inverted per-class templates; expensive)",
        sample=_sample_profile_case,
        fast=lambda case: _profile_with(case, reference=False),
        reference=lambda case: _profile_with(case, reference=True),
        tolerance=_PROFILE_TOLERANCE,
        expensive=True,
        summarize=lambda case: (
            f"{case['num_traces']}x{case['coeffs_per_trace']} traces, "
            f"standardize={case['standardize']}, pooled={case['pooled']}"
        ),
    )
)

register(
    Oracle(
        name="campaign.orchestrated",
        description="orchestrated campaign (random workers and grain, "
        "optionally resumed from a checkpoint with sampled shard archives "
        "deleted) vs a plain per-trace loop — bit-identical deterministic "
        "report payload; expensive",
        sample=_sample_orchestrated_case,
        fast=_run_orchestrated_case,
        reference=_run_campaign_reference,
        expensive=True,
        summarize=lambda case: (
            f"{case['trace_count']}x{case['coeffs_per_trace']} traces, "
            f"workers={case['workers']}, grain={case['grain']}, "
            f"resume={case['resume']}, dropped shards={case['drop_shards']}"
        ),
    )
)

register(
    Oracle(
        name="power.noise_v2",
        description="counter-based Philox noise stream v2 vs the retained "
        "v1 sequential generator (statistical contract: matching N(0,1) "
        "marginals within 8 sigma; bit-exact determinism, offset "
        "continuation and seed-separation indicators)",
        sample=_sample_noise_v2_case,
        fast=_noise_v2_fast,
        reference=_noise_v2_reference,
        tolerance=_noise_v2_tolerance,
        summarize=lambda case: (
            f"n={case['n']}, offset={case['offset']}, "
            f"seed={case['seed']}"
        ),
    )
)

# Per-backend kernel oracles (backend.native.*): one oracle per
# (available backend, kernel group), probing the compute backends on
# import.  Registered last so the module can reuse the samplers above;
# a host without a C compiler registers nothing extra.
from repro.verify import backend_oracles as _backend_oracles  # noqa: E402,F401
