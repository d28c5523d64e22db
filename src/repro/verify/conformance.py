"""Cross-engine conformance harness built on the RVFI-style retire log.

All three RV32IM engines (the scalar reference interpreter, the
threaded-code engine and the compiled-C engine) emit the same
16-column retire record per committed instruction (see
:mod:`repro.riscv.retire`).  This module is the single differential
oracle over those records:

- :func:`run_scalar_engine` executes one case on a named engine and
  captures the complete comparable state (registers, pc, counters,
  error string, event columns, retire rows) as an :class:`EngineRun`;
- :func:`first_retire_divergence` reports the *first* retire record
  where two runs disagree — retire order, disassembled instruction and
  the exact fields that differ — which is the diagnostic the fuzz
  driver and the Hypothesis suites print on failure;
- :func:`compare_runs` / :func:`assert_engines_match` extend that to
  the full machine state (the retire log dominates, but final
  registers, counters and error strings are cross-checked too);
- :func:`random_adversarial_program` generates the hostile cases the
  mostly-well-behaved :func:`repro.verify.oracles.random_program`
  sampler underweights: tight self-loops, guaranteed mid-block memory
  faults, self-modifying code, budget exhaustion inside blocks and the
  div/rem corner semantics.

The per-engine entry points deliberately mirror the ad-hoc ``_run_pair``
/ ``_solo`` helpers that used to live in ``tests/riscv/`` so those
suites can share one harness instead of three private copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.riscv.retire import RETIRE_FIELDS

#: Every engine the conformance sweeps know about, all runnable
#: through :func:`run_scalar_engine`.
ALL_ENGINES = ("reference", "threaded", "compiled")

#: Every comparable engine pairing the ``cpu.retire_log`` oracle sweeps.
ENGINE_PAIRS = (
    ("reference", "threaded"),
    ("reference", "compiled"),
    ("threaded", "compiled"),
)

#: Optional engine subset applied by :func:`active_engines`
#: (``python -m repro.verify fuzz --engines``).  None = no filter.
_ENGINE_FILTER: Optional[tuple] = None


def set_engine_filter(names: Optional[Sequence[str]]) -> None:
    """Restrict the fuzz sweeps to a subset of engines (None resets).

    Raises :class:`ValueError` on unknown names or a subset with fewer
    than two engines (no pair left to compare).
    """
    global _ENGINE_FILTER
    if names is None:
        _ENGINE_FILTER = None
        return
    subset = tuple(dict.fromkeys(names))
    unknown = [name for name in subset if name not in ALL_ENGINES]
    if unknown:
        raise ValueError(
            f"unknown engine(s) {', '.join(unknown)} (choose from "
            f"{', '.join(ALL_ENGINES)})"
        )
    if len(subset) < 2:
        raise ValueError(
            "engine filter needs at least two engines to form a pair"
        )
    _ENGINE_FILTER = subset


def active_engines() -> tuple:
    """The engines the sweeps actually run here and now.

    Applies the :func:`set_engine_filter` subset, then drops
    ``compiled`` when the native backend's probe fails (no C
    toolchain): the fuzz must stay green on machines where the engine
    legitimately degrades to threaded.
    """
    engines = _ENGINE_FILTER if _ENGINE_FILTER is not None else ALL_ENGINES
    if "compiled" in engines:
        from repro.backends import probe_backend

        if probe_backend("native") is None:
            engines = tuple(e for e in engines if e != "compiled")
    return engines


def active_engine_pairs() -> tuple:
    """The :data:`ENGINE_PAIRS` subset over :func:`active_engines`."""
    engines = set(active_engines())
    return tuple(
        pair for pair in ENGINE_PAIRS
        if pair[0] in engines and pair[1] in engines
    )


@dataclass
class EngineRun:
    """Complete comparable state of one engine execution.

    ``cpu`` keeps the live engine object for callers that need to poke
    at internals (the unit suites do); it is excluded from equality and
    from :func:`compare_runs`.
    """

    engine: str
    registers: List[int]
    pc: int
    cycle_count: int
    instruction_count: int
    halted: bool
    error: Optional[str]
    events: np.ndarray  # (8, n) event columns
    retires: np.ndarray  # (m, 16) retire rows
    cpu: Any = field(default=None, compare=False, repr=False)


def run_scalar_engine(
    words: Sequence[int],
    registers: Optional[Dict[int, int]] = None,
    *,
    engine: str = "threaded",
    max_instructions: int = 10_000,
    memory_size: int = 1 << 16,
    record_events: bool = True,
    record_retires: bool = True,
    setup: Optional[Callable[[Any, Any], None]] = None,
) -> EngineRun:
    """Run ``words`` on one scalar engine and capture its full state.

    ``setup(cpu, memory)`` runs after the program and registers are
    loaded, for cases that need extra memory contents.  Guest faults
    are captured as ``error`` (never raised); only harness misuse
    raises.
    """
    from repro.riscv.cpu import Cpu
    from repro.riscv.memory import Memory

    if engine not in ALL_ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r} (choose from "
            f"{', '.join(ALL_ENGINES)})"
        )
    memory = Memory(size_bytes=memory_size)
    cpu = Cpu(
        memory,
        record_events=record_events,
        record_retires=record_retires and record_events,
    )
    cpu.load_program(list(words), 0)
    for index, value in (registers or {}).items():
        cpu.write_register(index, value)
    if setup is not None:
        setup(cpu, memory)
    error: Optional[str] = None
    try:
        if engine == "threaded":
            cpu.run(max_instructions=max_instructions)
        elif engine == "compiled":
            from repro.riscv.compiled import run_compiled

            run_compiled(cpu, max_instructions=max_instructions)
        else:
            cpu.run_reference(max_instructions=max_instructions)
    except SimulationError as exc:
        error = str(exc)
    return EngineRun(
        engine=engine,
        registers=list(cpu.registers),
        pc=cpu.pc,
        cycle_count=cpu.cycle_count,
        instruction_count=cpu.instruction_count,
        halted=cpu.halted,
        error=error,
        events=cpu.events.columns().copy(),
        retires=cpu.retires.rows().copy(),
        cpu=cpu,
    )


# ----------------------------------------------------------------------
# Structural divergence reporting
# ----------------------------------------------------------------------
def _disassemble_word(word: int, address: int) -> str:
    from repro.riscv.disasm import format_instruction
    from repro.riscv.isa import decode

    try:
        return format_instruction(decode(word), address)
    except SimulationError:
        return f".word {word:#010x} (undecodable)"


def _describe_retire(row: np.ndarray) -> str:
    pc = int(row[1])
    if int(row[10]):
        return f"order {int(row[0])}: TRAP at pc={pc:#x}"
    return (
        f"order {int(row[0])}: pc={pc:#x} "
        f"{_disassemble_word(int(row[3]), pc)}"
    )


def first_retire_divergence(a: EngineRun, b: EngineRun) -> List[str]:
    """Describe the first retire record where two runs disagree.

    Empty list when the retire streams are identical.  Otherwise the
    report pins the retire order, the instruction as both engines saw
    it, and every RVFI field that differs — in hex, ``field:
    a-value != b-value`` — so a fuzz failure reads like a trace diff,
    not a numpy dump.
    """
    ra, rb = a.retires, b.retires
    common = min(ra.shape[0], rb.shape[0])
    for i in range(common):
        if np.array_equal(ra[i], rb[i]):
            continue
        diffs = [
            f"    {name}: {int(ra[i, j]):#x} ({a.engine}) != "
            f"{int(rb[i, j]):#x} ({b.engine})"
            for j, name in enumerate(RETIRE_FIELDS)
            if ra[i, j] != rb[i, j]
        ]
        return [
            f"retire streams diverge at order {i}",
            f"  {a.engine}: {_describe_retire(ra[i])}",
            f"  {b.engine}: {_describe_retire(rb[i])}",
            *diffs,
        ]
    if ra.shape[0] != rb.shape[0]:
        longer, run = (ra, a) if ra.shape[0] > rb.shape[0] else (rb, b)
        return [
            f"retire counts diverge: {ra.shape[0]} ({a.engine}) != "
            f"{rb.shape[0]} ({b.engine})",
            f"  first extra on {run.engine}: "
            f"{_describe_retire(longer[common])}",
        ]
    return []


def compare_runs(a: EngineRun, b: EngineRun) -> List[str]:
    """All mismatches between two runs; retire divergence reported first."""
    mismatches = first_retire_divergence(a, b)
    for name in ("pc", "cycle_count", "instruction_count", "halted", "error"):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            mismatches.append(
                f"{name}: {va!r} ({a.engine}) != {vb!r} ({b.engine})"
            )
    if a.registers != b.registers:
        bad = [
            f"x{i}={va:#x}/{vb:#x}"
            for i, (va, vb) in enumerate(zip(a.registers, b.registers))
            if va != vb
        ]
        mismatches.append(
            f"registers ({a.engine}/{b.engine}): {', '.join(bad)}"
        )
    if not np.array_equal(a.events, b.events):
        mismatches.append(
            f"event columns differ: shapes {a.events.shape} ({a.engine}) "
            f"vs {b.events.shape} ({b.engine})"
        )
    return mismatches


def assert_engines_match(a: EngineRun, b: EngineRun) -> None:
    """Raise :class:`AssertionError` with the structural diff on mismatch."""
    mismatches = compare_runs(a, b)
    if mismatches:
        raise AssertionError(
            f"{a.engine} vs {b.engine}:\n" + "\n".join(mismatches)
        )


# ----------------------------------------------------------------------
# Adversarial case generation
# ----------------------------------------------------------------------
ADVERSARIAL_KINDS = ("self_loop", "fault", "smc", "budget", "divrem")


def _lo12(value: int) -> int:
    low = value & 0xFFF
    return low - 4096 if low >= 2048 else low


def _li32(register: int, value: int) -> List[str]:
    """Load an arbitrary 32-bit constant via lui+addi."""
    value &= 0xFFFFFFFF
    low = _lo12(value)
    high = ((value - low) >> 12) & 0xFFFFF
    return [f"lui x{register}, {high}", f"addi x{register}, x{register}, {low}"]


def _self_loop_case(rng: np.random.Generator) -> Dict[str, Any]:
    """Tight self-loops and two-instruction loops under small budgets.

    The degenerate superblock: the walker immediately revisits its own
    start pc, and the budget lands either exactly on or inside the
    block.  Retire orders and pc_wdata chains must still line up.
    """
    flavor = rng.random()
    if flavor < 0.4:
        source = "jal x0, 0"
    elif flavor < 0.7:
        source = "loop:\naddi x1, x1, 1\njal x0, loop"
    else:
        source = "loop:\naddi x1, x1, 1\nbne x1, x0, loop\nebreak"
    return {
        "kind": "self_loop",
        "source": source,
        "registers": {1: int(rng.choice((0, 0xFFFFFFF0, 0xFFFFFFFF)))},
        "max_instructions": int(rng.integers(1, 25)),
    }


def _fault_case(rng: np.random.Generator) -> Dict[str, Any]:
    """A guaranteed memory fault midway through a straight-line block."""
    flavor = rng.random()
    prefix = [
        f"addi x{int(rng.integers(1, 4))}, x0, {int(rng.integers(0, 100))}"
        for _ in range(int(rng.integers(0, 4)))
    ]
    if flavor < 0.35:
        # out of range: base register points past the 64 KiB memory
        lines = prefix + _li32(6, 0x200000) + ["lw x7, 0(x6)", "ebreak"]
    elif flavor < 0.7:
        # misaligned: odd base address
        width = str(rng.choice(["sw", "sh", "lw", "lh"]))
        lines = prefix + ["addi x6, x0, 257", f"{width} x7, 0(x6)", "ebreak"]
    else:
        # misaligned jump target: jalr to pc|2 traps on the next fetch
        lines = prefix + ["addi x6, x0, 6", "jalr x0, x6, 0", "ebreak"]
    return {
        "kind": "fault",
        "source": "\n".join(lines),
        "registers": {},
        "max_instructions": 10_000,
    }


def _smc_case(rng: np.random.Generator) -> Dict[str, Any]:
    """Self-modifying code: patch an instruction, then execute it.

    The store lands on a word the walker has (or will have) translated,
    so the engines' invalidation paths must agree on exactly which
    instruction retires at the patched pc.
    """
    from repro.riscv.assembler import assemble

    marker = int(rng.integers(1, 2048))
    patch = assemble(f"addi x4, x0, {marker}").words[0]
    loop = rng.random() < 0.5
    lines = _li32(1, patch)  # words 0..1
    if loop:
        # patch inside a loop body: iteration 1 runs the original word
        # at byte 16, the store rewrites it for iterations 2..n.
        lines += [
            "addi x2, x0, 16",  # address of the addi x4 below
            "addi x3, x0, 3",
            "loop:",
            "addi x4, x0, 55",  # word 4 — patched after iteration 1
            "sw x1, 0(x2)",
            "addi x3, x3, -1",
            "bne x3, x0, loop",
            "ebreak",
        ]
    else:
        # patch-ahead: overwrite an upcoming instruction in the same
        # straight-line block before it executes.
        lines += [
            "addi x2, x0, 20",  # address of the addi x4 below
            "sw x1, 0(x2)",
            "addi x3, x0, 1",
            "addi x4, x0, 55",  # word 5 — overwritten above
            "ebreak",
        ]
    return {
        "kind": "smc",
        "source": "\n".join(lines),
        "registers": {},
        "max_instructions": 10_000,
    }


def _budget_case(rng: np.random.Generator) -> Dict[str, Any]:
    """Budget exhaustion landing at every offset inside a block."""
    body = int(rng.integers(3, 12))
    if rng.random() < 0.5:
        lines = [f"addi x1, x1, {i + 1}" for i in range(body)] + ["ebreak"]
    else:
        lines = [
            f"addi x1, x0, {body}",
            "loop:",
            "add x2, x2, x1",
            "addi x1, x1, -1",
            "bne x1, x0, loop",
            "ebreak",
        ]
    return {
        "kind": "budget",
        "source": "\n".join(lines),
        "registers": {},
        "max_instructions": int(rng.integers(1, 3 * body + 2)),
    }


def _divrem_case(rng: np.random.Generator) -> Dict[str, Any]:
    """The RV32IM division corner semantics: INT_MIN/-1 and /0."""
    corners = (0, 1, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF)
    a = int(rng.choice(corners))
    b = int(rng.choice(corners))
    lines = _li32(1, a) + _li32(2, b)
    for rd, op in zip(
        range(3, 11),
        ("div", "divu", "rem", "remu", "mul", "mulh", "mulhsu", "mulhu"),
    ):
        lines.append(f"{op} x{rd}, x1, x2")
    lines.append("ebreak")
    return {
        "kind": "divrem",
        "source": "\n".join(lines),
        "registers": {},
        "max_instructions": 10_000,
    }


_ADVERSARIAL_GENERATORS = {
    "self_loop": _self_loop_case,
    "fault": _fault_case,
    "smc": _smc_case,
    "budget": _budget_case,
    "divrem": _divrem_case,
}


def random_adversarial_program(rng: np.random.Generator) -> Dict[str, Any]:
    """One hostile case targeting the engines' hard paths.

    Dispatches uniformly over :data:`ADVERSARIAL_KINDS`; the payload
    shape matches :func:`repro.verify.oracles.random_program` (source,
    registers, max_instructions) plus a ``kind`` tag for reporting.
    """
    kind = ADVERSARIAL_KINDS[int(rng.integers(0, len(ADVERSARIAL_KINDS)))]
    return _ADVERSARIAL_GENERATORS[kind](rng)
