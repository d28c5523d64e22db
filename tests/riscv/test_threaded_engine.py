"""Differential tests: threaded engine vs the scalar reference core.

The threaded engine (``repro.riscv.threaded``) must be bit-identical to
``Cpu.step_reference`` — same registers, pc, cycle count, instruction
count, EventLog contents, RVFI retire streams and error messages — on
every program, including the nasty corners: RV32IM division edge
cases, taken and not-taken branches inside superblocks, unrolled loop
iterations that fault midway, instruction budgets landing inside a
block, and self-modifying code invalidating translations.  All
comparisons go through the shared conformance harness
(:mod:`repro.verify.conformance`), the same one the ``cpu.retire_log``
fuzz oracle drives.
"""

import pickle

import pytest

from repro.errors import ParameterError, SimulationError
from repro.riscv.assembler import assemble
from repro.riscv.cpu import Cpu, EventLog
from repro.riscv import device as device_module
from repro.riscv.device import GaussianSamplerDevice, effective_engine
from repro.riscv.memory import Memory
from repro.riscv.programs.gaussian import gaussian_sampler_source
from repro.riscv.programs.uniform import ternary_sampler_source, uniform_sampler_source
from repro.riscv import threaded
from repro.riscv.threaded import (
    MAX_BLOCK_INSTRUCTIONS,
    clear_translation_cache,
    translate,
    translation_cache_size,
    translation_cache_stats,
)
from repro.verify.conformance import assert_engines_match, run_scalar_engine

MODULI = [0xFFEE001, 0xFFC4001, 0x7FE2001, 0x7F54001]

INT_MIN = 0x80000000


def _run_pair(words, max_instructions=10_000, record_events=True, setup=None):
    """Run the same program on both engines, returning both CPUs.

    A thin wrapper over the shared conformance harness
    (:mod:`repro.verify.conformance`): machine state, EventLog, error
    strings and — when events are on — the full RVFI retire streams
    must all match.  The translation cache starts empty, so every block
    of the threaded run compiles its Python function on first call.
    """
    clear_translation_cache()
    runs = [
        run_scalar_engine(
            words,
            engine=engine,
            max_instructions=max_instructions,
            memory_size=1 << 20,
            record_events=record_events,
            record_retires=record_events,
            setup=setup,
        )
        for engine in ("threaded", "reference")
    ]
    assert_engines_match(runs[0], runs[1])
    return runs[0].cpu, runs[1].cpu


def _run_pair_both_modes(words, **kwargs):
    """:func:`_run_pair` with events on, then off: each mode runs its
    own generated block function, compiled on its first call."""
    for record_events in (True, False):
        pair = _run_pair(words, record_events=record_events, **kwargs)
    return pair


def _asm(source: str):
    return assemble(source).words


# ----------------------------------------------------------------------
# Per-mnemonic conformance
# ----------------------------------------------------------------------
ALU_RR = [
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
    "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
]
OPERAND_PAIRS = [
    (5, 3),
    (0xFFFFFFF0, 7),
    (INT_MIN, 0xFFFFFFFF),  # INT_MIN / -1
    (INT_MIN, 0),  # division by zero
    (123, 0),
    (0, 0),
]


@pytest.mark.parametrize("mnemonic", ALU_RR)
@pytest.mark.parametrize("a,b", OPERAND_PAIRS)
def test_alu_rr_conformance(mnemonic, a, b):
    source = f"""
    lui x1, {a >> 12}
    addi x1, x1, {_lo12(a)}
    lui x2, {b >> 12}
    addi x2, x2, {_lo12(b)}
    {mnemonic} x3, x1, x2
    ebreak
    """
    _run_pair(_asm(source))


def _lo12(value):
    low = value & 0xFFF
    return low - 4096 if low >= 2048 else low


@pytest.mark.parametrize(
    "source",
    [
        "addi x1, x0, -7\nslti x2, x1, 3\nebreak",
        "addi x1, x0, -7\nsltiu x2, x1, 3\nebreak",
        "addi x1, x0, 0x55\nxori x2, x1, 0x0F\nori x3, x1, 0x700\nandi x4, x1, 0xF\nebreak",
        "lui x1, 0x80000\nsrai x2, x1, 4\nsrli x3, x1, 4\nslli x4, x1, 1\nebreak",
        "auipc x1, 1\nauipc x2, 0xFFFFF\nebreak",
        "lui x1, 0xFFFFF\nebreak",
    ],
)
def test_alu_imm_and_upper(source):
    _run_pair(_asm(source))


def test_div_rem_by_zero_results():
    threaded, _ = _run_pair(
        _asm(
            """
            addi x1, x0, 123
            div x2, x1, x0
            divu x3, x1, x0
            rem x4, x1, x0
            remu x5, x1, x0
            ebreak
            """
        )
    )
    assert threaded.registers[2] == 0xFFFFFFFF
    assert threaded.registers[3] == 0xFFFFFFFF
    assert threaded.registers[4] == 123
    assert threaded.registers[5] == 123


def test_div_overflow_int_min():
    threaded, _ = _run_pair(
        _asm(
            """
            lui x1, 0x80000
            addi x2, x0, -1
            div x3, x1, x2
            rem x4, x1, x2
            ebreak
            """
        )
    )
    assert threaded.registers[3] == INT_MIN
    assert threaded.registers[4] == 0


# ----------------------------------------------------------------------
# Control flow: branches (both directions), jumps, loops
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mnemonic", ["beq", "bne", "blt", "bge", "bltu", "bgeu"])
@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (0xFFFFFFFF, 1), (1, 0xFFFFFFFF)])
def test_forward_branches(mnemonic, a, b):
    # A not-taken forward branch stays inside the superblock, so a taken
    # one leaves it through a side exit.
    source = f"""
    lui x1, {a >> 12}
    addi x1, x1, {_lo12(a)}
    lui x2, {b >> 12}
    addi x2, x2, {_lo12(b)}
    {mnemonic} x1, x2, taken
    addi x3, x0, 111
    ebreak
taken:
    addi x3, x0, 222
    ebreak
    """
    _run_pair_both_modes(_asm(source))


def test_backward_branch_loop():
    # Tight backward loop: statically predicted taken, exercised both
    # ways (iterations take it, the final check falls through).
    _run_pair(
        _asm(
            """
            addi x1, x0, 10
            addi x2, x0, 0
        loop:
            addi x2, x2, 3
            addi x1, x1, -1
            bne x1, x0, loop
            ebreak
            """
        )
    )


def test_jal_jalr_linkage():
    _run_pair(
        _asm(
            """
            jal x1, sub
            addi x3, x0, 5
            ebreak
        sub:
            addi x2, x0, 9
            jalr x0, x1, 0
            """
        )
    )


def test_jalr_clears_low_bit():
    _run_pair(
        _asm(
            """
            addi x1, x0, 13
            jalr x2, x1, 0
            ebreak
            addi x3, x0, 1
            ebreak
            """
        )
    )


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def test_loads_stores_all_widths():
    _run_pair(
        _asm(
            """
            lui x1, 0x10
            addi x2, x0, -2
            sw x2, 0(x1)
            lw x3, 0(x1)
            lh x4, 0(x1)
            lhu x5, 0(x1)
            lb x6, 1(x1)
            lbu x7, 1(x1)
            sh x2, 8(x1)
            sb x2, 12(x1)
            lw x8, 8(x1)
            lw x9, 12(x1)
            ebreak
            """
        )
    )


def test_memory_fault_mid_block():
    # The faulting store commits the prefix of the block exactly.
    _run_pair_both_modes(
        _asm(
            """
            addi x1, x0, 100
            addi x2, x0, 3
            sw x2, 3(x1)
            ebreak
            """
        )
    )


def test_fault_in_unrolled_iteration():
    # A loop small enough to unroll whose load faults on a *later*
    # unrolled iteration: the partial-commit bookkeeping must match the
    # reference instruction-by-instruction.
    _run_pair_both_modes(
        _asm(
            """
            lui x6, 0x100
            addi x6, x6, -16
        loop:
            addi x6, x6, 4
            lw x7, 0(x6)
            jal x0, loop
            """
        ),
        max_instructions=100,
    )


def test_misaligned_store_fault():
    _run_pair(
        _asm(
            """
            addi x1, x0, 2
            sw x1, 0(x1)
            ebreak
            """
        )
    )


# ----------------------------------------------------------------------
# Instruction budget: block-granularity check, exact semantics
# ----------------------------------------------------------------------
def test_budget_sweep_straight_line():
    words = _asm("addi x1, x0, 1\n" * 12 + "ebreak")
    for budget in range(0, 15):
        _run_pair(words, max_instructions=budget)


def test_budget_sweep_loop():
    words = _asm(
        """
        addi x1, x0, 5
    loop:
        addi x1, x1, -1
        bne x1, x0, loop
        ebreak
        """
    )
    for budget in range(0, 14):
        _run_pair(words, max_instructions=budget)


def test_budget_jal_self_loop():
    words = _asm("jal x0, 0")
    for budget in (1, 5, 100):
        _run_pair(words, max_instructions=budget)
    with pytest.raises(SimulationError, match="instruction budget"):
        memory = Memory()
        cpu = Cpu(memory)
        cpu.load_program(words, 0)
        cpu.run(max_instructions=50)


def test_budget_error_message_exact():
    memory = Memory()
    cpu = Cpu(memory)
    cpu.load_program(_asm("addi x1, x0, 1\njal x0, 0"), 0)
    with pytest.raises(SimulationError) as err:
        cpu.run(max_instructions=3)
    assert str(err.value) == f"instruction budget 3 exhausted at pc={cpu.pc:#x}"


# ----------------------------------------------------------------------
# Self-modifying code
# ----------------------------------------------------------------------
def test_self_modifying_code_invalidates_blocks():
    # The program overwrites an instruction (addi x4, x0, 55) with
    # addi x4, x0, 77; the guard must invalidate translations so the
    # patched word executes.
    patch = assemble("addi x4, x0, 77").words[0]
    for body in (
        # patch ahead, inside the block that is running
        ["addi x2, x0, 20", "sw x1, 0(x2)", "addi x3, x0, 1",
         "addi x4, x0, 55", "ebreak"],
        # patch a loop body after its first iteration
        ["addi x2, x0, 16", "addi x3, x0, 3", "loop:", "addi x4, x0, 55",
         "sw x1, 0(x2)", "addi x3, x3, -1", "bne x3, x0, loop", "ebreak"],
    ):
        source = "\n".join(
            [f"lui x1, {patch >> 12}", f"addi x1, x1, {_lo12(patch)}"] + body
        )
        threaded, reference = _run_pair_both_modes(_asm(source))
        assert threaded.registers[4] == 77
        assert reference.registers[4] == 77


def test_smc_reexecution_uses_patched_code():
    # Run the patch loop twice (second entry via warm cache) to make
    # sure invalidation also clears the device-level shared cache.
    device = GaussianSamplerDevice(MODULI)
    first = device.run(seed=11, count=2, engine="threaded")
    second = device.run(seed=11, count=2, engine="threaded")
    assert first.values == second.values
    assert first.events == second.events


# ----------------------------------------------------------------------
# Lazy bytecode compilation: each generated block function is exec'd on
# its first call (every _run_pair case above starts from a cold cache).
# ----------------------------------------------------------------------
def test_lazy_block_execs_once_and_rebinds_its_slot(monkeypatch):
    calls = []

    def counting_exec(source, namespace):
        calls.append(source)
        exec(source, namespace)  # noqa: S102 - forwards the template JIT

    monkeypatch.setattr(threaded, "exec", counting_exec, raising=False)
    clear_translation_cache()
    cpu = Cpu(Memory(), record_events=False)
    cpu.load_program(_asm("addi x1, x0, 3\naddi x2, x1, 4\nebreak"), 0)
    block = translate(cpu.memory, 0)
    assert calls == []  # translation writes source, compiles nothing
    assert block.run_fast == block._lazy_fast
    generated = translation_cache_stats()["compile_time_s"]

    assert block.run_fast(cpu, cpu.registers, cpu.memory) == 3
    assert len(calls) == 1 and cpu.halted and cpu.registers[2] == 7
    assert block.run_fast.__name__ == "_bb"  # the stub replaced itself
    assert block.run_recording == block._lazy_recording  # still pending
    # The deferred exec is compile time too.
    assert translation_cache_stats()["compile_time_s"] > generated

    cpu.load_program(_asm("addi x1, x0, 3\naddi x2, x1, 4\nebreak"), 0)
    block.run_fast(cpu, cpu.registers, cpu.memory)
    assert len(calls) == 1


# ----------------------------------------------------------------------
# Full kernels: bit-identical end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "source_fn",
    [gaussian_sampler_source, uniform_sampler_source, ternary_sampler_source],
)
@pytest.mark.parametrize("record_events", [True, False])
def test_kernels_bit_identical(source_fn, record_events):
    program = assemble(source_fn())
    def setup(cpu, memory):
        for j, m in enumerate(MODULI):
            memory.store_word(0x4000 + 4 * j, m)
        cpu.write_register(10, 0x5000)
        cpu.write_register(11, 4)
        cpu.write_register(12, len(MODULI))
        cpu.write_register(13, 0x4000)
        cpu.write_register(14, 0xC0FFEE)
        cpu.write_register(15, 41)
    _run_pair(
        program.words,
        max_instructions=200_000,
        record_events=record_events,
        setup=setup,
    )


@pytest.mark.parametrize("engine", ["threaded", "reference"])
@pytest.mark.parametrize("seed", [1, 77, 4242])
def test_device_engine_parity(engine, seed):
    device = GaussianSamplerDevice(MODULI)
    run = device.run(seed, count=3, engine=engine)
    other = device.run(seed, count=3, engine="reference")
    assert run.values == other.values
    assert run.residues == other.residues
    assert run.cycle_count == other.cycle_count
    assert run.instruction_count == other.instruction_count
    assert run.events == other.events


def test_device_rejects_unknown_engine():
    device = GaussianSamplerDevice(MODULI)
    for name in ("turbo", "warp", "lanes", "interpreter"):
        with pytest.raises(ParameterError, match="unknown engine"):
            device.run(1, count=1, engine=name)


def test_resolve_engine_env_default(monkeypatch):
    """``engine=None`` runs :func:`effective_engine` whatever the
    environment holds: no variable chooses the engine, so a stale or
    bad ``REVEAL_ENGINE`` neither switches it nor raises."""
    ran = []
    real = device_module.run_engine

    def run_engine(cpu, engine, max_instructions):
        ran.append(engine)
        return real(cpu, engine, max_instructions)

    monkeypatch.setattr(device_module, "run_engine", run_engine)
    device = GaussianSamplerDevice(MODULI)
    monkeypatch.delenv("REVEAL_ENGINE", raising=False)
    expected = device.run(5, count=4)
    for value in ("reference", "threaded", "warp"):
        monkeypatch.setenv("REVEAL_ENGINE", value)
        result = device.run(5, count=4)
        assert result.values == expected.values
        assert result.events == expected.events
        assert result.cycle_count == expected.cycle_count
    assert ran == [effective_engine()] * 4


def test_warm_cache_second_run_identical():
    device = GaussianSamplerDevice(MODULI)
    cold = device.run(5, count=4, engine="threaded")
    assert translation_cache_size() >= 0  # process-level cache exists
    warm = device.run(5, count=4, engine="threaded")
    assert cold.values == warm.values
    assert cold.events == warm.events
    assert cold.cycle_count == warm.cycle_count


def test_translation_cache_clear():
    device = GaussianSamplerDevice(MODULI)
    device.run(3, count=1, engine="threaded")
    clear_translation_cache()
    assert translation_cache_size() == 0
    rerun = device.run(3, count=1, engine="threaded")
    reference = device.run(3, count=1, engine="reference")
    assert rerun.events == reference.events


def test_block_length_cap():
    # A straight-line run longer than any block: correctness across the
    # forced block split at MAX_BLOCK_INSTRUCTIONS.
    body = "addi x1, x1, 1\n" * (3 * MAX_BLOCK_INSTRUCTIONS + 5)
    threaded, _ = _run_pair(_asm(body + "ebreak"))
    assert threaded.registers[1] == 3 * MAX_BLOCK_INSTRUCTIONS + 5


# ----------------------------------------------------------------------
# EventLog API
# ----------------------------------------------------------------------
def test_eventlog_reserve_growth():
    log = EventLog(capacity=4)
    log.reserve(3)
    capacity_before = log._data.shape[0]
    log.reserve(10 * capacity_before)
    assert log._data.shape[0] >= 10 * capacity_before
    # doubled-buffer growth: capacity stays a power-of-two multiple
    assert log._data.shape[0] % capacity_before == 0
    assert len(log) == 0


def test_eventlog_eq_not_implemented_for_generic_iterables():
    log = EventLog()
    log.append(op_class=1, word=2, rs1_value=3, rs2_value=4, result=5,
               old_rd=6, address=7, pc=8)
    assert log.__eq__(42) is NotImplemented
    assert log.__eq__("nope") is NotImplemented
    assert (log == 42) is False
    assert (log != 42) is True


def test_eventlog_pickle_roundtrip_after_threaded_run():
    device = GaussianSamplerDevice(MODULI)
    run = device.run(9, count=2, engine="threaded")
    clone = pickle.loads(pickle.dumps(run.events))
    assert clone == run.events
