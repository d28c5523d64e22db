"""Unit tests for the compiled (generated-C) RV32IM engine.

The conformance fuzz (``cpu.retire_log``) proves cross-engine
bit-exactness at volume; this file pins the targeted hard paths the
ISSUE names — SMC invalidation, mid-block faults, budget exhaustion at
every block offset — via the shared adversarial generators, plus the
engine's plumbing contract: device parity, graceful no-toolchain
fallback, translation-cache statistics, and the pickle behaviour
(devices never ship compiled caches across process boundaries).

The compiled engine degrades to interpreting through the threaded
engine's generated Python when no C toolchain probes, and stays
bit-identical either way — so every parity test here runs regardless;
only the tests asserting *C modules actually engaged* skip.
"""

import os
import pickle

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.riscv import compiled as compiled_mod
from repro.riscv import threaded as threaded_mod
from repro.riscv.assembler import assemble
from repro.riscv.compiled import (
    CompiledProgram,
    compiled_available,
    probe_error,
    reset_probe,
    run_compiled,
    translation_cache_stats,
)
from repro.riscv.cpu import Cpu
from repro.riscv.device import (
    ENGINES,
    GaussianSamplerDevice,
    effective_engine,
    resolve_engine,
)
from repro.riscv.memory import Memory
from repro.riscv.programs.gaussian import gaussian_sampler_source
from repro.riscv.threaded import (
    clear_translation_cache,
    translation_cache_stats as threaded_cache_stats,
)
from repro.verify import conformance

MODULI = [0xFFEE001, 0xFFC4001]

requires_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason=f"compiled engine unavailable: {probe_error()}",
)


def _match(words, registers=None, *, max_instructions=10_000, setup=None):
    """Assert the compiled engine matches the reference bit-for-bit."""
    kwargs = dict(max_instructions=max_instructions, setup=setup)
    a = conformance.run_scalar_engine(
        words, registers, engine="reference", **kwargs
    )
    b = conformance.run_scalar_engine(
        words, registers, engine="compiled", **kwargs
    )
    conformance.assert_engines_match(a, b)
    return b


# ----------------------------------------------------------------------
# Adversarial sweeps: the generators the fuzz uses, deterministically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", conformance.ADVERSARIAL_KINDS)
def test_adversarial_kind_sweep(kind):
    rng = np.random.default_rng(0xC0FFEE ^ hash(kind) % (1 << 16))
    generator = conformance._ADVERSARIAL_GENERATORS[kind]
    for _ in range(12):
        case = generator(rng)
        _match(
            assemble(case["source"]).words,
            case["registers"],
            max_instructions=case["max_instructions"],
        )


def test_budget_exhaustion_at_every_block_offset():
    """The budget raise must land on the same instruction at any offset.

    A straight-line 10-instruction block + ebreak, run under every
    budget 0..12: exhaustion hits before the block, inside it at every
    offset, exactly at its end, and not at all.
    """
    source = "\n".join(f"addi x1, x1, {i + 1}" for i in range(10)) + "\nebreak"
    words = assemble(source).words
    for budget in range(13):
        run = _match(words, max_instructions=budget)
        if budget <= 10:
            assert run.error == (
                f"instruction budget {budget} exhausted at pc={4 * budget:#x}"
            )
        else:
            assert run.error is None and run.halted


def test_mid_block_fault_unwinds_prefix():
    """A fault mid-block retires the prefix and reports the exact string."""
    source = "\n".join(
        ["addi x1, x0, 7", "addi x6, x0, 257", "lw x7, 0(x6)", "ebreak"]
    )
    run = _match(assemble(source).words)
    assert run.error == "misaligned 4-byte access at 0x101"
    assert run.instruction_count == 2  # the two addis retired
    assert run.registers[7] == 0  # the load never committed


def test_out_of_range_fault_message():
    source = "\n".join(
        ["lui x6, 512", "lw x7, 0(x6)", "ebreak"]  # 0x200000 >= 64 KiB
    )
    run = _match(assemble(source).words)
    assert run.error == "memory access at 0x200000 (+4) outside [0, 0x10000)"


def test_smc_patch_ahead_and_loop_flavors():
    """Both SMC shapes: patch-ahead in-block and patch inside a loop."""
    rng = np.random.default_rng(42)
    for _ in range(16):
        case = conformance._smc_case(rng)
        _match(
            assemble(case["source"]).words,
            case["registers"],
            max_instructions=case["max_instructions"],
        )


@requires_compiled
def test_smc_drops_compiled_module_and_recompiles_next_run():
    """An SMC hit drops the module mid-run; the next run recompiles."""
    case = {"source": None}
    rng = np.random.default_rng(7)
    while True:  # find a loop-flavor case (patch lands on a hot block)
        case = conformance._smc_case(rng)
        if "loop:" in case["source"]:
            break
    words = assemble(case["source"]).words
    program = CompiledProgram()
    cpu = Cpu(Memory(1 << 16), record_events=True)
    cpu.load_program(list(words), 0)
    run_compiled(cpu, max_instructions=10_000, program=program)
    assert cpu.halted
    assert program.module is None  # dropped by the in-run invalidation
    # Second run on the warm program: attach() recompiles at run start
    # (the compiles counter moves), then the self-patching store drops
    # the module again mid-run — with identical architectural results.
    compiles_before = translation_cache_stats()["compiles"]
    cpu2 = Cpu(Memory(1 << 16), record_events=True)
    cpu2.load_program(list(words), 0)
    run_compiled(cpu2, max_instructions=10_000, program=program)
    assert cpu2.halted
    assert translation_cache_stats()["compiles"] > compiles_before
    assert program.module is None  # this run self-modified too
    assert cpu2.registers == cpu.registers


# ----------------------------------------------------------------------
# Device plumbing
# ----------------------------------------------------------------------
def test_engine_registered():
    assert "compiled" in ENGINES
    assert ("reference", "compiled") in conformance.ENGINE_PAIRS
    assert ("threaded", "compiled") in conformance.ENGINE_PAIRS
    assert len(conformance.ENGINE_PAIRS) == 3


def test_device_parity_with_threaded():
    device = GaussianSamplerDevice(MODULI)
    a = device.run(99, 4, engine="threaded", record_retires=True)
    b = device.run(99, 4, engine="compiled", record_retires=True)
    assert a.values == b.values
    assert a.residues == b.residues
    assert a.cycle_count == b.cycle_count
    assert a.instruction_count == b.instruction_count
    assert np.array_equal(a.events.columns(), b.events.columns())
    assert np.array_equal(a.retires.columns(), b.retires.columns())


@requires_compiled
def test_device_reuses_warm_compiled_program():
    device = GaussianSamplerDevice(MODULI)
    device.run(1, 2, engine="compiled")
    program = device._compiled_program
    assert program is not None
    device.run(2, 2, engine="compiled")
    assert device._compiled_program is program


def test_device_pickle_drops_compiled_caches():
    device = GaussianSamplerDevice(MODULI)
    baseline = len(pickle.dumps(device))
    device.run(5, 4, engine="compiled", record_retires=True)
    device.run(5, 4, engine="threaded")
    blob = pickle.dumps(device)
    # Warm compiled/threaded caches must not inflate worker pickles:
    # the translated blocks and the extension module stay process-local.
    assert len(blob) < baseline + 2048
    clone = pickle.loads(blob)
    assert clone._compiled_program is None
    assert clone._block_cache == {} and clone._code_words == set()
    assert clone.last_retires is None
    # The unpickled device must still run on the compiled engine.
    run = clone.run(5, 4, engine="compiled")
    assert run.values == device.run(5, 4, engine="threaded").values


# ----------------------------------------------------------------------
# Graceful degradation (no C toolchain)
# ----------------------------------------------------------------------
def test_disable_env_forces_threaded_fallback(monkeypatch):
    monkeypatch.setenv("REVEAL_DISABLE_COMPILED", "1")
    reset_probe()
    try:
        assert not compiled_available()
        assert probe_error() == "disabled by REVEAL_DISABLE_COMPILED"
        assert effective_engine("compiled") == "threaded"
        assert "compiled" not in conformance.active_engines()
        pairs = conformance.active_engine_pairs()
        assert pairs and all("compiled" not in pair for pair in pairs)
        # device.run(engine="compiled") still works — via threaded.
        device = GaussianSamplerDevice(MODULI)
        run = device.run(3, 2, engine="compiled")
        assert len(run.values) == 2
        assert device._compiled_program is None
    finally:
        monkeypatch.delenv("REVEAL_DISABLE_COMPILED")
        reset_probe()


def test_default_engine_degrades_to_threaded_when_disabled(monkeypatch):
    monkeypatch.delenv("REVEAL_ENGINE", raising=False)
    monkeypatch.setenv("REVEAL_DISABLE_COMPILED", "1")
    reset_probe()
    try:
        assert resolve_engine(None) == "compiled"
        assert effective_engine(None) == "threaded"
        device = GaussianSamplerDevice(MODULI)
        run = device.run(3, 2)
        assert run.values == device.run(3, 2, engine="reference").values
        assert device._compiled_program is None
    finally:
        monkeypatch.delenv("REVEAL_DISABLE_COMPILED")
        reset_probe()


def test_effective_engine_passes_through_other_engines():
    assert effective_engine("threaded") == "threaded"
    assert effective_engine("interpreter") == "reference"
    assert effective_engine("reference") == "reference"


def test_engine_filter_validation():
    try:
        with pytest.raises(ValueError, match="unknown engine"):
            conformance.set_engine_filter(["reference", "warp"])
        with pytest.raises(ValueError, match="at least two"):
            conformance.set_engine_filter(["reference"])
        conformance.set_engine_filter(["reference", "threaded"])
        assert conformance.active_engines() == ("reference", "threaded")
        assert conformance.active_engine_pairs() == (("reference", "threaded"),)
    finally:
        conformance.set_engine_filter(None)


def test_run_compiled_without_module_is_pure_python(monkeypatch):
    """compile failure => interpret via threaded blocks, same results."""
    monkeypatch.setattr(
        compiled_mod,
        "_compile_module",
        lambda source: (_ for _ in ()).throw(OSError("no toolchain")),
    )
    words = assemble(
        "addi x1, x0, 9\naddi x2, x1, 33\nebreak"
    ).words
    program = CompiledProgram()
    cpu = Cpu(Memory(1 << 16), record_events=True)
    cpu.load_program(list(words), 0)
    executed = run_compiled(cpu, max_instructions=100, program=program)
    assert program.module is None
    assert "no toolchain" in program.compile_error
    assert executed == 3 and cpu.halted
    assert cpu.registers[1] == 9 and cpu.registers[2] == 42


def test_discovery_execs_no_python_block(monkeypatch):
    """Discovery translates every reachable block but compiles none of
    their Python functions: the C path never calls them."""
    calls = []

    def counting_exec(source, namespace):
        calls.append(source)
        exec(source, namespace)  # noqa: S102 - forwards the template JIT

    monkeypatch.setattr(threaded_mod, "exec", counting_exec, raising=False)
    clear_translation_cache()
    cpu = Cpu(Memory(1 << 16), record_events=True)
    cpu.load_program(list(assemble(gaussian_sampler_source()).words), 0)
    program = CompiledProgram()
    program._discover(cpu)
    assert len(program.blocks) > 10
    assert calls == []
    for block in program.blocks.values():
        assert block.run_recording == block._lazy_recording
        assert block.run_fast == block._lazy_fast


# ----------------------------------------------------------------------
# Translation-cache statistics
# ----------------------------------------------------------------------
def test_threaded_translation_cache_stats():
    clear_translation_cache()
    stats = threaded_cache_stats()
    assert stats["hits"] == stats["misses"] == stats["invalidations"] == 0
    assert stats["compile_time_s"] == 0.0 and stats["size"] == 0
    assert stats["max_size"] == 8192

    source = "addi x1, x0, 1\naddi x2, x0, 2\nebreak"
    run1 = conformance.run_scalar_engine(
        assemble(source).words, engine="threaded"
    )
    assert run1.halted
    after_first = threaded_cache_stats()
    assert after_first["misses"] >= 1 and after_first["size"] >= 1
    assert after_first["compile_time_s"] > 0.0
    run2 = conformance.run_scalar_engine(
        assemble(source).words, engine="threaded"
    )
    assert run2.halted
    after_second = threaded_cache_stats()
    assert after_second["hits"] > after_first["hits"]
    assert after_second["misses"] == after_first["misses"]

    # SMC bumps the invalidation counter through Cpu._invalidate_blocks.
    rng = np.random.default_rng(11)
    case = conformance._smc_case(rng)
    conformance.run_scalar_engine(
        assemble(case["source"]).words, engine="threaded"
    )
    assert threaded_cache_stats()["invalidations"] >= 1

    clear_translation_cache()
    assert threaded_cache_stats()["misses"] == 0


def test_compiled_translation_cache_stats():
    compiled_mod.clear_compiled_stats()
    stats = translation_cache_stats()
    assert stats["hits"] == stats["misses"] == 0
    assert stats["invalidations"] == stats["compiles"] == 0
    assert stats["max_size"] == compiled_mod.MAX_COMPILED_BLOCKS

    source = "addi x1, x0, 1\nebreak"
    run = conformance.run_scalar_engine(
        assemble(source).words, engine="compiled"
    )
    assert run.halted
    after = translation_cache_stats()
    assert after["compiles"] == 1
    assert after["hits"] >= 1  # the block dispatched (C or Python)
    assert after["compile_time_s"] > 0.0


@requires_compiled
def test_compiled_stats_count_native_dispatches_and_invalidations():
    compiled_mod.clear_compiled_stats()
    source = (
        "addi x2, x0, 3\n"
        "loop:\n"
        "addi x1, x1, 1\n"
        "addi x2, x2, -1\n"
        "bne x2, x0, loop\n"
        "ebreak"
    )
    run = conformance.run_scalar_engine(assemble(source).words, engine="compiled")
    assert run.halted and run.error is None
    stats = translation_cache_stats()
    assert stats["hits"] >= 1 and stats["size"] >= 1
    assert stats["invalidations"] == 0

    rng = np.random.default_rng(5)
    case = conformance._smc_case(rng)
    conformance.run_scalar_engine(
        assemble(case["source"]).words, engine="compiled"
    )
    assert translation_cache_stats()["invalidations"] >= 1


# ----------------------------------------------------------------------
# Probe contract
# ----------------------------------------------------------------------
def test_probe_is_cached_and_resettable():
    first = compiled_available()
    assert compiled_available() == first  # cached, no re-probe
    reset_probe()
    assert compiled_available() == first  # same answer after re-probe


@requires_compiled
def test_probe_reports_no_error_when_available():
    assert probe_error() is None
