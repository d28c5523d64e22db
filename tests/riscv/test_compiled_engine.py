"""Unit tests for the compiled RV32IM engine (one fixed C core).

The conformance fuzz (``cpu.retire_log``) proves cross-engine
bit-exactness at volume; this file pins the targeted hard paths —
self-modifying code, mid-run faults, budget exhaustion at every offset,
illegal words — via the shared adversarial generators, plus the
engine's plumbing contract: device parity, one core module for every
program, graceful no-toolchain fallback and the pickle behaviour
(devices never ship warm caches across process boundaries).

Without a C toolchain the compiled engine is unavailable and
``effective_engine`` degrades it to threaded: the device-level tests run
either way, and the tests that drive the core directly skip.
"""

import os
import pickle

import numpy as np
import pytest

from repro.riscv import compiled as compiled_mod
from repro.riscv.assembler import assemble
from repro.riscv.compiled import (
    compiled_available,
    probe_error,
    reset_probe,
)
from repro.riscv.device import (
    ENGINES,
    GaussianSamplerDevice,
    effective_engine,
    resolve_engine,
)
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
@requires_compiled
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


@requires_compiled
def test_budget_exhaustion_at_every_block_offset():
    """The budget raise must land on the same instruction at any offset.

    Ten straight-line instructions + ebreak, run under every budget
    0..12: exhaustion hits before the first, at every offset, exactly
    at the end, and not at all.
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


@requires_compiled
def test_mid_block_fault_unwinds_prefix():
    """A fault mid-run retires the prefix and reports the exact string."""
    source = "\n".join(
        ["addi x1, x0, 7", "addi x6, x0, 257", "lw x7, 0(x6)", "ebreak"]
    )
    run = _match(assemble(source).words)
    assert run.error == "misaligned 4-byte access at 0x101"
    assert run.instruction_count == 2  # the two addis retired
    assert run.registers[7] == 0  # the load never committed


@requires_compiled
def test_out_of_range_fault_text():
    source = "\n".join(
        ["lui x6, 512", "lw x7, 0(x6)", "ebreak"]  # 0x200000 >= 64 KiB
    )
    run = _match(assemble(source).words)
    assert run.error == "memory access at 0x200000 (+4) outside [0, 0x10000)"


@requires_compiled
def test_illegal_words_and_misaligned_fetch_stop_on_the_reference():
    """Words the core does not retire get the reference's error text."""
    cases = {
        "addi x1, x0, 1\n.word 0xffffffff": "illegal instruction 0xffffffff",
        "addi x1, x0, 1\n.word 0x00200073": (
            "unsupported system instruction 0x00200073"
        ),
        "addi x1, x0, 1\n.word 0x00002063": "illegal branch funct3=2",
        "addi x1, x0, 6\njalr x0, 0(x1)\nebreak": (
            "misaligned 4-byte access at 0x6"
        ),
    }
    for source, error in cases.items():
        run = _match(assemble(source).words)
        assert run.error == error
        assert run.instruction_count >= 1


@requires_compiled
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
def test_smc_needs_no_recompile():
    """A self-patching loop runs on the one core, run after run."""
    rng = np.random.default_rng(7)
    while True:  # find a loop-flavor case (the patch lands in a hot loop)
        case = conformance._smc_case(rng)
        if "loop:" in case["source"]:
            break
    words = assemble(case["source"]).words
    core = compiled_mod._core()
    first = _match(words, case["registers"])
    second = _match(words, case["registers"])
    assert first.halted and second.registers == first.registers
    assert compiled_mod._core() is core


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
def test_one_core_module_for_every_program(tmp_path, monkeypatch):
    """Two programs and a device share one ``_reveal_cpu_*`` module."""
    monkeypatch.setenv("REVEAL_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setitem(compiled_mod._CORE, "module", None)
    _match(assemble("addi x1, x0, 9\nebreak").words)
    _match(assemble("addi x2, x0, 3\nmul x3, x2, x2\nebreak").words)
    GaussianSamplerDevice(MODULI).run(1, 2, engine="compiled")
    built = [name for name in os.listdir(tmp_path) if name.startswith("_reveal_cpu_")]
    assert len(built) == 1


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


def test_probe_failure_keeps_reason(monkeypatch):
    """A toolchain failure degrades to threaded with its reason kept."""

    def no_toolchain():
        raise OSError("no toolchain")

    monkeypatch.setattr(compiled_mod, "_core", no_toolchain)
    monkeypatch.delenv("REVEAL_DISABLE_COMPILED", raising=False)
    reset_probe()
    try:
        assert not compiled_available()
        assert probe_error() == "OSError: no toolchain"
        assert effective_engine("compiled") == "threaded"
    finally:
        monkeypatch.undo()
        reset_probe()


def test_probe_does_not_hide_unexpected_errors(monkeypatch):
    """Only toolchain failures count as "unavailable"; a bug raises."""

    def broken():
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(compiled_mod, "_core", broken)
    monkeypatch.delenv("REVEAL_DISABLE_COMPILED", raising=False)
    reset_probe()
    try:
        with pytest.raises(ZeroDivisionError):
            compiled_available()
        with pytest.raises(ZeroDivisionError):  # not cached as "unavailable"
            probe_error()
    finally:
        monkeypatch.undo()
        reset_probe()


# ----------------------------------------------------------------------
# Threaded translation-cache statistics
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
