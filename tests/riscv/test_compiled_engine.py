"""Unit tests for the compiled RV32IM engine (one fixed C core).

The conformance fuzz (``cpu.retire_log``) proves cross-engine
bit-exactness at volume; this file pins the targeted hard paths —
self-modifying code, mid-run faults, budget exhaustion at every offset,
illegal words — via the shared adversarial generators, plus the
engine's plumbing contract: device parity, one core module for every
program, graceful no-toolchain fallback and the pickle behaviour
(devices never ship warm caches across process boundaries).

The core lives in the native backend's module.  Without a C toolchain
``probe_backend("native")`` fails and ``effective_engine`` degrades the
compiled engine to threaded: the device-level tests run either way, and
the tests that drive the core directly skip.
"""

import os
import pickle

import numpy as np
import pytest

from repro import backends
from repro.backends import probe_backend, probe_error
from repro.errors import ParameterError
from repro.riscv import compiled as compiled_mod
from repro.riscv import Cpu, Memory
from repro.riscv.assembler import assemble
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
    probe_backend("native") is None,
    reason=f"compiled engine unavailable: {probe_error('native')}",
)


def _no_toolchain():
    """A native factory failing as a missing compiler does."""
    raise OSError("no toolchain")


def _reprobe_native(monkeypatch, factory):
    """Forget the native probe and the active backend selection, and
    build the native backend with ``factory`` next time."""
    monkeypatch.setitem(backends._FACTORIES, "native", factory)
    for name in ("_PROBED", "_PROBE_ERRORS"):
        kept = {k: v for k, v in getattr(backends, name).items() if k != "native"}
        monkeypatch.setattr(backends, name, kept)
    monkeypatch.setattr(backends, "_ACTIVE", None)


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
    core = probe_backend("native").module
    first = _match(words, case["registers"])
    second = _match(words, case["registers"])
    assert first.halted and second.registers == first.registers
    assert probe_backend("native").module is core


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
    """Two programs, a device and the backend kernels share one module:
    a cold cache holds exactly one file afterwards."""
    monkeypatch.setenv("REVEAL_NATIVE_CACHE", str(tmp_path))
    _reprobe_native(monkeypatch, backends._FACTORIES["native"])
    _match(assemble("addi x1, x0, 9\nebreak").words)
    _match(assemble("addi x2, x0, 3\nmul x3, x2, x2\nebreak").words)
    GaussianSamplerDevice(MODULI).run(1, 2, engine="compiled")
    assert backends.get_kernel("ntt_forward") is not None
    (built,) = os.listdir(tmp_path)
    assert built.startswith("_reveal_native_")


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
# Graceful degradation (no C toolchain: the native probe fails)
# ----------------------------------------------------------------------
def test_failed_native_probe_forces_threaded_fallback(monkeypatch):
    _reprobe_native(monkeypatch, _no_toolchain)
    assert effective_engine("compiled") == "threaded"
    assert "compiled" not in conformance.active_engines()
    pairs = conformance.active_engine_pairs()
    assert pairs and all("compiled" not in pair for pair in pairs)
    # device.run(engine="compiled") still works — via threaded.
    device = GaussianSamplerDevice(MODULI)
    run = device.run(3, 2, engine="compiled")
    assert len(run.values) == 2


def test_default_engine_degrades_to_threaded_when_disabled(monkeypatch):
    monkeypatch.delenv("REVEAL_ENGINE", raising=False)
    _reprobe_native(monkeypatch, _no_toolchain)
    assert resolve_engine(None) == "compiled"
    assert effective_engine(None) == "threaded"
    device = GaussianSamplerDevice(MODULI)
    run = device.run(3, 2)
    assert run.values == device.run(3, 2, engine="reference").values


def test_pinned_reference_backend_keeps_the_compiled_engine():
    """The engine reads the probe, not the temporary backend selection."""
    expected = "threaded" if probe_backend("native") is None else "compiled"
    with backends.use_backend("reference"):
        assert effective_engine("compiled") == expected


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
    _reprobe_native(monkeypatch, _no_toolchain)
    assert probe_backend("native") is None
    assert probe_error("native") == "OSError: no toolchain"
    assert effective_engine("compiled") == "threaded"
    with pytest.raises(ParameterError, match="no toolchain"):
        compiled_mod.run_compiled(Cpu(Memory(64)))


def test_probe_does_not_hide_unexpected_errors(monkeypatch):
    """Only toolchain failures count as "unavailable"; a bug raises."""

    def broken():
        raise ZeroDivisionError("bug")

    _reprobe_native(monkeypatch, broken)
    with pytest.raises(ZeroDivisionError):
        probe_backend("native")
    assert "native" not in backends._PROBED  # not cached as "unavailable"
    assert probe_error("native") is None
    with pytest.raises(ZeroDivisionError):
        effective_engine("compiled")


@requires_compiled
def test_core_that_does_not_retire_ebreak_fails_the_probe(monkeypatch):
    """The probe's end-to-end check: one ``ebreak`` must retire in C."""
    _reprobe_native(monkeypatch, backends._FACTORIES["native"])
    monkeypatch.setattr(compiled_mod, "_run_loop", lambda cpu, budget, module: 0)
    assert probe_backend("native") is None
    assert probe_error("native") == (
        "SimulationError: probe program did not halt after 1 instruction"
    )
    assert effective_engine("compiled") == "threaded"


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
def test_probe_is_cached_and_resettable(monkeypatch):
    first = probe_backend("native")
    assert probe_backend("native") is first  # cached, no re-probe
    _reprobe_native(monkeypatch, backends._FACTORIES["native"])
    again = probe_backend("native")
    assert (again is None) == (first is None)  # same answer after re-probe


@requires_compiled
def test_probe_reports_no_error_when_available():
    assert probe_error("native") is None


class TestEventLogReservation:
    """A device reserves each run's event log once, sized from the
    largest events per coefficient it has seen, instead of doubling the
    buffer (each doubling holds the old and the new buffer at once)."""

    COUNT = 256

    def test_reserved_log_is_bit_identical(self):
        device = GaussianSamplerDevice(MODULI)
        first = device.run(5, self.COUNT).events.columns().copy()
        assert device._events_per_coeff > 0
        again = device.run(5, self.COUNT).events.columns()
        np.testing.assert_array_equal(again, first)
        fresh = GaussianSamplerDevice(MODULI).run(5, self.COUNT)
        np.testing.assert_array_equal(fresh.events.columns(), first)

    def test_underestimate_still_grows(self):
        device = GaussianSamplerDevice(MODULI)
        device.run(5, 4)
        device._events_per_coeff = 1  # far too small: the log must grow
        run = device.run(9, self.COUNT)
        expected = GaussianSamplerDevice(MODULI).run(9, self.COUNT)
        np.testing.assert_array_equal(
            run.events.columns(), expected.events.columns()
        )

    @requires_compiled
    def test_second_run_peak_stays_near_log_size(self):
        import tracemalloc

        device = GaussianSamplerDevice(MODULI)
        device.run(5, self.COUNT, engine="compiled")
        tracemalloc.start()
        try:
            run = device.run(7, self.COUNT, engine="compiled")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        log_bytes = len(run.events) * run.events.columns().shape[0] * 8
        assert peak < 1.3 * log_bytes
