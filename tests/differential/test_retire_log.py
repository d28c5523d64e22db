"""Differential: RVFI-style retire streams across all three engines.

Every committed instruction must produce the identical 16-field retire
record on the scalar interpreter, the threaded-code engine and the
compiled-C engine — including the terminal trap record on faults,
the *absence* of one on budget exhaustion, and the exact instruction
word retired at a self-modified pc.  The ``cpu.retire_log`` oracle runs
all three engines per case; Hypothesis shrinks random programs, the
adversarial strategy drives the targeted hostile generators, and every
seeded failure replays via ``python -m repro.verify replay
cpu.retire_log --case-seed N`` (or sweeps via ``python -m repro.verify
fuzz cpu.retire_log``).
"""

import pytest
from hypothesis import given

from repro.backends import probe_backend, probe_error
from repro.riscv.assembler import assemble
from repro.verify.conformance import (
    ENGINE_PAIRS,
    assert_engines_match,
    compare_runs,
    first_retire_divergence,
    run_scalar_engine,
)
from repro.verify.oracles import get_oracle
from tests.differential.helpers import assert_ok
from tests.strategies import adversarial_programs, case_seeds, rv32im_programs

ORACLE = get_oracle("cpu.retire_log")

#: The fixed scenarios below run the compiled engine by name; without a
#: C toolchain they skip, as ``tests/riscv/test_compiled_engine.py`` does.
requires_compiled = pytest.mark.skipif(
    probe_backend("native") is None,
    reason=f"compiled engine unavailable: {probe_error('native')}",
)


@given(rv32im_programs())
def test_retire_streams_agree_on_random_programs(case):
    assert_ok(ORACLE.check_case(case))


@given(adversarial_programs())
def test_retire_streams_agree_on_adversarial_programs(case):
    assert_ok(ORACLE.check_case(case, case_seed=case["case_seed"]))


@given(case_seeds)
def test_retire_streams_agree_on_seeded_cases(seed):
    assert_ok(ORACLE.check_seed(seed))


# ----------------------------------------------------------------------
# Fixed hostile scenarios through the conformance harness directly
# ----------------------------------------------------------------------
def _all_engines(source, registers=None, max_instructions=10_000):
    words = assemble(source).words
    runs = [
        run_scalar_engine(
            words, registers, engine=engine, max_instructions=max_instructions
        )
        for engine in ("reference", "threaded", "compiled")
    ]
    for left in runs:
        for right in runs:
            if left is not right:
                assert_engines_match(left, right)
    return runs[0]


@requires_compiled
def test_self_loop_budget_exhaustion():
    run = _all_engines("jal x0, 0", max_instructions=13)
    assert run.error is not None and "budget" in run.error
    assert run.retires.shape[0] == 13
    assert not run.retires[:, 10].any()  # budget is a limit, not a trap


@requires_compiled
def test_fault_mid_block_trap_record():
    run = _all_engines("addi x1, x0, 101\nlw x2, 0(x1)\nebreak")
    assert run.error is not None
    assert run.retires[-1, 10] == 1  # trap flag
    assert run.retires.shape[0] == 2


@requires_compiled
def test_misaligned_jump_traps_with_zero_insn():
    run = _all_engines("addi x1, x0, 6\njalr x0, x1, 0\nebreak")
    assert run.error is not None
    assert run.retires[-1, 10] == 1
    assert run.retires[-1, 3] == 0  # pc=6 not fetchable as a word


@requires_compiled
def test_smc_patch_ahead_retires_patched_word():
    patch = assemble("addi x4, x0, 77").words[0]
    low = patch & 0xFFF
    low = low - 4096 if low >= 2048 else low
    run = _all_engines(
        f"""
        lui x1, {(patch - low) >> 12 & 0xFFFFF}
        addi x1, x1, {low}
        addi x2, x0, 20
        sw x1, 0(x2)
        addi x3, x0, 1
        addi x4, x0, 55
        ebreak
        """
    )
    assert run.error is None
    patched = run.retires[run.retires[:, 1] == 20]
    assert list(patched[:, 3]) == [patch]
    assert run.registers[4] == 77


def test_divergence_report_is_structural():
    words = assemble("addi x1, x0, 7\nebreak").words
    a = run_scalar_engine(words, engine="reference")
    b = run_scalar_engine(words, engine="threaded")
    assert first_retire_divergence(a, b) == []
    b.retires[1, 9] = 1234  # corrupt the ebreak's rd_wdata
    report = first_retire_divergence(a, b)
    assert report[0] == "retire streams diverge at order 1"
    assert any("rd_wdata" in line and "0x4d2" in line for line in report)
    assert any("ebreak" in line for line in report)
    # truncated streams name the first extra record
    b.retires = b.retires[:1]
    report = compare_runs(a, b)
    assert any("retire counts diverge" in line for line in report)


@requires_compiled
def test_oracle_reports_every_engine_pair():
    payload = ORACLE.fast(
        {"source": "addi x1, x0, 3\nebreak", "registers": {}, "max_instructions": 100}
    )
    expected = {f"{a}_vs_{b}" for a, b in ENGINE_PAIRS}
    assert set(payload["divergence"]) == expected
    assert all(value is None for value in payload["divergence"].values())
    assert payload["state"]["retire_count"] == 2
