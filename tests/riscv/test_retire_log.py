"""Unit tests for the RVFI-style retire log.

The differential suite (``tests/differential/test_retire_log.py``) and
the ``cpu.retire_log`` fuzz oracle prove cross-engine bit-exactness;
this file pins the :class:`RetireLog` container contract, the per-field
RVFI semantics on hand-written programs, the trap/budget distinction,
the recording defaults (off everywhere unless asked), and the pickle
behaviour the campaign checkpoints rely on.
"""

import pickle

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.riscv.assembler import assemble
from repro.riscv.cpu import Cpu
from repro.riscv.device import GaussianSamplerDevice
from repro.riscv.memory import Memory
from repro.riscv.retire import (
    RETIRE_FIELDS,
    RetireEvent,
    RetireLog,
    is_budget_error,
    trap_row,
)

MODULI = [0xFFEE001, 0xFFC4001]


def _run(source, registers=None, max_instructions=10_000, engine="reference"):
    cpu = Cpu(Memory(size_bytes=1 << 16), record_events=True, record_retires=True)
    cpu.load_program(assemble(source).words, 0)
    for index, value in (registers or {}).items():
        cpu.write_register(index, value)
    error = None
    try:
        if engine == "threaded":
            cpu.run(max_instructions=max_instructions)
        else:
            cpu.run_reference(max_instructions=max_instructions)
    except SimulationError as exc:
        error = str(exc)
    return cpu, error


# ----------------------------------------------------------------------
# RetireLog container contract
# ----------------------------------------------------------------------
def test_retirelog_append_and_sequence_api():
    log = RetireLog(capacity=2)
    log.append(0, 4, 0x13, 1, 5, 2, 6, 3, 11, 0, 0, 0, 0, 0, 0)
    log.append(4, 8, 0x33, 3, 11, 0, 0, 4, 22, 0, 0, 0, 0, 0, 0)
    assert len(log) == 2
    first = log[0]
    assert isinstance(first, RetireEvent)
    assert first.order == 0 and first.pc_rdata == 0 and first.pc_wdata == 4
    assert log[-1].rd_wdata == 22
    assert log[0:2] == list(log)
    with pytest.raises(IndexError):
        log[2]


def test_retirelog_orders_are_implicit_row_positions():
    log = RetireLog()
    for i in range(5):
        log.append(4 * i, 4 * i + 4, 0x13, 0, 0, 0, 0, 1, i, 0, 0, 0, 0, 0, 0)
    assert list(log.column("order")) == [0, 1, 2, 3, 4]


def test_retirelog_reserve_geometric_growth():
    log = RetireLog(capacity=4)
    capacity_before = log._data.shape[0]
    log.reserve(10 * capacity_before)
    assert log._data.shape[0] >= 10 * capacity_before
    assert log._data.shape[0] % capacity_before == 0
    assert len(log) == 0


def test_retirelog_rows_columns_views_agree():
    log = RetireLog()
    log.append(0, 4, 0x93, 1, 7, 0, 0, 2, 9, 0, 0, 0, 0, 0, 0)
    assert log.rows().shape == (1, 16)
    assert log.columns().shape == (16, 1)
    assert np.array_equal(log.rows().T, log.columns())
    assert int(log.column("rd_wdata")[0]) == 9
    with pytest.raises(ValueError):
        log.column("nonsense")


def test_retirelog_append_rows_and_from_rows_round_trip():
    rows = np.arange(3 * 16, dtype=np.int64).reshape(3, 16)
    log = RetireLog.from_rows(rows)
    other = RetireLog(capacity=1)
    other.append_rows(rows[:2])
    other.append_rows(rows[2:])
    assert log == other
    assert np.array_equal(log.rows(), rows)


def test_retirelog_clear_rezeroes():
    log = RetireLog()
    log.append(0, 4, 1, 2, 3, 4, 5, 6, 7, 0, 8, 1, 0, 9, 0)
    log.clear()
    assert len(log) == 0
    assert not log._data.any()


def test_retirelog_eq_semantics():
    log = RetireLog()
    log.append(0, 4, 0x13, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0)
    clone = RetireLog.from_rows(log.rows())
    assert log == clone
    assert log == list(log)
    assert log.__eq__(42) is NotImplemented
    assert (log == 42) is False


def test_retirelog_pickle_keeps_only_rows():
    log = RetireLog(capacity=1024)
    log.append(0, 4, 0x13, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0)
    clone = pickle.loads(pickle.dumps(log))
    assert clone == log
    # the blob scales with content, not the preallocated capacity
    assert len(pickle.dumps(log)) < 1024 * 16 * 8


def test_trap_row_shape():
    row = trap_row(7, 0x24, 0xDEAD)
    assert row.shape == (16,)
    event = RetireEvent(*(int(v) for v in row))
    assert event.order == 7
    assert event.pc_rdata == event.pc_wdata == 0x24
    assert event.insn == 0xDEAD
    assert event.trap == 1
    assert event.rd_wdata == 0 and event.mem_rmask == 0


def test_is_budget_error_classification():
    assert is_budget_error("instruction budget 5 exhausted at pc=0x8")
    assert not is_budget_error("misaligned 4-byte access at 0x101")
    assert not is_budget_error("memory access at 0x200000 (+4) outside [0, 0x10000)")


# ----------------------------------------------------------------------
# Field semantics on hand-written programs
# ----------------------------------------------------------------------
def test_alu_fields_exact():
    cpu, error = _run("addi x1, x0, 5\nadd x2, x1, x1\nebreak")
    assert error is None
    addi, add, ebreak = list(cpu.retires)
    assert addi == RetireEvent(
        order=0, pc_rdata=0, pc_wdata=4, insn=assemble("addi x1, x0, 5").words[0],
        rs1_addr=0, rs1_rdata=0, rs2_addr=0, rs2_rdata=0,
        rd_addr=1, rd_wdata=5, trap=0,
        mem_addr=0, mem_rmask=0, mem_wmask=0, mem_rdata=0, mem_wdata=0,
    )
    assert add.rs1_addr == 1 and add.rs1_rdata == 5
    assert add.rs2_addr == 1 and add.rs2_rdata == 5
    assert add.rd_addr == 2 and add.rd_wdata == 10
    assert ebreak.rd_addr == 0 and ebreak.rd_wdata == 0
    assert ebreak.pc_rdata == 8 and ebreak.pc_wdata == 12  # halt advances pc


def test_x0_destination_reports_zero_wdata():
    cpu, _ = _run("addi x0, x0, 55\nebreak")
    assert cpu.retires[0].rd_addr == 0
    assert cpu.retires[0].rd_wdata == 0


def test_load_store_masks_and_data():
    cpu, error = _run(
        """
        li x5, 0x8000
        addi x1, x0, -2
        sw x1, 0(x5)
        lhu x2, 0(x5)
        lb x3, 1(x5)
        ebreak
        """
    )
    assert error is None
    by_insn = {event.insn & 0x7F: event for event in cpu.retires}
    store = by_insn[0x23]
    assert store.mem_wmask == 0xF and store.mem_rmask == 0
    assert store.mem_addr == 0x8000
    assert store.mem_wdata == 0xFFFFFFFE
    loads = [e for e in cpu.retires if e.mem_rmask]
    lhu, lb = loads
    assert lhu.mem_rmask == 0x3 and lhu.mem_rdata == 0xFFFE
    assert lhu.rd_wdata == 0xFFFE  # zero-extended load
    assert lb.mem_rmask == 0x1 and lb.mem_addr == 0x8001
    assert lb.mem_rdata == 0xFF
    assert lb.rd_wdata & 0xFFFFFFFF == 0xFFFFFFFF  # sign-extended


def test_branch_pc_chain():
    cpu, _ = _run(
        "addi x1, x0, 1\nbne x1, x0, taken\naddi x2, x0, 9\ntaken:\nebreak"
    )
    branch = cpu.retires[1]
    assert branch.pc_rdata == 4
    assert branch.pc_wdata == 12  # taken: skips the addi
    # the chain is consistent: each pc_wdata is the next pc_rdata
    rows = cpu.retires.rows()
    assert np.array_equal(rows[:-1, 2], rows[1:, 1])


def test_fault_appends_trap_row():
    cpu, error = _run("addi x1, x0, 2\nlw x2, 0(x1)\nebreak")
    assert error is not None and "misaligned" in error
    last = cpu.retires[-1]
    assert last.trap == 1
    assert last.pc_rdata == last.pc_wdata == cpu.pc
    assert last.insn == assemble("lw x2, 0(x1)").words[0]  # pc still fetchable
    assert len(cpu.retires) == 2  # the addi, then the trap


def test_unfetchable_trap_pc_reports_zero_insn():
    cpu, error = _run("addi x1, x0, 6\njalr x0, x1, 0")
    assert error is not None and "misaligned" in error
    assert cpu.retires[-1].trap == 1
    assert cpu.retires[-1].insn == 0  # pc=6 is not word-fetchable


def test_budget_exhaustion_is_not_a_trap():
    cpu, error = _run("jal x0, 0", max_instructions=9)
    assert is_budget_error(error)
    assert len(cpu.retires) == 9
    assert not cpu.retires.column("trap").any()


@pytest.mark.parametrize("engine", ["reference", "threaded"])
def test_smc_retires_patched_instruction(engine):
    patch = assemble("addi x4, x0, 77").words[0]
    low = patch & 0xFFF
    low = low - 4096 if low >= 2048 else low
    source = f"""
    lui x1, {(patch - low) >> 12 & 0xFFFFF}
    addi x1, x1, {low}
    addi x2, x0, 16
    sw x1, 0(x2)
    addi x4, x0, 55
    ebreak
    """
    cpu, error = _run(source, engine=engine)
    assert error is None
    patched = [e for e in cpu.retires if e.pc_rdata == 16]
    assert [e.insn for e in patched] == [patch]
    assert patched[0].rd_wdata == 77


# ----------------------------------------------------------------------
# Recording defaults and gating
# ----------------------------------------------------------------------
def test_record_retires_defaults_off_everywhere():
    assert Cpu(Memory()).record_retires is False
    device = GaussianSamplerDevice(MODULI)
    assert device.run(3, count=1, engine="threaded").retires is None
    assert device.run(3, count=1, engine="compiled").retires is None
    assert device.last_retires is None


def test_record_retires_requires_events():
    with pytest.raises(SimulationError, match="requires record_events"):
        Cpu(Memory(), record_events=False, record_retires=True)
    cpu = Cpu(Memory())
    with pytest.raises(SimulationError, match="requires record_events"):
        cpu.record_events = False
        cpu.record_retires = True


def test_disabling_events_also_disables_retires():
    cpu = Cpu(Memory(size_bytes=1 << 16), record_retires=True)
    cpu.load_program(assemble("addi x1, x0, 1\nebreak").words, 0)
    cpu.run_reference()
    assert len(cpu.retires) == 2
    cpu.record_events = False
    assert cpu.record_retires is False
    assert len(cpu.retires) == 0


def test_disabled_recording_does_no_retire_work():
    cpu = Cpu(Memory(size_bytes=1 << 16))
    cpu.load_program(assemble("addi x1, x0, 1\nebreak").words, 0)
    cpu.run()
    assert len(cpu.retires) == 0
    cpu2 = Cpu(Memory(size_bytes=1 << 16))
    cpu2.load_program(assemble("addi x1, x0, 1\nebreak").words, 0)
    cpu2.run_reference()
    assert len(cpu2.retires) == 0


def test_run_matches_reference_retires_on_device_kernel():
    device = GaussianSamplerDevice(MODULI)
    threaded = device.run(9, count=2, engine="threaded", record_retires=True)
    reference = device.run(9, count=2, engine="reference", record_retires=True)
    compiled = device.run(9, count=2, engine="compiled", record_retires=True)
    assert threaded.retires == reference.retires
    assert compiled.retires == reference.retires
    assert device.last_retires == [compiled.retires]


def test_field_names_are_rvfi_order():
    assert RETIRE_FIELDS == (
        "order", "pc_rdata", "pc_wdata", "insn",
        "rs1_addr", "rs1_rdata", "rs2_addr", "rs2_rdata",
        "rd_addr", "rd_wdata", "trap",
        "mem_addr", "mem_rmask", "mem_wmask", "mem_rdata", "mem_wdata",
    )


# ----------------------------------------------------------------------
# Pickle-size regression (the campaign checkpoints pickle devices)
# ----------------------------------------------------------------------
def test_device_pickle_unchanged_by_retire_runs():
    fresh = len(pickle.dumps(GaussianSamplerDevice(MODULI)))
    device = GaussianSamplerDevice(MODULI)
    device.run(5, count=2, engine="threaded", record_retires=True)
    device.run(6, count=2, engine="compiled", record_retires=True)
    assert device.last_retires and all(
        len(log) > 0 for log in device.last_retires
    )
    blob = pickle.dumps(device)
    assert len(blob) == fresh
    assert pickle.loads(blob).last_retires is None
