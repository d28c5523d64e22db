"""Compiled C engine: one fixed RV32IM interpreter core in C.

The core is one C function, ``reveal_run`` in ``compiled.c`` next to
this file, that is the same for every guest program.  It is built into
the native backend's one cffi module (:mod:`repro.backends.native`),
once per machine, so a new program never costs a compile.

Each turn of the C loop fetches the word at ``pc``, decodes it, executes
it exactly as :meth:`~repro.riscv.cpu.Cpu.step_reference` does, adds
the cycle cost of its class from :data:`repro.riscv.cycles.CYCLES` and,
when events are on, writes the 8-field :class:`~repro.riscv.cpu.EventLog`
row.  The datapath follows a fixed decode → ALU → branch shape.  No
decode is cached, so a store into code is simply fetched again: self-
modifying code needs no guard.

The core returns to Python at three boundaries:

- **halt** (``ebreak``/``ecall`` retired);
- **event capacity**: the log's buffer is full; Python grows it
  (:meth:`~repro.riscv.cpu.EventLog.reserve`) and re-enters;
- **stop**: the next instruction is one the core does not retire
  itself — the budget line, a fetch or memory fault, or an undecodable
  word.  :meth:`~repro.riscv.cpu.Cpu._run_budget_tail` then steps it on
  the reference interpreter, so every ``SimulationError`` string comes
  from one place.

Exact-semantics contract: registers, pc, ``cycle_count``,
``instruction_count``, the event log, retire rows and every
``SimulationError`` string are bit-for-bit identical to the reference
interpreter; the ``cpu.retire_log`` conformance fuzz sweeps this engine
against the other two (see :mod:`repro.verify.conformance`).

The engine has no probe of its own: ``probe_backend("native")`` builds
the module and runs :func:`check_core`.  Where that probe fails (no
cffi or C compiler) the device layer runs the threaded engine instead
(:func:`repro.riscv.device.effective_engine`).
"""

from __future__ import annotations

import numpy as np

from repro.backends import probe_backend, probe_error
from repro.errors import ParameterError, SimulationError
from repro.riscv.cpu import Cpu
from repro.riscv.memory import Memory

# ----------------------------------------------------------------------
# C <-> Python protocol
#
# One int64 state array carries everything across the boundary:
#   st[0] pc            st[1] cycle_count      st[2] instruction_count
#   st[3] executed      st[4] budget           st[5] event cursor (rows)
#   st[6] event capacity (rows)                st[7] halted
#   st[8] memory size
#
# The status codes reach the C through the module's generated prelude.
# ----------------------------------------------------------------------
STATUS_HALT = 1
STATUS_STOP = 2
STATUS_EVENTS = 3


def _module():
    """The native backend's module, which carries the core."""
    backend = probe_backend("native")
    if backend is None:
        raise ParameterError(
            "the compiled engine is unavailable on this host "
            f"({probe_error('native')})"
        )
    return backend.module


# ----------------------------------------------------------------------
# The run loop
# ----------------------------------------------------------------------
def _run_loop(cpu, max_instructions: int, module) -> int:
    ffi, lib = module.ffi, module.lib
    recording = cpu._record_events
    log = cpu.events
    if recording:
        log._flush()
    memory = cpu.memory
    st = np.array(
        [cpu.pc, cpu.cycle_count, cpu.instruction_count, 0,
         max_instructions, 0, 0, cpu.halted, memory.size],
        dtype=np.int64,
    )
    regs = np.array(cpu.registers, dtype=np.uint32)
    st_p = ffi.from_buffer("int64_t[]", st)
    regs_p = ffi.from_buffer("uint32_t[]", regs)
    mem_p = ffi.from_buffer("uint8_t[]", memory._data)
    while True:
        if recording:
            st[5] = log._length
            st[6] = log._data.shape[0]
            ev = ffi.from_buffer("int64_t[]", log._data)
        else:
            ev = ffi.NULL
        status = lib.reveal_run(st_p, regs_p, mem_p, ev)
        if recording:
            log._length = int(st[5])
        if status != STATUS_EVENTS:
            break
        log.reserve(max(64, log._data.shape[0]))
    cpu.registers[:] = regs.tolist()
    cpu.pc = int(st[0])
    cpu.cycle_count = int(st[1])
    cpu.instruction_count = int(st[2])
    cpu.halted = bool(st[7])
    executed = int(st[3])
    if status == STATUS_STOP:
        return cpu._run_budget_tail(executed, max_instructions)
    return executed


def run_compiled(cpu, max_instructions: int = 10_000_000) -> int:
    """Execute on the compiled core until ``ebreak`` or budget.

    Drop-in equivalent of :meth:`~repro.riscv.cpu.Cpu.run` — same
    return value, same exceptions, bit-identical machine state.
    """
    module = _module()
    if not cpu._record_retires:
        return _run_loop(cpu, max_instructions, module)
    # Retire projection mirrors Cpu._run_retiring: park live emission,
    # then project the whole new-event segment in one pass at run end.
    cpu._record_retires = False
    try:
        executed = _run_loop(cpu, max_instructions, module)
    except SimulationError as error:
        cpu._record_retires = True
        cpu._finalize_retires([], str(error))
        raise
    cpu._record_retires = True
    cpu._finalize_retires([], None)
    return executed


def check_core(module) -> None:
    """Retire one ``ebreak`` on ``module``'s core, or raise
    :class:`SimulationError`: the native probe's end-to-end check."""
    cpu = Cpu(Memory(64), record_events=True)
    cpu.load_program([0x00100073], 0)
    executed = _run_loop(cpu, 16, module)
    if not (cpu.halted and executed == 1 and len(cpu.events) == 1):
        raise SimulationError("probe program did not halt after 1 instruction")
