"""Compiled C engine: one fixed RV32IM interpreter core in C.

The core is a single C function, ``_SOURCE_TEMPLATE``, that is the same for
every guest program.  It is built once per machine through
:func:`repro.backends.native.build_extension` (cffi API mode, disk-cached
in ``$REVEAL_NATIVE_CACHE`` under a ``_reveal_cpu_<digest>`` name keyed
by the SHA of its flags, cdef and source), so a new program never costs
a compile.

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

Where the core cannot be built (no cffi or C compiler),
:func:`compiled_available` records the reason and the device layer
falls back to the threaded engine
(:func:`repro.riscv.device.effective_engine`).
``REVEAL_DISABLE_COMPILED=1`` forces that path for testing.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import SimulationError
from repro.riscv import cycles as cy

#: gcc flags for the ``_reveal_cpu_*`` module, part of its digest.  The
#: core is integer-only, so the optimisation level cannot change a result.
_CFLAGS = ("-O2", "-ffp-contract=off")

# ----------------------------------------------------------------------
# C <-> Python protocol
#
# One int64 state array carries everything across the boundary:
#   st[0] pc            st[1] cycle_count      st[2] instruction_count
#   st[3] executed      st[4] budget           st[5] event cursor (rows)
#   st[6] event capacity (rows)                st[7] halted
#   st[8] memory size
# ----------------------------------------------------------------------
STATUS_HALT = 1
STATUS_STOP = 2
STATUS_EVENTS = 3

_CDEF = "int reveal_run(int64_t *st, uint32_t *R, uint8_t *mem, int64_t *ev);"

# The op-class ids, their cycle costs and the status codes are spliced
# in (@TOKENS@ below), so the source hash — and the cached module name —
# changes with the cost model.
_SOURCE_TEMPLATE = r"""
#include <stdint.h>
#include <string.h>
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the compiled RV32IM engine requires a little-endian host"
#endif

static const int64_t cycles_of[] = {@CYCLES@};

/* Sign-extended immediates of the I, S, B and J formats. */
#define IMM_I(w) ((uint32_t)((int32_t)(w) >> 20))
#define IMM_S(w) ((uint32_t)((int32_t)((w) & 0xFE000000u) >> 20) \
                  | (((w) >> 7) & 0x1Fu))
#define IMM_B(w) ((uint32_t)((int32_t)((w) & 0x80000000u) >> 19) \
                  | (((w) & 0x80u) << 4) | (((w) >> 20) & 0x7E0u) \
                  | (((w) >> 7) & 0x1Eu))
#define IMM_J(w) ((uint32_t)((int32_t)((w) & 0x80000000u) >> 11) \
                  | ((w) & 0xFF000u) | (((w) >> 9) & 0x800u) \
                  | (((w) >> 20) & 0x7FEu))

/* Run until halt, a full event buffer, or an instruction this core does
   not retire itself (budget line, fault, undecodable word).  Nothing of
   that last instruction is committed. */
int reveal_run(int64_t *st, uint32_t *R, uint8_t *mem, int64_t *ev)
{
    uint64_t pc = (uint64_t)st[0];
    int64_t cycles = st[1], icount = st[2], executed = st[3];
    const int64_t budget = st[4], cap = st[6];
    int64_t el = st[5];
    const uint64_t msz = (uint64_t)st[8];
    /* A fetch must end inside memory and leave pc + 4 below 2^32. */
    const uint64_t fetch_end = msz < 0xFFFFFFFFu ? msz : 0xFFFFFFFFu;
    int status;

    if (st[7])
        return @STATUS_HALT@;
    for (;;) {
        if (executed >= budget || (pc & 3u) || pc + 4u > fetch_end) {
            status = @STATUS_STOP@;
            break;
        }
        if (ev && el >= cap) {
            status = @STATUS_EVENTS@;
            break;
        }
        /* decode */
        uint32_t w;
        memcpy(&w, mem + pc, 4);
        const uint32_t rd = (w >> 7) & 31u, f3 = (w >> 12) & 7u;
        const uint32_t rs1 = (w >> 15) & 31u, rs2 = (w >> 20) & 31u;
        const uint32_t f7 = w >> 25;
        const uint32_t a = R[rs1], b = R[rs2];
        /* Event operands, destination, result, address, op class. */
        uint32_t ea = a, eb = 0, dst = rd, res = 0, addr = 0;
        uint64_t npc = pc + 4u;
        int op = @OP_ALU@;

        switch (w & 0x7Fu) {
        case 0x37: /* lui */
            ea = 0;
            res = w & 0xFFFFF000u;
            break;
        case 0x17: /* auipc */
            ea = 0;
            res = (uint32_t)pc + (w & 0xFFFFF000u);
            break;
        case 0x6F: /* jal */
            ea = 0;
            res = (uint32_t)npc;
            npc = (uint32_t)pc + IMM_J(w);
            op = @OP_JUMP@;
            break;
        case 0x67: /* jalr */
            if (f3) goto stop;
            res = (uint32_t)npc;
            npc = (a + IMM_I(w)) & 0xFFFFFFFEu;
            op = @OP_JUMP@;
            break;
        case 0x73: /* ebreak / ecall */
            if (w != 0x00100073u && w != 0x00000073u) goto stop;
            ea = 0;
            dst = 0;
            op = @OP_SYSTEM@;
            break;
        case 0x63: { /* branch */
            int taken;
            switch (f3) {
            case 0: taken = a == b; break;
            case 1: taken = a != b; break;
            case 4: taken = (int32_t)a < (int32_t)b; break;
            case 5: taken = (int32_t)a >= (int32_t)b; break;
            case 6: taken = a < b; break;
            case 7: taken = a >= b; break;
            default: goto stop;
            }
            eb = b;
            dst = 0;
            if (taken) {
                npc = (uint32_t)pc + IMM_B(w);
                op = @OP_BRANCH_TAKEN@;
            } else {
                op = @OP_BRANCH_NOT_TAKEN@;
            }
            res = (uint32_t)npc;
            break;
        }
        case 0x03: { /* load */
            static const uint32_t widths[8] = {1, 2, 4, 0, 1, 2, 0, 0};
            const uint32_t width = widths[f3];
            addr = a + IMM_I(w);
            if (!width || (uint64_t)addr + width > msz || (addr & (width - 1u)))
                goto stop;
            switch (f3) {
            case 0: res = (uint32_t)(int32_t)(int8_t)mem[addr]; break;
            case 1: { int16_t h; memcpy(&h, mem + addr, 2);
                      res = (uint32_t)(int32_t)h; break; }
            case 2: memcpy(&res, mem + addr, 4); break;
            case 4: res = mem[addr]; break;
            default: { uint16_t h; memcpy(&h, mem + addr, 2);
                       res = h; break; }
            }
            op = @OP_LOAD@;
            break;
        }
        case 0x23: { /* store */
            if (f3 > 2) goto stop;
            const uint32_t width = 1u << f3;
            addr = a + IMM_S(w);
            if ((uint64_t)addr + width > msz || (addr & (width - 1u)))
                goto stop;
            if (f3 == 0) {
                mem[addr] = (uint8_t)b;
                res = b & 0xFFu;
            } else if (f3 == 1) {
                const uint16_t h = (uint16_t)b;
                memcpy(mem + addr, &h, 2);
                res = b & 0xFFFFu;
            } else {
                memcpy(mem + addr, &b, 4);
                res = b;
            }
            eb = b;
            dst = 0;
            op = @OP_STORE@;
            break;
        }
        case 0x13: { /* ALU immediate */
            const uint32_t imm = IMM_I(w);
            switch (f3) {
            case 0: res = a + imm; break;
            case 1: if (f7) goto stop; res = a << rs2; break;
            case 2: res = (int32_t)a < (int32_t)imm; break;
            case 3: res = a < imm; break;
            case 4: res = a ^ imm; break;
            case 5:
                if (f7 == 0x00) res = a >> rs2;
                else if (f7 == 0x20) res = (uint32_t)((int32_t)a >> rs2);
                else goto stop;
                break;
            case 6: res = a | imm; break;
            default: res = a & imm; break;
            }
            break;
        }
        case 0x33: /* ALU register */
            eb = b;
            if (f7 == 0x00) {
                switch (f3) {
                case 0: res = a + b; break;
                case 1: res = a << (b & 31u); break;
                case 2: res = (int32_t)a < (int32_t)b; break;
                case 3: res = a < b; break;
                case 4: res = a ^ b; break;
                case 5: res = a >> (b & 31u); break;
                case 6: res = a | b; break;
                default: res = a & b; break;
                }
            } else if (f7 == 0x20 && f3 == 0) {
                res = a - b;
            } else if (f7 == 0x20 && f3 == 5) {
                res = (uint32_t)((int32_t)a >> (b & 31u));
            } else if (f7 == 0x01) {
                const int32_t sa = (int32_t)a, sb = (int32_t)b;
                op = f3 < 4 ? @OP_MUL@ : @OP_DIV@;
                switch (f3) {
                case 0: res = a * b; break;
                case 1: res = (uint32_t)(((int64_t)sa * sb) >> 32); break;
                case 2: res = (uint32_t)(((int64_t)sa * (int64_t)b) >> 32); break;
                case 3: res = (uint32_t)(((uint64_t)a * b) >> 32); break;
                case 4:
                    if (sb == 0) res = 0xFFFFFFFFu;
                    else if (a == 0x80000000u && sb == -1) res = a;
                    else res = (uint32_t)(sa / sb);
                    break;
                case 5: res = b ? a / b : 0xFFFFFFFFu; break;
                case 6:
                    if (sb == 0) res = a;
                    else if (a == 0x80000000u && sb == -1) res = 0;
                    else res = (uint32_t)(sa % sb);
                    break;
                default: res = b ? a % b : a; break;
                }
            } else {
                goto stop;
            }
            break;
        default:
            goto stop;
        }

        /* retire */
        if (ev) {
            int64_t *e = ev + el * 8;
            e[0] = op; e[1] = w; e[2] = ea; e[3] = eb;
            e[4] = res; e[5] = R[dst]; e[6] = addr; e[7] = (int64_t)pc;
            el++;
        }
        if (dst)
            R[dst] = res;
        cycles += cycles_of[op];
        icount++;
        executed++;
        pc = npc;
        if (op == @OP_SYSTEM@) {
            st[7] = 1;
            status = @STATUS_HALT@;
            break;
        }
        continue;
    stop:
        status = @STATUS_STOP@;
        break;
    }
    st[0] = (int64_t)pc;
    st[1] = cycles;
    st[2] = icount;
    st[3] = executed;
    st[5] = el;
    return status;
}
"""


def _c_source() -> str:
    source = _SOURCE_TEMPLATE.replace(
        "@CYCLES@", ", ".join(str(cy.CYCLES[op]) for op in range(len(cy.CYCLES)))
    )
    for name in (
        "OP_ALU", "OP_MUL", "OP_DIV", "OP_LOAD", "OP_STORE",
        "OP_BRANCH_NOT_TAKEN", "OP_BRANCH_TAKEN", "OP_JUMP", "OP_SYSTEM",
    ):
        source = source.replace(f"@{name}@", str(getattr(cy, name)))
    for name in ("STATUS_HALT", "STATUS_STOP", "STATUS_EVENTS"):
        source = source.replace(f"@{name}@", str(globals()[name]))
    return source


_CORE: Dict[str, Any] = {"module": None}


def _core():
    """The loaded core extension, built on first use in this process."""
    module = _CORE["module"]
    if module is None:
        from repro.backends.native import build_extension

        source = _c_source()
        digest = hashlib.sha256(
            (" ".join(_CFLAGS) + _CDEF + source).encode()
        ).hexdigest()[:12]
        module = build_extension(f"_reveal_cpu_{digest}", _CDEF, source, _CFLAGS)
        _CORE["module"] = module
    return module


# ----------------------------------------------------------------------
# The run loop
# ----------------------------------------------------------------------
def _run_loop(cpu, max_instructions: int) -> int:
    module = _core()
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
    st_p = ffi.cast("int64_t *", ffi.from_buffer(st))
    regs_p = ffi.cast("uint32_t *", ffi.from_buffer(regs))
    mem_p = ffi.cast("uint8_t *", ffi.from_buffer(memory._data))
    while True:
        if recording:
            st[5] = log._length
            st[6] = log._data.shape[0]
            ev = ffi.cast("int64_t *", ffi.from_buffer(log._data))
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
    if not cpu._record_retires:
        return _run_loop(cpu, max_instructions)
    # Retire projection mirrors Cpu._run_retiring: park live emission,
    # then project the whole new-event segment in one pass at run end.
    cpu._record_retires = False
    try:
        executed = _run_loop(cpu, max_instructions)
    except SimulationError as error:
        cpu._record_retires = True
        cpu._finalize_retires([], str(error))
        raise
    cpu._record_retires = True
    cpu._finalize_retires([], None)
    return executed


# ----------------------------------------------------------------------
# Capability probe (the backend-registry degradation contract)
# ----------------------------------------------------------------------
_PROBE: Dict[str, Any] = {"checked": False, "available": False, "error": None}


def compiled_available() -> bool:
    """True when the compiled core builds and runs here."""
    _probe()
    return bool(_PROBE["available"])


def probe_error() -> Optional[str]:
    """Why the compiled engine is unavailable (None when it is)."""
    _probe()
    return _PROBE["error"]


def reset_probe() -> None:
    """Forget the probe result (tests toggling the environment)."""
    _PROBE.update(checked=False, available=False, error=None)


def _toolchain_errors() -> tuple:
    """What a missing cffi or C compiler, or an unwritable cache, raises."""
    try:
        from cffi import VerificationError
    except ImportError:
        return (ImportError, OSError)
    return (ImportError, OSError, VerificationError)


def _probe() -> None:
    if not _PROBE["checked"]:
        error = _probe_failure()
        _PROBE.update(checked=True, available=error is None, error=error)


def _probe_failure() -> Optional[str]:
    """Why the core cannot run here, or ``None`` when it can."""
    if os.environ.get("REVEAL_DISABLE_COMPILED", "").strip():
        return "disabled by REVEAL_DISABLE_COMPILED"
    try:
        _core()
    except _toolchain_errors() as exc:
        return f"{type(exc).__name__}: {exc}"
    # A real end-to-end run: one ebreak must retire in the core.
    from repro.riscv.cpu import Cpu
    from repro.riscv.memory import Memory

    cpu = Cpu(Memory(64), record_events=True)
    cpu.load_program([0x00100073], 0)
    executed = run_compiled(cpu, max_instructions=16)
    if cpu.halted and executed == 1 and len(cpu.events) == 1:
        return None
    return "probe program did not halt after 1 instruction"
